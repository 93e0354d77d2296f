"""Closed-form first-success model vs independent oracles.

The reference oracle enumerates every joint request/acknowledgment reception
outcome over the first n_max+1 attempts (2 packets per attempt, so 2^(2n+2)
equally-structured outcomes weighted by their Bernoulli probabilities) and
reads the first-success index straight off each outcome. It shares no code
with the product-form implementation under test.

A second oracle is the scalar per-attempt recurrence that the array kernel
replaced; the kernel must reproduce it bit for bit. ``attempt_success``, the
one success rule that the kernel and the Monte-Carlo replay share, must
reproduce the scalar rule it replaced bit for bit too.
"""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from v2isim import analytic
from v2isim import channel as chan
from v2isim.analytic import (
    AnalyticParams, SweepPoint, attempt_distances, bsm_per, first_success_pmf, mean_attempts,
    params_from_config, sweep_trigger,
)
from v2isim.channel import PerCurve, constant_per_curve, default_calibration, per
from v2isim.core import ScenarioConfig
from v2isim.mobility import Direction, lane_y


CAL = default_calibration()


def make_params(d_t=0.0, curve=CAL, density=30.0, tau_s=0.104, n_max=None):
    return AnalyticParams(d_t=d_t, mean_speed=30.0, t_sum_s=0.6, tau_s=tau_s,
                          curve=curve, density=density, n_max=n_max)


# -- enumeration oracle --------------------------------------------------

_ORACLE_CACHE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _outcome_tables(n_attempts: int):
    """All 2^(2*n_attempts) reception outcomes and their first-success index."""
    if n_attempts not in _ORACLE_CACHE:
        n_pkts = 2 * n_attempts
        total = 1 << n_pkts
        bits = (np.arange(total)[:, None] >> np.arange(n_pkts)[None, :]) & 1
        bits = bits.astype(np.uint8)
        both = (bits[:, 0::2] & bits[:, 1::2]).astype(bool)
        first = np.argmax(both, axis=1)
        has_any = both.any(axis=1)
        _ORACLE_CACHE[n_attempts] = (bits, first, has_any)
    return _ORACLE_CACHE[n_attempts]


def enumerate_first_success_pmf(params: AnalyticParams, n_max: int) -> np.ndarray:
    """Brute-force pmf over attempts 0..n_max by exhaustive enumeration."""
    n_attempts = n_max + 1
    success_probs = []
    for n in range(n_attempts):
        d_req, d_ack = attempt_distances(params, n)
        success_probs.append(1.0 - per(params.curve, d_req, params.density))
        success_probs.append(1.0 - per(params.curve, d_ack, params.density))
    p = np.asarray(success_probs)
    bits, first, has_any = _outcome_tables(n_attempts)
    weights = np.prod(np.where(bits == 1, p[None, :], 1.0 - p[None, :]), axis=1)
    pmf = np.zeros(n_attempts)
    np.add.at(pmf, first[has_any], weights[has_any])
    return pmf


def random_small_curve(rng: np.random.Generator) -> PerCurve:
    n_knots = int(rng.integers(2, 6))
    dists = np.sort(rng.uniform(0.0, 400.0, size=n_knots))
    dists[0] = 0.0
    pers = np.sort(rng.uniform(0.0, 0.9, size=n_knots))
    level = float(rng.uniform(5.0, 40.0))
    return PerCurve(levels=(level,),
                    tables=(tuple((float(d), float(p)) for d, p in zip(dists, pers)),))


# -- trivial reductions ---------------------------------------------------


def test_lossless_channel_always_succeeds_first_attempt():
    params = make_params(curve=constant_per_curve(0.0), n_max=10)
    pmf = first_success_pmf(params)
    assert pmf[0] == 1.0
    assert all(x == 0.0 for x in pmf[1:])
    assert mean_attempts(params) == 1.0


def test_constant_channel_reduces_to_geometric():
    p = 0.8
    params = make_params(curve=constant_per_curve(1 - p), n_max=12)
    pmf = first_success_pmf(params)
    assert pmf[0] == pytest.approx(p * p, rel=1e-12)
    for n, value in enumerate(pmf):
        assert value == pytest.approx(p * p * (1 - p * p) ** n, rel=1e-9)


def test_constant_channel_conditional_mean_is_inverse_square():
    params = make_params(curve=constant_per_curve(0.2), n_max=200)
    assert mean_attempts(params) == pytest.approx(1.0 / 0.64, abs=1e-6)  # 1.5625


def test_blocked_channel_yields_no_success_mass():
    params = make_params(curve=constant_per_curve(1.0), n_max=20)
    pmf = first_success_pmf(params)
    assert sum(pmf) == 0.0
    assert mean_attempts(params) is None


def test_first_attempt_value_by_hand_lookup():
    # d_t = 0, n = 0: request at 0 m (a knot), ack at tau*v = 3.12 m, which
    # interpolates between the 0 m and 25 m knots of the 30 veh/s table.
    params = make_params(d_t=0.0, density=30.0, tau_s=0.104)
    table = dict(CAL.tables[CAL.levels.index(30.0)])
    per0 = table[0.0]
    per_ack = table[0.0] + (table[25.0] - table[0.0]) * (3.12 - 0.0) / 25.0
    expected = (1.0 - per0) * (1.0 - per_ack)
    # pmf[0] is attempt 0's success probability times a never-failed mass of 1.
    assert first_success_pmf(params)[0] == pytest.approx(expected, rel=1e-12)


# -- oracle equivalence ----------------------------------------------------


def test_pmf_matches_enumeration_small_cases():
    # The documented 2^12-outcome case: n_max = 5.
    rng = np.random.default_rng(55)
    for _ in range(10):
        params = make_params(d_t=float(rng.uniform(-200, 350)),
                             curve=random_small_curve(rng),
                             density=20.0, n_max=5)
        analytic = np.asarray(first_success_pmf(params))
        oracle = enumerate_first_success_pmf(params, 5)
        assert np.max(np.abs(analytic - oracle)) < 1e-12


def test_pmf_entries_bounded_and_mass_at_most_one():
    rng = np.random.default_rng(77)
    for _ in range(20):
        params = make_params(d_t=float(rng.uniform(-300, 500)),
                             curve=random_small_curve(rng), density=15.0)
        pmf = first_success_pmf(params)
        assert all(0.0 <= x <= 1.0 for x in pmf)
        sums = np.cumsum(pmf)
        assert np.all(np.diff(sums) >= 0)
        assert sums[-1] <= 1.0 + 1e-12


# -- shape properties on the shipped calibration ----------------------------


def test_mean_attempts_ordering_matches_reported_behavior():
    m0 = mean_attempts(make_params(d_t=0.0))
    m_neg = mean_attempts(make_params(d_t=-100.0))
    m_pos = mean_attempts(make_params(d_t=300.0))
    assert m0 < m_neg < m_pos


def test_sweep_minimum_at_zero_for_monotone_symmetric_curve():
    d_range = [float(d) for d in range(-300, 501, 20)]
    points = sweep_trigger(make_params(), d_range)
    means = [p.mean_attempts for p in points]
    assert points[means.index(min(means))].d_t == 0.0


def test_sweep_left_branch_steeper_than_right():
    d_range = [-220.0, -180.0, 180.0, 220.0]
    pts = {p.d_t: p.mean_attempts for p in sweep_trigger(make_params(), d_range)}
    left = abs(pts[-180.0] - pts[-220.0]) / 40.0
    right = abs(pts[220.0] - pts[180.0]) / 40.0
    assert left > right


def test_sweep_higher_density_dominates():
    d_range = [float(d) for d in range(-300, 501, 50)]
    lo = sweep_trigger(make_params(density=10.0), d_range)
    hi = sweep_trigger(make_params(density=30.0), d_range)
    assert all(h.mean_attempts >= l.mean_attempts for l, h in zip(lo, hi))


def test_sweep_carries_no_success_points():
    params = make_params(curve=constant_per_curve(1.0), n_max=10)
    points = sweep_trigger(params, [0.0, 100.0])
    assert len(points) == 2
    assert all(p.mean_attempts is None and p.success_mass == 0.0 for p in points)


def test_sweep_rejects_empty_range():
    with pytest.raises(ValueError):
        sweep_trigger(make_params(), [])


def test_params_from_config_uses_effective_tau():
    cfg = ScenarioConfig()  # uniform [8, 200] -> effective 104 ms
    params = params_from_config(cfg, d_t=50.0, density=20.0)
    assert params.tau_s == pytest.approx(0.104)
    assert params.t_sum_s == pytest.approx(0.6)
    assert params.d_t == 50.0


def test_auto_cutoff_leaves_negligible_tail():
    params = make_params(d_t=-250.0, density=30.0)  # worst case: receding
    pmf = first_success_pmf(params)
    assert sum(pmf) > 1.0 - 1e-6


def test_sweep_point_keeps_its_contract():
    """The repr is what perfbench's model_check digest hashes, so it must not
    move; the fields keep their order and cannot be reassigned."""
    assert SweepPoint._fields == ("d_t", "mean_attempts", "success_mass")
    point = SweepPoint(-300.0, 1.25, 0.5)
    assert repr(point) == "SweepPoint(d_t=-300.0, mean_attempts=1.25, success_mass=0.5)"
    assert repr(sweep_trigger(make_params(curve=constant_per_curve(1.0), n_max=3), [0.0])) \
        == "[SweepPoint(d_t=0.0, mean_attempts=None, success_mass=0.0)]"
    with pytest.raises(AttributeError):
        point.d_t = 0.0


# -- the array kernel against the scalar recurrence ---------------------------


def scalar_attempt_success(params: AnalyticParams, n: int) -> float:
    """The per-attempt rule as it was written before ``attempt_success``."""
    d_req, d_ack = attempt_distances(params, n)
    return (1.0 - per(params.curve, d_req, params.density)) \
        * (1.0 - per(params.curve, d_ack, params.density))


def scalar_first_success(params: AnalyticParams) -> tuple[list[float], float | None, float]:
    """(pmf, mean attempts, mass) by the per-attempt loop, one attempt at a time."""
    pmf: list[float] = []
    fail_mass = 1.0
    support = params.curve.max_knot_distance
    limit = params.n_max if params.n_max is not None else 100_000
    n = 0
    while n <= limit:
        d_req, d_ack = attempt_distances(params, n)
        a = scalar_attempt_success(params, n)
        pmf.append(a * fail_mass)
        fail_mass *= 1.0 - a
        if params.n_max is None:
            if fail_mass < 1e-9:
                break
            if a == 0.0 and d_req < 0 and min(abs(d_req), abs(d_ack)) >= support:
                break
        n += 1
    mass = numerator = 0.0
    for n, p in enumerate(pmf):   # left to right, as Python 3.11's sum()
        mass += p
        numerator += (n + 1) * p
    return pmf, (numerator / mass if mass > 0.0 else None), mass


def _hex(x: float | None) -> str | None:
    return None if x is None else float.hex(x)


def assert_kernel_matches_scalar(params: AnalyticParams, d_range: list[float]) -> None:
    pmf, mean, mass = scalar_first_success(params)
    assert [_hex(x) for x in first_success_pmf(params)] == [_hex(x) for x in pmf]
    assert _hex(mean_attempts(params)) == _hex(mean)
    for point in sweep_trigger(params, d_range):
        _, mean, mass = scalar_first_success(replace(params, d_t=point.d_t))
        assert (_hex(point.mean_attempts), _hex(point.success_mass)) == (_hex(mean), _hex(mass))


@st.composite
def small_curves(draw) -> PerCurve:
    levels = sorted(draw(st.sets(st.sampled_from([5.0, 10.0, 20.0, 30.0, 40.0]),
                                 min_size=1, max_size=3)))
    dists = sorted(draw(st.sets(st.floats(1.0, 600.0), min_size=1, max_size=4)))
    base = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=len(dists) + 1,
                                max_size=len(dists) + 1)))
    tables = tuple(tuple(zip([0.0, *dists], [min(1.0, p * (1.0 + 0.1 * i)) for p in base]))
                   for i in range(len(levels)))
    return PerCurve(levels=tuple(levels), tables=tables)


_CURVES = st.one_of(st.just(CAL), small_curves(),
                    st.sampled_from([0.0, 0.5, 1.0]).map(constant_per_curve))


@st.composite
def kernel_cases(draw) -> tuple[AnalyticParams, list[float]]:
    curve = draw(_CURVES)
    params = AnalyticParams(
        d_t=draw(st.floats(-800.0, 800.0)),
        mean_speed=draw(st.floats(0.5, 60.0)),
        t_sum_s=draw(st.floats(0.05, 2.0)),
        tau_s=draw(st.floats(0.008, 0.2)),
        curve=curve,
        density=draw(st.one_of(st.sampled_from(curve.levels), st.floats(1.0, 50.0))),
        n_max=draw(st.one_of(st.none(), st.sampled_from([31, 32, 33]), st.integers(0, 300))),
    )
    # 255 to 512 distances fill or cross row blocks of 128, and n_max 31 to
    # 33 ends a pmf at, or one term past, a column block of 32; longer pmfs
    # cross column blocks. So stops land on block edges too.
    size = draw(st.one_of(st.integers(1, 20), st.sampled_from([255, 256, 257, 300, 512])))
    return params, draw(st.lists(st.floats(-1000.0, 1000.0), min_size=size, max_size=size))


# No shrink phase: an example runs the scalar loop once per distance, up to
# 300 times, so shrinking a failure would take minutes.
@settings(derandomize=True, max_examples=60, deadline=None, database=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(kernel_cases())
def test_kernel_matches_scalar_recurrence_bit_for_bit(case):
    assert_kernel_matches_scalar(*case)


@pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
def test_kernel_matches_scalar_on_constant_curves(value):
    params = make_params(curve=constant_per_curve(value))
    assert_kernel_matches_scalar(params, [float(d) for d in range(-600, 601, 7)])
    assert_kernel_matches_scalar(replace(params, n_max=40), [-100.0, 0.0, 300.0])


def test_kernel_matches_scalar_across_many_column_blocks_to_the_receding_stop():
    # Blocked within 500 m, and 0.05 m per attempt: the vehicle leaves the
    # calibrated range after 10,000 attempts, over 300 column blocks.
    params = AnalyticParams(d_t=0.0, mean_speed=1.0, t_sum_s=0.05, tau_s=0.01,
                            curve=constant_per_curve(1.0, max_distance=500.0),
                            density=20.0)
    pmf = first_success_pmf(params)
    assert len(pmf) == 10_001 and mean_attempts(params) is None
    assert_kernel_matches_scalar(params, [0.0, -400.0, 250.0])


def test_kernel_receding_stop_needs_the_request_behind_the_rsu():
    # Attempt 0's acknowledgment lands 5 m behind the RSU, past the 1 m range,
    # while its request is still 5 m ahead: the pmf goes on to attempt 1.
    params = AnalyticParams(d_t=5.0, mean_speed=50.0, t_sum_s=0.6, tau_s=0.2,
                            curve=constant_per_curve(1.0, max_distance=1.0), density=20.0)
    assert first_success_pmf(params) == [0.0, 0.0]
    assert_kernel_matches_scalar(params, [5.0, 3.0, -2.0, 40.0])


@pytest.mark.parametrize("row_block", [7, 128, 256])
def test_kernel_sweep_is_the_same_at_any_row_block(monkeypatch, row_block):
    """Each distance is its own column of the kernel, so the row block moves no byte."""
    d_range = [float(d) for d in np.arange(-300.0, 500.5, 1.0)]   # the default analytic grid
    expected = [sweep_trigger(make_params(density=rho), d_range) for rho in (10.0, 25.0)]
    monkeypatch.setattr(analytic, "_ROW_BLOCK", row_block)
    assert [sweep_trigger(make_params(density=rho), d_range) for rho in (10.0, 25.0)] == expected


# -- the one success rule against the scalar rule it replaced -----------------


# The default calibration at a level and between two (blended), and five
# random one-level calibrations.
_SUCCESS_CASES = [(CAL, 30.0), (CAL, 15.0), (CAL, 27.5),
                  *((random_small_curve(np.random.default_rng(seed)), 15.0) for seed in range(5))]


@pytest.mark.parametrize("curve, density", _SUCCESS_CASES)
def test_kernel_attempt_success_matches_the_scalar_rule_bit_for_bit(curve, density):
    params = make_params(curve=curve, density=density)
    d_ts = np.linspace(-600.0, 600.0, 37)
    ns = np.arange(41, dtype=float)
    grid = analytic.attempt_success(replace(params, d_t=d_ts), ns[:, None])   # array d_t
    assert grid.shape == (41, 37)
    for j, d_t in enumerate(d_ts.tolist()):
        point = replace(params, d_t=d_t)
        expected = [float.hex(scalar_attempt_success(point, n)) for n in range(41)]
        assert [float.hex(x) for x in grid[:, j].tolist()] == expected
        assert [float.hex(x) for x in analytic.attempt_success(point, ns).tolist()] == expected
        assert float.hex(float(analytic.attempt_success(point, 40))) == expected[40]


@pytest.mark.parametrize("road_length", [3000.0, 0.5])   # 0.5 m: the two end nodes alone
def test_bsm_model_of_a_constant_per_is_that_constant(road_length):
    """The gap and lane-pair weights each sum to one, and the trapezoid is
    exact on the linear gap density."""
    cfg = ScenarioConfig(road_length=road_length)
    assert bsm_per(cfg, constant_per_curve(0.3)) == pytest.approx(0.3, rel=1e-12)


@pytest.mark.parametrize("knot", [100.0, 0.0])   # 0 m: no node left to integrate
def test_bsm_model_tail_past_the_last_knot_is_exact(knot):
    """Past a knot short of the road, the clamped PER's closed-form tail."""
    knots = ((0.0, 0.3), (knot, 0.3)) if knot else ((0.0, 0.3),)
    curve = PerCurve(levels=(10.0,), tables=(knots,))
    assert bsm_per(ScenarioConfig(), curve) == pytest.approx(0.3, rel=1e-12)


@pytest.mark.parametrize("flow, pinned", [
    (10.0, "0x1.8bc1ca6429f7ap-2"), (20.0, "0x1.e0825d67cb976p-2"),
    (30.0, "0x1.1aaa64e514178p-1"),
])
def test_bsm_model_is_pinned_bit_for_bit(flow, pinned):
    """The default config's closed form, bit for bit: its lanes come from
    ``mobility.lane_y``, the rule the engine's arrivals are drawn by."""
    assert bsm_per(ScenarioConfig(flow_rate=flow), CAL).hex() == pinned


def pair_matrix_bsm_per(cfg: ScenarioConfig) -> float:
    """The closed form over every ordered lane pair, with its lane offsets from
    ``mobility.lane_y``: memory grows with lane_count**2."""
    length = cfg.road_length
    lanes = np.arange(cfg.lane_count // 2)
    lanes_y = np.concatenate([lane_y(d, lanes, cfg.lane_width) for d in Direction])
    dy, pairs = np.unique(np.abs(lanes_y[:, None] - lanes_y), return_counts=True)
    r = np.linspace(0.0, length, math.ceil(length / 0.5) + 1)
    per_at = chan.per_many(cfg.channel(), np.hypot(r, dy[:, None]), cfg.flow_rate)
    f = (pairs / pairs.sum()) @ per_at * (2.0 * (length - r) / length ** 2)
    return float((f.sum() - (f[0] + f[-1]) / 2.0) * (r[1] - r[0]))


# 20 m lanes put gaps past the 500 m last knot from 26 lanes apart on; 3.7 m
# is not a dyadic width.
@pytest.mark.parametrize("lane_width", [3.5, 3.7, 20.0])
def test_bsm_model_pair_counts_match_the_pair_matrix(lane_width):
    for lane_count in range(2, 65, 2):
        cfg = ScenarioConfig(lane_count=lane_count, lane_width=lane_width)
        assert bsm_per(cfg, CAL) == pytest.approx(pair_matrix_bsm_per(cfg), rel=1e-12, abs=0.0)


def test_bsm_model_merged_lateral_gaps_match_one_run_per_gap(monkeypatch):
    """4,096 lateral gaps below the last knot, in 1,024 runs: each run sits at
    its pair-weighted mean gap."""
    cfg = ScenarioConfig(lane_count=4096, lane_width=0.05)
    merged = bsm_per(cfg, CAL)
    monkeypatch.setattr(analytic, "_BSM_MAX_RUNS", 4096)
    assert bsm_per(cfg, CAL) == pytest.approx(merged, abs=1e-8)


@pytest.mark.parametrize("lane_count", [2 ** 16, 2 ** 32])
def test_bsm_model_memory_does_not_grow_with_the_lane_count(lane_count):
    """The pair matrix would be 32 GiB at 2**16 lanes."""
    cfg = ScenarioConfig(lane_count=lane_count)
    assert bsm_per(cfg, constant_per_curve(0.3)) == pytest.approx(0.3, rel=1e-12)
    tracemalloc.start()
    try:
        value = bsm_per(cfg, CAL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    # Nearly every pair is past the last knot, where the PER is clamped.
    clamped = per(CAL, CAL.max_knot_distance, ScenarioConfig().flow_rate)
    assert value == pytest.approx(clamped, abs=1e-3)


def test_bsm_model_memory_does_not_grow_with_the_last_knot():
    """A calibration reaching 1e9 m would take 2e9 nodes of 0.5 m, about 16 GB
    per temporary; the nodes are capped and spread over the calibrated span.
    PER rising linearly from 0.1 to 0.5 over the road has mean 0.1 + 0.4 / 3,
    since the gap's mean is a third of the road."""
    curve = PerCurve(levels=(10.0,), tables=(((0.0, 0.1), (1e9, 0.5)),))
    tracemalloc.start()
    try:
        value = bsm_per(ScenarioConfig(road_length=1e9), curve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert value == pytest.approx(0.1 + 0.4 / 3, abs=1e-9)
