"""Reception model: interpolation, monotonicity, sampling, tau bounds."""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from v2isim import channel
from v2isim.analytic import mean_attempts, params_from_config
from v2isim.channel import (
    CurveError, PerCurve, constant_per_curve, default_calibration, dumps_per_curve,
    load_per_curve, parse_per_curve, per, per_many, reception_mask, sample_tau,
    uniform_stream, validate_per_curve,
)
from v2isim.core import ScenarioConfig
from v2isim.mobility import Direction, generate_arrivals
from v2isim.validation import bin_consistent

CAL = default_calibration()


def test_default_calibration_is_valid():
    assert validate_per_curve(CAL) == []


def test_knot_identity():
    for level, table in zip(CAL.levels, CAL.tables):
        for dist, value in table:
            assert per(CAL, dist, level) == pytest.approx(value, abs=1e-12)


def test_symmetry_in_distance():
    rng = np.random.default_rng(3)
    for dist in rng.uniform(0, 600, size=50):
        for rho in (10.0, 17.0, 30.0):
            assert per(CAL, dist, rho) == per(CAL, -dist, rho)


def test_clamps_beyond_last_knot_and_density_range():
    last_dist, last_per = CAL.tables[-1][-1]
    assert per(CAL, last_dist + 5000, 30.0) == pytest.approx(last_per)
    assert per(CAL, 100.0, 5.0) == per(CAL, 100.0, 10.0)      # below range
    assert per(CAL, 100.0, 99.0) == per(CAL, 100.0, 30.0)     # above range


def test_monotone_in_distance():
    rng = np.random.default_rng(11)
    d = np.sort(rng.uniform(0, 800, size=200))
    for rho in (10.0, 15.0, 20.0, 25.0, 30.0):
        values = per_many(CAL, d, rho)
        assert np.all(np.diff(values) >= -1e-12)


def test_monotone_in_density():
    rng = np.random.default_rng(12)
    d = rng.uniform(-700, 700, size=200)
    rhos = [5.0, 10.0, 14.0, 20.0, 26.0, 30.0, 40.0]
    for lo, hi in zip(rhos, rhos[1:]):
        assert np.all(per_many(CAL, d, hi) >= per_many(CAL, d, lo) - 1e-12)


def test_shipped_calibration_all_knot_pairs_non_decreasing():
    # Scanning every knot pair is the oracle for the 100 m vs 300 m example.
    for table in CAL.tables:
        pers = [p for _, p in table]
        assert all(b >= a for a, b in zip(pers, pers[1:]))
    assert per(CAL, 100.0, 10.0) < per(CAL, 300.0, 10.0)


def _stream(seed: int):
    """The uniform stream of a fresh ``default_rng(seed)``."""
    return uniform_stream(np.random.default_rng(seed))


def test_sample_tau_fixed_and_degenerate():
    uniforms, twin = _stream(1), _stream(1)
    # A fixed tau is a one-value range, which leaves the stream where it was.
    assert sample_tau(uniforms, (100, 100)) == 100
    assert all(sample_tau(uniforms, (50, 50)) == 50 for _ in range(100))
    assert next(uniforms) == next(twin)


def test_sample_tau_draws_only_for_a_range():
    """A range maps the stream's next uniform u to low + int(u * span)."""
    uniforms, twin = _stream(3), np.random.default_rng(3)
    assert sample_tau(uniforms, (104, 104)) == 104
    assert [sample_tau(uniforms, (8, 200)) for _ in range(100)] == \
        [8 + int(twin.random() * 193) for _ in range(100)]
    assert next(uniforms) == twin.random()
    # The largest uniform, 1 - 2**-53, still maps inside the range.
    top = iter([1.0 - 2.0**-53])
    assert sample_tau(top, (8, 200)) == 200


def test_tau_law_is_uniform_on_its_range():
    """Each of 8..200 ms passes the binomial tail test at 1/193 over 1e5
    draws, and fixed taus between them take no uniform."""
    uniforms, twin = _stream(17), _stream(17)
    trials = 100_000
    counts = np.zeros(201, dtype=np.int64)
    for i in range(trials):
        counts[sample_tau(uniforms, (8, 200))] += 1
        if i % 1000 == 0:
            assert sample_tau(uniforms, (64, 64)) == 64
    assert counts[:8].sum() == 0 and counts.sum() == trials
    alpha = 1e-3 / 193   # one false-alarm level shared by the 193 values
    for tau in range(8, 201):
        assert bin_consistent(int(counts[tau]), trials, 1 / 193, alpha), tau
    for _ in range(trials):
        next(twin)
    assert next(uniforms) == next(twin)


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_uniform_stream_is_the_generators_random_sequence_at_any_block(monkeypatch, block):
    monkeypatch.setattr(channel, "UNIFORM_BLOCK", block)
    rng, twin = np.random.default_rng(21), np.random.default_rng(21)
    rng.random(3), twin.random(3)   # draws before the stream come first
    uniforms = uniform_stream(rng)
    assert [next(uniforms) for _ in range(1100)] == [twin.random() for _ in range(1100)]


# Lanes over 3 lanes per direction, then over 2**31; then one lane.
PINNED_ARRIVALS = [
    [(1, 1), (4, 1), (5, 1)],
    [(6, 2008052739)],
    (44, 9242),
]
PINNED_PROTOCOL_DRAWS = [
    0.5803323859868507, 0.2986961328189226, 0.6719948779563594,
    46, 189, 78,                  # from 0.1995..., 0.9421..., 0.3651...
    [False, True],                # 0.1054... and 0.6291... against PER 0.2
    0.458860568981583, 191,
]


def test_draw_stream_is_pinned_across_numpy_versions():
    """The run generator's draws give these values, whatever numpy version.

    Seeded outputs hold across numpy versions only while this stream does:
    first the arrival draws (a Poisson count, its exponential spacings and
    one block of lanes, over a span of 3 and one of 2**31), then the
    protocol's uniforms, read in blocks, and the tau values ``sample_tau``
    maps them to. The last two lie past a block of 512.
    """
    rng = np.random.default_rng(0)

    def spawns_and_lanes(lane_count, flow_rate=2000.0, duration=6):
        cfg = replace(ScenarioConfig(), lane_count=lane_count, lane_width=1.0,
                      flow_rate=flow_rate, sim_duration=duration)
        return [(v.spawn_time, int(v.y - 0.5))   # eastbound lane k lies at y = k + 0.5
                for v in generate_arrivals(cfg, Direction.EAST, rng)]

    # Mean counts of 6 and of 40: numpy draws a Poisson count below 10 and
    # from 10 up by two different methods. The last, over one lane, is pinned
    # by its count and the sum of its spawn times.
    drawn_arrivals = [spawns_and_lanes(6), spawns_and_lanes(2**32)]
    many = spawns_and_lanes(2, flow_rate=200.0, duration=400)
    drawn_arrivals.append((len(many), sum(t for t, _ in many)))
    assert drawn_arrivals == PINNED_ARRIVALS
    uniforms = uniform_stream(rng)
    drawn = [next(uniforms) for _ in range(3)]
    drawn += [sample_tau(uniforms, (8, 200)) for _ in range(3)]
    drawn += [reception_mask(uniforms, np.array([0.2, 0.2])).tolist()]
    for _ in range(600):
        next(uniforms)
    drawn += [next(uniforms), sample_tau(uniforms, (8, 200))]
    assert drawn == PINNED_PROTOCOL_DRAWS


def test_sample_tau_uniform_bounds():
    uniforms = _stream(5)
    cfg = ScenarioConfig()
    tau_range = (cfg.tau_low, cfg.tau_high)
    assert tau_range == (8, 200)
    samples = [sample_tau(uniforms, tau_range) for _ in range(10_000)]
    assert min(samples) >= 8 and max(samples) <= 200
    # Both endpoints are reachable (inclusive range).
    assert 8 in samples and 200 in samples


def test_effective_tau():
    # The closed form's single tau is the midpoint of the config's range.
    assert params_from_config(ScenarioConfig(tau_low=64, tau_high=64)).tau_s == 0.064
    assert params_from_config(ScenarioConfig(tau_low=64, tau_high=67)).tau_s == 0.065
    assert params_from_config(ScenarioConfig(tau_low=8, tau_high=200)).tau_s == 0.104


def test_parse_round_trip():
    assert parse_per_curve(dumps_per_curve(CAL)) == CAL


def test_load_parses_a_rewritten_file_again(tmp_path):
    path = tmp_path / "curve.per"
    path.write_text(dumps_per_curve(constant_per_curve(0.25)))
    assert load_per_curve(str(path)) == constant_per_curve(0.25)
    path.write_text(dumps_per_curve(constant_per_curve(0.75)))
    assert load_per_curve(str(path)) == constant_per_curve(0.75)


def test_parse_errors():
    with pytest.raises(CurveError, match="before any 'density'"):
        parse_per_curve("0 0.5\n")
    with pytest.raises(CurveError, match="line 2"):
        parse_per_curve("density 10\n0 0.5 extra\n")
    with pytest.raises(CurveError, match="non-decreasing in distance"):
        parse_per_curve("density 10\n0 0.5\n100 0.1\n")
    with pytest.raises(CurveError, match="\\[0, 1\\]"):
        parse_per_curve("density 10\n0 1.5\n")
    with pytest.raises(CurveError, match="non-decreasing in density"):
        parse_per_curve("density 10\n0 0.5\n100 0.6\ndensity 20\n0 0.1\n100 0.2\n")
    for text, reason in [
        ("density\n0 0.5\n", "line 1: expected 'density <veh/s>'"),
        ("density 10 20\n0 0.5\n", "line 1: expected 'density <veh/s>'"),
        ("density x\n0 0.5\n", "line 1: bad density 'x'"),
        ("density 10\n0 x\n", "line 2: bad knot row '0 x'"),
        ("density 10\n0 0.1\ndensity 10\n0 0.1\n", "density levels must be distinct"),
        ("density 10\n-1 0.1\n", "density 10.0: knot distances must be >= 0"),
        ("density 10\n0 0.1\n0 0.2\n", "density 10.0: knot distances must be strictly increasing"),
    ]:
        with pytest.raises(CurveError, match=re.escape(reason)):
            parse_per_curve(text)
    for bad in ("inf", "nan"):
        with pytest.raises(CurveError, match="knot distances must be finite"):
            parse_per_curve(f"density 10\n0 0.1\n{bad} 0.5\n")
        with pytest.raises(CurveError, match="density levels must be finite"):
            parse_per_curve(f"density 10\n0 0.1\ndensity {bad}\n0 0.2\n")


def test_density_violation_names_the_first_distance():
    # The 20 veh/s level drops below the 10 veh/s level at 100 m and at 200 m.
    curve = PerCurve(levels=(10.0, 20.0),
                     tables=(((0.0, 0.1), (100.0, 0.5), (200.0, 0.8)),
                             ((0.0, 0.1), (100.0, 0.4), (200.0, 0.7))))
    assert validate_per_curve(curve) == [
        "per must be non-decreasing in density "
        "(violated at distance 100.0 between 10.0 and 20.0 veh/s)"]


def test_nan_density_is_rejected_and_infinite_densities_clamp():
    for call in (lambda rho: per(CAL, 100.0, rho), lambda rho: per_many(CAL, [100.0], rho),
                 lambda rho: mean_attempts(replace(params_from_config(ScenarioConfig()),
                                                   density=rho))):
        with pytest.raises(ValueError, match="density must not be NaN"):
            call(math.nan)
        assert np.array_equal(call(math.inf), call(CAL.levels[-1]))
        assert np.array_equal(call(-math.inf), call(CAL.levels[0]))


def test_load_missing_calibration_names_path(tmp_path):
    with pytest.raises(CurveError, match="missing.per"):
        load_per_curve(str(tmp_path / "missing.per"))


def test_density_interpolation_between_levels():
    lo = per(CAL, 200.0, 10.0)
    hi = per(CAL, 200.0, 20.0)
    mid = per(CAL, 200.0, 15.0)
    assert mid == pytest.approx((lo + hi) / 2, rel=1e-12)


def test_curve_validation_reports_each_level():
    bad = PerCurve(levels=(10.0, 20.0), tables=(((0.0, 0.2), (50.0, 0.1)), ()))
    violations = validate_per_curve(bad)
    assert any("density 10" in m for m in violations)
    assert any("density 20" in m for m in violations)


def test_curve_validation_rejects_levels_that_no_file_parses_to():
    # parse_per_curve sorts the levels and gives each its table, so only a
    # PerCurve built directly can hold these.
    tab = ((0.0, 0.1), (100.0, 0.5))
    assert validate_per_curve(PerCurve(levels=(), tables=())) == [
        "calibration must define at least one density level"]
    assert validate_per_curve(PerCurve(levels=(20.0, 10.0), tables=(tab, tab))) == [
        "density levels must be sorted ascending"]
    assert validate_per_curve(PerCurve(levels=(10.0, 20.0), tables=(tab,))) == [
        "each density level needs exactly one knot table"]


# ``per`` is a one-element ``per_many`` and must agree with it bit for bit:
# the engine's SUM memo and the Monte-Carlo check use ``per``, while the
# closed form and ACK/SAM broadcasts use ``per_many``.
SINGLE_KNOT = PerCurve(levels=(10.0, 30.0), tables=(((120.0, 0.25),), ((120.0, 0.5),)))
BIT_CURVES = {
    "default": CAL,
    "constant": constant_per_curve(0.3),
    "single_knot": SINGLE_KNOT,
}
# Below, at, between and above the levels of every curve above.
BIT_DENSITIES = (2.0, 10.0, 12.5, 15.0, 17.3, 20.0, 25.0, 29.999, 30.0, 45.0)


def _bit_probe_distances(curve: PerCurve) -> list[float]:
    knots = sorted({d for tab in curve.tables for d, _ in tab})
    special = [0.0, -0.0, 1e9, -1e9, -1.0, -137.25, 0.5, 499.999, 500.001, math.nan]
    return knots + [-d for d in knots] + special


@pytest.mark.parametrize("name", sorted(BIT_CURVES))
def test_scalar_per_bit_identical_to_per_many(name):
    curve = BIT_CURVES[name]
    for rho in BIT_DENSITIES:
        for dist in _bit_probe_distances(curve):
            got = per(curve, dist, rho)
            want = float(per_many(curve, [dist], rho)[0])
            assert type(got) is float
            # hex() compares bits: it tells -0.0 from 0.0 and matches NaN.
            assert got.hex() == want.hex(), (dist, rho)
    # At exactly an interior level (20 veh/s on the default curve) only that
    # level's table is read; the result has the bits of the zero-weight blend.
    for i, rho in enumerate(curve.levels[1:-1], start=1):
        own, upper = (PerCurve(levels=(rho,), tables=(curve.tables[j],)) for j in (i, i + 1))
        for dist in _bit_probe_distances(curve):
            blend = 1.0 * per(own, dist, rho) + 0.0 * per(upper, dist, rho)
            for got in (per(curve, dist, rho), float(per_many(curve, [dist], rho)[0])):
                assert got.hex() == per(own, dist, rho).hex() == blend.hex(), (dist, rho)


def test_scalar_per_accepts_numpy_scalars():
    got = per(CAL, np.float64(-212.5), np.float64(17.0))
    assert type(got) is float
    assert got == per(CAL, 212.5, 17.0)


def test_reception_mask_draws_one_uniform_per_distance():
    pers = per_many(CAL, np.random.default_rng(8).uniform(0.0, 700.0, size=1000), 17.0)
    uniforms, twin = _stream(9), np.random.default_rng(9)
    mask = reception_mask(uniforms, pers)
    assert np.array_equal(mask, twin.random(len(pers)) >= pers)
    assert next(uniforms) == twin.random()
