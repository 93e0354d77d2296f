"""Reception model: interpolation, monotonicity, sampling, tau bounds."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from bsm_reference import PER_TABLE_MAX_CELLS, per_table
from v2isim.analytic import mean_attempts, params_from_config
from v2isim.channel import (
    CurveError, PerCurve, constant_per_curve, default_calibration, dumps_per_curve,
    load_per_curve, parse_per_curve, per, per_many, reception_mask, sample_tau,
    validate_per_curve,
)
from v2isim.core import ScenarioConfig

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


def test_sample_tau_fixed_and_degenerate():
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    # A fixed tau is a one-value range, which leaves the generator untouched.
    assert sample_tau(rng, (100, 100)) == 100
    assert all(sample_tau(rng, (50, 50)) == 50 for _ in range(100))
    assert rng.bit_generator.state == state


def test_sample_tau_uniform_bounds():
    rng = np.random.default_rng(5)
    cfg = ScenarioConfig()
    tau_range = (cfg.tau_low, cfg.tau_high)
    assert tau_range == (8, 200)
    samples = [sample_tau(rng, tau_range) for _ in range(10_000)]
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
                 lambda rho: per_table(CAL, rho).values,
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


# The reference BSM pass (bsm_reference) reads PER from a per-run table of cell midpoints.
TABLE_CURVES = {
    **BIT_CURVES,
    # Past the 2**17-cell cap, and 1316 * (cells / 1316) rounds below the
    # cell count: per_table must still clamp at exactly the last knot.
    "far": PerCurve(levels=(10.0,), tables=(((0.0, 0.0), (1316.0, 1.0)),)),
    "touch": parse_per_curve("density 10\n0 0\n0.01 1\n"),
    "zero_span": PerCurve(levels=(10.0,), tables=(((0.0, 0.2),),)),
}


def _max_slope(curve: PerCurve) -> float:
    # A density blend's slope lies between its two levels' slopes.
    return max((abs(p1 - p0) / (d1 - d0) for tab in curve.tables
                for (d0, p0), (d1, p1) in zip(tab, tab[1:])), default=0.0)


@pytest.mark.parametrize("flow", (10.0, 15.0, 20.0, 30.0))
def test_per_table_within_half_a_cell_of_per_many(flow):
    table = per_table(CAL, flow)
    assert table.cells_per_m == 100.0 and len(table.values) == 50_001
    d = np.random.default_rng(5).uniform(0.0, 700.0, size=100_000)
    err = np.abs(table.lookup(d) - per_many(CAL, d, flow))
    # 1e-15 absorbs rounding at cell edges, far below the 1.8e-5 bound.
    assert err.max() <= _max_slope(CAL) * 0.01 / 2 + 1e-15


@pytest.mark.parametrize("name", sorted(TABLE_CURVES))
def test_per_table_bound_holds_and_is_bit_exact_past_the_last_knot(name):
    curve = TABLE_CURVES[name]
    last = curve.max_knot_distance
    inside = np.random.default_rng(6).uniform(0.0, last, size=10_000)
    past = np.array([last, np.nextafter(last, math.inf), last + 0.004,
                     1.5 * last + 1.0, 1e6, 1e150])
    for rho in BIT_DENSITIES:
        table = per_table(curve, rho)
        assert len(table.values) <= PER_TABLE_MAX_CELLS
        err = np.abs(table.lookup(inside) - per_many(curve, inside, rho))
        assert err.max() <= _max_slope(curve) / table.cells_per_m / 2 + 1e-15, rho
        want = per_many(curve, past, rho)
        assert np.array_equal(table.lookup(past).view(np.uint64), want.view(np.uint64)), rho


def test_per_table_cell_cap_bounds_its_size():
    # The 10 km knot of constant_per_curve would need 1e6 cells of 1 cm.
    for curve in (constant_per_curve(0.3), TABLE_CURVES["far"]):
        table = per_table(curve, 10.0)
        assert len(table.values) == PER_TABLE_MAX_CELLS
        assert table.values.nbytes <= 2 ** 20
    huge = PerCurve(levels=(10.0,), tables=(((0.0, 0.1), (1e300, 0.9)),))
    assert validate_per_curve(huge) == []
    assert len(per_table(huge, 10.0).values) == PER_TABLE_MAX_CELLS


def test_reception_mask_draws_one_uniform_per_distance():
    table = per_table(CAL, 17.0)
    d = np.random.default_rng(8).uniform(0.0, 700.0, size=1000)
    rng, twin = np.random.default_rng(9), np.random.default_rng(9)
    mask = reception_mask(rng, table.lookup(d))
    assert np.array_equal(mask, twin.random(len(d)) >= table.lookup(d))
    assert rng.random() == twin.random()
