"""Acceptance suite: one test per exit criterion, each printing PASS/FAIL.

 1. Analytic sweep shape: minimum at the RSU, density dominance, left-branch
    steepness (runtime < 5 s).
 2. Closed-form pmf equals exhaustive outcome enumeration to 1e-12 on 50
    randomized calibrations (runtime < 10 s).
 3. Monte-Carlo replay of the model's assumptions matches the pmf for
    attempts 0..5 at three operating points under an exact binomial tail
    test at a 1e-3 level shared by the 18 bins (1e5 trials each, runtime < 60 s).
 4. Simulated 90th-percentile service completion time orders the trigger
    settings 0 m < -100 m < 300 m inside every flow group (3x3 grid,
    600 s simulated per cell, warmup excluded, runtime < 10 min).
 5. Empirical attempts: <= 1.1 at the RSU for 10 veh/s, strictly increasing
    with flow at 300 m.
 6. Background-broadcast packet error rate is flat (< 0.01 absolute spread)
    across trigger settings within each flow.
 7. Degenerate channels, exact: lossless completes everything in one attempt
    within tau_max + t_ack; blocked completes nothing.
 8. Repeated sweeps with identical seeds are byte-identical at any
    parallelism degree.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time

import numpy as np
import pytest

from conftest import SWEEP_FLOWS, SWEEP_TRIGGERS
from test_analytic import enumerate_first_success_pmf, random_small_curve
from v2isim import ScenarioConfig, run
from v2isim.analytic import AnalyticParams, first_success_pmf, params_from_config, sweep_trigger
from v2isim.cli import main as cli_main
from v2isim.metrics import OUTCOME_SIMEND, mean_attempts_empirical, sct_percentile

TAU_MAX_MS = 200


@contextlib.contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_analytic_shape():
    with criterion("1 analytic-shape"):
        start = time.perf_counter()
        cfg = ScenarioConfig()
        d_values = [float(d) for d in range(-300, 501, 20)]
        curves = {}
        for rho in (10.0, 20.0, 30.0):
            params = params_from_config(cfg, density=rho)
            curves[rho] = sweep_trigger(params, d_values)

        # (a) global minimum at d_t = 0 within one grid step, every density.
        for rho, points in curves.items():
            means = [p.mean_attempts for p in points]
            d_min = points[means.index(min(means))].d_t
            assert abs(d_min) <= 20.0, f"density {rho}: minimum at {d_min}"

        # (b) 30 veh/s curve pointwise >= 10 veh/s curve.
        for lo, hi in zip(curves[10.0], curves[30.0]):
            assert hi.mean_attempts >= lo.mean_attempts

        # (c) steeper left branch: |slope| at -200 m exceeds |slope| at +200 m.
        for rho, points in curves.items():
            by_d = {p.d_t: p.mean_attempts for p in points}
            left = abs(by_d[-180.0] - by_d[-220.0]) / 40.0
            right = abs(by_d[220.0] - by_d[180.0]) / 40.0
            assert left > right, f"density {rho}: {left} !> {right}"

        assert time.perf_counter() - start < 5.0


def test_criterion_2_oracle_equivalence():
    with criterion("2 oracle-equivalence"):
        start = time.perf_counter()
        rng = np.random.default_rng(1234)
        for _ in range(50):
            curve = random_small_curve(rng)
            params = AnalyticParams(
                d_t=float(rng.uniform(-250.0, 400.0)), mean_speed=30.0,
                t_sum_s=0.6, tau_s=0.104, curve=curve,
                density=float(curve.levels[0]), n_max=8,
            )
            analytic = np.asarray(first_success_pmf(params))
            oracle = enumerate_first_success_pmf(params, 8)
            assert np.max(np.abs(analytic - oracle)) < 1e-12
        assert time.perf_counter() - start < 10.0


def test_criterion_3_monte_carlo_consistency(capsys):
    with criterion("3 monte-carlo-consistency"):
        start = time.perf_counter()
        # The validate subcommand defaults to exactly the three operating
        # points under test: (300, 30), (0, 10), (-100, 20).
        code = cli_main(["validate", "--trials", "100000"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert out.count(" ok") == 18  # 6 attempt bins x 3 points
        assert "VIOLATION" not in out
        assert time.perf_counter() - start < 60.0


def test_criterion_4_sct_ordering(reference_sweep):
    with criterion("4 sct-ordering"):
        cells = reference_sweep.cells
        for flow in SWEEP_FLOWS:
            p90 = {d: sct_percentile(cells[(d, flow)], 90) for d in SWEEP_TRIGGERS}
            assert p90[0.0] < p90[-100.0] < p90[300.0], f"flow {flow}: {p90}"
        assert reference_sweep.elapsed_s < 600.0


def test_criterion_5_empirical_attempts(reference_sweep):
    with criterion("5 empirical-attempts"):
        cells = reference_sweep.cells
        assert mean_attempts_empirical(cells[(0.0, 10.0)]) <= 1.1
        at_300 = [mean_attempts_empirical(cells[(300.0, f)]) for f in SWEEP_FLOWS]
        assert at_300[0] < at_300[1] < at_300[2], f"attempts at 300 m: {at_300}"


def test_criterion_6_bsm_flatness(reference_sweep):
    with criterion("6 bsm-flatness"):
        cells = reference_sweep.cells
        for flow in SWEEP_FLOWS:
            pers = [cells[(d, flow)].bsm_per for d in SWEEP_TRIGGERS]
            spread = max(pers) - min(pers)
            assert spread < 0.01, f"flow {flow}: spread {spread}"


def test_criterion_7_degenerate_channels(lossless_curve_file, blocked_curve_file):
    with criterion("7 degenerate-channels"):
        base = dataclasses.replace(
            ScenarioConfig(), sim_duration=200_000, warmup=0, flow_rate=10.0,
            d_t=0.0, rng_seed=31, bsm_period=1000,
        )
        lossless = run(dataclasses.replace(base, per_curve=lossless_curve_file))
        served = [r for r in lossless.records if r.outcome != OUTCOME_SIMEND]
        assert served
        assert all(r.complete for r in served)
        assert all(r.attempts == 1 for r in served)
        assert all(r.sct <= TAU_MAX_MS + base.t_ack for r in served)

        blocked = run(dataclasses.replace(base, per_curve=blocked_curve_file))
        assert sum(1 for r in blocked.records if r.complete) == 0


def test_criterion_8_sweep_determinism(tmp_path):
    with criterion("8 sweep-determinism"):
        outputs = []
        for name, degree in (("p1", "1"), ("p4a", "4"), ("p4b", "4")):
            out = tmp_path / name
            code = cli_main([
                "sweep", "--out", str(out), "--d-t", "0,300", "--flows", "10",
                "--parallel", degree, "--set", "sim_duration=60000",
                "--set", "warmup=0", "--set", "bsm_period=500",
            ])
            assert code == 0
            outputs.append(((out / "sweep_summary.csv").read_bytes(),
                            (out / "sweep.meta").read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]
