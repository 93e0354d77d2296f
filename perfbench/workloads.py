"""The three benchmark workloads: set-up, timed body and output check.

Each workload has three parts:

* ``build``: the set-up a command-line call pays before its first event:
  build and validate the configs, resolve the channel model.
* ``body``: the work a user waits for. It calls the package only through
  module attributes (``engine.run_batch``, ``analytic.sweep_trigger`` ...),
  so that a traced pass can wrap exactly those attributes.
* ``check``: runs after the body, untimed and untraced. It returns one
  failure reason per operation (None when the operation is fine), a sha256
  digest per operation and the simulated statistics.

Run as a script (``python3 perfbench/workloads.py <workload> <seed>``), this
module is the fresh-interpreter set-up probe that ``run.py`` times for
``setup_s``; ``src`` must then be on ``PYTHONPATH``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import sys
from typing import Any, NamedTuple

import numpy as np

from v2isim import analytic, cli, core, engine, metrics, validation

GRID_TRIGGERS = (300.0, 0.0, -100.0)
GRID_FLOWS = (10.0, 20.0, 30.0)
SIM_MS = 200_000                       # simulated time per engine cell
DENSE_CELL = (300.0, 30.0)             # heaviest protocol cell (d_t, flow)
SWEEP_DENSITIES = (10.0, 20.0, 30.0)
SWEEP_RANGE = (-300.0, 500.0, 1.0)     # d_min, d_max, d_step: 801 points
VALIDATE_POINTS = ((300.0, 30.0), (0.0, 10.0), (-100.0, 20.0))
VALIDATE_TRIALS = 100_000

# Tiny sizes for the self-test only: the statistical checks are not
# meaningful there, the metric names and the counters still are.
TINY_SIM_MS = 20_000
TINY_SWEEP_STEP = 50.0
TINY_TRIALS = 10_000

# A Monte-Carlo bin fails when a count at least this far out, on its side of
# the expectation, has a binomial probability below this: a 1e-3 false-alarm
# level shared by the 18 bins of a run (about 3.9 sigma for a bin in the
# normal regime). See README.md for why this is not the per-bin 3-sigma rule.
BIN_TAIL_ALPHA = 1e-3 / 18

# Criterion 6 of the acceptance suite.
BSM_PER_SPREAD_MAX = 0.01


class Check(NamedTuple):
    failures: list[str | None]    # one entry per operation
    digests: list[str]            # one sha256 per operation
    stats: dict[str, Any]         # simulated statistics: reported, not gated


def _validated(cfg: core.ScenarioConfig) -> core.ScenarioConfig:
    violations = core.validate_config(cfg)
    if violations:
        raise core.ConfigError("invalid configuration:\n  " + "\n  ".join(violations))
    return cfg


def _files_digest(*paths: str) -> str:
    """sha256 over the sha256 digests of the files, in order."""
    digests = []
    for path in paths:
        with open(path, "rb") as fh:
            digests.append(hashlib.sha256(fh.read()).hexdigest())
    return hashlib.sha256("".join(digests).encode()).hexdigest()


# -- grid_sweep ---------------------------------------------------------------

class GridInputs(NamedTuple):
    cells: list[core.ScenarioConfig]


def build_grid(seed: int, tiny: bool) -> GridInputs:
    base = core.ScenarioConfig(sim_duration=TINY_SIM_MS if tiny else SIM_MS,
                               warmup=0 if tiny else core.ScenarioConfig.warmup)
    cells = [
        _validated(dataclasses.replace(base, d_t=d, flow_rate=f,
                                       rng_seed=cli.derive_cell_seed(seed, d, f)))
        for d in GRID_TRIGGERS for f in GRID_FLOWS
    ]
    base.channel()
    return GridInputs(cells)


def body_grid(inputs: GridInputs, workdir: str, parallel: int):
    """Mirror of ``v2isim sweep``: the batch, then the summary table."""
    errors: dict[int, str] = {}
    try:
        results = list(engine.run_batch(inputs.cells, parallelism=parallel))
    except engine.BatchError as exc:
        errors = exc.failures
        results = exc.results
    metrics.export_summaries([s for s in results if s is not None],
                             os.path.join(workdir, "sweep_summary.csv"))
    return results, errors


def check_grid(inputs: GridInputs, results, errors, workdir: str) -> Check:
    n = len(inputs.cells)
    failures: list[str | None] = [errors.get(i) for i in range(n)]
    for i in range(n):
        if failures[i] is None and results[i] is None:
            failures[i] = "no result"
    digests = [_summary_digest(s, workdir) if s is not None else "" for s in results]
    stats: dict[str, Any] = {}
    for i, (cfg, s) in enumerate(zip(inputs.cells, results)):
        if s is not None:
            stats[f"d_t={cfg.d_t:g},flow={cfg.flow_rate:g}"] = _sim_stats(s)
    index = {(c.d_t, c.flow_rate): i for i, c in enumerate(inputs.cells)}
    for flow in GRID_FLOWS:
        cells = [index[(d, flow)] for d in GRID_TRIGGERS]
        if any(results[i] is None for i in cells):
            continue
        p90 = {d: metrics.sct_percentile(results[index[(d, flow)]], 90)
               for d in GRID_TRIGGERS}
        pers = [results[i].bsm_per for i in cells]
        reason = None
        if None in p90.values() or not p90[0.0] < p90[-100.0] < p90[300.0]:
            reason = f"criterion 4: p90 SCT at flow {flow:g} not ordered 0 < -100 < 300: {p90}"
        elif None in pers or max(pers) - min(pers) >= BSM_PER_SPREAD_MAX:
            reason = f"criterion 6: bsm_per spread at flow {flow:g} is not < 0.01: {pers}"
        if reason is not None:
            for i in cells:
                failures[i] = failures[i] or reason
    return Check(failures, digests, stats)


def _summary_digest(summary: metrics.RunSummary, workdir: str) -> str:
    """sha256 over the cell's records.csv and summary.csv bytes."""
    rec = os.path.join(workdir, "cell_records.csv")
    summ = os.path.join(workdir, "cell_summary.csv")
    metrics.export_records(summary, rec)
    metrics.export_summaries([summary], summ)
    return _files_digest(rec, summ)


def _sim_stats(s: metrics.RunSummary) -> dict[str, Any]:
    return {
        "records": len(s.records),
        "completion_rate": metrics.completion_rate(s),
        "sct_p50_ms": metrics.sct_percentile(s, 50),
        "sct_p90_ms": metrics.sct_percentile(s, 90),
        "attempts_mean": metrics.mean_attempts_empirical(s),
        "bsm_per": s.bsm_per,
    }


# -- dense_protocol -----------------------------------------------------------

class DenseInputs(NamedTuple):
    cfg: core.ScenarioConfig


def build_dense(seed: int, tiny: bool) -> DenseInputs:
    d_t, flow = DENSE_CELL
    sim = TINY_SIM_MS if tiny else SIM_MS
    # bsm_period beyond the horizon: no BSM tick is ever scheduled.
    cfg = _validated(core.ScenarioConfig(
        d_t=d_t, flow_rate=flow, sim_duration=sim, bsm_period=sim + 1,
        warmup=0 if tiny else core.ScenarioConfig.warmup,
        rng_seed=cli.derive_cell_seed(seed, d_t, flow),
    ))
    cfg.channel()
    return DenseInputs(cfg)


def body_dense(inputs: DenseInputs, workdir: str, parallel: int):
    """Mirror of ``v2isim simulate``: one run, then both tables."""
    try:
        summary = engine.run(inputs.cfg)
    except Exception as exc:  # noqa: BLE001 - the one operation failed
        return [None], {0: repr(exc)}
    metrics.export_records(summary, os.path.join(workdir, "records.csv"))
    metrics.export_summaries([summary], os.path.join(workdir, "summary.csv"))
    return [summary], {}


def check_dense(inputs: DenseInputs, results, errors, workdir: str) -> Check:
    (s,) = results
    if s is None:
        return Check([errors[0]], [""], {})
    reason = None
    if any(r.attempts < 1 for r in s.records):
        reason = "a record has no attempt"
    elif any(r.complete and (r.sct is None or r.sct < 0) for r in s.records):
        reason = "a completed record has no SCT or a negative one"
    elif s.bsm_tx_count != 0:
        reason = f"{s.bsm_tx_count} BSM transmissions with BSM ticks disabled"
    digest = _files_digest(os.path.join(workdir, "records.csv"),
                           os.path.join(workdir, "summary.csv"))
    return Check([reason], [digest], {"cell": _sim_stats(s)})


# -- model_check --------------------------------------------------------------

class ModelInputs(NamedTuple):
    sweeps: list[analytic.AnalyticParams]
    d_values: list[float]
    points: list[tuple[float, float, analytic.AnalyticParams, int]]
    trials: int


def build_model(seed: int, tiny: bool) -> ModelInputs:
    cfg = _validated(core.ScenarioConfig())
    d_min, d_max, step = SWEEP_RANGE
    if tiny:
        step = TINY_SWEEP_STEP
    # The same grid as ``v2isim analytic``.
    d_values = list(np.arange(d_min, d_max + step / 2, step))
    sweeps = [analytic.params_from_config(cfg, density=rho) for rho in SWEEP_DENSITIES]
    points = [
        (d, f, analytic.params_from_config(cfg, d_t=d, density=f),
         cli.derive_cell_seed(seed, d, f))
        for d, f in VALIDATE_POINTS
    ]
    return ModelInputs(sweeps, d_values, points, TINY_TRIALS if tiny else VALIDATE_TRIALS)


def body_model(inputs: ModelInputs, workdir: str, parallel: int):
    """Mirror of ``v2isim analytic`` at a 1 m step, then ``v2isim validate``."""
    results: list[Any] = []
    errors: dict[int, str] = {}
    for params in inputs.sweeps:
        try:
            results.append(analytic.sweep_trigger(params, inputs.d_values))
        except Exception as exc:  # noqa: BLE001 - one failed operation
            errors[len(results)] = repr(exc)
            results.append(None)
    for _, _, params, cell_seed in inputs.points:
        try:
            results.append(validation.check_against_pmf(
                params, inputs.trials, np.random.default_rng(cell_seed)))
        except Exception as exc:  # noqa: BLE001 - one failed operation
            errors[len(results)] = repr(exc)
            results.append(None)
    return results, errors


def check_model(inputs: ModelInputs, results, errors, workdir: str) -> Check:
    n_sweeps = len(inputs.sweeps)
    failures: list[str | None] = [errors.get(i) for i in range(len(results))]
    digests = [hashlib.sha256(repr(r).encode()).hexdigest() for r in results]
    stats: dict[str, Any] = {}
    for i, points in enumerate(results[:n_sweeps]):
        if points is None:
            continue
        rho = inputs.sweeps[i].density
        if len(points) != len(inputs.d_values):
            failures[i] = f"density {rho:g}: {len(points)} points for {len(inputs.d_values)} d_t"
        elif any(not 0.0 <= p.success_mass <= 1.0 + 1e-12
                 or (p.mean_attempts is None) != (p.success_mass <= 0.0)
                 or (p.mean_attempts is not None and p.mean_attempts < 1.0)
                 for p in points):
            failures[i] = f"density {rho:g}: a point has mass outside [0, 1] or mean < 1"
        elif i > 0 and results[i - 1] is not None and any(
                hi.mean_attempts is not None and lo.mean_attempts is not None
                and hi.mean_attempts < lo.mean_attempts - 1e-12
                for lo, hi in zip(results[i - 1], points)):
            failures[i] = f"density {rho:g}: mean attempts below the lower density's"
    for j, (d, f, _, _) in enumerate(inputs.points):
        i = n_sweeps + j
        checks = results[i]
        if checks is None:
            continue
        key = f"d_t={d:g},flow={f:g}"
        stats[key] = {
            "observed": [c.observed for c in checks],
            "expected": [round(c.expected, 3) for c in checks],
            "bins_outside_3sigma": sum(not c.within_3sigma for c in checks),
        }
        bad = [c.n for c in checks if not bin_consistent(c.observed, inputs.trials,
                                                         c.expected / inputs.trials)]
        if bad:
            failures[i] = f"{key}: Monte-Carlo bins {bad} inconsistent with the pmf"
    return Check(failures, digests, stats)


def bin_consistent(observed: int, trials: int, p: float) -> bool:
    """Exact binomial tail test of one first-success bin.

    True unless a count at least as far from ``trials * p`` as ``observed``
    (on the same side) has probability below BIN_TAIL_ALPHA. A bin with
    p = 0 or p = 1 must match exactly.
    """
    if p <= 0.0 or p >= 1.0:
        return observed == round(trials * p)
    log_p, log_q = math.log(p), math.log1p(-p)
    log_n = math.lgamma(trials + 1)
    step = 1 if observed >= trials * p else -1
    tail = 0.0
    k = observed
    while 0 <= k <= trials:
        term = math.exp(log_n - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                        + k * log_p + (trials - k) * log_q)
        tail += term
        if tail >= BIN_TAIL_ALPHA:
            return True
        if term < 1e-30:   # terms fall geometrically away from the mean
            return False
        k += step
    return False


class Workload(NamedTuple):
    build: Any
    body: Any
    check: Any
    uses_pool: bool


WORKLOADS = {
    "grid_sweep": Workload(build_grid, body_grid, check_grid, True),
    "dense_protocol": Workload(build_dense, body_dense, check_dense, False),
    "model_check": Workload(build_model, body_model, check_model, False),
}


def _setup_probe(argv: list[str]) -> int:
    name, seed = argv[0], int(argv[1])
    WORKLOADS[name].build(seed, "--tiny" in argv[2:])
    return 0


if __name__ == "__main__":
    sys.exit(_setup_probe(sys.argv[1:]))
