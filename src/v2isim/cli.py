"""Command-line front end: simulate, sweep, analytic, validate, trace.

Every scenario parameter can be overridden from the command line with
repeated ``--set key=value`` flags using the same keys and rules as the
configuration file. Reading the base scenario (``--config``, ``--set``) only
parses it; every scenario a command runs is validated: a sweep cell, an
analytic density or a validate point by ``replace_config``, a simulated or
traced run by ``engine.run``. So a field that each derived scenario replaces
is not checked on its own, and a rejected scenario writes nothing.
Diagnostics go to stderr; tabular data goes to files (the validate subcommand
prints its comparison table, which is its work product). Exit status: 0 when
all requested work succeeded, 1 when a run or an export failed or validate
found a bin inconsistent with the pmf, 2 when the input was rejected.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import sys

import numpy as np

from . import analytic as ana
from . import engine
from . import metrics
from .channel import CurveError
from .core import (
    ConfigError, ScenarioConfig, dumps_config, load_config, override_config,
    raise_violations, replace_config,
)
from .validation import FALSE_ALARM_LEVEL, N_CHECK, bin_consistent, check_against_pmf


# Points per density. A 5 cm step across the whole default stretch (60,001
# points) fits; at the bound three densities take 2.1 s and 60 MB on a 2-vCPU Xeon.
MAX_ANALYTIC_POINTS = 100_000
# How far the step between rows may lie from --d-step, relative to it.
ANALYTIC_STEP_RTOL = 1e-6


def derive_cell_seed(base_seed: int, d_t: float, flow: float) -> int:
    """Stable per-cell seed: base xor a hash of the cell key."""
    digest = hashlib.sha256(f"d_t={d_t!r},flow={flow!r}".encode()).digest()
    return (base_seed ^ int.from_bytes(digest[:8], "big")) & (2**63 - 1)


def _load(args: argparse.Namespace) -> ScenarioConfig:
    """The base scenario, parsed only: --config, then --set and --seed.

    Each command validates the scenarios it runs and reads the calibration once.
    """
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    seed = [] if args.seed is None else [f"rng_seed={args.seed}"]
    return override_config(cfg, args.set + seed)


def _model_scenario(cfg: ScenarioConfig, flow: float) -> ScenarioConfig:
    """A validated density or point: the closed form sets its own d_t, so 0 stands in."""
    return replace_config(cfg, d_t=0.0, flow_rate=flow)


def _floats(csv: str) -> list[float]:
    try:
        return [float(tok) for tok in csv.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"expected a comma-separated list of numbers, got {csv!r}") from None


def _cmd_simulate(args: argparse.Namespace) -> int:
    summary = engine.run(_load(args))
    os.makedirs(args.out, exist_ok=True)
    metrics.export_records(summary, os.path.join(args.out, "records.csv"))
    metrics.export_summaries([summary], os.path.join(args.out, "summary.csv"))
    metrics.write_metadata(summary, os.path.join(args.out, "run.meta"))
    print(f"simulate: {len(summary.records)} records -> {args.out}", file=sys.stderr)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load(args)
    d_values = _floats(args.d_t)
    flows = _floats(args.flows)
    if not d_values or not flows:
        raise ConfigError("sweep grid must be non-empty")
    # Each cell is validated with the base seed; the seed derived from it is in range.
    cells = [
        dataclasses.replace(replace_config(cfg, d_t=d, flow_rate=f),
                            rng_seed=derive_cell_seed(cfg.rng_seed, d, f))
        for d in d_values for f in flows
    ]
    cfg.channel()   # a bad calibration file is rejected input, not a failure of every cell
    os.makedirs(args.out, exist_ok=True)
    status = 0
    try:
        summaries: list[metrics.RunSummary | None] = list(
            engine.run_batch(cells, parallelism=args.parallel)
        )
    except engine.BatchError as exc:
        for index, message in sorted(exc.failures.items()):
            cell = cells[index]
            print(f"sweep: cell d_t={cell.d_t} flow={cell.flow_rate} failed: {message}",
                  file=sys.stderr)
        summaries = exc.results
        status = 1
    done = [s for s in summaries if s is not None]
    metrics.export_summaries(done, os.path.join(args.out, "sweep_summary.csv"))
    with open(os.path.join(args.out, "sweep.meta"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(f"# sweep grid: d_t={d_values} flows={flows} base_seed={cfg.rng_seed}\n")
        for cell in cells:
            fh.write(f"# cell d_t={cell.d_t} flow={cell.flow_rate} seed={cell.rng_seed}\n")
        fh.write(dumps_config(cfg))
    print(f"sweep: {len(done)}/{len(cells)} cells -> {args.out}", file=sys.stderr)
    return status


def _cmd_analytic(args: argparse.Namespace) -> int:
    cfg = _load(args)
    lo, hi, step = args.d_min, args.d_max, args.d_step
    flags = {"--d-min": lo, "--d-max": hi, "--d-step": step}
    bad = [f"{flag} must be a finite number (got {value})"
           for flag, value in flags.items() if not math.isfinite(value)]
    if step <= 0:
        bad.append(f"--d-step must be > 0 (got {step})")
    if lo > hi:
        bad.append(f"--d-min must not exceed --d-max (got {lo} > {hi})")
    if not bad:
        points = (hi - lo) / step + 1   # inf when the span overflows
        # The step the grid realises next to each end, as rounding moves it.
        realised = ((lo + step) - lo, hi - (hi - step))
        if any(abs(r - step) > ANALYTIC_STEP_RTOL * step for r in realised):
            bad.append(f"--d-step must be realised to a relative {ANALYTIC_STEP_RTOL:g} at "
                       f"--d-min and --d-max (got {step}; realised {realised[0]!r} and "
                       f"{realised[1]!r})")
        elif not points <= MAX_ANALYTIC_POINTS:
            bad.append(f"--d-min, --d-max and --d-step must give at most "
                       f"{MAX_ANALYTIC_POINTS} points per density (got {points:.3g})")
    densities = _floats(args.densities)
    if not densities:
        bad.append(f"--densities must list at least one density (got {args.densities!r})")
    raise_violations(bad)
    cells = [_model_scenario(cfg, rho) for rho in densities]
    # Row k is d_min + k * d_step while it stays within d_max (np.arange steps
    # by (d_min + d_step) - d_min, which rounding can move far from d_step).
    grid = lo + np.arange(int((hi - lo) / step) + 2) * step
    d_values = grid[grid <= hi].tolist()
    params = ana.params_from_config(cfg)
    # Written one density at a time: the rows are never all held at once.
    rows = ((cell.flow_rate, p.d_t, p.mean_attempts, p.success_mass)
            for cell in cells for p in ana.sweep_trigger(
                dataclasses.replace(params, density=cell.flow_rate), d_values))
    metrics.export_analytic(rows, args.out)
    print(f"analytic: {len(cells) * len(d_values)} rows -> {args.out}", file=sys.stderr)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = _load(args)
    points = []
    for spec_str in args.point or ["300:30", "0:10", "-100:20"]:
        d_str, _, flow_str = spec_str.partition(":")
        try:
            d_t, flow = float(d_str), float(flow_str)
        except ValueError:
            raise ConfigError(f"--point expects D_T:FLOW, got {spec_str!r}") from None
        if not math.isfinite(d_t):
            raise_violations([f"--point {spec_str}: d_t must be a finite number"])
        points.append((d_t, _model_scenario(cfg, flow)))
    base = ana.params_from_config(cfg)
    alpha = FALSE_ALARM_LEVEL / (N_CHECK * len(points))   # shared by every bin printed
    all_ok = True
    for d_t, cell in points:
        flow = cell.flow_rate
        params = dataclasses.replace(base, d_t=d_t, density=flow)
        rng = np.random.default_rng(derive_cell_seed(cfg.rng_seed, d_t, flow))
        for check in check_against_pmf(params, args.trials, rng):
            ok = bin_consistent(check.observed, args.trials, check.expected / args.trials,
                                alpha)
            all_ok &= ok
            print(
                f"d_t={d_t:g} flow={flow:g} n={check.n} "
                f"observed={check.observed} expected={check.expected:.1f} "
                f"sigma={check.sigma:.1f} {'ok' if ok else 'VIOLATION'}"
            )
    if not all_ok:
        print("validate: the closed-form pmf and its Monte-Carlo replay disagree "
              f"(a bin's exact binomial tail lies below {alpha:.3g})", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    summary = engine.run(_load(args), trace_path=args.out)
    print(f"trace: {len(summary.records)} records, transitions -> {args.out}",
          file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    import argparse   # here, not at module load: only a command line needs it
    parser = argparse.ArgumentParser(
        prog="v2isim",
        description="Trigger-line transaction service simulator and analytic toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="scenario config file (flat key=value)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", default=[],
                       help="override any config field (repeatable)")
        p.add_argument("--seed", type=int, help="override rng_seed")

    p_sim = sub.add_parser("simulate", help="run one scenario, export tables")
    common(p_sim)
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(fn=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="trigger x flow grid of runs")
    common(p_sweep)
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--d-t", default="300,0,-100",
                         help="comma-separated trigger distances (m)")
    p_sweep.add_argument("--flows", default="10,20,30",
                         help="comma-separated flow rates (veh/s)")
    p_sweep.add_argument("--parallel", type=int, default=1,
                         help="concurrent runs (results identical at any degree)")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_ana = sub.add_parser("analytic", help="closed-form mean-attempts sweep")
    common(p_ana)
    p_ana.add_argument("--out", required=True, help="output csv file")
    p_ana.add_argument("--d-min", type=float, default=-300.0)
    p_ana.add_argument("--d-max", type=float, default=500.0)
    p_ana.add_argument("--d-step", type=float, default=20.0)
    p_ana.add_argument("--densities", default="10,20,30")
    p_ana.set_defaults(fn=_cmd_analytic)

    p_val = sub.add_parser("validate",
                           help="Monte-Carlo vs closed-form consistency check")
    common(p_val)
    p_val.add_argument("--trials", type=int, default=100_000)
    p_val.add_argument("--point", action="append", metavar="D_T:FLOW",
                       help="check point (repeatable; default 300:30 0:10 -100:20)")
    p_val.set_defaults(fn=_cmd_validate)

    p_trace = sub.add_parser("trace", help="run with per-transition event trace")
    common(p_trace)
    p_trace.add_argument("--out", required=True, help="trace output file")
    p_trace.set_defaults(fn=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, CurveError) as exc:
        print(f"v2isim {args.command}: {exc}", file=sys.stderr)
        return 2
    except (engine.EngineError, OSError) as exc:  # OSError: an unwritable output
        print(f"v2isim {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
