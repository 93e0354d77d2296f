"""v2isim benchmark: one workload per call, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload grid_sweep --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory. ``--trace 0`` repeats the workload body untraced for ``--seconds``
and reports the end-to-end metrics; ``--trace 1`` alternates an untraced and
a traced serial pass and reports the per-layer metrics. Either way every
output is checked, human-readable lines come first, a results file is
written under ``perfbench/out/`` and the last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The default seed is 1; 20221226 is held out: do not use it while writing a
change, only to confirm a claim afterwards.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 20221226
MIN_REPEATS = 2          # the same-seed digest check needs two repeats
MIN_SETUP_PROBES = 7     # fresh interpreters per run; setup_s is their mean
SETUP_SHARE = 0.2        # share of a run's time spent on set-up probes


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _environment(seed: int) -> dict:
    import numpy
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "writes_bytecode": not sys.dont_write_bytecode,   # set-up compiles src/ when False
        "loadavg_before": list(os.getloadavg()),
    }


def _source_ids() -> dict:
    """git sha when the checkout is a repository, and a digest of src/ always."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def _setup_probe(workload: str, seed: int, tiny: bool) -> float:
    """Wall time of a fresh interpreter that imports v2isim and builds the workload."""
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), workload, str(seed)]
    if tiny:
        cmd.append("--tiny")
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return elapsed


class Ledger:
    """Operations attempted and failed, with the first reasons seen."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, failures: list[str | None]) -> None:
        self.attempted += len(failures)
        for reason in failures:
            if reason is not None:
                self.failed += 1
                if len(self.reasons) < 20 and reason not in self.reasons:
                    self.reasons.append(reason)


def _timed_body(wl, inputs, workdir: str, parallel: int):
    t0 = time.perf_counter()
    results, errors = wl.body(inputs, workdir, parallel)
    return time.perf_counter() - t0, results, errors


def _checked(wl, inputs, results, errors, workdir: str, ledger: Ledger, reference, what: str):
    """Check one repeat's outputs, and its digests against the reference repeat."""
    check = wl.check(inputs, results, errors, workdir)
    failures = list(check.failures)
    if reference is not None:
        for i, (digest, ref) in enumerate(zip(check.digests, reference.digests)):
            if failures[i] is None and digest != ref:
                failures[i] = f"operation {i}: {what} output differs from the first repeat"
    ledger.add(failures)
    return check


def measure_end_to_end(name: str, seed: int, seconds: float, tiny: bool, parallel: int):
    import workloads
    wl = workloads.WORKLOADS[name]
    inputs = wl.build(seed, tiny)
    ledger = Ledger()
    walls: list[float] = []
    setups: list[float] = []
    first = None
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        start = time.perf_counter()
        while len(walls) < MIN_REPEATS or time.perf_counter() - start < seconds:
            wall, results, errors = _timed_body(wl, inputs, workdir, parallel)
            walls.append(wall)
            check = _checked(wl, inputs, results, errors, workdir, ledger, first, "same-seed")
            first = first or check
            del results, errors   # not alive during the next repeat's peak
            # Probes between repeats, a fixed share of the time so far: they
            # sample the machine's speed over the whole run.
            probe_start = time.perf_counter()
            while not setups or sum(setups) < SETUP_SHARE * (probe_start - start):
                setups.append(_setup_probe(name, seed, tiny))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    while len(setups) < MIN_SETUP_PROBES:
        setups.append(_setup_probe(name, seed, tiny))
    # Pool workers are forks of this process, so their peak already holds
    # this process's pages: the gate is the larger of the two peaks, not
    # their sum. A probe's peak (a bare import and set-up) stays below a
    # worker's, so the children's peak is the largest worker's.
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    rss_kb = max(self_kb, children_kb) if wl.uses_pool else self_kb
    metrics = {
        # Means, not medians or minima: the host's CPU switches between a
        # fast and a slow state for seconds to minutes at a time. A median
        # jumps between the two, a minimum hangs on a rare visit to the fast
        # state, and a mean follows the share of time spent in each.
        "setup_s": (statistics.mean(setups), "s"),
        "wall_s": (statistics.mean(walls), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "ok_frac": ((ledger.attempted - ledger.failed) / ledger.attempted, "fraction"),
    }
    detail = {"wall_s_repeats": walls, "wall_s_median": _median(walls),
              "setup_s_probes": setups, "setup_s_median": _median(setups),
              "failed_frac": ledger.failed / ledger.attempted,
              "peak_rss_self_mb": self_kb / 1024.0,
              "peak_rss_children_mb": children_kb / 1024.0}
    return metrics, ledger, first, detail


def measure_per_layer(name: str, seed: int, seconds: float, tiny: bool,
                      units: dict[str, str]):
    import tracer as tracing
    import workloads
    wl = workloads.WORKLOADS[name]
    inputs = wl.build(seed, tiny)
    ledger = Ledger()
    untraced: list[float] = []
    layers: list[dict] = []
    traced_walls: list[float] = []
    first = None
    coarse: list[dict] = []
    spans: dict = {}
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        start = time.perf_counter()
        while not layers or time.perf_counter() - start < seconds:
            wall, results, errors = _timed_body(wl, inputs, workdir, 1)
            untraced.append(wall)
            check = _checked(wl, inputs, results, errors, workdir, ledger, first, "untraced")
            first = first or check
            tr = tracing.Tracer()
            tr.install()
            try:
                traced_inputs = wl.build(seed, tiny)   # counts set-up validation
                wall, results, errors = _timed_body(wl, traced_inputs, workdir, 1)
            finally:
                tr.uninstall()
            traced_walls.append(wall)
            _checked(wl, traced_inputs, results, errors, workdir, ledger, first, "traced")
            layers.append(tr.layer_metrics())
            if len(layers) == 1:
                coarse = tr.coarse
                spans = {span: {"count": n, "total_s": total, "self_s": own}
                         for span, (n, total, own) in tr.spans.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # Counts must repeat exactly; times are medians over the traced passes.
    metrics = {}
    for key in layers[0]:
        unit = units[key]
        values = [m[key] for m in layers]
        if unit == "s":
            metrics[key] = (_median(values), unit)
        else:
            metrics[key] = (values[0], unit)
            if any(v != values[0] for v in values):
                ledger.failed += 1
                ledger.reasons.append(f"{key} differs between traced passes: {values}")
    untraced_wall = _median(untraced)
    events = metrics["engine.events"][0]
    metrics["engine.us_per_event"] = (untraced_wall / events * 1e6 if events else 0.0, "us")
    metrics["trace.wall_s"] = (_median(traced_walls), "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (_median(traced_walls) - untraced_wall, "s")
    detail = {"untraced_wall_s_repeats": untraced, "traced_wall_s_repeats": traced_walls,
              "spans": spans, "coarse_spans": coarse}
    return metrics, ledger, first, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("grid_sweep", "dense_protocol", "model_check"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed; {HELD_OUT_SEED} is held out for confirming claims")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny durations, for perfbench/selftest.py only")
    args = parser.parse_args(argv)

    if not (SRC / "v2isim" / "__init__.py").is_file():
        print(f"run.py: no v2isim package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}

    env = _environment(args.seed)
    parallel = min(2, env["nproc"])
    if args.trace:
        metrics, ledger, check, detail = measure_per_layer(
            args.workload, args.seed, args.seconds, args.tiny, units)
    else:
        metrics, ledger, check, detail = measure_end_to_end(
            args.workload, args.seed, args.seconds, args.tiny, parallel)
    env["loadavg_after"] = list(os.getloadavg())
    env.update(_source_ids())
    env["parallelism"] = 1 if args.trace else parallel

    print(f"v2isim benchmark: workload={args.workload} trace={args.trace} "
          f"seed={args.seed} seconds={args.seconds:g}" + (" TINY" if args.tiny else ""))
    for key, value in env.items():
        print(f"  env {key} = {value}")
    if args.trace:
        print("  note: the traced pass runs serially: wrapped counters inside pool "
              "workers would die with the worker")
    else:
        print(f"  failed_frac = {detail['failed_frac']:.6g} fraction "
              f"({ledger.failed} of {ledger.attempted} operations)")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    combined = hashlib.sha256("".join(check.digests).encode()).hexdigest()
    print(f"  output sha256 (all operations, first repeat) = {combined}")
    for key, value in check.stats.items():
        print(f"  simulated {key}: {value}")
    for reason in ledger.reasons:
        print(f"  FAILED: {reason}")

    result_path = OUT_DIR / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    result_path.write_text(json.dumps({
        "workload": args.workload, "trace": args.trace, "tiny": args.tiny,
        "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": ledger.attempted, "failed": ledger.failed,
        "failures": ledger.reasons,
        "digests": check.digests, "simulated": check.stats, **detail,
    }, indent=1, default=str) + "\n")
    print(f"  results -> {result_path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
