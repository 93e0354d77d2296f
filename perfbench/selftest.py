"""Self-test of the benchmark at tiny durations; not part of the tier-1 suite.

    python3 perfbench/selftest.py

For every workload it checks that

* the end-to-end pass (``--trace 0``) emits exactly the ``end_to_end``
  metrics of BENCHMARK.json, with their units;
* the traced pass (``--trace 1``) emits exactly the ``per_layer`` metrics,
  and every per-layer metric that is not a time repeats exactly across two
  traced runs of the same seed;
* the layers separate as the workloads were chosen to make them:
  ``dense_protocol`` schedules no BSM tick and ``model_check`` runs no event.

It also checks that the benchmark exits non-zero, without a result line, in
a directory that holds the benchmark but not the package.

At tiny durations the statistical output checks (SCT ordering, BSM flatness,
Monte-Carlo bins) are not meaningful, so ``correct`` is not asserted here.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("grid_sweep", "dense_protocol", "model_check")


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(workload: str, trace: int, problems: list[str]) -> dict:
    proc = _run(workload, trace)
    if proc.returncode != 0:
        problems.append(f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return {"metrics": {}}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{workload} trace={trace}: result keys {sorted(result)}")
    if result["attempted"] < 1:
        problems.append(f"{workload} trace={trace}: nothing attempted")
    return result


def _expect_metrics(result: dict, spec: list[dict], label: str, problems: list[str]) -> None:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        problems.append(f"{label}: missing {missing}, unexpected {extra}, wrong unit {units}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in WORKLOADS:
        _expect_metrics(_result(workload, 0, problems), bench["end_to_end"],
                        f"{workload} trace=0", problems)
        traced = [_result(workload, 1, problems) for _ in range(2)]
        _expect_metrics(traced[0], bench["per_layer"], f"{workload} trace=1", problems)
        for m in bench["per_layer"]:
            if m["unit"] in ("s", "us"):
                continue
            values = [r["metrics"].get(m["name"], {}).get("value") for r in traced]
            if values[0] != values[1]:
                problems.append(f"{workload}: {m['name']} differs between traced runs: {values}")
        layers = traced[0]["metrics"]
        if workload == "dense_protocol" and layers["engine.events.bsm_tick"]["value"] != 0:
            problems.append("dense_protocol: BSM ticks were processed")
        if workload == "model_check" and layers["engine.events"]["value"] != 0:
            problems.append("model_check: engine events were processed")

    (BENCH_DIR / "out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH_DIR / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run("dense_protocol", 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without the package the benchmark did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("SELFTEST FAIL:", p)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
