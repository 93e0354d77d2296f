"""Desk-scale trigger x flow grid: the simulated counterpart of demo 01.

Runs the 3 trigger settings (300 m, 0 m, -100 m) against 3 flow rates in
parallel at a reduced duration, then prints three tables: 90th-percentile
service completion time, mean attempts, and background-broadcast PER. The 0 m
trigger wins on completion time and attempts within every flow group. The
broadcast error rate is the closed form ``analytic.bsm_per``, which has no
trigger distance, so each flow row of that table is identical by construction.

For publication-scale runs (600 s per cell) use the CLI:
    v2isim sweep --out results/ --parallel 4
"""

import dataclasses

from v2isim import ScenarioConfig, run_batch
from v2isim.cli import derive_cell_seed
from v2isim.metrics import mean_attempts_empirical, sct_percentile

TRIGGERS = (300.0, 0.0, -100.0)
FLOWS = (10.0, 20.0, 30.0)

base = dataclasses.replace(ScenarioConfig(), sim_duration=240_000, warmup=100_000)
cells = [
    dataclasses.replace(base, d_t=d, flow_rate=f,
                        rng_seed=derive_cell_seed(base.rng_seed, d, f))
    for d in TRIGGERS for f in FLOWS
]
print(f"running {len(cells)} cells x {base.sim_duration / 1000:.0f} s ...")
summaries = dict(zip(((d, f) for d in TRIGGERS for f in FLOWS),
                     run_batch(cells, parallelism=4)))


def table(title, fmt, value):
    print(f"\n{title}")
    print(f"{'flow':>6}" + "".join(f"  {d:>+8.0f}m" for d in TRIGGERS))
    for f in FLOWS:
        row = f"{f:>6.0f}"
        for d in TRIGGERS:
            row += f"  {value(summaries[(d, f)]):>{fmt}}"
        print(row)


table("90th-percentile service completion time (ms)", "9d",
      lambda s: sct_percentile(s, 90))
table("mean attempts for successful completion", "9.3f",
      mean_attempts_empirical)
table("background-broadcast packet error rate", "9.4f",
      lambda s: s.bsm_per)

print("\nwithin each flow row: SCT and attempts are lowest at 0 m, then "
      "-100 m, then 300 m; the broadcast PER is the same in every column of a row, "
      "since its closed form has no d_t.")
