"""One full discrete-event run, inspected record by record.

Simulates two minutes of the default freeway scenario and prints the run
summary plus a handful of raw per-vehicle records: when each vehicle heard
the advertisement, when it fired its first request at the trigger line, how
many attempts it needed, and its service completion time.
"""

import dataclasses

from v2isim import ScenarioConfig, run
from v2isim.metrics import (
    completion_rate, mean_attempts_empirical, sct_percentile, summary_row,
)

cfg = dataclasses.replace(
    ScenarioConfig(),
    sim_duration=120_000,   # 2 minutes
    warmup=0,               # keep every record and BSM tick for inspection
    flow_rate=10.0,
    d_t=0.0,
    rng_seed=2024,
)

summary = run(cfg)
print(f"simulated {cfg.sim_duration / 1000:.0f} s at {cfg.flow_rate:.0f} veh/s, "
      f"trigger at {cfg.d_t:+.0f} m")
print(f"vehicles that sent a request: {len(summary.records)}")
print(f"completion rate: {completion_rate(summary):.4f}")
print(f"mean attempts (completed): {mean_attempts_empirical(summary):.3f}")
for q in (50, 90, 100):
    print(f"SCT p{q}: {sct_percentile(summary, q)} ms")
print(f"BSM packet error rate: {summary.bsm_per:.4f} "
      f"(the steady-state closed form analytic.bsm_per; "
      f"{summary.bsm_tx_count} BSMs and {summary.bsm_expected_rx_count} probes "
      f"from warmup on, which is 0 here)")

print("\nfirst ten records:")
print(f"{'veh':>5} {'dir':>5} {'sam_rx':>8} {'sum_tx':>8} {'ack_rx':>8} "
      f"{'att':>4} {'sct':>6}  outcome")
for r in summary.records[:10]:
    ack = "-" if r.ack_rx_time is None else r.ack_rx_time
    sct = "-" if r.sct is None else r.sct
    print(f"{r.vehicle_id:>5} {r.direction.value:>5} {r.sam_rx_time:>8} "
          f"{r.first_sum_tx_time:>8} {ack:>8} {r.attempts:>4} {sct:>6}  {r.outcome}")

full = summary_row(summary)
print("\nsummary row (as exported by the CLI):")
for key, value in full.items():
    print(f"  {key} = {value}")
