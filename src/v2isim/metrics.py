"""Per-vehicle completion records, aggregate statistics, and tabular export.

Service completion time (SCT) runs from a vehicle's first request
transmission to its acknowledgment reception, so it is defined only for
completed transactions. Aggregates exclude records whose first request fell
inside the warmup window, keeping the statistics steady-state; incomplete
records are reported with their outcome tag but never enter SCT or attempt
aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .core import ScenarioConfig, TimeMs, dumps_config
from .mobility import Direction

OUTCOME_COMPLETE = "complete"
OUTCOME_DESPAWN = "incomplete-despawn"
OUTCOME_SIMEND = "incomplete-simend"


class ExportError(OSError):
    """Raised when a tabular file cannot be written."""


class CompletionRecord(NamedTuple):
    """One vehicle's transaction outcome (>= 1 request sent), built per vehicle in field order."""

    vehicle_id: int
    direction: Direction
    sam_rx_time: TimeMs | None
    first_sum_tx_time: TimeMs
    ack_rx_time: TimeMs | None
    attempts: int
    outcome: str

    @property
    def complete(self) -> bool:
        return self.outcome == OUTCOME_COMPLETE

    @property
    def sct(self) -> TimeMs | None:
        """Service completion time; defined only for complete records."""
        if not self.complete or self.ack_rx_time is None:
            return None
        return self.ack_rx_time - self.first_sum_tx_time


@dataclass(frozen=True)
class RunSummary:
    cfg: ScenarioConfig
    records: tuple[CompletionRecord, ...]
    bsm_tx_count: int
    bsm_rx_count: int
    bsm_expected_rx_count: int

    @property
    def bsm_per(self) -> float | None:
        if self.bsm_expected_rx_count == 0:
            return None
        return 1.0 - self.bsm_rx_count / self.bsm_expected_rx_count


def measured_records(summary: RunSummary) -> list[CompletionRecord]:
    """Records outside the warmup window (first request at or after warmup)."""
    return [r for r in summary.records if r.first_sum_tx_time >= summary.cfg.warmup]


def _sorted_scts(recs: list[CompletionRecord]) -> list[TimeMs]:
    scts = [r.sct for r in recs if r.sct is not None]
    scts.sort()
    return scts


def _nearest_rank(scts: list[TimeMs], q: float) -> TimeMs | None:
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100] (got {q})")
    if not scts:
        return None
    rank = max(1, math.ceil(q / 100.0 * len(scts)))
    return scts[rank - 1]


def sct_percentile(summary: RunSummary, q: float) -> TimeMs | None:
    """Nearest-rank percentile of SCT over completed, post-warmup records.

    q must lie in (0, 100]. Returns None when no complete record exists.
    """
    return _nearest_rank(_sorted_scts(measured_records(summary)), q)


def _mean_attempts(recs: list[CompletionRecord]) -> float | None:
    attempts = [r.attempts for r in recs if r.complete]
    if not attempts:
        return None
    return sum(attempts) / len(attempts)


def mean_attempts_empirical(summary: RunSummary) -> float | None:
    """Mean request count over completed, post-warmup records (None if none)."""
    return _mean_attempts(measured_records(summary))


def _completion_rate(recs: list[CompletionRecord]) -> float | None:
    if not recs:
        return None
    return sum(1 for r in recs if r.complete) / len(recs)


def completion_rate(summary: RunSummary) -> float | None:
    return _completion_rate(measured_records(summary))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


RECORD_COLUMNS = (
    "vehicle_id", "direction", "sam_rx_ms", "first_sum_tx_ms", "ack_rx_ms",
    "attempts", "outcome", "sct_ms",
)

SUMMARY_COLUMNS = (
    "d_t", "flow_rate", "seed", "records", "complete", "completion_rate",
    "attempts_mean", "sct_min_ms", "sct_median_ms", "sct_p90_ms", "sct_max_ms",
    "bsm_per",
)


def summary_row(summary: RunSummary) -> dict[str, object]:
    recs = measured_records(summary)
    scts = _sorted_scts(recs)
    return {
        "d_t": summary.cfg.d_t,
        "flow_rate": summary.cfg.flow_rate,
        "seed": summary.cfg.rng_seed,
        "records": len(recs),
        "complete": sum(1 for r in recs if r.complete),
        "completion_rate": _completion_rate(recs),
        "attempts_mean": _mean_attempts(recs),
        "sct_min_ms": scts[0] if scts else None,
        "sct_median_ms": _nearest_rank(scts, 50),
        "sct_p90_ms": _nearest_rank(scts, 90),
        "sct_max_ms": scts[-1] if scts else None,
        "bsm_per": summary.bsm_per,
    }


def _write_table(path: str, header: tuple[str, ...], rows: Iterable[Sequence[object]]) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")
    except OSError as exc:
        raise ExportError(f"cannot write {path}: {exc}") from exc


def export_records(summary: RunSummary, path: str) -> None:
    """One row per completion record, in simulation order. Deterministic bytes."""
    rows = [
        [r.vehicle_id, r.direction.value, r.sam_rx_time, r.first_sum_tx_time,
         r.ack_rx_time, r.attempts, r.outcome, r.sct]
        for r in summary.records
    ]
    _write_table(path, RECORD_COLUMNS, rows)


def export_summaries(summaries: list[RunSummary], path: str) -> None:
    """One aggregate row per run, keyed by (d_t, flow_rate)."""
    rows = [[row[c] for c in SUMMARY_COLUMNS] for row in map(summary_row, summaries)]
    _write_table(path, SUMMARY_COLUMNS, rows)


def export_analytic(points: Iterable[tuple[float, float, float | None, float]],
                    path: str) -> None:
    """Rows of (density, d_t, mean_attempts, success_mass), written as they come."""
    _write_table(path, ("density", "d_t", "mean_attempts", "success_mass"), points)


def write_metadata(summary: RunSummary, path: str) -> None:
    """Sidecar echoing the exact configuration and seed of a run."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(dumps_config(summary.cfg))
            fh.write(f"# effective_seed = {summary.cfg.rng_seed}\n")
    except OSError as exc:
        raise ExportError(f"cannot write {path}: {exc}") from exc
