"""Per-vehicle completion records, aggregate statistics, and tabular export.

Service completion time (SCT) runs from a vehicle's first request
transmission to its acknowledgment reception, so it is defined only for
completed transactions. Aggregates exclude records whose first request fell
inside the warmup window, keeping the statistics steady-state; incomplete
records are reported with their outcome tag but never enter SCT or attempt
aggregates.

A run's records are a ``RecordTable``: one ``bytearray`` of seven native
int64 values per record, in ``CompletionRecord`` field order, with the
direction and outcome as codes and a missing SAM or ACK time as -1 (every
event time is >= 0). The aggregates read those ints; their sums, counts and
ranks are exact, and a mean or rate is one int divided by another.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from typing import NamedTuple

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


# A direction or outcome is stored as its index in these tuples.
_DIRECTIONS = tuple(Direction)
_OUTCOMES = (OUTCOME_COMPLETE, OUTCOME_DESPAWN, OUTCOME_SIMEND)
_RECORD = struct.Struct(f"{len(CompletionRecord._fields)}q")   # native int64s
# Columns the aggregates read, and the complete outcome's code.
_FIRST_SUM_TX, _ACK_RX, _ATTEMPTS, _OUTCOME = 3, 4, 5, 6
_COMPLETE = _OUTCOMES.index(OUTCOME_COMPLETE)


def _row(values: tuple[int, ...]) -> CompletionRecord:
    vid, direction, sam, first, ack, attempts, outcome = values
    return tuple.__new__(CompletionRecord, (
        vid, _DIRECTIONS[direction], None if sam < 0 else sam, first,
        None if ack < 0 else ack, attempts, _OUTCOMES[outcome]))


class RecordTable(Sequence):
    """Completion records packed as seven int64 values each: 56 B per record.

    ``append`` takes the ``CompletionRecord`` fields; indexing and iteration
    give ``CompletionRecord`` rows back. Two tables are equal when their
    values are, and a pickle carries the values' bytes.
    """

    __slots__ = ("_data",)

    def __init__(self, data: bytes = b"") -> None:
        self._data = bytearray(data)

    def append(self, vehicle_id: int, direction: Direction, sam_rx_time: TimeMs | None,
               first_sum_tx_time: TimeMs, ack_rx_time: TimeMs | None, attempts: int,
               outcome: str) -> None:
        self._data += _RECORD.pack(
            vehicle_id, _DIRECTIONS.index(direction),
            -1 if sam_rx_time is None else sam_rx_time, first_sum_tx_time,
            -1 if ack_rx_time is None else ack_rx_time, attempts, _OUTCOMES.index(outcome))

    def int_rows(self) -> Iterator[tuple[int, ...]]:
        """Each record's seven values as stored: codes, and -1 for a missing time."""
        return _RECORD.iter_unpack(self._data)

    def __len__(self) -> int:
        return len(self._data) // _RECORD.size

    def __getitem__(self, index):
        picked = range(len(self))[index]   # an int, or a range for a slice
        if isinstance(picked, range):
            return tuple(map(self.__getitem__, picked))
        return _row(_RECORD.unpack_from(self._data, picked * _RECORD.size))

    def __iter__(self) -> Iterator[CompletionRecord]:
        return map(_row, self.int_rows())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecordTable):
            return NotImplemented
        return self._data == other._data

    def __reduce__(self):
        return RecordTable, (bytes(self._data),)


@dataclass(frozen=True)
class RunSummary:
    cfg: ScenarioConfig
    records: RecordTable
    # The BSM counts cover the ticks from warmup on (mobility.bsm_counts).
    bsm_tx_count: int
    bsm_expected_rx_count: int   # probes: one per sender at a tick with >= 2 vehicles
    # analytic.bsm_per(cfg, curve) when there is a probe, else None.
    bsm_per: float | None


class _Measured(NamedTuple):
    """Aggregates over the records outside the warmup window."""

    records: int
    complete: int
    attempts: int        # summed over complete records
    scts: list[TimeMs]   # sorted SCTs of complete records

    @property
    def completion_rate(self) -> float | None:
        return self.complete / self.records if self.records else None

    @property
    def attempts_mean(self) -> float | None:
        return self.attempts / self.complete if self.complete else None


def _measure(summary: RunSummary) -> _Measured:
    """One streamed pass over the table's int rows: counts, and the SCT list only.

    Python ints, not a numpy view of the table: numpy's mask and sort kernels
    page in 0.6-0.8 MB of code that a run with BSMs off never touches. No row
    is kept, so the pass holds one int per complete record, not a tuple per
    record.
    """
    warmup = summary.cfg.warmup
    records = complete = attempts = 0
    scts: list[TimeMs] = []
    for row in summary.records.int_rows():
        if row[_FIRST_SUM_TX] >= warmup:
            records += 1
            if row[_OUTCOME] == _COMPLETE:
                complete += 1
                attempts += row[_ATTEMPTS]
                if row[_ACK_RX] >= 0:
                    scts.append(row[_ACK_RX] - row[_FIRST_SUM_TX])
    scts.sort()
    return _Measured(records, complete, attempts, scts)


def _nearest_rank(scts: list[TimeMs], q: float) -> TimeMs | None:
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100] (got {q})")
    if not scts:
        return None
    rank = max(1, math.ceil(q * len(scts) / 100))
    return scts[rank - 1]


def sct_percentile(summary: RunSummary, q: float) -> TimeMs | None:
    """Nearest-rank percentile of SCT over completed, post-warmup records.

    q must lie in (0, 100]. Returns None when no complete record exists.
    """
    return _nearest_rank(_measure(summary).scts, q)


def mean_attempts_empirical(summary: RunSummary) -> float | None:
    """Mean request count over completed, post-warmup records (None if none)."""
    return _measure(summary).attempts_mean


def completion_rate(summary: RunSummary) -> float | None:
    return _measure(summary).completion_rate


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _fmt_key(value) -> str:
    """A key column's float: ``.6g`` when that reads back as the same float, else ``repr``.

    So rows whose keys differ past the sixth significant digit still print apart.
    """
    text = _fmt(value)
    if isinstance(value, float) and float(text) != value:   # NaN's repr is its text too
        return repr(float(value))   # a numpy float64 would repr with its type
    return text


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
    m = _measure(summary)
    scts = m.scts
    return {
        "d_t": summary.cfg.d_t,
        "flow_rate": summary.cfg.flow_rate,
        "seed": summary.cfg.rng_seed,
        "records": m.records,
        "complete": m.complete,
        "completion_rate": m.completion_rate,
        "attempts_mean": m.attempts_mean,
        "sct_min_ms": scts[0] if scts else None,
        "sct_median_ms": _nearest_rank(scts, 50),
        "sct_p90_ms": _nearest_rank(scts, 90),
        "sct_max_ms": scts[-1] if scts else None,
        "bsm_per": summary.bsm_per,
    }


def _write_lines(path: str, header: tuple[str, ...], lines: Iterable[str]) -> None:
    """Write a CSV header, then ``lines``, each ending in a newline."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            fh.writelines(lines)
    except OSError as exc:
        raise ExportError(f"cannot write {path}: {exc}") from exc


def _write_table(path: str, header: tuple[str, ...], rows: Iterable[Sequence[object]],
                 keys: int = 0) -> None:
    """Write a CSV; the first ``keys`` columns of each row print with ``_fmt_key``."""
    _write_lines(path, header, (",".join([*map(_fmt_key, row[:keys]), *map(_fmt, row[keys:])])
                                + "\n" for row in rows))


def export_records(summary: RunSummary, path: str) -> None:
    """One row per completion record, in simulation order. Deterministic bytes.

    One pass over the table's int rows, one f-string per row: a missing SAM
    or ACK time (-1) and the SCT of an incomplete record print empty.
    """
    directions = [d.value for d in _DIRECTIONS]
    lines = (f"{vid},{directions[direction]},{'' if sam < 0 else sam},{first},"
             f"{'' if ack < 0 else ack},{attempts},{_OUTCOMES[outcome]},"
             f"{ack - first if outcome == _COMPLETE and ack >= 0 else ''}\n"
             for vid, direction, sam, first, ack, attempts, outcome in summary.records.int_rows())
    _write_lines(path, RECORD_COLUMNS, lines)


def export_summaries(summaries: list[RunSummary], path: str) -> None:
    """One aggregate row per run, keyed by (d_t, flow_rate).

    A key prints in ``.6g`` when that reads back as the same float, else as
    ``repr``, so no two distinct keys print alike.
    """
    rows = [[row[c] for c in SUMMARY_COLUMNS] for row in map(summary_row, summaries)]
    _write_table(path, SUMMARY_COLUMNS, rows, keys=2)


def export_analytic(points: Iterable[tuple[float, float, float | None, float]],
                    path: str) -> None:
    """Rows of (density, d_t, mean_attempts, success_mass), written as they come.

    density and d_t are keys, printed as ``export_summaries`` prints its keys.
    """
    _write_table(path, ("density", "d_t", "mean_attempts", "success_mass"), points, keys=2)


def write_metadata(summary: RunSummary, path: str) -> None:
    """Sidecar echoing the exact configuration and seed of a run."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(dumps_config(summary.cfg))
            fh.write(f"# effective_seed = {summary.cfg.rng_seed}\n")
    except OSError as exc:
        raise ExportError(f"cannot write {path}: {exc}") from exc
