"""Aggregation and export: percentiles, means, warmup, stable bytes."""

from __future__ import annotations

import dataclasses
import math
import pickle
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from v2isim.core import ScenarioConfig
from v2isim.engine import run
from v2isim.metrics import (
    CompletionRecord, OUTCOME_COMPLETE, OUTCOME_DESPAWN, OUTCOME_SIMEND, RecordTable,
    RunSummary, completion_rate, export_analytic, export_records, export_summaries,
    mean_attempts_empirical, sct_percentile, summary_row, write_metadata,
)
from v2isim.mobility import Direction


def record(vid, first_tx=0, sct=None, attempts=1, outcome=OUTCOME_COMPLETE):
    ack = None if sct is None else first_tx + sct
    return CompletionRecord(
        vehicle_id=vid, direction=Direction.EAST, sam_rx_time=0,
        first_sum_tx_time=first_tx, ack_rx_time=ack, attempts=attempts,
        outcome=outcome,
    )


def table(records) -> RecordTable:
    t = RecordTable()
    for r in records:
        t.append(*r)
    return t


def summary(records, warmup=0, **cfg_overrides) -> RunSummary:
    cfg = dataclasses.replace(ScenarioConfig(), warmup=warmup, **cfg_overrides)
    return RunSummary(cfg=cfg, records=table(records), bsm_tx_count=10,
                      bsm_expected_rx_count=10, bsm_per=0.4)


def test_single_record_any_percentile():
    s = summary([record(1, sct=150)])
    for q in (1, 25, 50, 90, 100):
        assert sct_percentile(s, q) == 150


def test_nearest_rank_90th_of_ten():
    s = summary([record(i, sct=100 * i) for i in range(1, 11)])
    assert sct_percentile(s, 90) == 900
    assert sct_percentile(s, 100) == 1000
    assert sct_percentile(s, 50) == 500


@pytest.mark.parametrize("q", [7, 14, 17, 28, 34, 50, 55, 56, 68, 81, 90])
def test_nearest_rank_is_exact_in_integers(q):
    # The rank is ceil(q * n / 100) in exact arithmetic. Scaling q first
    # rounds: 7 / 100.0 * 100 is 7.000000000000001, whose ceiling is 8.
    records = [record(i, sct=i) for i in range(1, 301)]
    for n in range(1, 301):
        assert sct_percentile(summary(records[:n]), q) == -(-q * n // 100), (q, n)


def test_percentile_monotone_in_q():
    s = summary([record(i, sct=(37 * i) % 991) for i in range(1, 60)])
    values = [sct_percentile(s, q) for q in range(1, 101)]
    assert values == sorted(values)


def test_percentile_rejects_out_of_range_q():
    s = summary([record(1, sct=10)])
    with pytest.raises(ValueError):
        sct_percentile(s, 0)
    with pytest.raises(ValueError):
        sct_percentile(s, 101)


def test_no_complete_records_yields_none():
    s = summary([record(1, outcome=OUTCOME_DESPAWN, sct=None)])
    assert sct_percentile(s, 90) is None
    assert mean_attempts_empirical(s) is None


def test_mean_attempts_examples():
    assert mean_attempts_empirical(summary([record(i, sct=5) for i in range(3)])) == 1.0
    s = summary([
        record(1, sct=5, attempts=1),
        record(2, sct=5, attempts=1),
        record(3, sct=5, attempts=2),
    ])
    assert mean_attempts_empirical(s) == pytest.approx(4 / 3)


def test_warmup_records_excluded_from_aggregates_but_exported(tmp_path):
    s = summary(
        [record(1, first_tx=50, sct=100), record(2, first_tx=2000, sct=900)],
        warmup=1000,
    )
    assert sct_percentile(s, 90) == 900  # only the post-warmup record counts
    path = tmp_path / "records.csv"
    export_records(s, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 3  # header + both records


def test_incomplete_records_excluded_from_sct_and_attempts():
    s = summary([
        record(1, sct=100, attempts=1),
        record(2, outcome=OUTCOME_DESPAWN, attempts=9),
    ])
    assert mean_attempts_empirical(s) == 1.0
    assert sct_percentile(s, 100) == 100
    assert summary_row(s)["complete"] == 1
    assert summary_row(s)["records"] == 2


def test_empty_summary_exports_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    export_records(summary([]), str(path))
    assert path.read_text() == (
        "vehicle_id,direction,sam_rx_ms,first_sum_tx_ms,ack_rx_ms,"
        "attempts,outcome,sct_ms\n"
    )


def test_bsm_per_from_counters():
    """``bsm_per`` is a field (the engine sets it from the closed form when a
    run has a probe); the summary row carries it as it is, None when there is none."""
    s = summary([])
    assert summary_row(s)["bsm_per"] == s.bsm_per == 0.4
    empty = RunSummary(cfg=ScenarioConfig(), records=RecordTable(), bsm_tx_count=0,
                       bsm_expected_rx_count=0, bsm_per=None)
    assert summary_row(empty)["bsm_per"] is None


def test_sweep_summary_one_row_per_cell(tmp_path):
    summaries = [
        summary([record(1, sct=100)], d_t=d, flow_rate=f)
        for d in (300.0, 0.0, -100.0) for f in (10.0, 20.0, 30.0)
    ]
    path = tmp_path / "cells.csv"
    export_summaries(summaries, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 10
    keys = [tuple(line.split(",")[:2]) for line in lines[1:]]
    assert len(set(keys)) == 9


def test_summary_keys_print_apart_and_read_back(tmp_path):
    """A key prints in .6g when that reads back as the same float, else in repr."""
    keys = [(1000000.0, 10.0), (1000000.5, 10.0), (1000000.0, 10.000001),
            (-100.0, 1e-05), (1e17 + 32, 30.0)]
    path = tmp_path / "cells.csv"
    export_summaries([summary([], d_t=d, flow_rate=f) for d, f in keys], str(path))
    printed = [tuple(line.split(",")[:2]) for line in path.read_text().splitlines()[1:]]
    assert printed == [("1e+06", "10"), ("1000000.5", "10"), ("1e+06", "10.000001"),
                       ("-100", "1e-05"), ("1.0000000000000003e+17", "30")]
    assert [(float(d), float(f)) for d, f in printed] == keys


def test_exports_byte_identical_across_reruns(tmp_path):
    cfg = dataclasses.replace(ScenarioConfig(), sim_duration=40_000, warmup=0,
                              flow_rate=5.0, rng_seed=13, bsm_period=500)
    paths = []
    for i in (1, 2):
        s = run(cfg)
        rec = tmp_path / f"records{i}.csv"
        summ = tmp_path / f"summary{i}.csv"
        meta = tmp_path / f"meta{i}.txt"
        export_records(s, str(rec))
        export_summaries([s], str(summ))
        write_metadata(s, str(meta))
        paths.append((rec.read_bytes(), summ.read_bytes(), meta.read_bytes()))
    assert paths[0] == paths[1]


def test_metadata_echoes_config_and_seed(tmp_path):
    s = summary([], rng_seed=4242)
    path = tmp_path / "run.meta"
    write_metadata(s, str(path))
    text = path.read_text()
    assert "rng_seed = 4242" in text
    assert "effective_seed = 4242" in text
    assert "b_ack = 16" in text


def test_export_analytic_rows(tmp_path):
    path = tmp_path / "ana.csv"
    export_analytic([(10.0, -20.0, 1.25, 1.0), (10.0, 0.0, None, 0.0)], str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "density,d_t,mean_attempts,success_mass"
    assert lines[1] == "10,-20,1.25,1"
    assert lines[2] == "10,0,,0"


# -- the record table ------------------------------------------------------

def reference_row(records: list[CompletionRecord], warmup: int) -> dict[str, object]:
    """``summary_row``'s aggregates over a list of records, as first defined."""
    recs = [r for r in records if r.first_sum_tx_time >= warmup]
    scts = sorted(r.sct for r in recs if r.sct is not None)
    attempts = [r.attempts for r in recs if r.complete]

    def rank(q):
        return scts[max(1, math.ceil(q / 100.0 * len(scts))) - 1] if scts else None
    return {
        "records": len(recs),
        "complete": len(attempts),
        "completion_rate": len(attempts) / len(recs) if recs else None,
        "attempts_mean": sum(attempts) / len(attempts) if attempts else None,
        "sct_min_ms": scts[0] if scts else None,
        "sct_median_ms": rank(50),
        "sct_p90_ms": rank(90),
        "sct_max_ms": scts[-1] if scts else None,
        **{f"p{q}": rank(q) for q in (1, 50, 90, 100)},
    }


WARMUP = 5000
_times = st.integers(0, 2**40)
_records = st.lists(st.builds(
    CompletionRecord,
    vehicle_id=st.integers(0, 2**40),
    direction=st.sampled_from(Direction),
    sam_rx_time=st.none() | _times,
    first_sum_tx_time=st.sampled_from([0, WARMUP - 1, WARMUP, WARMUP + 1]) | _times,
    ack_rx_time=st.none() | _times,
    attempts=st.integers(1, 2**20),
    outcome=st.sampled_from([OUTCOME_COMPLETE, OUTCOME_DESPAWN, OUTCOME_SIMEND]),
), max_size=200)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_records)
def test_table_aggregates_equal_the_list_definitions(records):
    s = summary(records, warmup=WARMUP)
    assert list(s.records) == records
    assert all(type(r) is CompletionRecord for r in s.records)
    n = len(records)
    assert [s.records[i] for i in range(-n, n)] == records * 2
    assert s.records[1:-1] == tuple(records[1:-1])
    want = reference_row(records, WARMUP)
    row = summary_row(s)
    assert {k: row[k] for k in row if k in want} == {k: want[k] for k in row if k in want}
    assert [sct_percentile(s, q) for q in (1, 50, 90, 100)] \
        == [want[f"p{q}"] for q in (1, 50, 90, 100)]
    assert completion_rate(s) == want["completion_rate"]
    assert mean_attempts_empirical(s) == want["attempts_mean"]


def test_table_index_out_of_range():
    t = table([record(1, sct=5)])
    with pytest.raises(IndexError):
        t[1]
    with pytest.raises(IndexError):
        t[-2]


def test_pickle_round_trip_keeps_rows_and_their_type():
    records = [record(1, sct=150), record(2, first_tx=7, outcome=OUTCOME_DESPAWN, attempts=3),
               record(3, outcome=OUTCOME_SIMEND)._replace(sam_rx_time=None)]
    s = summary(records)
    loaded = pickle.loads(pickle.dumps(s))
    assert loaded == s
    assert list(loaded.records) == records
    assert all(type(r) is CompletionRecord for r in loaded.records)


def test_unpickled_summary_holds_at_most_80_bytes_per_record():
    """A sweep's parent holds every cell's records as its pool worker pickled them."""
    n = 10_000
    data = pickle.dumps(summary(
        [record(i, first_tx=1000 + 600 * i, sct=300 + i % 700, attempts=1 + i % 3)
         for i in range(n)]))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = pickle.loads(data)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(loaded.records) == n
    assert held <= 80 * n, f"{held / n:.1f} B per record"
