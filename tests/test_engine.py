"""Event core: ordering, delivery, determinism, degenerate channels."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import heapq
import math
import tempfile
import time
from collections import Counter
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bsm_reference import bsm_counters, per_table
from v2isim import analytic, engine, metrics
from v2isim.channel import (
    PerCurve, constant_per_curve, default_calibration, dumps_per_curve, per, per_many,
)
from v2isim.cli import main
from v2isim.core import RSU_POSITION, ConfigError, Message, ScenarioConfig
from v2isim.engine import (
    BatchError, EngineError, Event, EventKind, EventQueue, deliver_broadcast, run,
    run_batch,
)
from v2isim.metrics import CompletionRecord, OUTCOME_COMPLETE, OUTCOME_DESPAWN, OUTCOME_SIMEND
from v2isim.mobility import (
    Direction, entry_x, generate_arrivals, position_at, transit_ms, trigger_offset_ms,
)


def short_cfg(**overrides) -> ScenarioConfig:
    base = dict(sim_duration=60_000, warmup=0, flow_rate=4.0, rng_seed=3,
                bsm_period=500)
    base.update(overrides)
    return dataclasses.replace(ScenarioConfig(), **base)


# -- event queue ---------------------------------------------------------


def test_queue_pops_in_time_then_insertion_order():
    q = EventQueue()
    q.push(5, EventKind.SAM_TIMER, "a")
    q.push(3, EventKind.SAM_TIMER, "b")
    q.push(5, EventKind.SAM_TIMER, "c")
    q.push(4, EventKind.SAM_TIMER, "d")
    assert [q.pop().payload for _ in range(4)] == ["b", "d", "a", "c"]


def test_queue_rejects_scheduling_in_the_past():
    q = EventQueue()
    q.push(10, EventKind.SAM_TIMER)
    q.pop()
    with pytest.raises(EngineError, match="behind the clock"):
        q.push(9, EventKind.SAM_TIMER)


def test_queue_pop_rejects_an_event_behind_the_clock():
    q = EventQueue()
    q.push(10, EventKind.SAM_TIMER)
    q.pop()
    # push refuses such an event, so it is planted on the heap directly.
    heapq.heappush(q._heap, Event(9, 99, EventKind.RETRY_TIMER))
    with pytest.raises(EngineError, match="popped behind the clock"):
        q.pop()


# -- deliver_broadcast ---------------------------------------------------


ORIGIN = (0.0, 0.0)


def test_deliver_all_when_lossless():
    curve = constant_per_curve(0.0)
    receivers = [(i, (float(i), 0.0)) for i in range(1, 50)]
    got = deliver_broadcast(0, receivers, ORIGIN, curve, 10.0, np.random.default_rng(0))
    assert got == {i for i, _ in receivers}


def test_sender_excluded_even_at_distance_zero():
    curve = constant_per_curve(0.0)
    receivers = [(0, (0.0, 0.0)), (1, (0.0, 0.0))]
    got = deliver_broadcast(0, receivers, ORIGIN, curve, 10.0, np.random.default_rng(0))
    assert got == {1}


def test_deliver_binomial_3sigma():
    curve = constant_per_curve(0.5)
    receivers = [(i, (10.0, 0.0)) for i in range(1, 1001)]
    got = deliver_broadcast(0, receivers, ORIGIN, curve, 10.0, np.random.default_rng(99))
    sigma = math.sqrt(1000 * 0.25)
    assert abs(len(got) - 500) <= 3 * sigma


def test_deliver_draws_one_uniform_per_non_sender_candidate():
    receivers = [(i, (float(i), 0.0)) for i in range(16)]   # 0 is the sender
    rng = np.random.default_rng(7)
    got = deliver_broadcast(0, receivers, ORIGIN, constant_per_curve(0.3), 10.0, rng)
    ref_rng = np.random.default_rng(7)
    ref = ref_rng.random(15) >= 0.3
    assert got == {i for i, ok in enumerate(ref, start=1) if ok}
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # Draws lie in [0, 1): PER 1 never receives.
    assert deliver_broadcast(0, receivers, ORIGIN, constant_per_curve(1.0), 10.0,
                             rng) == set()


def _scalar_deliver(sender, receivers, tx_position, curve, density, rng):
    """Reference: one scalar draw and one scalar ``per`` per candidate."""
    tx, ty = tx_position
    received = set()
    for entity_id, (rx, ry) in receivers:
        if entity_id == sender:
            continue
        dist = ((rx - tx) ** 2 + (ry - ty) ** 2) ** 0.5
        if rng.random() >= per(curve, dist, density):
            received.add(entity_id)
    return received


CAL = default_calibration()
_KNOTS = sorted({d for tab in CAL.tables for d, _ in tab})


@st.composite
def broadcasts(draw):
    """A sender, its candidate receivers, the transmit position and a density.

    Whole-metre transmit positions keep on-knot and past-the-last-knot
    candidates at exactly that distance."""
    tx = float(draw(st.integers(-1500, 1500)))
    ty = draw(st.sampled_from([0.0, 1.75, -26.25]))
    offset = st.one_of(
        st.sampled_from(_KNOTS).map(lambda d: (d, 0.0)),
        st.floats(_KNOTS[-1], 3000.0).map(lambda d: (d, 0.0)),
        st.tuples(st.floats(-700.0, 700.0), st.floats(-60.0, 60.0)),
    )
    candidates = [(vid, (tx + dx, ty + dy))
                  for vid, (dx, dy) in enumerate(draw(st.lists(offset, max_size=24)))]
    sender = draw(st.sampled_from([-1, 0]))
    if draw(st.booleans()):   # the sender itself, at distance 0
        candidates.insert(draw(st.integers(0, len(candidates))), (sender, (tx, ty)))
    return sender, candidates, (tx, ty), draw(st.sampled_from([10.0, 15.0, 30.0]))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(broadcasts(), st.integers(0, 2**32))
@example((-1, [], (0.0, 0.0), 15.0), 5)
@example((-1, [(-1, (3.0, 0.0))], (3.0, 0.0), 30.0), 5)
def test_deliver_matches_a_scalar_draw_per_candidate(case, seed):
    sender, candidates, tx_position, density = case
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = deliver_broadcast(sender, candidates, tx_position, CAL, density, rng)
    assert got == _scalar_deliver(sender, candidates, tx_position, CAL, density, ref_rng)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# -- degenerate channels -------------------------------------------------


def test_lossless_single_vehicle(lossless_curve_file):
    cfg = dataclasses.replace(
        ScenarioConfig(), sim_duration=80_000, warmup=0, flow_rate=0.05,
        per_curve=lossless_curve_file, bsm_period=1000, rng_seed=1,
    )
    summary = run(cfg)
    assert len(summary.records) == 1
    record = summary.records[0]
    assert record.complete and record.attempts == 1
    # Sparse lossless traffic: one half-tau out, a full batch wait, one
    # half-tau back, so the completion time is bounded by tau_max + t_ack.
    assert record.sct <= 200 + cfg.t_ack


def test_lossless_everyone_served_in_one_attempt(lossless_curve_file):
    cfg = short_cfg(per_curve=lossless_curve_file, flow_rate=8.0)
    summary = run(cfg)
    settled = [r for r in summary.records if r.outcome != OUTCOME_SIMEND]
    assert settled
    assert all(r.complete and r.attempts == 1 for r in settled)
    # Round trip: half tau out, batching wait, half tau back.
    tau_max, t_ack = 200, cfg.t_ack
    assert all(r.sct <= tau_max + t_ack for r in settled)


def test_blocked_channel_zero_completions(blocked_curve_file):
    summary = run(short_cfg(per_curve=blocked_curve_file, flow_rate=8.0))
    assert all(not r.complete for r in summary.records)
    # No advertisement is ever received, so no request is ever sent.
    assert len(summary.records) == 0
    assert summary.bsm_per == pytest.approx(1.0, rel=1e-12)


# -- determinism ---------------------------------------------------------


def test_identical_config_identical_summary():
    cfg = short_cfg()
    assert run(cfg) == run(cfg)


def test_full_event_trace_is_pure_function_of_config(tmp_path):
    cfg = short_cfg(flow_rate=6.0)
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    run(cfg, trace_path=str(a))
    run(cfg, trace_path=str(b))
    assert a.read_bytes() == b.read_bytes()


def test_seed_changes_output():
    a = run(short_cfg(rng_seed=3))
    b = run(short_cfg(rng_seed=4))
    assert a != b


def test_run_batch_matches_input_order_and_serial_parallel_agree():
    cfgs = [short_cfg(d_t=d, rng_seed=50 + i) for i, d in enumerate((0.0, 150.0, -80.0))]
    serial = run_batch(cfgs, parallelism=1)
    parallel = run_batch(cfgs, parallelism=3)
    assert [s.cfg.d_t for s in serial] == [0.0, 150.0, -80.0]
    assert serial == parallel


def test_run_batch_heaviest_first_keeps_input_order_and_serial_parallel_agree():
    # flow_rate * sim_duration ranks the cells; the input order is shuffled.
    loads = [(2.0, 40_000), (8.0, 30_000), (1.0, 20_000), (6.0, 40_000), (4.0, 10_000)]
    cfgs = [short_cfg(flow_rate=f, sim_duration=d, rng_seed=70 + i)
            for i, (f, d) in enumerate(loads)]
    order = [3, 0, 4, 1, 2]
    shuffled = [cfgs[i] for i in order]
    serial = run_batch(shuffled, parallelism=1)
    parallel = run_batch(shuffled, parallelism=2)
    assert [s.cfg for s in parallel] == shuffled
    assert serial == parallel


def test_run_batch_pool_is_no_larger_than_the_batch(monkeypatch):
    """Under fork a pool starts every worker at its first submit, so the pool
    is sized by the batch and by the CPUs available. An inline stand-in
    records the size and starts no process; ``run_batch`` imports the pool
    class only when it makes a pool, so the stand-in replaces it in
    ``concurrent.futures``."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    def cpus(n):
        monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    cfgs = [short_cfg(sim_duration=5_000, rng_seed=80 + i) for i in range(3)]
    cpus(8)
    serial = run_batch(cfgs, parallelism=1)
    assert run_batch(cfgs, parallelism=5000) == serial
    run_batch(cfgs[:2], parallelism=2)
    assert sizes == [3, 2]
    cpus(2)   # fewer CPUs than cells or workers asked for
    assert run_batch(cfgs, parallelism=5000) == serial
    cpus(1)   # one CPU: the serial path, no pool
    assert run_batch(cfgs, parallelism=5000) == serial
    assert sizes == [3, 2, 2]


def test_pool_records_are_named_tuples_equal_to_serial_ones():
    cfgs = [short_cfg(flow_rate=8.0, rng_seed=90 + i) for i in range(2)]
    serial = run_batch(cfgs, parallelism=1)
    pooled = run_batch(cfgs, parallelism=2)
    assert pooled == serial
    for summary in pooled:
        assert summary.records
        for r in summary.records:
            assert type(r) is CompletionRecord
            assert r.complete == (r.outcome == OUTCOME_COMPLETE)
            assert r.sct == (r.ack_rx_time - r.first_sum_tx_time if r.complete else None)
    assert any(r.complete for s in pooled for r in s.records)


def test_run_batch_empty():
    assert run_batch([]) == []


def test_run_batch_same_cfg_same_seed_identical():
    cfg = short_cfg()
    a, b = run_batch([cfg, cfg])
    assert a == b


def test_run_batch_reports_failures_per_index_without_aborting():
    good = short_cfg()
    bad = dataclasses.replace(good, b_ack=0)
    with pytest.raises(BatchError) as exc_info:
        run_batch([good, bad, good])
    err = exc_info.value
    assert set(err.failures) == {1}
    assert err.results[0] is not None and err.results[2] is not None
    assert err.results[0] == err.results[2]


def test_invalid_config_rejected():
    with pytest.raises(ConfigError, match="b_ack"):
        run(short_cfg(b_ack=0))


def test_flow_too_low_for_any_arrival_runs_empty():
    summary = run(short_cfg(flow_rate=1e-307))
    assert len(summary.records) == 0 and summary.bsm_tx_count == 0


# -- behavior ------------------------------------------------------------


def test_liveness_lossless_complete_before_despawn(lossless_curve_file):
    cfg = dataclasses.replace(
        ScenarioConfig(), sim_duration=120_000, warmup=0, flow_rate=6.0,
        per_curve=lossless_curve_file, rng_seed=21, bsm_period=1000,
    )
    summary = run(cfg)
    settled = [r for r in summary.records if r.outcome != OUTCOME_SIMEND]
    assert settled
    assert all(r.complete and r.attempts == 1 for r in settled)
    assert all(r.sam_rx_time is not None for r in summary.records)


def test_attempts_match_request_transmissions_under_loss():
    # The engine traps any attempts/transmission mismatch internally, so a
    # lossy run completing without EngineError is itself the conservation
    # check; records must still show retries happening.
    summary = run(short_cfg(d_t=250.0, flow_rate=10.0, sim_duration=90_000))
    assert any(r.attempts > 1 for r in summary.records)


def test_vehicle_state_lives_from_spawn_to_despawn(tmp_path):
    # Lossless within 900 m of the RSU, blocked (PER 1) beyond: every vehicle
    # stores a SAM on its way in, and every SUM from the trigger 1,200 m past
    # the RSU is lost, so each vehicle leaves with its retry timer armed.
    curve_path = tmp_path / "step.per"
    curve_path.write_text("density 10\n0 0\n900 0\n901 1\n")
    cfg = short_cfg(d_t=-1200.0, flow_rate=2.0, sim_duration=200_000,
                    per_curve=str(curve_path))
    rows = []
    sim = engine._Simulation(cfg, trace=lambda *row: rows.append(row))
    summary = sim.run()
    spawns = {arrivals.id_start + i: t for arrivals in sim.by_direction.values()
              for i, t in enumerate(arrivals.spawn_times)}
    exits = {vid: t + transit_ms(cfg.road_length, cfg.mean_speed) for vid, t in spawns.items()}
    sums_sent: dict[int, int] = {}
    for t, entity, _event, _before, after in rows:
        if entity.startswith("veh"):
            vid = int(entity[3:])
            assert t < exits[vid], (t, entity, _event)   # nothing after despawn
            if after == "awaiting_ack":
                sums_sent[vid] = sums_sent.get(vid, 0) + 1
    despawned = [r for r in summary.records if exits[r.vehicle_id] < cfg.sim_duration]
    assert len(despawned) > 100
    assert all(r.outcome == OUTCOME_DESPAWN for r in despawned)
    assert all(r.outcome == OUTCOME_SIMEND for r in summary.records
               if r not in despawned)
    assert {r.vehicle_id: r.attempts for r in summary.records} == sums_sent
    assert all(r.attempts > 1 for r in despawned)
    in_stretch = {vid for vid, t in spawns.items() if t < cfg.sim_duration <= exits[vid]}
    assert in_stretch and set(sim.obu) == set(sim.active) == in_stretch
    assert set(sim.sum_tx_count) == {r.vehicle_id for r in summary.records
                                     if r.outcome == OUTCOME_SIMEND}


@pytest.mark.parametrize("d_t", [300.0, 0.0, -100.0, 1499.5, -1499.5])
def test_trigger_fires_at_spawn_plus_the_offset_as_the_line_is_reached(d_t):
    """Every TRIGGER_CROSS, in both directions, fires at its vehicle's spawn
    plus the one offset: the first whole ms at which the vehicle has reached d_t."""
    cfg = short_cfg(d_t=d_t, flow_rate=4.0, sim_duration=120_000, bsm_period=120_000)
    sim = engine._Simulation(cfg)
    vehicles = {v.vehicle_id: v for arrivals in sim.by_direction.values() for v in arrivals}
    offset = trigger_offset_ms(cfg)
    triggers = []
    pop = sim.queue.pop

    def recording_pop():
        event = pop()
        if event.kind is EventKind.TRIGGER_CROSS:
            triggers.append(event)
        return event

    sim.queue.pop = recording_pop
    sim.run()
    assert {vid for _, _, _, vid in triggers} == {
        vid for vid, v in vehicles.items() if v.spawn_time + offset < cfg.sim_duration}
    directions = Counter()
    for t, _, _, vid in triggers:
        v = vehicles[vid]
        directions[v.direction] += 1
        assert t == v.spawn_time + offset
        # Signed distance to the RSU at the origin, less d_t, to 1e-9 m.
        to_go = [-position_at(v, at)[0] * v.direction.sign - d_t for at in (t, t - 1)]
        assert to_go[0] <= 1e-9 < to_go[1], (vid, to_go)
    assert set(directions) == set(Direction)


# -- one pending spawn per direction ---------------------------------------


class _EagerSpawns(engine._Simulation):
    """The eager schedule: every arrival's spawn is pushed at init under seq
    2 + its id (after SAM_TIMER and SIM_END), and a spawn pushes no next one."""

    def _push_spawn(self, arrivals, i):
        if i == 0:
            for j, t in enumerate(arrivals.spawn_times):
                self.queue.push(t, EventKind.VEHICLE_SPAWN, (arrivals, j),
                                seq=2 + arrivals.id_start + j)


def _run_recording(sim, after_pop=None):
    """Run ``sim``; its popped (time, seq, kind) keys and its CSV bytes."""
    keys = []
    pop = sim.queue.pop

    def recording_pop():
        event = pop()
        keys.append(event[:3])
        if after_pop is not None:
            after_pop(sim)
        return event

    sim.queue.pop = recording_pop
    summary = sim.run()
    with tempfile.TemporaryDirectory() as tmp:
        records, summaries = Path(tmp, "records.csv"), Path(tmp, "summary.csv")
        metrics.export_records(summary, str(records))
        metrics.export_summaries([summary], str(summaries))
        return keys, records.read_bytes(), summaries.read_bytes()


@st.composite
def tie_heavy_configs(draw):
    """Short runs full of same-millisecond events: a fixed tau whose half is a
    multiple of the timer unit, timers that are multiples of one another,
    spawns 1 ms apart at the higher flows, and a warmup."""
    unit = draw(st.sampled_from([50, 100]))
    tau = draw(st.sampled_from([8, 100, 200]))
    road = draw(st.sampled_from([300.0, 600.0]))
    duration = draw(st.integers(2_000, 9_000))
    return short_cfg(
        flow_rate=draw(st.sampled_from([10.0, 120.0, 400.0])), road_length=road,
        mean_speed=draw(st.sampled_from([30.0, 60.0])),
        d_t=draw(st.sampled_from([-0.25 * road, 0.0, 0.4 * road])),
        b_ack=draw(st.sampled_from([1, 4, 16])),
        t_sum=unit * draw(st.integers(1, 6)), t_ack=unit * draw(st.integers(1, 4)),
        sam_period=unit * draw(st.integers(1, 8)), bsm_period=unit * draw(st.integers(1, 10)),
        tau_low=tau, tau_high=tau, sim_duration=duration,
        warmup=draw(st.integers(1, duration // 2)), rng_seed=draw(st.integers(0, 2**32)))


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(tie_heavy_configs())
def test_one_pending_spawn_per_direction_keeps_the_eager_order_and_bytes(cfg):
    """Each spawn keeps its seq, so each event keeps its (time, seq) key, and
    the minimum of the lazy heap is the minimum of the eager one: it is either
    a non-spawn event or the earliest unfired spawn of its direction."""
    lazy, eager = engine._Simulation(cfg), _EagerSpawns(cfg)
    arrivals = sum(map(len, lazy.by_direction.values()))
    assert lazy.queue._next_seq == eager.queue._next_seq == 2 + arrivals
    got, want = _run_recording(lazy), _run_recording(eager)
    assert got[0] == want[0]   # the popped keys, in order
    assert got[1:] == want[1:]   # records.csv and summary.csv bytes
    assert sum(kind is EventKind.VEHICLE_SPAWN for _, _, kind in got[0]) > 0


def test_at_most_one_spawn_per_direction_is_pending():
    cfg = short_cfg(flow_rate=20.0, sim_duration=20_000)
    sim = engine._Simulation(cfg)
    east = len(sim.by_direction[Direction.EAST])
    assert east and len(sim.by_direction[Direction.WEST])
    pending_counts = []

    def check(sim):
        # Spawn seqs run 2.. in id order, east before west.
        pending = Counter(e.seq < 2 + east for e in sim.queue._heap
                          if e.kind is EventKind.VEHICLE_SPAWN)
        pending_counts.append(max(pending.values(), default=0))

    check(sim)
    keys, _, _ = _run_recording(sim, after_pop=check)
    assert max(pending_counts) == 1 and len(pending_counts) == len(keys) + 1


def test_completion_fraction_regression():
    # Frozen after calibrating the shipped PER table (observed 0.9973).
    cfg = dataclasses.replace(ScenarioConfig(), sim_duration=200_000, warmup=0,
                              flow_rate=10.0, d_t=0.0, rng_seed=7)
    summary = run(cfg)
    complete = sum(1 for r in summary.records if r.complete)
    assert complete / len(summary.records) > 0.99


def _reference_pass(cfg: ScenarioConfig) -> tuple[int, float, int]:
    """The Monte-Carlo BSM pass (``bsm_reference``) over the run's arrivals."""
    sim = engine._Simulation(cfg)   # arrivals only: the BSM pass needs no event loop
    return bsm_counters(cfg, sim.curve, sim.by_direction)


def test_bsm_counters_consistent():
    cfg = short_cfg(flow_rate=10.0)
    summary = run(cfg)
    assert summary.bsm_tx_count > 0
    assert 0 < summary.bsm_expected_rx_count <= summary.bsm_tx_count
    assert 0.0 <= summary.bsm_per <= 1.0
    tx, rx, probes = _reference_pass(cfg)
    assert (tx, probes) == (summary.bsm_tx_count, summary.bsm_expected_rx_count)
    assert 0 < rx <= probes


@pytest.mark.parametrize("overrides", [
    {},                                                  # warmup 0: the fill-up counts
    {"warmup": 100_000, "sim_duration": 130_000},        # one transit: steady state
    {"flow_rate": 15.0, "lane_count": 4, "road_length": 1000.0},
], ids=["no-warmup", "warmup-one-transit", "blend-4-lanes-1km"])
def test_bsm_per_is_the_closed_form_whenever_there_is_a_probe(overrides):
    cfg = short_cfg(**{"flow_rate": 10.0, **overrides})
    summary = run(cfg)
    assert summary.bsm_expected_rx_count > 0
    assert summary.bsm_per == analytic.bsm_per(cfg, cfg.channel())


@pytest.mark.parametrize("overrides", [
    {"flow_rate": 0.01, "sim_duration": 20_000},   # at most a lone vehicle per tick
    {"warmup": 60_000},                            # no tick from warmup on
], ids=["lone-vehicle", "warmup-covers-the-run"])
def test_bsm_per_is_none_without_a_probe(overrides):
    summary = run(short_cfg(**overrides))
    assert summary.bsm_expected_rx_count == 0
    assert summary.bsm_per is None


def _timed_bsm_run(**overrides):
    cfg = short_cfg(flow_rate=10.0, sim_duration=2_000, bsm_period=100, **overrides)
    start = time.perf_counter()
    summary = run(cfg)
    elapsed = time.perf_counter() - start
    assert summary.bsm_expected_rx_count > 0
    assert elapsed < 1.0
    return summary


def test_bsm_per_of_a_1e9_m_road_takes_under_a_second():
    """The model's quadrature stops at the last knot: a 1e9 m road (about 2e9
    nodes of 0.5 m over the whole road) adds the clamped tail in closed form."""
    summary = _timed_bsm_run(road_length=1e9, t_sum=600_000)
    curve = summary.cfg.channel()
    assert summary.bsm_per == pytest.approx(per(curve, curve.max_knot_distance, 10.0), abs=1e-6)


def test_bsm_per_of_a_1e9_m_road_and_last_knot_takes_under_a_second(tmp_path):
    """A calibration reaching as far as the 1e9 m road leaves no closed-form
    tail: the quadrature's nodes are capped, not 0.5 m apart."""
    path = tmp_path / "far.per"
    path.write_text(dumps_per_curve(PerCurve(levels=(10.0,), tables=(((0.0, 0.1), (1e9, 0.5)),))))
    summary = _timed_bsm_run(road_length=1e9, t_sum=600_000, per_curve=str(path))
    assert summary.bsm_per == pytest.approx(0.1 + 0.4 / 3, abs=1e-9)


def test_bsm_per_of_2_32_lanes_a_nanometre_apart_takes_under_a_second():
    """2**32 lateral gaps below the last knot, merged into runs: one gap per
    lane pair would take about 3e7 blocks of PER lookups."""
    summary = _timed_bsm_run(lane_count=2**32, lane_width=1e-9)
    # Every lane lies within 4.3 m of the median: close to one lane per direction.
    one_lane = analytic.bsm_per(dataclasses.replace(summary.cfg, lane_count=2), CAL)
    assert summary.bsm_per == pytest.approx(one_lane, abs=1e-5)


def _in_stretch_positions(cfg: ScenarioConfig):
    """Yield each BSM tick's in-stretch positions, one position_at call per
    vehicle and tick, over the same arrivals as the engine. The ticks are
    the positive multiples of bsm_period at or after warmup."""
    rng = np.random.default_rng(cfg.rng_seed)
    vehicles = []
    for direction in (Direction.EAST, Direction.WEST):
        vehicles += generate_arrivals(cfg, direction, rng, id_start=len(vehicles))
    for t in range(cfg.bsm_period, cfg.sim_duration, cfg.bsm_period):
        if t < cfg.warmup:
            continue
        positions = []
        for v in vehicles:
            if v.spawn_time > t:
                continue
            x, y = position_at(v, t)
            progress = v.direction.sign * (x - entry_x(v.direction, cfg.road_length))
            if 0.0 <= progress < cfg.road_length:
                positions.append((x, y))
        yield positions


def _brute_force_bsm_counts(cfg: ScenarioConfig) -> tuple[int, int]:
    """BSM transmissions and probes from per-vehicle positions at the ticks
    from warmup on."""
    tx = expected = 0
    for positions in _in_stretch_positions(cfg):
        n = len(positions)
        tx += n
        if n >= 2:   # one probe per sender; a lone vehicle probes none
            expected += n
    return tx, expected


@pytest.mark.parametrize("flow, period, duration, warmup", [
    (4.0, 100, 30_000, 0),
    (0.5, 250, 30_000, 0),        # sparse: ticks with n < 2
    (2.0, 1000, 130_000, 0),      # past one transit: vehicles leave the stretch
    (4.0, 30_000, 30_000, 0),     # a tick at the end instant is outside the run
    (4.0, 300, 30_000, 10_050),   # the next tick is the first
    (4.0, 250, 30_000, 10_000),   # that tick counts
    (4.0, 100, 30_000, 30_000),   # no tick
], ids=["4.0-100-30000", "0.5-250-30000", "2.0-1000-130000", "4.0-30000-30000",
        "warmup-between-ticks", "warmup-on-a-tick", "warmup-covers-the-run"])
def test_bsm_counts_match_brute_force_positions(flow, period, duration, warmup):
    cfg = short_cfg(flow_rate=flow, bsm_period=period, sim_duration=duration, warmup=warmup)
    summary = run(cfg)
    tx, expected = _brute_force_bsm_counts(cfg)
    assert (summary.bsm_tx_count, summary.bsm_expected_rx_count) == (tx, expected)
    assert (summary.bsm_per is None) == (expected == 0)


def test_bsm_per_cell_is_empty_when_warmup_covers_the_run(tmp_path):
    out = tmp_path / "run"
    assert main(["simulate", "--out", str(out), "--set", "sim_duration=30000",
                 "--set", "warmup=30000", "--set", "flow_rate=4"]) == 0
    header, row = (out / "summary.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["bsm_per"] == ""


def test_bsm_reception_rate_matches_constant_per(tmp_path):
    # Every probe scores 1 - 0.3 whatever its distance: the estimate is exact.
    per_value = 0.3
    curve_path = tmp_path / "const.per"
    curve_path.write_text(dumps_per_curve(constant_per_curve(per_value)))
    _, rx, n = _reference_pass(short_cfg(flow_rate=10.0, per_curve=str(curve_path),
                                         bsm_period=100))
    assert n > 100_000
    assert rx == pytest.approx((1.0 - per_value) * n, rel=1e-9)


def test_bsm_receptions_match_all_pairs_expectation():
    """The scored-probe estimator against the exact all-pairs reference.

    Sender i's one probe is uniform over the other in-stretch vehicles, and
    a probe of j scores h_ij = 1 - per(d_ij). With p_i = mean_{j != i} h_ij,
    E[rx] = sum_t sum_i p_i. Only the receiver choice is random (no
    reception is drawn), so Var[rx] = sum_t sum_i Var_{j != i}(h_ij), the
    Rao-Blackwell variance, with no Bernoulli term. A 1 km stretch keeps most
    pairs on the curve's slope; 15 veh/s blends two density levels.
    """
    cfg = short_cfg(flow_rate=15.0, road_length=1000.0, sim_duration=40_000,
                    bsm_period=250)
    curve = default_calibration()
    mean = var = 0.0
    for positions in _in_stretch_positions(cfg):
        n = len(positions)
        if n < 2:
            continue
        xy = np.array(positions)
        dist = np.hypot(*(xy[:, None, :] - xy[None, :, :]).transpose(2, 0, 1))
        hear = 1.0 - per_many(curve, dist, cfg.flow_rate)
        np.fill_diagonal(hear, 0.0)
        p = hear.sum(axis=1) / (n - 1)
        mean += p.sum()
        var += ((hear ** 2).sum(axis=1) / (n - 1) - p ** 2).sum()
    _, rx, _ = _reference_pass(cfg)
    assert var > 1000.0
    assert abs(rx - mean) <= 4.0 * math.sqrt(var), (rx, mean)


def _scalar_bsm_pass(cfg: ScenarioConfig):
    """The BSM pass replayed one probe at a time from the seed's BSM stream:
    (transmissions, expected receptions, probes) and the stream's final state."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.rng_seed).spawn(1)[0])
    table = per_table(cfg.channel(), cfg.flow_rate)
    tx = probes = 0
    rx = 0.0
    for positions in _in_stretch_positions(cfg):
        n = len(positions)
        tx += n
        if n < 2:
            continue
        probes += n
        for i, j in enumerate(rng.integers(0, n - 1, size=n).tolist()):
            xi, yi = positions[i]
            xj, yj = positions[j + (j >= i)]   # skip the sender
            d = abs(complex(xj - xi, yj - yi))
            rx += 1.0 - float(table.lookup(np.array([d]))[0])
    return (tx, rx, probes), rng.bit_generator.state


def test_bsm_pass_matches_a_scalar_replay_per_probe(monkeypatch):
    """Same transmissions and probes, the same expected receptions up to the
    order of summation, and the same number of draws from the BSM stream.
    With a warmup (3.1 s: between two ticks, before the last pair) the
    replay's first draw is at the first tick from warmup on, so the pass
    draws nothing at the ticks before it."""
    for warmup in (0, 3_100):
        cfg = short_cfg(flow_rate=0.5, bsm_period=250, sim_duration=30_000, warmup=warmup)
        ticks = list(_in_stretch_positions(cfg))
        sizes = [len(p) for p in ticks]
        assert 2 in sizes and max(sizes) > 2   # a pair, and ticks with a choice of receiver
        assert any(min(y for _, y in p) < 0 < max(y for _, y in p) for p in ticks if p)   # both directions
        (want_tx, want_rx, want_probes), want_state = _scalar_bsm_pass(cfg)

        sim = engine._Simulation(cfg)
        streams = []
        default_rng = np.random.default_rng
        with monkeypatch.context() as patch:
            patch.setattr(np.random, "default_rng",
                          lambda *a: streams.append(default_rng(*a)) or streams[-1])
            tx, rx, expected = bsm_counters(cfg, sim.curve, sim.by_direction)
        assert (tx, expected) == (want_tx, want_probes), warmup
        assert rx == pytest.approx(want_rx, rel=1e-9), warmup
        assert [g.bit_generator.state for g in streams] == [want_state], warmup


@pytest.mark.parametrize("flow", [10.0, 30.0])
def test_steady_state_bsm_per_matches_the_closed_form(flow):
    """The post-warmup Monte-Carlo BSM pass against ``analytic.bsm_per``, over 12 seeds.

    Past warmup the in-stretch vehicles are uniform along the road and over
    the lanes, so a probe's gap is that of two independent uniform vehicles.
    The bound is 4 sample standard errors: with 11 degrees of freedom a
    correct pass fails about 0.2 % of the time. Counting the fill-up ticks
    puts the mean 3-5e-3 under the model, dozens of standard errors.
    """
    base = dataclasses.replace(ScenarioConfig(), flow_rate=flow, sim_duration=200_000)
    pers = []
    for seed in range(12):
        _, rx, probes = _reference_pass(dataclasses.replace(base, rng_seed=seed))
        pers.append(1.0 - rx / probes)
    model = analytic.bsm_per(base, CAL)
    se = np.std(pers, ddof=1) / math.sqrt(len(pers))
    assert abs(np.mean(pers) - model) <= 4.0 * se, (np.mean(pers), model, se)


def test_bsm_sender_never_probes_itself(tmp_path):
    # Lossless only within 1 cm: no two vehicles are that close (same-direction
    # spawns are >= 1 ms apart, directions are lanes apart), so only a probe of
    # the sender itself could be received.
    curve_path = tmp_path / "touch.per"
    curve_path.write_text("density 10\n0 0\n0.01 1\n")
    _, rx, probes = _reference_pass(short_cfg(flow_rate=10.0, per_curve=str(curve_path),
                                              bsm_period=100))
    assert probes > 0
    assert rx == 0


def test_arrival_of_an_undelivered_kind_raises_before_any_draw():
    sim = engine._Simulation(short_cfg(flow_rate=2.0))
    state = sim.rng.bit_generator.state
    with pytest.raises(EngineError, match="unexpected arrival kind bsm"):
        sim._on_msg_arrival(0, (Message("bsm", sender=0), RSU_POSITION))
    assert sim.rng.bit_generator.state == state


def test_trace_file_records_transitions(tmp_path):
    path = tmp_path / "events.trace"
    cfg = short_cfg(flow_rate=2.0)
    run(cfg, trace_path=str(path))
    lines = path.read_text().splitlines()
    assert lines
    rows = [line.split("\t") for line in lines]
    assert all(len(r) == 5 for r in rows)
    times = [int(r[0]) for r in rows]
    assert times == sorted(times)
    assert any(r[1] == "rsu" and r[2] == "sam_tx" for r in rows)
    sum_rows = [r for r in rows if r[2] == "trigger_cross" and r[4] == "awaiting_ack"]
    assert sum_rows, "expected at least one trigger transition into awaiting_ack"


def test_stale_retry_timer_traced_once_without_change(tmp_path, lossless_curve_file):
    # Lossless and b_ack=1: each vehicle is ACKed within two radio legs of its
    # first SUM, so its armed retry timer fires stale after completion.
    path = tmp_path / "stale.trace"
    cfg = short_cfg(per_curve=lossless_curve_file, b_ack=1, d_t=1400.0)
    run(cfg, trace_path=str(path))
    rows = [line.split("\t") for line in path.read_text().splitlines()]
    first_sum = {r[1]: int(r[0]) for r in rows
                 if r[3] != "awaiting_ack" and r[4] == "awaiting_ack"}
    completed = {r[1] for r in rows if r[2] == "ack_rx" and r[4] == "complete"}
    checked = [v for v in completed if first_sum[v] + cfg.t_sum < cfg.sim_duration]
    assert checked
    for veh in checked:
        retries = [(r[3], r[4]) for r in rows if r[1] == veh and r[2] == "retry_timer"]
        assert retries == [("complete", "complete")]


def test_retry_cadence_visible_in_trace(tmp_path):
    # A heavily lossy channel forces retransmissions before completion.
    path = tmp_path / "cadence.trace"
    curve_path = tmp_path / "half.per"
    curve_path.write_text("density 10\n0 0.5\n10000 0.5\n")
    cfg = short_cfg(d_t=0.0, flow_rate=1.0, per_curve=str(curve_path),
                    sim_duration=80_000)
    run(cfg, trace_path=str(path))
    rows = [line.split("\t") for line in path.read_text().splitlines()]
    retries: dict[str, list[int]] = {}
    for r in rows:
        if r[2] == "retry_timer":
            retries.setdefault(r[1], []).append(int(r[0]))
    assert retries, "expected retries in a partially blocked channel"
    for times in retries.values():
        assert all(b - a == cfg.t_sum for a, b in zip(times, times[1:]))


# -- SUM reception PER memo ------------------------------------------------


def _dense_cfg() -> ScenarioConfig:
    """Far trigger at 30 veh/s with BSMs off: most vehicles resend their SUM."""
    return short_cfg(d_t=900.0, flow_rate=30.0, sim_duration=45_000, bsm_period=45_001)


def test_sum_per_memo_holds_per_at_each_transmit_position(monkeypatch):
    """Each entry is ``per`` at its distance to the RSU, bit for bit, and
    ``per`` runs once per distinct SUM transmit position."""
    calls = []
    orig = engine.chan.per
    monkeypatch.setattr(engine.chan, "per", lambda *a: calls.append(a) or orig(*a))
    cfg = _dense_cfg()
    sim = engine._Simulation(cfg)
    summary = sim.run()
    sums = sum(r.attempts for r in summary.records)
    assert 0 < len(sim.sum_per) == len(calls) < sums / 5
    (rx, ry), curve = RSU_POSITION, cfg.channel()
    for (tx, ty), value in sim.sum_per.items():
        dist = ((rx - tx) ** 2 + (ry - ty) ** 2) ** 0.5
        assert value.hex() == per(curve, dist, cfg.flow_rate).hex()


def test_sum_per_memo_stays_within_its_cap_with_the_same_outcome(monkeypatch):
    reference = run(_dense_cfg())
    cap = 3
    monkeypatch.setattr(engine, "_SUM_PER_CACHE_SIZE", cap)
    sizes = []
    orig = engine.chan.per
    sim = engine._Simulation(_dense_cfg())
    # At a miss the memo is about to take one more entry.
    monkeypatch.setattr(engine.chan, "per",
                        lambda *a: sizes.append(len(sim.sum_per) + 1) or orig(*a))
    assert sim.run() == reference
    assert len(sizes) > 10 * cap and max(sizes) == cap
    assert len(sim.sum_per) <= cap
