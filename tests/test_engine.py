"""Event core: ordering, delivery, determinism, degenerate channels."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import heapq
import math
import re
import tempfile
import time
from collections import Counter
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from v2isim import analytic, engine, metrics, protocol as proto
from v2isim.channel import (
    PerCurve, constant_per_curve, default_calibration, dumps_per_curve, parse_per_curve, per,
    per_many, sample_tau, uniform_stream,
)
from v2isim.cli import main
from v2isim.core import (
    RSU_POSITION, ConfigError, Message, MessageKind, ScenarioConfig, transit_ms,
)
from v2isim.engine import (
    BatchError, EngineError, Event, EventKind, EventQueue, deliver_broadcast, run,
    run_batch,
)
from v2isim.metrics import CompletionRecord, OUTCOME_COMPLETE, OUTCOME_DESPAWN, OUTCOME_SIMEND
from v2isim.mobility import (
    Arrivals, Direction, entry_x, generate_arrivals, position_at, trigger_offset_ms,
)
from v2isim.validation import bin_consistent


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


def _stream(seed: int):
    """The uniform stream of a fresh ``default_rng(seed)``."""
    return uniform_stream(np.random.default_rng(seed))


def test_deliver_all_when_lossless():
    curve = constant_per_curve(0.0)
    receivers = [(i, (float(i), 0.0)) for i in range(1, 50)]
    got = deliver_broadcast(0, receivers, ORIGIN, curve, 10.0, _stream(0))
    assert got == {i for i, _ in receivers}


def test_sender_excluded_even_at_distance_zero():
    curve = constant_per_curve(0.0)
    receivers = [(0, (0.0, 0.0)), (1, (0.0, 0.0))]
    got = deliver_broadcast(0, receivers, ORIGIN, curve, 10.0, _stream(0))
    assert got == {1}


def test_deliver_binomial_3sigma():
    curve = constant_per_curve(0.5)
    receivers = [(i, (10.0, 0.0)) for i in range(1, 1001)]
    got = deliver_broadcast(0, receivers, ORIGIN, curve, 10.0, _stream(99))
    sigma = math.sqrt(1000 * 0.25)
    assert abs(len(got) - 500) <= 3 * sigma


def test_deliver_draws_one_uniform_per_non_sender_candidate():
    receivers = [(i, (float(i), 0.0)) for i in range(16)]   # 0 is the sender
    uniforms = _stream(7)
    got = deliver_broadcast(0, receivers, ORIGIN, constant_per_curve(0.3), 10.0, uniforms)
    ref_rng = np.random.default_rng(7)
    ref = ref_rng.random(15) >= 0.3
    assert got == {i for i, ok in enumerate(ref, start=1) if ok}
    assert next(uniforms) == ref_rng.random()
    # Draws lie in [0, 1): PER 1 never receives.
    assert deliver_broadcast(0, receivers, ORIGIN, constant_per_curve(1.0), 10.0,
                             uniforms) == set()


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
    uniforms, ref_rng = _stream(seed), np.random.default_rng(seed)
    got = deliver_broadcast(sender, candidates, tx_position, CAL, density, uniforms)
    assert got == _scalar_deliver(sender, candidates, tx_position, CAL, density, ref_rng)
    assert next(uniforms) == ref_rng.random()


def test_every_broadcast_is_decided_by_channel_reception_mask(monkeypatch):
    """Each non-sender candidate of each ACK, and each candidate of each SAM,
    is one element of a ``channel.reception_mask`` call, looked up through the
    module: an ACK's inside ``deliver_broadcast``, a SAM's in the settlement
    pass before the loop."""
    masked, candidates = [], []
    mask, deliver = engine.chan.reception_mask, engine.deliver_broadcast

    def counted_mask(uniforms, pers):
        masked.append(len(pers))
        return mask(uniforms, pers)

    def counted_deliver(sender, receivers, *rest):
        candidates.append(sum(vid != sender for vid, _ in receivers))
        masked.append("ack")
        return deliver(sender, receivers, *rest)

    monkeypatch.setattr(engine.chan, "reception_mask", counted_mask)
    monkeypatch.setattr(engine, "deliver_broadcast", counted_deliver)
    cfg = short_cfg(flow_rate=10.0)
    run(cfg)
    # Every SAM is settled before the first ACK; each ACK then masks once.
    sams, acks = masked[:masked.index("ack")], masked[masked.index("ack"):]
    assert sams == [n for n in _reference_sam_heard(cfg)[1] if n]
    assert acks[::2] == ["ack"] * len(candidates) and acks[1::2] == candidates
    assert sum(candidates) > 0


# -- degenerate channels -------------------------------------------------


def test_lossless_single_vehicle(monkeypatch, lossless_curve_file):
    # One vehicle, whatever the seed: it hears the first SAM in the stretch,
    # its SUM fills a batch of one below b_ack, so the ACK waits t_ack; one
    # half-tau out and one back put the completion time in
    # [t_ack + 8, t_ack + tau_max].
    _inject_arrivals(monkeypatch, {Direction.EAST: [12_345]})
    cfg = dataclasses.replace(
        ScenarioConfig(), sim_duration=80_000, warmup=0, flow_rate=0.05,
        per_curve=lossless_curve_file, bsm_period=1000, rng_seed=1,
    )
    summary = run(cfg)
    assert len(summary.records) == 1
    record = summary.records[0]
    assert record.complete and record.attempts == 1
    assert record.sam_rx_time <= 13_100 and record.first_sum_tx_time == 12_345 + 50_000
    assert cfg.t_ack + 8 <= record.sct <= 200 + cfg.t_ack


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


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the process pool with an inline stand-in and return the pool sizes.

    The stand-in records its size, runs each submit at once into its future
    and starts no process; ``run_batch`` imports the pool class only when it
    makes a pool, so the stand-in replaces it in ``concurrent.futures``.
    """
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
            try:
                future.set_result(fn(*args))
            except Exception as exc:  # noqa: BLE001 - the future carries it
                future.set_exception(exc)
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return sizes


def _cpus(monkeypatch, n):
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def test_run_batch_pool_is_no_larger_than_the_batch(monkeypatch, inline_pool):
    """Under fork a pool starts every worker at its first submit, so the pool
    is sized by the batch and by the CPUs available."""
    cfgs = [short_cfg(sim_duration=5_000, rng_seed=80 + i) for i in range(3)]
    _cpus(monkeypatch, 8)
    serial = run_batch(cfgs, parallelism=1)
    assert run_batch(cfgs, parallelism=5000) == serial
    run_batch(cfgs[:2], parallelism=2)
    assert inline_pool == [3, 2]
    _cpus(monkeypatch, 2)   # fewer CPUs than cells or workers asked for
    assert run_batch(cfgs, parallelism=5000) == serial
    _cpus(monkeypatch, 1)   # one CPU: the serial path, no pool
    assert run_batch(cfgs, parallelism=5000) == serial
    assert inline_pool == [3, 2, 2]


def test_run_batch_runs_serially_when_no_pool_can_start(monkeypatch):
    cfgs = [short_cfg(sim_duration=5_000, rng_seed=80 + i) for i in range(3)]
    serial = run_batch(cfgs, parallelism=1)

    def no_pool(max_workers):
        raise OSError("no process pool here")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    _cpus(monkeypatch, 8)
    assert run_batch(cfgs, parallelism=3) == serial


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


@pytest.mark.parametrize("parallelism", [1, 3], ids=["serial", "pool"])
def test_run_batch_reports_failures_per_index_without_aborting(
        monkeypatch, inline_pool, parallelism):
    good = short_cfg()
    bad = dataclasses.replace(good, b_ack=0)
    _cpus(monkeypatch, 8)
    with pytest.raises(BatchError) as exc_info:
        run_batch([good, bad, good], parallelism=parallelism)
    err = exc_info.value
    assert set(err.failures) == {1} and "b_ack" in err.failures[1]
    assert err.results[0] is not None and err.results[2] is not None
    assert err.results[0] == err.results[2]
    assert err.results[1] is None
    assert inline_pool == ([3] if parallelism > 1 else [])


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


def test_a_sum_count_that_differs_from_attempts_raises_naming_the_vehicle(monkeypatch):
    """The engine counts each vehicle's SUMs; a retry that sends one without
    counting it as an attempt breaks the count at the vehicle's record."""
    retry = proto.obu_on_retry_timer

    def retry_without_counting(state, now):
        new, out = retry(state, now)
        return (new._replace(attempts=state.attempts) if out.transmissions else new), out

    monkeypatch.setattr(proto, "obu_on_retry_timer", retry_without_counting)
    cfg = short_cfg(d_t=1400.0, flow_rate=10.0, sim_duration=30_000, warmup=0)
    sim = engine._Simulation(cfg)
    with pytest.raises(EngineError) as raised:
        sim.run()
    got = re.fullmatch(r"vehicle (\d+): (\d+) request transmissions but 1 attempts recorded",
                       str(raised.value))
    assert got is not None, raised.value
    vid, sent = map(int, got.groups())
    # The vehicle is one the engine holds, and every SUM after its first went uncounted.
    kinematics, state, counted = sim.vehicles[vid]
    assert (state.attempts, counted) == (1, sent) and sent > 1


def test_attempts_match_request_transmissions_under_loss():
    # The engine traps any attempts/transmission mismatch internally, so a
    # lossy run completing without EngineError is itself the conservation
    # check; records must still show retries happening.
    summary = run(short_cfg(d_t=250.0, flow_rate=10.0, sim_duration=90_000))
    assert any(r.attempts > 1 for r in summary.records)


def _sums_sent_and_queued(cfg: ScenarioConfig):
    """Run ``cfg``; return its summary, the SUMs each vehicle sent and the
    SUM arrivals queued."""
    sim = engine._Simulation(cfg)
    sent: Counter = Counter()
    queued = []
    apply_output, push = sim._apply_output, sim.queue.push

    def counted_output(now, out, pos):
        sent.update(m.sender for m in out.transmissions if m.kind is MessageKind.SUM)
        apply_output(now, out, pos)

    def counted_push(time, kind, payload=None, seq=None):
        if kind is EventKind.MSG_ARRIVAL and payload[0].kind is MessageKind.SUM:
            queued.append(payload)
        push(time, kind, payload, seq)

    sim._apply_output, sim.queue.push = counted_output, counted_push
    return sim.run(), sent, queued


def test_a_lost_sum_queues_no_arrival(tmp_path):
    """A SUM's reception is settled when it is sent: where PER is 1 none is
    queued, and every vehicle's attempts are the SUMs it sent. (Under PER 1
    everywhere no SAM is heard, so no SUM is sent: SAMs are heard within
    900 m here, and every SUM leaves 1,200 m past the RSU or further.)"""
    curve_path = tmp_path / "step.per"
    curve_path.write_text("density 10\n0 0\n900 0\n901 1\n")
    summary, sent, queued = _sums_sent_and_queued(
        short_cfg(d_t=-1200.0, flow_rate=10.0, sim_duration=120_000, per_curve=str(curve_path)))
    assert queued == [] and sum(sent.values()) > 100
    assert summary.records and not any(r.complete for r in summary.records)
    assert {r.vehicle_id: r.attempts for r in summary.records} == dict(sent)


def test_heard_sums_are_binomial_in_the_sums_sent(tmp_path):
    """Under a constant PER of 0.3 each SUM sent is heard with 0.7."""
    curve_path = tmp_path / "const.per"
    curve_path.write_text(dumps_per_curve(constant_per_curve(0.3)))
    _, sent, queued = _sums_sent_and_queued(
        short_cfg(d_t=900.0, flow_rate=20.0, per_curve=str(curve_path)))
    trials = sum(sent.values())
    assert trials > 1000
    assert bin_consistent(len(queued), trials, 0.7, 1e-3)


def test_vehicle_state_lives_from_trigger_to_despawn(tmp_path):
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
    offset = trigger_offset_ms(cfg)
    triggered = {vid for vid, t in spawns.items() if t + offset < cfg.sim_duration <= exits[vid]}
    assert triggered and set(sim.vehicles) == triggered
    assert {vid for vid, (_, _, sent) in sim.vehicles.items() if sent} == {
        r.vehicle_id for r in summary.records if r.outcome == OUTCOME_SIMEND}


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
    vids = [arrivals.id_start + i for _, _, _, (arrivals, i) in triggers]
    assert set(vids) == {
        vid for vid, v in vehicles.items() if v.spawn_time + offset < cfg.sim_duration}
    directions = Counter()
    for (t, _, _, _), vid in zip(triggers, vids):
        v = vehicles[vid]
        directions[v.direction] += 1
        assert t == v.spawn_time + offset
        # Signed distance to the RSU at the origin, less d_t, to 1e-9 m.
        to_go = [-position_at(v, at)[0] * v.direction.sign - d_t for at in (t, t - 1)]
        assert to_go[0] <= 1e-9 < to_go[1], (vid, to_go)
    assert set(directions) == set(Direction)


# -- one pending trigger per direction -------------------------------------


class _EagerTriggers(engine._Simulation):
    """The eager schedule: every arrival's trigger is pushed at init under seq
    1 + its id (after SIM_END), and a trigger pushes no next one."""

    def _push_trigger(self, arrivals, i):
        if i == 0:
            for j, t in enumerate(arrivals.spawn_times):
                self.queue.push(t + self.trigger_after, EventKind.TRIGGER_CROSS, (arrivals, j),
                                seq=1 + arrivals.id_start + j)


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
    spawns 1 ms apart at the higher flows, and a warmup. Every run outlasts
    the longest trigger offset here, 7.5 s."""
    unit = draw(st.sampled_from([50, 100]))
    tau = draw(st.sampled_from([8, 100, 200]))
    road = draw(st.sampled_from([300.0, 600.0]))
    duration = draw(st.integers(8_000, 16_000))
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
def test_one_pending_trigger_per_direction_keeps_the_eager_order_and_bytes(cfg):
    """Each trigger keeps its seq, so each event keeps its (time, seq) key, and
    the minimum of the lazy heap is the minimum of the eager one: it is either
    a non-trigger event or the earliest unfired trigger of its direction."""
    lazy, eager = engine._Simulation(cfg), _EagerTriggers(cfg)
    arrivals = sum(map(len, lazy.by_direction.values()))
    assert lazy.queue._next_seq == eager.queue._next_seq == 1 + arrivals
    got, want = _run_recording(lazy), _run_recording(eager)
    assert got[0] == want[0]   # the popped keys, in order
    assert got[1:] == want[1:]   # records.csv and summary.csv bytes
    offset = trigger_offset_ms(cfg)
    assert sum(kind is EventKind.TRIGGER_CROSS for _, _, kind in got[0]) == sum(
        t + offset < cfg.sim_duration for a in lazy.by_direction.values() for t in a.spawn_times)


def test_at_most_one_trigger_per_direction_is_pending():
    cfg = short_cfg(flow_rate=20.0, sim_duration=20_000, d_t=1400.0)
    sim = engine._Simulation(cfg)
    east = len(sim.by_direction[Direction.EAST])
    assert east and len(sim.by_direction[Direction.WEST])
    pending_counts = []

    def check(sim):
        # Trigger seqs run 1.. in id order, east before west.
        pending = Counter(e.seq < 1 + east for e in sim.queue._heap
                          if e.kind is EventKind.TRIGGER_CROSS)
        pending_counts.append(max(pending.values(), default=0))

    check(sim)
    keys, _, _ = _run_recording(sim, after_pop=check)
    assert max(pending_counts) == 1 and len(pending_counts) == len(keys) + 1
    assert sum(kind is EventKind.TRIGGER_CROSS for _, _, kind in keys) > 100


def test_no_spawn_or_sam_timer_event_is_scheduled():
    """A vehicle enters the event loop at its trigger, and every SAM is sent
    and settled before the loop: neither kind is ever pushed."""
    sim = engine._Simulation(short_cfg(flow_rate=10.0))
    kinds = Counter()
    push = sim.queue.push

    def counted_push(time, kind, payload=None, seq=None):
        kinds[kind] += 1
        push(time, kind, payload, seq)

    sim.queue.push = counted_push
    sim.run()
    assert kinds[EventKind.TRIGGER_CROSS] > 0 and kinds[EventKind.MSG_ARRIVAL] > 0
    assert not {EventKind.VEHICLE_SPAWN, EventKind.SAM_TIMER, EventKind.BSM_TICK} & set(kinds)


# -- SAM settlement --------------------------------------------------------


def _reference_sam_heard(cfg: ScenarioConfig):
    """Each vehicle's first heard SAM, by scalar draws, with per-SAM candidate counts.

    The run's generator draws the arrivals, then each SAM, in send order,
    takes its tau (none when fixed) and one uniform per candidate: a vehicle
    that has heard no SAM and is in the stretch at the arrival a
    (``spawn <= a < spawn + transit``), in id order, heard when the uniform is
    >= ``per`` at its distance from the RSU. Send order is arrival order
    while ``sam_period`` is at least the legs' spread.
    """
    rng = np.random.default_rng(cfg.rng_seed)
    east = generate_arrivals(cfg, Direction.EAST, rng)
    vehicles = [*east, *generate_arrivals(cfg, Direction.WEST, rng, id_start=len(east))]
    uniforms, curve = uniform_stream(rng), cfg.channel()
    transit = transit_ms(cfg.road_length, cfg.mean_speed)
    heard: list = [None] * len(vehicles)
    candidates = []
    for sent in range(0, cfg.sim_duration, cfg.sam_period):
        tau = cfg.tau_low if cfg.tau_low == cfg.tau_high else sample_tau(
            uniforms, (cfg.tau_low, cfg.tau_high))
        at = sent + (tau + 1) // 2
        if at >= cfg.sim_duration:
            continue
        waiting = [v for v in vehicles if heard[v.vehicle_id] is None
                   and v.spawn_time <= at < v.spawn_time + transit]
        for v in waiting:
            x, y = position_at(v, at)
            if next(uniforms) >= per(curve, math.sqrt(x * x + y * y), cfg.flow_rate):
                heard[v.vehicle_id] = at
        candidates.append(len(waiting))
    return heard, candidates


@pytest.mark.parametrize("overrides", [
    {},
    {"d_t": 1400.0, "sam_period": 5000, "flow_rate": 20.0},   # starved: most start deferred
    {"tau_low": 104, "tau_high": 104, "lane_count": 2, "road_length": 1000.0},
    {"flow_rate": 15.0, "sim_duration": 150_000},   # past one transit: blended PER
], ids=["defaults", "starved-sam", "fixed-tau-one-lane-1km", "blend-past-a-transit"])
def test_sam_settlement_matches_a_scalar_draw_per_candidate(monkeypatch, overrides):
    """The settlement pass gives each vehicle the SAM that a scalar replay of
    its rule does, and tests exactly its candidates: the per-SAM reception_mask
    lengths are the waiting vehicles in the stretch, not every vehicle."""
    cfg = short_cfg(**overrides)
    sim = engine._Simulation(cfg)
    masked = []
    mask = engine.chan.reception_mask

    def counted_mask(uniforms, pers):
        masked.append(len(pers))
        return mask(uniforms, pers)

    monkeypatch.setattr(engine.chan, "reception_mask", counted_mask)
    sim._settle_sams()
    heard, candidates = _reference_sam_heard(cfg)
    assert sim.sam_heard == heard
    assert sum(h is not None for h in heard) > 20
    assert [n for n in masked if n] == [n for n in candidates if n]


def test_sam_settlement_heard_share_is_binomial_under_a_constant_per(monkeypatch, tmp_path):
    """Under a constant PER of 0.4 each SAM candidate hears it with 0.6."""
    curve_path = tmp_path / "const.per"
    curve_path.write_text(dumps_per_curve(constant_per_curve(0.4)))
    sim = engine._Simulation(short_cfg(flow_rate=20.0, sim_duration=200_000,
                                       per_curve=str(curve_path)))
    trials, heard = [], []
    mask = engine.chan.reception_mask

    def counted_mask(uniforms, pers):
        got = mask(uniforms, pers)
        trials.append(len(pers))
        heard.append(int(got.sum()))
        return got

    monkeypatch.setattr(engine.chan, "reception_mask", counted_mask)
    sim._settle_sams()
    assert sum(trials) > 2000
    assert bin_consistent(sum(heard), sum(trials), 0.6, 1e-3)
    assert sum(h is not None for h in sim.sam_heard) == sum(heard)


def test_sams_arriving_out_of_send_order_are_settled_in_arrival_order(monkeypatch,
                                                                     lossless_curve_file):
    """With SAMs 50 ms apart and tau up to 200 ms a later SAM can land first.
    Lossless, every vehicle hears the first SAM to arrive while it is in the
    stretch: the least arrival in its window, whichever SAM was sent first."""
    cfg = short_cfg(sam_period=50, per_curve=lossless_curve_file, flow_rate=10.0,
                    road_length=150.0, d_t=0.0, sim_duration=20_000)
    sim = engine._Simulation(cfg)
    taus = []
    sample = engine.chan.sample_tau
    monkeypatch.setattr(engine.chan, "sample_tau",
                        lambda *args: taus.append(sample(*args)) or taus[-1])
    sim._settle_sams()
    arrivals = [k * cfg.sam_period + (tau + 1) // 2 for k, tau in enumerate(taus)]
    assert len(arrivals) == cfg.sim_duration // cfg.sam_period
    assert any(b < a for a, b in zip(arrivals, arrivals[1:]))
    transit = transit_ms(cfg.road_length, cfg.mean_speed)
    for arrivals_of in sim.by_direction.values():
        for v in arrivals_of:
            window = [a for a in arrivals if v.spawn_time <= a < v.spawn_time + transit
                      and a < cfg.sim_duration]
            assert sim.sam_heard[v.vehicle_id] == min(window, default=None)


def _inject_arrivals(monkeypatch, spawns: dict[Direction, list[int]]) -> None:
    """Make the engine's arrivals these spawn times, on lane 0 of each direction."""
    def fixed(cfg, direction, rng, id_start=0):
        times = np.array(spawns.get(direction, []), dtype=np.int64)
        ys = np.full(len(times), direction.sign * 0.5 * cfg.lane_width)
        return Arrivals(direction, id_start, entry_x(direction, cfg.road_length),
                        cfg.mean_speed, times.tobytes(), ys.tobytes())
    monkeypatch.setattr(engine.mob, "generate_arrivals", fixed)


def test_sam_settlement_tie_rules(monkeypatch, lossless_curve_file):
    """A 30 m stretch crossed in 1,000 ms, a SAM every 5 s landing at
    a = 5,004 ms (fixed tau 8: one 4 ms leg), and the trigger 500 ms after
    spawn. A spawn at a hears that SAM and a despawn at a does not; a vehicle
    whose trigger falls at a stores the SAM first and sends at once
    (sam_rx = first_sum); one that triggers before a starts deferred and
    sends when the SAM arrives."""
    a = 5_004
    spawns = {Direction.EAST: [a - 1_000, a - 999, a - 500, a, a + 1],
              Direction.WEST: [a - 500, a]}
    _inject_arrivals(monkeypatch, spawns)
    cfg = short_cfg(road_length=30.0, d_t=0.0, sam_period=5_000, tau_low=8, tau_high=8,
                    per_curve=lossless_curve_file, sim_duration=20_000)
    assert trigger_offset_ms(cfg) == 500 and transit_ms(cfg.road_length, cfg.mean_speed) == 1_000
    sim = engine._Simulation(cfg)
    summary = sim.run()
    #           despawn at a, in stretch at a,  trigger at a, spawn at a, spawn after a
    assert sim.sam_heard == [None, a, a, a, None, a, a]
    rows = {r.vehicle_id: (r.sam_rx_time, r.first_sum_tx_time) for r in summary.records}
    assert rows == {1: (a, a), 2: (a, a), 3: (a, a + 500), 5: (a, a), 6: (a, a + 500)}
    # Vehicle 1 leaves 1 ms after its first SUM, before any ACK can reach it.
    assert {r.vehicle_id for r in summary.records if not r.complete} == {1}
    assert all(r.attempts == 1 for r in summary.records)


def test_completion_fraction_regression():
    # Frozen after calibrating the shipped PER table (observed 0.9973).
    cfg = dataclasses.replace(ScenarioConfig(), sim_duration=200_000, warmup=0,
                              flow_rate=10.0, d_t=0.0, rng_seed=7)
    summary = run(cfg)
    complete = sum(1 for r in summary.records if r.complete)
    assert complete / len(summary.records) > 0.99


def test_bsm_counts_consistent():
    summary = run(short_cfg(flow_rate=10.0))
    assert summary.bsm_tx_count > 0
    assert 0 < summary.bsm_expected_rx_count <= summary.bsm_tx_count
    assert 0.0 <= summary.bsm_per <= 1.0


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


def _all_pairs_per(cfg: ScenarioConfig, curve: PerCurve) -> float:
    """The BSM PER expected of the run's probes, over the positions of
    ``_in_stretch_positions`` at the ticks from warmup on.

    Sender i probes one other in-stretch vehicle, drawn uniformly, so its
    probe misses with probability mean_{j != i} per(d_ij); averaging out that
    one random choice leaves, over the n_t senders of each tick,
    sum_t sum_{i != j} per(d_ij) / (n_t - 1) over sum_t n_t.
    """
    per_sum = probes = 0.0
    for positions in _in_stretch_positions(cfg):
        n = len(positions)
        if n < 2:
            continue
        x, y = np.array(positions).T
        z = x + 1j * y
        # Each pair i < j once: per(d_ij) counts for both of its orders.
        gaps = np.abs(np.concatenate([z[i + 1:] - z[i] for i in range(n - 1)]))
        per_sum += 2.0 * per_many(curve, gaps, cfg.flow_rate).sum() / (n - 1)
        probes += n
    return per_sum / probes


@pytest.mark.parametrize("flow, overrides", [
    (10.0, {"bsm_period": 25_000}),                           # the defaults: 3 km, 16 lanes
    (30.0, {"bsm_period": 10_000, "road_length": 1000.0}),
    (15.0, {"bsm_period": 10_000, "road_length": 1000.0,      # blends two levels
            "lane_count": 4}),
], ids=["10.0", "30.0", "15.0-4-lanes-1km"])
def test_steady_state_bsm_per_matches_the_closed_form(flow, overrides):
    """``analytic.bsm_per`` against ``_all_pairs_per`` at 4 ticks from one
    transit on, at 12 seeds.

    From one transit on the in-stretch vehicles are uniform along the road
    and over the lanes, so a probe's gap is that of two independent uniform
    vehicles. The bound is 4 sample standard errors: with 11 degrees of
    freedom a correct model fails about 0.2 % of the time. The control's
    ticks fall in the stretch's fill-up (warmup 0, before one transit),
    where the vehicles are not yet uniform: it must miss by more than 10
    standard errors, or the check could not tell the two apart.
    """
    base = dataclasses.replace(ScenarioConfig(), flow_rate=flow, **overrides)
    transit = transit_ms(base.road_length, base.mean_speed)
    model = analytic.bsm_per(base, CAL)

    def z_score(**window):
        pers = [_all_pairs_per(dataclasses.replace(base, rng_seed=seed, **window), CAL)
                for seed in range(12)]
        se = np.std(pers, ddof=1) / math.sqrt(len(pers))
        return (np.mean(pers) - model) / se, se

    steady = z_score(warmup=transit, sim_duration=transit + 4 * base.bsm_period)
    fill_up = z_score(warmup=0, sim_duration=transit)
    assert abs(steady[0]) <= 4.0, steady
    assert abs(fill_up[0]) > 10.0, fill_up


def test_bsm_sender_never_probes_itself():
    """Lossless only within 1 cm: no two vehicles are that close (same-direction
    spawns are >= 1 ms apart, directions are lanes apart), so a self pair is the
    only one that could be heard."""
    cfg = short_cfg(flow_rate=10.0, bsm_period=5_000)
    assert _all_pairs_per(cfg, parse_per_curve("density 10\n0 0\n0.01 1\n")) == 1.0


def test_bsm_reception_rate_matches_constant_per(tmp_path):
    # Every probe misses with 0.3 whatever its distance: the expected PER and
    # the reported one are that constant exactly.
    per_value = 0.3
    curve_path = tmp_path / "const.per"
    curve_path.write_text(dumps_per_curve(constant_per_curve(per_value)))
    cfg = short_cfg(flow_rate=10.0, per_curve=str(curve_path), bsm_period=5_000)
    assert _all_pairs_per(cfg, constant_per_curve(per_value)) == pytest.approx(per_value,
                                                                               rel=1e-12)
    assert run(cfg).bsm_per == pytest.approx(per_value, rel=1e-12)


def test_arrival_of_an_undelivered_kind_raises_before_any_draw():
    sim, twin = (engine._Simulation(short_cfg(flow_rate=2.0)) for _ in range(2))
    with pytest.raises(EngineError, match="unexpected arrival kind bsm"):
        sim._on_msg_arrival(0, (Message("bsm", sender=0), RSU_POSITION))
    assert next(sim.uniforms) == next(twin.uniforms)


def test_an_event_kind_without_a_handler_raises_naming_it():
    """``BSM_TICK`` is never scheduled, so it has no handler."""
    sim = engine._Simulation(short_cfg(flow_rate=2.0))
    sim.queue.push(0, EventKind.BSM_TICK)
    with pytest.raises(EngineError, match="unhandled event kind bsm_tick"):
        sim.run()


def test_trace_file_records_transitions(tmp_path):
    """Lines are written in time order but for the settled ones, each stamped
    with its own time: every SAM's ``sam_tx`` line comes first, and a SAM
    heard before the trigger is the line just before that trigger's."""
    path = tmp_path / "events.trace"
    cfg = short_cfg(flow_rate=2.0)
    run(cfg, trace_path=str(path))
    lines = path.read_text().splitlines()
    assert lines
    rows = [line.split("\t") for line in lines]
    assert all(len(r) == 5 for r in rows)
    sent = [r for r in rows if r[2] == "sam_tx"]
    assert rows[:len(sent)] == sent
    assert [int(r[0]) for r in sent] == list(range(0, cfg.sim_duration, cfg.sam_period))
    rest = rows[len(sent):]
    early = [i for i, r in enumerate(rest) if r[2] == "sam_rx" and i + 1 < len(rest)
             and rest[i + 1][1:3] == [r[1], "trigger_cross"]]
    assert early and all(int(rest[i][0]) <= int(rest[i + 1][0]) for i in early)
    times = [int(r[0]) for i, r in enumerate(rest) if i not in early]
    assert times == sorted(times)
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
