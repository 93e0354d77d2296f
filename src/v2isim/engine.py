"""Deterministic discrete-event core: queue, clock, delivery, orchestration.

Every run is a pure function of (config, seed): events are totally ordered by
(time, sequence number) and the clock never moves backward. Randomness
comes from one stream, ``default_rng(seed)``: arrivals, then the protocol in
event order. BSMs draw nothing, so no BSM setting moves a protocol outcome.

Besides its records, a run holds the vehicles between spawn and despawn and
16 B per arrival. The arrivals are drawn at init into two arrays per
direction (``mob.Arrivals``: spawn times and lateral offsets), and one
``VEHICLE_SPAWN`` per direction is pending: a spawn builds its vehicle's
``VehicleKinematics`` and queues its ``TRIGGER_CROSS`` at spawn plus
``mob.trigger_offset_ms(cfg)`` (one offset for every vehicle, derived at
init), its despawn and its direction's next spawn. Every spawn keeps the seq
that pushing all of them at init would give it (``EventQueue.reserve``):
east 2..E+1, west E+2..N+1, and every other event numbers from N+2. So the
pop order is the eager schedule's:

1. every event keeps its ``(time, seq)`` key;
2. a direction's spawn keys rise with its arrival index, so its earliest
   unfired spawn has the least key of that direction's spawns;
3. the least key of the eager heap is a non-spawn event's or such a spawn's,
   and both are in the smaller heap.

Events are named tuples ``(time, seq, kind, payload)`` on a ``heapq`` heap,
so the heap orders them with C tuple comparison. ``seq`` is unique, so a
comparison is settled by ``(time, seq)`` and never reaches ``kind`` or
``payload``. The main loop looks every kind up in one dict of handlers
(``EventKind`` hashes by identity in C, not with ``Enum``'s Python hash);
``SIM_END``'s handler ends it. Hot code binds Enum members to module names,
since on Python 3.11 a lookup on the class costs about 0.2 us. A message
arrival's payload is ``(message, transmit position)``; the RSU transmits
from ``RSU_POSITION``, the origin. A vehicle's state lives from spawn to
despawn, so a retry timer that fires later is ignored. At despawn, or at
``SIM_END`` for a vehicle still in the stretch, a vehicle that sent a
request appends its record to the run's ``metrics.RecordTable``, which the
summary holds as it is. After a transition the engine queues its
transmissions, then arms a ``RETRY_TIMER``, ``ACK_TIMER`` or ``SAM_TIMER``
for each deadline the transition moved to a new value that is not None.

Transmission latency: each radio leg takes ceil(tau/2) ms, tau drawn from
``tau_low..tau_high`` per transmission, so an unbatched request/ACK round
trip spans a single tau. Reception is sampled per candidate receiver at its
Euclidean distance from the transmit position, receiver position taken at
arrival time. Senders never receive their own transmissions. A SUM has one
candidate, the RSU: one ``rng.random()``, taken from the bit generator's C
``next_double`` bound once per run, against ``channel.per``, a one-element
``per_many`` returned as a float. The vehicles of a direction share a spawn
point, a speed and a retry period, so SUMs leave from few distinct points:
each run memoizes that PER by transmit position (``per`` runs once per new
position, bit for bit the same value). An ACK or SAM draws ``rng.random(k)``
against one ``channel.per_many`` over its k candidates: the same k uniforms
as k scalar draws, and the same PER as k one-element ``per`` calls.

Background safety broadcasts (BSMs) only feed the reception-rate metric and
have no protocol effect, so they are not events. After the event loop
``bsm_counts`` counts, for every BSM tick from ``warmup`` on, the in-stretch
vehicles: each transmits once and, unless it is alone, probes one other. Those
two counts are exact for each run. ``bsm_per`` is the steady-state closed form
``analytic.bsm_per(cfg, curve)`` whenever there is a probe, for any warmup, and None
otherwise: no PER is looked up per probe and no BSM stream is drawn.
"""

from __future__ import annotations

import heapq
import os
from enum import Enum
from typing import Any, Callable, NamedTuple, Sequence

import numpy as np

from . import analytic
from . import channel as chan
from . import mobility as mob
from . import protocol as proto
from .core import (
    Message, MessageKind, RSU_ID, RSU_POSITION, ScenarioConfig, TimeMs,
    raise_violations, validate_config,
)
from .metrics import (
    OUTCOME_COMPLETE, OUTCOME_DESPAWN, OUTCOME_SIMEND, RecordTable, RunSummary,
)


class EngineError(RuntimeError):
    """Internal ordering violation; indicates a simulator bug."""


class EventKind(Enum):
    __hash__ = object.__hash__   # members are singletons: hash by identity, in C
    VEHICLE_SPAWN = "vehicle_spawn"
    TRIGGER_CROSS = "trigger_cross"
    RETRY_TIMER = "retry_timer"
    ACK_TIMER = "ack_timer"
    SAM_TIMER = "sam_timer"
    MSG_ARRIVAL = "msg_arrival"
    VEHICLE_DESPAWN = "vehicle_despawn"
    # Never scheduled (bsm_counts runs after the loop); kept so per-kind
    # event counts keep their names.
    BSM_TICK = "bsm_tick"
    SIM_END = "sim_end"


class Event(NamedTuple):
    time: TimeMs
    seq: int
    kind: EventKind
    payload: Any = None


class EventQueue:
    """Min-heap of events, popped in strict (time, seq) order."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._next_seq = 0
        self._clock: TimeMs = 0

    def push(self, time: TimeMs, kind: EventKind, payload: Any = None,
             seq: int | None = None) -> None:
        """Queue an event under the next seq, or under ``seq`` from ``reserve``."""
        if time < self._clock:
            raise EngineError(
                f"attempt to schedule {kind.value} at {time} ms behind the "
                f"clock ({self._clock} ms)"
            )
        if seq is None:
            seq = self._next_seq
            self._next_seq += 1
        # tuple.__new__ skips the named tuple's Python-level constructor.
        heapq.heappush(self._heap, tuple.__new__(Event, (time, seq, kind, payload)))

    def reserve(self, count: int) -> int:
        """Set aside the next ``count`` seqs for later pushes; returns the first."""
        first = self._next_seq
        self._next_seq += count
        return first

    def pop(self) -> Event:
        event = heapq.heappop(self._heap)
        if event.time < self._clock:
            raise EngineError(
                f"event {event.kind.value} at {event.time} ms popped behind "
                f"the clock ({self._clock} ms)"
            )
        self._clock = event.time
        return event


def deliver_broadcast(sender: int,
                      receivers: Sequence[tuple[int, tuple[float, float]]],
                      tx_position: tuple[float, float],
                      curve: chan.PerCurve, density: float,
                      rng: np.random.Generator) -> set[int]:
    """Sample which candidate receivers pick up one broadcast transmission.

    Each candidate but the sender (excluded even at distance zero) takes one
    uniform draw and receives when it is >= the PER at its Euclidean distance.
    One ``rng.random(k)`` and one ``per_many`` serve the k candidates, in list
    order, bit for bit as k scalar draws and ``per`` calls would.
    """
    tx, ty = tx_position
    ids, dists = [], []
    for entity_id, (rx, ry) in receivers:
        if entity_id != sender:
            ids.append(entity_id)
            dists.append(((rx - tx) ** 2 + (ry - ty) ** 2) ** 0.5)
    heard = rng.random(len(ids)) >= chan.per_many(curve, dists, density)
    return {entity_id for entity_id, ok in zip(ids, heard.tolist()) if ok}


def bsm_counts(cfg: ScenarioConfig,
               by_direction: dict[mob.Direction, mob.Arrivals]) -> tuple[int, int]:
    """BSM transmissions and probes over one run.

    Ticks fall at every positive multiple of ``bsm_period`` at or after
    ``warmup`` and before ``sim_duration``, so, like the record aggregates,
    the counts leave out the stretch's fill-up. At a tick each in-stretch
    vehicle transmits once and, unless it is alone, probes one other. Each
    tick's in-stretch count comes from each direction's spawn times
    (``mob.Arrivals``) as an index window; no position is computed.
    """
    first = max(1, -(-cfg.warmup // cfg.bsm_period)) * cfg.bsm_period   # exact integer ceil
    if first >= cfg.sim_duration:
        return 0, 0
    ticks = np.arange(first, cfg.sim_duration, cfg.bsm_period, dtype=np.int64)
    transit = mob.transit_ms(cfg.road_length, cfg.mean_speed)
    counts = np.zeros(len(ticks), dtype=np.int64)
    for arrivals in by_direction.values():
        lo, hi = mob.stretch_window(np.array(arrivals.spawn_times, dtype=np.int64), ticks, transit)
        counts += hi - lo
    return int(counts.sum()), int(counts[counts >= 2].sum())


TraceFn = Callable[[TimeMs, str, str, str, str], None]

_SUM, _IDLE = MessageKind.SUM, proto.ObuPhase.IDLE
_MSG_ARRIVAL, _RETRY_TIMER = EventKind.MSG_ARRIVAL, EventKind.RETRY_TIMER
# Entries of a run's SUM reception PER memo, which is cleared when full.
_SUM_PER_CACHE_SIZE = 4096


class _Simulation:
    def __init__(self, cfg: ScenarioConfig, trace: TraceFn | None = None):
        raise_violations(validate_config(cfg))
        self.cfg = cfg
        self.trace = trace
        self.rng = np.random.default_rng(cfg.rng_seed)
        # No Generator lock: a run owns its generator in one thread (run_batch uses processes).
        iface = self.rng.bit_generator.ctypes
        self.next_double, self.rng_state = iface.next_double, iface.state
        self.curve = cfg.channel()
        self.tau_range = (cfg.tau_low, cfg.tau_high)
        self.density = cfg.flow_rate
        self.transit = mob.transit_ms(cfg.road_length, cfg.mean_speed)
        self.sum_per: dict[tuple[float, float], float] = {}
        self.queue = EventQueue()

        # Vehicles between spawn and despawn: every position lookup is for one.
        self.active: dict[int, mob.VehicleKinematics] = {}
        self.awaiting_sam: dict[int, None] = {}
        self.obu: dict[int, proto.ObuState] = {}
        self.sum_tx_count: dict[int, int] = {}
        self.rsu = proto.RsuState(
            b_ack=cfg.b_ack, t_ack=cfg.t_ack, sam_period=cfg.sam_period,
        )
        self.records = RecordTable()

        # Arrivals are generated up front as arrays; the BSM counts read them after the run.
        east = mob.generate_arrivals(cfg, mob.Direction.EAST, self.rng, id_start=0)
        west = mob.generate_arrivals(cfg, mob.Direction.WEST, self.rng, id_start=len(east))
        self.by_direction = {mob.Direction.EAST: east, mob.Direction.WEST: west}
        self.trigger_after = mob.trigger_offset_ms(cfg)

        self.queue.push(self.rsu.next_sam_time, EventKind.SAM_TIMER)
        self.queue.push(cfg.sim_duration, EventKind.SIM_END)
        # Vehicle v spawns under seq spawn_seq + v's id; other events number after all of them.
        self.spawn_seq = self.queue.reserve(len(east) + len(west))
        for arrivals in (east, west):
            self._push_spawn(arrivals, 0)

    # -- helpers ---------------------------------------------------------

    def _push_spawn(self, arrivals: mob.Arrivals, i: int) -> None:
        """Queue the direction's i-th arrival, if it has one: one spawn pending per direction."""
        if i < len(arrivals):
            self.queue.push(arrivals.spawn_times[i], EventKind.VEHICLE_SPAWN, (arrivals, i),
                            seq=self.spawn_seq + arrivals.id_start + i)

    def _apply_output(self, now: TimeMs, out: proto.ProtocolOutput) -> None:
        for msg in out.transmissions:
            if msg.sender == RSU_ID:
                pos = RSU_POSITION
            else:
                pos = mob.position_at(self.active[msg.sender], now)
                if msg.kind is _SUM:
                    self.sum_tx_count[msg.sender] = self.sum_tx_count.get(msg.sender, 0) + 1
            flight = (chan.sample_tau(self.rng, self.tau_range) + 1) // 2   # ceil(tau/2)
            self.queue.push(now + flight, _MSG_ARRIVAL, (msg, pos))

    def _obu_transition(self, vid: int, now: TimeMs, event: str, fn, *args) -> None:
        state = self.obu[vid]
        new, out = fn(state, now, *args)
        if self.trace is not None:
            self.trace(now, f"veh{vid}", event, state.phase.value, new.phase.value)
        if new is not state:   # else a stale timer or a repeated SAM
            self.obu[vid] = new
            if state.phase is _IDLE and new.phase is not _IDLE:
                del self.awaiting_sam[vid]
        if out.transmissions:   # a stored SAM or a heard ACK sends nothing
            self._apply_output(now, out)
        if new.retry_deadline != state.retry_deadline and new.retry_deadline is not None:
            self.queue.push(new.retry_deadline, _RETRY_TIMER, vid)

    def _rsu_transition(self, now: TimeMs, event: str, fn, *args) -> None:
        state = self.rsu
        new, out = fn(state, now, *args)
        self.rsu = new
        if self.trace is not None:
            self.trace(now, "rsu", event, f"pending:{len(state.pending)}",
                       f"pending:{len(new.pending)}")
        if out.transmissions:   # most received SUMs only join the batch
            self._apply_output(now, out)
        if new.ack_deadline != state.ack_deadline and new.ack_deadline is not None:
            self.queue.push(new.ack_deadline, EventKind.ACK_TIMER)
        if new.next_sam_time != state.next_sam_time:
            self.queue.push(new.next_sam_time, EventKind.SAM_TIMER)

    def _finalize(self, vid: int, outcome_if_incomplete: str) -> None:
        state = self.obu[vid]
        if state.attempts < 1:
            return
        sent = self.sum_tx_count.get(vid, 0)
        if sent != state.attempts:
            raise EngineError(
                f"vehicle {vid}: {sent} request transmissions but "
                f"{state.attempts} attempts recorded"
            )
        outcome = OUTCOME_COMPLETE if state.phase is proto.ObuPhase.COMPLETE \
            else outcome_if_incomplete
        self.records.append(vid, self.active[vid].direction, state.sam_rx_time,
                            state.first_sum_tx_time, state.ack_rx_time, state.attempts, outcome)

    # -- event handlers ----------------------------------------------------

    def _on_spawn(self, now: TimeMs, spawn: tuple[mob.Arrivals, int]) -> None:
        arrivals, i = spawn
        v = arrivals[i]
        vid = v.vehicle_id
        self.active[vid] = v
        self.awaiting_sam[vid] = None
        self.obu[vid] = proto.ObuState(vid, self.cfg.t_sum)
        self.queue.push(v.spawn_time + self.trigger_after, EventKind.TRIGGER_CROSS, vid)
        self.queue.push(v.spawn_time + self.transit, EventKind.VEHICLE_DESPAWN, vid)
        self._push_spawn(arrivals, i + 1)

    def _on_trigger(self, now: TimeMs, vid: int) -> None:
        self._obu_transition(vid, now, "trigger_cross", proto.obu_on_trigger)

    def _on_retry_timer(self, now: TimeMs, vid: int) -> None:
        if vid in self.active:  # else the vehicle left with this timer armed
            self._obu_transition(vid, now, "retry_timer", proto.obu_on_retry_timer)

    def _on_msg_arrival(self, now: TimeMs, sent: tuple[Message, tuple[float, float]]) -> None:
        msg, pos = sent
        if msg.kind is _SUM:
            per = self.sum_per.get(pos)
            if per is None:
                if len(self.sum_per) >= _SUM_PER_CACHE_SIZE:
                    self.sum_per.clear()
                (rx, ry), (tx, ty) = RSU_POSITION, pos   # the one candidate
                dist = ((rx - tx) ** 2 + (ry - ty) ** 2) ** 0.5
                per = self.sum_per[pos] = chan.per(self.curve, dist, self.density)
            if self.next_double(self.rng_state) >= per:
                self._rsu_transition(now, "sum_rx", proto.rsu_on_sum, msg.sender)
            return
        if msg.kind is MessageKind.ACK:
            candidates = [vid for vid in msg.recipients if vid in self.active]
            event, fn, args = "ack_rx", proto.obu_on_ack, (msg.recipients,)
        elif msg.kind is MessageKind.SAM:
            # Only vehicles still waiting on an advertisement can change state.
            candidates, event, fn, args = self.awaiting_sam, "sam_rx", proto.obu_on_sam, ()
        else:
            raise EngineError(f"unexpected arrival kind {msg.kind}")
        receivers = [(vid, mob.position_at(self.active[vid], now)) for vid in candidates]
        for vid in sorted(deliver_broadcast(msg.sender, receivers, pos, self.curve,
                                            self.density, self.rng)):
            self._obu_transition(vid, now, event, fn, *args)

    def _on_ack_timer(self, now: TimeMs, _payload: None) -> None:
        self._rsu_transition(now, "ack_timer", proto.rsu_on_ack_timer)

    def _on_sam_timer(self, now: TimeMs, _payload: None) -> None:
        self._rsu_transition(now, "sam_tx", proto.rsu_on_sam_timer)

    def _on_despawn(self, now: TimeMs, vid: int) -> None:
        self._finalize(vid, OUTCOME_DESPAWN)
        del self.active[vid]
        del self.obu[vid]
        self.sum_tx_count.pop(vid, None)
        self.awaiting_sam.pop(vid, None)

    # -- main loop ---------------------------------------------------------

    def run(self) -> RunSummary:
        handlers = {
            EventKind.VEHICLE_SPAWN: self._on_spawn,
            EventKind.TRIGGER_CROSS: self._on_trigger,
            _RETRY_TIMER: self._on_retry_timer,
            EventKind.ACK_TIMER: self._on_ack_timer,
            EventKind.SAM_TIMER: self._on_sam_timer,
            _MSG_ARRIVAL: self._on_msg_arrival,
            EventKind.VEHICLE_DESPAWN: self._on_despawn,
            EventKind.SIM_END: lambda now, _payload: True,   # the one that ends the loop
        }
        queue = self.queue
        while True:   # SIM_END, queued at init, ends the loop
            now, _, kind, payload = queue.pop()
            handler = handlers.get(kind)
            if handler is None:
                raise EngineError(f"unhandled event kind {kind}")
            if handler(now, payload):
                break
        for vid in list(self.active):
            self._finalize(vid, OUTCOME_SIMEND)
        bsm_tx, bsm_probes = bsm_counts(self.cfg, self.by_direction)
        return RunSummary(
            cfg=self.cfg,
            records=self.records,
            bsm_tx_count=bsm_tx,
            bsm_expected_rx_count=bsm_probes,
            bsm_per=analytic.bsm_per(self.cfg, self.curve) if bsm_probes else None,
        )


def run(cfg: ScenarioConfig, trace_path: str | None = None) -> RunSummary:
    """Simulate one scenario; identical (cfg, seed) yields an identical summary."""
    if trace_path is None:
        return _Simulation(cfg).run()
    with open(trace_path, "w", encoding="utf-8", newline="\n") as fh:
        def trace(t: TimeMs, entity: str, event: str, before: str, after: str) -> None:
            fh.write(f"{t}\t{entity}\t{event}\t{before}\t{after}\n")
        return _Simulation(cfg, trace=trace).run()


class BatchError(RuntimeError):
    """One or more batch cells failed; carries per-index diagnostics.

    ``results`` holds the sibling summaries in input order, None at the
    failed indices, so callers can still use the cells that succeeded.
    """

    def __init__(self, failures: dict[int, str],
                 results: list[RunSummary | None] | None = None):
        self.failures = failures
        self.results = results if results is not None else []
        detail = "; ".join(f"cell {i}: {msg}" for i, msg in sorted(failures.items()))
        super().__init__(f"{len(failures)} batch cell(s) failed: {detail}")


def run_batch(cfgs: Sequence[ScenarioConfig], parallelism: int = 1) -> list[RunSummary]:
    """Run independent scenarios; results match input order.

    Cells are isolated: a failing cell does not abort its siblings, and all
    failures are reported together in a BatchError. Results are identical
    whether the batch executes serially or in parallel. A pool gets the
    heaviest cells (by ``flow_rate * sim_duration``) first, which shortens
    the makespan. Under fork a pool starts all its workers at the first
    submit, so it has no more workers than cells or CPUs available.
    """
    if not cfgs:
        return []
    results: list[RunSummary | None] = [None] * len(cfgs)
    failures: dict[int, str] = {}
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(parallelism, len(cfgs), cpus or 1)
    if workers > 1:
        try:
            from concurrent.futures import ProcessPoolExecutor   # only a pool needs it
            with ProcessPoolExecutor(max_workers=workers) as pool:
                order = sorted(range(len(cfgs)), reverse=True,
                               key=lambda i: cfgs[i].flow_rate * cfgs[i].sim_duration)
                futures = {i: pool.submit(run, cfgs[i]) for i in order}
                for i, fut in futures.items():
                    try:
                        results[i] = fut.result()
                    except Exception as exc:  # noqa: BLE001 - reported per index
                        failures[i] = str(exc)
        except OSError:
            # Process pools may be unavailable in constrained environments;
            # the serial path produces identical results by construction.
            results = [None] * len(cfgs)
            failures.clear()
            workers = 1
    if workers <= 1:
        for i, cfg in enumerate(cfgs):
            try:
                results[i] = run(cfg)
            except Exception as exc:  # noqa: BLE001 - reported per index
                failures[i] = str(exc)
    if failures:
        raise BatchError(failures, results)
    return [r for r in results if r is not None]
