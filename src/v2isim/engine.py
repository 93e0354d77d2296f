"""Deterministic discrete-event core: queue, clock, delivery, orchestration.

Every run is a pure function of (config, seed): events are totally ordered by
(time, sequence number) and the clock never moves backward. Randomness
comes from one generator, ``default_rng(seed)``: its arrival draws at init,
then its ``random()`` sequence, read in blocks by ``chan.uniform_stream``:
first for the SAMs, settled before the loop, then for the loop in event
order. BSMs draw nothing, so no BSM setting moves a protocol outcome.

A vehicle's life before its trigger crossing depends on nothing dynamic: the
RSU's SAM schedule is fixed, kinematics are deterministic and PER is static.
So before its event loop a run settles it in one pass (``_settle_sams``).
``proto.rsu_on_sam_timer`` sends every SAM due before ``sim_duration``, each
drawing its tau, which fixes its arrival a. In arrival order, each SAM is
tested on the vehicles that have heard none yet and are in the stretch at a
(``mob.first_heard``), with one ``per_many`` and one ``chan.reception_mask``.
No SAM is an event, and no SAM timer is.

Besides its records, a run holds the vehicles between trigger and despawn,
16 B per arrival (``mob.Arrivals``: spawn times and lateral offsets, two
arrays per direction) and the arrival time of the SAM each one heard. One
``TRIGGER_CROSS`` per direction is pending, at spawn plus
``mob.trigger_offset_ms(cfg)`` (one offset for every vehicle, derived at
init). A trigger builds its vehicle's ``VehicleKinematics`` and OBU state,
applies ``proto.obu_on_sam`` at the heard SAM's time if that SAM arrived at
or before the trigger's ms, then ``proto.obu_on_trigger``; a SAM heard later
is queued as one ``MSG_ARRIVAL`` naming its receiver, which releases the
deferred first SUM. It then queues the despawn and its direction's next
trigger. A vehicle that never reaches its trigger leaves no state. Every
trigger keeps the seq that pushing all of them at init would give it
(``EventQueue.reserve``): ``SIM_END`` is 0, east 1..E, west E+1..N, and
every other event numbers from N+1. So a trigger comes first among the
events of its ms (bar ``SIM_END``), and the pop order is the eager
schedule's:

1. every event keeps its ``(time, seq)`` key;
2. a direction's trigger keys rise with its arrival index, so its earliest
   unfired trigger has the least key of that direction's triggers;
3. the least key of the eager heap is a non-trigger event's or such a
   trigger's, and both are in the smaller heap.

Events are named tuples ``(time, seq, kind, payload)`` on a ``heapq`` heap,
so the heap orders them with C tuple comparison. ``seq`` is unique, so a
comparison is settled by ``(time, seq)`` and never reaches ``kind`` or
``payload``. The main loop looks every kind up in one dict of handlers
(``EventKind`` hashes by identity in C, not with ``Enum``'s Python hash);
``SIM_END``'s handler ends it. Hot code binds Enum members to module
names, since on Python 3.11 a lookup on the class costs about 0.2 us. A
message arrival's payload is ``(message, transmit position)``; the RSU
transmits from ``RSU_POSITION``, the origin. A live vehicle is one entry of
``vehicles``, ``[kinematics, OBU state, SUMs sent]``, added at its trigger
and deleted at despawn, so a retry timer that fires later is ignored. At
despawn, or at ``SIM_END`` for a vehicle still in the stretch, a vehicle
that sent a request appends its record to the run's ``metrics.RecordTable``,
which the summary holds as it is. After a transition the engine queues its
transmissions, then arms a ``RETRY_TIMER`` or ``ACK_TIMER`` for each
deadline the transition moved to a new value that is not None.

A trace gets one line per transition, stamped with its own time. Two kinds
are written out of time order: every SAM's ``rsu sam_tx`` line comes first,
written as it is settled (its batch is always empty, since no SUM has
arrived yet), and a SAM heard before the trigger is written just before
that vehicle's ``trigger_cross`` line.

Transmission latency: each radio leg takes ceil(tau/2) ms, tau drawn from
``tau_low..tau_high`` per delivered transmission (a fixed tau draws nothing),
so an unbatched request/ACK round trip spans a single tau. Reception is
sampled per candidate receiver at its Euclidean distance from the transmit
position. Senders never receive their own transmissions. A SUM has one
candidate, the RSU, which stands still, so its reception is settled when it
is sent: one uniform against ``channel.per``, a one-element ``per_many``
returned as a float, which is ``reception_mask``'s test on one candidate. A
heard SUM then draws its tau and queues its arrival; a lost one queues
nothing, since its arrival would change no state. Leaving its event out
keeps the ``(time, seq)`` order of all the others. The vehicles of a
direction share a spawn point, a speed and a retry period, so SUMs leave
from few distinct points: each run memoizes that PER by transmit position
(``per`` runs once per new position, bit for bit the same value). An ACK is
decided at arrival, receiver positions taken then, by one
``channel.reception_mask`` call over one ``channel.per_many`` of its k
candidates: the next k uniforms, and the same PER as k one-element ``per``
calls.

Background safety broadcasts (BSMs) only feed the reception-rate metric and
have no protocol effect, so they are not events. After the event loop
``mob.bsm_counts`` counts, for every BSM tick from ``warmup`` on, the in-stretch
vehicles: each transmits once and, unless it is alone, probes one other. Those
two counts are exact for each run. ``bsm_per`` is the steady-state closed form
``analytic.bsm_per(cfg, curve)`` whenever there is a probe, for any warmup, and None
otherwise: no PER is looked up per probe and no BSM stream is drawn.
"""

from __future__ import annotations

import heapq
import os
from enum import Enum
from typing import Any, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from . import analytic
from . import channel as chan
from . import mobility as mob
from . import protocol as proto
from .core import (
    Message, MessageKind, RSU_ID, RSU_POSITION, ScenarioConfig, TimeMs,
    raise_violations, transit_ms, validate_config,
)
from .metrics import (
    OUTCOME_COMPLETE, OUTCOME_DESPAWN, OUTCOME_SIMEND, RecordTable, RunSummary,
)


class EngineError(RuntimeError):
    """Internal ordering violation; indicates a simulator bug."""


class EventKind(Enum):
    """Event kinds. ``VEHICLE_SPAWN`` and ``SAM_TIMER`` (settled before the
    loop) and ``BSM_TICK`` (``mob.bsm_counts`` runs after it) are never
    scheduled; they are kept so per-kind event counts keep their names."""

    __hash__ = object.__hash__   # members are singletons: hash by identity, in C
    VEHICLE_SPAWN = "vehicle_spawn"
    TRIGGER_CROSS = "trigger_cross"
    RETRY_TIMER = "retry_timer"
    ACK_TIMER = "ack_timer"
    SAM_TIMER = "sam_timer"
    MSG_ARRIVAL = "msg_arrival"
    VEHICLE_DESPAWN = "vehicle_despawn"
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
                      uniforms: Iterator[float]) -> set[int]:
    """Sample which candidate receivers pick up one broadcast transmission.

    Each candidate but the sender (excluded even at distance zero) takes the
    next uniform and receives when it is >= the PER at its Euclidean distance.
    One ``per_many`` and one ``chan.reception_mask`` serve the k candidates,
    in list order, bit for bit as k scalar draws and ``per`` calls would.
    """
    tx, ty = tx_position
    ids, dists = [], []
    for entity_id, (rx, ry) in receivers:
        if entity_id != sender:
            ids.append(entity_id)
            dists.append(((rx - tx) ** 2 + (ry - ty) ** 2) ** 0.5)
    heard = chan.reception_mask(uniforms, chan.per_many(curve, dists, density))
    return {entity_id for entity_id, ok in zip(ids, heard.tolist()) if ok}


TraceFn = Callable[[TimeMs, str, str, str, str], None]

_SUM, _SAM = MessageKind.SUM, MessageKind.SAM
_MSG_ARRIVAL, _RETRY_TIMER = EventKind.MSG_ARRIVAL, EventKind.RETRY_TIMER
_TRIGGER_CROSS = EventKind.TRIGGER_CROSS
# Entries of a run's SUM reception PER memo, which is cleared when full.
_SUM_PER_CACHE_SIZE = 4096


class _Simulation:
    def __init__(self, cfg: ScenarioConfig, trace: TraceFn | None = None):
        raise_violations(validate_config(cfg))
        self.cfg = cfg
        self.trace = trace
        rng = np.random.default_rng(cfg.rng_seed)
        self.curve = cfg.channel()
        self.tau_range = (cfg.tau_low, cfg.tau_high)
        self.transit = transit_ms(cfg.road_length, cfg.mean_speed)
        self.sum_per: dict[tuple[float, float], float] = {}
        self.queue = EventQueue()

        # Vehicles between trigger and despawn, [kinematics, OBU state, SUMs sent]:
        # every position lookup is for one. A list, so a transition sets its state in place.
        self.vehicles: dict[int, list] = {}
        self.rsu = proto.RsuState(
            b_ack=cfg.b_ack, t_ack=cfg.t_ack, sam_period=cfg.sam_period,
        )
        self.records = RecordTable()

        # Arrivals are generated up front as arrays; the BSM counts read them after the run.
        east = mob.generate_arrivals(cfg, mob.Direction.EAST, rng, id_start=0)
        west = mob.generate_arrivals(cfg, mob.Direction.WEST, rng, id_start=len(east))
        self.uniforms = chan.uniform_stream(rng)   # every draw after the arrivals
        self.by_direction = {mob.Direction.EAST: east, mob.Direction.WEST: west}
        self.trigger_after = mob.trigger_offset_ms(cfg)
        # (arrival, send time) of each SAM sent and not yet settled, a heap; then by
        # vehicle id, the arrival of the first SAM it hears, or None (``_settle_sams``).
        self.sams_on_air: list[tuple[TimeMs, TimeMs]] = []
        self.sam_heard: list[TimeMs | None] = []

        self.queue.push(cfg.sim_duration, EventKind.SIM_END)
        # Vehicle v triggers under seq trigger_seq + v's id; other events number after all of them.
        self.trigger_seq = self.queue.reserve(len(east) + len(west))
        for arrivals in (east, west):
            self._push_trigger(arrivals, 0)

    # -- helpers ---------------------------------------------------------

    def _push_trigger(self, arrivals: mob.Arrivals, i: int) -> None:
        """Queue the direction's i-th trigger crossing, if it has one: one pending per direction."""
        if i < len(arrivals):
            self.queue.push(arrivals.spawn_times[i] + self.trigger_after, _TRIGGER_CROSS,
                            (arrivals, i), seq=self.trigger_seq + arrivals.id_start + i)

    def _apply_output(self, now: TimeMs, out: proto.ProtocolOutput,
                      pos: tuple[float, float]) -> None:
        """Queue each arrival ceil(tau/2) ms on; a SUM's only if the RSU hears it,
        and a SAM's, with its send time, on the heap ``_sam_arrivals`` settles."""
        low, high = self.tau_range
        for msg in out.transmissions:
            if msg.kind is _SUM:
                per = self.sum_per.get(pos)
                if per is None:
                    if len(self.sum_per) >= _SUM_PER_CACHE_SIZE:
                        self.sum_per.clear()
                    (rx, ry), (tx, ty) = RSU_POSITION, pos   # the one candidate
                    dist = ((rx - tx) ** 2 + (ry - ty) ** 2) ** 0.5
                    per = self.sum_per[pos] = chan.per(self.curve, dist, self.cfg.flow_rate)
                if next(self.uniforms) < per:
                    continue
            tau = low if low == high else chan.sample_tau(self.uniforms, self.tau_range)
            if msg.kind is _SAM:
                heapq.heappush(self.sams_on_air, (now + (tau + 1) // 2, now))
            else:
                self.queue.push(now + (tau + 1) // 2, _MSG_ARRIVAL, (msg, pos))

    def _sam_arrivals(self) -> Iterator[TimeMs]:
        """Send every SAM due before ``sim_duration``; yield the arrivals before it.

        ``proto.rsu_on_sam_timer`` is the schedule, and each SAM draws its tau
        as it is sent. Arrivals come in arrival order, send order at a tie: a
        SAM is yielded once no later one can arrive before it, so its
        receptions are drawn before the next SAM's tau whenever
        ``sam_period`` is at least the legs' spread.
        """
        horizon, shortest = self.cfg.sim_duration, (self.cfg.tau_low + 1) // 2
        on_air = self.sams_on_air
        while True:
            now = self.rsu.next_sam_time
            # A SAM sent from now on arrives at now + shortest or later.
            while on_air and (now >= horizon or on_air[0][0] <= now + shortest):
                at = heapq.heappop(on_air)[0]
                if at < horizon:
                    yield at
            if now >= horizon:
                return
            self._rsu_transition(now, "sam_tx", proto.rsu_on_sam_timer)

    def _settle_sams(self) -> None:
        """Settle, before the loop, the first SAM each vehicle hears (``mob.first_heard``).

        A SAM's candidates take one ``per_many`` at their distances from the
        RSU and one ``chan.reception_mask``.
        """
        curve, density, uniforms = self.curve, self.cfg.flow_rate, self.uniforms
        self.sam_heard = mob.first_heard(
            *self.by_direction.values(), self.transit, self._sam_arrivals(),
            lambda dists: chan.reception_mask(uniforms, chan.per_many(curve, dists, density)))

    def _obu_transition(self, vid: int, now: TimeMs, event: str, fn, *args) -> None:
        vehicle = self.vehicles[vid]
        state = vehicle[1]
        new, out = fn(state, now, *args)
        if self.trace is not None:
            self.trace(now, f"veh{vid}", event, state.phase.value, new.phase.value)
        if new is not state:   # else a stale timer
            vehicle[1] = new
        if out.transmissions:   # a stored SAM or a heard ACK sends nothing; an OBU sends only SUMs
            vehicle[2] += len(out.transmissions)
            self._apply_output(now, out, mob.position_at(vehicle[0], now))
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
            self._apply_output(now, out, RSU_POSITION)
        if new.ack_deadline != state.ack_deadline and new.ack_deadline is not None:
            self.queue.push(new.ack_deadline, EventKind.ACK_TIMER)

    def _finalize(self, vid: int, outcome_if_incomplete: str) -> None:
        kinematics, state, sent = self.vehicles[vid]
        if state.attempts < 1:
            return
        if sent != state.attempts:
            raise EngineError(
                f"vehicle {vid}: {sent} request transmissions but "
                f"{state.attempts} attempts recorded"
            )
        outcome = OUTCOME_COMPLETE if state.phase is proto.ObuPhase.COMPLETE \
            else outcome_if_incomplete
        self.records.append(vid, kinematics.direction, state.sam_rx_time,
                            state.first_sum_tx_time, state.ack_rx_time, state.attempts, outcome)

    # -- event handlers ----------------------------------------------------

    def _on_trigger(self, now: TimeMs, trigger: tuple[mob.Arrivals, int]) -> None:
        arrivals, i = trigger
        v = arrivals[i]
        vid = v.vehicle_id
        self.vehicles[vid] = [v, proto.ObuState(vid, self.cfg.t_sum), 0]
        heard = self.sam_heard[vid]
        if heard is not None and heard <= now:   # heard on the way in, stamped with its time
            self._obu_transition(vid, heard, "sam_rx", proto.obu_on_sam)
        self._obu_transition(vid, now, "trigger_cross", proto.obu_on_trigger)
        if heard is not None and heard > now:   # releases the deferred first SUM
            self.queue.push(heard, _MSG_ARRIVAL, (Message(_SAM, RSU_ID, (vid,)), RSU_POSITION))
        self.queue.push(v.spawn_time + self.transit, EventKind.VEHICLE_DESPAWN, vid)
        self._push_trigger(arrivals, i + 1)

    def _on_retry_timer(self, now: TimeMs, vid: int) -> None:
        if vid in self.vehicles:  # else the vehicle left with this timer armed
            self._obu_transition(vid, now, "retry_timer", proto.obu_on_retry_timer)

    def _on_msg_arrival(self, now: TimeMs, sent: tuple[Message, tuple[float, float]]) -> None:
        msg, pos = sent
        if msg.kind is _SUM:   # queued only when heard
            self._rsu_transition(now, "sum_rx", proto.rsu_on_sum, msg.sender)
        elif msg.kind is _SAM:   # settled before the loop: its one recipient hears it
            self._obu_transition(msg.recipients[0], now, "sam_rx", proto.obu_on_sam)
        elif msg.kind is MessageKind.ACK:
            receivers = [(vid, mob.position_at(self.vehicles[vid][0], now))
                         for vid in msg.recipients if vid in self.vehicles]
            for vid in sorted(deliver_broadcast(msg.sender, receivers, pos, self.curve,
                                                self.cfg.flow_rate, self.uniforms)):
                self._obu_transition(vid, now, "ack_rx", proto.obu_on_ack, msg.recipients)
        else:
            raise EngineError(f"unexpected arrival kind {msg.kind}")

    def _on_ack_timer(self, now: TimeMs, _payload: None) -> None:
        self._rsu_transition(now, "ack_timer", proto.rsu_on_ack_timer)

    def _on_despawn(self, now: TimeMs, vid: int) -> None:
        self._finalize(vid, OUTCOME_DESPAWN)
        del self.vehicles[vid]

    # -- main loop ---------------------------------------------------------

    def run(self) -> RunSummary:
        self._settle_sams()
        handlers = {
            _TRIGGER_CROSS: self._on_trigger,
            _RETRY_TIMER: self._on_retry_timer,
            EventKind.ACK_TIMER: self._on_ack_timer,
            _MSG_ARRIVAL: self._on_msg_arrival,
            EventKind.VEHICLE_DESPAWN: self._on_despawn,
            EventKind.SIM_END: lambda now, _payload: True,   # the one that ends the loop
        }
        queue = self.queue
        while True:   # SIM_END, queued at init, ends the loop
            now, _, kind, payload = queue.pop()
            handler = handlers.get(kind)
            if handler is None:
                raise EngineError(f"unhandled event kind {kind.value}")
            if handler(now, payload):
                break
        for vid in self.vehicles:
            self._finalize(vid, OUTCOME_SIMEND)
        bsm_tx, bsm_probes = mob.bsm_counts(self.cfg, self.by_direction)
        return RunSummary(
            cfg=self.cfg,
            records=self.records,
            bsm_tx_count=bsm_tx,
            bsm_expected_rx_count=bsm_probes,
            bsm_per=analytic.bsm_per(self.cfg, self.curve) if bsm_probes else None,
        )


def run(cfg: ScenarioConfig, trace_path: str | None = None) -> RunSummary:
    """Simulate one scenario; identical (cfg, seed) yields an identical summary."""
    sim = _Simulation(cfg)   # validates cfg and reads its curve: a rejected one opens no file
    if trace_path is None:
        return sim.run()
    with open(trace_path, "w", encoding="utf-8", newline="\n") as fh:
        def trace(t: TimeMs, entity: str, event: str, before: str, after: str) -> None:
            fh.write(f"{t}\t{entity}\t{event}\t{before}\t{after}\n")
        sim.trace = trace
        return sim.run()


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
