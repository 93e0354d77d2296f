"""Handshake state machines for the advertised transaction service.

Both sides are pure transition functions: a transition returns its state and
its transmissions; a deadline it moves (``retry_deadline``, ``ack_deadline``,
``next_sam_time``) is a timer the engine arms. Staleness is resolved by value:
a timer event is acted on only if its fire time still equals the deadline
stored in the state, so cancelled timers are absorbed without bookkeeping.

Vehicle side (OBU): a SAM must have been stored before the trigger-line SUM
can be sent. A vehicle that crosses the trigger before hearing any SAM defers
its first SUM until the first SAM reception afterwards. Retries repeat every
t_sum until an ACK naming this vehicle arrives. Retries are unbounded: the
engine drops the vehicle's state at despawn, so no phase marks a failure.

RSU side: pending requesters accumulate in arrival order. An ACK naming all
of them is sent when the batch reaches b_ack entries or when t_ack elapses
after the first entry of the batch. A retransmitted SUM from an
already-pending vehicle does not duplicate its entry.

States are immutable named tuples, and a transition that changes nothing
returns its input state. Transitions that run per SUM or per vehicle (a SUM
sent, the SAM stored, an ACK heard, a SUM received below a full batch) build
the new state positionally, the SUM and SAM ones with ``tuple.__new__``; the
rare ones (a trigger before any SAM, an ACK flush, a SAM sent) call ``_replace``.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .core import Message, MessageKind, RSU_ID, TimeMs


class ProtocolError(RuntimeError):
    """Contract violation in the handshake (e.g. a second trigger crossing)."""


class ObuPhase(Enum):
    IDLE = "idle"
    SAM_STORED = "sam_stored"
    AWAITING_ACK = "awaiting_ack"
    COMPLETE = "complete"


class ProtocolOutput(NamedTuple):
    """Transmissions to enqueue now."""

    transmissions: tuple[Message, ...] = ()


_NO_OUTPUT = ProtocolOutput()


class ObuState(NamedTuple):
    vehicle_id: int
    t_sum: TimeMs
    phase: ObuPhase = ObuPhase.IDLE
    sam_rx_time: TimeMs | None = None
    first_sum_tx_time: TimeMs | None = None
    attempts: int = 0
    retry_deadline: TimeMs | None = None
    ack_rx_time: TimeMs | None = None
    deferred_start: bool = False


# Enum members the hot transitions read, bound once (see ``engine``).
_SAM_STORED, _AWAITING_ACK, _COMPLETE, _SUM = (
    ObuPhase.SAM_STORED, ObuPhase.AWAITING_ACK, ObuPhase.COMPLETE, MessageKind.SUM)
_new = tuple.__new__   # a named tuple from every field, without its Python __new__


def _send_sum(state: ObuState, now: TimeMs, sam_rx_time: TimeMs | None,
              first_sum_tx_time: TimeMs, attempts: int) -> tuple[ObuState, ProtocolOutput]:
    """Transmit SUM number ``attempts`` and move the retry deadline t_sum ahead."""
    vid = state.vehicle_id
    # Awaiting an ACK, a vehicle has no ACK time and no deferred start.
    new = _new(ObuState, (vid, state.t_sum, _AWAITING_ACK, sam_rx_time, first_sum_tx_time,
                          attempts, now + state.t_sum, None, False))
    msg = _new(Message, (_SUM, vid, ()))
    return new, _new(ProtocolOutput, ((msg,),))


def obu_on_sam(state: ObuState, now: TimeMs) -> tuple[ObuState, ProtocolOutput]:
    """SAM reception: store the advertisement; refreshes are no-ops.

    If the vehicle already crossed its trigger while idle, the first SAM both
    stores the advertisement and releases the deferred first SUM.
    """
    if state.phase is not ObuPhase.IDLE:
        return state, _NO_OUTPUT
    if state.deferred_start:
        return _send_sum(state, now, now, now, 1)
    new = _new(ObuState, (state.vehicle_id, state.t_sum, _SAM_STORED, now, *state[4:]))
    return new, _NO_OUTPUT


def obu_on_trigger(state: ObuState, now: TimeMs) -> tuple[ObuState, ProtocolOutput]:
    """Trigger-line crossing: send the first SUM (or defer it, if no SAM yet)."""
    if state.phase is ObuPhase.SAM_STORED:
        return _send_sum(state, now, state.sam_rx_time, now, 1)
    if state.phase is ObuPhase.IDLE:
        # Cannot respond to a service it has not heard of yet.
        return state._replace(deferred_start=True), _NO_OUTPUT
    raise ProtocolError(
        f"vehicle {state.vehicle_id} crossed the trigger in phase "
        f"{state.phase.value}; each vehicle crosses exactly once"
    )


def obu_on_retry_timer(state: ObuState, now: TimeMs) -> tuple[ObuState, ProtocolOutput]:
    """Retry timer expiry: retransmit the SUM unless the timer is stale."""
    if state.phase is not _AWAITING_ACK or state.retry_deadline != now:
        return state, _NO_OUTPUT
    return _send_sum(state, now, state.sam_rx_time, state.first_sum_tx_time,
                     state.attempts + 1)


def obu_on_ack(state: ObuState, now: TimeMs,
               recipients: tuple[int, ...]) -> tuple[ObuState, ProtocolOutput]:
    """ACK reception: complete if this vehicle is named; otherwise ignore."""
    if state.phase is _AWAITING_ACK and state.vehicle_id in recipients:
        return ObuState(state.vehicle_id, state.t_sum, _COMPLETE, state.sam_rx_time,
                        state.first_sum_tx_time, state.attempts, None, now), _NO_OUTPUT
    return state, _NO_OUTPUT


class RsuState(NamedTuple):
    b_ack: int
    t_ack: TimeMs
    sam_period: TimeMs
    pending: tuple[int, ...] = ()
    ack_deadline: TimeMs | None = None
    next_sam_time: TimeMs = 0


def _flush_ack(state: RsuState, now: TimeMs,
               recipients: tuple[int, ...]) -> tuple[RsuState, ProtocolOutput]:
    """ACK ``recipients`` (the full pending batch) and empty the batch."""
    if not (1 <= len(recipients) <= state.b_ack):
        raise ProtocolError(f"ACK batch of {len(recipients)} violates b_ack={state.b_ack}")
    new = state._replace(pending=(), ack_deadline=None)
    ack = Message(kind=MessageKind.ACK, sender=RSU_ID, recipients=recipients)
    return new, ProtocolOutput((ack,))


def rsu_on_sum(state: RsuState, now: TimeMs, sender: int) -> tuple[RsuState, ProtocolOutput]:
    """SUM reception: enqueue the sender; flush immediately on a full batch.

    The RSU does not distinguish first transmissions from retransmissions:
    every received SUM guarantees the sender an entry in the next ACK, with
    set semantics so a retransmission never duplicates a pending entry.
    """
    b_ack, t_ack, sam_period, pending, ack_deadline, next_sam_time = state
    if sender in pending:
        return state, _NO_OUTPUT
    pending += (sender,)
    if len(pending) == b_ack:
        return _flush_ack(state, now, pending)
    if len(pending) == 1:
        ack_deadline = now + t_ack
    new = _new(RsuState, (b_ack, t_ack, sam_period, pending, ack_deadline, next_sam_time))
    return new, _NO_OUTPUT


def rsu_on_ack_timer(state: RsuState, now: TimeMs) -> tuple[RsuState, ProtocolOutput]:
    """Batch timer expiry: ACK everything pending; stale timers are no-ops."""
    if state.ack_deadline != now or not state.pending:
        return state, _NO_OUTPUT
    return _flush_ack(state, now, state.pending)


def rsu_on_sam_timer(state: RsuState, now: TimeMs) -> tuple[RsuState, ProtocolOutput]:
    """Periodic advertisement: broadcast one SAM and move the next one a period ahead."""
    if now != state.next_sam_time:
        raise ProtocolError(
            f"SAM timer fired at {now} but next_sam_time is {state.next_sam_time}"
        )
    new = state._replace(next_sam_time=now + state.sam_period)
    sam = Message(kind=MessageKind.SAM, sender=RSU_ID)
    return new, ProtocolOutput((sam,))
