"""Handshake state machines: transition contracts, batching, staleness."""

from __future__ import annotations

import numpy as np
import pytest

from v2isim.core import Message, MessageKind, RSU_ID
from v2isim.protocol import (
    ObuPhase, ObuState, ProtocolError, RsuState, obu_on_ack, obu_on_retry_timer, obu_on_sam, obu_on_trigger,
    rsu_on_ack_timer, rsu_on_sam_timer, rsu_on_sum,
)


def fresh_obu(vid=7, t_sum=600) -> ObuState:
    return ObuState(vehicle_id=vid, t_sum=t_sum)


def fresh_rsu(b_ack=16, t_ack=400, sam_period=1000) -> RsuState:
    return RsuState(b_ack=b_ack, t_ack=t_ack, sam_period=sam_period)


SUM_7 = Message(kind=MessageKind.SUM, sender=7)


# -- OBU ---------------------------------------------------------------


def test_sam_stores_advertisement():
    state, out = obu_on_sam(fresh_obu(), 1000)
    assert state.phase is ObuPhase.SAM_STORED
    assert state.sam_rx_time == 1000
    assert out.transmissions == () and state.retry_deadline is None


def test_sam_refresh_is_noop_in_later_phases():
    stored, _ = obu_on_sam(fresh_obu(), 1000)
    awaiting, _ = obu_on_trigger(stored, 40_000)
    same, out = obu_on_sam(awaiting, 41_000)
    assert same == awaiting and out.transmissions == ()
    complete, _ = obu_on_ack(awaiting, 40_100, (7,))
    same, out = obu_on_sam(complete, 42_000)
    assert same == complete and out.transmissions == ()


def test_trigger_sends_first_sum_and_arms_retry():
    stored, _ = obu_on_sam(fresh_obu(), 1000)
    state, out = obu_on_trigger(stored, 40_000)
    assert state.phase is ObuPhase.AWAITING_ACK
    assert state.attempts == 1
    assert state.first_sum_tx_time == 40_000
    assert state.retry_deadline == 40_600
    assert out.transmissions == (SUM_7,)


def test_trigger_before_any_sam_defers_first_sum():
    state, out = obu_on_trigger(fresh_obu(), 40_000)
    assert state.phase is ObuPhase.IDLE and state.deferred_start
    assert out.transmissions == () and state.retry_deadline is None
    released, out = obu_on_sam(state, 41_000)
    assert released.phase is ObuPhase.AWAITING_ACK
    assert released.sam_rx_time == 41_000
    assert released.first_sum_tx_time == 41_000
    assert released.attempts == 1
    assert released.retry_deadline == 41_600
    assert out.transmissions == (SUM_7,)


def test_second_trigger_is_contract_violation():
    stored, _ = obu_on_sam(fresh_obu(), 1000)
    awaiting, _ = obu_on_trigger(stored, 40_000)
    with pytest.raises(ProtocolError, match="crosses exactly once"):
        obu_on_trigger(awaiting, 50_000)
    complete, _ = obu_on_ack(awaiting, 40_100, (7,))
    with pytest.raises(ProtocolError):
        obu_on_trigger(complete, 50_000)


def test_retry_increments_attempts_and_reschedules():
    stored, _ = obu_on_sam(fresh_obu(), 1000)
    state, _ = obu_on_trigger(stored, 40_000)
    state, out = obu_on_retry_timer(state, 40_600)
    assert state.attempts == 2
    assert state.retry_deadline == 41_200
    assert out.transmissions == (SUM_7,)


def test_stale_retry_after_completion_is_absorbed():
    stored, _ = obu_on_sam(fresh_obu(), 1000)
    state, _ = obu_on_trigger(stored, 40_000)
    complete, _ = obu_on_ack(state, 40_100, (7,))
    same, out = obu_on_retry_timer(complete, 40_600)
    assert same == complete and out.transmissions == ()


def test_unbounded_retries_keep_cadence():
    stored, _ = obu_on_sam(fresh_obu(), 1000)
    state, out = obu_on_trigger(stored, 40_000)
    deadlines = [state.retry_deadline]
    for _ in range(10):
        state, out = obu_on_retry_timer(state, deadlines[-1])
        assert out.transmissions == (SUM_7,)
        deadlines.append(state.retry_deadline)
    assert state.attempts == 11
    assert state.phase is ObuPhase.AWAITING_ACK
    # Each retransmission, sent at the last deadline, re-arms exactly t_sum later.
    assert deadlines == [40_000 + 600 * k for k in range(1, 12)]


def test_ack_completes_only_when_named():
    stored, _ = obu_on_sam(fresh_obu(), 1000)
    state, _ = obu_on_trigger(stored, 40_000)
    unchanged, _ = obu_on_ack(state, 40_050, (8, 9))
    assert unchanged == state
    complete, _ = obu_on_ack(state, 40_100, (9, 7, 8))
    assert complete.phase is ObuPhase.COMPLETE
    assert complete.ack_rx_time == 40_100
    assert complete.retry_deadline is None
    again, _ = obu_on_ack(complete, 40_200, (7,))
    assert again == complete  # duplicate absorption


def test_complete_implies_ack_after_first_sum():
    stored, _ = obu_on_sam(fresh_obu(), 1000)
    state, _ = obu_on_trigger(stored, 40_000)
    complete, _ = obu_on_ack(state, 40_100, (7,))
    assert complete.ack_rx_time >= complete.first_sum_tx_time
    assert complete.attempts >= 1


# -- RSU ---------------------------------------------------------------


def test_first_sum_arms_batch_deadline():
    state, out = rsu_on_sum(fresh_rsu(), 10_000, sender=7)
    assert state.pending == (7,)
    assert state.ack_deadline == 10_400
    assert out.transmissions == ()
    state, _ = rsu_on_sum(state, 10_100, sender=8)
    assert state.ack_deadline == 10_400   # a later entry keeps the batch deadline


def test_batch_full_flushes_immediately():
    state = fresh_rsu()
    now = 10_000
    for vid in range(15):
        state, out = rsu_on_sum(state, now + vid, sender=vid)
        assert out.transmissions == ()
    state, out = rsu_on_sum(state, 10_015, sender=15)
    (ack,) = out.transmissions
    assert ack.kind is MessageKind.ACK
    assert len(ack.recipients) == 16
    assert ack.recipients == tuple(range(16))  # arrival order preserved
    assert state.pending == ()
    assert state.ack_deadline is None


def test_duplicate_sum_does_not_duplicate_entry():
    state, _ = rsu_on_sum(fresh_rsu(), 10_000, sender=7)
    again, out = rsu_on_sum(state, 10_100, sender=7)
    assert again == state and out.transmissions == () and again.ack_deadline == 10_400


def test_ack_timer_flushes_pending():
    state, _ = rsu_on_sum(fresh_rsu(), 10_000, sender=1)
    state, _ = rsu_on_sum(state, 10_050, sender=2)
    state, _ = rsu_on_sum(state, 10_100, sender=3)
    state, out = rsu_on_ack_timer(state, 10_400)
    (ack,) = out.transmissions
    assert ack.recipients == (1, 2, 3)
    assert state.pending == () and state.ack_deadline is None


def test_stale_ack_timer_after_batch_flush_is_noop():
    state = fresh_rsu(b_ack=2)
    state, _ = rsu_on_sum(state, 10_000, sender=1)
    state, out = rsu_on_sum(state, 10_050, sender=2)  # flush at batch size 2
    assert out.transmissions
    same, out = rsu_on_ack_timer(state, 10_400)  # timer armed at 10_000 fires
    assert same == state and out.transmissions == ()


def test_ack_timer_over_a_batch_past_b_ack_is_a_contract_violation():
    state = RsuState(b_ack=2, t_ack=400, sam_period=1000, pending=(1, 2, 3),
                     ack_deadline=500)
    with pytest.raises(ProtocolError, match="ACK batch of 3 violates b_ack=2"):
        rsu_on_ack_timer(state, 500)


def test_single_pending_gets_single_recipient_ack():
    state, _ = rsu_on_sum(fresh_rsu(), 10_000, sender=9)
    state, out = rsu_on_ack_timer(state, 10_400)
    (ack,) = out.transmissions
    assert ack.recipients == (9,)


def test_batch_size_one_acks_each_sum_instantly():
    state = fresh_rsu(b_ack=1)
    state, out = rsu_on_sum(state, 10_000, sender=4)
    (ack,) = out.transmissions
    assert ack.recipients == (4,)
    assert state.ack_deadline is None


def test_sam_timer_period_and_bug_trap():
    state = fresh_rsu()
    now = 0
    for _ in range(3):
        state, out = rsu_on_sam_timer(state, now)
        assert out.transmissions == (Message(kind=MessageKind.SAM, sender=RSU_ID),)
        assert state.next_sam_time == now + 1000
        now += 1000
    assert state.next_sam_time == 3000
    with pytest.raises(ProtocolError):
        rsu_on_sam_timer(state, now + 1)  # mismatched fire time


def test_sam_emission_independent_of_pending():
    state, out = rsu_on_sam_timer(fresh_rsu(), 0)
    state, _ = rsu_on_sum(state, 500, sender=3)
    state, out = rsu_on_sam_timer(state, 1000)
    assert state.pending == (3,)
    assert out.transmissions[0].kind is MessageKind.SAM


def test_recipient_soundness_and_batch_bound_under_random_load():
    # Random interleaving of SUM arrivals and timer fires: every ACK names at
    # most b_ack vehicles, and only vehicles previously inserted by a SUM.
    rng = np.random.default_rng(2024)
    state = fresh_rsu(b_ack=5, t_ack=300)
    inserted: set[int] = set()
    acked: list[tuple[int, ...]] = []
    now = 0
    for _ in range(400):
        now += int(rng.integers(1, 120))
        if state.ack_deadline is not None and state.ack_deadline <= now:
            state, out = rsu_on_ack_timer(state, state.ack_deadline)
            acked.extend(m.recipients for m in out.transmissions)
        vid = int(rng.integers(0, 60))
        inserted.add(vid)
        state, out = rsu_on_sum(state, now, sender=vid)
        acked.extend(m.recipients for m in out.transmissions)
    assert acked
    assert all(1 <= len(r) <= 5 for r in acked)
    assert all(set(r) <= inserted for r in acked)
    # Pending never rests at or above the batch size.
    assert len(state.pending) < 5
