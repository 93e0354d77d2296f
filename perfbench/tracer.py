"""Outside-in per-layer tracing of v2isim.

The tracer replaces the module attributes that the package's callers look
up (``v2isim.channel.per``, ``v2isim.protocol.rsu_on_sum``,
``v2isim.engine.EventQueue.pop`` ...) with timing wrappers, and puts the
originals back on ``uninstall``. Nothing under ``src/`` changes.

Spans are aggregated per name in memory: count, total time and self time
(the span's time minus the time of the wrapped spans inside it). Only coarse
spans (one per cell, batch, export, sweep or validate point) keep their
start and end times. Event handlers are pseudo-spans: an event's handler
runs from ``EventQueue.pop`` returning until the next ``pop`` call, or until
``engine.run`` returns after the last event.

Wrappers only see calls made in this process: a pool worker's counters die
with the worker, so a traced pass runs its cells serially.
"""

from __future__ import annotations

import collections
import functools
import pickle
from time import perf_counter

from v2isim import analytic, channel, core, engine, metrics, mobility, protocol, validation
from v2isim.core import MessageKind

OBU_FUNCTIONS = ("obu_on_sam", "obu_on_trigger", "obu_on_retry_timer", "obu_on_ack")
RSU_FUNCTIONS = ("rsu_on_sum", "rsu_on_ack_timer", "rsu_on_sam_timer")
EVENT_KINDS = tuple(k.value for k in engine.EventKind)


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}            # name -> [count, total_s, self_s]
        self.counters: collections.Counter = collections.Counter()
        self.ack_fill_sum = 0.0                     # sum of recipients / b_ack
        self.coarse: list[dict] = []
        self._stack: list[list] = []                # [name, start, child_s, coarse, pending]
        self._saved: list[tuple] = []
        self._t0 = perf_counter()

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str, coarse: bool = False, pending: bool = False) -> None:
        self._stack.append([name, perf_counter(), 0.0, coarse, pending])

    def exit(self) -> None:
        end = perf_counter()
        name, start, child, coarse, _ = self._stack.pop()
        dur = end - start
        agg = self.spans.get(name)
        if agg is None:
            agg = self.spans[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if coarse:
            self.coarse.append({
                "name": name, "start_s": start - self._t0, "end_s": end - self._t0,
                "parent": self._stack[-1][0] if self._stack else None,
            })

    def close_pending(self) -> None:
        if self._stack and self._stack[-1][4]:
            self.exit()

    def count(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    # -- wrapping ------------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, owner, attr: str, name: str | None, note=None, coarse: bool = False):
        """Wrap ``owner.attr`` in a span (None: count only) plus a note hook."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if name is None:
                result = orig(*args, **kwargs)
            else:
                self.enter(name, coarse)
                try:
                    result = orig(*args, **kwargs)
                finally:
                    self.exit()
            if note is not None:
                note(args, kwargs, result)
            return result

        self._replace(owner, attr, wrapper)

    def install(self) -> None:
        c = self.counters
        self._install_engine()

        def deliver(args, kwargs, received):
            c["engine.deliver.calls"] += 1
            c["engine.deliver.candidates"] += len(args[1])
            c["engine.deliver.received"] += len(received)
        self._wrap(engine, "deliver_broadcast", None, deliver)

        def batch_bytes(args, kwargs, results):
            c["engine.run_batch.result_bytes"] += len(pickle.dumps(results))
        self._wrap(engine, "run_batch", "engine.run_batch", batch_bytes, coarse=True)

        # ``per`` is imported by name into analytic and validation.
        for owner in (channel, analytic, validation):
            self._wrap(owner, "per", "channel.per")

        def per_many(args, kwargs, result):
            c["channel.per_many.elements"] += len(result)
        self._wrap(channel, "per_many", "channel.per_many", per_many)

        def mask(args, kwargs, result):
            c["channel.reception_mask.elements"] += len(result)
        self._wrap(channel, "reception_mask", "channel.reception_mask", mask)
        self._wrap(channel, "sample_tau", "channel.sample_tau")

        def arrivals(args, kwargs, result):
            c["mobility.arrivals.vehicles"] += len(result)
        self._wrap(mobility, "generate_arrivals", "mobility.arrivals", arrivals)
        self._wrap(mobility, "position_at", "mobility.position_at")
        self._wrap(mobility, "stretch_window", "mobility.bsm_geometry")
        self._wrap(mobility, "positions_x", "mobility.bsm_geometry")

        self._install_protocol()

        for attr in ("export_records", "export_summaries"):
            self._wrap(metrics, attr, "metrics.export", coarse=True)

        def pmf(args, kwargs, result):
            c["analytic.pmf.terms"] += len(result)
        # ``first_success_pmf`` is imported by name into validation.
        for owner in (analytic, validation):
            self._wrap(owner, "first_success_pmf", "analytic.pmf", pmf)
        self._wrap(analytic, "sweep_trigger", "analytic.sweep", coarse=True)

        def trials(args, kwargs, result):
            c["validation.trials"] += kwargs["trials"] if "trials" in kwargs else args[1]
        self._wrap(validation, "check_against_pmf", "validation.check", trials, coarse=True)

        # ``validate_config`` is imported by name into engine.
        def validated(args, kwargs, result):
            c["core.validate_config.calls"] += 1
        for owner in (core, engine):
            self._wrap(owner, "validate_config", None, validated)

    def _install_engine(self) -> None:
        orig_run = engine.run
        orig_pop = engine.EventQueue.pop
        counters = self.counters

        @functools.wraps(orig_run)
        def run(cfg, trace_path=None):
            self.enter("engine.run", coarse=True)
            self.enter("engine.init", pending=True)
            try:
                return orig_run(cfg, trace_path)
            finally:
                self.close_pending()
                self.exit()

        @functools.wraps(orig_pop)
        def pop(queue):
            self.close_pending()
            self.enter("engine.queue.pop")
            try:
                event = orig_pop(queue)
            finally:
                self.exit()
            kind = event.kind.value
            counters["engine.events." + kind] += 1
            self.enter("engine.handler." + kind, pending=True)
            return event

        self._replace(engine, "run", run)
        self._replace(engine.EventQueue, "pop", pop)
        self._wrap(engine.EventQueue, "push", "engine.queue.push")

    def _install_protocol(self) -> None:
        c = self.counters

        def sends(result) -> int:
            return sum(m.kind is MessageKind.SUM for m in result[1].transmissions)

        def obu(args, kwargs, result):
            c["protocol.sum.tx"] += sends(result)

        def obu_retry(args, kwargs, result):
            n = sends(result)
            c["protocol.sum.tx"] += n
            c["protocol.retry.tx"] += n

        def acks(flush: str):
            def note(args, kwargs, result):
                b_ack = args[0].b_ack
                for m in result[1].transmissions:
                    if m.kind is MessageKind.ACK:
                        c["protocol.ack.flush_" + flush] += 1
                        self.ack_fill_sum += len(m.recipients) / b_ack
            return note

        notes = {
            "obu_on_sam": obu, "obu_on_trigger": obu,
            "obu_on_retry_timer": obu_retry, "obu_on_ack": None,
            "rsu_on_sum": acks("full"), "rsu_on_ack_timer": acks("timer"),
            "rsu_on_sam_timer": None,
        }
        for fn in OBU_FUNCTIONS + RSU_FUNCTIONS:
            self._wrap(protocol, fn, "protocol." + fn, notes[fn])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of this traced pass, by name (units in run.py)."""
        c = self.counters
        m: dict[str, float] = {}
        events = sum(c["engine.events." + k] for k in EVENT_KINDS)
        m["engine.events"] = events
        for k in EVENT_KINDS:
            m["engine.events." + k] = c["engine.events." + k]
        for k in EVENT_KINDS:
            m["engine.handler_s." + k] = self.self_s("engine.handler." + k)
        m["engine.queue.push"] = self.count("engine.queue.push")
        m["engine.queue.push_s"] = self.self_s("engine.queue.push")
        m["engine.queue.pop_s"] = self.self_s("engine.queue.pop")
        m["engine.init_s"] = self.self_s("engine.init")
        for k in ("calls", "candidates", "received"):
            m["engine.deliver." + k] = c["engine.deliver." + k]
        m["engine.retry.stale"] = c["engine.events.retry_timer"] - c["protocol.retry.tx"]
        m["engine.run_batch_s"] = self.self_s("engine.run_batch")
        m["engine.run_batch.result_bytes"] = c["engine.run_batch.result_bytes"]

        m["channel.per.calls"] = self.count("channel.per")
        m["channel.per_s"] = self.self_s("channel.per")
        m["channel.per_many.calls"] = self.count("channel.per_many")
        m["channel.per_many.elements"] = c["channel.per_many.elements"]
        m["channel.per_many_s"] = self.self_s("channel.per_many")
        m["channel.reception_mask.elements"] = c["channel.reception_mask.elements"]
        m["channel.reception_mask_s"] = self.self_s("channel.reception_mask")
        m["channel.sample_tau.calls"] = self.count("channel.sample_tau")
        m["channel.sample_tau_s"] = self.self_s("channel.sample_tau")

        m["mobility.arrivals.vehicles"] = c["mobility.arrivals.vehicles"]
        m["mobility.arrivals_s"] = self.self_s("mobility.arrivals")
        m["mobility.position_at.calls"] = self.count("mobility.position_at")
        m["mobility.position_at_s"] = self.self_s("mobility.position_at")
        m["mobility.bsm_geometry_s"] = self.self_s("mobility.bsm_geometry")

        for fn in OBU_FUNCTIONS + RSU_FUNCTIONS:
            m[f"protocol.{fn}.calls"] = self.count("protocol." + fn)
            m[f"protocol.{fn}_s"] = self.self_s("protocol." + fn)
        m["protocol.sum.tx"] = c["protocol.sum.tx"]
        m["protocol.sum.rx"] = self.count("protocol.rsu_on_sum")
        acks = c["protocol.ack.flush_full"] + c["protocol.ack.flush_timer"]
        m["protocol.ack.fill"] = self.ack_fill_sum / acks if acks else 0.0
        m["protocol.ack.flush_full"] = c["protocol.ack.flush_full"]
        m["protocol.ack.flush_timer"] = c["protocol.ack.flush_timer"]

        m["metrics.export_s"] = self.self_s("metrics.export")
        m["analytic.pmf.calls"] = self.count("analytic.pmf")
        m["analytic.pmf.terms"] = c["analytic.pmf.terms"]
        m["analytic.pmf_s"] = self.self_s("analytic.pmf")
        m["analytic.sweep_s"] = self.self_s("analytic.sweep")
        m["validation.check_s"] = self.self_s("validation.check")
        m["validation.trials"] = c["validation.trials"]
        m["core.validate_config.calls"] = c["core.validate_config.calls"]
        return m
