"""The event bus: a tracer object injected into every cache scheme.

Design goal: **zero overhead when disabled**.  Every cache holds a
:class:`Tracer` (defaulting to the shared :data:`NULL_TRACER`), and each
tracepoint is guarded::

    tracer = self.tracer
    if tracer.enabled:
        tracer.emit(Coupling(...))

so a disabled tracer costs one attribute read per *event site* (not per
access) and never constructs an event object.  Enabled tracers fan
events out to one or more sinks implementing :class:`TraceSink`.

Second goal: **build only what a sink reads**.  A sink reads every
event unless it declares ``reads_every_event = False``, as the
capacity-flow ledger does: it then reads only the capacity-flow events
(:data:`~repro.obs.events.CAPACITY_FLOW_KINDS` and cooperative
evictions).  :attr:`Tracer.full` says whether any sink reads every
event.  Without one, the frequent tracepoints outside the capacity flow
(plain evictions, shadow hits, spill rejects) add one to
:attr:`Tracer.unread` instead of building their event, so the counts
stay exact::

    if tracer.enabled:
        if tracer.full:
            tracer.emit(ShadowHit(...))
        else:
            tracer.unread += 1

The frequent capacity-flow tracepoints (spills, cooperative hits and
cooperative evictions) hand their fields to :meth:`Tracer.spill`,
:meth:`Tracer.coop_hit` and :meth:`Tracer.eviction`.  A full tracer
builds the event there; any other passes the fields on to each sink's
method of the same name, and no event is built::

    if tracer.enabled:
        if tracer.full or cooperative:
            tracer.eviction(access, set_index, global_access,
                            tag, dirty, cooperative)
        else:
            tracer.unread += 1

:meth:`Tracer.flush` hands the pending count to every sink's
``skip(count)`` in one call.  The simulator flushes at the end of each
run, before it seals a ledger; :meth:`Tracer.close`,
:meth:`Tracer.add_sink` and :meth:`Tracer.remove_sink` flush first, so
a sink receives exactly the counts from while it was attached.

Only a full sink sends a batch path back to the scalar loop, and only
where an event would otherwise see counters the loop has not flushed
(DESIGN.md §9).
"""

from __future__ import annotations

from typing import List, Protocol, runtime_checkable

from repro.obs.events import CoopHit, Eviction, Spill, TraceEvent


@runtime_checkable
class TraceSink(Protocol):
    """Anything that can receive a stream of :class:`TraceEvent`.

    A sink that sets ``reads_every_event = False`` reads only
    capacity-flow events.  Unless a full sink shares its tracer, it
    receives the three frequent ones as fields, not events, so it must
    implement ``spill``, ``coop_hit`` and ``eviction`` with the
    signatures of the :class:`Tracer` methods of the same name
    (``eviction`` only ever for a cooperative eviction); there is no
    fallback to ``record``.  It receives the rarer capacity-flow events
    through ``record``, and must also accept ``skip(count)``: the
    number of other events the tracer counted without building.
    """

    def record(self, event: TraceEvent) -> None:
        """Consume one event."""
        ...


class Tracer:
    """Fan-out event bus; enabled iff it has at least one sink.

    ``full`` is true iff some sink reads every event.  ``unread``
    counts the events tracepoints counted without building since the
    last :meth:`flush`; only a tracer that is enabled and not full
    accumulates it.  ``events_emitted`` counts every event delivered
    (built or as fields) or counted, flushed or not.
    """

    __slots__ = ("enabled", "full", "unread", "_delivered", "_sinks")

    def __init__(self, *sinks: TraceSink) -> None:
        self._sinks: List[TraceSink] = []
        self.enabled: bool = False
        self.full: bool = False
        self.unread: int = 0
        # Events delivered, built or as fields, plus flushed unread ones.
        self._delivered: int = 0
        for sink in sinks:
            self.add_sink(sink)

    @property
    def events_emitted(self) -> int:
        """Every event delivered or counted so far, pending included."""
        return self._delivered + self.unread

    def add_sink(self, sink: TraceSink) -> None:
        """Attach another sink; enables the tracer.

        Pending unread events go to the sinks already attached first.
        """
        self.flush()
        self._sinks.append(sink)
        self.enabled = True
        if getattr(sink, "reads_every_event", True):
            self.full = True

    def remove_sink(self, sink: TraceSink) -> None:
        """Detach ``sink``; pending unread events reach it first."""
        self.flush()
        self._sinks.remove(sink)
        self.enabled = bool(self._sinks)
        self.full = any(
            getattr(other, "reads_every_event", True)
            for other in self._sinks
        )

    def emit(self, event: TraceEvent) -> None:
        """Deliver ``event`` to every sink (no-op without sinks)."""
        if not self._sinks:
            return
        self._delivered += 1
        for sink in self._sinks:
            sink.record(event)

    # The three frequent capacity-flow tracepoints.  Each takes its
    # event's fields in field order, and is called only while the
    # tracer is enabled, as every tracepoint tests first.

    def eviction(
        self, access: int, set_index: int, global_access: int,
        tag: int, dirty: bool, cooperative: bool,
    ) -> None:
        """Deliver an :class:`Eviction`, built only for a full tracer.

        A tracer that is not full is called only for a cooperative
        eviction; a plain one is counted in :attr:`unread` instead.
        """
        if self.full:
            self.emit(Eviction(access, set_index, global_access,
                               tag, dirty, cooperative))
        else:
            self._delivered += 1
            for sink in self._sinks:
                sink.eviction(access, set_index, global_access,
                              tag, dirty, cooperative)

    def spill(
        self, access: int, set_index: int, global_access: int,
        giver: int, tag: int, dirty: bool,
    ) -> None:
        """Deliver a :class:`Spill`, built only for a full tracer."""
        if self.full:
            self.emit(Spill(access, set_index, global_access,
                            giver, tag, dirty))
        else:
            self._delivered += 1
            for sink in self._sinks:
                sink.spill(access, set_index, global_access,
                           giver, tag, dirty)

    def coop_hit(
        self, access: int, set_index: int, global_access: int, giver: int,
    ) -> None:
        """Deliver a :class:`CoopHit`, built only for a full tracer."""
        if self.full:
            self.emit(CoopHit(access, set_index, global_access, giver))
        else:
            self._delivered += 1
            for sink in self._sinks:
                sink.coop_hit(access, set_index, global_access, giver)

    def flush(self) -> None:
        """Pass the pending :attr:`unread` count to every sink's ``skip``.

        Only a tracer that is not full counts unread events, so every
        sink attached accepts ``skip``.
        """
        count = self.unread
        if count:
            self.unread = 0
            self._delivered += count
            for sink in self._sinks:
                sink.skip(count)

    def close(self) -> None:
        """Flush, then close every sink that supports closing."""
        self.flush()
        for sink in self._sinks:
            closer = getattr(sink, "close", None)
            if closer is not None:
                closer()


#: Shared disabled tracer — the default for every cache scheme.  It is
#: intentionally a plain disabled :class:`Tracer` so the guarded hot
#: path is byte-for-byte the same whether a cache was built with no
#: tracer argument or with an explicit no-op.
NULL_TRACER = Tracer()
