"""The event bus: a tracer object injected into every cache scheme.

Design goal: **zero overhead when disabled**.  Every cache holds a
:class:`Tracer` (defaulting to the shared :data:`NULL_TRACER`), and each
tracepoint is guarded::

    tracer = self.tracer
    if tracer.enabled:
        tracer.emit(Eviction(...))

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

:meth:`Tracer.flush` hands the pending count to every sink's
``skip(count)`` in one call.  The simulator flushes at the end of each
run, before it seals a ledger; :meth:`Tracer.close` and
:meth:`Tracer.add_sink` flush first, so a sink never receives counts
from before it joined.

Only a full sink sends a batch path back to the scalar loop, and only
where an event would otherwise see counters the loop has not flushed
(DESIGN.md §9).
"""

from __future__ import annotations

from typing import List, Protocol, runtime_checkable

from repro.obs.events import TraceEvent


@runtime_checkable
class TraceSink(Protocol):
    """Anything that can receive a stream of :class:`TraceEvent`.

    A sink that sets ``reads_every_event = False`` reads only
    capacity-flow events and must also accept ``skip(count)``: the
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
    accumulates it.  ``events_emitted`` counts built and counted events
    alike, flushed or not.
    """

    __slots__ = ("enabled", "full", "unread", "_delivered", "_sinks")

    def __init__(self, *sinks: TraceSink) -> None:
        self._sinks: List[TraceSink] = []
        self.enabled: bool = False
        self.full: bool = False
        self.unread: int = 0
        # Built events plus flushed unread ones.
        self._delivered: int = 0
        for sink in sinks:
            self.add_sink(sink)

    @property
    def events_emitted(self) -> int:
        """Every event built or counted so far, pending ones included."""
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

    def emit(self, event: TraceEvent) -> None:
        """Deliver ``event`` to every sink (no-op without sinks)."""
        if not self._sinks:
            return
        self._delivered += 1
        for sink in self._sinks:
            sink.record(event)

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
