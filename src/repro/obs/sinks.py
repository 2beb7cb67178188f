"""Concrete trace sinks: in-memory ring buffer and JSONL files.

:class:`RingBufferSink` keeps the last ``capacity`` events (or all of
them) for in-process analysis; :class:`JsonlSink` streams events to a
newline-delimited-JSON file that :func:`load_events` reads back into
typed events — the archival format the ``repro trace`` command writes.
"""

from __future__ import annotations

import atexit
import json
import warnings
from collections import deque
from pathlib import Path
from typing import Deque, List, Optional, TextIO, Tuple, Union

from repro.common.errors import ConfigError
from repro.common.jsonl import SKIP, STRICT, JsonlCorruption, read_jsonl
from repro.obs.events import TraceEvent, event_from_dict


class RingBufferSink:
    """Keep the most recent ``capacity`` events in memory.

    ``capacity=None`` keeps everything — convenient for tests and the
    inspection helpers; bound it for long traces.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise ConfigError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._buffer: Deque[TraceEvent] = deque(maxlen=capacity)
        self.total_recorded = 0

    def record(self, event: TraceEvent) -> None:
        """Append ``event``, dropping the oldest when full."""
        self._buffer.append(event)
        self.total_recorded += 1

    @property
    def dropped(self) -> int:
        """How many events fell off the ring."""
        return self.total_recorded - len(self._buffer)

    @property
    def events(self) -> List[TraceEvent]:
        """Snapshot of the retained events, oldest first."""
        return list(self._buffer)

    def __len__(self) -> int:
        return len(self._buffer)

    def clear(self) -> None:
        """Drop all retained events (keeps ``total_recorded``)."""
        self._buffer.clear()


class JsonlSink:
    """Stream events to a JSON-lines file (one event dict per line).

    ``flush_every=N`` flushes the OS buffer every N events so a crashed
    run loses at most N events (plus, at worst, one truncated final
    line, which :func:`load_events` can be asked to tolerate); the
    default keeps normal Python buffering for throughput.

    Every open sink registers an ``atexit`` close, so a process that
    exits without unwinding (a pool worker hitting ``os._exit`` paths,
    a script that forgets the ``with`` block) still flushes its tail
    events; an explicit :meth:`close` unregisters it again.
    """

    def __init__(
        self, path: Union[str, Path], flush_every: int = 0
    ) -> None:
        if flush_every < 0:
            raise ConfigError(
                f"flush_every must be >= 0, got {flush_every}"
            )
        self.path = Path(path)
        self.flush_every = flush_every
        self._handle: Optional[TextIO] = self.path.open("w", encoding="utf-8")
        self.total_recorded = 0
        atexit.register(self.close)

    def record(self, event: TraceEvent) -> None:
        """Serialise one event as a JSON line."""
        if self._handle is None:
            raise ConfigError(f"JsonlSink {self.path} is closed")
        self._handle.write(json.dumps(event.as_dict()) + "\n")
        self.total_recorded += 1
        if self.flush_every and self.total_recorded % self.flush_every == 0:
            self._handle.flush()

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            atexit.unregister(self.close)

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class FilteredSink:
    """Forward only the named event kinds to a wrapped sink.

    The filter sits between the tracer and any concrete sink, so
    ``repro trace --kinds coupling,policy_swap`` records a focused log
    without changing emission: the cache still runs every tracepoint
    (tracing semantics, clocks and stats are untouched), only the
    persisted stream shrinks.  ``total_filtered`` counts what was
    dropped.
    """

    def __init__(self, sink, kinds) -> None:
        self.sink = sink
        self.kinds = frozenset(kinds)
        if not self.kinds:
            raise ConfigError("FilteredSink needs at least one event kind")
        self.total_filtered = 0

    def record(self, event: TraceEvent) -> None:
        if event.kind in self.kinds:
            self.sink.record(event)
        else:
            self.total_filtered += 1

    def close(self) -> None:
        close = getattr(self.sink, "close", None)
        if close is not None:
            close()


def load_events(
    path: Union[str, Path], strict: bool = True
) -> List[TraceEvent]:
    """Read a JSONL event log back into typed events.

    With ``strict=False`` every unreadable line — malformed JSON (a
    process killed mid-write, or a crash-restart writer that tore a
    line mid-file) or a record no registered event type accepts (a log
    from a newer writer) — is skipped: the readable events are returned
    and a single :class:`UserWarning` reports which lines were dropped.
    Under ``strict=True`` (the default) the first bad line, a final
    line without its newline included, raises
    :class:`~repro.common.errors.ConfigError` naming it.
    """
    events, skipped = load_events_report(path, strict=strict)
    if skipped:
        listed = ", ".join(str(number) for number in skipped[:8])
        if len(skipped) > 8:
            listed += f", ... ({len(skipped)} total)"
        warnings.warn(
            f"{path}: skipped unreadable event line(s) {listed} "
            f"({len(events)} events recovered)",
            stacklevel=2,
        )
    return events


def load_events_report(
    path: Union[str, Path], strict: bool = True
) -> Tuple[List[TraceEvent], List[int]]:
    """Like :func:`load_events`, reporting which lines were skipped.

    Returns ``(events, skipped_line_numbers)``; the second element is
    empty for a clean log.  Under ``strict=True`` nothing is ever
    skipped — the first unreadable line raises instead — so the report
    form only adds information with ``strict=False``.
    """
    try:
        read = read_jsonl(
            path, STRICT if strict else SKIP, convert=event_from_dict
        )
    except JsonlCorruption as exc:
        raise ConfigError(f"{path}:{exc.line}: malformed event line") from exc
    return read.records, read.skipped
