"""Live fleet telemetry: cross-process spans, heartbeats and samples.

A thousand-cell grid running under the
:class:`~repro.sim.parallel.ParallelRunner` used to be a black box until
the final matrix came back.  This module is the *write side* of the
control plane that fixes that: every run directory becomes a per-run
telemetry channel of append-only JSONL status files

* ``grid.jsonl`` — written by the **parent**: the grid span, one
  ``cell_plan`` record per cell (label, workload, expected accesses),
  cache hits, and completion records as workers report back;
* ``cells/cell-NNNNN.jsonl`` — written by the **worker** executing that
  cell: a cell span nested under the grid span, ``phase`` spans
  (warm-up / measured) nested under the cell, wall-clock-throttled
  heartbeats carrying a resource sample (RSS, CPU time, GC collections,
  accesses/sec), retry attempts, and the final status.

The read side — merging, stall verdicts, ETA, ``repro top`` — lives in
:mod:`repro.obs.fleet`.

Span hierarchy
--------------
``grid-<id>`` → ``grid-<id>/cell-NNNNN`` → phase (``warmup`` /
``measured``).  Cell span ids are a pure function of the grid span id
and the cell index, so the parent can describe a span (in
``cell_plan``) before any worker exists, and the worker derives the
same id from the :class:`TelemetrySpec` it was handed — no id handshake
crosses the process boundary.

Zero-overhead contract (extends DESIGN.md §10)
----------------------------------------------
Exactly like the :class:`~repro.obs.tracer.Tracer` and the metrics
registry, telemetry costs nothing unless armed: with
``telemetry=None`` (the default everywhere) the simulation loop is
byte-identical to the uninstrumented path.  When armed, the hot loop is
chunked on the same stride the watchdog already uses and the beat
callback throttles itself by wall clock, so writes happen a few times
per second regardless of simulation speed.  Telemetry never touches
scheme state, RNG draws, or statistics — results are byte-identical
with it on or off.

Crash behaviour: status files are appended line-by-line and flushed per
event, and writers register an ``atexit`` flush, so a dying worker
loses at most one truncated final line — which the reader skips, like
any damaged line, under :data:`repro.common.jsonl.SKIP`.
"""

from __future__ import annotations

import gc
import os
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.common.jsonl import SKIP, JsonlAppender, read_jsonl

try:  # resource is POSIX-only; telemetry degrades gracefully without it
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

#: Subdirectory of the run dir holding per-cell status files.
CELLS_DIR = "cells"

#: Default wall-clock spacing between heartbeat lines.
DEFAULT_HEARTBEAT_SECONDS = 0.25


def new_grid_span_id() -> str:
    """A fresh, process-unique grid span id."""
    return f"grid-{uuid.uuid4().hex[:10]}"


def cell_span_id(grid_span: str, index: int) -> str:
    """The cell span id for ``index`` under ``grid_span``.

    Deterministic so parent (planning) and worker (executing) name the
    same span without coordination.
    """
    return f"{grid_span}/cell-{index:05d}"


def cell_status_path(run_dir: Union[str, Path], index: int) -> Path:
    """Where cell ``index`` writes its status file."""
    return Path(run_dir) / CELLS_DIR / f"cell-{index:05d}.jsonl"


def _rss_kb() -> Optional[int]:
    """Current resident set size in KiB, or None if unknowable.

    Prefers ``/proc/self/statm`` (instantaneous) and falls back to
    ``ru_maxrss`` (high-water mark) where /proc is unavailable.
    """
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            pages = int(handle.read().split()[1])
        return pages * (os.sysconf("SC_PAGE_SIZE") // 1024)
    except (OSError, ValueError, IndexError):
        pass
    if resource is not None:
        try:
            return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        except OSError:  # pragma: no cover - getrusage basically never fails
            pass
    return None


def _gc_collections() -> int:
    """Total collections across all generations since interpreter start."""
    return sum(stat["collections"] for stat in gc.get_stats())


def resource_sample() -> Dict[str, Any]:
    """One point-in-time worker resource sample."""
    return {
        "rss_kb": _rss_kb(),
        "cpu_seconds": round(time.process_time(), 6),
        "gc_collections": _gc_collections(),
    }


@dataclass(frozen=True)
class TelemetrySpec:
    """Picklable description of the telemetry channel for one grid.

    The :class:`~repro.sim.parallel.ParallelRunner` builds one of these
    per run and ships it alongside each :class:`CellSpec` into the pool
    workers; a worker combines it with the cell index to reconstruct
    its span id and status-file path.  ``None`` (everywhere it is
    accepted) means telemetry is disabled and costs nothing.
    """

    run_dir: str
    grid_span: str
    heartbeat_seconds: float = DEFAULT_HEARTBEAT_SECONDS


class CellTelemetry:
    """Worker-side status writer for one grid cell.

    Emits the cell span, nested phase spans, throttled heartbeats with
    resource samples, retry attempts and the final verdict into the
    cell's status file.  Handed down ``guarded_run`` → ``run_trace`` →
    the chunked simulation loop, whose per-chunk callback is
    :meth:`beat`.
    """

    def __init__(
        self,
        spec: TelemetrySpec,
        index: int,
        label: str,
        workload: str,
    ) -> None:
        self.spec = spec
        self.index = index
        self.label = label
        self.workload = workload
        self.span_id = cell_span_id(spec.grid_span, index)
        self._writer = JsonlAppender(cell_status_path(spec.run_dir, index))
        self._phase: Optional[str] = None
        self._last_beat_time = 0.0
        self._last_beat_accesses = 0

    def _emit(self, kind: str, **fields: Any) -> None:
        record = {
            "kind": kind,
            "cell": self.index,
            "t": round(time.time(), 6),
        }
        record.update(fields)
        self._writer.write(record)

    def cell_start(
        self,
        total_accesses: int,
        seed: int,
        watchdog_seconds: Optional[float] = None,
        max_attempts: int = 1,
    ) -> None:
        """Open the cell span (one per guarded run, before attempt 1)."""
        now = time.monotonic()
        self._last_beat_time = now
        self._last_beat_accesses = 0
        self._emit(
            "cell_start",
            span_id=self.span_id,
            parent=self.spec.grid_span,
            label=self.label,
            workload=self.workload,
            pid=os.getpid(),
            total_accesses=total_accesses,
            seed=seed,
            watchdog_seconds=watchdog_seconds,
            max_attempts=max_attempts,
            **resource_sample(),
        )

    def phase_start(self, phase: str, at_access: int) -> None:
        """Open a phase span (``warmup`` / ``measured``) under the cell."""
        self._phase = phase
        self._emit("phase_start", phase=phase, accesses=at_access)

    def phase_end(self, phase: str, at_access: int) -> None:
        """Close the current phase span."""
        self._phase = None
        self._emit("phase_end", phase=phase, accesses=at_access)

    def beat(self, accesses_done: int) -> None:
        """Heartbeat from the simulation loop (called every chunk).

        Throttled by wall clock: a line is written at most every
        ``heartbeat_seconds``, carrying the absolute access position,
        the accesses/sec since the previous beat, and a resource
        sample.  The un-throttled path is one ``monotonic()`` call and
        a comparison — invisible next to a chunk of simulated accesses.
        """
        now = time.monotonic()
        elapsed = now - self._last_beat_time
        if elapsed < self.spec.heartbeat_seconds:
            return
        rate = (accesses_done - self._last_beat_accesses) / elapsed
        self._last_beat_time = now
        self._last_beat_accesses = accesses_done
        self._emit(
            "heartbeat",
            phase=self._phase,
            accesses=accesses_done,
            rate=round(rate, 1),
            **resource_sample(),
        )

    def attempt_failed(self, attempt: int, seed: int, error: str) -> None:
        """Record one failed attempt (the RetryPolicy will reseed)."""
        self._emit("attempt_failed", attempt=attempt, seed=seed, error=error)

    def cell_end(
        self, status: str, error_type: Optional[str] = None
    ) -> None:
        """Close the cell span with its final verdict (``ok``/``failed``)."""
        self._emit(
            "cell_end",
            status=status,
            error_type=error_type,
            **resource_sample(),
        )

    def close(self) -> None:
        """Flush and close the status file (idempotent)."""
        self._writer.close()

    def __enter__(self) -> "CellTelemetry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class GridTelemetry:
    """Parent-side writer for the grid span and per-cell bookkeeping.

    The :class:`~repro.sim.parallel.ParallelRunner` opens one of these
    when a run directory is supplied: it plans every cell up front (so
    ``repro top`` can show pending work before any worker starts),
    records run-cache hits, and appends a completion record as each
    worker reports back.
    """

    def __init__(
        self,
        run_dir: Union[str, Path],
        heartbeat_seconds: float = DEFAULT_HEARTBEAT_SECONDS,
    ) -> None:
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        (self.run_dir / CELLS_DIR).mkdir(exist_ok=True)
        self.grid_span = new_grid_span_id()
        self.spec = TelemetrySpec(
            run_dir=str(self.run_dir),
            grid_span=self.grid_span,
            heartbeat_seconds=heartbeat_seconds,
        )
        self._writer = JsonlAppender(self.run_dir / "grid.jsonl")

    def _emit(self, kind: str, **fields: Any) -> None:
        record = {"kind": kind, "t": round(time.time(), 6)}
        record.update(fields)
        self._writer.write(record)

    def grid_start(self, total_cells: int) -> None:
        """Open the grid span."""
        self._emit(
            "grid_start",
            span_id=self.grid_span,
            pid=os.getpid(),
            total_cells=total_cells,
        )

    def cell_plan(
        self,
        index: int,
        label: str,
        workload: str,
        total_accesses: int,
        watchdog_seconds: Optional[float] = None,
    ) -> None:
        """Describe one cell before execution (pending state)."""
        self._emit(
            "cell_plan",
            cell=index,
            span_id=cell_span_id(self.grid_span, index),
            label=label,
            workload=workload,
            total_accesses=total_accesses,
            watchdog_seconds=watchdog_seconds,
        )

    def cell_cached(self, index: int) -> None:
        """Cell served from the content-addressed run cache."""
        self._emit("cell_cached", cell=index)

    def cell_done(self, index: int, status: str) -> None:
        """Parent-side completion record (``ok``/``failed``)."""
        self._emit("cell_done", cell=index, status=status)

    def grid_end(self) -> None:
        """Close the grid span."""
        self._emit("grid_end", span_id=self.grid_span)

    def close(self) -> None:
        """Flush and close the grid file (idempotent)."""
        self._writer.close()

    def __enter__(self) -> "GridTelemetry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_status_lines(
    path: Union[str, Path]
) -> Tuple[List[Dict[str, Any]], bool]:
    """Parse one append-only status file, tolerating a torn tail.

    Returns ``(records, truncated)``.  A torn final line is the
    signature of a process killed mid-write; it and a damaged line
    anywhere else are skipped and reported as ``truncated=True`` — the
    aggregator must never crash on a live, half written channel.
    """
    try:
        read = read_jsonl(path, SKIP)
    except OSError:
        return [], False
    records = [record for record in read.records if isinstance(record, dict)]
    return records, bool(read.skipped)
