"""Fleet aggregation: merge telemetry channels into one live status.

This is the *read side* of :mod:`repro.obs.telemetry`: it folds a run
directory's ``grid.jsonl`` plus every ``cells/cell-NNNNN.jsonl`` into a
:class:`FleetStatus` — per-cell state machines, worker resource
samples, an ETA estimate, and **stall verdicts** that distinguish a
slow cell (heartbeats still arriving) from a stalled worker (heartbeats
stopped) long before the in-worker
:class:`~repro.common.errors.WatchdogTimeout` deadline fires.

The aggregator only ever reads; it is safe to run concurrently with the
grid it observes (``repro top``), from another process, or after the
fact.  Torn final lines — live writers, crashed workers — are
skipped, like any damaged line (:data:`repro.common.jsonl.SKIP`).

Cell states
-----------
``pending``  planned by the parent, no worker has started it
``cached``   served from the content-addressed run cache
``running``  cell span open, heartbeats arriving
``stalled``  cell span open but the newest event is older than
             ``stall_after`` — the verdict names the armed watchdog and
             when it will fire, so an operator (or CI) can act first
``done``     finished ``ok``
``failed``   finished ``failed`` (retries exhausted → RunFailure)
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.common.io import atomic_write_text
from repro.obs.telemetry import CELLS_DIR, read_status_lines

#: Heartbeat age (seconds) after which a running cell is called stalled.
DEFAULT_STALL_AFTER = 5.0


@dataclass
class CellFleetStatus:
    """Merged live view of one grid cell."""

    index: int
    label: str = "?"
    workload: str = "?"
    state: str = "pending"
    total_accesses: int = 0
    accesses_done: int = 0
    rate: float = 0.0
    phase: Optional[str] = None
    pid: Optional[int] = None
    seed: Optional[int] = None
    attempts_failed: int = 0
    error_type: Optional[str] = None
    rss_kb: Optional[int] = None
    cpu_seconds: Optional[float] = None
    gc_collections: Optional[int] = None
    watchdog_seconds: Optional[float] = None
    started_wall: Optional[float] = None
    finished_wall: Optional[float] = None
    last_event_wall: Optional[float] = None
    last_event_age: Optional[float] = None
    stall_verdict: Optional[str] = None

    @property
    def progress(self) -> float:
        """Fraction of the cell's accesses completed (0..1)."""
        if self.state in ("done", "cached"):
            return 1.0
        if self.total_accesses <= 0:
            return 0.0
        return min(1.0, self.accesses_done / self.total_accesses)

    def as_dict(self) -> Dict[str, Any]:
        """Flat JSON-serialisable view (``status.json`` rows)."""
        return {
            "index": self.index,
            "label": self.label,
            "workload": self.workload,
            "state": self.state,
            "total_accesses": self.total_accesses,
            "accesses_done": self.accesses_done,
            "progress": round(self.progress, 4),
            "rate": self.rate,
            "phase": self.phase,
            "pid": self.pid,
            "attempts_failed": self.attempts_failed,
            "error_type": self.error_type,
            "rss_kb": self.rss_kb,
            "cpu_seconds": self.cpu_seconds,
            "gc_collections": self.gc_collections,
            "watchdog_seconds": self.watchdog_seconds,
            "last_event_age": (
                round(self.last_event_age, 3)
                if self.last_event_age is not None else None
            ),
            "stall_verdict": self.stall_verdict,
        }


@dataclass
class FleetStatus:
    """Aggregated status of one grid run directory."""

    run_dir: str
    grid_span: Optional[str] = None
    grid_started: Optional[float] = None
    grid_finished: Optional[float] = None
    total_cells: int = 0
    cells: List[CellFleetStatus] = field(default_factory=list)
    stall_after: float = DEFAULT_STALL_AFTER
    observed_at: float = 0.0
    truncated_files: int = 0

    def counts(self) -> Dict[str, int]:
        """Cells per state, every state always present."""
        counts = {
            state: 0
            for state in (
                "pending", "cached", "running", "stalled", "done", "failed"
            )
        }
        for cell in self.cells:
            counts[cell.state] = counts.get(cell.state, 0) + 1
        return counts

    @property
    def finished(self) -> bool:
        """True when no cell can still make progress."""
        return all(
            cell.state in ("cached", "done", "failed") for cell in self.cells
        ) and (self.grid_finished is not None or not self.cells)

    @property
    def stalled_cells(self) -> List[CellFleetStatus]:
        """Cells currently holding a stall verdict."""
        return [cell for cell in self.cells if cell.state == "stalled"]

    def aggregate_rate(self) -> float:
        """Accesses/sec across live cells, falling back to finished ones.

        The live sum is the honest instantaneous throughput; when
        nothing is mid-flight (startup, or between completions) the
        mean effective rate of finished cells keeps the ETA defined.
        """
        live = sum(
            cell.rate for cell in self.cells
            if cell.state in ("running", "stalled") and cell.rate > 0
        )
        if live > 0:
            return live
        finished_rates = []
        for cell in self.cells:
            if cell.state != "done":
                continue
            if (
                cell.started_wall is not None
                and cell.finished_wall is not None
                and cell.finished_wall > cell.started_wall
                and cell.total_accesses > 0
            ):
                finished_rates.append(
                    cell.total_accesses
                    / (cell.finished_wall - cell.started_wall)
                )
        if finished_rates:
            return sum(finished_rates) / len(finished_rates)
        return 0.0

    def remaining_accesses(self) -> int:
        """Accesses not yet simulated across pending/live cells."""
        return sum(
            max(0, cell.total_accesses - cell.accesses_done)
            for cell in self.cells
            if cell.state in ("pending", "running", "stalled")
        )

    def eta_seconds(self) -> Optional[float]:
        """Estimated seconds to completion, or None when unknowable."""
        if self.finished:
            return 0.0
        rate = self.aggregate_rate()
        if rate <= 0:
            return None
        return self.remaining_accesses() / rate

    def as_dict(self) -> Dict[str, Any]:
        """The machine-readable ``status.json`` document."""
        eta = self.eta_seconds()
        return {
            "run_dir": self.run_dir,
            "grid_span": self.grid_span,
            "observed_at": round(self.observed_at, 3),
            "finished": self.finished,
            "total_cells": self.total_cells,
            "counts": self.counts(),
            "remaining_accesses": self.remaining_accesses(),
            "aggregate_rate": round(self.aggregate_rate(), 1),
            "eta_seconds": round(eta, 1) if eta is not None else None,
            "stall_after": self.stall_after,
            "truncated_files": self.truncated_files,
            "cells": [cell.as_dict() for cell in self.cells],
        }


def _apply_grid_records(
    status: FleetStatus, records: List[Dict[str, Any]],
    cells: Dict[int, CellFleetStatus],
) -> None:
    for record in records:
        kind = record.get("kind")
        if kind == "grid_start":
            status.grid_span = record.get("span_id")
            status.grid_started = record.get("t")
            status.total_cells = record.get("total_cells", 0)
        elif kind == "cell_plan":
            index = record.get("cell")
            if not isinstance(index, int):
                continue
            cell = cells.setdefault(index, CellFleetStatus(index=index))
            cell.label = record.get("label", cell.label)
            cell.workload = record.get("workload", cell.workload)
            cell.total_accesses = record.get(
                "total_accesses", cell.total_accesses
            )
            if record.get("watchdog_seconds") is not None:
                cell.watchdog_seconds = record["watchdog_seconds"]
        elif kind == "cell_cached":
            index = record.get("cell")
            if isinstance(index, int):
                cell = cells.setdefault(index, CellFleetStatus(index=index))
                cell.state = "cached"
        elif kind == "cell_done":
            # Authoritative only when the worker's own cell_end was lost
            # (torn tail): the parent saw the outcome either way.
            index = record.get("cell")
            if isinstance(index, int):
                cell = cells.setdefault(index, CellFleetStatus(index=index))
                if cell.state not in ("done", "failed", "cached"):
                    cell.state = (
                        "done" if record.get("status") == "ok" else "failed"
                    )
                    cell.finished_wall = record.get("t")
        elif kind == "grid_end":
            status.grid_finished = record.get("t")


def _apply_cell_records(
    cell: CellFleetStatus, records: List[Dict[str, Any]]
) -> None:
    for record in records:
        wall = record.get("t")
        if wall is not None:
            cell.last_event_wall = wall
        kind = record.get("kind")
        if kind == "cell_start":
            cell.state = "running"
            cell.started_wall = wall
            cell.label = record.get("label", cell.label)
            cell.workload = record.get("workload", cell.workload)
            cell.total_accesses = record.get(
                "total_accesses", cell.total_accesses
            )
            cell.pid = record.get("pid")
            cell.seed = record.get("seed")
            if record.get("watchdog_seconds") is not None:
                cell.watchdog_seconds = record["watchdog_seconds"]
            cell.accesses_done = 0
        elif kind == "phase_start":
            cell.phase = record.get("phase")
        elif kind == "phase_end":
            cell.phase = None
            if record.get("accesses") is not None:
                cell.accesses_done = record["accesses"]
        elif kind == "heartbeat":
            if record.get("accesses") is not None:
                cell.accesses_done = record["accesses"]
            cell.rate = record.get("rate", cell.rate) or 0.0
            cell.phase = record.get("phase", cell.phase)
            cell.rss_kb = record.get("rss_kb", cell.rss_kb)
            cell.cpu_seconds = record.get("cpu_seconds", cell.cpu_seconds)
            cell.gc_collections = record.get(
                "gc_collections", cell.gc_collections
            )
        elif kind == "attempt_failed":
            cell.attempts_failed += 1
        elif kind == "cell_end":
            cell.state = (
                "done" if record.get("status") == "ok" else "failed"
            )
            cell.error_type = record.get("error_type")
            cell.finished_wall = wall
            cell.rss_kb = record.get("rss_kb", cell.rss_kb)
            cell.cpu_seconds = record.get("cpu_seconds", cell.cpu_seconds)


def _stall_verdict(cell: CellFleetStatus, now_wall: float) -> str:
    """Human verdict for a heartbeat-silent cell.

    Names the existing watchdog machinery so the operator knows what
    happens next if nobody intervenes: either when the cooperative
    :class:`WatchdogTimeout` will convert the cell into a RunFailure,
    or that no deadline is armed and the stall can last forever.
    """
    age = now_wall - (cell.last_event_wall or now_wall)
    verdict = (
        f"no heartbeat for {age:.1f}s "
        f"(last at access {cell.accesses_done:,}/"
        f"{cell.total_accesses:,})"
    )
    if cell.watchdog_seconds is not None and cell.started_wall is not None:
        fires_in = cell.watchdog_seconds - (now_wall - cell.started_wall)
        if fires_in > 0:
            verdict += (
                f"; WatchdogTimeout fires in {fires_in:.1f}s"
            )
        else:
            verdict += "; WatchdogTimeout due — worker is wedged"
    else:
        verdict += "; no watchdog armed"
    return verdict


def load_fleet(
    run_dir: Union[str, Path],
    stall_after: float = DEFAULT_STALL_AFTER,
    now_wall: Optional[float] = None,
) -> FleetStatus:
    """Merge a run directory's telemetry channel into a FleetStatus.

    Works on a live directory (partial files, torn tails) as well as a
    finished one; a directory with no ``grid.jsonl`` — e.g. a single
    guarded run writing only its cell file — still aggregates from the
    cell files alone.
    """
    run_dir = Path(run_dir)
    now_wall = now_wall if now_wall is not None else time.time()
    status = FleetStatus(
        run_dir=str(run_dir), stall_after=stall_after, observed_at=now_wall
    )
    cells: Dict[int, CellFleetStatus] = {}
    grid_records, truncated = read_status_lines(run_dir / "grid.jsonl")
    status.truncated_files += int(truncated)
    _apply_grid_records(status, grid_records, cells)
    cached = {
        index for index, cell in cells.items() if cell.state == "cached"
    }
    for path in sorted((run_dir / CELLS_DIR).glob("cell-*.jsonl")):
        try:
            index = int(path.stem.split("-")[1])
        except (IndexError, ValueError):
            continue
        if index in cached:
            continue
        records, truncated = read_status_lines(path)
        status.truncated_files += int(truncated)
        cell = cells.setdefault(index, CellFleetStatus(index=index))
        _apply_cell_records(cell, records)
    for cell in cells.values():
        if cell.last_event_wall is not None:
            cell.last_event_age = max(0.0, now_wall - cell.last_event_wall)
        if (
            cell.state == "running"
            and cell.last_event_age is not None
            and cell.last_event_age > stall_after
        ):
            cell.state = "stalled"
            cell.stall_verdict = _stall_verdict(cell, now_wall)
    status.cells = [cells[index] for index in sorted(cells)]
    if status.total_cells == 0:
        status.total_cells = len(status.cells)
    return status


def write_status(
    run_dir: Union[str, Path], status: FleetStatus
) -> Path:
    """Atomically write the machine-readable ``status.json`` snapshot."""
    path = Path(run_dir) / "status.json"
    atomic_write_text(
        path,
        json.dumps(status.as_dict(), indent=2, sort_keys=True) + "\n",
    )
    return path


def _format_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "?"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


def _format_bar(progress: float, width: int = 20) -> str:
    filled = int(round(progress * width))
    return "#" * filled + "." * (width - filled)


def render_top(status: FleetStatus, max_rows: int = 40) -> str:
    """The ``repro top`` text view of one FleetStatus snapshot.

    Finished cells collapse into the summary line; live, stalled,
    failed and pending cells get rows (most interesting states first)
    so a thousand-cell sweep still fits a terminal.
    """
    counts = status.counts()
    eta = _format_eta(status.eta_seconds())
    lines = [
        f"fleet {status.grid_span or status.run_dir} — "
        f"{status.total_cells} cell(s): "
        f"{counts['done']} done, {counts['cached']} cached, "
        f"{counts['running']} running, {counts['stalled']} stalled, "
        f"{counts['failed']} failed, {counts['pending']} pending",
        f"throughput {status.aggregate_rate():,.0f} acc/s — "
        f"remaining {status.remaining_accesses():,} accesses — ETA {eta}",
    ]
    if status.truncated_files:
        lines.append(
            f"({status.truncated_files} status file(s) had torn final "
            f"lines — live writers or crashed workers)"
        )
    order = {"stalled": 0, "failed": 1, "running": 2, "pending": 3}
    rows = [cell for cell in status.cells if cell.state in order]
    rows.sort(key=lambda cell: (order[cell.state], cell.index))
    shown = rows[:max_rows]
    if shown:
        lines.append("")
        lines.append(
            f"{'cell':>6s} {'scheme':>12s} {'workload':>12s} "
            f"{'state':>8s} {'progress':>22s} {'acc/s':>10s} "
            f"{'rss':>8s} {'cpu':>7s}"
        )
    for cell in shown:
        rss = f"{cell.rss_kb // 1024}M" if cell.rss_kb else "-"
        cpu = (
            f"{cell.cpu_seconds:.1f}s" if cell.cpu_seconds is not None
            else "-"
        )
        bar = _format_bar(cell.progress)
        lines.append(
            f"{cell.index:>6d} {cell.label:>12s} {cell.workload:>12s} "
            f"{cell.state.upper() if cell.state == 'stalled' else cell.state:>8s} "
            f"[{bar}] {cell.rate:>10,.0f} {rss:>8s} {cpu:>7s}"
        )
    if len(rows) > len(shown):
        lines.append(f"... and {len(rows) - len(shown)} more")
    for cell in status.stalled_cells:
        lines.append(
            f"STALLED cell {cell.index} ({cell.label} on "
            f"{cell.workload}): {cell.stall_verdict}"
        )
    for cell in status.cells:
        if cell.state == "failed":
            lines.append(
                f"FAILED cell {cell.index} ({cell.label} on "
                f"{cell.workload}): {cell.error_type or 'error'}"
            )
    return "\n".join(lines) + "\n"
