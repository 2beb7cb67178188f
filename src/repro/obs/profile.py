"""Hot-loop profiling: wall-clock phase timers around simulation runs.

:func:`~repro.sim.simulator.run_trace` always times its warm-up and
measured loops with :func:`time.perf_counter` and records them in the
run manifest; this module aggregates those timings across runs:

* :class:`RunProfiler` — collect per-run phase timings from the
  ``RunResult`` objects a grid returned (the CLI feeds it), render a
  text report, and export a ``pytest-benchmark``-style JSON document
  (compatible with the ``BENCH_*.json`` artefacts the benchmark
  harness produces) so later optimisation PRs can diff throughput.
* :class:`PhaseTimer` — a context manager for timing arbitrary blocks
  (the ``figure --profile`` CLI path wraps whole figure regenerations).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Union

from repro.common.io import atomic_write_text
from repro.obs.manifest import host_platform


@dataclass(frozen=True)
class ProfileRecord:
    """Phase timings of one (scheme, trace) run."""

    scheme: str
    trace_name: str
    warmup_seconds: float
    measured_seconds: float
    measured_accesses: int

    @property
    def wall_clock_seconds(self) -> float:
        """Warm-up plus measured wall-clock."""
        return self.warmup_seconds + self.measured_seconds

    @property
    def accesses_per_second(self) -> float:
        """Measured-phase simulation throughput."""
        if self.measured_seconds <= 0.0:
            return 0.0
        return self.measured_accesses / self.measured_seconds


class PhaseTimer:
    """Context manager timing one named phase with ``perf_counter``."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.seconds = 0.0
        self._start: Optional[float] = None

    def __enter__(self) -> "PhaseTimer":
        self._start = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._start is not None:
            self.seconds = perf_counter() - self._start
            self._start = None


class RunProfiler:
    """Accumulates :class:`ProfileRecord` rows across a batch of runs.

    When a grid ran with a content-addressed run cache, its caller
    passes the cache's counters to :meth:`note_run_cache` so the report
    can show how much simulation the cache avoided.
    """

    def __init__(self) -> None:
        self.records: List[ProfileRecord] = []
        self.run_cache_hits = 0
        self.run_cache_misses = 0
        self.run_cache_corrupt = 0

    def note_run_cache(
        self, hits: int, misses: int, corrupt: int = 0
    ) -> None:
        """Record run-cache traffic observed by a grid run.

        ``corrupt`` counts entries the cache quarantined (renamed to
        ``<key>.corrupt``) because they were unreadable — surfaced here
        so a damaged cache directory is visible in the profile report
        instead of hiding inside the miss count.
        """
        self.run_cache_hits += hits
        self.run_cache_misses += misses
        self.run_cache_corrupt += corrupt

    def add(self, result: Any) -> Optional[ProfileRecord]:
        """Ingest one ``RunResult`` (reads its attached manifest).

        Scheme and trace come from the manifest too, so a campaign's
        relabelled results (``DIP@64x8#s2``) still group by scheme.
        """
        manifest = getattr(result, "manifest", None)
        if manifest is None:
            return None
        record = ProfileRecord(
            scheme=manifest.scheme,
            trace_name=manifest.trace_name,
            warmup_seconds=manifest.warmup_seconds,
            measured_seconds=manifest.measured_seconds,
            measured_accesses=manifest.measured_accesses,
        )
        self.records.append(record)
        return record

    def per_scheme(self) -> Dict[str, Dict[str, float]]:
        """Aggregate totals per scheme: seconds, accesses, accesses/sec."""
        table: Dict[str, Dict[str, float]] = {}
        for record in self.records:
            row = table.setdefault(
                record.scheme,
                {"runs": 0, "warmup_s": 0.0, "measured_s": 0.0,
                 "accesses": 0, "accesses_per_sec": 0.0},
            )
            row["runs"] += 1
            row["warmup_s"] += record.warmup_seconds
            row["measured_s"] += record.measured_seconds
            row["accesses"] += record.measured_accesses
        for row in table.values():
            if row["measured_s"] > 0.0:
                row["accesses_per_sec"] = row["accesses"] / row["measured_s"]
        return table

    def render(self) -> str:
        """Plain-text profile report (the ``--profile`` CLI output)."""
        lines = [
            f"{'scheme':>12s} {'runs':>5s} {'warmup_s':>9s} "
            f"{'measured_s':>11s} {'acc/sec':>12s}"
        ]
        for scheme, row in self.per_scheme().items():
            lines.append(
                f"{scheme:>12s} {int(row['runs']):>5d} "
                f"{row['warmup_s']:>9.3f} {row['measured_s']:>11.3f} "
                f"{row['accesses_per_sec']:>12,.0f}"
            )
        total_s = sum(r.wall_clock_seconds for r in self.records)
        lines.append(f"total simulation wall-clock: {total_s:.3f}s "
                     f"over {len(self.records)} run(s)")
        if self.run_cache_hits or self.run_cache_misses:
            line = (
                f"run cache: {self.run_cache_hits} hit(s), "
                f"{self.run_cache_misses} miss(es)"
            )
            if self.run_cache_corrupt:
                line += (
                    f", {self.run_cache_corrupt} corrupt "
                    f"entr{'y' if self.run_cache_corrupt == 1 else 'ies'} "
                    "quarantined"
                )
            lines.append(line)
        return "\n".join(lines)

    def to_bench_json(self) -> Dict[str, Any]:
        """A ``pytest-benchmark``-shaped document of the collected runs.

        Benchmarks are sorted by (group, name) so the JSON is
        byte-stable regardless of the order runs were collected —
        parallel grids complete cells in scheduling order, and
        ``--profile-json`` artefacts must still diff cleanly.
        """
        benchmarks = []
        for record in self.records:
            seconds = record.measured_seconds
            benchmarks.append({
                "name": f"{record.scheme}[{record.trace_name}]",
                "group": record.scheme,
                "params": {"trace": record.trace_name},
                "stats": {
                    "min": seconds,
                    "max": seconds,
                    "mean": seconds,
                    "stddev": 0.0,
                    "rounds": 1,
                    "ops": record.accesses_per_second,
                },
                "extra_info": {
                    "warmup_seconds": record.warmup_seconds,
                    "measured_accesses": record.measured_accesses,
                },
            })
        benchmarks.sort(key=lambda row: (row["group"], row["name"]))
        document: Dict[str, Any] = {
            "machine_info": {
                "python_version": sys.version.split()[0],
                "platform": host_platform(),
            },
            "benchmarks": benchmarks,
        }
        if self.run_cache_hits or self.run_cache_misses:
            document["run_cache"] = {
                "hits": self.run_cache_hits,
                "misses": self.run_cache_misses,
            }
            if self.run_cache_corrupt:
                document["run_cache"]["corrupt"] = self.run_cache_corrupt
        return document

    def save_bench_json(self, path: Union[str, Path]) -> None:
        """Write :meth:`to_bench_json` to ``path`` atomically."""
        atomic_write_text(
            path,
            json.dumps(self.to_bench_json(), indent=2, sort_keys=True),
        )
