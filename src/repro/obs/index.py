"""SQLite artifact index: one queryable catalog over every artifact.

Eight PRs of observability left the repo rich in artifacts — save_run
JSON files, campaign directories (journal + summary + quarantine),
``BENCH_HISTORY.jsonl`` — but each one is a file you must know the path
of, and nothing correlates them across runs.  :class:`ArtifactIndex`
fixes that: a stdlib-``sqlite3`` catalog (one file per workspace,
default :data:`DEFAULT_INDEX_PATH`) that ``repro index ingest``
populates idempotently and ``repro index query`` / ``repro serve``
read.

Ingestion contract
------------------
* **Idempotent.**  Runs are keyed by their result content digest (the
  same :func:`~repro.sim.campaign.result_digest` the campaign journal
  records), bench samples by ``(recorded_at, scheme)``, campaigns by
  spec digest.  Re-ingesting the same artifacts changes zero rows; the
  :class:`IngestReport` says exactly what was added, updated or left
  unchanged.  A campaign cell whose journaled digest already keys a
  run is not read from the run cache again.
* **Torn-tail tolerant.**  Campaign journals are replayed through
  :func:`~repro.sim.campaign.replay_journal` and the bench ledger
  through :func:`~repro.obs.benchhistory.load_history`, both of which
  tolerate a torn final line (:data:`repro.common.jsonl.TAIL`) —
  a crashed writer never blocks ingestion.
* **Defensive.**  A path that is not a recognised artifact is recorded
  in ``IngestReport.skipped`` with the reason, never raised.

Query surface
-------------
:meth:`ArtifactIndex.runs` (filter by scheme / benchmark / ingestion
time), :meth:`ArtifactIndex.trajectory` (one (scheme, benchmark)
pair's metric history in ingestion order), and
:meth:`ArtifactIndex.regressions` (bench-sample trajectories folded
back into ledger entries and judged by
:func:`~repro.obs.benchhistory.detect_regressions`).  Every query
returns plain sorted dicts so the CLI and the HTTP server emit
deterministic JSON.

The module deliberately avoids importing :mod:`repro.sim` at the top
level (sim imports obs, not vice versa); the sim helpers it reuses are
imported lazily inside the ingestion methods.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.benchhistory import (
    DEFAULT_REFERENCE_WINDOW,
    DEFAULT_REGRESSION_RATIO,
    detect_regressions,
    load_history,
)

#: Default index location: one file per workspace, beside
#: ``.repro-run-cache``.
DEFAULT_INDEX_PATH = ".repro-index.sqlite"

#: Schema version recorded in the ``meta`` table; mismatching indexes
#: are rebuilt from scratch (the index is derived data).
SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    hash TEXT PRIMARY KEY,
    manifest_hash TEXT,
    scheme TEXT NOT NULL,
    benchmark TEXT NOT NULL,
    mpki REAL NOT NULL,
    amat REAL NOT NULL,
    cpi REAL NOT NULL,
    miss_rate REAL NOT NULL,
    measured_accesses INTEGER NOT NULL,
    seed INTEGER,
    num_windows INTEGER NOT NULL,
    has_ledger INTEGER NOT NULL,
    source TEXT NOT NULL,
    ingested_at TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS runs_scheme_benchmark
    ON runs (scheme, benchmark);
CREATE TABLE IF NOT EXISTS campaigns (
    spec_digest TEXT PRIMARY KEY,
    name TEXT NOT NULL,
    total_cells INTEGER,
    completed INTEGER NOT NULL,
    quarantined INTEGER NOT NULL,
    truncated_journal INTEGER NOT NULL,
    source TEXT NOT NULL,
    ingested_at TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaign_cells (
    spec_digest TEXT NOT NULL,
    cell INTEGER NOT NULL,
    cell_id TEXT NOT NULL,
    status TEXT NOT NULL,
    digest TEXT,
    error_type TEXT,
    PRIMARY KEY (spec_digest, cell)
);
CREATE TABLE IF NOT EXISTS bench_samples (
    recorded_at TEXT NOT NULL,
    scheme TEXT NOT NULL,
    accesses_per_sec REAL NOT NULL,
    manifest_hash TEXT,
    package_version TEXT,
    PRIMARY KEY (recorded_at, scheme)
);
"""


@dataclass
class IngestReport:
    """What one :meth:`ArtifactIndex.ingest` call did, per table."""

    runs_added: int = 0
    runs_unchanged: int = 0
    campaigns_added: int = 0
    campaigns_updated: int = 0
    campaigns_unchanged: int = 0
    cells_added: int = 0
    cells_updated: int = 0
    cells_unchanged: int = 0
    samples_added: int = 0
    samples_unchanged: int = 0
    skipped: List[str] = field(default_factory=list)

    @property
    def changed(self) -> int:
        """Rows added or updated — zero when ingestion was a no-op."""
        return (
            self.runs_added + self.campaigns_added + self.campaigns_updated
            + self.cells_added + self.cells_updated + self.samples_added
        )

    def merge(self, other: "IngestReport") -> None:
        """Fold another report (one artifact's counts) into this one."""
        self.runs_added += other.runs_added
        self.runs_unchanged += other.runs_unchanged
        self.campaigns_added += other.campaigns_added
        self.campaigns_updated += other.campaigns_updated
        self.campaigns_unchanged += other.campaigns_unchanged
        self.cells_added += other.cells_added
        self.cells_updated += other.cells_updated
        self.cells_unchanged += other.cells_unchanged
        self.samples_added += other.samples_added
        self.samples_unchanged += other.samples_unchanged
        self.skipped.extend(other.skipped)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "runs": {
                "added": self.runs_added, "unchanged": self.runs_unchanged
            },
            "campaigns": {
                "added": self.campaigns_added,
                "updated": self.campaigns_updated,
                "unchanged": self.campaigns_unchanged,
            },
            "cells": {
                "added": self.cells_added,
                "updated": self.cells_updated,
                "unchanged": self.cells_unchanged,
            },
            "bench_samples": {
                "added": self.samples_added,
                "unchanged": self.samples_unchanged,
            },
            "changed": self.changed,
            "skipped": list(self.skipped),
        }

    def render(self) -> str:
        """One-line-per-table human summary for the CLI."""
        lines = [
            f"runs: {self.runs_added} added, "
            f"{self.runs_unchanged} unchanged",
            f"campaigns: {self.campaigns_added} added, "
            f"{self.campaigns_updated} updated, "
            f"{self.campaigns_unchanged} unchanged "
            f"({self.cells_added + self.cells_updated} cell row(s) "
            f"written)",
            f"bench samples: {self.samples_added} added, "
            f"{self.samples_unchanged} unchanged",
        ]
        for reason in self.skipped:
            lines.append(f"skipped: {reason}")
        return "\n".join(lines) + "\n"


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class ArtifactIndex:
    """The workspace's SQLite artifact catalog.

    ``path`` may be ``":memory:"`` for an ephemeral index (the default
    mode of ``repro serve``).  The connection allows cross-thread use
    and every public method holds an internal lock, so one index can
    back a :class:`~repro.obs.server` ``ThreadingHTTPServer``.
    """

    def __init__(
        self, path: Union[str, Path] = DEFAULT_INDEX_PATH
    ) -> None:
        self.path = str(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._connection = sqlite3.connect(
            self.path, check_same_thread=False
        )
        self._connection.row_factory = sqlite3.Row
        with self._lock:
            self._connection.executescript(_SCHEMA)
            self._connection.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)),
            )
            self._connection.commit()

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "ArtifactIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    def ingest(self, *paths: Union[str, Path]) -> IngestReport:
        """Idempotently ingest every artifact reachable from ``paths``.

        Each path may be a save_run JSON file, a campaign directory
        (holding ``campaign.jsonl``), a bench-history JSONL ledger, or
        a plain directory — which is scanned one level deep for run
        files and ledgers (telemetry status files are recognised and
        left alone).  Unrecognised paths land in ``report.skipped``.
        """
        report = IngestReport()
        for raw in paths:
            path = Path(raw)
            if path.is_dir():
                if (path / "campaign.jsonl").is_file():
                    report.merge(self._ingest_campaign_dir(path))
                else:
                    report.merge(self._ingest_plain_dir(path))
            elif path.is_file():
                report.merge(self._ingest_file(path, explicit=True))
            else:
                report.skipped.append(f"{path}: no such file or directory")
        return report

    def _ingest_file(self, path: Path, explicit: bool) -> IngestReport:
        """One file: a run JSON or a bench-history ledger.

        ``explicit`` paths that match neither shape are reported in
        ``skipped``; scanned directory children fail silently (a run
        dir legitimately holds ``status.json``, telemetry files, ...).
        """
        report = IngestReport()
        if path.suffix == ".jsonl":
            if self._try_ingest_history(path, report):
                return report
            if explicit:
                report.skipped.append(
                    f"{path}: not a bench-history ledger"
                )
            return report
        if self._try_ingest_run_file(path, report):
            return report
        if explicit:
            report.skipped.append(
                f"{path}: not a saved run file (see 'repro run "
                "--save-run')"
            )
        return report

    def _ingest_plain_dir(self, path: Path) -> IngestReport:
        """Scan a non-campaign directory one level deep."""
        report = IngestReport()
        for child in sorted(path.glob("*.json")):
            report.merge(self._ingest_file(child, explicit=False))
        for child in sorted(path.glob("*.jsonl")):
            report.merge(self._ingest_file(child, explicit=False))
        return report

    def _try_ingest_run_file(
        self, path: Path, report: IngestReport
    ) -> bool:
        from repro.common.errors import ReproError
        from repro.sim.cache import load_run
        from repro.sim.campaign import result_digest

        try:
            result = load_run(path)
        except ReproError:
            return False
        self._ingest_result(
            result, result_digest(result), source=str(path), report=report
        )
        return True

    def _holds_run(self, digest: str) -> bool:
        """Whether a ``runs`` row is keyed by ``digest``."""
        with self._lock:
            return self._connection.execute(
                "SELECT 1 FROM runs WHERE hash = ?", (digest,)
            ).fetchone() is not None

    def _ingest_result(
        self, result: Any, digest: str, source: str, report: IngestReport
    ) -> None:
        """Add ``result`` to ``runs`` unless its ``digest`` keys a row."""
        manifest = result.manifest
        with self._lock:
            if self._holds_run(digest):
                report.runs_unchanged += 1
                return
            self._connection.execute(
                "INSERT INTO runs (hash, manifest_hash, scheme, "
                "benchmark, mpki, amat, cpi, miss_rate, "
                "measured_accesses, seed, num_windows, has_ledger, "
                "source, ingested_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    digest,
                    manifest.content_hash if manifest is not None else None,
                    result.scheme,
                    result.trace_name,
                    result.mpki,
                    result.amat,
                    result.cpi,
                    result.miss_rate,
                    result.measured_accesses,
                    manifest.seed if manifest is not None else None,
                    (
                        result.series.num_windows
                        if result.series is not None else 0
                    ),
                    int(result.ledger is not None),
                    source,
                    _utc_now(),
                ),
            )
            self._connection.commit()
        report.runs_added += 1

    def _try_ingest_history(
        self, path: Path, report: IngestReport
    ) -> bool:
        from repro.common.errors import ReproError

        try:
            history = load_history(path)
        except ReproError:
            return False
        entries = [
            entry for entry in history
            if isinstance(entry.get("schemes"), dict)
            and entry.get("recorded_at")
        ]
        if not entries:
            return False
        with self._lock:
            for entry in entries:
                recorded_at = str(entry["recorded_at"])
                version = entry.get("package_version")
                for scheme, values in sorted(entry["schemes"].items()):
                    rate = values.get("accesses_per_sec")
                    if not isinstance(rate, (int, float)):
                        continue
                    existing = self._connection.execute(
                        "SELECT scheme FROM bench_samples "
                        "WHERE recorded_at = ? AND scheme = ?",
                        (recorded_at, scheme),
                    ).fetchone()
                    if existing is not None:
                        report.samples_unchanged += 1
                        continue
                    self._connection.execute(
                        "INSERT INTO bench_samples (recorded_at, scheme, "
                        "accesses_per_sec, manifest_hash, "
                        "package_version) VALUES (?, ?, ?, ?, ?)",
                        (
                            recorded_at,
                            scheme,
                            float(rate),
                            values.get("manifest_hash"),
                            version,
                        ),
                    )
                    report.samples_added += 1
            self._connection.commit()
        return True

    def _ingest_campaign_dir(self, path: Path) -> IngestReport:
        """Journal + summary + quarantine + cached cell results.

        The journal replay uses the campaign layer's own torn-tail
        tolerance; completed cells whose results are still present in
        the campaign's ``runcache/`` (digest-verified, exactly like
        resume) are ingested into the runs table so per-cell metrics
        become queryable.  A cell whose journaled digest already keys a
        ``runs`` row is counted unchanged without reading its entry:
        that row was digest-verified when it landed.  Every entry that
        is read is digested once.
        """
        from repro.common.errors import ReproError
        from repro.sim.cache import RunCache
        from repro.sim.campaign import replay_journal, result_digest

        report = IngestReport()
        try:
            state = replay_journal(path / "campaign.jsonl")
        except ReproError as exc:
            report.skipped.append(f"{path}: corrupt journal: {exc}")
            return report
        summary: Dict[str, Any] = {}
        summary_path = path / "summary.json"
        if summary_path.is_file():
            try:
                loaded = json.loads(
                    summary_path.read_text(encoding="utf-8")
                )
                if isinstance(loaded, dict):
                    summary = loaded
            except ValueError:
                pass
        digest = summary.get("spec_digest") or state.spec_digest
        if not isinstance(digest, str) or not digest:
            report.skipped.append(
                f"{path}: journal has no campaign_start record and no "
                "summary.json — cannot key the campaign"
            )
            return report
        name = str(
            summary.get("name") or state.name or path.name
        )
        total = summary.get("total_cells", state.total_cells)
        quarantined = summary.get("quarantined")
        quarantined_count = (
            len(quarantined) if isinstance(quarantined, list)
            else len(state.failed)
        )
        completed = summary.get("completed")
        if isinstance(completed, bool) or not isinstance(completed, int):
            completed = len(state.completed)
        self._upsert_campaign(
            report,
            digest=digest,
            name=name,
            total_cells=total if isinstance(total, int) else None,
            completed=completed,
            quarantined=quarantined_count,
            truncated=int(state.truncated),
            source=str(path),
        )
        for index in sorted(state.completed):
            record = state.completed[index]
            self._upsert_cell(
                report, digest, index,
                cell_id=str(record.get("id", "")),
                status="done",
                cell_digest=record.get("digest"),
                error_type=None,
            )
        for index in sorted(state.failed):
            record = state.failed[index]
            failure = record.get("failure", {})
            self._upsert_cell(
                report, digest, index,
                cell_id=str(record.get("id", "")),
                status="failed",
                cell_digest=None,
                error_type=str(failure.get("error_type", "?")),
            )
        run_cache_root = path / "runcache"
        if run_cache_root.is_dir():
            cache = RunCache(run_cache_root)
            for index in sorted(state.completed):
                record = state.completed[index]
                key = record.get("key")
                if not isinstance(key, str):
                    continue
                journaled = record.get("digest")
                if isinstance(journaled, str) and self._holds_run(
                    journaled
                ):
                    report.runs_unchanged += 1
                    continue
                result = cache.get(key)
                if result is None:
                    continue
                run_digest = result_digest(result)
                if run_digest != journaled:
                    continue
                self._ingest_result(
                    result,
                    run_digest,
                    source=str(cache.path_for(key)),
                    report=report,
                )
        return report

    def _upsert_campaign(
        self,
        report: IngestReport,
        digest: str,
        name: str,
        total_cells: Optional[int],
        completed: int,
        quarantined: int,
        truncated: int,
        source: str,
    ) -> None:
        values = (name, total_cells, completed, quarantined, truncated,
                  source)
        with self._lock:
            row = self._connection.execute(
                "SELECT name, total_cells, completed, quarantined, "
                "truncated_journal, source FROM campaigns "
                "WHERE spec_digest = ?",
                (digest,),
            ).fetchone()
            if row is not None and tuple(row) == values:
                report.campaigns_unchanged += 1
                return
            if row is None:
                self._connection.execute(
                    "INSERT INTO campaigns (spec_digest, name, "
                    "total_cells, completed, quarantined, "
                    "truncated_journal, source, ingested_at) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    (digest,) + values + (_utc_now(),),
                )
                report.campaigns_added += 1
            else:
                # A resumed campaign legitimately advances in place.
                self._connection.execute(
                    "UPDATE campaigns SET name = ?, total_cells = ?, "
                    "completed = ?, quarantined = ?, "
                    "truncated_journal = ?, source = ?, ingested_at = ? "
                    "WHERE spec_digest = ?",
                    values + (_utc_now(), digest),
                )
                report.campaigns_updated += 1
            self._connection.commit()

    def _upsert_cell(
        self,
        report: IngestReport,
        spec_digest: str,
        cell: int,
        cell_id: str,
        status: str,
        cell_digest: Optional[str],
        error_type: Optional[str],
    ) -> None:
        values = (cell_id, status, cell_digest, error_type)
        with self._lock:
            row = self._connection.execute(
                "SELECT cell_id, status, digest, error_type "
                "FROM campaign_cells "
                "WHERE spec_digest = ? AND cell = ?",
                (spec_digest, cell),
            ).fetchone()
            if row is not None and tuple(row) == values:
                report.cells_unchanged += 1
                return
            if row is None:
                self._connection.execute(
                    "INSERT INTO campaign_cells (spec_digest, cell, "
                    "cell_id, status, digest, error_type) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (spec_digest, cell) + values,
                )
                report.cells_added += 1
            else:
                # A quarantined cell can become done after a resume.
                self._connection.execute(
                    "UPDATE campaign_cells SET cell_id = ?, status = ?, "
                    "digest = ?, error_type = ? "
                    "WHERE spec_digest = ? AND cell = ?",
                    values + (spec_digest, cell),
                )
                report.cells_updated += 1
            self._connection.commit()

    # ------------------------------------------------------------------
    # Queries (all results are plain sorted dicts)
    # ------------------------------------------------------------------

    _RUN_COLUMNS = (
        "hash", "manifest_hash", "scheme", "benchmark", "mpki", "amat",
        "cpi", "miss_rate", "measured_accesses", "seed", "num_windows",
        "has_ledger", "source", "ingested_at",
    )

    @staticmethod
    def _run_row(row: sqlite3.Row) -> Dict[str, Any]:
        record = {name: row[name] for name in ArtifactIndex._RUN_COLUMNS}
        record["has_ledger"] = bool(record["has_ledger"])
        return record

    def runs(
        self,
        scheme: Optional[str] = None,
        benchmark: Optional[str] = None,
        since: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Indexed runs, sorted by (scheme, benchmark, hash).

        ``scheme`` matches case-insensitively (display names like
        ``STEM`` and factory keys like ``stem`` both work); ``since``
        is an ISO-8601 lower bound on ingestion time.
        """
        clauses, params = [], []
        if scheme is not None:
            clauses.append("lower(scheme) = lower(?)")
            params.append(scheme)
        if benchmark is not None:
            clauses.append("benchmark = ?")
            params.append(benchmark)
        if since is not None:
            clauses.append("ingested_at >= ?")
            params.append(since)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        with self._lock:
            rows = self._connection.execute(
                "SELECT * FROM runs" + where
                + " ORDER BY scheme, benchmark, hash",
                params,
            ).fetchall()
        return [self._run_row(row) for row in rows]

    def run(self, digest: str) -> Optional[Dict[str, Any]]:
        """One run by content hash; a unique prefix also resolves."""
        with self._lock:
            row = self._connection.execute(
                "SELECT * FROM runs WHERE hash = ?", (digest,)
            ).fetchone()
            if row is not None:
                return self._run_row(row)
            rows = self._connection.execute(
                "SELECT * FROM runs WHERE hash LIKE ? "
                "ORDER BY hash LIMIT 2",
                (digest + "%",),
            ).fetchall()
        if len(rows) == 1:
            return self._run_row(rows[0])
        return None

    def trajectory(
        self, scheme: str, benchmark: str
    ) -> List[Dict[str, Any]]:
        """One (scheme, benchmark) pair's runs in ingestion order.

        The cross-run view behind metric-drift questions: each element
        carries the scalar metrics plus the provenance hashes, oldest
        ingestion first.
        """
        with self._lock:
            rows = self._connection.execute(
                "SELECT * FROM runs WHERE lower(scheme) = lower(?) "
                "AND benchmark = ? ORDER BY rowid",
                (scheme, benchmark),
            ).fetchall()
        return [self._run_row(row) for row in rows]

    def campaigns(self) -> List[Dict[str, Any]]:
        """Indexed campaigns, sorted by (name, spec_digest)."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT * FROM campaigns ORDER BY name, spec_digest"
            ).fetchall()
        return [
            {
                "spec_digest": row["spec_digest"],
                "name": row["name"],
                "total_cells": row["total_cells"],
                "completed": row["completed"],
                "quarantined": row["quarantined"],
                "truncated_journal": bool(row["truncated_journal"]),
                "source": row["source"],
                "ingested_at": row["ingested_at"],
            }
            for row in rows
        ]

    def bench_history(self) -> List[Dict[str, Any]]:
        """Bench samples folded back into ledger-shaped entries.

        Reconstructs the ``BENCH_HISTORY.jsonl`` entry shape (grouped
        by ``recorded_at``, oldest first) so the existing
        :func:`~repro.obs.benchhistory.detect_regressions` applies
        unchanged.
        """
        with self._lock:
            rows = self._connection.execute(
                "SELECT recorded_at, scheme, accesses_per_sec, "
                "manifest_hash FROM bench_samples "
                "ORDER BY recorded_at, scheme"
            ).fetchall()
        entries: List[Dict[str, Any]] = []
        for row in rows:
            if not entries or entries[-1]["recorded_at"] != row["recorded_at"]:
                entries.append(
                    {"recorded_at": row["recorded_at"], "schemes": {}}
                )
            entries[-1]["schemes"][row["scheme"]] = {
                "accesses_per_sec": row["accesses_per_sec"],
                "manifest_hash": row["manifest_hash"],
            }
        return entries

    def regressions(
        self,
        window: int = DEFAULT_REFERENCE_WINDOW,
        ratio: float = DEFAULT_REGRESSION_RATIO,
    ) -> List[Dict[str, Any]]:
        """Per-scheme trajectory verdicts over the indexed samples."""
        return [
            verdict.as_dict()
            for verdict in detect_regressions(
                self.bench_history(), ratio=ratio, reference_window=window
            )
        ]

    def stats(self) -> Dict[str, int]:
        """Row counts per table (the observatory front page)."""
        with self._lock:
            return {
                table: self._connection.execute(
                    f"SELECT COUNT(*) FROM {table}"  # fixed identifiers
                ).fetchone()[0]
                for table in (
                    "runs", "campaigns", "campaign_cells", "bench_samples"
                )
            }
