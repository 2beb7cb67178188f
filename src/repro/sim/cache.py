"""Content-addressed run cache: skip cells that were already simulated.

A simulation cell is a pure function of its deterministic inputs —
scheme configuration, geometry, seed, trace content, warm-up split and
timing model — all of which are folded into the cell key by
:func:`~repro.sim.parallel.cell_cache_key`.  :class:`RunCache` persists
each finished :class:`~repro.sim.simulator.RunResult` as JSON under
that key (via ``atomic_write_text``, so a crash mid-store can never
leave a truncated entry), and repeated grid runs return the stored
result without simulating anything.

Only *successful first-attempt* results are stored: failures carry no
reusable state, and a retry-reseeded success was produced by a
different seed than the key claims.  Loading is defensive — a missing,
corrupt, or format-incompatible entry is simply a miss.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import fields
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.analysis.metrics import MetricSet
from repro.common.errors import ConfigError
from repro.common.io import atomic_write_text
from repro.common.stats import CacheStats
from repro.obs.ledger import RunLedger
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsSeries
from repro.sim.simulator import RunResult

#: Bumped whenever the stored layout changes; mismatches load as misses.
#: Format 2 added the optional windowed-metrics ``series`` payload; the
#: optional capacity-flow ``ledger`` key rides the same format because
#: it is emitted only when present — ledger-less entries keep their
#: exact pre-ledger bytes, and old entries load with ``ledger=None``.
_FORMAT = 2

#: Field names of the dataclasses a payload flattens, read once.
_STATS_FIELDS = tuple(spec.name for spec in fields(CacheStats))
_METRICS_FIELDS = tuple(spec.name for spec in fields(MetricSet))
_MANIFEST_FIELDS = tuple(spec.name for spec in fields(RunManifest))


def _field_dict(instance: Any, names: Tuple[str, ...]) -> Dict[str, Any]:
    return {name: getattr(instance, name) for name in names}


def result_to_dict(result: RunResult) -> Dict[str, Any]:
    """Flatten a :class:`RunResult` (and nested dataclasses) to JSON.

    The capacity-flow ``ledger`` is serialised only when present, so
    every ledger-less payload (including everything written before the
    field existed) keeps its exact bytes and digests.

    The payload is for serialising: each dataclass becomes one new dict
    (so a caller may drop a top-level key), but nested dicts such as
    ``stats["extra"]`` and the manifest's ``scheme_config`` are the
    result's own, not copies.  ``dataclasses.asdict`` would deep-copy
    them, at 15 to 50 times the cost per dataclass (DESIGN.md §9).
    """
    payload = {
        "scheme": result.scheme,
        "trace_name": result.trace_name,
        "stats": _field_dict(result.stats, _STATS_FIELDS),
        "measured_accesses": result.measured_accesses,
        "measured_instructions": result.measured_instructions,
        "metrics": _field_dict(result.metrics, _METRICS_FIELDS),
        "manifest": (
            _field_dict(result.manifest, _MANIFEST_FIELDS)
            if result.manifest is not None else None
        ),
        "series": (
            result.series.as_dict() if result.series is not None else None
        ),
    }
    if result.ledger is not None:
        payload["ledger"] = result.ledger.as_dict()
    return payload


def result_from_dict(payload: Dict[str, Any]) -> RunResult:
    """Rebuild a :class:`RunResult` stored by :func:`result_to_dict`."""
    manifest_payload = payload.get("manifest")
    series_payload = payload.get("series")
    ledger_payload = payload.get("ledger")
    return RunResult(
        scheme=payload["scheme"],
        trace_name=payload["trace_name"],
        stats=CacheStats(**payload["stats"]),
        measured_accesses=payload["measured_accesses"],
        measured_instructions=payload["measured_instructions"],
        metrics=MetricSet(**payload["metrics"]),
        manifest=(
            RunManifest(**manifest_payload)
            if manifest_payload is not None else None
        ),
        series=(
            MetricsSeries.from_dict(series_payload)
            if series_payload is not None else None
        ),
        ledger=(
            RunLedger.from_dict(ledger_payload)
            if ledger_payload is not None else None
        ),
    )


def save_run(path: Union[str, Path], result: RunResult) -> Path:
    """Persist a single :class:`RunResult` to ``path`` atomically.

    The document uses the same layout as a :class:`RunCache` entry
    (minus the cell key) so ``repro diff`` can consume either.  Written
    via ``atomic_write_text``: a crash mid-save never leaves a
    truncated file.
    """
    path = Path(path)
    document = {"format": _FORMAT, "result": result_to_dict(result)}
    atomic_write_text(path, json.dumps(document, sort_keys=True))
    return path


def load_run(path: Union[str, Path]) -> RunResult:
    """Load a run saved by :func:`save_run`.

    Unlike :meth:`RunCache.get` — where a bad entry is just a miss —
    an explicit file argument that cannot be loaded is a user error, so
    this raises :class:`~repro.common.errors.ConfigError` with the
    reason instead of returning None.
    """
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read run file {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"run file {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict) or document.get("format") != _FORMAT:
        raise ConfigError(
            f"run file {path} has format "
            f"{document.get('format') if isinstance(document, dict) else '?'}"
            f", expected {_FORMAT}"
        )
    try:
        return result_from_dict(document["result"])
    except (KeyError, TypeError, ConfigError) as exc:
        raise ConfigError(f"run file {path} is malformed: {exc}") from exc


class RunCache:
    """Directory-backed store of finished runs keyed by content hash.

    Entries are sharded by the first two hex digits of the key so a
    large grid does not put thousands of files in one directory.
    ``hits``/``misses`` count :meth:`get` outcomes for the profiler's
    report surface.

    A *corrupt* entry — present on disk but unreadable or
    format-incompatible — used to load as a silent miss on every
    lookup, invisibly re-simulating the cell each time the store path
    did not happen to replace it (failures and retry-reseeded successes
    are never stored).  Instead it is quarantined on first sight:
    renamed to ``<key>.corrupt`` beside its shard, counted in
    :attr:`corrupt_entries` (surfaced by
    :class:`~repro.obs.profile.RunProfiler`), and reported with one
    warning; the re-simulated result then stores cleanly.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.corrupt_entries = 0

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (whether or not it exists)."""
        return self.root / key[:2] / f"{key}.json"

    def _quarantine(self, path: Path, key: str, reason: str) -> None:
        """Move a corrupt entry aside so the miss cannot recur silently."""
        self.corrupt_entries += 1
        target = path.with_suffix(".corrupt")
        try:
            os.replace(path, target)
        except OSError:  # already moved / permission oddity: count anyway
            target = path
        warnings.warn(
            f"run cache entry {path} is corrupt ({reason}); "
            f"moved to {target}",
            stacklevel=3,
        )

    def get(self, key: str) -> Optional[RunResult]:
        """The stored result for ``key``, or None (counted as a miss).

        A missing entry is a plain miss; a *corrupt* one is quarantined
        (renamed to ``<key>.corrupt``) and counted before the miss is
        returned, so it can never masquerade as a silent miss twice.
        """
        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            self.misses += 1
            return None
        try:
            document = json.loads(text)
            if document.get("format") != _FORMAT:
                raise ValueError("format mismatch")
            if document.get("key") != key:
                raise ValueError("key mismatch")
            result = result_from_dict(document["result"])
        except (ValueError, KeyError, TypeError) as exc:
            self._quarantine(path, key, type(exc).__name__)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: RunResult) -> Path:
        """Persist ``result`` under ``key`` atomically; returns the path."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "format": _FORMAT,
            "key": key,
            "result": result_to_dict(result),
        }
        atomic_write_text(path, json.dumps(document, sort_keys=True))
        return path

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
