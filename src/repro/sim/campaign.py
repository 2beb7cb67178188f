"""Crash-recoverable campaigns: declarative specs, journal, resume.

A *campaign* is the production shape of an experiment grid: a JSON (or
TOML, Python 3.11+) spec names benchmark sets, schemes, geometries,
seeds and optional fault plans; the cross product becomes ordered
cells, each executed as a :class:`~repro.sim.parallel.CellSpec` through
:class:`~repro.sim.parallel.ParallelRunner` and the content-addressed
:class:`~repro.sim.cache.RunCache`.

What distinguishes a campaign from ``repro bench`` is the durability
contract (DESIGN.md §12):

* Every cell transition is journaled to an append-only
  ``campaign.jsonl`` — ``cell_start`` when a cell is handed to a
  worker, ``cell_done`` (with the result's content digest and cache
  key) or ``cell_failed`` (with the structured
  :class:`~repro.sim.results.RunFailure`) when it lands.  Each record
  is flushed **and fsynced** before the campaign moves on, so a
  ``SIGKILL`` at any instant loses at most one torn trailing line —
  which replay tolerates and the next append trims, per the torn-tail
  contract of :mod:`repro.common.jsonl`.
* ``run_campaign`` *resumes by default*: it replays the journal, serves
  completed cells from the run cache (verifying the journaled digest),
  keeps journaled failures quarantined without re-running them, and
  re-arms the full :class:`~repro.resilience.harness.RetryPolicy` for
  cells that died mid-flight.  Traces are synthesised only for the
  cells left to execute, so a complete resume synthesises none.
* A cell that exhausts its retries is **quarantined** — written to
  ``quarantine/cell-NNNNN.json`` and listed in the report's
  graceful-degradation banner — instead of aborting the campaign.

Determinism: the emitted ``matrix.txt``, ``summary.json`` and
``report.html`` contain nothing wall-clock- or host-dependent, so a
campaign killed at an arbitrary cell and resumed produces **byte
identical** artefacts to one that never died.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.cache.geometry import CacheGeometry
from repro.common.errors import (
    CampaignError,
    CampaignSpecError,
    ConfigError,
    ReproError,
)
from repro.common.io import atomic_write_text
from repro.common.jsonl import TAIL, JsonlAppender, JsonlCorruption, read_jsonl
from repro.obs.htmlreport import render_campaign_html
from repro.obs.profile import RunProfiler
from repro.resilience.faults import FaultPlan
from repro.resilience.harness import RetryPolicy
from repro.sim.cache import RunCache, result_to_dict
from repro.sim.config import canonical_scheme_name
from repro.sim.options import RunOptions
from repro.sim.parallel import (
    CellObserver,
    CellOutcome,
    CellSpec,
    ParallelRunner,
    ordered_map,
)
from repro.sim.results import ResultMatrix, RunFailure, format_table
from repro.sim.simulator import RunResult
from repro.workloads.benchmark_sets import (
    benchmark_set_names,
    resolve_benchmarks,
)
from repro.workloads.spec_like import benchmark_names, make_benchmark_trace
from repro.workloads.trace import Trace

#: Journal format marker, recorded in ``campaign_start``.
JOURNAL_FORMAT = 1

#: Keys a campaign spec document may carry at the top level.
_SPEC_KEYS = frozenset({
    "name", "schemes", "benchmarks", "geometries", "seeds",
    "fault_plans", "trace_length", "warmup_fraction", "metrics_window",
    "retry", "watchdog_seconds", "backend", "ledger",
})

#: Values of the legacy ``backend`` key.  It named an execution path
#: that no longer exists; a spec that sets it still loads and keeps its
#: digest, so its journal resumes, and it changes nothing about a cell.
_LEGACY_BACKENDS = ("auto", "python", "numpy")

_RETRY_KEYS = frozenset({"max_attempts", "reseed_step"})
_GEOMETRY_KEYS = frozenset({"sets", "assoc"})


def _fail(source: str, keypath: str, problem: str) -> "CampaignSpecError":
    """Uniform preflight error: file, key path, and the problem."""
    return CampaignSpecError(f"{source}: {keypath}: {problem}")


def _expect_int(source: str, keypath: str, value: Any,
                minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(source, keypath, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise _fail(
            source, keypath, f"must be >= {minimum}, got {value!r}"
        )
    return value


def _expect_number(source: str, keypath: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _fail(source, keypath, f"expected a number, got {value!r}")
    return float(value)


def _expect_list(source: str, keypath: str, value: Any) -> List[Any]:
    if not isinstance(value, list) or not value:
        raise _fail(
            source, keypath, f"expected a non-empty list, got {value!r}"
        )
    return value


@dataclass(frozen=True)
class CampaignGeometry:
    """One LLC shape of the campaign grid (64-byte lines)."""

    sets: int
    assoc: int

    def geometry(self) -> CacheGeometry:
        return CacheGeometry(
            num_sets=self.sets, associativity=self.assoc, line_size=64
        )

    @property
    def tag(self) -> str:
        """Short id used in cell ids and labels, e.g. ``g256x16``."""
        return f"g{self.sets}x{self.assoc}"


@dataclass(frozen=True)
class CampaignSpec:
    """A validated, fully-resolved campaign description.

    Every field is already normalised — benchmarks expanded and sorted,
    scheme names lowered to factory keys, geometries constructed — so
    :func:`build_cells` is a pure deterministic expansion and
    :meth:`digest` identifies the grid regardless of how the spec file
    spelled it.  ``options`` carry no fault plan: each cell takes its
    own from ``fault_plans``.  ``backend`` is the legacy key's value,
    kept only for :meth:`digest`.
    """

    name: str
    source: str
    schemes: Tuple[str, ...]
    benchmarks: Tuple[str, ...]
    geometries: Tuple[CampaignGeometry, ...]
    seeds: Tuple[int, ...]
    fault_plans: Tuple[Optional[str], ...]
    trace_length: int
    options: RunOptions
    backend: Optional[str] = None

    def total_cells(self) -> int:
        return (
            len(self.benchmarks) * len(self.geometries) * len(self.seeds)
            * len(self.fault_plans) * len(self.schemes)
        )

    def digest(self) -> str:
        """Content hash of the *semantic* spec (not the file bytes).

        The source path is deliberately excluded so a moved or
        re-indented spec file still resumes its journal.
        """
        options = self.options
        payload = {
            "name": self.name,
            "schemes": list(self.schemes),
            "benchmarks": list(self.benchmarks),
            "geometries": [[g.sets, g.assoc] for g in self.geometries],
            "seeds": list(self.seeds),
            "fault_plans": list(self.fault_plans),
            "trace_length": self.trace_length,
            "warmup_fraction": options.warmup_fraction,
            "metrics_window": options.metrics_window,
            "retry": (
                [options.retry.max_attempts, options.retry.reseed_step]
                if options.retry is not None else None
            ),
            "watchdog_seconds": options.watchdog_seconds,
        }
        if self.backend is not None:
            # Only specs that name a backend carry the key, so their
            # journals, and every journal without it, keep resuming.
            payload["backend"] = self.backend
        if options.ledger:
            # Same only-when-set idiom; a ledgered campaign produces
            # different cell payloads, so it must not resume a
            # ledger-less journal (or vice versa).
            payload["ledger"] = True
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _parse_schemes(source: str, document: Dict[str, Any]) -> Tuple[str, ...]:
    items = _expect_list(source, "schemes", document.get("schemes"))
    keys: List[str] = []
    seen: Dict[str, int] = {}
    for index, item in enumerate(items):
        keypath = f"schemes[{index}]"
        if not isinstance(item, str):
            raise _fail(source, keypath,
                        f"expected a scheme name, got {item!r}")
        try:
            display = canonical_scheme_name(item)
        except ConfigError as exc:
            raise _fail(source, keypath, str(exc)) from exc
        if display in seen:
            raise _fail(
                source, keypath,
                f"duplicate scheme {item!r} "
                f"(same as schemes[{seen[display]}])",
            )
        seen[display] = index
        keys.append(item.lower())
    return tuple(keys)


def _parse_benchmarks(
    source: str, document: Dict[str, Any]
) -> Tuple[str, ...]:
    items = _expect_list(source, "benchmarks", document.get("benchmarks"))
    for index, item in enumerate(items):
        keypath = f"benchmarks[{index}]"
        if not isinstance(item, str):
            raise _fail(source, keypath,
                        f"expected a benchmark or set name, got {item!r}")
        try:
            # Token-at-a-time so the error names the offending index.
            resolve_benchmarks([item])
        except ConfigError as exc:
            raise _fail(
                source, keypath,
                f"unknown benchmark or set {item!r}; sets: "
                f"{', '.join(benchmark_set_names())}; benchmarks: "
                f"{', '.join(benchmark_names())}",
            ) from exc
    return tuple(resolve_benchmarks([str(item) for item in items]))


def _parse_geometries(
    source: str, document: Dict[str, Any]
) -> Tuple[CampaignGeometry, ...]:
    raw = document.get("geometries")
    if raw is None:
        return (CampaignGeometry(sets=256, assoc=16),)
    items = _expect_list(source, "geometries", raw)
    geometries: List[CampaignGeometry] = []
    seen: Dict[Tuple[int, int], int] = {}
    for index, item in enumerate(items):
        keypath = f"geometries[{index}]"
        if not isinstance(item, dict):
            raise _fail(source, keypath,
                        f"expected {{\"sets\": N, \"assoc\": N}}, "
                        f"got {item!r}")
        unknown = sorted(set(item) - _GEOMETRY_KEYS)
        if unknown:
            raise _fail(source, f"{keypath}.{unknown[0]}",
                        f"unknown geometry key (accepted: "
                        f"{', '.join(sorted(_GEOMETRY_KEYS))})")
        sets = _expect_int(source, f"{keypath}.sets", item.get("sets"))
        assoc = _expect_int(source, f"{keypath}.assoc", item.get("assoc"))
        geometry = CampaignGeometry(sets=sets, assoc=assoc)
        try:
            geometry.geometry()
        except ConfigError as exc:
            raise _fail(source, keypath, str(exc)) from exc
        pair = (sets, assoc)
        if pair in seen:
            raise _fail(source, keypath,
                        f"duplicate geometry {sets}x{assoc} "
                        f"(same as geometries[{seen[pair]}])")
        seen[pair] = index
        geometries.append(geometry)
    return tuple(geometries)


def _parse_seeds(source: str, document: Dict[str, Any]) -> Tuple[int, ...]:
    raw = document.get("seeds")
    if raw is None:
        return (0xACE1,)
    items = _expect_list(source, "seeds", raw)
    seeds: List[int] = []
    for index, item in enumerate(items):
        keypath = f"seeds[{index}]"
        seed = _expect_int(source, keypath, item)
        if seed in seeds:
            raise _fail(source, keypath, f"duplicate seed {seed!r}")
        seeds.append(seed)
    return tuple(seeds)


def _parse_fault_plans(
    source: str, document: Dict[str, Any]
) -> Tuple[Optional[str], ...]:
    raw = document.get("fault_plans")
    if raw is None:
        return (None,)
    items = _expect_list(source, "fault_plans", raw)
    plans: List[Optional[str]] = []
    for index, item in enumerate(items):
        keypath = f"fault_plans[{index}]"
        # TOML has no null: an empty string also means "no faults".
        plan: Optional[str] = None
        if item not in (None, ""):
            if not isinstance(item, str):
                raise _fail(source, keypath,
                            f"expected a fault-plan string or null, "
                            f"got {item!r}")
            try:
                parsed = FaultPlan.parse(item)
            except ReproError as exc:
                raise _fail(source, keypath,
                            f"invalid fault plan {item!r}: {exc}") from exc
            if not parsed.specs:
                raise _fail(source, keypath,
                            f"fault plan {item!r} injects nothing")
            plan = item
        if plan in plans:
            raise _fail(source, keypath, f"duplicate fault plan {item!r}")
        plans.append(plan)
    return tuple(plans)


def _parse_retry(
    source: str, document: Dict[str, Any]
) -> Optional[RetryPolicy]:
    raw = document.get("retry")
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise _fail(source, "retry",
                    f"expected {{\"max_attempts\": N, \"reseed_step\": N}}, "
                    f"got {raw!r}")
    unknown = sorted(set(raw) - _RETRY_KEYS)
    if unknown:
        raise _fail(source, f"retry.{unknown[0]}",
                    f"unknown retry key (accepted: "
                    f"{', '.join(sorted(_RETRY_KEYS))})")
    max_attempts = _expect_int(
        source, "retry.max_attempts", raw.get("max_attempts", 1), minimum=1
    )
    reseed_step = _expect_int(
        source, "retry.reseed_step", raw.get("reseed_step", 1)
    )
    return RetryPolicy(max_attempts=max_attempts, reseed_step=reseed_step)


def _load_document(path: Path) -> Any:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CampaignSpecError(
            f"cannot read campaign spec {path}: {exc}"
        ) from exc
    if path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError as exc:  # Python < 3.11: no baked-in parser
            raise CampaignSpecError(
                f"{path}: TOML specs need Python 3.11+ (tomllib); "
                "rewrite the spec as JSON"
            ) from exc
        try:
            return tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise CampaignSpecError(
                f"{path}: invalid TOML: {exc}"
            ) from exc
    try:
        return json.loads(text)
    except ValueError as exc:
        raise CampaignSpecError(f"{path}: invalid JSON: {exc}") from exc


def load_campaign_spec(path: Union[str, Path]) -> CampaignSpec:
    """Load and preflight-validate a campaign spec file.

    Every validation failure raises
    :class:`~repro.common.errors.CampaignSpecError` naming the file,
    the key path (``schemes[1]``, ``geometries[0].sets``, ...) and the
    offending value — the whole grid is vetted before a single
    simulation cycle is spent.  This parser checks the run options'
    types; :class:`RunOptions` checks their ranges.
    """
    path = Path(path)
    source = str(path)
    document = _load_document(path)
    if not isinstance(document, dict):
        raise _fail(source, "<top level>",
                    f"expected an object, got {document!r}")
    unknown = sorted(set(document) - _SPEC_KEYS)
    if unknown:
        raise _fail(source, unknown[0],
                    f"unknown spec key (accepted: "
                    f"{', '.join(sorted(_SPEC_KEYS))})")
    name = document.get("name", path.stem)
    if not isinstance(name, str) or not name:
        raise _fail(source, "name",
                    f"expected a non-empty string, got {name!r}")
    trace_length = _expect_int(
        source, "trace_length", document.get("trace_length", 60_000),
        minimum=1,
    )
    warmup_fraction = _expect_number(
        source, "warmup_fraction", document.get("warmup_fraction", 0.25)
    )
    metrics_window = document.get("metrics_window")
    if metrics_window is not None:
        metrics_window = _expect_int(source, "metrics_window", metrics_window)
    watchdog_seconds = document.get("watchdog_seconds")
    if watchdog_seconds is not None:
        watchdog_seconds = _expect_number(
            source, "watchdog_seconds", watchdog_seconds
        )
    try:
        options = RunOptions(
            warmup_fraction=warmup_fraction,
            metrics_window=metrics_window,
            ledger=document.get("ledger", False),
            retry=_parse_retry(source, document),
            watchdog_seconds=watchdog_seconds,
        )
    except ConfigError as exc:
        raise CampaignSpecError(f"{source}: {exc}") from exc
    backend = document.get("backend")
    if backend is not None and backend not in _LEGACY_BACKENDS:
        raise _fail(source, "backend",
                    f"expected one of {', '.join(_LEGACY_BACKENDS)}, "
                    f"got {backend!r}")
    return CampaignSpec(
        name=name,
        source=source,
        schemes=_parse_schemes(source, document),
        benchmarks=_parse_benchmarks(source, document),
        geometries=_parse_geometries(source, document),
        seeds=_parse_seeds(source, document),
        fault_plans=_parse_fault_plans(source, document),
        trace_length=trace_length,
        options=options,
        backend=backend,
    )


#: What identifies a synthesised trace: (benchmark, sets, length).
TraceKey = Tuple[str, int, int]


@dataclass(frozen=True)
class CampaignCell:
    """One expanded grid cell: its stable id and grid coordinates.

    A cell carries no trace.  :func:`run_campaign` synthesises traces
    only for the cells it is about to execute and binds each one into
    a runner :class:`~repro.sim.parallel.CellSpec` with
    :meth:`cell_spec`.
    """

    index: int
    cell_id: str
    label: str
    benchmark: str
    scheme: str
    geometry: CampaignGeometry
    seed: int
    fault_plan: Optional[str]

    def trace_key(self, spec: CampaignSpec) -> TraceKey:
        return (self.benchmark, self.geometry.sets, spec.trace_length)

    def cell_spec(self, spec: CampaignSpec, trace: Trace) -> CellSpec:
        """The runner spec of this cell over its synthesised ``trace``."""
        return CellSpec(
            index=self.index,
            scheme=self.scheme,
            label=self.label,
            trace=trace,
            geometry=self.geometry.geometry(),
            seed=self.seed,
            options=replace(spec.options, fault_plan=self.fault_plan),
        )


def build_cells(spec: CampaignSpec) -> List[CampaignCell]:
    """Expand the spec into ordered cells (no trace is synthesised).

    The order is a pure function of the spec — benchmark-major, then
    geometry, seed, fault plan, scheme — so cell indices are stable
    across processes and sessions, which is what lets the journal refer
    to cells by index.  Labels carry only the axes the spec actually
    varies (geometry/seed suffixes appear only in multi-geometry /
    multi-seed campaigns); fault plans are always labelled.
    """
    multi_geometry = len(spec.geometries) > 1
    multi_seed = len(spec.seeds) > 1
    cells: List[CampaignCell] = []
    for benchmark in spec.benchmarks:
        for geometry in spec.geometries:
            for seed in spec.seeds:
                for plan in spec.fault_plans:
                    for scheme in spec.schemes:
                        label = canonical_scheme_name(scheme)
                        if multi_geometry:
                            label += f"@{geometry.sets}x{geometry.assoc}"
                        if multi_seed:
                            label += f"#s{seed}"
                        if plan is not None:
                            label += f"!{plan}"
                        cell_id = (
                            f"{benchmark}/{scheme}/{geometry.tag}/s{seed}"
                        )
                        if plan is not None:
                            cell_id += f"/f={plan}"
                        cells.append(CampaignCell(
                            index=len(cells),
                            cell_id=cell_id,
                            label=label,
                            benchmark=benchmark,
                            scheme=scheme,
                            geometry=geometry,
                            seed=seed,
                            fault_plan=plan,
                        ))
    return cells


def _synthesise(key: TraceKey) -> Trace:
    """One campaign trace; module-level so it pickles into pool workers."""
    benchmark, sets, length = key
    return make_benchmark_trace(benchmark, num_sets=sets, length=length)


def result_digest(result: RunResult) -> str:
    """Content hash of a result's canonical JSON form.

    Stable across store/load round-trips (tuples and lists serialise
    identically), so the journaled digest of a just-finished cell
    equals the digest of the same cell served from the run cache.
    """
    canonical = json.dumps(
        result_to_dict(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class CampaignJournal(JsonlAppender):
    """Append-only ``campaign.jsonl`` writer with per-record durability.

    Every record is one JSON line, flushed *and fsynced* before
    :meth:`append` returns: after a crash the journal is complete up to
    the final record, which at worst is torn mid-line — a state
    :func:`load_journal` tolerates.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        super().__init__(path, fsync=True)

    def append(self, kind: str, **fields: Any) -> None:
        self.write({"kind": kind, **fields})


def _journal_record(record: Any) -> Dict[str, Any]:
    if not isinstance(record, dict):
        raise ValueError("record is not an object")
    return record


def load_journal(
    path: Union[str, Path]
) -> Tuple[List[Dict[str, Any]], bool]:
    """Read journal records, tolerating a torn final line.

    Returns ``(records, truncated)``; ``truncated`` is True when bytes
    follow the last newline — the signature of a crash mid-append,
    which per-record fsync guarantees is the *only* possible damage.  A
    malformed line anywhere else is real corruption and raises
    :class:`~repro.common.errors.CampaignError`.  A missing journal
    reads as empty.
    """
    path = Path(path)
    try:
        read = read_jsonl(path, TAIL, convert=_journal_record)
    except FileNotFoundError:
        return [], False
    except OSError as exc:
        raise CampaignError(
            f"cannot read campaign journal {path}: {exc}"
        ) from exc
    except JsonlCorruption as exc:
        raise CampaignError(
            f"campaign journal {path} line {exc.line} is corrupt "
            f"(not torn-tail damage): {exc.reason}"
        ) from exc
    return read.records, read.torn


@dataclass
class JournalState:
    """The replayed view of a campaign journal."""

    spec_digest: Optional[str] = None
    name: Optional[str] = None
    total_cells: Optional[int] = None
    started: Dict[int, str] = field(default_factory=dict)
    completed: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    failed: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    truncated: bool = False
    records: int = 0

    @property
    def in_flight(self) -> List[int]:
        """Cells started but never finished — a worker died on them."""
        return sorted(
            index for index in self.started
            if index not in self.completed and index not in self.failed
        )


def replay_journal(path: Union[str, Path]) -> JournalState:
    """Fold journal records into per-cell terminal state (last wins).

    A cell record is ignored unless its ``cell`` is an integer; a
    ``cell_done`` also needs a string ``digest`` and a ``cell_failed``
    an object ``failure``, the fields every reader of the state takes.
    """
    records, truncated = load_journal(path)
    state = JournalState(truncated=truncated, records=len(records))
    for record in records:
        kind = record.get("kind")
        if kind == "campaign_start":
            state.spec_digest = record.get("spec_digest")
            state.name = record.get("name")
            state.total_cells = record.get("total_cells")
        elif kind == "cell_start":
            index = record.get("cell")
            if isinstance(index, int):
                state.started[index] = str(record.get("id", ""))
        elif kind == "cell_done":
            index = record.get("cell")
            if isinstance(index, int) and isinstance(
                record.get("digest"), str
            ):
                state.completed[index] = record
                state.failed.pop(index, None)
        elif kind == "cell_failed":
            index = record.get("cell")
            if isinstance(index, int) and isinstance(
                record.get("failure"), dict
            ):
                state.failed[index] = record
                state.completed.pop(index, None)
        # campaign_resume / campaign_end carry no per-cell state.
    return state


class _JournalObserver(CellObserver):
    """Streams runner lifecycle callbacks into the campaign journal."""

    def __init__(
        self, journal: CampaignJournal, cell_ids: Dict[int, str]
    ) -> None:
        self.journal = journal
        self.cell_ids = cell_ids

    def cell_started(self, spec: CellSpec) -> None:
        self.journal.append(
            "cell_start", cell=spec.index,
            id=self.cell_ids.get(spec.index, spec.label),
        )

    def cell_finished(
        self,
        spec: CellSpec,
        outcome: CellOutcome,
        cached: bool,
        key: Optional[str],
    ) -> None:
        cell_id = self.cell_ids.get(spec.index, spec.label)
        if isinstance(outcome, RunFailure):
            self.journal.append(
                "cell_failed", cell=spec.index, id=cell_id,
                failure=outcome.as_dict(),
            )
        else:
            self.journal.append(
                "cell_done", cell=spec.index, id=cell_id,
                key=key, digest=result_digest(outcome), cached=cached,
            )


def _failure_from_record(record: Dict[str, Any]) -> RunFailure:
    """Rebuild a quarantined cell's failure from its journal record."""
    payload = record.get("failure", {})
    return RunFailure(
        workload=str(payload.get("workload", "?")),
        scheme=str(payload.get("scheme", "?")),
        error_type=str(payload.get("error_type", "?")),
        message=str(payload.get("message", "")),
        attempts=int(payload.get("attempts", 1)),
        seeds=tuple(payload.get("seeds", ())),
        elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
    )


@dataclass(frozen=True)
class QuarantinedCell:
    """One cell that exhausted its retry budget."""

    cell: int
    cell_id: str
    failure: RunFailure

    def as_dict(self) -> Dict[str, Any]:
        """Deterministic JSON view (no wall-clock fields)."""
        return {
            "cell": self.cell,
            "id": self.cell_id,
            "workload": self.failure.workload,
            "scheme": self.failure.scheme,
            "error_type": self.failure.error_type,
            "message": self.failure.message,
            "attempts": self.failure.attempts,
            "seeds": list(self.failure.seeds),
        }


@dataclass
class CampaignOutcome:
    """What one ``run_campaign`` invocation did and produced."""

    spec: CampaignSpec
    directory: Path
    matrix: ResultMatrix
    total_cells: int
    executed: int
    resumed: int
    quarantined: List[QuarantinedCell]
    outputs: Dict[str, Path]

    @property
    def ok(self) -> bool:
        return not self.quarantined


def default_campaign_dir(spec_path: Union[str, Path]) -> Path:
    """Where a spec's campaign state lives: ``<spec stem>.campaign``."""
    return Path(spec_path).with_suffix(".campaign")


def _render_matrix_text(
    spec: CampaignSpec,
    matrix: ResultMatrix,
    normalized: Optional[Dict[str, Dict[str, float]]],
    quarantined: Sequence[QuarantinedCell],
) -> str:
    completed = spec.total_cells() - len(quarantined)
    lines = [
        f"campaign {spec.name}: {spec.total_cells()} cells, "
        f"{completed} completed, {len(quarantined)} quarantined",
        "",
        format_table(
            matrix.metric_table(lambda result: result.mpki),
            matrix.schemes, title="MPKI",
        ),
    ]
    if normalized is not None:
        lines.append("")
        lines.append(format_table(
            normalized, matrix.schemes,
            title="MPKI normalized to LRU (geomean over workloads)",
        ))
    if quarantined:
        lines.append("")
        lines.append("quarantined cells:")
        for entry in quarantined:
            lines.append(
                f"  cell {entry.cell:05d} {entry.cell_id}: "
                f"{entry.failure.error_type}: {entry.failure.message} "
                f"({entry.failure.attempts} attempt(s))"
            )
    return "\n".join(lines) + "\n"


def _normalized_or_none(
    matrix: ResultMatrix,
) -> Optional[Dict[str, Dict[str, float]]]:
    """The LRU-normalised table, or None when it cannot be built.

    Graceful degradation: a campaign without an ``LRU`` column, or one
    whose baseline cell was quarantined, still renders its raw MPKI
    table — the normalised view is just omitted.
    """
    if "LRU" not in matrix.schemes:
        return None
    try:
        return matrix.normalized_table(
            lambda result: result.mpki, baseline="LRU",
        )
    except ConfigError:
        return None


def _write_quarantine(
    directory: Path, quarantined: Sequence[QuarantinedCell]
) -> None:
    """Materialise ``quarantine/cell-NNNNN.json``, one file per cell.

    The directory mirrors the current campaign state exactly: stale
    reports from a previous resume are removed, so its listing *is* the
    degradation report.
    """
    quarantine_dir = directory / "quarantine"
    wanted = {
        quarantine_dir / f"cell-{entry.cell:05d}.json": entry
        for entry in quarantined
    }
    if quarantine_dir.is_dir():
        for stale in quarantine_dir.glob("cell-*.json"):
            if stale not in wanted:
                stale.unlink()
    if not wanted:
        return
    quarantine_dir.mkdir(parents=True, exist_ok=True)
    for path, entry in wanted.items():
        atomic_write_text(
            path,
            json.dumps(entry.as_dict(), indent=2, sort_keys=True) + "\n",
        )


def run_campaign(
    spec_path: Union[str, Path],
    directory: Optional[Union[str, Path]] = None,
    jobs: Optional[int] = None,
    fresh: bool = False,
    run_cache_dir: Optional[Union[str, Path]] = None,
    telemetry_dir: Optional[Union[str, Path]] = None,
    profiler: Optional[RunProfiler] = None,
    index_db: Optional[Union[str, Path]] = None,
) -> CampaignOutcome:
    """Run (or resume) the campaign described by ``spec_path``.

    Resume is the default: the journal in ``directory`` is replayed,
    completed cells are served from the run cache (their journaled
    digest is verified; a lost or corrupt cache entry silently re-runs
    the cell), journaled failures stay quarantined, and only the
    remaining cells execute — so a killed campaign continues from where
    it died and its final artefacts are byte-identical to an
    uninterrupted run.  ``fresh=True`` discards the journal and
    quarantine reports first (the content-addressed run cache is always
    safe to keep).

    Traces are synthesised only for the cells left to execute, after
    the journal's ``campaign_start``/``campaign_resume`` record, across
    the same ``jobs`` worker processes that then run the cells: a
    complete resume synthesises nothing, starts no worker and appends
    nothing to the journal.

    Returns a :class:`CampaignOutcome`; a quarantined cell never raises
    — it is reported in ``matrix.txt``, ``summary.json``, the HTML
    degradation banner and ``quarantine/``.

    ``index_db`` names an observatory index
    (:class:`~repro.obs.index.ArtifactIndex`) into which the finished
    campaign directory is ingested after the journal closes and the
    summary lands — the ``repro campaign run --index`` hook.  Ingestion
    is idempotent, so resumed campaigns simply advance their row.
    """
    spec = load_campaign_spec(spec_path)
    directory = (
        Path(directory) if directory is not None
        else default_campaign_dir(spec_path)
    )
    directory.mkdir(parents=True, exist_ok=True)
    journal_path = directory / "campaign.jsonl"
    if fresh and journal_path.exists():
        journal_path.unlink()
    cells = build_cells(spec)
    state = replay_journal(journal_path)
    digest = spec.digest()
    if state.spec_digest is not None and state.spec_digest != digest:
        raise CampaignError(
            f"journal {journal_path} was written by a different spec "
            f"(digest {state.spec_digest[:12]}..., current "
            f"{digest[:12]}...); pass --fresh to discard it"
        )
    run_cache = RunCache(
        Path(run_cache_dir) if run_cache_dir is not None
        else directory / "runcache"
    )

    outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
    quarantined: Dict[int, QuarantinedCell] = {}
    pending: List[CampaignCell] = []
    resumed = 0
    for cell in cells:
        index = cell.index
        done = state.completed.get(index)
        if done is not None:
            key = done.get("key")
            served = run_cache.get(key) if isinstance(key, str) else None
            if served is not None and result_digest(served) == done.get(
                "digest"
            ):
                outcomes[index] = served
                resumed += 1
                continue
            # Journal says done but the cache cannot prove it: re-run.
        failed = state.failed.get(index)
        if failed is not None:
            failure = _failure_from_record(failed)
            outcomes[index] = failure
            quarantined[index] = QuarantinedCell(
                cell=index, cell_id=cell.cell_id, failure=failure
            )
            resumed += 1
            continue
        pending.append(cell)

    cell_ids = {cell.index: cell.cell_id for cell in cells}
    starts = state.records == 0
    with CampaignJournal(journal_path) as journal:
        if starts:
            journal.append(
                "campaign_start", format=JOURNAL_FORMAT, name=spec.name,
                spec_digest=digest, total_cells=len(cells),
            )
        elif pending:
            journal.append("campaign_resume", pending=len(pending))
        if pending:
            runner = ParallelRunner(
                max_workers=jobs,
                run_cache=run_cache,
                profiler=profiler,
                telemetry_dir=telemetry_dir,
                observer=_JournalObserver(journal, cell_ids),
            )
            # Only now, with the start journaled and fsynced, are traces
            # synthesised: once per distinct key the pending cells need.
            keys = list(dict.fromkeys(
                cell.trace_key(spec) for cell in pending
            ))
            traces = dict(zip(
                keys, ordered_map(_synthesise, keys, max_workers=jobs)
            ))
            specs = [
                cell.cell_spec(spec, traces[cell.trace_key(spec)])
                for cell in pending
            ]
            for cell, outcome in zip(pending, runner.run(specs)):
                outcomes[cell.index] = outcome
                if isinstance(outcome, RunFailure):
                    quarantined[cell.index] = QuarantinedCell(
                        cell=cell.index, cell_id=cell.cell_id,
                        failure=outcome,
                    )
        if starts or pending:
            journal.append(
                "campaign_end",
                completed=len(cells) - len(quarantined),
                quarantined=sorted(quarantined),
            )

    matrix = ResultMatrix()
    for cell, outcome in zip(cells, outcomes):
        if isinstance(outcome, RunFailure):
            matrix.add_failure(outcome)
        elif outcome is not None:
            # Relabel with the campaign's axis-aware label; the cached
            # entry itself is never touched.
            matrix.add(replace(outcome, scheme=cell.label))

    quarantine_list = [quarantined[index] for index in sorted(quarantined)]
    _write_quarantine(directory, quarantine_list)
    normalized = _normalized_or_none(matrix)

    matrix_path = directory / "matrix.txt"
    atomic_write_text(
        matrix_path,
        _render_matrix_text(spec, matrix, normalized, quarantine_list),
    )
    summary_path = directory / "summary.json"
    summary = {
        "format": 1,
        "name": spec.name,
        "spec_digest": digest,
        "total_cells": len(cells),
        "completed": len(cells) - len(quarantine_list),
        "quarantined": [entry.as_dict() for entry in quarantine_list],
        "mpki": matrix.metric_table(lambda result: result.mpki),
        "normalized_mpki": normalized,
    }
    if spec.options.ledger:
        # Per-cell capacity-flow roll-ups; the key appears only for
        # ledgered campaigns, so every existing summary.json (and the
        # resume smoke's byte comparison) keeps its exact bytes.
        summary["ledgers"] = matrix.metric_table(
            lambda result: (
                result.ledger.summary() if result.ledger is not None
                else None
            )
        )
    atomic_write_text(
        summary_path, json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    report_path = directory / "report.html"
    atomic_write_text(
        report_path,
        render_campaign_html(
            name=spec.name,
            total_cells=len(cells),
            mpki=summary["mpki"],
            schemes=list(matrix.schemes),
            normalized=normalized,
            quarantined=[entry.as_dict() for entry in quarantine_list],
        ),
    )
    if index_db is not None:
        # Lazy import: sim imports obs only when the hook is used, and
        # obs.index itself imports sim lazily (no cycle at module load).
        from repro.obs.index import ArtifactIndex

        with ArtifactIndex(index_db) as artifact_index:
            artifact_index.ingest(directory)
    return CampaignOutcome(
        spec=spec,
        directory=directory,
        matrix=matrix,
        total_cells=len(cells),
        executed=len(pending),
        resumed=resumed,
        quarantined=quarantine_list,
        outputs={
            "journal": journal_path,
            "matrix": matrix_path,
            "summary": summary_path,
            "report": report_path,
        },
    )


def campaign_status(directory: Union[str, Path]) -> str:
    """Human-readable journal replay for ``repro campaign status``."""
    directory = Path(directory)
    journal_path = directory / "campaign.jsonl"
    if not journal_path.exists():
        raise CampaignError(f"no campaign journal at {journal_path}")
    state = replay_journal(journal_path)
    name = state.name or directory.name
    done = len(state.completed)
    failed = len(state.failed)
    in_flight = len(state.in_flight)
    lines: List[str] = []
    if state.total_cells is not None:
        pendings = max(0, state.total_cells - done - failed - in_flight)
        lines.append(
            f"campaign {name}: {state.total_cells} cells — {done} done, "
            f"{failed} quarantined, {in_flight} in flight, "
            f"{pendings} pending"
        )
    else:
        lines.append(
            f"campaign {name}: {done} done, {failed} quarantined, "
            f"{in_flight} in flight (no campaign_start record)"
        )
    if state.truncated:
        lines.append(
            "journal tail is torn (crash mid-append) — tolerated; "
            "resume re-runs any cell the torn record finished"
        )
    for index in sorted(state.failed):
        record = state.failed[index]
        failure = _failure_from_record(record)
        lines.append(
            f"  quarantined cell {index:05d} {record.get('id', '?')}: "
            f"{failure.error_type}: {failure.message}"
        )
    return "\n".join(lines) + "\n"
