"""Parallel experiment engine: grid cells sharded across processes.

The paper's evaluation is a large (scheme x workload x geometry) grid
whose cells are fully independent — each builds its own cache from its
own seed and consumes an immutable trace.  :class:`ParallelRunner`
exploits that: every cell is described by a picklable :class:`CellSpec`,
executed by the module-level :func:`_execute_cell` (inline, or in a
``ProcessPoolExecutor`` worker), and the results are reassembled **by
cell index** so the output is identical to the serial path no matter
which worker finished first.

Determinism contract
--------------------
* Cell seeds are assigned in the parent before any worker starts: every
  cell receives the same ``seed`` (and, on retries, the same
  ``RetryPolicy`` reseeding schedule ``base_seed + attempt * step``)
  that the serial loop would have used, so per-worker seed derivation
  is a pure function of the cell, not of scheduling.
* Workers never share mutable state — each returns its finished
  :class:`~repro.sim.simulator.RunResult` (or structured
  :class:`~repro.sim.results.RunFailure`), and the parent merges
  results and failure lists in canonical cell order.
* Crash tolerance is preserved: an isolated cell still runs through
  :func:`~repro.resilience.harness.guarded_run` inside the worker, so a
  poisoned cell comes back as a ``RunFailure`` record, not a dead pool.

An optional :class:`~repro.sim.cache.RunCache` short-circuits cells
whose content-addressed key already has a stored result; hits never
reach the pool at all.

:func:`ordered_map` fans a grid's set-up work (trace synthesis) over
the same number of processes, with results in input order.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from time import sleep
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.cache.geometry import CacheGeometry
from repro.common.errors import ConfigError
from repro.obs.manifest import build_manifest, canonical_digest
from repro.obs.telemetry import (
    CellTelemetry,
    GridTelemetry,
    TelemetrySpec,
)
from repro.resilience.faults import FaultInjector, FaultPlan, InjectingCache
from repro.resilience.harness import guarded_run
from repro.sim.config import make_scheme
from repro.sim.options import RunOptions
from repro.sim.results import RunFailure
from repro.sim.simulator import RunResult, run_trace
from repro.workloads.trace import Trace

#: One cell outcome: a finished run or a structured failure record.
CellOutcome = Union[RunResult, RunFailure]


@dataclass(frozen=True)
class CellSpec:
    """Picklable description of one (scheme, trace, geometry) grid cell.

    ``scheme`` is the factory name handed to
    :func:`~repro.sim.config.make_scheme`; ``label`` is the name used in
    failure records (the runner passes e.g. ``"dip@8"`` for sweep
    cells).  ``isolate`` selects between crash-tolerant
    :func:`guarded_run` execution and fail-fast propagation, exactly
    mirroring the serial runner's contract.  ``options`` are the
    :class:`~repro.sim.options.RunOptions` the cell runs under.
    """

    index: int
    scheme: str
    label: str
    trace: Trace
    geometry: CacheGeometry
    seed: int
    isolate: bool = True
    options: RunOptions = RunOptions()


def _build_cell_cache(spec: CellSpec, seed: int):
    """Build the cell's scheme, wrapping it for fault injection if asked.

    The injector draws its schedule from the same seed as the scheme,
    so a retry-reseeded attempt gets a genuinely different fault
    schedule along with its different LFSR stream — one seed is the
    whole cell's identity.
    """
    cache = make_scheme(spec.scheme, spec.geometry, seed=seed)
    if spec.options.fault_plan is not None:
        plan = FaultPlan.parse(spec.options.fault_plan)
        injector = FaultInjector(plan, len(spec.trace), seed=seed)
        cache = InjectingCache(cache, injector)
    return cache


def _execute_cell(
    spec: CellSpec, telemetry_spec: Optional[TelemetrySpec] = None
) -> CellOutcome:
    """Run one cell; module-level so it pickles into pool workers.

    ``telemetry_spec`` is the per-run telemetry channel handed over by
    the parent :class:`ParallelRunner`; combined with the cell index it
    yields the worker-side :class:`CellTelemetry` writer (span ids are
    a pure function of the grid span and the index, so no handshake
    crosses the process boundary).
    """
    telemetry: Optional[CellTelemetry] = None
    if telemetry_spec is not None:
        telemetry = CellTelemetry(
            telemetry_spec,
            index=spec.index,
            label=spec.label,
            workload=spec.trace.name,
        )
    try:
        if not spec.isolate:
            if telemetry is not None:
                telemetry.cell_start(
                    total_accesses=len(spec.trace),
                    seed=spec.seed,
                    watchdog_seconds=spec.options.watchdog_seconds,
                )
            try:
                cache = _build_cell_cache(spec, spec.seed)
                result = run_trace(
                    cache, spec.trace, telemetry=telemetry,
                    **spec.options.run_trace_kwargs(),
                )
            except BaseException as exc:
                if telemetry is not None:
                    telemetry.cell_end(
                        "failed", error_type=type(exc).__name__
                    )
                raise
            if telemetry is not None:
                telemetry.cell_end("ok")
            return result
        return guarded_run(
            lambda seed: _build_cell_cache(spec, seed),
            spec.trace,
            scheme=spec.label,
            base_seed=spec.seed,
            options=spec.options,
            telemetry=telemetry,
        )
    finally:
        if telemetry is not None:
            telemetry.close()


def cell_cache_key(spec: CellSpec) -> Optional[str]:
    """Content-addressed key of a cell, or None when it has none.

    Builds the scheme (cheap — allocation only, no simulation) and
    reuses the run manifest's deterministic ``hashed_payload`` — scheme
    class + geometry + config + trace metadata + seed + package version
    — then extends it with what the manifest hash deliberately leaves
    out but a cached *result* depends on: the raw trace content digest
    and the run options that
    :meth:`~repro.sim.options.RunOptions.cache_key_fields` names.  A
    cell whose scheme cannot even be built (a poisoned factory) has no
    key; the executor then takes the normal (guarded) path.
    """
    try:
        cache = make_scheme(spec.scheme, spec.geometry, seed=spec.seed)
        manifest = build_manifest(cache, spec.trace)
    except Exception:  # noqa: BLE001 — uncacheable, not fatal
        return None
    payload: Dict[str, Any] = {
        "cell": manifest.hashed_payload(),
        "trace_digest": spec.trace.content_digest(),
        **spec.options.cache_key_fields(),
    }
    return canonical_digest(payload)


class CellObserver:
    """No-op base for per-cell lifecycle callbacks.

    The campaign layer journals cell execution through these hooks
    (DESIGN.md §12); subclass and override what you need.  Callbacks
    run in the **parent** process — :meth:`cell_started` when the cell
    is handed to a worker (or executed inline), :meth:`cell_finished`
    when its outcome lands, in completion order — so an observer may
    keep open file handles without worrying about pickling.  Observers
    must only *observe*: outcomes are byte-identical with or without
    one.
    """

    def cell_started(self, spec: CellSpec) -> None:
        """``spec`` is about to execute (inline) or was submitted."""

    def cell_finished(
        self,
        spec: CellSpec,
        outcome: CellOutcome,
        cached: bool,
        key: Optional[str],
    ) -> None:
        """``spec`` produced ``outcome``.

        ``cached`` marks a run-cache hit (the cell never executed);
        ``key`` is the cell's content-addressed cache key, or None when
        it has none.
        """


def _check_workers(max_workers: Optional[int]) -> None:
    if max_workers is not None and max_workers < 1:
        raise ConfigError(f"max_workers must be >= 1, got {max_workers}")


def _exit_with_parent() -> None:
    """Pool-worker initializer: exit within a second of the parent's death.

    A SIGKILLed parent never shuts its pool down, and its workers would
    block on the executor's call queue forever.  The parent pid is read
    here, inside the worker, because under the ``forkserver`` start
    method the worker's parent is the server, not the caller.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _process_pool(max_workers: int) -> ProcessPoolExecutor:
    """The one way this module builds a pool: workers die with it."""
    return ProcessPoolExecutor(
        max_workers=max_workers, initializer=_exit_with_parent
    )


def ordered_map(
    function: Callable[[Any], Any],
    items: Sequence[Any],
    max_workers: Optional[int] = None,
) -> List[Any]:
    """``[function(item) for item in items]``, fanned out over processes.

    The set-up sibling of :class:`ParallelRunner` (trace synthesis for
    a grid): in process when ``max_workers`` is None or 1 or there is at
    most one item, otherwise across a ``ProcessPoolExecutor`` of at most
    ``max_workers`` processes.  Results come back in ``items`` order
    either way.  ``function`` must be a module-level function so it
    pickles; a worker that dies raises ``BrokenProcessPool`` here, just
    as a dead cell worker does in :meth:`ParallelRunner.run`.
    """
    _check_workers(max_workers)
    if max_workers is None or max_workers == 1 or len(items) <= 1:
        return [function(item) for item in items]
    with _process_pool(min(max_workers, len(items))) as pool:
        return list(pool.map(function, items))


class ParallelRunner:
    """Shards :class:`CellSpec` cells across a process pool.

    ``max_workers=None`` (or 1) runs every cell inline in submission
    order — the serial path and the degenerate parallel path are the
    same code, which is what makes the equivalence guarantee cheap to
    maintain.  With more workers, cells run under a
    ``ProcessPoolExecutor`` and results are stitched back by index.

    ``telemetry_dir`` arms the live fleet-telemetry channel
    (DESIGN.md §11): the runner opens a :class:`GridTelemetry` over the
    directory, plans every cell, ships a :class:`TelemetrySpec` into
    each worker (whose :class:`CellTelemetry` writes spans, heartbeats
    and resource samples) and records completions — the channel
    ``repro top`` renders.  Telemetry never influences outcomes:
    matrices are byte-identical with it on or off, serial or parallel.

    Outcomes are all the runner returns.  Views of a grid — the
    ``--profile`` report, ``status.json`` — are built from them or from
    the channel by their readers.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        run_cache: Optional[Any] = None,
        telemetry_dir: Optional[Any] = None,
        observer: Optional[CellObserver] = None,
    ) -> None:
        _check_workers(max_workers)
        self.max_workers = max_workers
        self.run_cache = run_cache
        self.telemetry_dir = telemetry_dir
        self.observer = observer

    def run(self, specs: Sequence[CellSpec]) -> List[CellOutcome]:
        """Execute every cell; returns outcomes in ``specs`` order."""
        if self.telemetry_dir is None:
            return self._run(specs, None)
        # Telemetry armed: the grid span, per-cell plans and
        # completions flow through the run-dir channel; the simulation
        # outcomes are byte-identical either way (the writers only
        # observe).
        with GridTelemetry(self.telemetry_dir) as grid:
            grid.grid_start(len(specs))
            for spec in specs:
                grid.cell_plan(
                    index=spec.index,
                    label=spec.label,
                    workload=spec.trace.name,
                    total_accesses=len(spec.trace),
                    watchdog_seconds=spec.options.watchdog_seconds,
                )
            try:
                return self._run(specs, grid)
            finally:
                grid.grid_end()

    def _run(
        self, specs: Sequence[CellSpec], grid: Optional[GridTelemetry]
    ) -> List[CellOutcome]:
        results: List[Optional[CellOutcome]] = [None] * len(specs)
        pending: List[tuple] = []
        run_cache = self.run_cache
        observer = self.observer
        telemetry_spec = grid.spec if grid is not None else None
        for position, spec in enumerate(specs):
            key = None
            if run_cache is not None:
                key = cell_cache_key(spec)
                cached = run_cache.get(key) if key is not None else None
                if cached is not None:
                    results[position] = cached
                    if grid is not None:
                        grid.cell_cached(spec.index)
                    if observer is not None:
                        observer.cell_finished(spec, cached, True, key)
                    continue
            pending.append((position, spec, key))

        def note_finished(
            spec: CellSpec, outcome: CellOutcome, key: Optional[str]
        ) -> None:
            if observer is not None:
                observer.cell_finished(spec, outcome, False, key)
            if grid is not None:
                grid.cell_done(
                    spec.index,
                    "failed" if isinstance(outcome, RunFailure) else "ok",
                )

        workers = self.max_workers
        if workers is None or workers <= 1 or len(pending) <= 1:
            for position, spec, key in pending:
                if observer is not None:
                    observer.cell_started(spec)
                outcome = _execute_cell(spec, telemetry_spec)
                results[position] = self._store(spec, key, outcome)
                note_finished(spec, outcome, key)
        else:
            with _process_pool(workers) as pool:
                futures = {}
                for position, spec, key in pending:
                    if observer is not None:
                        observer.cell_started(spec)
                    future = pool.submit(_execute_cell, spec, telemetry_spec)
                    futures[future] = (position, spec, key)
                for future in as_completed(futures):
                    position, spec, key = futures[future]
                    outcome = future.result()
                    results[position] = self._store(spec, key, outcome)
                    note_finished(spec, outcome, key)
        return list(results)

    def _store(
        self, spec: CellSpec, key: Optional[str], outcome: CellOutcome
    ) -> CellOutcome:
        """Persist a cacheable outcome; failures are never cached."""
        if (
            self.run_cache is not None
            and key is not None
            and isinstance(outcome, RunResult)
            and outcome.manifest is not None
            and outcome.manifest.seed == spec.seed
        ):
            # The seed guard skips retry-reseeded successes: their state
            # diverges from what the key (built from spec.seed) claims.
            self.run_cache.put(key, outcome)
        return outcome
