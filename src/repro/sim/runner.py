"""Experiment runner: scheme x workload grids and associativity sweeps.

Grids are crash-tolerant by default: each (scheme, trace) cell runs
through :func:`~repro.resilience.harness.guarded_run`, so one poisoned
cell is recorded as a structured
:class:`~repro.sim.results.RunFailure` in the matrix while the rest of
the grid completes.  A :class:`~repro.resilience.harness.RetryPolicy`
adds retry-with-reseed, and ``watchdog_seconds`` arms a per-run
wall-clock deadline.  Pass ``isolate=False`` to restore fail-fast
propagation (debugging a single cell).

Every grid is expressed as a list of
:class:`~repro.sim.parallel.CellSpec` cells and executed by a
:class:`~repro.sim.parallel.ParallelRunner` — serially by default, or
sharded across a process pool with ``max_workers=N``.  Either way the
cells are assembled back in canonical (trace-major, scheme-minor)
order, so the resulting matrix is identical regardless of worker
scheduling.  An optional :class:`~repro.sim.cache.RunCache` skips
cells whose content-addressed key already holds a stored result.

The grids return results and nothing else.  Each result's manifest
carries its phase timings, so a profile is a view over the returned
results (:class:`~repro.obs.profile.RunProfiler`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.sim.campaign import synthesise
from repro.sim.config import ExperimentScale
from repro.sim.options import RunOptions
from repro.sim.parallel import CellSpec, ParallelRunner, ordered_map
from repro.sim.results import ResultMatrix, RunFailure
from repro.sim.simulator import RunResult
from repro.workloads.spec_like import benchmark_names
from repro.workloads.trace import Trace


def run_matrix(
    traces: Sequence[Trace],
    schemes: Sequence[str],
    scale: Optional[ExperimentScale] = None,
    seed: int = 0xACE1,
    isolate: bool = True,
    max_workers: Optional[int] = None,
    run_cache=None,
    telemetry_dir=None,
    **options,
) -> ResultMatrix:
    """Run every scheme on every trace at one geometry.

    With ``isolate`` (the default), a failing cell becomes a
    :class:`RunFailure` in ``matrix.failures`` and the grid continues;
    without it, the first exception propagates immediately.

    ``max_workers`` > 1 shards the cells across a process pool; the
    returned matrix is identical to the serial result on the same
    seeds.  ``run_cache`` (a :class:`~repro.sim.cache.RunCache`) skips
    cells whose inputs already have a stored result.  ``telemetry_dir``
    arms the live fleet-telemetry channel over that directory — spans
    and heartbeats — without changing any outcome (see
    :class:`~repro.sim.parallel.ParallelRunner`).

    ``options`` are :class:`~repro.sim.options.RunOptions` fields but
    warm-up and timing model, which come from ``scale``.

    ``ledger=True`` attaches the capacity-flow ledger to every cell, so
    each :class:`RunResult` carries a sealed
    :class:`~repro.obs.ledger.RunLedger` (DESIGN.md §14).  Ledgered
    cells keep the ``access_batch`` path and stay deterministic:
    serial and parallel grids produce byte-identical ledgers.
    """
    scale = scale if scale is not None else ExperimentScale.default()
    cell_options = RunOptions(warmup_fraction=scale.warmup_fraction,
                              machine=scale.machine, **options)
    geometry = scale.geometry()
    specs = []
    for trace in traces:
        for scheme_name in schemes:
            specs.append(CellSpec(
                index=len(specs),
                scheme=scheme_name,
                label=scheme_name,
                trace=trace,
                geometry=geometry,
                seed=seed,
                isolate=isolate,
                options=cell_options,
            ))
    runner = ParallelRunner(
        max_workers=max_workers, run_cache=run_cache,
        telemetry_dir=telemetry_dir,
    )
    matrix = ResultMatrix()
    for outcome in runner.run(specs):
        if isinstance(outcome, RunFailure):
            matrix.add_failure(outcome)
        else:
            matrix.add(outcome)
    return matrix


def run_benchmarks(
    schemes: Sequence[str],
    benchmarks: Optional[Sequence[str]] = None,
    scale: Optional[ExperimentScale] = None,
    seed: int = 0xACE1,
    isolate: bool = True,
    max_workers: Optional[int] = None,
    run_cache=None,
    telemetry_dir=None,
    **options,
) -> ResultMatrix:
    """Run the (selected) SPEC-like benchmarks through every scheme.

    ``max_workers`` > 1 synthesises the traces across that many
    processes too, before the grid runs.
    """
    scale = scale if scale is not None else ExperimentScale.default()
    names = list(benchmarks) if benchmarks is not None else benchmark_names()
    traces = ordered_map(
        synthesise,
        [(name, scale.num_sets, scale.trace_length) for name in names],
        max_workers=max_workers,
    )
    return run_matrix(traces, schemes, scale=scale, seed=seed,
                      isolate=isolate, max_workers=max_workers,
                      run_cache=run_cache, telemetry_dir=telemetry_dir,
                      **options)


def associativity_sweep(
    trace: Trace,
    schemes: Sequence[str],
    associativities: Sequence[int],
    scale: Optional[ExperimentScale] = None,
    seed: int = 0xACE1,
    failures: Optional[List[RunFailure]] = None,
    max_workers: Optional[int] = None,
    run_cache=None,
    telemetry_dir=None,
    **options,
) -> Dict[str, List[RunResult]]:
    """MPKI-vs-associativity curves (Figures 3 and 10).

    The trace's set mapping depends only on the set count, so the same
    trace is reused across associativities — exactly how the paper
    varies capacity while holding the reference stream fixed.

    Passing a ``failures`` list opts into per-run isolation: a failed
    run is appended there (tagged ``scheme@assoc``) and skipped from
    its curve rather than aborting the sweep.  Without it, curves must
    stay index-aligned with ``associativities``, so errors propagate.
    """
    scale = scale if scale is not None else ExperimentScale.default()
    cell_options = RunOptions(warmup_fraction=scale.warmup_fraction,
                              machine=scale.machine, **options)
    isolate = failures is not None
    specs = []
    spec_scheme: List[str] = []
    for associativity in associativities:
        geometry = scale.geometry(associativity=associativity)
        for scheme_name in schemes:
            specs.append(CellSpec(
                index=len(specs),
                scheme=scheme_name,
                label=f"{scheme_name}@{associativity}",
                trace=trace,
                geometry=geometry,
                seed=seed,
                isolate=isolate,
                options=cell_options,
            ))
            spec_scheme.append(scheme_name)
    runner = ParallelRunner(
        max_workers=max_workers, run_cache=run_cache,
        telemetry_dir=telemetry_dir,
    )
    curves: Dict[str, List[RunResult]] = {name: [] for name in schemes}
    for scheme_name, outcome in zip(spec_scheme, runner.run(specs)):
        if isinstance(outcome, RunFailure):
            failures.append(outcome)
            continue
        curves[scheme_name].append(outcome)
    return curves
