"""Trace-driven simulation of a single LLC scheme.

:func:`run_trace` pushes a trace through any scheme object implementing
the ``access() -> AccessKind`` protocol, with a warm-up prefix whose
statistics are discarded (the paper warms caches before measurement),
and returns a :class:`RunResult` carrying the raw counters plus the
three paper metrics.

Every run is also timed (``perf_counter`` around the warm-up and
measured loops — two clock reads per phase, invisible next to the
simulation itself) and stamped with a
:class:`~repro.obs.manifest.RunManifest` so results carry their own
provenance; :class:`~repro.obs.profile.RunProfiler` aggregates the
timings for the ``--profile`` CLI surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, List, Optional

from repro.analysis.metrics import MetricSet, evaluate_run
from repro.common.errors import ConfigError, WatchdogTimeout
from repro.common.stats import CacheStats
from repro.obs.ledger import LedgerSink, RunLedger
from repro.obs.manifest import RunManifest, build_manifest
from repro.obs.metrics import MetricsRegistry, MetricsSeries
from repro.obs.tracer import Tracer
from repro.sim.config import MachineConfig
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class RunResult:
    """Outcome of one (scheme, trace) simulation.

    ``series`` carries the windowed metric time-series when the run was
    made with ``metrics_window=N``; it is None (and costs nothing) by
    default.

    ``ledger`` carries the capacity-flow ledger when the run was made
    with ``ledger=True``; it is None (and costs nothing) by default.
    It is serialised, so saved runs feed ``repro explain`` without
    re-simulating.
    """

    scheme: str
    trace_name: str
    stats: CacheStats
    measured_accesses: int
    measured_instructions: int
    metrics: MetricSet
    manifest: Optional[RunManifest] = None
    series: Optional[MetricsSeries] = None
    ledger: Optional[RunLedger] = None

    @property
    def mpki(self) -> float:
        """Misses per kilo-instruction over the measured window."""
        return self.metrics.mpki

    @property
    def amat(self) -> float:
        """L2-local AMAT in cycles over the measured window."""
        return self.metrics.amat

    @property
    def cpi(self) -> float:
        """Modelled CPI over the measured window."""
        return self.metrics.cpi

    @property
    def miss_rate(self) -> float:
        """LLC miss rate over the measured window."""
        return self.stats.miss_rate


#: Accesses between deadline checks when a watchdog is armed: coarse
#: enough to stay invisible in the hot loop, fine enough that an
#: overrunning run is caught within a fraction of a second.
_WATCHDOG_STRIDE = 8192


def _run_span(
    access,
    batch,
    addresses,
    set_indices,
    tags,
    writes,
    start: int,
    stop: int,
    deadline_at: Optional[float],
    trace_name: str,
    beat=None,
) -> None:
    """Drive ``addresses[start:stop]`` through the cache.

    One chunked loop serves every combination: with no deadline and no
    telemetry the span is a single chunk (identical to the old tight
    loop); with a watchdog armed the wall clock is checked every
    :data:`_WATCHDOG_STRIDE` accesses, raising
    :class:`WatchdogTimeout` so a hung or pathologically slow run
    cannot stall a whole experiment grid.  ``beat`` — the telemetry
    heartbeat callback (:meth:`~repro.obs.telemetry.CellTelemetry.beat`)
    — reuses the same stride; it receives the absolute access position
    after every chunk and throttles its own writes by wall clock.  When
    the scheme provides an ``access_batch`` fast path, each chunk is
    handed over wholesale with the precomputed ``(set_indices, tags)``
    arrays.
    """
    if start >= stop:
        return
    stride = (
        (stop - start) if deadline_at is None and beat is None
        else _WATCHDOG_STRIDE
    )
    for chunk_start in range(start, stop, stride):
        chunk_stop = min(stop, chunk_start + stride)
        if batch is not None:
            batch(addresses, set_indices, tags, writes, chunk_start, chunk_stop)
        elif writes is None:
            for index in range(chunk_start, chunk_stop):
                access(addresses[index])
        else:
            for index in range(chunk_start, chunk_stop):
                access(addresses[index], writes[index])
        if beat is not None:
            beat(chunk_stop)
        if deadline_at is not None and perf_counter() > deadline_at:
            raise WatchdogTimeout(
                f"trace {trace_name!r}: run exceeded its wall-clock "
                f"deadline after {chunk_stop} accesses"
            )


def make_engine(
    cache, trace: Trace, writes: Optional[List[bool]]
) -> Callable[[int, int, Optional[float], Optional[Callable]], None]:
    """Bind ``trace`` to ``cache``'s access path for one run.

    A scheme with an ``access_batch`` fast path gets the trace's
    ``(set_indices, tags)`` split for its geometry, computed once and
    cached on the trace; any other scheme runs ``access()`` per
    address.  :func:`run_trace` binds before it starts its clocks, so
    the split stays outside the timed phases and accesses/sec reflects
    simulation work only.

    Returns ``drive(start, stop, deadline_at, beat)``, which pushes
    ``addresses[start:stop]`` through the cache (see :func:`_run_span`).
    """
    addresses = trace.addresses
    access = cache.access
    batch = getattr(cache, "access_batch", None)
    if batch is not None:
        set_indices, tags = trace.precompute_geometry(cache.mapper)
    else:
        set_indices = tags = None

    def drive(start, stop, deadline_at, beat) -> None:
        _run_span(access, batch, addresses, set_indices, tags, writes,
                  start, stop, deadline_at, trace.name, beat)

    return drive


def _attach_ledger_sink(cache, sink: LedgerSink) -> None:
    """Route the cache's event stream into ``sink``.

    Walks wrapper chains (e.g. the fault injector's
    :class:`~repro.resilience.faults.InjectingCache`, which delegates
    attribute *reads* but would swallow writes) to the object that
    actually owns the ``tracer`` attribute.  ``object.__getattribute__``
    finds the owner without a wrapper's ``__getattr__`` delegation and
    without reading ``__dict__``: on CPython 3.11+ that read would turn
    the scheme's inline attribute values into a dict and slow every
    attribute load in its access path for the rest of its life
    (DESIGN.md §9).  A disabled tracer is the shared
    :data:`~repro.obs.tracer.NULL_TRACER`, which must never be mutated
    — it is replaced with a fresh enabled tracer; an already-enabled
    tracer simply gains the sink.
    """
    target = cache
    tracer = None
    while True:
        try:
            tracer = object.__getattribute__(target, "tracer")
            break
        except AttributeError:
            try:
                target = object.__getattribute__(target, "_cache")
            except AttributeError:
                break
    if tracer is None:
        raise ConfigError(
            f"scheme {type(cache).__name__} does not support tracing, "
            "so it cannot carry a capacity-flow ledger"
        )
    if tracer.enabled:
        tracer.add_sink(sink)
    else:
        target.tracer = Tracer(sink)


def _seal_ledger(cache, sink: LedgerSink) -> RunLedger:
    """Close the run's books: final stats, attribution counters."""
    counters = None
    hook = getattr(cache, "ledger_counters", None)
    if hook is not None:
        counters = hook()
    stats = cache.stats
    return sink.seal(
        final_accesses=stats.accesses,
        final_hits=stats.hits,
        counters=counters,
    )


def run_trace(
    cache,
    trace: Trace,
    warmup_fraction: float = 0.25,
    machine: Optional[MachineConfig] = None,
    with_writes: bool = True,
    deadline_seconds: Optional[float] = None,
    metrics_window: Optional[int] = None,
    telemetry=None,
    ledger: bool = False,
) -> RunResult:
    """Simulate ``trace`` on ``cache`` and evaluate the paper metrics.

    The first ``warmup_fraction`` of the accesses prime the cache; its
    statistics are then reset so the measured window starts warm, and
    the trace's instruction count is prorated onto that window so MPKI
    stays comparable across warm-up choices.

    ``deadline_seconds`` arms a cooperative wall-clock watchdog over
    the whole run (warm-up plus measurement); exceeding it raises
    :class:`~repro.common.errors.WatchdogTimeout`.

    ``metrics_window`` (accesses) opts into windowed metrics: the
    measured phase runs window by window, a
    :class:`~repro.obs.metrics.MetricsRegistry` samples the cache at
    every boundary, and the finished series is attached as
    ``result.series``.  Window boundaries align with ``access_batch``
    chunk boundaries — where every fast path flushes its locally
    accumulated statistics — so batch and scalar execution produce
    identical series (DESIGN.md §10).  With the default ``None`` the
    loop below is byte-identical to the uninstrumented path.

    ``telemetry`` (a :class:`~repro.obs.telemetry.CellTelemetry`)
    arms live status reporting: warm-up and measured phase spans plus
    wall-clock-throttled heartbeats carrying worker resource samples.
    Telemetry only *observes* — it never touches scheme state, RNG
    draws or statistics, so results are byte-identical with it on or
    off (DESIGN.md §11).

    ``ledger=True`` attaches a streaming
    :class:`~repro.obs.ledger.LedgerSink` before warm-up and seals it
    into ``result.ledger`` after measurement: coupling episodes,
    policy-swap windows, and the per-set capacity-flow account, with
    conservation verified at close.  The ledger reads only
    capacity-flow events, so the other tracepoints count their events
    without building them and ``access_batch`` stays on (DESIGN.md
    §14); the count reaches the ledger in one flush of the tracer,
    after the measured phase and before the seal.  Ledgered runs stay
    deterministic and byte-identical across serial and parallel
    execution.  The default ``False`` touches nothing and costs
    nothing.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigError(
            f"warmup_fraction must lie in [0, 1), got {warmup_fraction}"
        )
    if deadline_seconds is not None and deadline_seconds <= 0:
        raise ConfigError(
            f"deadline_seconds must be positive, got {deadline_seconds}"
        )
    machine = machine if machine is not None else MachineConfig()
    total = len(trace.addresses)
    if total == 0:
        raise ConfigError(f"trace {trace.name!r} is empty")
    warm = int(total * warmup_fraction)
    ledger_sink: Optional[LedgerSink] = None
    if ledger:
        # Attach before warm-up: warm-up events belong in the episode
        # record (the monotonic clock spans the whole run).
        ledger_sink = LedgerSink()
        _attach_ledger_sink(cache, ledger_sink)
    drive = make_engine(cache, trace, trace.writes if with_writes else None)
    beat = telemetry.beat if telemetry is not None else None
    phase_start = perf_counter()
    deadline_at = (
        phase_start + deadline_seconds if deadline_seconds is not None
        else None
    )
    if telemetry is not None:
        telemetry.phase_start("warmup", 0)
    drive(0, warm, deadline_at, beat)
    warmup_seconds = perf_counter() - phase_start
    cache.reset_stats()
    scheme = getattr(cache, "name", type(cache).__name__)
    registry: Optional[MetricsRegistry] = None
    if telemetry is not None:
        telemetry.phase_end("warmup", warm)
        telemetry.phase_start("measured", warm)
    phase_start = perf_counter()
    if metrics_window is None:
        drive(warm, total, deadline_at, beat)
    else:
        # Windowed measurement: the registry samples counters/gauges at
        # every boundary.  The registry constructor validates the window.
        registry = MetricsRegistry(window_length=metrics_window)
        position = warm
        while position < total:
            stop = min(position + metrics_window, total)
            drive(position, stop, deadline_at, beat)
            registry.sample(cache, stop - position)
            position = stop
    measured_seconds = perf_counter() - phase_start
    if telemetry is not None:
        telemetry.phase_end("measured", total)
    # Events counted without being built reach the sinks in one call.
    tracer = getattr(cache, "tracer", None)
    if tracer is not None and tracer.unread:
        tracer.flush()
    measured = total - warm
    instructions = max(
        1, round(trace.metadata.instructions * measured / total)
    )
    metrics = evaluate_run(
        scheme=scheme,
        workload=trace.name,
        stats=cache.stats,
        instructions=instructions,
        latency=machine.latency,
        cpi_model=machine.cpi,
    )
    manifest = build_manifest(
        cache,
        trace,
        warmup_seconds=warmup_seconds,
        measured_seconds=measured_seconds,
        measured_accesses=measured,
    )
    run_ledger = (
        _seal_ledger(cache, ledger_sink) if ledger_sink is not None
        else None
    )
    return RunResult(
        scheme=scheme,
        trace_name=trace.name,
        stats=cache.stats,
        measured_accesses=measured,
        measured_instructions=instructions,
        metrics=metrics,
        manifest=manifest,
        series=(
            registry.to_series(scheme, trace.name)
            if registry is not None else None
        ),
        ledger=run_ledger,
    )
