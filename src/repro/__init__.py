"""repro — a reproduction of "STEM: Spatiotemporal Management of
Capacity for Intra-Core Last Level Caches" (Zhan, Jiang & Seth,
MICRO 2010).

The package builds the paper's whole experimental stack in pure Python:

* :mod:`repro.core` — the STEM LLC itself (shadow-set monitors,
  saturating counters, set coupling, per-set LRU/BIP dueling);
* :mod:`repro.policies` — the temporal baselines (LRU, LIP, BIP, DIP,
  PeLIFO, …) plus Belady's OPT oracle;
* :mod:`repro.spatial` — the spatial baselines (V-Way, SBC);
* :mod:`repro.cache` — the set-associative substrate, hierarchy, DRAM;
* :mod:`repro.workloads` — synthetic and SPEC-like trace generation;
* :mod:`repro.analysis` / :mod:`repro.timing` — capacity-demand
  profiling, MPKI/AMAT/CPI models, hardware overhead accounting;
* :mod:`repro.sim` / :mod:`repro.experiments` — the runner and one
  module per paper figure/table;
* :mod:`repro.obs` — observability: typed event tracing, run
  manifests/provenance, and hot-loop profiling;
* :mod:`repro.resilience` — deterministic fault injection, safe-mode
  degradation, and the crash-tolerant run harness.

Quickstart::

    from repro import CacheGeometry, StemCache, make_benchmark_trace, run_trace

    geometry = CacheGeometry(num_sets=256, associativity=16)
    cache = StemCache(geometry)
    result = run_trace(cache, make_benchmark_trace("omnetpp"))
    print(result.mpki, result.amat, result.cpi)

The names in ``__all__`` are the quickstart's.  Each resolves on first
use from the module that defines it (PEP 562), so ``import repro``
loads only :mod:`repro._version`; everywhere else, import a name from
its defining module.
"""

from repro._version import __version__

#: Each quickstart name and the module that defines it.
_HOMES = {
    "AccessKind": "repro.cache.access",
    "CacheGeometry": "repro.cache.geometry",
    "CacheHierarchy": "repro.cache.hierarchy",
    "ExperimentScale": "repro.sim.config",
    "FaultPlan": "repro.resilience.faults",
    "JsonlSink": "repro.obs.sinks",
    "LedgerSink": "repro.obs.ledger",
    "MainMemory": "repro.cache.memory",
    "NULL_TRACER": "repro.obs.tracer",
    "PAPER_SCHEMES": "repro.sim.config",
    "RetryPolicy": "repro.resilience.harness",
    "RingBufferSink": "repro.obs.sinks",
    "RunLedger": "repro.obs.ledger",
    "RunManifest": "repro.obs.manifest",
    "RunProfiler": "repro.obs.profile",
    "SbcCache": "repro.spatial.sbc",
    "SetAssociativeCache": "repro.cache.basecache",
    "StemCache": "repro.core.stem_cache",
    "StemConfig": "repro.core.config",
    "Trace": "repro.workloads.trace",
    "TraceEvent": "repro.obs.events",
    "Tracer": "repro.obs.tracer",
    "VwayCache": "repro.spatial.vway",
    "attribute": "repro.obs.explain",
    "available_policies": "repro.policies.registry",
    "available_schemes": "repro.sim.config",
    "benchmark_names": "repro.workloads.spec_like",
    "build_manifest": "repro.obs.manifest",
    "figure2_trace": "repro.workloads.synthetic",
    "generate_trace": "repro.workloads.generators",
    "load_events": "repro.obs.sinks",
    "make_benchmark_trace": "repro.workloads.spec_like",
    "make_policy": "repro.policies.registry",
    "make_scheme": "repro.sim.config",
    "run_benchmarks": "repro.sim.runner",
    "run_fault_campaign": "repro.resilience.campaign",
    "run_trace": "repro.sim.simulator",
    "summarize_events": "repro.obs.inspect",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    """Import a quickstart name from its defining module on first use."""
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(home), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
