"""Simulation driver: scheme factory, trace runner, sweeps, tables."""

from repro.sim.config import (
    PAPER_SCHEMES,
    ExperimentScale,
    MachineConfig,
    available_schemes,
    canonical_scheme_name,
    make_scheme,
)
from repro.sim.cache import RunCache
from repro.sim.campaign import (
    CampaignOutcome,
    CampaignSpec,
    build_cells,
    campaign_status,
    load_campaign_spec,
    run_campaign,
)
from repro.sim.parallel import (
    CellObserver,
    CellSpec,
    ParallelRunner,
    cell_cache_key,
)
from repro.sim.options import RunOptions
from repro.sim.replication import (
    ReplicationSummary,
    compare_with_confidence,
    replicate,
)
from repro.sim.results import (
    ResultMatrix,
    RunFailure,
    format_series,
    format_table,
)
from repro.sim.runner import associativity_sweep, run_benchmarks, run_matrix
from repro.sim.simulator import RunResult, run_trace
from repro.sim.timeline import Timeline, run_timeline

__all__ = [
    "CampaignOutcome",
    "CampaignSpec",
    "CellObserver",
    "CellSpec",
    "ExperimentScale",
    "MachineConfig",
    "PAPER_SCHEMES",
    "ParallelRunner",
    "ReplicationSummary",
    "ResultMatrix",
    "RunCache",
    "RunFailure",
    "RunOptions",
    "RunResult",
    "Timeline",
    "associativity_sweep",
    "build_cells",
    "campaign_status",
    "cell_cache_key",
    "load_campaign_spec",
    "run_campaign",
    "available_schemes",
    "canonical_scheme_name",
    "compare_with_confidence",
    "format_series",
    "format_table",
    "make_scheme",
    "replicate",
    "run_benchmarks",
    "run_matrix",
    "run_timeline",
    "run_trace",
]
