"""Off-chip traffic: line transfers per kilo-instruction, per scheme.

An extension experiment beyond the paper's three metrics: every LLC
miss fetches one line and every dirty eviction writes one back, so the
DRAM-facing traffic is ``misses + writebacks`` — the energy/bandwidth
face of the same capacity-management story.  Schemes that keep more of
the working set on chip (STEM's cooperation, DIP's thrash-proofing)
cut fetch traffic; cooperative schemes additionally avoid write-backs
whenever a dirty victim is *spilled* instead of evicted.

Traces for this experiment carry a write mask (30% writes by default)
so the write-back path is actually exercised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.sim.config import ExperimentScale, PAPER_SCHEMES
from repro.sim.runner import run_matrix
from repro.workloads.spec_like import benchmark_names, make_benchmark_trace

#: Fraction of accesses marked as writes for the traffic runs.
DEFAULT_WRITE_FRACTION = 0.3


@dataclass
class TrafficResult:
    """Per-benchmark, per-scheme off-chip line transfers / kinstr."""

    benchmarks: Sequence[str]
    schemes: Sequence[str]
    fetches_pki: Dict[str, Dict[str, float]]
    writebacks_pki: Dict[str, Dict[str, float]]

    def total_pki(self, benchmark: str, scheme: str) -> float:
        """Fetch + write-back lines per kilo-instruction."""
        return (
            self.fetches_pki[benchmark][scheme]
            + self.writebacks_pki[benchmark][scheme]
        )


def run(
    benchmarks: Optional[Sequence[str]] = None,
    schemes: Sequence[str] = PAPER_SCHEMES,
    scale: Optional[ExperimentScale] = None,
    write_fraction: float = DEFAULT_WRITE_FRACTION,
) -> TrafficResult:
    """Measure off-chip traffic for the selected benchmarks/schemes."""
    scale = scale if scale is not None else ExperimentScale.default()
    names = list(benchmarks) if benchmarks is not None else benchmark_names()
    traces = [
        make_benchmark_trace(
            name,
            num_sets=scale.num_sets,
            length=scale.trace_length,
            write_fraction=write_fraction,
        )
        for name in names
    ]
    matrix = run_matrix(traces, schemes, scale=scale, isolate=False)
    return TrafficResult(
        benchmarks=names,
        schemes=list(schemes),
        fetches_pki=matrix.metric_table(
            lambda result: result.stats.misses
            / (result.measured_instructions / 1000.0)
        ),
        writebacks_pki=matrix.metric_table(
            lambda result: result.stats.writebacks
            / (result.measured_instructions / 1000.0)
        ),
    )


def main(
    scale: Optional[ExperimentScale] = None,
    benchmarks: Sequence[str] = ("omnetpp", "mcf", "soplex"),
) -> str:
    """Render the traffic table for a representative benchmark trio."""
    result = run(benchmarks=benchmarks, scale=scale)
    lines = [
        "Off-chip traffic: lines per kilo-instruction "
        "(fetches + writebacks)",
        f"{'benchmark':>12s} " + "".join(
            f"{scheme:>12s}" for scheme in result.schemes
        ),
    ]
    for name in result.benchmarks:
        cells = "".join(
            f"{result.total_pki(name, scheme):>12.2f}"
            for scheme in result.schemes
        )
        lines.append(f"{name:>12s} {cells}")
    text = "\n".join(lines)
    print(text)
    return text


if __name__ == "__main__":
    main()
