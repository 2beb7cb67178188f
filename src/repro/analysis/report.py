"""Composite benchmark report: everything about one workload, one page.

Pulls the library's analyses together for a single workload — the
capacity-demand profile, the Figure 6 classification, the reuse
summary, the LRU miss curve and a full scheme comparison — and renders
them as one plain-text report.  This is the "show me what this
workload wants and who serves it best" entry point, exposed through
``python -m repro report <benchmark>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.capacity_demand import profile_capacity_demand
from repro.analysis.classification import WorkloadClassification, classify_trace
from repro.analysis.reuse import ReuseSummary, lru_miss_curve, summarize_reuse
from repro.sim.config import ExperimentScale, PAPER_SCHEMES
from repro.sim.runner import run_matrix
from repro.sim.simulator import RunResult
from repro.workloads.spec_like import make_benchmark_trace
from repro.workloads.trace import Trace


@dataclass
class WorkloadReport:
    """All analyses of one workload bundled together."""

    trace_name: str
    classification: WorkloadClassification
    reuse: ReuseSummary
    demand_bands: Dict["tuple[int, int]", float]
    miss_curve: Dict[int, float]
    scheme_results: Dict[str, RunResult]

    def best_scheme(self) -> str:
        """The scheme with the lowest MPKI."""
        return min(
            self.scheme_results,
            key=lambda scheme: self.scheme_results[scheme].mpki,
        )


def build_report(
    benchmark: str,
    schemes: Sequence[str] = PAPER_SCHEMES,
    scale: Optional[ExperimentScale] = None,
    trace: Optional[Trace] = None,
) -> WorkloadReport:
    """Run every analysis and scheme comparison for one workload."""
    scale = scale if scale is not None else ExperimentScale.default()
    if trace is None:
        trace = make_benchmark_trace(
            benchmark, num_sets=scale.num_sets, length=scale.trace_length
        )
    profile = profile_capacity_demand(
        trace,
        num_sets=scale.num_sets,
        interval_length=max(1, len(trace) // 8),
    )
    classification = classify_trace(
        trace, num_sets=scale.num_sets, associativity=scale.associativity
    )
    reuse = summarize_reuse(trace, num_sets=scale.num_sets)
    curve = lru_miss_curve(
        trace,
        num_sets=scale.num_sets,
        associativities=[2, 4, 8, 16, 32],
    )
    matrix = run_matrix([trace], schemes, scale=scale, isolate=False)
    return WorkloadReport(
        trace_name=trace.name,
        classification=classification,
        reuse=reuse,
        demand_bands=profile.mean_distribution(),
        miss_curve=curve,
        scheme_results={
            result.scheme: result for result in matrix.results()
        },
    )


def render_report(report: WorkloadReport) -> str:
    """Format a :class:`WorkloadReport` as plain text."""
    lines: List[str] = [
        f"Workload report: {report.trace_name}",
        "=" * (17 + len(report.trace_name)),
        "",
        f"classification: Class {report.classification.label} "
        f"(givers {report.classification.giver_fraction:.1%}, "
        f"takers {report.classification.taker_fraction:.1%}, "
        f"thrash {report.classification.thrash_fraction:.1%})",
        f"reuse: cold {report.reuse.cold_fraction:.1%}, "
        f"median distance {report.reuse.median_distance:.0f}, "
        f"distant re-refs {report.reuse.distant_fraction:.1%}",
        "",
        "LRU miss curve:",
    ]
    for assoc, rate in sorted(report.miss_curve.items()):
        lines.append(f"  {assoc:>3d}-way: {rate:6.1%}")
    lines.append("")
    lines.append("capacity-demand bands (mean share of sets):")
    for band, fraction in report.demand_bands.items():
        if fraction > 0.01:
            label = "0" if band == (0, 0) else f"{band[0]}-{band[1]}"
            lines.append(f"  {label:>7s}: {fraction:6.1%}")
    lines.append("")
    lines.append(f"{'scheme':>10s} {'MPKI':>9s} {'AMAT':>9s} {'CPI':>8s}")
    for scheme, result in report.scheme_results.items():
        lines.append(
            f"{scheme:>10s} {result.mpki:>9.3f} {result.amat:>9.2f} "
            f"{result.cpi:>8.3f}"
        )
    lines.append("")
    lines.append(f"best scheme by MPKI: {report.best_scheme()}")
    return "\n".join(lines)
