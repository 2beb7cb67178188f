"""Optimality gap: how close each scheme gets to Belady's OPT.

The paper frames every hardware policy as an approximation of
"Belady's optimal algorithm" (Section 2.2).  This extension experiment
makes that framing quantitative: for each benchmark it computes the
*global* OPT lower bound (fully-associative MIN over the LLC's total
capacity — a bound no placement/replacement scheme of that capacity
can beat) and reports each scheme's miss count as a multiple of it.
A ratio of 1.0 would be perfect; the gap that remains after STEM shows
how much headroom set-granular hardware still leaves on the table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence

from repro.policies.belady import opt_misses
from repro.sim.config import ExperimentScale, PAPER_SCHEMES
from repro.sim.runner import run_matrix
from repro.workloads.spec_like import make_benchmark_trace


@dataclass
class OptGapResult:
    """Miss counts relative to the global OPT bound."""

    benchmarks: Sequence[str]
    schemes: Sequence[str]
    opt_misses: Dict[str, int]
    scheme_misses: Dict[str, Dict[str, int]]

    def gap(self, benchmark: str, scheme: str) -> float:
        """misses(scheme) / misses(OPT); >= 1.0 by construction."""
        bound = self.opt_misses[benchmark]
        if bound == 0:
            return 1.0
        return self.scheme_misses[benchmark][scheme] / bound


def run(
    benchmarks: Sequence[str] = ("omnetpp", "mcf", "gobmk"),
    schemes: Sequence[str] = PAPER_SCHEMES,
    scale: Optional[ExperimentScale] = None,
) -> OptGapResult:
    """Measure per-scheme optimality gaps on whole traces.

    OPT is evaluated over the full trace (no warm-up discard) for a
    clean bound, so the schemes are measured the same way here.
    """
    scale = scale if scale is not None else ExperimentScale.default()
    geometry = scale.geometry()
    traces = [
        make_benchmark_trace(
            name, num_sets=scale.num_sets, length=scale.trace_length
        )
        for name in benchmarks
    ]
    opt = {
        name: opt_misses(
            [geometry.mapper.block_address(a) for a in trace.addresses],
            geometry.num_lines,
        )
        for name, trace in zip(benchmarks, traces)
    }
    matrix = run_matrix(
        traces, schemes, scale=replace(scale, warmup_fraction=0.0),
        isolate=False,
    )
    return OptGapResult(
        benchmarks=list(benchmarks),
        schemes=list(schemes),
        opt_misses=opt,
        scheme_misses=matrix.metric_table(
            lambda result: result.stats.misses
        ),
    )


def main(scale: Optional[ExperimentScale] = None) -> str:
    """Render the optimality-gap table."""
    result = run(scale=scale)
    lines = [
        "Optimality gap: misses as a multiple of fully-associative OPT",
        f"{'benchmark':>12s} " + "".join(
            f"{scheme:>9s}" for scheme in result.schemes
        ),
    ]
    for name in result.benchmarks:
        cells = "".join(
            f"{result.gap(name, scheme):>9.2f}" for scheme in result.schemes
        )
        lines.append(f"{name:>12s} {cells}")
    text = "\n".join(lines)
    print(text)
    return text


if __name__ == "__main__":
    main()
