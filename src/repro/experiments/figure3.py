"""Figure 3 — MPKI vs associativity for omnetpp and ammp (no STEM).

The paper sweeps the LLC associativity from 1 to 32 with the set count
fixed and plots MPKI for LRU, DIP, PeLIFO, V-Way and SBC.  The shapes
to reproduce:

* omnetpp: temporal schemes win at small associativity (few givers to
  pair), spatial schemes take over in the upper-middle range, and all
  schemes converge once sets hold the largest working sets;
* ammp: the spatial schemes dominate at small associativity (half the
  sets need almost nothing) and every scheme converges to LRU once the
  local capacity suffices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.sim.config import ExperimentScale
from repro.sim.results import format_series
from repro.sim.runner import associativity_sweep
from repro.workloads.spec_like import make_benchmark_trace

#: Schemes plotted in Figure 3 (Figure 10 adds STEM).
FIGURE3_SCHEMES = ("LRU", "DIP", "PeLIFO", "V-Way", "SBC")

#: The paper sweeps 1..32; this condensed grid keeps the same shape.
DEFAULT_ASSOCIATIVITIES = (1, 2, 4, 6, 8, 10, 12, 16, 20, 24, 28, 32)


@dataclass
class SweepResult:
    """MPKI curves for one benchmark."""

    benchmark: str
    associativities: List[int]
    mpki: Dict[str, List[float]]  # scheme -> curve


def run(
    benchmark: str = "omnetpp",
    schemes: Sequence[str] = FIGURE3_SCHEMES,
    associativities: Sequence[int] = DEFAULT_ASSOCIATIVITIES,
    scale: Optional[ExperimentScale] = None,
) -> SweepResult:
    """Sweep associativity for one benchmark."""
    scale = scale if scale is not None else ExperimentScale.default()
    trace = make_benchmark_trace(
        benchmark, num_sets=scale.num_sets, length=scale.trace_length
    )
    curves = associativity_sweep(
        trace, schemes, associativities, scale=scale
    )
    return SweepResult(
        benchmark=benchmark,
        associativities=list(associativities),
        mpki={
            scheme: [result.mpki for result in results]
            for scheme, results in curves.items()
        },
    )


def print_sweeps(
    title: str,
    schemes: Sequence[str],
    associativities: Sequence[int],
    scale: Optional[ExperimentScale] = None,
) -> str:
    """Print the omnetpp and ammp sweeps as MPKI tables.

    ``title`` names the figure; its ``{benchmark}`` field is filled in
    per sweep.  Figure 10 prints through this too.
    """
    blocks = []
    for benchmark in ("omnetpp", "ammp"):
        result = run(
            benchmark,
            schemes=schemes,
            associativities=associativities,
            scale=scale,
        )
        blocks.append(
            format_series(
                result.mpki,
                result.associativities,
                x_label="scheme\\assoc",
                title=title.format(benchmark=benchmark),
                precision=2,
            )
        )
    text = "\n\n".join(blocks)
    print(text)
    return text


def main(
    scale: Optional[ExperimentScale] = None,
    schemes: Sequence[str] = FIGURE3_SCHEMES,
    associativities: Sequence[int] = DEFAULT_ASSOCIATIVITIES,
) -> str:
    """Render the two Figure 3 sweeps as MPKI tables."""
    return print_sweeps(
        "Figure 3 ({benchmark}): MPKI vs associativity",
        schemes, associativities, scale,
    )


if __name__ == "__main__":
    main()
