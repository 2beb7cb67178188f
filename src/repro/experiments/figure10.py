"""Figure 10 — the sensitivity study: Figure 3's sweeps with STEM added.

The claims this experiment must support (Section 5.3):

* omnetpp: STEM tracks the best temporal scheme at small associativity,
  outperforms everything in the moderate range by combining both kinds
  of management, and stays competitive at high associativity;
* ammp: STEM never does materially worse than the best existing scheme
  across the whole range, with clear advantages over DIP/PeLIFO/V-Way
  in the small-associativity band.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.experiments.figure3 import (
    DEFAULT_ASSOCIATIVITIES,
    SweepResult,
    print_sweeps,
    run as _run_figure3,
)
from repro.sim.config import ExperimentScale, PAPER_SCHEMES

#: Figure 10 plots every scheme including STEM.
FIGURE10_SCHEMES = PAPER_SCHEMES


def run(
    benchmark: str = "omnetpp",
    associativities: Sequence[int] = DEFAULT_ASSOCIATIVITIES,
    scale: Optional[ExperimentScale] = None,
) -> SweepResult:
    """Sweep associativity for one benchmark, STEM included."""
    return _run_figure3(
        benchmark,
        schemes=FIGURE10_SCHEMES,
        associativities=associativities,
        scale=scale,
    )


def main(
    scale: Optional[ExperimentScale] = None,
    associativities: Sequence[int] = DEFAULT_ASSOCIATIVITIES,
) -> str:
    """Render the two Figure 10 sweeps as MPKI tables."""
    return print_sweeps(
        "Figure 10 ({benchmark}): MPKI vs associativity (with STEM)",
        FIGURE10_SCHEMES, associativities, scale,
    )


if __name__ == "__main__":
    main()
