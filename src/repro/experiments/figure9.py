"""Figure 9 — normalized CPI for the 15 benchmarks plus the geomean.

CPI comes from the analytic core model (DESIGN.md §7): a fixed base
CPI plus overlap-discounted LLC stall cycles.  Because the base terms
are identical across schemes, normalized CPI compresses the AMAT gaps
exactly as the paper's Figure 9 compresses Figure 8 (paper: STEM 6.3%,
DIP 4.7%, PeLIFO 3.4%, V-Way -4.6%, SBC 2.2% over LRU).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.experiments.evaluation import normalized, print_figure
from repro.sim.config import ExperimentScale, PAPER_SCHEMES


def run(
    scale: Optional[ExperimentScale] = None,
    schemes: Sequence[str] = PAPER_SCHEMES,
    benchmarks: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """Normalized-CPI table (workload rows, scheme columns, + geomean)."""
    return normalized(lambda result: result.cpi, scale, schemes, benchmarks)


def main(scale: Optional[ExperimentScale] = None) -> str:
    """Render Figure 9 in the paper's benchmark order."""
    return print_figure("Figure 9: CPI normalized to LRU", run(scale=scale))


if __name__ == "__main__":
    main()
