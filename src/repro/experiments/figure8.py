"""Figure 8 — normalized AMAT for the 15 benchmarks plus the geomean.

AMAT uses the paper's Section 5.1 latency model, so cooperative schemes
pay for their second tag-store probes (misses in a coupled taker cost
12 cycles of tag traffic, cooperative hits 20 cycles) — which is why
the paper reports AMAT separately from MPKI.  Paper improvements over
LRU: STEM 13.5%, DIP 10.3%, PeLIFO 5.8%, V-Way -9.2%, SBC 4.1%.
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
    """Normalized-AMAT table (workload rows, scheme columns, + geomean)."""
    return normalized(lambda result: result.amat, scale, schemes, benchmarks)


def main(scale: Optional[ExperimentScale] = None) -> str:
    """Render Figure 8 in the paper's benchmark order."""
    return print_figure("Figure 8: AMAT normalized to LRU", run(scale=scale))


if __name__ == "__main__":
    main()
