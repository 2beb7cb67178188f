"""Figure 7 — normalized MPKI for the 15 benchmarks plus the geomean.

The paper's observations this table must reproduce:

* STEM never materially underperforms LRU and posts the best geomean
  (a 21.4% MPKI reduction in the paper);
* DIP/PeLIFO lead the spatial schemes on Class II and can *degrade*
  ``astar`` (the set-dueling pathology);
* SBC helps Class I, is neutral-to-harmful elsewhere;
* no scheme improves ``art`` at this capacity.
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
    """Normalized-MPKI table (workload rows, scheme columns, + geomean)."""
    return normalized(lambda result: result.mpki, scale, schemes, benchmarks)


def main(scale: Optional[ExperimentScale] = None) -> str:
    """Render Figure 7 in the paper's benchmark order."""
    return print_figure("Figure 7: MPKI normalized to LRU", run(scale=scale))


if __name__ == "__main__":
    main()
