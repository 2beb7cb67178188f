"""The headline numbers: geomean improvements over LRU.

The abstract claims STEM improves MPKI / AMAT / CPI over LRU by 21.4%,
13.5% and 6.3%, against DIP (n/a, 10.3%, 4.7%), PeLIFO (n/a, 5.8%,
3.4%), V-Way (n/a, -9.2%, -4.6%) and SBC (n/a, 4.1%, 2.2%).  This
experiment derives the same summary from our evaluation matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.metrics import improvement_over_baseline
from repro.experiments.evaluation import normalized
from repro.sim.config import ExperimentScale, PAPER_SCHEMES

#: The paper's reported geomean improvements over LRU, in percent.
PAPER_IMPROVEMENTS = {
    "STEM": {"mpki": 21.4, "amat": 13.5, "cpi": 6.3},
    "DIP": {"amat": 10.3, "cpi": 4.7},
    "PeLIFO": {"amat": 5.8, "cpi": 3.4},
    "V-Way": {"amat": -9.2, "cpi": -4.6},
    "SBC": {"amat": 4.1, "cpi": 2.2},
}


@dataclass
class HeadlineResult:
    """Geomean percentage improvements over LRU per scheme and metric."""

    improvements: Dict[str, Dict[str, float]]  # scheme -> metric -> %

    def best_scheme(self, metric: str) -> str:
        """The scheme with the largest improvement on ``metric``."""
        return max(
            self.improvements,
            key=lambda scheme: self.improvements[scheme][metric],
        )


def run(scale: Optional[ExperimentScale] = None) -> HeadlineResult:
    """Compute geomean improvements for every non-baseline scheme."""
    tables = {
        "mpki": normalized(lambda r: r.mpki, scale)["Geomean"],
        "amat": normalized(lambda r: r.amat, scale)["Geomean"],
        "cpi": normalized(lambda r: r.cpi, scale)["Geomean"],
    }
    improvements: Dict[str, Dict[str, float]] = {}
    for scheme in PAPER_SCHEMES:
        if scheme == "LRU":
            continue
        improvements[scheme] = {
            metric: improvement_over_baseline(values[scheme])
            for metric, values in tables.items()
        }
    return HeadlineResult(improvements=improvements)


def main(scale: Optional[ExperimentScale] = None) -> str:
    """Render the headline comparison (measured vs paper)."""
    result = run(scale=scale)
    lines = [
        "Headline: geomean improvement over LRU, percent "
        "(measured / paper)",
        f"{'scheme':>8s} {'MPKI':>16s} {'AMAT':>16s} {'CPI':>16s}",
    ]
    for scheme, metrics in result.improvements.items():
        paper = PAPER_IMPROVEMENTS.get(scheme, {})
        cells = []
        for metric in ("mpki", "amat", "cpi"):
            measured = metrics[metric]
            reference = paper.get(metric)
            ref_text = f"{reference:+.1f}" if reference is not None else "  - "
            cells.append(f"{measured:+7.1f} / {ref_text:>6s}")
        lines.append(f"{scheme:>8s} " + " ".join(f"{c:>16s}" for c in cells))
    text = "\n".join(lines)
    print(text)
    return text


if __name__ == "__main__":
    main()
