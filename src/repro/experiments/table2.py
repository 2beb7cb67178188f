"""Table 2 — the 15 benchmarks: class membership and LRU MPKI.

Our workload generators are calibrated so the 16-way LRU MPKI of every
modelled benchmark matches Table 2's measurement, and the classifier
of :mod:`repro.analysis.classification` should recover each
benchmark's class from the trace alone (Figure 6's taxonomy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.classification import classify_trace
from repro.sim.config import ExperimentScale
from repro.sim.runner import run_matrix
from repro.workloads.spec_like import BENCHMARKS, benchmark_names, make_benchmark_trace


@dataclass
class Table2Row:
    """One benchmark's Table 2 entry plus our measurements."""

    benchmark: str
    paper_class: str
    paper_mpki: float
    measured_mpki: float
    classifier_label: str


def run(
    scale: Optional[ExperimentScale] = None,
    classify: bool = True,
) -> List[Table2Row]:
    """Measure LRU MPKI (and optionally re-classify) every benchmark."""
    scale = scale if scale is not None else ExperimentScale.default()
    names = benchmark_names()
    traces = [
        make_benchmark_trace(
            name, num_sets=scale.num_sets, length=scale.trace_length
        )
        for name in names
    ]
    matrix = run_matrix(traces, ["LRU"], scale=scale, isolate=False)
    rows: List[Table2Row] = []
    for name, trace in zip(names, traces):
        spec = BENCHMARKS[name]
        label = ""
        if classify:
            label = classify_trace(
                trace,
                num_sets=scale.num_sets,
                associativity=scale.associativity,
            ).label
        rows.append(
            Table2Row(
                benchmark=name,
                paper_class=spec.spec_class,
                paper_mpki=spec.paper_mpki_lru,
                measured_mpki=matrix.get(name, "LRU").mpki,
                classifier_label=label,
            )
        )
    return rows


def main(scale: Optional[ExperimentScale] = None) -> str:
    """Render Table 2: paper vs measured MPKI and class labels."""
    rows = run(scale=scale)
    lines = [
        "Table 2: benchmark classes and MPKI under LRU (paper vs measured)",
        f"{'benchmark':>12s} {'class':>6s} {'paper MPKI':>11s} "
        f"{'measured':>9s} {'classified':>11s}",
    ]
    for row in rows:
        lines.append(
            f"{row.benchmark:>12s} {row.paper_class:>6s} "
            f"{row.paper_mpki:>11.3f} {row.measured_mpki:>9.3f} "
            f"{row.classifier_label:>11s}"
        )
    text = "\n".join(lines)
    print(text)
    return text


if __name__ == "__main__":
    main()
