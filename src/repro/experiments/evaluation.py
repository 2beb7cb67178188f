"""Shared evaluation harness behind Figures 7-9 and the headline.

The paper evaluates the 15 benchmarks once under every scheme and then
reads three different metrics off the same runs (MPKI, AMAT, CPI).  We
do the same: :func:`run_evaluation` produces the full
:class:`~repro.sim.results.ResultMatrix`, :func:`normalized` projects
one metric out of it, and :func:`print_figure` renders the projection —
each figure module names only its metric and its title.  The matrix is
cached per scale inside the module so invoking figure7 + figure8 +
figure9 in one process costs one simulation pass.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.sim.config import PAPER_SCHEMES, ExperimentScale
from repro.sim.results import ResultMatrix, format_table
from repro.sim.runner import run_benchmarks
from repro.sim.simulator import RunResult
from repro.workloads.spec_like import benchmark_names

_CACHE: Dict[Tuple, ResultMatrix] = {}


def run_evaluation(
    scale: Optional[ExperimentScale] = None,
    schemes: Sequence[str] = PAPER_SCHEMES,
    benchmarks: Optional[Sequence[str]] = None,
) -> ResultMatrix:
    """The 15-benchmark x 6-scheme grid behind Figures 7, 8 and 9."""
    scale = scale if scale is not None else ExperimentScale.default()
    # The whole (frozen) scale is the key: warm-up and the timing model
    # change every metric the figures read.
    key = (
        scale,
        tuple(schemes),
        tuple(benchmarks) if benchmarks is not None else None,
    )
    if key not in _CACHE:
        _CACHE[key] = run_benchmarks(schemes, benchmarks=benchmarks,
                                     scale=scale)
    return _CACHE[key]


def clear_cache() -> None:
    """Drop memoised evaluation runs (tests use this)."""
    _CACHE.clear()


def normalized(
    metric: Callable[[RunResult], float],
    scale: Optional[ExperimentScale] = None,
    schemes: Sequence[str] = PAPER_SCHEMES,
    benchmarks: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """The evaluation grid's ``metric``, normalized to LRU.

    Workload rows, scheme columns, and a ``Geomean`` row.
    """
    matrix = run_evaluation(scale=scale, schemes=schemes,
                            benchmarks=benchmarks)
    return matrix.normalized_table(metric)


def print_figure(title: str, table: Dict[str, Dict[str, float]]) -> str:
    """Print a normalized table in the paper's benchmark order."""
    ordered = {
        name: table[name] for name in benchmark_names() if name in table
    }
    if "Geomean" in table:
        ordered["Geomean"] = table["Geomean"]
    text = format_table(ordered, columns=list(PAPER_SCHEMES), title=title)
    print(text)
    return text
