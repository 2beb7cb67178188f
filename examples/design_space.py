#!/usr/bin/env python3
"""Explore STEM's design space: associativity sweep + config ablations.

Part one reruns the paper's sensitivity sweep (Figure 10) for a chosen
benchmark.  Part two varies the knobs Table 3 fixes — the spatial
decrement ratio ``n``, the heap capacity, receiving control and the
shadow-policy inversion — and shows what each is worth.

Run:  python examples/design_space.py [benchmark]
"""

from __future__ import annotations

import sys
from dataclasses import replace

from repro.core.config import StemConfig
from repro.core.stem_cache import StemCache
from repro.sim.config import ExperimentScale
from repro.sim.results import format_series
from repro.sim.runner import associativity_sweep
from repro.sim.simulator import run_trace
from repro.workloads.spec_like import benchmark_names, make_benchmark_trace

SCALE = ExperimentScale(num_sets=128, associativity=16, trace_length=120_000)


def sweep(benchmark: str) -> None:
    trace = make_benchmark_trace(
        benchmark, num_sets=SCALE.num_sets, length=SCALE.trace_length
    )
    associativities = (2, 4, 8, 12, 16, 24, 32)
    curves = associativity_sweep(
        trace,
        ("LRU", "DIP", "SBC", "STEM"),
        associativities,
        scale=SCALE,
    )
    series = {
        scheme: [result.mpki for result in results]
        for scheme, results in curves.items()
    }
    print(format_series(
        series,
        associativities,
        x_label="scheme\\assoc",
        title=f"Sensitivity sweep for {benchmark} (MPKI)",
        precision=2,
    ))


def ablate(benchmark: str) -> None:
    trace = make_benchmark_trace(
        benchmark, num_sets=SCALE.num_sets, length=SCALE.trace_length
    )
    base = StemConfig()
    variants = {
        "paper config (n=3, gated)": base,
        "no receiving control": replace(base, receiving_control=False),
        "mirrored shadow policy": replace(base, invert_shadow_policy=False),
        "spatial ratio n=1": replace(base, spatial_ratio_bits=1),
        "spatial ratio n=5": replace(base, spatial_ratio_bits=5),
        "heap capacity 4": replace(base, heap_capacity=4),
        "heap capacity 64": replace(base, heap_capacity=64),
    }
    print(f"\nSTEM configuration ablations on {benchmark} "
          "(MPKI, lower is better)")
    for label, config in variants.items():
        cache = StemCache(SCALE.geometry(), config=config)
        result = run_trace(cache, trace, warmup_fraction=0.25)
        print(f"  {label:>28s}: {result.mpki:7.3f} "
              f"(swaps {cache.stats.policy_swaps:4d}, "
              f"spills {cache.stats.spills:5d}, "
              f"rejects {cache.stats.spill_rejects:5d})")


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "omnetpp"
    if benchmark not in benchmark_names():
        raise SystemExit(
            f"unknown benchmark {benchmark!r}; pick one of: "
            + ", ".join(benchmark_names())
        )
    sweep(benchmark)
    ablate(benchmark)


if __name__ == "__main__":
    main()
