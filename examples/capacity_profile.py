#!/usr/bin/env python3
"""Profile a workload's set-level capacity demand (the Figure 1 view).

Runs the paper's characterisation — per sampling interval, the minimum
number of cache lines each set needs to resolve the conflict misses a
32-way set would — and renders the band distribution as an ASCII chart,
together with the Figure 6 classification the profile implies.

Run:  python examples/capacity_profile.py [benchmark] [--sets N]
"""

from __future__ import annotations

import argparse

from repro.analysis.capacity_demand import profile_capacity_demand
from repro.analysis.classification import classify_trace
from repro.workloads.spec_like import benchmark_names, make_benchmark_trace


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "benchmark", nargs="?", default="ammp", choices=benchmark_names()
    )
    parser.add_argument("--sets", type=int, default=128,
                        help="number of LLC sets to model (default 128)")
    parser.add_argument("--intervals", type=int, default=10,
                        help="number of sampling intervals (default 10)")
    parser.add_argument("--interval-length", type=int, default=10_000,
                        help="accesses per interval (default 10000)")
    args = parser.parse_args()

    length = args.intervals * args.interval_length
    trace = make_benchmark_trace(
        args.benchmark, num_sets=args.sets, length=length
    )
    profile = profile_capacity_demand(
        trace,
        num_sets=args.sets,
        max_ways=32,
        interval_length=args.interval_length,
    )
    print(f"Set-level capacity demand of {args.benchmark} "
          f"({args.sets} sets, {args.intervals} intervals of "
          f"{args.interval_length:,} accesses)\n")
    print(f"{'demand band':>14s} {'share':>8s}")
    for band, fraction in profile.mean_distribution().items():
        low, high = band
        label = "0 (streaming)" if band == (0, 0) else f"{low}-{high} ways"
        bar = "#" * round(fraction * 50)
        print(f"{label:>14s} {fraction:8.1%}  {bar}")
    print(f"\nsets needing <= 4 ways:  "
          f"{profile.fraction_with_demand_at_most(4):.1%}")
    print(f"sets needing <= 16 ways: "
          f"{profile.fraction_with_demand_at_most(16):.1%}")

    classification = classify_trace(
        trace, num_sets=args.sets, associativity=16
    )
    print(f"\nFigure 6 classification at 16 ways: "
          f"Class {classification.label}")
    print(f"  giver sets:   {classification.giver_fraction:.1%}")
    print(f"  taker sets:   {classification.taker_fraction:.1%}")
    print(f"  distant re-references: {classification.thrash_fraction:.1%} "
          "of accesses")


if __name__ == "__main__":
    main()
