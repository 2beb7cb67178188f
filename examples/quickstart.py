#!/usr/bin/env python3
"""Quickstart: simulate a STEM LLC on a SPEC-like workload.

Builds the paper's cache (scaled to 256 sets for a fast run), feeds it
the ``omnetpp`` model — the paper's showcase of set-level non-uniform
capacity demand — and prints the three paper metrics next to an LRU
baseline, plus a peek at STEM's internal activity.

Run:  python examples/quickstart.py [benchmark]
"""

from __future__ import annotations

import sys

from repro.cache.geometry import CacheGeometry
from repro.core.stem_cache import StemCache
from repro.sim.config import make_scheme
from repro.sim.simulator import run_trace
from repro.workloads.spec_like import benchmark_names, make_benchmark_trace


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "omnetpp"
    if benchmark not in benchmark_names():
        raise SystemExit(
            f"unknown benchmark {benchmark!r}; pick one of: "
            + ", ".join(benchmark_names())
        )
    geometry = CacheGeometry(num_sets=256, associativity=16)
    trace = make_benchmark_trace(
        benchmark, num_sets=geometry.num_sets, length=300_000
    )
    print(f"workload: {trace.name} (Class {trace.metadata.spec_class}), "
          f"{len(trace):,} L2 accesses / "
          f"{trace.metadata.instructions:,} instructions")
    print(f"LLC: {geometry.capacity_bytes // 1024} KiB, "
          f"{geometry.associativity}-way, {geometry.num_sets} sets\n")

    stem = StemCache(geometry)
    stem_result = run_trace(stem, trace)
    lru_result = run_trace(make_scheme("LRU", geometry), trace)

    print(f"{'metric':>10s} {'LRU':>10s} {'STEM':>10s} {'improvement':>12s}")
    for label, lru_value, stem_value in (
        ("MPKI", lru_result.mpki, stem_result.mpki),
        ("AMAT", lru_result.amat, stem_result.amat),
        ("CPI", lru_result.cpi, stem_result.cpi),
    ):
        gain = (1 - stem_value / lru_value) * 100 if lru_value else 0.0
        print(f"{label:>10s} {lru_value:>10.3f} {stem_value:>10.3f} "
              f"{gain:>+11.1f}%")

    stats = stem.stats
    print("\nSTEM internals over the measured window:")
    print(f"  shadow hits:       {stats.shadow_hits:,}")
    print(f"  policy swaps:      {stats.policy_swaps:,}")
    print(f"  set couplings:     {stats.couplings:,} "
          f"(decouplings: {stats.decouplings:,})")
    print(f"  victim spills:     {stats.spills:,} "
          f"(rejected by receiving control: {stats.spill_rejects:,})")
    print(f"  cooperative hits:  {stats.cooperative_hits:,}")
    takers = sum(
        1 for s in range(geometry.num_sets) if stem.role_of(s) == "taker"
    )
    bip_sets = sum(
        1
        for s in range(geometry.num_sets)
        if stem.policy_mode_of(s) == "BIP"
    )
    print(f"  coupled taker sets at end of run: {takers}")
    print(f"  sets currently running BIP:       {bip_sets}")


if __name__ == "__main__":
    main()
