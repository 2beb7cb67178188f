#!/usr/bin/env python3
"""Watch STEM adapt to phase changes: couple, decouple, swap policies.

Builds a three-phase workload on one LLC:

1. a giver/taker phase (half the sets loop beyond their capacity, half
   barely use theirs) — STEM should couple pairs and spill;
2. a uniform-thrash phase — pairs must dissolve and per-set policies
   swap toward BIP;
3. a friendly phase — everything should drift back to quiet LRU.

The cache runs with a :mod:`repro.obs` tracer attached, and each
phase's row is aggregated from the *event log* (``repro.obs.inspect``)
rather than the end-of-phase counters — the same per-event attribution
the ``repro trace`` command exposes — demonstrating the feedback loop
of Figure 4 end to end.

Run:  python examples/phase_adaptivity.py
"""

from __future__ import annotations

from repro.cache.geometry import CacheGeometry
from repro.core.stem_cache import StemCache
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from repro.obs.inspect import coupling_lifetimes, event_counts, spill_fanout
from repro.workloads.generators import SetGroupSpec, WorkloadSpec, generate_trace

NUM_SETS = 64
PHASE_LENGTH = 60_000

PHASES = {
    "giver/taker": WorkloadSpec(
        name="phase-spatial",
        groups=(
            SetGroupSpec(fraction=0.5, weight=1.0, kind="cyclic",
                         ws_min=2, ws_max=4),
            SetGroupSpec(fraction=0.5, weight=2.0, kind="cyclic",
                         ws_min=20, ws_max=28),
        ),
        shuffle_sets=False,
    ),
    "uniform thrash": WorkloadSpec(
        name="phase-temporal",
        groups=(
            SetGroupSpec(fraction=1.0, weight=1.0, kind="cyclic",
                         ws_min=36, ws_max=44),
        ),
        shuffle_sets=False,
    ),
    "friendly": WorkloadSpec(
        name="phase-quiet",
        groups=(
            SetGroupSpec(fraction=1.0, weight=1.0, kind="zipf",
                         ws_min=8, ws_max=8, zipf_alpha=1.0),
        ),
        shuffle_sets=False,
    ),
}


def snapshot(cache: StemCache, sink: RingBufferSink) -> dict:
    """One phase's row, attributed from the phase's event log."""
    events = sink.events
    counts = event_counts(events)
    lifetimes = coupling_lifetimes(events)
    fanout = spill_fanout(events)
    return {
        "miss_rate": cache.stats.miss_rate,
        "couplings": counts.get("coupling", 0),
        "decouplings": counts.get("decoupling", 0),
        "policy_swaps": counts.get("policy_swap", 0),
        "spills": counts.get("spill", 0),
        "spill_rejects": counts.get("spill_reject", 0),
        "mean_lifetime": (
            sum(lifetimes) / len(lifetimes) if lifetimes else 0.0
        ),
        "takers_spilling": len(fanout),
        "bip_sets": sum(
            1 for s in range(NUM_SETS) if cache.policy_mode_of(s) == "BIP"
        ),
        "coupled_sets": sum(
            1 for s in range(NUM_SETS) if cache.role_of(s) != "uncoupled"
        ),
    }


def main() -> None:
    sink = RingBufferSink()
    cache = StemCache(
        CacheGeometry(num_sets=NUM_SETS, associativity=16),
        tracer=Tracer(sink),
    )
    print(f"STEM on a {NUM_SETS}-set, 16-way LLC across three phases "
          f"of {PHASE_LENGTH:,} accesses (per-phase event-log view)\n")
    header = (f"{'phase':>16s} {'miss':>6s} {'cpl':>5s} {'dcpl':>5s} "
              f"{'swaps':>6s} {'spills':>7s} {'rejects':>8s} "
              f"{'life':>7s} {'BIPsets':>8s} {'paired':>7s}")
    print(header)
    for phase_number, (label, spec) in enumerate(PHASES.items()):
        trace = generate_trace(
            spec, num_sets=NUM_SETS, length=PHASE_LENGTH,
            seed=11 + phase_number,
        )
        cache.reset_stats()
        sink.clear()
        for address in trace.addresses:
            cache.access(address)
        snap = snapshot(cache, sink)
        print(f"{label:>16s} {snap['miss_rate']:6.2f} "
              f"{snap['couplings']:5d} {snap['decouplings']:5d} "
              f"{snap['policy_swaps']:6d} {snap['spills']:7d} "
              f"{snap['spill_rejects']:8d} {snap['mean_lifetime']:7,.0f} "
              f"{snap['bip_sets']:8d} {snap['coupled_sets']:7d}")
    print("\nReading the table: pairs form in the giver/taker phase, are")
    print("torn down once every set turns needy, and the BIP population")
    print("rises during the thrash phase then stops growing in the quiet")
    print("phase — STEM's two adaptation loops working independently.")
    print("'life' is the mean coupling lifetime in accesses, derived from")
    print("pairing each coupling event with its decoupling in the log.")


if __name__ == "__main__":
    main()
