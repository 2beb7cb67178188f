#!/usr/bin/env python3
"""The Figure 2 walkthrough: where spatial and temporal schemes win.

Recreates the paper's conceptual illustration on a 2-set, 4-way LLC:

* Example #1 — one thrashing set + one tiny set: pure *spatial* win
  (SBC/STEM retain everything, DIP can only throttle insertions);
* Example #2 — the partner has less spare room: spatial alone is not
  enough, and only STEM's combined management beats both worlds;
* Example #3 — both sets overflow: pure *temporal* territory (nothing
  to pair; BIP-style insertion is the only lever).

Run:  python examples/synthetic_showdown.py
"""

from __future__ import annotations

from repro.cache.geometry import CacheGeometry
from repro.experiments.figure2 import oracle_dip_miss_rate
from repro.sim.config import make_scheme
from repro.sim.simulator import run_trace
from repro.workloads.synthetic import (
    FIGURE2_WORKING_SETS,
    figure2_expected_miss_rates,
    figure2_trace,
)

COMMENTARY = {
    1: "set 0 loops 6 blocks, set 1 loops 2: a perfect giver/taker pair",
    2: "set 1 grows to 3 blocks: cooperation still helps but is rationed",
    3: "set 1 loops 5 blocks: no giver anywhere, only insertion policy helps",
}


def main() -> None:
    geometry = CacheGeometry(num_sets=2, associativity=4)
    schemes = ("LRU", "SBC", "STEM")
    print("Figure 2 showdown on a 2-set, 4-way LLC "
          "(miss rates, paper values in parentheses)\n")
    for example in sorted(FIGURE2_WORKING_SETS):
        trace = figure2_trace(example, rounds=4096)
        expected = figure2_expected_miss_rates(example)
        print(f"Example #{example}: {COMMENTARY[example]}")
        measured = {}
        for scheme in schemes:
            cache = make_scheme(scheme, geometry)
            measured[scheme] = run_trace(
                cache, trace, warmup_fraction=0.5
            ).miss_rate
        measured["DIP"] = oracle_dip_miss_rate(trace, num_sets=2, ways=4)
        for scheme in ("LRU", "DIP", "SBC", "STEM"):
            reference = expected.get(scheme)
            suffix = f" (paper {reference:.3f})" if reference is not None else ""
            print(f"    {scheme:>5s}: {measured[scheme]:.3f}{suffix}")
        winner = min(measured, key=measured.get)
        print(f"    -> best: {winner}\n")
    print("The paper's extensional claim: combining spatial and temporal "
          "management\n(STEM) should push Example #2 below SBC's 1/3 — "
          "verified above.")


if __name__ == "__main__":
    main()
