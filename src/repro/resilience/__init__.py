"""Resilience layer: fault injection, safe mode, crash-tolerant runs.

Three concerns live here (DESIGN.md's resilience note):

* :mod:`repro.resilience.faults` — a deterministic, seeded fault-
  injection engine that corrupts simulated state mid-run (saturating
  counters, shadow tags, the association table, the giver heap, trace
  records), driven by a declarative :class:`FaultPlan`;
* :mod:`repro.resilience.harness` — per-run isolation for experiment
  grids: retry-with-reseed, a wall-clock watchdog, and structured
  :class:`~repro.sim.results.RunFailure` records instead of aborts;
* :mod:`repro.resilience.campaign` — ties both together into the
  ``repro faults`` CLI: run a campaign, measure the MPKI degradation
  against the fault-free run and the plain-LRU baseline.
"""
