"""Observability: events, metrics, provenance, diffing and reports.

The legs of the layer (see DESIGN.md's tracepoint note, DESIGN.md §10
and the README's *Observability* section):

* **events + tracer + sinks** — a zero-overhead-when-disabled event bus.
  Every cache scheme takes an injectable :class:`Tracer` (defaulting to
  the disabled :data:`NULL_TRACER`) and emits typed events — evictions,
  spills and rejects, couplings/decouplings, policy swaps, shadow hits —
  into ring-buffer or JSONL sinks.  With only capacity-flow sinks (the
  ledger) attached, events they do not read are counted, not built.
* **manifest** — a :class:`RunManifest` attached to every
  ``RunResult``: scheme config, trace metadata, seed, wall-clock and
  platform info, plus a content hash over the deterministic inputs.
* **profile + inspect** — phase timers aggregated by
  :class:`RunProfiler` (``--profile`` CLI flags) and event-log
  aggregations (coupling lifetimes, spill fan-out, swap cadence) behind
  the ``repro trace`` command.
* **metrics** — a :class:`MetricsRegistry` of counter deltas, derived
  rates and scheme gauges sampled on fixed access-window boundaries
  (``run_trace(..., metrics_window=N)``); series export as JSONL or
  Prometheus text and ride along inside ``RunResult``.
* **diff + htmlreport** — :func:`diff_results` compares two runs into
  a byte-stable delta report; :func:`render_run_html` renders one run
  or an A/B pair as a self-contained single-file HTML dashboard.
* **ledger + explain** — :class:`LedgerSink` reduces the event stream
  online into a sealed :class:`RunLedger` of coupling episodes,
  policy-swap windows and a per-set capacity-flow account (with
  conservation invariants checked at seal); :func:`attribute`
  decomposes the hit delta between two runs into exact spatial /
  temporal / residual components (DESIGN.md §14), rendered by
  ``repro explain``.
* **telemetry + fleet** — live fleet telemetry (DESIGN.md §11): a
  per-run channel of append-only JSONL status files carrying grid →
  cell → phase spans, wall-clock-throttled heartbeats with worker
  resource samples, and retries; :func:`load_fleet` merges the channel
  into a :class:`FleetStatus` with ETA and stall verdicts, rendered by
  ``repro top`` and exported as ``status.json``.
* **benchhistory** — the append-only ``BENCH_HISTORY.jsonl`` ledger of
  throughput recordings plus :func:`detect_regressions`, the
  trajectory detector behind ``repro bench --history`` and the
  BENCH_GUARD report.
* **index + server** — the run observatory (DESIGN.md §15):
  :class:`ArtifactIndex` is an SQLite catalog that idempotently
  ingests save_run files, campaign directories and the bench ledger
  into queryable runs/campaigns/bench-sample tables, and
  :func:`create_server` serves it over stdlib HTTP — ``/healthz``,
  ``/metrics``, ``/api/status``, ``/api/runs``, ``/api/regressions``
  and the same byte-stable HTML dashboards the CLI writes.
"""
