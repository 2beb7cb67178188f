"""Capacity-flow ledger: a streaming reduction of the event stream.

STEM's story is told in its events — pairs couple, victims spill into
borrowed space, cooperative hits pay the rent, SC_T saturation swaps a
set's insertion policy — but the raw stream is per-decision and
unbounded.  :class:`LedgerSink` consumes that stream *online* and keeps
only bounded aggregates, so a billion-access run never retains the full
event log:

* **Coupling episodes** — one record per (taker, giver) pairing: start
  and end on the monotonic event clock, spills delivered, cooperative
  hits earned, and the decouple reason
  (:class:`~repro.obs.events.Decoupling` ``reason``).
* **Policy-swap episodes** — one record per swap with the hit rate in
  the window before and after it, computed from the ``(access, hits)``
  snapshots each :class:`~repro.obs.events.PolicySwap` carries.
* **A capacity-flow account** — per-set way·access-time lent (as a
  giver) and borrowed (as a taker), integrated from the cooperative
  block population of each episode.

:meth:`LedgerSink.seal` closes the books and checks conservation:
globally, capacity lent must equal capacity borrowed, and the spills
attributed to episodes plus the orphans (events that matched no open
episode — the signature of a corrupted stream) must equal the spill
events seen.  A violation raises
:class:`~repro.common.errors.InvariantViolation`.

The sink is an ordinary tracer sink, so it rides the existing
zero-overhead-when-disabled contract: a run without a ledger constructs
neither the sink nor a tracer, and pays nothing.  It reads only the
capacity-flow events, and takes the frequent ones (spills, cooperative
hits, cooperative evictions) as fields, so a tracer carrying no other
sink builds only rare events: couplings, decouplings and policy swaps,
and the fault and safe-mode events (DESIGN.md §14).  Everything the
ledger derives comes from deterministic events, so its serialised form
is byte-stable across repeated runs and across serial/parallel
execution.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import ConfigError, InvariantViolation
from repro.obs.events import TraceEvent
from repro.obs.inspect import event_clock

#: Retained-episode cap: aggregates keep counting past it, but the
#: per-episode records stop growing so memory stays bounded.
DEFAULT_EPISODE_CAP = 4096

#: Decouple reason recorded when seal() closes a still-open episode.
OPEN_AT_SEAL = "open_at_seal"

#: Decouple reason recorded when a new Coupling displaces a stale one
#: for the same endpoint without an intervening Decoupling.
SUPERSEDED = "superseded"


@dataclass
class CouplingEpisode:
    """One (taker, giver) pairing, from Coupling to Decoupling.

    ``start``/``end`` are on the monotonic event clock
    (:func:`~repro.obs.inspect.event_clock`).  ``area`` is the episode's
    way·access-time integral: cooperative blocks resident in the giver,
    integrated over the clock — the capacity the giver lent and the
    taker borrowed.  ``residual_blocks`` is the cooperative population
    still resident at close; it is zero for a drained pair and may be
    positive when safe mode dissolves a pairing without draining it.
    """

    taker: int
    giver: int
    start: int
    end: Optional[int] = None
    spills: int = 0
    coop_hits: int = 0
    area: int = 0
    residual_blocks: int = 0
    reason: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "taker": self.taker,
            "giver": self.giver,
            "start": self.start,
            "end": self.end,
            "spills": self.spills,
            "coop_hits": self.coop_hits,
            "area": self.area,
            "residual_blocks": self.residual_blocks,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CouplingEpisode":
        return cls(**payload)


@dataclass
class SwapEpisode:
    """One per-set policy swap with its surrounding hit-rate windows.

    ``access``/``hits`` are the ``stats`` snapshots the event carried;
    ``clock`` is the monotonic event clock.  The before window spans
    from the previous swap in the same set (or the stream start) to
    this swap; the after window spans to the next swap (or the end of
    the run).  A window is ``None`` when it is empty or when
    ``reset_stats()`` rewound the snapshots across it (warm-up), which
    would make the delta meaningless.
    """

    set_index: int
    clock: int
    access: int
    hits: int
    mode: str
    hit_rate_before: Optional[float] = None
    hit_rate_after: Optional[float] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "set_index": self.set_index,
            "clock": self.clock,
            "access": self.access,
            "hits": self.hits,
            "mode": self.mode,
            "hit_rate_before": self.hit_rate_before,
            "hit_rate_after": self.hit_rate_after,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SwapEpisode":
        return cls(**payload)


def _window_rate(
    accesses_before: int, hits_before: int,
    accesses_after: int, hits_after: int,
) -> Optional[float]:
    """Hit rate across a (access, hits) snapshot pair, or ``None``.

    Guards against ``reset_stats()`` rewinding the counters inside the
    window (warm-up boundary): a non-positive access delta or an
    impossible hit delta yields no rate rather than a wrong one.
    """
    delta_access = accesses_after - accesses_before
    delta_hits = hits_after - hits_before
    if delta_access <= 0 or not 0 <= delta_hits <= delta_access:
        return None
    return delta_hits / delta_access


@dataclass
class RunLedger:
    """The sealed books of one run — what :class:`LedgerSink` produces.

    ``flows`` maps set index → the capacity-flow account:
    ``lent``/``borrowed`` way·access-time, ``spills_out`` (victims this
    taker pushed), ``spills_in`` (victims this giver received) and
    ``coop_hits`` (hits this taker earned in borrowed space).  Only
    sets that participated appear, so the account is bounded by the
    geometry, not the run length.

    ``counters`` optionally carries the scheme's measured-window
    attribution counters (:meth:`ledger_counters` on the cache):
    per-set total hits, cooperative hits, and swapped-policy hits —
    the integers :mod:`repro.obs.explain` decomposes.
    """

    coupling_episodes: List[CouplingEpisode] = field(default_factory=list)
    swap_episodes: List[SwapEpisode] = field(default_factory=list)
    flows: Dict[int, Dict[str, int]] = field(default_factory=dict)
    totals: Dict[str, int] = field(default_factory=dict)
    counters: Optional[Dict[str, List[int]]] = None
    final_accesses: int = 0
    final_hits: int = 0
    episodes_dropped: int = 0
    swaps_dropped: int = 0
    events_seen: int = 0

    def summary(self) -> Dict[str, Any]:
        """Compact scalar view for campaign ``summary.json`` cells."""
        return {
            "coupling_episodes": (
                len(self.coupling_episodes) + self.episodes_dropped
            ),
            "policy_swaps": len(self.swap_episodes) + self.swaps_dropped,
            "lent": self.totals.get("lent", 0),
            "borrowed": self.totals.get("borrowed", 0),
            "spill_events": self.totals.get("spill_events", 0),
            "coop_hit_events": self.totals.get("coop_hit_events", 0),
            "orphan_spills": self.totals.get("orphan_spills", 0),
            "orphan_coop_hits": self.totals.get("orphan_coop_hits", 0),
            "orphan_decouplings": self.totals.get("orphan_decouplings", 0),
        }

    def as_dict(self) -> Dict[str, Any]:
        """Flat JSON-serialisable view (inverse of :meth:`from_dict`)."""
        return {
            "coupling_episodes": [
                episode.as_dict() for episode in self.coupling_episodes
            ],
            "swap_episodes": [
                episode.as_dict() for episode in self.swap_episodes
            ],
            # JSON object keys are strings; from_dict() re-ints them.
            "flows": {
                str(set_index): dict(flow)
                for set_index, flow in sorted(self.flows.items())
            },
            "totals": dict(self.totals),
            "counters": (
                {name: list(vals) for name, vals in self.counters.items()}
                if self.counters is not None else None
            ),
            "final_accesses": self.final_accesses,
            "final_hits": self.final_hits,
            "episodes_dropped": self.episodes_dropped,
            "swaps_dropped": self.swaps_dropped,
            "events_seen": self.events_seen,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunLedger":
        """Rebuild a ledger stored by :meth:`as_dict`."""
        try:
            counters = payload.get("counters")
            return cls(
                coupling_episodes=[
                    CouplingEpisode.from_dict(item)
                    for item in payload["coupling_episodes"]
                ],
                swap_episodes=[
                    SwapEpisode.from_dict(item)
                    for item in payload["swap_episodes"]
                ],
                flows={
                    int(set_index): {k: int(v) for k, v in flow.items()}
                    for set_index, flow in payload["flows"].items()
                },
                totals={k: int(v) for k, v in payload["totals"].items()},
                counters=(
                    {name: list(vals) for name, vals in counters.items()}
                    if counters is not None else None
                ),
                final_accesses=payload["final_accesses"],
                final_hits=payload["final_hits"],
                episodes_dropped=payload.get("episodes_dropped", 0),
                swaps_dropped=payload.get("swaps_dropped", 0),
                events_seen=payload.get("events_seen", 0),
            )
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ConfigError(f"malformed ledger payload: {exc}") from exc


def _new_flow() -> Dict[str, int]:
    return {"lent": 0, "borrowed": 0,
            "spills_out": 0, "spills_in": 0, "coop_hits": 0}


class LedgerSink:
    """Streaming tracer sink that aggregates the stream into a ledger.

    Attach it like any other sink, drive the run, then call
    :meth:`seal` once to close open episodes, compute swap windows,
    and verify conservation.  Memory is bounded: per-set accounts are
    capped by the geometry, episode records by ``episode_cap`` (the
    aggregates keep counting past the cap; only the per-episode detail
    stops growing).

    Events that match no open episode — a Spill naming an unknown
    (taker, giver) pair, a Decoupling for a pair that never coupled, a
    cooperative Eviction in a set that is not lending — are counted as
    *orphans* rather than mis-attributed.  An intact stream has none;
    fault campaigns that corrupt the association table produce a few,
    and the conservation checks account for them explicitly.

    The ledger reads only capacity-flow events
    (:func:`~repro.obs.events.is_capacity_flow`).  A tracer with no sink
    that reads every event passes spills, cooperative hits and
    cooperative evictions to :meth:`spill`, :meth:`coop_hit` and
    :meth:`eviction` as fields, builds only the rarer capacity-flow
    events for :meth:`record`, counts the others without building them
    and hands the count to :meth:`skip` when it is flushed.  With a full
    sink attached, every event arrives built and :meth:`record` hands
    the three frequent kinds' fields to the same methods, so the books
    and :attr:`events_seen` are the same either way once the tracer has
    been flushed.  :func:`~repro.sim.simulator.run_trace` flushes before
    it seals; a caller that drives a cache and seals by hand calls
    :meth:`~repro.obs.tracer.Tracer.flush` first.
    """

    reads_every_event = False

    def __init__(self, episode_cap: int = DEFAULT_EPISODE_CAP) -> None:
        if episode_cap <= 0:
            raise ConfigError(
                f"episode_cap must be positive, got {episode_cap}"
            )
        self.episode_cap = episode_cap
        self.events_seen = 0
        self._sealed = False
        # Open episodes, indexed both ways for O(1) event dispatch.
        self._open_by_taker: Dict[int, CouplingEpisode] = {}
        self._open_by_giver: Dict[int, CouplingEpisode] = {}
        self._resident: Dict[int, int] = {}   # giver -> coop blocks now
        self._last_clock: Dict[int, int] = {}  # giver -> last integration
        self._closed: List[CouplingEpisode] = []
        self.episodes_dropped = 0
        # Swap records in arrival order; windows resolved at seal.
        self._swaps: List[SwapEpisode] = []
        self.swaps_dropped = 0
        # set index -> account, created on the set's first flow.
        self._flows: Dict[int, Dict[str, int]] = defaultdict(_new_flow)
        # lent integrates incrementally as giver-side clock advances;
        # borrowed is credited from episode totals at close.  The two
        # must agree at seal — a genuine cross-check of the episode
        # bookkeeping, not an identity.
        self._lent_total = 0
        self._borrowed_total = 0
        self._spill_events = 0
        self._coop_hit_events = 0
        self._coupling_events = 0
        self._decoupling_events = 0
        self._orphan_spills = 0
        self._orphan_coop_hits = 0
        self._orphan_decouplings = 0
        self._orphan_evictions = 0

    # ------------------------------------------------------------------
    # Stream side
    # ------------------------------------------------------------------

    def _advance(self, episode: CouplingEpisode, clock: int) -> None:
        """Integrate the episode's resident population up to ``clock``."""
        giver = episode.giver
        last = self._last_clock[giver]
        if clock > last:
            delta = (clock - last) * self._resident[giver]
            episode.area += delta
            self._lent_total += delta
            self._flows[giver]["lent"] += delta
            self._last_clock[giver] = clock

    def _open(self, taker: int, giver: int, clock: int) -> None:
        # A Coupling for an endpoint that is already paired means the
        # stream skipped a Decoupling (possible under fault injection);
        # force-close the stale episode rather than corrupt both.
        stale_taker = self._open_by_taker.get(taker)
        stale_giver = self._open_by_giver.get(giver)
        if stale_taker is not None:
            self._close(stale_taker, clock, SUPERSEDED)
        if stale_giver is not None and stale_giver is not stale_taker:
            # _close may already have evicted it via the taker map.
            if self._open_by_giver.get(giver) is stale_giver:
                self._close(stale_giver, clock, SUPERSEDED)
        episode = CouplingEpisode(taker=taker, giver=giver, start=clock)
        self._open_by_taker[taker] = episode
        self._open_by_giver[giver] = episode
        self._resident[giver] = 0
        self._last_clock[giver] = clock

    def _close(
        self, episode: CouplingEpisode, clock: int, reason: str
    ) -> None:
        self._advance(episode, clock)
        episode.end = clock
        episode.reason = reason
        episode.residual_blocks = self._resident.pop(episode.giver, 0)
        self._last_clock.pop(episode.giver, None)
        self._open_by_taker.pop(episode.taker, None)
        self._open_by_giver.pop(episode.giver, None)
        self._borrowed_total += episode.area
        self._flows[episode.taker]["borrowed"] += episode.area
        if len(self._closed) < self.episode_cap:
            self._closed.append(episode)
        else:
            self.episodes_dropped += 1

    def skip(self, count: int) -> None:
        """Count ``count`` events the tracer counted without building."""
        if self._sealed:
            raise ConfigError("LedgerSink is sealed")
        self.events_seen += count

    # The three frequent capacity-flow kinds arrive as fields
    # (repro.obs.tracer), in the event's field order; record() hands
    # built ones here too, so each kind is accounted in one place.

    def spill(
        self, access: int, set_index: int, global_access: int,
        giver: int, tag: int, dirty: bool,
    ) -> None:
        """Account one :class:`~repro.obs.events.Spill`, from its fields."""
        if self._sealed:
            raise ConfigError("LedgerSink is sealed")
        self.events_seen += 1
        self._spill_events += 1
        episode = self._open_by_taker.get(set_index)
        if episode is not None and episode.giver == giver:
            self._advance(episode, global_access or access)
            episode.spills += 1
            self._resident[giver] += 1
            self._flows[set_index]["spills_out"] += 1
            self._flows[giver]["spills_in"] += 1
        else:
            self._orphan_spills += 1

    def eviction(
        self, access: int, set_index: int, global_access: int,
        tag: int, dirty: bool, cooperative: bool,
    ) -> None:
        """Account one :class:`~repro.obs.events.Eviction`, from its fields.

        Only a cooperative eviction touches the account: a giver
        dropping a block it cached on its taker's behalf.
        """
        if self._sealed:
            raise ConfigError("LedgerSink is sealed")
        self.events_seen += 1
        if cooperative:
            episode = self._open_by_giver.get(set_index)
            if episode is not None:
                self._advance(episode, global_access or access)
                if self._resident[set_index] > 0:
                    self._resident[set_index] -= 1
                else:
                    self._orphan_evictions += 1
            else:
                self._orphan_evictions += 1

    def coop_hit(
        self, access: int, set_index: int, global_access: int, giver: int,
    ) -> None:
        """Account one :class:`~repro.obs.events.CoopHit`, from its fields."""
        if self._sealed:
            raise ConfigError("LedgerSink is sealed")
        self.events_seen += 1
        self._coop_hit_events += 1
        episode = self._open_by_taker.get(set_index)
        if episode is not None and episode.giver == giver:
            self._advance(episode, global_access or access)
            episode.coop_hits += 1
            self._flows[set_index]["coop_hits"] += 1
        else:
            self._orphan_coop_hits += 1

    def record(self, event: TraceEvent) -> None:
        """Consume one event (kinds the ledger ignores still count)."""
        kind = event.kind
        if kind == "spill":
            self.spill(event.access, event.set_index, event.global_access,
                       event.giver, event.tag, event.dirty)
            return
        if kind == "eviction":
            self.eviction(event.access, event.set_index,
                          event.global_access, event.tag, event.dirty,
                          event.cooperative)
            return
        if kind == "coop_hit":
            self.coop_hit(event.access, event.set_index,
                          event.global_access, event.giver)
            return
        if self._sealed:
            raise ConfigError("LedgerSink is sealed")
        self.events_seen += 1
        if kind == "coupling":
            self._coupling_events += 1
            self._open(event.set_index, event.giver, event_clock(event))
        elif kind == "decoupling":
            self._decoupling_events += 1
            episode = self._open_by_taker.get(event.set_index)
            if episode is not None and episode.giver == event.giver:
                self._close(episode, event_clock(event), event.reason)
            else:
                self._orphan_decouplings += 1
        elif kind == "policy_swap":
            if len(self._swaps) < self.episode_cap:
                self._swaps.append(SwapEpisode(
                    set_index=event.set_index,
                    clock=event_clock(event),
                    access=event.access,
                    hits=event.hits,
                    mode=event.mode,
                ))
            else:
                self.swaps_dropped += 1
        # Every other kind (shadow_hit, fault_injected, safe_mode,
        # spill_reject) is deliberately outside the account.

    # ------------------------------------------------------------------
    # Close side
    # ------------------------------------------------------------------

    def _resolve_swap_windows(
        self, final_accesses: int, final_hits: int
    ) -> List[SwapEpisode]:
        per_set: Dict[int, List[SwapEpisode]] = {}
        for swap in self._swaps:
            per_set.setdefault(swap.set_index, []).append(swap)
        for swaps in per_set.values():
            previous: Tuple[int, int] = (0, 0)
            for index, swap in enumerate(swaps):
                swap.hit_rate_before = _window_rate(
                    previous[0], previous[1], swap.access, swap.hits
                )
                following = swaps[index + 1] if index + 1 < len(swaps) \
                    else None
                if following is not None:
                    swap.hit_rate_after = _window_rate(
                        swap.access, swap.hits,
                        following.access, following.hits,
                    )
                else:
                    swap.hit_rate_after = _window_rate(
                        swap.access, swap.hits, final_accesses, final_hits
                    )
                previous = (swap.access, swap.hits)
        return self._swaps

    def _check_conservation(self) -> None:
        if self._lent_total != self._borrowed_total:
            raise InvariantViolation(
                "capacity-flow conservation violated: "
                f"lent {self._lent_total} way·accesses != "
                f"borrowed {self._borrowed_total}"
            )
        attributed = (
            sum(e.spills for e in self._closed)
            + sum(e.spills for e in self._open_by_taker.values())
        )
        # Episodes past the retention cap kept counting into the flow
        # account, so reconcile against that when detail was dropped.
        if self.episodes_dropped == 0:
            if attributed + self._orphan_spills != self._spill_events:
                raise InvariantViolation(
                    "spill conservation violated: "
                    f"{attributed} episode spills + "
                    f"{self._orphan_spills} orphans != "
                    f"{self._spill_events} spill events"
                )
        flow_spills = sum(
            flow["spills_out"] for flow in self._flows.values()
        )
        if flow_spills + self._orphan_spills != self._spill_events:
            raise InvariantViolation(
                "spill conservation violated: "
                f"{flow_spills} accounted spills + "
                f"{self._orphan_spills} orphans != "
                f"{self._spill_events} spill events"
            )

    def seal(
        self,
        final_accesses: int,
        final_hits: int,
        counters: Optional[Dict[str, List[int]]] = None,
        final_clock: Optional[int] = None,
    ) -> RunLedger:
        """Close the books and return the :class:`RunLedger`.

        ``final_accesses``/``final_hits`` are the run's closing
        ``stats`` values (they terminate the last swap window);
        ``final_clock`` defaults to the latest event clock seen.
        ``counters`` is the scheme's ``ledger_counters()`` snapshot,
        attached verbatim for :mod:`repro.obs.explain`.  Conservation
        violations raise
        :class:`~repro.common.errors.InvariantViolation`.
        """
        if self._sealed:
            raise ConfigError("LedgerSink is already sealed")
        self._sealed = True
        if final_clock is None:
            final_clock = max(
                [self._last_clock.get(e.giver, e.start)
                 for e in self._open_by_taker.values()]
                + [e.end or 0 for e in self._closed]
                + [s.clock for s in self._swaps]
                + [0]
            )
        for episode in list(self._open_by_taker.values()):
            self._close(episode, final_clock, OPEN_AT_SEAL)
        self._check_conservation()
        episodes = sorted(
            self._closed, key=lambda e: (e.start, e.taker, e.giver)
        )
        swaps = self._resolve_swap_windows(final_accesses, final_hits)
        totals = {
            "lent": self._lent_total,
            "borrowed": self._borrowed_total,
            "spill_events": self._spill_events,
            "coop_hit_events": self._coop_hit_events,
            "coupling_events": self._coupling_events,
            "decoupling_events": self._decoupling_events,
            "orphan_spills": self._orphan_spills,
            "orphan_coop_hits": self._orphan_coop_hits,
            "orphan_decouplings": self._orphan_decouplings,
            "orphan_evictions": self._orphan_evictions,
        }
        return RunLedger(
            coupling_episodes=episodes,
            swap_episodes=swaps,
            flows=dict(self._flows),
            totals=totals,
            counters=counters,
            final_accesses=final_accesses,
            final_hits=final_hits,
            episodes_dropped=self.episodes_dropped,
            swaps_dropped=self.swaps_dropped,
            events_seen=self.events_seen,
        )
