"""SBC — the (dynamic) Set Balancing Cache (Rolán et al., MICRO 2009).

SBC measures each set's *saturation level* — the difference between its
miss and hit counts, kept in a saturating counter — and couples a
highly-saturated *source* set with a lowly-saturated *destination* set
chosen by a Destination Set Selector.  While coupled, the source
displaces its LRU victims into the destination (MRU insertion), and a
lookup that misses in the source probes the destination for
cooperatively cached blocks.

We implement the behaviour the STEM paper describes and critiques
(Sections 3.1, 4.6, 6.2):

* the saturation metric is the miss/hit count difference;
* receiving is **unconditional** while the pair is associated — the
  destination cannot refuse spills (STEM's "pollution" critique);
* the pair dissolves when the destination has evicted every
  cooperatively cached block (Section 4.7's description of SBC).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cache.access import AccessKind
from repro.cache.geometry import CacheGeometry
from repro.common.errors import ConfigError, InvariantViolation
from repro.common.rng import Lfsr
from repro.obs.events import CoopHit, Coupling, Decoupling, Eviction
from repro.obs.tracer import Tracer
from repro.spatial.association import AssociationTable
from repro.spatial.cooperative import CooperativeSets
from repro.spatial.heap import GiverHeap

_ROLE_NONE = 0
_ROLE_SOURCE = 1
_ROLE_DEST = 2


class SbcCache(CooperativeSets):
    """Dynamic Set Balancing Cache over an LRU substrate."""

    name = "SBC"

    def __init__(
        self,
        geometry: CacheGeometry,
        heap_capacity: int = 16,
        saturation_limit: Optional[int] = None,
        couple_threshold: Optional[int] = None,
        rng: Optional[Lfsr] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        num_sets = geometry.num_sets
        if num_sets < 2:
            raise ConfigError("SBC needs at least two sets to balance")
        super().__init__(geometry, rng, tracer)
        assoc = geometry.associativity
        # Saturation counter range and the "low saturation" bar for
        # destination eligibility (half of the maximum, as in the SBC
        # proposal's notion of less-saturated sets).
        self.saturation_limit = (
            saturation_limit if saturation_limit is not None else 2 * assoc
        )
        if self.saturation_limit <= 0:
            raise ConfigError("saturation_limit must be positive")
        self.couple_threshold = (
            couple_threshold
            if couple_threshold is not None
            else self.saturation_limit // 2
        )
        self.association = AssociationTable(num_sets)
        self.heap = GiverHeap(heap_capacity)
        self._saturation: List[int] = [0] * num_sets
        self._role: List[int] = [_ROLE_NONE] * num_sets
        # Ledger attribution counters (tracer-guarded, reset with the
        # stats; underscore-prefixed so the manifest hash ignores them).
        self._led_hits: List[int] = [0] * num_sets
        self._led_coop: List[int] = [0] * num_sets

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------

    def access(self, address: int, is_write: bool = False) -> AccessKind:
        """Look up ``address`` in its home set and, for coupled sources,
        the associated destination set; fill on miss."""
        set_index, tag = self.mapper.split(address)
        stats = self.stats
        stats.accesses += 1
        way = self._lookup[set_index].get(tag << 1)
        if way is not None:
            stats.hits += 1
            stats.local_hits += 1
            if self.tracer.enabled:
                self._led_hits[set_index] += 1
            self._on_set_hit(set_index)
            if is_write:
                self._dirty[set_index][way] = True
            self._promote(set_index, way)
            return AccessKind.LOCAL_HIT
        return self._access_miss(set_index, tag, is_write)

    def access_batch(
        self,
        addresses,
        set_indices,
        tags,
        writes,
        start: int,
        stop: int,
    ) -> None:
        """Process accesses ``[start, stop)`` from precomputed arrays.

        Inlines the local-hit path (saturation decay, the destination
        set selector offer, the ledger hit counter under a tracer, dirty
        bit, recency promotion) and defers every miss to
        :meth:`_access_miss`.  Locally accumulated counters are flushed
        into :attr:`stats` before each miss; every SBC event comes from
        the miss half, so each sees the scalar path's ``stats`` snapshot
        and the loop stays on under any tracer.
        """
        stats = self.stats
        lookup = self._lookup
        orders = self._order
        dirty_rows = self._dirty
        saturations = self._saturation
        roles = self._role
        heap_offer = self.heap.offer
        threshold = self.couple_threshold
        miss = self._access_miss
        has_writes = writes is not None
        traced = self.tracer.enabled
        led_hits = self._led_hits
        acc = hits = 0
        for n in range(start, stop):
            set_index = set_indices[n]
            tag = tags[n]
            way = lookup[set_index].get(tag << 1)
            if way is None:
                stats.accesses += acc + 1
                stats.hits += hits
                stats.local_hits += hits
                acc = hits = 0
                miss(set_index, tag, has_writes and bool(writes[n]))
                continue
            acc += 1
            hits += 1
            if traced:
                led_hits[set_index] += 1
            # Inlined _on_set_hit.
            saturation = saturations[set_index] - 1
            if saturation < 0:
                saturation = 0
            saturations[set_index] = saturation
            if saturation < threshold and roles[set_index] == _ROLE_NONE:
                heap_offer(set_index, saturation)
            if has_writes and writes[n]:
                dirty_rows[set_index][way] = True
            order = orders[set_index]
            order.remove(way)
            order.append(way)
        stats.accesses += acc
        stats.hits += hits
        stats.local_hits += hits

    def _access_miss(self, set_index: int, tag: int, is_write: bool) -> AccessKind:
        """Miss half of :meth:`access`, shared with :meth:`access_batch`.

        Probes a coupled source's destination, then fills: the common
        eviction (demand victim removed and written back off chip) and
        the install are inlined; coupling, spill and the cooperative
        drop stay calls, in the order the controller makes them.
        """
        stats = self.stats
        roles = self._role
        probed_coop = False
        if roles[set_index] == _ROLE_SOURCE:
            dest = self.association.partner_of(set_index)
            probed_coop = True
            coop_way = self._lookup[dest].get((tag << 1) | 1)
            if coop_way is not None:
                stats.hits += 1
                stats.cooperative_hits += 1
                tracer = self.tracer
                if tracer.enabled:
                    self._led_hits[set_index] += 1
                    self._led_coop[set_index] += 1
                    tracer.emit(CoopHit(
                        access=stats.accesses,
                        set_index=set_index,
                        global_access=self._access_base + stats.accesses,
                        giver=dest,
                    ))
                self._on_set_hit(set_index)
                if is_write:
                    self._dirty[dest][coop_way] = True
                self._promote(dest, coop_way)
                return AccessKind.COOP_HIT
        stats.misses += 1
        if probed_coop:
            stats.misses_double_probe += 1
        else:
            stats.misses_single_probe += 1
        saturation = self._saturation[set_index] + 1
        if saturation > self.saturation_limit:
            saturation = self.saturation_limit
        self._saturation[set_index] = saturation
        lookup = self._lookup[set_index]
        way_keys = self._way_key[set_index]
        dirty_row = self._dirty[set_index]
        order = self._order[set_index]
        free = self._free[set_index]
        if free:
            way = free.pop()
        else:
            # Evict the LRU block (inlined _remove).
            way = order[0]
            key = way_keys[way]
            dirty = dirty_row[way]
            del lookup[key]
            way_keys[way] = None
            tracer = self.tracer
            if tracer.enabled:
                if tracer.full or key & 1:
                    tracer.emit(Eviction(
                        access=stats.accesses,
                        set_index=set_index,
                        global_access=self._access_base + stats.accesses,
                        tag=key >> 1,
                        dirty=dirty,
                        cooperative=bool(key & 1),
                    ))
                else:
                    tracer.unread += 1
            dirty_row[way] = False
            del order[0]
            stats.evictions += 1
            if key & 1:
                # A cooperatively cached block: it belongs to the
                # coupled source; its loss may dissolve the pair.
                self._drop_cooperative(set_index, dirty)
            elif roles[set_index] == _ROLE_SOURCE or (
                roles[set_index] == _ROLE_NONE
                and saturation >= self.saturation_limit
                and self.heap  # an empty selector has no destination
                and self._try_couple(set_index) is not None
            ):
                self._spill(
                    set_index, self.association.partner_of(set_index),
                    key >> 1, dirty,
                )
            elif dirty:
                stats.writebacks += 1
        key = tag << 1
        lookup[key] = way
        way_keys[way] = key
        dirty_row[way] = is_write
        order.append(way)  # SBC inserts at MRU.
        return AccessKind.MISS_COOP if probed_coop else AccessKind.MISS

    def _on_set_hit(self, set_index: int) -> None:
        """Hit accounting: saturation decays; low sets post to the DSS."""
        saturation = max(0, self._saturation[set_index] - 1)
        self._saturation[set_index] = saturation
        if (
            saturation < self.couple_threshold
            and self._role[set_index] == _ROLE_NONE
        ):
            self.heap.offer(set_index, saturation)

    # ------------------------------------------------------------------
    # Fill / spill machinery
    # ------------------------------------------------------------------

    def _drop_cooperative(self, dest_index: int, dirty: bool) -> None:
        if dirty:
            self.stats.writebacks += 1
        self._cc_count[dest_index] -= 1
        if self._cc_count[dest_index] == 0:
            source = self.association.partner_of(dest_index)
            self._decouple(source, dest_index)

    # ------------------------------------------------------------------
    # Coupling management
    # ------------------------------------------------------------------

    def _try_couple(self, source_index: int) -> Optional[int]:
        def _valid(candidate: int) -> bool:
            # The bounds check tolerates glitched heap slots naming
            # nonexistent sets — lazy validation drops them as stale.
            return (
                0 <= candidate < self.geometry.num_sets
                and candidate != source_index
                and self._role[candidate] == _ROLE_NONE
                and self._saturation[candidate] < self.couple_threshold
            )

        dest = self.heap.pop_best(_valid)
        if dest is None:
            return None
        self.association.couple(source_index, dest)
        self._role[source_index] = _ROLE_SOURCE
        self._role[dest] = _ROLE_DEST
        self.heap.remove(source_index)
        self.stats.couplings += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(Coupling(
                access=self.stats.accesses,
                set_index=source_index,
                global_access=self._access_base + self.stats.accesses,
                giver=dest,
            ))
        return dest

    def _decouple(self, source_index: int, dest_index: int) -> None:
        self.association.decouple(source_index, dest_index)
        self._role[source_index] = _ROLE_NONE
        self._role[dest_index] = _ROLE_NONE
        self.stats.decouplings += 1
        tracer = self.tracer
        if tracer.enabled:
            # SBC dissolves a pair only when the destination drains its
            # last cooperative block.  A destination whose saturation
            # climbed back above the coupling bar stopped looking like
            # a lender — its demand recovered (role change); one still
            # below it simply aged the source's blocks out.
            reason = (
                "giver_drained"
                if self._saturation[dest_index] < self.couple_threshold
                else "role_change"
            )
            tracer.emit(Decoupling(
                access=self.stats.accesses,
                set_index=source_index,
                global_access=self._access_base + self.stats.accesses,
                giver=dest_index,
                reason=reason,
            ))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def saturation_of(self, set_index: int) -> int:
        """Current saturation level of ``set_index`` (for tests)."""
        return self._saturation[set_index]

    def role_of(self, set_index: int) -> str:
        """'none', 'source' or 'dest' (for tests and analyses)."""
        return ("none", "source", "dest")[self._role[set_index]]

    def ledger_counters(self) -> Dict[str, List[int]]:
        """Per-set attribution counters for the capacity-flow ledger.

        Tracer-guarded and window-aligned like
        :meth:`repro.core.stem_cache.StemCache.ledger_counters`; SBC
        has no policy swaps, so there is no ``swapped_policy_hits``
        row and its temporal component is structurally zero.
        """
        return {
            "hits": list(self._led_hits),
            "cooperative_hits": list(self._led_coop),
        }

    def reset_stats(self) -> None:
        """Zero statistics and the ledger counters; the clock runs on."""
        super().reset_stats()
        num_sets = self.geometry.num_sets
        self._led_hits = [0] * num_sets
        self._led_coop = [0] * num_sets

    def check_invariants(self) -> None:
        """Raise :class:`InvariantViolation` on structural inconsistency."""
        self.association.check_invariants()
        for set_index in range(self.geometry.num_sets):
            table = self._lookup[set_index]
            cc_blocks = sum(1 for key in table if key & 1)
            if self._role[set_index] == _ROLE_DEST:
                if cc_blocks != self._cc_count[set_index]:
                    raise InvariantViolation(
                        f"set {set_index}: cc bookkeeping mismatch"
                    )
                if not self.association.is_coupled(set_index):
                    raise InvariantViolation(
                        f"set {set_index}: dest role without a coupling"
                    )
            elif cc_blocks != 0:
                raise InvariantViolation(
                    f"set {set_index}: cooperative blocks outside a dest set"
                )
            occupancy = len(table) + len(self._free[set_index])
            if occupancy != self.geometry.associativity:
                raise InvariantViolation(
                    f"set {set_index}: valid+free != associativity"
                )
            if sorted(self._order[set_index]) != sorted(table.values()):
                raise InvariantViolation(
                    f"set {set_index}: recency order out of sync with table"
                )
