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

from typing import List, Optional

from repro.cache.access import AccessKind
from repro.cache.geometry import CacheGeometry
from repro.common.errors import ConfigError
from repro.common.rng import Lfsr
from repro.obs.tracer import Tracer
from repro.spatial.cooperative import TAKER, UNCOUPLED, CoupledSets


class SbcCache(CoupledSets):
    """Dynamic Set Balancing Cache over an LRU substrate."""

    name = "SBC"
    #: SBC's words for the engine's roles: a taker is a source, a
    #: giver a destination.
    _ROLE_NAMES = ("none", "source", "dest")

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
        super().__init__(geometry, heap_capacity, rng, tracer)
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
        if self.couple_threshold <= 0:
            # No saturation falls below it: the cache would never couple.
            raise ConfigError(
                f"couple_threshold must be positive, got "
                f"{self.couple_threshold}"
            )
        self._saturation: List[int] = [0] * num_sets

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
            if saturation < threshold and roles[set_index] == UNCOUPLED:
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
        probed_coop = roles[set_index] == TAKER
        if probed_coop and self._probe_partner(set_index, tag, is_write):
            self._on_set_hit(set_index)
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
                    accesses = stats.accesses
                    tracer.eviction(
                        accesses, set_index, self._access_base + accesses,
                        key >> 1, dirty, bool(key & 1),
                    )
                else:
                    tracer.unread += 1
            dirty_row[way] = False
            del order[0]
            stats.evictions += 1
            if key & 1:
                # A cooperatively cached block: it belongs to the
                # coupled source; its loss may dissolve the pair.
                self._drop_cooperative(set_index, key >> 1, dirty)
            elif roles[set_index] == TAKER or (
                roles[set_index] == UNCOUPLED
                and saturation >= self.saturation_limit
                and self.heap  # an empty selector has no destination
                and self._try_couple(set_index) is not None
            ):
                self._spill(
                    set_index, self._partner_of(set_index),
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
            and self._role[set_index] == UNCOUPLED
        ):
            self.heap.offer(set_index, saturation)

    def _gives(self, set_index: int) -> bool:
        """A destination's saturation sits below the coupling bar."""
        return self._saturation[set_index] < self.couple_threshold

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def saturation_of(self, set_index: int) -> int:
        """Current saturation level of ``set_index`` (for tests)."""
        return self._saturation[set_index]
