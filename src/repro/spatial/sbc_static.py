"""Static SBC — the fixed-pairing variant of the Set Balancing Cache.

The SBC proposal (Rolán et al., MICRO 2009) comes in two flavours: the
*dynamic* SBC our :class:`~repro.spatial.sbc.SbcCache` models (pairs
chosen at run time by a Destination Set Selector) and a *static* SBC
where every set is permanently married to the set whose index differs
in the most significant index bit.  A saturated set displaces its LRU
victims into its fixed partner whenever the partner is less saturated,
and lookups probe the partner for cooperatively cached blocks.

Static SBC needs no selector or association table (the partner is a
wire), making it the cheapest spatial baseline — and a useful ablation
for how much SBC's dynamic partner choice is worth.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cache.access import AccessKind
from repro.cache.block import BlockView
from repro.cache.geometry import CacheGeometry
from repro.common.errors import ConfigError, InvariantViolation
from repro.common.rng import Lfsr
from repro.common.stats import CacheStats
from repro.obs.events import Eviction, Spill
from repro.obs.tracer import NULL_TRACER, Tracer


class StaticSbcCache:
    """Set Balancing Cache with fixed MSB-complement pairing."""

    name = "StaticSBC"

    def __init__(
        self,
        geometry: CacheGeometry,
        saturation_limit: Optional[int] = None,
        rng: Optional[Lfsr] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if geometry.num_sets < 2:
            raise ConfigError("static SBC needs at least two sets")
        self.geometry = geometry
        self.mapper = geometry.mapper
        self.rng = rng if rng is not None else Lfsr()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        assoc = geometry.associativity
        num_sets = geometry.num_sets
        self.saturation_limit = (
            saturation_limit if saturation_limit is not None else 2 * assoc
        )
        if self.saturation_limit <= 0:
            raise ConfigError("saturation_limit must be positive")
        self.stats = CacheStats()
        # Lifetime accesses folded in by reset_stats() (event clock).
        self._access_base = 0
        self._partner_mask = num_sets >> 1
        self._lookup: List[dict] = [{} for _ in range(num_sets)]
        self._way_key: List[List[Optional[int]]] = [
            [None] * assoc for _ in range(num_sets)
        ]
        self._dirty: List[List[bool]] = [
            [False] * assoc for _ in range(num_sets)
        ]
        self._free: List[List[int]] = [
            list(range(assoc - 1, -1, -1)) for _ in range(num_sets)
        ]
        self._order: List[List[int]] = [[] for _ in range(num_sets)]
        self._saturation: List[int] = [0] * num_sets
        self._cc_count: List[int] = [0] * num_sets

    def partner_of(self, set_index: int) -> int:
        """The fixed partner: MSB-complement of the set index."""
        return set_index ^ self._partner_mask

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------

    def access(self, address: int, is_write: bool = False) -> AccessKind:
        """Probe the home set, then the fixed partner for CC blocks."""
        set_index, tag = self.mapper.split(address)
        stats = self.stats
        stats.accesses += 1
        way = self._lookup[set_index].get(tag << 1)
        if way is not None:
            stats.hits += 1
            stats.local_hits += 1
            self._saturation[set_index] = max(
                0, self._saturation[set_index] - 1
            )
            if is_write:
                self._dirty[set_index][way] = True
            self._promote(set_index, way)
            return AccessKind.LOCAL_HIT
        partner = self.partner_of(set_index)
        probed_coop = self._cc_count[partner] > 0
        if probed_coop:
            coop_way = self._lookup[partner].get((tag << 1) | 1)
            if coop_way is not None:
                stats.hits += 1
                stats.cooperative_hits += 1
                self._saturation[set_index] = max(
                    0, self._saturation[set_index] - 1
                )
                if is_write:
                    self._dirty[partner][coop_way] = True
                self._promote(partner, coop_way)
                return AccessKind.COOP_HIT
        stats.misses += 1
        if probed_coop:
            stats.misses_double_probe += 1
        else:
            stats.misses_single_probe += 1
        self._saturation[set_index] = min(
            self.saturation_limit, self._saturation[set_index] + 1
        )
        self._fill(set_index, tag, is_write)
        return AccessKind.MISS_COOP if probed_coop else AccessKind.MISS

    def _promote(self, set_index: int, way: int) -> None:
        order = self._order[set_index]
        order.remove(way)
        order.append(way)

    def _fill(self, set_index: int, tag: int, is_write: bool) -> None:
        free = self._free[set_index]
        if free:
            way = free.pop()
        else:
            way = self._order[set_index][0]
            self._evict_for_fill(set_index, way)
        self._install(set_index, way, tag << 1, is_write)

    def _evict_for_fill(self, set_index: int, way: int) -> None:
        key = self._way_key[set_index][way]
        dirty = self._dirty[set_index][way]
        self._remove(set_index, way)
        if key & 1:
            # A cooperatively cached block leaves the chip.
            self._cc_count[set_index] -= 1
            if dirty:
                self.stats.writebacks += 1
            return
        partner = self.partner_of(set_index)
        source_saturated = (
            self._saturation[set_index] >= self.saturation_limit
        )
        partner_relaxed = (
            self._saturation[partner] < self._saturation[set_index]
        )
        if source_saturated and partner_relaxed:
            self._spill(set_index, partner, key >> 1, dirty)
            return
        if dirty:
            self.stats.writebacks += 1

    def _spill(self, source: int, partner: int, tag: int, dirty: bool) -> None:
        self.stats.spills += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(Spill(
                access=self.stats.accesses,
                set_index=source,
                global_access=self._access_base + self.stats.accesses,
                giver=partner,
                tag=tag,
                dirty=dirty,
            ))
        free = self._free[partner]
        if free:
            way = free.pop()
        else:
            way = self._order[partner][0]
            victim_key = self._way_key[partner][way]
            victim_dirty = self._dirty[partner][way]
            self._remove(partner, way)
            if victim_key & 1:
                self._cc_count[partner] -= 1
            if victim_dirty:
                self.stats.writebacks += 1
        self._install(partner, way, (tag << 1) | 1, dirty)
        self._cc_count[partner] += 1

    def _install(self, set_index: int, way: int, key: int, dirty: bool) -> None:
        self._lookup[set_index][key] = way
        self._way_key[set_index][way] = key
        self._dirty[set_index][way] = dirty
        self._order[set_index].append(way)

    def _remove(self, set_index: int, way: int) -> None:
        key = self._way_key[set_index][way]
        del self._lookup[set_index][key]
        self._way_key[set_index][way] = None
        tracer = self.tracer
        if tracer.enabled:
            if tracer.full or key & 1:
                tracer.emit(Eviction(
                    access=self.stats.accesses,
                    set_index=set_index,
                    global_access=self._access_base + self.stats.accesses,
                    tag=key >> 1,
                    dirty=self._dirty[set_index][way],
                    cooperative=bool(key & 1),
                ))
            else:
                tracer.unread += 1
        self._dirty[set_index][way] = False
        self._order[set_index].remove(way)
        self.stats.evictions += 1

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def saturation_of(self, set_index: int) -> int:
        """Current saturation level (for tests)."""
        return self._saturation[set_index]

    def resident_blocks(self, set_index: int) -> List[BlockView]:
        """Views of the valid blocks in ``set_index``."""
        views = []
        for key, way in sorted(self._lookup[set_index].items()):
            views.append(
                BlockView(
                    set_index=set_index,
                    way=way,
                    tag=key >> 1,
                    dirty=self._dirty[set_index][way],
                    cooperative=bool(key & 1),
                )
            )
        return views

    @property
    def global_accesses(self) -> int:
        """Lifetime access count; reset_stats() does not rewind it."""
        return self._access_base + self.stats.accesses

    def reset_stats(self) -> None:
        """Zero statistics (e.g. after warm-up); the event clock keeps running."""
        self._access_base += self.stats.accesses
        self.stats = CacheStats()

    def check_invariants(self) -> None:
        """Raise :class:`InvariantViolation` on structural inconsistency."""
        for set_index in range(self.geometry.num_sets):
            table = self._lookup[set_index]
            cc_blocks = sum(1 for key in table if key & 1)
            if cc_blocks != self._cc_count[set_index]:
                raise InvariantViolation(
                    f"set {set_index}: cc bookkeeping mismatch"
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
