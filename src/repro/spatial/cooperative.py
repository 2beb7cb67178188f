"""The block store shared by SBC, static SBC and STEM.

All three cache a set's victims in a coupled partner set and probe that
set again on a miss.  :class:`CooperativeSets` holds what they share:
the per-set block state, keyed by ``(tag << 1) | cc_bit`` where the cc
bit marks a block cooperatively cached for the partner; the recency
order, LRU first; the per-set count of cooperative blocks; and the
operations that install, promote, remove and spill blocks.

Each scheme subclasses it and keeps its own access path, batch loop,
miss half, coupling and invariants.  The hot loops bind the per-set
lists below to locals, so their names are part of the contract.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cache.block import BlockView
from repro.cache.geometry import CacheGeometry
from repro.common.rng import Lfsr
from repro.common.stats import CacheStats
from repro.obs.events import Eviction, Spill
from repro.obs.tracer import NULL_TRACER, Tracer


class CooperativeSets:
    """Per-set block store whose victims may spill into a partner set."""

    def __init__(
        self,
        geometry: CacheGeometry,
        rng: Optional[Lfsr] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.geometry = geometry
        self.mapper = geometry.mapper
        self.rng = rng if rng is not None else Lfsr()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = CacheStats()
        # Lifetime accesses folded in by reset_stats(); underscore-
        # prefixed so the manifest's scheme-config hash ignores it.
        self._access_base = 0
        num_sets = geometry.num_sets
        assoc = geometry.associativity
        # Per-set block state: key = (tag << 1) | cc_bit  ->  way.
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
        self._cc_count: List[int] = [0] * num_sets

    # ------------------------------------------------------------------
    # Block operations
    # ------------------------------------------------------------------

    def _install(self, set_index: int, way: int, key: int, dirty: bool) -> None:
        """Place a block at MRU."""
        self._lookup[set_index][key] = way
        self._way_key[set_index][way] = key
        self._dirty[set_index][way] = dirty
        self._order[set_index].append(way)

    def _promote(self, set_index: int, way: int) -> None:
        order = self._order[set_index]
        order.remove(way)
        order.append(way)

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

    def _spill(self, source: int, dest: int, tag: int, dirty: bool) -> None:
        """Displace a victim of ``source`` into ``dest`` at MRU.

        The block ``dest`` evicts to make room leaves the chip.
        """
        stats = self.stats
        stats.spills += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(Spill(
                access=stats.accesses,
                set_index=source,
                global_access=self._access_base + stats.accesses,
                giver=dest,
                tag=tag,
                dirty=dirty,
            ))
        free = self._free[dest]
        if free:
            way = free.pop()
        else:
            way = self._order[dest][0]
            victim_key = self._way_key[dest][way]
            victim_dirty = self._dirty[dest][way]
            self._remove(dest, way)
            if victim_dirty:
                stats.writebacks += 1
            if victim_key & 1:
                # Replacing one cooperative block with another keeps the
                # pair alive: adjust the count without a decouple check
                # because the insert below restores it.
                self._cc_count[dest] -= 1
        self._install(dest, way, (tag << 1) | 1, dirty)
        self._cc_count[dest] += 1

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

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
        """Zero statistics (e.g. after warm-up).

        The lifetime clock behind event ``global_access`` stamps keeps
        running: the zeroed window counters fold into ``_access_base``.
        """
        self._access_base += self.stats.accesses
        self.stats = CacheStats()
