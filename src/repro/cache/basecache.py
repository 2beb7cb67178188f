"""A set-associative cache with a pluggable replacement policy.

This is the conventional LLC of Section 2.1 — the organization every
temporal scheme (LRU, LIP, BIP, DIP, PeLIFO, ...) runs on — and also
serves as the L1 model in the two-level hierarchy.  Spatial schemes
(V-Way, SBC) and STEM have their own cache classes because they break
the "one set, fixed associativity" assumption this class encodes.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.cache.access import AccessKind
from repro.cache.block import BlockView
from repro.cache.geometry import CacheGeometry
from repro.common.errors import InvariantViolation, SimulationError
from repro.common.rng import Lfsr
from repro.common.stats import CacheStats
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.policies.base import RecencyPolicy, ReplacementPolicy
from repro.policies.pelifo import _MODE_LIFO, _MODE_LRU, PeLifoPolicy

#: Callback signature for eviction notifications: (block_address, dirty).
EvictionListener = Callable[[int, bool], None]


class SetAssociativeCache:
    """Conventional set-associative cache driven by a policy object.

    Parameters
    ----------
    geometry:
        Shape of the cache.
    policy:
        A fresh :class:`ReplacementPolicy`; the cache calls ``attach``
        on it, so one policy object must never serve two caches.
    rng:
        Deterministic LFSR shared with the policy (BIP/DIP randomness).
    eviction_listener:
        Optional callback invoked with ``(block_address, dirty)`` for
        every block evicted by replacement — the hierarchy uses it to
        propagate L1 write-backs into the L2.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`; defaults to the
        disabled :data:`~repro.obs.tracer.NULL_TRACER` so tracing costs
        nothing unless a sink is attached.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: ReplacementPolicy,
        rng: Optional[Lfsr] = None,
        eviction_listener: Optional[EvictionListener] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.geometry = geometry
        self.mapper = geometry.mapper
        self.policy = policy
        self.rng = rng if rng is not None else Lfsr()
        self.eviction_listener = eviction_listener
        self.tracer = tracer if tracer is not None else NULL_TRACER
        policy.attach(geometry.num_sets, geometry.associativity, self.rng)
        self.stats = CacheStats()
        # Lifetime accesses folded in by reset_stats(); underscore-
        # prefixed so the manifest's scheme-config hash ignores it.
        self._access_base = 0
        num_sets = geometry.num_sets
        assoc = geometry.associativity
        self._tag_to_way: List[dict] = [{} for _ in range(num_sets)]
        self._way_tag: List[List[Optional[int]]] = [
            [None] * assoc for _ in range(num_sets)
        ]
        self._dirty: List[List[bool]] = [
            [False] * assoc for _ in range(num_sets)
        ]
        # Stack of free ways per set; pop() hands out way 0 first.
        self._free_ways: List[List[int]] = [
            list(range(assoc - 1, -1, -1)) for _ in range(num_sets)
        ]
        # Ledger attribution counter (tracer-guarded, reset with the
        # stats; underscore-prefixed so the manifest hash ignores it).
        self._led_hits: List[int] = [0] * num_sets

    @property
    def name(self) -> str:
        """Scheme name for result tables: the policy's name."""
        return self.policy.name

    # ------------------------------------------------------------------
    # Main access path
    # ------------------------------------------------------------------

    def access(self, address: int, is_write: bool = False) -> AccessKind:
        """Look up ``address``; fill on miss; return the outcome kind."""
        set_index, tag = self.mapper.split(address)
        stats = self.stats
        stats.accesses += 1
        table = self._tag_to_way[set_index]
        way = table.get(tag)
        if way is not None:
            stats.hits += 1
            stats.local_hits += 1
            if self.tracer.enabled:
                self._led_hits[set_index] += 1
            if is_write:
                self._dirty[set_index][way] = True
            self.policy.on_hit(set_index, way)
            return AccessKind.LOCAL_HIT
        stats.misses += 1
        stats.misses_single_probe += 1
        self.policy.on_miss(set_index)
        free = self._free_ways[set_index]
        if free:
            way = free.pop()
        else:
            way = self.policy.victim(set_index)
            self._evict(set_index, way)
        table[tag] = way
        self._way_tag[set_index][way] = tag
        self._dirty[set_index][way] = is_write
        self.policy.on_fill(set_index, way)
        return AccessKind.MISS

    def access_batch(
        self,
        addresses: Sequence[int],
        set_indices: Sequence[int],
        tags: Sequence[int],
        writes: Optional[Sequence[bool]],
        start: int,
        stop: int,
    ) -> None:
        """Process accesses ``[start, stop)`` from precomputed arrays.

        Semantically identical to calling :meth:`access` once per entry
        (same final state, same statistics), but with the set-index/tag
        split hoisted out and hot attributes bound to locals.  Recency
        policies and PeLIFO with no eviction listener additionally get
        the policy protocol inlined.  Under a tracer the per-set ledger
        hit counter keeps counting and inlined evictions are counted,
        not built.  Only a sink reading every event sends the loop back
        to the scalar path, where each event's ``stats`` snapshot is
        exact.
        """
        tracer = self.tracer
        if tracer.full:
            access = self.access
            if writes is None:
                for n in range(start, stop):
                    access(addresses[n])
            else:
                for n in range(start, stop):
                    access(addresses[n], writes[n])
            return
        policy = self.policy
        cls = type(policy)
        stats = self.stats
        tag_tables = self._tag_to_way
        way_tags = self._way_tag
        dirty_rows = self._dirty
        free_lists = self._free_ways
        has_writes = writes is not None
        traced = tracer.enabled
        led_hits = self._led_hits
        hits = evictions = writebacks = 0
        if cls is PeLifoPolicy and self.eviction_listener is None:
            hits, evictions, writebacks = self._pelifo_batch(
                set_indices, tags, writes, start, stop
            )
        elif (
            isinstance(policy, RecencyPolicy)
            and self.eviction_listener is None
            and cls.victim is RecencyPolicy.victim
            and cls.on_fill is RecencyPolicy.on_fill
        ):
            orders = policy._order
            inline_hit = cls.on_hit is RecencyPolicy.on_hit
            hit_update = (
                None if inline_hit or policy.batch_hit_noop else policy.on_hit
            )
            train_miss = (
                None
                if cls.on_miss is ReplacementPolicy.on_miss
                else policy.on_miss
            )
            mru_const = policy.batch_insert_mru
            decide_mru = policy._insert_at_mru
            for n in range(start, stop):
                set_index = set_indices[n]
                tag = tags[n]
                table = tag_tables[set_index]
                way = table.get(tag)
                if way is not None:
                    hits += 1
                    if traced:
                        led_hits[set_index] += 1
                    if has_writes and writes[n]:
                        dirty_rows[set_index][way] = True
                    if inline_hit:
                        order = orders[set_index]
                        order.remove(way)
                        order.append(way)
                    elif hit_update is not None:
                        hit_update(set_index, way)
                    continue
                if train_miss is not None:
                    train_miss(set_index)
                free = free_lists[set_index]
                if free:
                    way = free.pop()
                else:
                    order = orders[set_index]
                    if not order:
                        raise SimulationError(
                            f"victim() on empty ranking for set {set_index}"
                        )
                    way = order[0]
                    old_tag = way_tags[set_index][way]
                    del table[old_tag]
                    evictions += 1
                    dirty_row = dirty_rows[set_index]
                    if dirty_row[way]:
                        writebacks += 1
                        dirty_row[way] = False
                table[tag] = way
                way_tags[set_index][way] = tag
                dirty_rows[set_index][way] = has_writes and bool(writes[n])
                order = orders[set_index]
                if way in order:
                    order.remove(way)
                at_mru = mru_const if mru_const is not None else decide_mru(set_index)
                if at_mru:
                    order.append(way)
                else:
                    order.insert(0, way)
        else:
            on_hit = policy.on_hit
            on_miss = policy.on_miss
            victim = policy.victim
            on_fill = policy.on_fill
            evict = self._evict
            for n in range(start, stop):
                set_index = set_indices[n]
                tag = tags[n]
                table = tag_tables[set_index]
                way = table.get(tag)
                if way is not None:
                    hits += 1
                    if traced:
                        led_hits[set_index] += 1
                    if has_writes and writes[n]:
                        dirty_rows[set_index][way] = True
                    on_hit(set_index, way)
                    continue
                on_miss(set_index)
                free = free_lists[set_index]
                if free:
                    way = free.pop()
                else:
                    way = victim(set_index)
                    evict(set_index, way)
                table[tag] = way
                way_tags[set_index][way] = tag
                dirty_rows[set_index][way] = has_writes and bool(writes[n])
                on_fill(set_index, way)
        total = stop - start
        misses = total - hits
        stats.accesses += total
        stats.hits += hits
        stats.local_hits += hits
        stats.misses += misses
        stats.misses_single_probe += misses
        stats.evictions += evictions
        stats.writebacks += writebacks
        if traced and evictions:
            tracer.unread += evictions

    def _pelifo_batch(
        self,
        set_indices: Sequence[int],
        tags: Sequence[int],
        writes: Optional[Sequence[bool]],
        start: int,
        stop: int,
    ) -> "tuple[int, int, int]":
        """:meth:`access_batch`'s loop for a :class:`PeLifoPolicy`.

        Inlines ``on_hit``, ``on_miss``, ``victim``, the eviction and
        ``on_fill`` in the scalar path's order: on a miss the leader
        counters and the epoch tick come first, then the victim, the
        eviction and the fill.  The epoch election runs through the
        policy's own :meth:`PeLifoPolicy._elect`, and the epoch count
        is written back, so chunk boundaries change nothing.  Returns
        the chunk's hit, eviction and write-back counts.
        """
        policy = self.policy
        stacks = policy._fill_stack
        recencies = policy._recency
        roles = policy._roles
        depth_hits = policy._depth_hits
        mode_misses = policy._mode_misses
        mode_accesses = policy._mode_accesses
        learned_depth = policy._learned_depth
        elect = policy._elect
        epoch_length = policy.epoch_length
        events = policy._events
        best_mode = policy._best_mode
        deepest = policy.associativity - 1
        tag_tables = self._tag_to_way
        way_tags = self._way_tag
        dirty_rows = self._dirty
        free_lists = self._free_ways
        has_writes = writes is not None
        traced = self.tracer.enabled
        led_hits = self._led_hits
        hits = evictions = writebacks = 0
        for n in range(start, stop):
            set_index = set_indices[n]
            tag = tags[n]
            table = tag_tables[set_index]
            way = table.get(tag)
            role = roles[set_index]
            if way is not None:
                hits += 1
                if traced:
                    led_hits[set_index] += 1
                if has_writes and writes[n]:
                    dirty_rows[set_index][way] = True
                stack = stacks[set_index]
                depth = len(stack) - 1 - stack.index(way)
                depth_hits[depth if depth < deepest else deepest] += 1
                if role != -1:
                    mode_accesses[role] += 1
                recency = recencies[set_index]
                recency.remove(way)
                recency.append(way)
                events += 1
                if events >= epoch_length:
                    elect()
                    events = 0
                    best_mode = policy._best_mode
                continue
            if role != -1:
                mode_misses[role] += 1
                mode_accesses[role] += 1
            events += 1
            if events >= epoch_length:
                elect()
                events = 0
                best_mode = policy._best_mode
            stack = stacks[set_index]
            recency = recencies[set_index]
            free = free_lists[set_index]
            if free:
                way = free.pop()
            else:
                if not stack:
                    raise SimulationError(
                        f"victim() on empty fill stack for set {set_index}"
                    )
                mode = role if role != -1 else best_mode
                if mode == _MODE_LRU:
                    way = recency[0]
                elif mode == _MODE_LIFO:
                    way = stack[-1]
                else:
                    depth = learned_depth()
                    top = len(stack) - 1
                    way = stack[top - (depth if depth < top else top)]
                del table[way_tags[set_index][way]]
                evictions += 1
                dirty_row = dirty_rows[set_index]
                if dirty_row[way]:
                    writebacks += 1
                    dirty_row[way] = False
            table[tag] = way
            way_tags[set_index][way] = tag
            dirty_rows[set_index][way] = has_writes and bool(writes[n])
            if way in stack:
                stack.remove(way)
            stack.append(way)
            if way in recency:
                recency.remove(way)
            recency.append(way)
        policy._events = events
        return hits, evictions, writebacks

    def _evict(self, set_index: int, way: int) -> None:
        """Remove the block in ``way`` and account for its write-back."""
        old_tag = self._way_tag[set_index][way]
        del self._tag_to_way[set_index][old_tag]
        self.stats.evictions += 1
        dirty = self._dirty[set_index][way]
        if dirty:
            self.stats.writebacks += 1
            self._dirty[set_index][way] = False
        tracer = self.tracer
        if tracer.enabled:
            if tracer.full:
                accesses = self.stats.accesses
                tracer.eviction(
                    accesses, set_index, self._access_base + accesses,
                    old_tag, dirty, False,
                )
            else:
                tracer.unread += 1
        if self.eviction_listener is not None:
            block_address = self.mapper.compose(old_tag, set_index)
            self.eviction_listener(block_address, dirty)

    # ------------------------------------------------------------------
    # Inspection & maintenance (tests, analyses, coherence shims)
    # ------------------------------------------------------------------

    def contains(self, address: int) -> bool:
        """True when the block holding ``address`` is resident."""
        set_index, tag = self.mapper.split(address)
        return tag in self._tag_to_way[set_index]

    def invalidate(self, address: int) -> bool:
        """Drop the block holding ``address``; True if it was resident."""
        set_index, tag = self.mapper.split(address)
        way = self._tag_to_way[set_index].pop(tag, None)
        if way is None:
            return False
        self._way_tag[set_index][way] = None
        self._dirty[set_index][way] = False
        self._free_ways[set_index].append(way)
        self.policy.on_invalidate(set_index, way)
        return True

    def set_occupancy(self, set_index: int) -> int:
        """Number of valid blocks currently in ``set_index``."""
        return len(self._tag_to_way[set_index])

    def resident_blocks(self, set_index: int) -> List[BlockView]:
        """Immutable views of the valid blocks in ``set_index``."""
        views = []
        for tag, way in sorted(self._tag_to_way[set_index].items()):
            views.append(
                BlockView(
                    set_index=set_index,
                    way=way,
                    tag=tag,
                    dirty=self._dirty[set_index][way],
                )
            )
        return views

    @property
    def global_accesses(self) -> int:
        """Lifetime access count; reset_stats() does not rewind it."""
        return self._access_base + self.stats.accesses

    def metrics_gauges(self) -> dict:
        """Instantaneous state sampled by a metrics registry.

        Called at window boundaries only — never from the access path —
        so the zero-overhead-when-disabled contract holds.
        """
        capacity = self.geometry.num_sets * self.geometry.associativity
        filled = sum(len(table) for table in self._tag_to_way)
        return {"occupancy_fraction": filled / capacity}

    def metrics_per_set(self) -> dict:
        """Per-set rows sampled by a metrics registry (heatmap data)."""
        return {
            "occupancy": [len(table) for table in self._tag_to_way]
        }

    def ledger_counters(self) -> dict:
        """Per-set attribution counters for the capacity-flow ledger.

        Tracer-guarded and window-aligned; a policy cache neither
        borrows capacity nor swaps policies, so only the plain per-set
        hit row exists and both explain components are structurally
        zero for it.
        """
        return {"hits": list(self._led_hits)}

    def reset_stats(self) -> None:
        """Zero the statistics (e.g. after a warm-up phase).

        The lifetime clock behind event ``global_access`` stamps keeps
        running: the zeroed window counters fold into ``_access_base``.
        """
        self._access_base += self.stats.accesses
        self.stats = CacheStats()
        self._led_hits = [0] * self.geometry.num_sets

    def check_invariants(self) -> None:
        """Raise :class:`InvariantViolation` on internal inconsistency.

        Used by property tests and by safe-mode sweeps; raising (rather
        than ``assert``) keeps the checks alive under ``python -O``.
        """
        for set_index in range(self.geometry.num_sets):
            table = self._tag_to_way[set_index]
            ways = list(table.values())
            if len(ways) != len(set(ways)):
                raise InvariantViolation(
                    f"duplicate way mapping in set {set_index}"
                )
            for tag, way in table.items():
                if self._way_tag[set_index][way] != tag:
                    raise InvariantViolation(
                        f"tag/way mismatch in set {set_index} way {way}"
                    )
            occupancy = len(table) + len(self._free_ways[set_index])
            if occupancy != self.geometry.associativity:
                raise InvariantViolation(
                    f"set {set_index}: valid+free != associativity"
                )
