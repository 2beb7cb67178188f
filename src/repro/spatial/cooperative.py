"""The block store and coupling engine shared by SBC, static SBC and STEM.

All three cache a set's victims in a coupled partner set and probe that
set again on a miss.  :class:`CooperativeSets` holds what they share:
the per-set block state, keyed by ``(tag << 1) | cc_bit`` where the cc
bit marks a block cooperatively cached for the partner; the recency
order, LRU first; the per-set count of cooperative blocks; the
operations that install, promote, remove and spill blocks; and the
store's own check and repair of one set.

SBC and STEM also pair sets at run time, and :class:`CoupledSets` holds
that half (the paper's §4.5–4.7): the association table as a per-set
list, the heap of candidate givers and one role per set; coupling a
taker with the least saturated valid giver, the probe a taker's miss
makes into its giver, the drop of a cooperative block off chip and the
decoupling once the giver drains; the ledger hit counters; the
association, coupling, occupancy and recency invariants; and the
repairs STEM's safe mode makes with them.  SBC calls a taker a source
and a giver a destination.  Each scheme says which sets may give
(:meth:`_gives`) and keeps its own access path, batch loop and miss
half, which inline the demand eviction and call into the engine.  A
block leaving the chip goes through :meth:`_off_chip`, where STEM files
its signature.  The hot loops bind the per-set lists below to locals,
so their names are part of the contract.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cache.block import BlockView
from repro.cache.geometry import CacheGeometry
from repro.common.errors import InvariantViolation, SimulationError
from repro.common.rng import Lfsr
from repro.common.stats import CacheStats
from repro.obs.events import CoopHit, Coupling, Decoupling, Eviction, Spill
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.spatial.heap import GiverHeap

#: Per-set coupling roles (:attr:`CoupledSets._role`).
UNCOUPLED = 0
TAKER = 1
GIVER = 2


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
                self._off_chip(source, victim_key >> 1)
                self._cc_count[dest] -= 1
            else:
                self._off_chip(dest, victim_key >> 1)
        self._install(dest, way, (tag << 1) | 1, dirty)
        self._cc_count[dest] += 1

    def _off_chip(self, owner: int, tag: int) -> None:
        """A block of ``owner`` left the chip (STEM files its signature)."""

    # ------------------------------------------------------------------
    # Check and repair
    # ------------------------------------------------------------------

    def _check_store(self, set_index: int) -> None:
        """Occupancy, recency and way keys of one set.

        Each way is validated before it indexes a row, so a corrupt set
        raises :class:`InvariantViolation` and nothing else.
        """
        assoc = self.geometry.associativity
        table = self._lookup[set_index]
        occupancy = len(table) + len(self._free[set_index])
        if occupancy != assoc:
            raise InvariantViolation(
                f"set {set_index}: occupancy {occupancy} != "
                f"associativity {assoc}"
            )
        if sorted(self._order[set_index]) != sorted(table.values()):
            raise InvariantViolation(
                f"set {set_index}: recency order disagrees with the "
                "lookup table"
            )
        way_keys = self._way_key[set_index]
        for key, way in table.items():
            if not isinstance(way, int) or not 0 <= way < assoc:
                raise InvariantViolation(
                    f"set {set_index}: block {key} in bad way {way!r}"
                )
            if way_keys[way] != key:
                raise InvariantViolation(
                    f"set {set_index}: way {way} holds key "
                    f"{way_keys[way]!r}, not {key}"
                )

    def _rebuild_set(self, set_index: int) -> None:
        """Reconstruct a set's derived state from its lookup table.

        The lookup table is the root of truth: cooperative entries are
        dropped (the pairing is gone, so they are orphans), invalid or
        duplicate way mappings are discarded, and the recency order is
        preserved where it is still meaningful.
        """
        assoc = self.geometry.associativity
        table = self._lookup[set_index]
        old_dirty = self._dirty[set_index]
        keep: Dict[int, int] = {}  # way -> key
        for key in sorted(table):
            way = table[key]
            if not isinstance(way, int) or not 0 <= way < assoc:
                continue
            if key & 1:
                # Orphaned cooperative block leaving the chip.
                self.stats.evictions += 1
                if old_dirty[way]:
                    self.stats.writebacks += 1
                continue
            if way in keep:
                continue
            keep[way] = key
        table.clear()
        way_key: List[Optional[int]] = [None] * assoc
        dirty = [False] * assoc
        for way, key in keep.items():
            table[key] = way
            way_key[way] = key
            dirty[way] = bool(old_dirty[way])
        self._way_key[set_index] = way_key
        self._dirty[set_index] = dirty
        self._free[set_index] = [
            way for way in range(assoc - 1, -1, -1) if way not in keep
        ]
        order = [
            way for way in dict.fromkeys(self._order[set_index])
            if way in keep
        ]
        order.extend(way for way in sorted(keep) if way not in order)
        self._order[set_index] = order
        self._cc_count[set_index] = 0

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


class CoupledSets(CooperativeSets):
    """A block store whose sets pair up at run time, taker with giver."""

    #: :meth:`role_of` names for UNCOUPLED, TAKER and GIVER.
    _ROLE_NAMES = ("uncoupled", "taker", "giver")

    def __init__(
        self,
        geometry: CacheGeometry,
        heap_capacity: int,
        rng: Optional[Lfsr] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(geometry, rng, tracer)
        num_sets = geometry.num_sets
        # The association table (Table 3): each set's partner, or the
        # set's own index while it is uncoupled.  Named after its fault
        # target; only this class and the fault injector write it, and
        # every partner read goes through _partner_of().
        self.association: List[int] = list(range(num_sets))
        self.heap = GiverHeap(heap_capacity)
        self._role: List[int] = [UNCOUPLED] * num_sets
        # Ledger attribution counters, kept only under the tracer guard
        # and zeroed with the stats so they cover the measured window.
        # Underscore-prefixed: the manifest's scheme hash ignores them.
        self._led_hits: List[int] = [0] * num_sets
        self._led_coop: List[int] = [0] * num_sets

    def _gives(self, set_index: int) -> bool:
        """Whether ``set_index`` qualifies as a giver.

        The heap validator asks before coupling, the decouple reason
        after the drain.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Coupling
    # ------------------------------------------------------------------

    def _try_couple(self, taker: int) -> Optional[int]:
        """Pair ``taker`` with the least saturated valid giver, if any."""
        num_sets = self.geometry.num_sets
        roles = self._role
        gives = self._gives

        def _valid(candidate: int) -> bool:
            # The bounds check tolerates glitched heap slots naming
            # nonexistent sets — lazy validation drops them as stale.
            return (
                isinstance(candidate, int)
                and 0 <= candidate < num_sets
                and candidate != taker
                and roles[candidate] == UNCOUPLED
                and gives(candidate)
            )

        giver = self.heap.pop_best(_valid)
        if giver is None:
            return None
        table = self.association
        if table[taker] != taker or table[giver] != giver:
            raise SimulationError(
                f"couple({taker}, {giver}): a participant is already coupled"
            )
        table[taker] = giver
        table[giver] = taker
        roles[taker] = TAKER
        roles[giver] = GIVER
        self.heap.remove(taker)
        stats = self.stats
        stats.couplings += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(Coupling(
                access=stats.accesses,
                set_index=taker,
                global_access=self._access_base + stats.accesses,
                giver=giver,
            ))
        return giver

    def _decouple(self, taker: int, giver: int) -> None:
        """Dissolve the pair once the giver drains (§4.7)."""
        table = self.association
        if table[taker] != giver or table[giver] != taker:
            raise SimulationError(
                f"decouple({taker}, {giver}): sets are not coupled together"
            )
        table[taker] = taker
        table[giver] = giver
        roles = self._role
        roles[taker] = UNCOUPLED
        roles[giver] = UNCOUPLED
        stats = self.stats
        stats.decouplings += 1
        tracer = self.tracer
        if tracer.enabled:
            # The pair dissolves when the giver drains its last
            # cooperative block.  A giver that still gives saw the
            # taker stop re-referencing its blocks; one that no longer
            # does saw its own demand recover (a role change), and the
            # drain followed from that.
            reason = "giver_drained" if self._gives(giver) else "role_change"
            tracer.emit(Decoupling(
                access=stats.accesses,
                set_index=taker,
                global_access=self._access_base + stats.accesses,
                giver=giver,
                reason=reason,
            ))

    def _partner_of(self, set_index: int) -> Optional[int]:
        """The set's partner, or None while its entry names itself."""
        partner = self.association[set_index]
        return None if partner == set_index else partner

    def _probe_partner(self, taker: int, tag: int, is_write: bool) -> bool:
        """A taker's miss probes its giver; True on a cooperative hit."""
        giver = self._partner_of(taker)
        way = self._lookup[giver].get((tag << 1) | 1)
        if way is None:
            return False
        stats = self.stats
        stats.hits += 1
        stats.cooperative_hits += 1
        tracer = self.tracer
        if tracer.enabled:
            # Credit the taker: its access was saved.  The hit is
            # spatial, never temporal, whatever the taker's policy.
            self._led_hits[taker] += 1
            self._led_coop[taker] += 1
            tracer.emit(CoopHit(
                access=stats.accesses,
                set_index=taker,
                global_access=self._access_base + stats.accesses,
                giver=giver,
            ))
        if is_write:
            self._dirty[giver][way] = True
        order = self._order[giver]
        order.remove(way)
        order.append(way)
        return True

    def _drop_cooperative(self, giver: int, tag: int, dirty: bool) -> None:
        """The giver evicted one of its taker's blocks off chip."""
        taker = self._partner_of(giver)
        if dirty:
            self.stats.writebacks += 1
        self._off_chip(taker, tag)
        cc_count = self._cc_count
        cc_count[giver] -= 1
        if cc_count[giver] == 0:
            self._decouple(taker, giver)

    def _dissolve(self, set_index: int) -> None:
        """Safe mode's repair: reset the set's pairing to uncoupled.

        The partner's entry is reset too when it points back.  The
        dissolution is an event-stream fact the ledger must see, but not
        a normal decoupling: ``stats.decouplings`` stays untouched, and
        only the first of the pair's two calls emits (the second finds
        the pair already dissolved).  The partner's role is its own
        call's to reset.
        """
        table = self.association
        partner = table[set_index]
        if partner != set_index:
            table[set_index] = set_index
            if table[partner] == set_index:
                table[partner] = partner
                tracer = self.tracer
                role = self._role[set_index]
                if tracer.enabled and role != UNCOUPLED:
                    # A glitched pairing with no roles emits nothing.
                    taker, giver = (
                        (set_index, partner) if role == TAKER
                        else (partner, set_index)
                    )
                    stats = self.stats
                    tracer.emit(Decoupling(
                        access=stats.accesses,
                        set_index=taker,
                        global_access=self._access_base + stats.accesses,
                        giver=giver,
                        reason="safe_mode",
                    ))
        self._role[set_index] = UNCOUPLED

    def _repair_association(self) -> List[int]:
        """Reset every out-of-range or asymmetric entry to identity.

        A range pass, then a symmetry pass.  Returns the indices whose
        entries were repaired, so STEM's safe mode knows which sets
        lost their pairing state.
        """
        table = self.association
        num_sets = len(table)
        repaired: List[int] = []
        for index, partner in enumerate(table):
            if not isinstance(partner, int) or not 0 <= partner < num_sets:
                table[index] = index
                repaired.append(index)
        for index, partner in enumerate(table):
            if partner != index and table[partner] != index:
                table[index] = index
                repaired.append(index)
        return repaired

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def role_of(self, set_index: int) -> str:
        """The set's coupling role, in the scheme's own words."""
        return self._ROLE_NAMES[self._role[set_index]]

    def ledger_counters(self) -> Dict[str, List[int]]:
        """Per-set attribution counters for the capacity-flow ledger.

        Maintained only while a tracer is attached (all zeros
        otherwise) and zeroed by :meth:`reset_stats`, so they cover
        exactly the measured window — matching ``stats``: the per-set
        hits sum to ``stats.hits``, the cooperative hits to
        ``stats.cooperative_hits``.  A cooperative hit is credited to
        the taker whose access it saved.
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
        """Verify structural consistency, set by set.

        Raises :class:`InvariantViolation` on the first inconsistency —
        never ``assert`` — so the checks work under ``python -O`` and
        STEM's safe mode can catch and repair instead of crashing.
        The association table comes first: a symmetric pairing of sets
        within the table.
        """
        table = self.association
        num_sets = len(table)
        for index, partner in enumerate(table):
            if not isinstance(partner, int) or not 0 <= partner < num_sets:
                raise InvariantViolation(
                    f"association entry {index} points outside the table: "
                    f"{partner!r}"
                )
            if partner != index and table[partner] != index:
                raise InvariantViolation(
                    f"asymmetric pairing: {index} -> {partner} -> "
                    f"{table[partner]}"
                )
        for set_index in range(self.geometry.num_sets):
            self._check_set(set_index)

    def _check_set(self, set_index: int) -> None:
        """Coupling, then the store, of one set."""
        table = self._lookup[set_index]
        cc_blocks = sum(1 for key in table if key & 1)
        role = self._role[set_index]
        cc_count = self._cc_count[set_index]
        partner = self._partner_of(set_index)
        if role == GIVER:
            if cc_blocks != cc_count:
                raise InvariantViolation(
                    f"set {set_index}: cc bookkeeping mismatch "
                    f"({cc_blocks} blocks vs count {cc_count})"
                )
            if partner is None:
                raise InvariantViolation(
                    f"set {set_index}: giver role without a pairing"
                )
            if cc_count <= 0:
                raise InvariantViolation(
                    f"set {set_index}: coupled giver with no cc blocks"
                )
        elif cc_blocks != 0:
            raise InvariantViolation(
                f"set {set_index}: cooperative blocks in a non-giver"
            )
        if role == TAKER:
            if partner is None:
                raise InvariantViolation(
                    f"set {set_index}: taker role without a pairing"
                )
            if self._role[partner] != GIVER:
                raise InvariantViolation(
                    f"set {set_index}: partner {partner} is not a giver"
                )
        self._check_store(set_index)
        if role != GIVER and cc_count:
            raise InvariantViolation(
                f"set {set_index}: cc count {cc_count} in a non-giver"
            )
        if role == UNCOUPLED and partner is not None:
            raise InvariantViolation(
                f"set {set_index}: uncoupled but paired with {partner}"
            )
