"""The STEM LLC — spatiotemporal set-level capacity management.

This is the paper's contribution (Section 4), assembled from the
substrate pieces:

* every set carries a :class:`~repro.core.scdm.SetMonitor` (shadow set
  + SC_S/SC_T saturating counters);
* every set duels its own replacement policy between LRU and BIP,
  swapping whenever SC_T saturates (set-level temporal management);
* takers (saturated SC_S) couple with the least-saturated giver from
  the hardware heap, spill victims into it under *receiving control*
  (the giver must still look like a giver), and decouple once the giver
  has evicted every cooperatively cached block (spatial management);
* a spilled block is inserted into the giver according to the giver's
  own current temporal policy (Section 4.6's last sentence).

The class exposes the same ``access() -> AccessKind`` protocol as every
other scheme, so the simulator, hierarchy, and experiment harness treat
STEM, SBC, V-Way and the plain policy caches interchangeably.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cache.access import AccessKind
from repro.cache.block import ShadowView
from repro.cache.geometry import CacheGeometry
from repro.common.errors import ConfigError, InvariantViolation, SimulationError
from repro.common.hashing import H3Hash
from repro.common.rng import Lfsr
from repro.core.config import StemConfig
from repro.core.scdm import SetMonitor
from repro.obs.events import (
    CoopHit,
    Coupling,
    Decoupling,
    Eviction,
    PolicySwap,
    SafeModeEntry,
    ShadowHit,
    Spill,
    SpillReject,
)
from repro.obs.tracer import Tracer
from repro.spatial.association import AssociationTable
from repro.spatial.cooperative import CooperativeSets
from repro.spatial.heap import GiverHeap

_MODE_LRU = 0
_MODE_BIP = 1

_UNCOUPLED = 0
_TAKER = 1
_GIVER = 2

#: Exception classes the safe-mode access path treats as recoverable
#: corruption symptoms.  Structured invariant errors are the designed
#: signal; the builtin errors cover corruption that derails indexing
#: before any invariant check runs (e.g. a glitched association entry
#: sending a probe to a set that does not exist).
_RECOVERABLE = (SimulationError, IndexError, KeyError, ValueError, TypeError)


class StemCache(CooperativeSets):
    """SpatioTEmporally Managed last level cache."""

    name = "STEM"

    def __init__(
        self,
        geometry: CacheGeometry,
        config: Optional[StemConfig] = None,
        rng: Optional[Lfsr] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if geometry.num_sets < 2:
            raise ConfigError("STEM needs at least two sets to couple")
        super().__init__(geometry, rng, tracer)
        self.config = config if config is not None else StemConfig()
        self._hash = H3Hash(
            in_bits=geometry.tag_bits,
            out_bits=self.config.shadow_tag_bits,
            seed=self.config.hash_seed,
        )
        num_sets = geometry.num_sets
        assoc = geometry.associativity
        # Temporal state: per-set policy mode, starting from LRU.
        self._mode: List[int] = [_MODE_LRU] * num_sets
        # The SCDM.
        self.monitors: List[SetMonitor] = [
            SetMonitor(
                associativity=assoc,
                counter_bits=self.config.counter_bits,
                spatial_ratio_bits=self.config.spatial_ratio_bits,
            )
            for _ in range(num_sets)
        ]
        # Spatial state: pairing and the candidate-giver heap.
        self.association = AssociationTable(num_sets)
        self.heap = GiverHeap(self.config.heap_capacity)
        self._coupled_role: List[int] = [_UNCOUPLED] * num_sets
        # SC_S/SC_T's saturated value and MSB (taker, swap and giver
        # tests), read against the counters' raw values on the miss path.
        self._counter_max = (1 << self.config.counter_bits) - 1
        self._giver_bit = 1 << (self.config.counter_bits - 1)
        # Resilience state: sets pinned to plain LRU after recovery.
        self._in_safe_mode: List[bool] = [False] * num_sets
        # Attribution counters for the capacity-flow ledger, maintained
        # only under the tracer guard (zero cost when tracing is off)
        # and zeroed with the stats so they cover the measured window.
        # Underscore-prefixed: the manifest's scheme hash ignores them.
        self._led_hits: List[int] = [0] * num_sets
        self._led_coop: List[int] = [0] * num_sets
        self._led_bip: List[int] = [0] * num_sets
        if self.config.safe_mode:
            # Shadow the class method with the guarded path so the
            # default configuration pays zero overhead per access.
            self.access = self._guarded_access  # type: ignore[method-assign]
            # The batched fast path would bypass the guard; force the
            # simulator back onto the scalar (guarded) loop.
            self.access_batch = None  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------

    def access(self, address: int, is_write: bool = False) -> AccessKind:
        """Service one LLC access (Figure 4's controller flow)."""
        set_index, tag = self.mapper.split(address)
        stats = self.stats
        stats.accesses += 1
        way = self._lookup[set_index].get(tag << 1)
        if way is not None:
            stats.hits += 1
            stats.local_hits += 1
            if self.tracer.enabled:
                self._led_hits[set_index] += 1
                if self._mode[set_index] == _MODE_BIP:
                    self._led_bip[set_index] += 1
            monitor = self.monitors[set_index]
            monitor.record_local_hit(self.rng)
            if is_write:
                self._dirty[set_index][way] = True
            order = self._order[set_index]
            order.remove(way)
            order.append(way)
            self._maybe_post_giver(set_index, monitor)
            return AccessKind.LOCAL_HIT
        return self._access_miss(set_index, tag, is_write)

    def _access_miss(self, set_index: int, tag: int, is_write: bool) -> AccessKind:
        """Miss half of the controller flow (after the local-hit probe).

        Split out of :meth:`access` so :meth:`access_batch` can inline
        the hot local-hit path and fall into exactly this code on a miss.
        The common case of the fill is inlined: the demand victim's
        removal, its write-back and shadow capture, the install, the
        policy-swap check and the giver posting.  Coupling, spill, spill
        reject and the cooperative drop stay calls.  Every mutation and
        LFSR draw keeps the controller's order (the shadow rank is drawn
        before the fill rank; the victim leaves its set before any
        coupling, spill or shadow capture), because safe mode heals
        whatever state an exception leaves behind.
        """
        stats = self.stats
        roles = self._coupled_role
        tracer = self.tracer
        probed_coop = False
        if roles[set_index] == _TAKER:
            giver = self.association.partner_of(set_index)
            probed_coop = True
            coop_way = self._lookup[giver].get((tag << 1) | 1)
            if coop_way is not None:
                stats.hits += 1
                stats.cooperative_hits += 1
                if tracer.enabled:
                    # Credit the taker: its access was saved.  The hit
                    # is spatial, never temporal, even under BIP.
                    self._led_hits[set_index] += 1
                    self._led_coop[set_index] += 1
                    tracer.emit(CoopHit(
                        access=stats.accesses,
                        set_index=set_index,
                        global_access=self._access_base + stats.accesses,
                        giver=giver,
                    ))
                if is_write:
                    self._dirty[giver][coop_way] = True
                order = self._order[giver]
                order.remove(coop_way)
                order.append(coop_way)
                return AccessKind.COOP_HIT
        stats.misses += 1
        if probed_coop:
            stats.misses_double_probe += 1
        else:
            stats.misses_single_probe += 1
        config = self.config
        counter_max = self._counter_max
        monitor = self.monitors[set_index]
        sc_s = monitor.sc_s
        sc_t = monitor.sc_t
        signature = self._hash(tag)
        # Shadow probe: invalidate on hit, pulse both counters.
        shadow = monitor.shadow
        if signature in shadow._members:
            shadow._members.discard(signature)
            shadow._order.remove(signature)
            if sc_s._value < counter_max:
                sc_s._value += 1
            if sc_t._value < counter_max:
                sc_t._value += 1
            stats.shadow_hits += 1
            if tracer.enabled:
                if tracer.full:
                    tracer.emit(ShadowHit(
                        access=stats.accesses,
                        set_index=set_index,
                        global_access=self._access_base + stats.accesses,
                        signature=signature,
                    ))
                else:
                    tracer.unread += 1
        lookup = self._lookup[set_index]
        way_keys = self._way_key[set_index]
        dirty_row = self._dirty[set_index]
        order = self._order[set_index]
        free = self._free[set_index]
        if free:
            way = free.pop()
        else:
            # Remove the replacement victim from the set.
            way = order[0]
            key = way_keys[way]
            dirty = dirty_row[way]
            del lookup[key]
            way_keys[way] = None
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
            victim_tag = key >> 1
            if key & 1:
                # This set is a giver evicting a cooperatively cached
                # block owned by its coupled taker.
                self._drop_cooperative(set_index, victim_tag, dirty)
            else:
                if (
                    config.enable_spatial
                    and roles[set_index] == _UNCOUPLED
                    and not self._in_safe_mode[set_index]
                    and sc_s._value == counter_max
                ):
                    # "When an uncoupled taker set needs to evict a
                    # block, it first sends a coupling request to the HW
                    # heap" (§4.5).
                    self._try_couple(set_index)
                spilled = False
                if roles[set_index] == _TAKER and sc_s._value >= self._giver_bit:
                    giver = self.association.partner_of(set_index)
                    if self._receiving_allowed(giver):
                        self._spill(set_index, giver, victim_tag, dirty)
                        spilled = True
                    else:
                        self._spill_reject(set_index, giver, victim_tag)
                if not spilled:
                    # The block leaves the chip: write back and file its
                    # signature in the shadow set, ranked per the
                    # shadow's policy (opposite of the set's, §4.3).
                    if dirty:
                        stats.writebacks += 1
                    victim_signature = self._hash(victim_tag)
                    shadow_mode = self._mode[set_index]
                    if config.invert_shadow_policy:
                        shadow_mode ^= 1
                    at_mru = shadow_mode == _MODE_LRU or self.rng.one_in(
                        config.bip_throttle_bits
                    )
                    shadow = monitor.shadow
                    members = shadow._members
                    ranks = shadow._order
                    if victim_signature in members:
                        ranks.remove(victim_signature)
                    elif len(ranks) >= shadow.capacity:
                        members.discard(ranks.pop(0))
                    members.add(victim_signature)
                    if at_mru:
                        ranks.append(victim_signature)
                    else:
                        ranks.insert(0, victim_signature)
        key = tag << 1
        lookup[key] = way
        way_keys[way] = key
        dirty_row[way] = is_write
        if self._mode[set_index] == _MODE_LRU or self.rng.one_in(
            config.bip_throttle_bits
        ):
            order.append(way)
        else:
            order.insert(0, way)
        if sc_t._value == counter_max:
            # The shadow's policy is winning: swap and restart the duel.
            if config.enable_temporal and not self._in_safe_mode[set_index]:
                self._mode[set_index] ^= 1
                stats.policy_swaps += 1
                if tracer.enabled:
                    tracer.emit(PolicySwap(
                        access=stats.accesses,
                        set_index=set_index,
                        global_access=self._access_base + stats.accesses,
                        mode=self.policy_mode_of(set_index),
                        hits=stats.hits,
                    ))
            sc_t._value = 0
        if (
            config.enable_spatial
            and roles[set_index] == _UNCOUPLED
            and not self._in_safe_mode[set_index]
        ):
            value = sc_s._value
            if value < self._giver_bit:
                self.heap.offer(set_index, value)
        return AccessKind.MISS_COOP if probed_coop else AccessKind.MISS

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

        Inlines the local-hit path (recency promotion, SC_T/SC_S
        updates via the LFSR jump table, giver posting) and defers every
        miss to :meth:`_access_miss`, so final state and statistics are
        identical to the scalar loop.  Locally accumulated counters are
        flushed into :attr:`stats` before each miss, keeping any
        mid-run reader exact.  That flush also keeps tracing exact:
        every STEM event comes from the miss path, so each one sees the
        same ``stats`` snapshot as on the scalar path, and the loop
        stays on under any tracer, updating the ledger hit counters on
        hits.
        """
        config = self.config
        stats = self.stats
        lookup = self._lookup
        orders = self._order
        dirty_rows = self._dirty
        monitors = self.monitors
        roles = self._coupled_role
        safe = self._in_safe_mode
        heap_offer = self.heap.offer
        rng = self.rng
        miss = self._access_miss
        spatial = config.enable_spatial
        giver_bit = self._giver_bit
        ratio_bits = config.spatial_ratio_bits
        if ratio_bits > 0:
            jump_vals, jump_states = Lfsr.jump_table(ratio_bits)
        else:
            jump_vals = jump_states = None
        if config.bip_throttle_bits > 0:
            # Misses decide BIP throttling through one_in(); having the
            # table ready makes that a pair of list lookups too.
            Lfsr.jump_table(config.bip_throttle_bits)
        has_writes = writes is not None
        traced = self.tracer.enabled
        led_hits = self._led_hits
        led_bip = self._led_bip
        modes = self._mode
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
                if modes[set_index] == _MODE_BIP:
                    led_bip[set_index] += 1
            monitor = monitors[set_index]
            # Inlined SetMonitor.record_local_hit: SC_T -1 always,
            # SC_S -1 once per 2**ratio_bits hits (LFSR-decided).
            sc_t = monitor.sc_t
            value = sc_t._value
            if value:
                sc_t._value = value - 1
            if jump_states is None:
                spatial_decrement = True
            else:
                state = rng._state
                rng._state = jump_states[state]
                spatial_decrement = not jump_vals[state]
            sc_s = monitor.sc_s
            if spatial_decrement:
                value = sc_s._value
                if value:
                    sc_s._value = value - 1
            if has_writes and writes[n]:
                dirty_rows[set_index][way] = True
            order = orders[set_index]
            order.remove(way)
            order.append(way)
            # Inlined _maybe_post_giver for the hit path.
            if spatial and roles[set_index] == 0 and not safe[set_index]:
                value = sc_s._value
                if value < giver_bit:
                    heap_offer(set_index, value)
        stats.accesses += acc
        stats.hits += hits
        stats.local_hits += hits

    # ------------------------------------------------------------------
    # Fill / spill machinery
    # ------------------------------------------------------------------

    def _receiving_allowed(self, giver: int) -> bool:
        """Receiving control (§4.6): the giver must still be unsaturated."""
        if not self.config.receiving_control:
            return True
        return self.monitors[giver].is_giver

    def _spill_reject(self, taker: int, giver: int, tag: int) -> None:
        """Receiving control refused a taker victim; it leaves the chip."""
        self.stats.spill_rejects += 1
        tracer = self.tracer
        if tracer.enabled:
            if tracer.full:
                tracer.emit(SpillReject(
                    access=self.stats.accesses,
                    set_index=taker,
                    global_access=self._access_base + self.stats.accesses,
                    giver=giver,
                    tag=tag,
                ))
            else:
                tracer.unread += 1

    def _drop_cooperative(self, giver: int, victim_tag: int, dirty: bool) -> None:
        """A giver evicted one of its taker's blocks off-chip."""
        taker = self.association.partner_of(giver)
        if dirty:
            self.stats.writebacks += 1
        # The block leaves the chip: file it in its *owner's* shadow set
        # so the taker's capacity demand keeps being measured.
        self.monitors[taker].record_victim(
            self._hash(victim_tag), self._shadow_insert_at_mru(taker)
        )
        self._cc_count[giver] -= 1
        if self._cc_count[giver] == 0:
            self._decouple(taker, giver)

    def _spill(self, taker: int, giver: int, tag: int, dirty: bool) -> None:
        """Displace a taker victim into the giver (inter-set caching)."""
        self.stats.spills += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(Spill(
                access=self.stats.accesses,
                set_index=taker,
                global_access=self._access_base + self.stats.accesses,
                giver=giver,
                tag=tag,
                dirty=dirty,
            ))
        free = self._free[giver]
        if free:
            way = free.pop()
        else:
            way = self._order[giver][0]
            victim_key = self._way_key[giver][way]
            victim_dirty = self._dirty[giver][way]
            self._remove(giver, way)
            if victim_key & 1:
                # Replacing one of the taker's blocks with another; no
                # decouple check, the insert below restores the count.
                if victim_dirty:
                    self.stats.writebacks += 1
                self.monitors[taker].record_victim(
                    self._hash(victim_key >> 1),
                    self._shadow_insert_at_mru(taker),
                )
                self._cc_count[giver] -= 1
            else:
                self._evict_off_chip(giver, victim_key >> 1, victim_dirty)
        self._install(giver, way, (tag << 1) | 1, dirty)
        self._cc_count[giver] += 1

    def _install(self, set_index: int, way: int, key: int, dirty: bool) -> None:
        """Place a block and rank it per the set's current policy mode."""
        self._lookup[set_index][key] = way
        self._way_key[set_index][way] = key
        self._dirty[set_index][way] = dirty
        order = self._order[set_index]
        if self._insert_at_mru(set_index):
            order.append(way)
        else:
            order.insert(0, way)

    def _insert_at_mru(self, set_index: int) -> bool:
        if self._mode[set_index] == _MODE_LRU:
            return True
        return self.rng.one_in(self.config.bip_throttle_bits)

    def _shadow_insert_at_mru(self, set_index: int) -> bool:
        """Insertion rank in the shadow set (opposite policy, §4.3)."""
        shadow_mode = self._mode[set_index]
        if self.config.invert_shadow_policy:
            shadow_mode ^= 1
        if shadow_mode == _MODE_LRU:
            return True
        return self.rng.one_in(self.config.bip_throttle_bits)

    def _evict_off_chip(self, set_index: int, victim_tag: int, dirty: bool) -> None:
        """A local block leaves the chip: write back + shadow capture."""
        if dirty:
            self.stats.writebacks += 1
        self.monitors[set_index].record_victim(
            self._hash(victim_tag), self._shadow_insert_at_mru(set_index)
        )

    # ------------------------------------------------------------------
    # Coupling management
    # ------------------------------------------------------------------

    def _maybe_post_giver(self, set_index: int, monitor: SetMonitor) -> None:
        if not self.config.enable_spatial:
            return
        if (
            self._coupled_role[set_index] == _UNCOUPLED
            and not self._in_safe_mode[set_index]
            and monitor.is_giver
        ):
            self.heap.offer(set_index, monitor.saturation)

    def _try_couple(self, taker: int) -> Optional[int]:
        def _valid(candidate: int) -> bool:
            # The bounds check tolerates glitched heap slots naming
            # nonexistent sets — lazy validation drops them as stale.
            return (
                isinstance(candidate, int)
                and 0 <= candidate < self.geometry.num_sets
                and candidate != taker
                and not self._in_safe_mode[candidate]
                and self._coupled_role[candidate] == _UNCOUPLED
                and self.monitors[candidate].is_giver
            )

        giver = self.heap.pop_best(_valid)
        if giver is None:
            return None
        self.association.couple(taker, giver)
        self._coupled_role[taker] = _TAKER
        self._coupled_role[giver] = _GIVER
        self.heap.remove(taker)
        self.stats.couplings += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(Coupling(
                access=self.stats.accesses,
                set_index=taker,
                global_access=self._access_base + self.stats.accesses,
                giver=giver,
            ))
        return giver

    def _decouple(self, taker: int, giver: int) -> None:
        self.association.decouple(taker, giver)
        self._coupled_role[taker] = _UNCOUPLED
        self._coupled_role[giver] = _UNCOUPLED
        self.stats.decouplings += 1
        tracer = self.tracer
        if tracer.enabled:
            # The pair dissolves when the giver drains its last
            # cooperative block.  If the giver still qualifies as a
            # giver the taker simply stopped re-referencing its spilled
            # blocks; otherwise the giver's own demand recovered,
            # receiving control cut the inflow, and the drain follows
            # from that role change.
            reason = (
                "giver_drained" if self.monitors[giver].is_giver
                else "role_change"
            )
            tracer.emit(Decoupling(
                access=self.stats.accesses,
                set_index=taker,
                global_access=self._access_base + self.stats.accesses,
                giver=giver,
                reason=reason,
            ))

    # ------------------------------------------------------------------
    # Safe mode: detect corruption, repair, degrade to per-set LRU
    # ------------------------------------------------------------------

    def _guarded_access(self, address: int, is_write: bool = False) -> AccessKind:
        """Access path installed when ``config.safe_mode`` is set.

        Wraps the normal controller flow; a recoverable exception (the
        symptom of corrupted state) triggers :meth:`_heal`, which
        repairs every inconsistent set, and the access is retried on the
        now-consistent structures.  Periodically (every
        ``safe_mode_check_interval`` accesses) the full invariant sweep
        runs so silent corruption — a glitched association entry that
        still *looks* like a pairing — is bounded in lifetime.
        """
        stats = self.stats
        before = (
            stats.accesses, stats.hits, stats.misses,
            stats.misses_single_probe, stats.misses_double_probe,
            stats.local_hits, stats.cooperative_hits,
        )
        try:
            kind = StemCache.access(self, address, is_write)
        except _RECOVERABLE as exc:
            # Rewind the primary access counters so the retried access
            # is not double-counted (side counters stay best-effort).
            (stats.accesses, stats.hits, stats.misses,
             stats.misses_single_probe, stats.misses_double_probe,
             stats.local_hits, stats.cooperative_hits) = before
            self._heal(f"{type(exc).__name__}: {exc}")
            try:
                kind = StemCache.access(self, address, is_write)
            except _RECOVERABLE as retry_exc:
                # Healing restores full consistency, so a second failure
                # should be impossible; repair again and charge a miss.
                self._heal(f"retry: {type(retry_exc).__name__}: {retry_exc}")
                stats.accesses += 1
                stats.misses += 1
                stats.misses_single_probe += 1
                kind = AccessKind.MISS
        interval = self.config.safe_mode_check_interval
        if interval and stats.accesses % interval == 0:
            try:
                self.check_invariants()
            except InvariantViolation as exc:
                self._heal(str(exc))
        return kind

    def _heal(self, reason: str) -> None:
        """Repair every structurally inconsistent set.

        The association relation is repaired first (out-of-range or
        asymmetric entries reset to identity), then each set is
        validated; every suspect — and its partner, which holds or owns
        the pair's cooperative blocks — is put into safe mode.
        """
        suspects = set(self.association.repair())
        num_sets = self.geometry.num_sets
        for set_index in range(num_sets):
            if not self._set_consistent(set_index):
                suspects.add(set_index)
        for set_index in list(suspects):
            partner = self.association.raw_entry(set_index)
            if (
                isinstance(partner, int)
                and 0 <= partner < num_sets
                and partner != set_index
            ):
                suspects.add(partner)
        for set_index in sorted(suspects):
            self._enter_safe_mode(set_index, reason)

    def _set_consistent(self, set_index: int) -> bool:
        """Light structural validation of one set (never raises)."""
        assoc = self.geometry.associativity
        table = self._lookup[set_index]
        if len(table) + len(self._free[set_index]) != assoc:
            return False
        for key, way in table.items():
            if not isinstance(way, int) or not 0 <= way < assoc:
                return False
            if self._way_key[set_index][way] != key:
                return False
        if sorted(self._order[set_index]) != sorted(table.values()):
            return False
        cc_blocks = sum(1 for key in table if key & 1)
        role = self._coupled_role[set_index]
        coupled = self.association.is_coupled(set_index)
        if role == _GIVER:
            return (
                coupled
                and cc_blocks == self._cc_count[set_index]
                and cc_blocks > 0
            )
        if cc_blocks or self._cc_count[set_index]:
            return False
        if role == _TAKER:
            partner = self.association.partner_of(set_index)
            return partner is not None and self._coupled_role[partner] == _GIVER
        return not coupled

    def _enter_safe_mode(self, set_index: int, reason: str) -> None:
        """Dissolve any pairing, rebuild the set, pin it to plain LRU."""
        partner = self.association.raw_entry(set_index)
        if partner != set_index:
            self.association.force_entry(set_index, set_index)
            if (
                isinstance(partner, int)
                and 0 <= partner < self.geometry.num_sets
                and self.association.raw_entry(partner) == set_index
            ):
                self.association.force_entry(partner, partner)
                # The dissolution is an event-stream fact the ledger
                # must see, but not a normal decoupling: the stats
                # counter stays untouched (only `_decouple` mirrors
                # it), and only the first of the pair's two
                # _enter_safe_mode calls emits (the second finds the
                # association already dissolved above).
                tracer = self.tracer
                if tracer.enabled:
                    role = self._coupled_role[set_index]
                    if role == _TAKER:
                        pair = (set_index, partner)
                    elif role == _GIVER:
                        pair = (partner, set_index)
                    else:
                        pair = None  # glitched pairing with no roles
                    if pair is not None:
                        tracer.emit(Decoupling(
                            access=self.stats.accesses,
                            set_index=pair[0],
                            global_access=(
                                self._access_base + self.stats.accesses
                            ),
                            giver=pair[1],
                            reason="safe_mode",
                        ))
        self._coupled_role[set_index] = _UNCOUPLED
        self._rebuild_set(set_index)
        self.monitors[set_index].reset()
        self._mode[set_index] = _MODE_LRU
        self.heap.remove(set_index)
        self._in_safe_mode[set_index] = True
        self.stats.safe_mode_entries += 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(SafeModeEntry(
                access=self.stats.accesses,
                set_index=set_index,
                global_access=self._access_base + self.stats.accesses,
                reason=reason,
            ))

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

    def safe_mode_sets(self) -> List[int]:
        """Indices of sets currently degraded to plain LRU."""
        return [
            set_index
            for set_index, flagged in enumerate(self._in_safe_mode)
            if flagged
        ]

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def policy_mode_of(self, set_index: int) -> str:
        """'LRU' or 'BIP' — the set's current temporal policy."""
        return "LRU" if self._mode[set_index] == _MODE_LRU else "BIP"

    def role_of(self, set_index: int) -> str:
        """Coupling role: 'uncoupled', 'taker' or 'giver'."""
        return ("uncoupled", "taker", "giver")[self._coupled_role[set_index]]

    def shadow_entries(self, set_index: int) -> List[ShadowView]:
        """Views of the valid shadow signatures of ``set_index``."""
        shadow = self.monitors[set_index].shadow
        return [
            ShadowView(set_index=set_index, way=way, hashed_tag=signature)
            for way, signature in enumerate(shadow.entries())
        ]

    def metrics_gauges(self) -> Dict[str, float]:
        """Instantaneous controller state for the metrics registry.

        Sampled at window boundaries only (never from the access path):
        occupancy, the SCDM's SC_S/SC_T saturation averages, the
        taker/giver census, the candidate-giver heap depth, the live
        coupling population and the safe-mode set count.
        """
        monitors = self.monitors
        num_sets = len(monitors)
        capacity = num_sets * self.geometry.associativity
        filled = sum(len(table) for table in self._lookup)
        sc_s_total = sc_t_total = takers = givers = 0
        for monitor in monitors:
            sc_s_total += monitor.sc_s.value
            sc_t_total += monitor.sc_t.value
            if monitor.is_taker:
                takers += 1
            if monitor.is_giver:
                givers += 1
        counter_max = monitors[0].sc_s.max_value or 1
        coupled_pairs = sum(
            1 for role in self._coupled_role if role == _TAKER
        )
        return {
            "occupancy_fraction": filled / capacity,
            "sc_s_saturation": sc_s_total / (num_sets * counter_max),
            "sc_t_saturation": sc_t_total / (num_sets * counter_max),
            "taker_fraction": takers / num_sets,
            "giver_fraction": givers / num_sets,
            "giver_heap_depth": float(len(self.heap)),
            "coupled_pairs": float(coupled_pairs),
            "safe_mode_sets": float(sum(self._in_safe_mode)),
        }

    def metrics_per_set(self) -> Dict[str, List[int]]:
        """Per-set rows for the metrics registry (heatmap data)."""
        return {"occupancy": [len(table) for table in self._lookup]}

    def ledger_counters(self) -> Dict[str, List[int]]:
        """Per-set attribution counters for the capacity-flow ledger.

        Maintained only while a tracer is attached (all zeros
        otherwise) and zeroed by :meth:`reset_stats`, so they cover
        exactly the measured window — matching ``stats``: the per-set
        hits sum to ``stats.hits``, the cooperative hits to
        ``stats.cooperative_hits``.  ``swapped_policy_hits`` counts
        local hits taken while the set's insertion policy was BIP —
        the temporal component :mod:`repro.obs.explain` reports.
        """
        return {
            "hits": list(self._led_hits),
            "cooperative_hits": list(self._led_coop),
            "swapped_policy_hits": list(self._led_bip),
        }

    def reset_stats(self) -> None:
        """Zero statistics and the ledger counters; the clock runs on."""
        super().reset_stats()
        num_sets = self.geometry.num_sets
        self._led_hits = [0] * num_sets
        self._led_coop = [0] * num_sets
        self._led_bip = [0] * num_sets

    def check_invariants(self) -> None:
        """Verify structural consistency; used by property tests.

        Raises :class:`InvariantViolation` on the first inconsistency —
        never ``assert`` — so the checks work under ``python -O`` and
        safe mode can catch and repair instead of crashing.
        """
        self.association.check_invariants()
        for set_index in range(self.geometry.num_sets):
            table = self._lookup[set_index]
            cc_blocks = sum(1 for key in table if key & 1)
            role = self._coupled_role[set_index]
            if role == _GIVER:
                if cc_blocks != self._cc_count[set_index]:
                    raise InvariantViolation(
                        f"set {set_index}: cc bookkeeping mismatch "
                        f"({cc_blocks} blocks vs count "
                        f"{self._cc_count[set_index]})"
                    )
                if not self.association.is_coupled(set_index):
                    raise InvariantViolation(
                        f"set {set_index}: giver role without a pairing"
                    )
                if self._cc_count[set_index] <= 0:
                    raise InvariantViolation(
                        f"set {set_index}: coupled giver with no cc blocks"
                    )
            elif cc_blocks != 0:
                raise InvariantViolation(
                    f"set {set_index}: cooperative blocks in a non-giver"
                )
            if role == _TAKER:
                partner = self.association.partner_of(set_index)
                if partner is None:
                    raise InvariantViolation(
                        f"set {set_index}: taker role without a pairing"
                    )
                if self._coupled_role[partner] != _GIVER:
                    raise InvariantViolation(
                        f"set {set_index}: partner {partner} is not a giver"
                    )
            occupancy = len(table) + len(self._free[set_index])
            if occupancy != self.geometry.associativity:
                raise InvariantViolation(
                    f"set {set_index}: occupancy {occupancy} != "
                    f"associativity {self.geometry.associativity}"
                )
            if sorted(self._order[set_index]) != sorted(table.values()):
                raise InvariantViolation(
                    f"set {set_index}: recency order disagrees with the "
                    "lookup table"
                )
            if len(self.monitors[set_index].shadow) > (
                self.geometry.associativity
            ):
                raise InvariantViolation(
                    f"set {set_index}: shadow set exceeds associativity"
                )
