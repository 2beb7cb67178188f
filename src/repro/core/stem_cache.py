"""The STEM LLC — spatiotemporal set-level capacity management.

This is the paper's contribution (Section 4), assembled from the
substrate pieces:

* every set carries a Set-level Capacity Demand Monitor (§4.2): a
  shadow set of hashed victim tags and the k-bit saturating counters
  SC_S and SC_T, kept as per-set lists beside the block store's;
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

The SCDM's rules (§4.2–4.3): a shadow hit invalidates the signature
(signatures stay exclusive with resident blocks) and adds 1 to SC_S and
SC_T; a local hit takes 1 from SC_T, and from SC_S once per 2**n hits
as the LFSR decides; a saturated SC_S marks a taker, a clear MSB a
giver; a saturated SC_T swaps the set's policy and restarts at 0.  A
shadow set holds at most associativity signatures: a victim is filed at
the rank of the shadow's own policy (the opposite of the set's), a
duplicate is re-ranked, and a full shadow drops its LRU entry first.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.cache.access import AccessKind
from repro.cache.block import ShadowView
from repro.cache.geometry import CacheGeometry
from repro.common.errors import ConfigError, InvariantViolation, SimulationError
from repro.common.hashing import H3Hash
from repro.common.rng import Lfsr
from repro.core.config import StemConfig
from repro.obs.events import (
    Eviction,
    PolicySwap,
    SafeModeEntry,
    ShadowHit,
    SpillReject,
)
from repro.obs.tracer import Tracer
from repro.spatial.cooperative import TAKER, UNCOUPLED, CoupledSets

_MODE_LRU = 0
_MODE_BIP = 1

#: Exception classes the safe-mode access path treats as recoverable
#: corruption symptoms, and that mark a set suspect when its checks
#: raise them.  Structured invariant errors are the designed signal;
#: the builtin errors cover corruption that derails indexing before any
#: invariant check runs (e.g. a glitched association entry sending a
#: probe to a set that does not exist).
_RECOVERABLE = (SimulationError, IndexError, KeyError, ValueError, TypeError)


class StemCache(CoupledSets):
    """SpatioTEmporally Managed last level cache.

    Its instance attributes are at CPython 3.11's shared-key budget
    (DESIGN.md §9): one more would put every STEM built after a
    safe-mode one on a dict, so a new attribute replaces an old one.
    """

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
        config = config if config is not None else StemConfig()
        super().__init__(geometry, config.heap_capacity, rng, tracer)
        self.config = config
        self._hash = H3Hash(
            in_bits=geometry.tag_bits,
            out_bits=config.shadow_tag_bits,
            seed=config.hash_seed,
        )
        num_sets = geometry.num_sets
        # Temporal state: per-set policy mode, starting from LRU.
        self._mode: List[int] = [_MODE_LRU] * num_sets
        # The SCDM, per set: SC_S, SC_T, and the shadow set as its
        # signatures in recency order (LRU first) plus their set.  The
        # hot loops bind these lists to locals; the fault injector
        # corrupts them by name.
        self.sc_s: List[int] = [0] * num_sets
        self.sc_t: List[int] = [0] * num_sets
        self.shadow_order: List[List[int]] = [[] for _ in range(num_sets)]
        self.shadow_members: List[Set[int]] = [set() for _ in range(num_sets)]
        # Resilience state: sets pinned to plain LRU after recovery.
        self._in_safe_mode: List[bool] = [False] * num_sets
        # The ledger's local hits taken under BIP, beside the engine's
        # hit counters and kept the same way.
        self._led_bip: List[int] = [0] * num_sets
        if config.safe_mode:
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
            # SC_T -1 on every local hit, SC_S -1 once per 2**n.
            config = self.config
            sc_t = self.sc_t
            if sc_t[set_index]:
                sc_t[set_index] -= 1
            sc_s = self.sc_s
            if self.rng.one_in(config.spatial_ratio_bits):
                if sc_s[set_index]:
                    sc_s[set_index] -= 1
            if is_write:
                self._dirty[set_index][way] = True
            order = self._order[set_index]
            order.remove(way)
            order.append(way)
            # A giver posts itself to the heap of candidate givers.
            value = sc_s[set_index]
            if (
                value < config.giver_bit
                and config.enable_spatial
                and self._role[set_index] == UNCOUPLED
                and not self._in_safe_mode[set_index]
            ):
                self.heap.offer(set_index, value)
            return AccessKind.LOCAL_HIT
        return self._access_miss(set_index, tag, is_write)

    def _access_miss(self, set_index: int, tag: int, is_write: bool) -> AccessKind:
        """Miss half of the controller flow (after the local-hit probe).

        Split out of :meth:`access` so :meth:`access_batch` can inline
        the hot local-hit path and fall into exactly this code on a miss.
        The common case of the fill is inlined: the demand victim's
        removal, its write-back and shadow capture, the install, the
        policy-swap check and the giver posting.  The partner probe,
        coupling, spill, spill reject and the cooperative drop stay
        calls.  Every mutation and LFSR draw keeps the controller's
        order (the shadow rank is drawn before the fill rank; the victim
        leaves its set before any coupling, spill or shadow capture),
        because safe mode heals whatever state an exception leaves
        behind.
        """
        stats = self.stats
        roles = self._role
        tracer = self.tracer
        probed_coop = roles[set_index] == TAKER
        if probed_coop and self._probe_partner(set_index, tag, is_write):
            return AccessKind.COOP_HIT
        stats.misses += 1
        if probed_coop:
            stats.misses_double_probe += 1
        else:
            stats.misses_single_probe += 1
        config = self.config
        counter_max = config.counter_max
        sc_s = self.sc_s
        sc_t = self.sc_t
        shadow_members = self.shadow_members[set_index]
        signature = self._hash(tag)
        # Shadow probe: invalidate on hit, pulse both counters.
        if signature in shadow_members:
            shadow_members.discard(signature)
            self.shadow_order[set_index].remove(signature)
            if sc_s[set_index] < counter_max:
                sc_s[set_index] += 1
            if sc_t[set_index] < counter_max:
                sc_t[set_index] += 1
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
                    and roles[set_index] == UNCOUPLED
                    and not self._in_safe_mode[set_index]
                    and sc_s[set_index] == counter_max
                ):
                    # "When an uncoupled taker set needs to evict a
                    # block, it first sends a coupling request to the HW
                    # heap" (§4.5).
                    self._try_couple(set_index)
                spilled = False
                if (
                    roles[set_index] == TAKER
                    and sc_s[set_index] >= config.giver_bit
                ):
                    giver = self._partner_of(set_index)
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
                    # Inlined shadow_insert.
                    ranks = self.shadow_order[set_index]
                    if victim_signature in shadow_members:
                        ranks.remove(victim_signature)
                    elif len(ranks) >= self.geometry.associativity:
                        shadow_members.discard(ranks.pop(0))
                    shadow_members.add(victim_signature)
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
        if sc_t[set_index] == counter_max:
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
            sc_t[set_index] = 0
        if (
            config.enable_spatial
            and roles[set_index] == UNCOUPLED
            and not self._in_safe_mode[set_index]
        ):
            value = sc_s[set_index]
            if value < config.giver_bit:
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
        sc_s = self.sc_s
        sc_t = self.sc_t
        roles = self._role
        safe = self._in_safe_mode
        heap_offer = self.heap.offer
        rng = self.rng
        miss = self._access_miss
        spatial = config.enable_spatial
        giver_bit = config.giver_bit
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
            # SC_T -1 always, SC_S -1 once per 2**ratio_bits hits
            # (LFSR-decided, one_in() read from the jump table).
            value = sc_t[set_index]
            if value:
                sc_t[set_index] = value - 1
            if jump_states is None:
                spatial_decrement = True
            else:
                state = rng._state
                rng._state = jump_states[state]
                spatial_decrement = not jump_vals[state]
            if spatial_decrement:
                value = sc_s[set_index]
                if value:
                    sc_s[set_index] = value - 1
            if has_writes and writes[n]:
                dirty_rows[set_index][way] = True
            order = orders[set_index]
            order.remove(way)
            order.append(way)
            # A giver posts itself to the heap of candidate givers.
            if spatial and roles[set_index] == 0 and not safe[set_index]:
                value = sc_s[set_index]
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
        return self.sc_s[giver] < self.config.giver_bit

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

    def _off_chip(self, owner: int, tag: int) -> None:
        """File the signature of ``owner``'s block leaving the chip.

        The shadow ranks it per its own policy, the opposite of the
        set's (§4.3).  A cooperative block goes to its owner's shadow,
        so the taker's capacity demand keeps being measured.
        """
        signature = self._hash(tag)
        shadow_mode = self._mode[owner]
        if self.config.invert_shadow_policy:
            shadow_mode ^= 1
        at_mru = shadow_mode == _MODE_LRU or self.rng.one_in(
            self.config.bip_throttle_bits
        )
        self.shadow_insert(owner, signature, at_mru)

    def shadow_insert(self, set_index: int, signature: int, at_mru: bool) -> None:
        """File ``signature`` in the set's shadow at the MRU or LRU rank.

        A duplicate signature (a hash alias of an earlier victim, or the
        same block bouncing) is re-ranked rather than duplicated; a full
        shadow set drops its own LRU entry first.
        """
        members = self.shadow_members[set_index]
        ranks = self.shadow_order[set_index]
        if signature in members:
            ranks.remove(signature)
        elif len(ranks) >= self.geometry.associativity:
            members.discard(ranks.pop(0))
        members.add(signature)
        if at_mru:
            ranks.append(signature)
        else:
            ranks.insert(0, signature)

    def _gives(self, set_index: int) -> bool:
        """SC_S's MSB is clear and the set is not pinned to plain LRU."""
        return (
            self.sc_s[set_index] < self.config.giver_bit
            and not self._in_safe_mode[set_index]
        )

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

        The association table is repaired first (out-of-range or
        asymmetric entries reset to identity); then every set that
        fails the invariant sweep's own per-set checks is a suspect.
        Each suspect — and its partner, which holds or owns the pair's
        cooperative blocks — is put into safe mode.
        """
        suspects = set(self._repair_association())
        for set_index in range(self.geometry.num_sets):
            try:
                self._check_set(set_index)
            except _RECOVERABLE:
                suspects.add(set_index)
        association = self.association
        for set_index in list(suspects):
            suspects.add(association[set_index])
        for set_index in sorted(suspects):
            self._enter_safe_mode(set_index, reason)

    def _enter_safe_mode(self, set_index: int, reason: str) -> None:
        """Dissolve any pairing, rebuild the set, pin it to plain LRU."""
        self._dissolve(set_index)
        self._rebuild_set(set_index)
        # The set's capacity-demand history is untrustworthy: both
        # counters restart at zero and the shadow set is emptied.
        self.sc_s[set_index] = 0
        self.sc_t[set_index] = 0
        self.shadow_order[set_index].clear()
        self.shadow_members[set_index].clear()
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

    def shadow_entries(self, set_index: int) -> List[ShadowView]:
        """Views of the valid shadow signatures of ``set_index``."""
        return [
            ShadowView(set_index=set_index, way=way, hashed_tag=signature)
            for way, signature in enumerate(self.shadow_order[set_index])
        ]

    def metrics_gauges(self) -> Dict[str, float]:
        """Instantaneous controller state for the metrics registry.

        Sampled at window boundaries only (never from the access path):
        occupancy, the SCDM's SC_S/SC_T saturation averages, the
        taker/giver census, the candidate-giver heap depth, the live
        coupling population and the safe-mode set count.
        """
        sc_s = self.sc_s
        num_sets = len(sc_s)
        capacity = num_sets * self.geometry.associativity
        filled = sum(len(table) for table in self._lookup)
        counter_max = self.config.counter_max
        takers = sum(1 for value in sc_s if value == counter_max)
        givers = sum(1 for value in sc_s if value < self.config.giver_bit)
        coupled_pairs = sum(
            1 for role in self._role if role == TAKER
        )
        return {
            "occupancy_fraction": filled / capacity,
            "sc_s_saturation": sum(sc_s) / (num_sets * counter_max),
            "sc_t_saturation": sum(self.sc_t) / (num_sets * counter_max),
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
        """The engine's hit counters plus ``swapped_policy_hits``.

        ``swapped_policy_hits`` counts local hits taken while the set's
        insertion policy was BIP — the temporal component
        :mod:`repro.obs.explain` reports.
        """
        counters = super().ledger_counters()
        counters["swapped_policy_hits"] = list(self._led_bip)
        return counters

    def reset_stats(self) -> None:
        """Zero statistics and the ledger counters; the clock runs on."""
        super().reset_stats()
        self._led_bip = [0] * self.geometry.num_sets

    def _check_set(self, set_index: int) -> None:
        """The engine's checks, then the set's SCDM."""
        super()._check_set(set_index)
        ranks = self.shadow_order[set_index]
        if len(ranks) > self.geometry.associativity:
            raise InvariantViolation(
                f"set {set_index}: shadow set exceeds associativity"
            )
        members = self.shadow_members[set_index]
        if len(ranks) != len(members) or set(ranks) != members:
            raise InvariantViolation(
                f"set {set_index}: shadow order disagrees with its members"
            )
        counter_max = self.config.counter_max
        for name, counters in (("SC_S", self.sc_s), ("SC_T", self.sc_t)):
            if not 0 <= counters[set_index] <= counter_max:
                raise InvariantViolation(
                    f"set {set_index}: {name} {counters[set_index]} "
                    f"outside [0, {counter_max}]"
                )
