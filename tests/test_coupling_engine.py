"""The run-time coupling SBC and STEM share, driven through both schemes.

SBC calls its sets source and destination, STEM taker and giver; the
cases below use STEM's words for both.  The association table cases
check the per-set list the engine pairs sets in, and the errors and
invariant messages a glitched entry raises.  Each validator case leaves
one stale candidate in the giver heap, less saturated than a valid
giver, and checks that coupling drops it and takes the valid one.  Each
decouple case drains a giver's only cooperative block and checks the
reason the ``Decoupling`` event gives.
"""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.common.errors import InvariantViolation, SimulationError
from repro.core.stem_cache import StemCache
from repro.obs.events import Coupling, Decoupling
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import Tracer
from repro.spatial.sbc import SbcCache
from repro.spatial.sbc_static import StaticSbcCache

TAKER, GIVER, OTHER = 0, 1, 2
GEOMETRY = CacheGeometry(num_sets=4, associativity=4)


def sbc_stop_giving(cache, set_index):
    cache._saturation[set_index] = cache.couple_threshold


def stem_stop_giving(cache, set_index):
    cache.sc_s[set_index] = cache.config.giver_bit


SCHEMES = pytest.mark.parametrize(
    "scheme, stop_giving, names",
    [
        (SbcCache, sbc_stop_giving, ("none", "source", "dest")),
        (StemCache, stem_stop_giving, ("uncoupled", "taker", "giver")),
    ],
    ids=["SBC", "STEM"],
)


def traced(scheme):
    ring = RingBufferSink()
    return scheme(GEOMETRY, tracer=Tracer(ring)), ring


def events_of(ring, kind):
    return [event for event in ring.events if isinstance(event, kind)]


def address(cache, set_index, tag):
    return cache.mapper.compose(tag, set_index)


class TestAssociationTable:
    @SCHEMES
    def test_fresh_entries_are_identity(self, scheme, stop_giving, names):
        cache = scheme(GEOMETRY)
        assert cache.association == list(range(GEOMETRY.num_sets))
        for set_index in range(GEOMETRY.num_sets):
            assert cache._partner_of(set_index) is None

    @SCHEMES
    def test_couple_then_decouple(self, scheme, stop_giving, names):
        cache = scheme(GEOMETRY)
        cache.heap.offer(GIVER, 0)
        assert cache._try_couple(TAKER) == GIVER
        assert cache.association[:2] == [GIVER, TAKER]
        assert cache._partner_of(GIVER) == TAKER
        assert cache.stats.couplings == 1
        cache._decouple(TAKER, GIVER)
        assert cache.association == list(range(GEOMETRY.num_sets))
        assert cache.stats.decouplings == 1

    @SCHEMES
    def test_glitched_participant_cannot_couple(
        self, scheme, stop_giving, names
    ):
        cache = scheme(GEOMETRY)
        cache.association[GIVER] = OTHER  # a one-sided entry, no role
        cache.heap.offer(GIVER, 0)
        with pytest.raises(
            SimulationError,
            match=r"^couple\(0, 1\): a participant is already coupled$",
        ):
            cache._try_couple(TAKER)

    @SCHEMES
    def test_decouple_of_uncoupled_pair_rejected(
        self, scheme, stop_giving, names
    ):
        cache = scheme(GEOMETRY)
        with pytest.raises(
            SimulationError,
            match=r"^decouple\(0, 1\): sets are not coupled together$",
        ):
            cache._decouple(TAKER, GIVER)

    @SCHEMES
    def test_check_invariants_reads_the_table(
        self, scheme, stop_giving, names
    ):
        cache = scheme(GEOMETRY)
        cache.heap.offer(GIVER, 0)
        cache._try_couple(TAKER)
        cache._spill(TAKER, GIVER, 99, False)
        cache.check_invariants()
        cache.association[OTHER] = GEOMETRY.num_sets
        with pytest.raises(
            InvariantViolation,
            match=r"^association entry 2 points outside the table: 4$",
        ):
            cache.check_invariants()
        cache.association[OTHER] = GIVER
        with pytest.raises(
            InvariantViolation, match=r"^asymmetric pairing: 2 -> 1 -> 0$"
        ):
            cache.check_invariants()


class TestSetChecks:
    """Per-set rules the invariant sweep and STEM's heal share."""

    @SCHEMES
    def test_cc_count_in_a_non_giver(self, scheme, stop_giving, names):
        cache = scheme(GEOMETRY)
        cache._cc_count[OTHER] = 1
        with pytest.raises(
            InvariantViolation, match=r"^set 2: cc count 1 in a non-giver$"
        ):
            cache.check_invariants()

    @SCHEMES
    def test_uncoupled_set_with_a_partner(self, scheme, stop_giving, names):
        cache = scheme(GEOMETRY)
        cache.association[:2] = [GIVER, TAKER]  # symmetric, but no roles
        with pytest.raises(
            InvariantViolation,
            match=r"^set 0: uncoupled but paired with 1$",
        ):
            cache.check_invariants()

    @pytest.mark.parametrize("scheme", [SbcCache, StemCache, StaticSbcCache])
    def test_way_holding_another_key(self, scheme):
        cache = scheme(GEOMETRY)
        cache.access(address(cache, OTHER, 5))
        way = cache._lookup[OTHER][5 << 1]
        cache._way_key[OTHER][way] = 6 << 1
        with pytest.raises(
            InvariantViolation,
            match=rf"^set 2: way {way} holds key 12, not 10$",
        ):
            cache.check_invariants()

    def test_stem_heals_the_sets_the_checks_name(self):
        cache = StemCache(GEOMETRY)
        cache._cc_count[OTHER] = 1
        cache.association[:2] = [GIVER, TAKER]
        cache._heal("test")
        assert cache.safe_mode_sets() == [TAKER, GIVER, OTHER]
        assert cache.association == list(range(GEOMETRY.num_sets))
        cache.check_invariants()


class TestValidatorDrops:
    def assert_dropped(self, cache, ring, stale, names):
        couplings = cache.stats.couplings
        cache.heap.offer(GIVER, 1)
        cache.heap.force_entry(stale, 0)
        assert cache._try_couple(TAKER) == GIVER
        assert len(cache.heap) == 0
        assert (cache.role_of(TAKER), cache.role_of(GIVER)) == names[1:]
        assert cache._partner_of(TAKER) == GIVER
        assert cache.stats.couplings == couplings + 1
        assert [
            (event.set_index, event.giver)
            for event in events_of(ring, Coupling)
        ][-1] == (TAKER, GIVER)
        cache._spill(TAKER, GIVER, 99, False)
        cache.check_invariants()

    @SCHEMES
    def test_slot_beyond_the_llc(self, scheme, stop_giving, names):
        cache, ring = traced(scheme)
        self.assert_dropped(cache, ring, GEOMETRY.num_sets + 3, names)

    @SCHEMES
    def test_the_taker_itself(self, scheme, stop_giving, names):
        cache, ring = traced(scheme)
        self.assert_dropped(cache, ring, TAKER, names)

    @SCHEMES
    def test_a_coupled_set(self, scheme, stop_giving, names):
        cache, ring = traced(scheme)
        cache.heap.offer(3, 0)
        assert cache._try_couple(OTHER) == 3
        cache._spill(OTHER, 3, 98, False)
        cache.heap.force_entry(OTHER, 0)
        self.assert_dropped(cache, ring, 3, names)
        assert cache._partner_of(OTHER) == 3
        assert cache.stats.couplings == 2

    @SCHEMES
    def test_a_set_that_does_not_give(self, scheme, stop_giving, names):
        cache, ring = traced(scheme)
        stop_giving(cache, OTHER)
        self.assert_dropped(cache, ring, OTHER, names)
        assert cache.role_of(OTHER) == names[0]

    def test_a_stem_set_in_safe_mode(self):
        cache, ring = traced(StemCache)
        cache._enter_safe_mode(OTHER, "test")
        self.assert_dropped(
            cache, ring, OTHER, ("uncoupled", "taker", "giver")
        )
        assert cache.role_of(OTHER) == "uncoupled"

    @SCHEMES
    def test_no_valid_giver_couples_nothing(self, scheme, stop_giving, names):
        cache, ring = traced(scheme)
        cache.heap.force_entry(TAKER, 0)
        cache.heap.force_entry(GEOMETRY.num_sets, 1)
        assert cache._try_couple(TAKER) is None
        assert len(cache.heap) == 0
        assert cache.role_of(TAKER) == names[0]
        assert cache.stats.couplings == 0
        assert events_of(ring, Coupling) == []


class TestDecoupleReasons:
    """The giver's own misses evict the one block spilled into it."""

    def drain(self, cache, ring, hits_between, stop_giving=None):
        cache.heap.offer(GIVER, 0)
        assert cache._try_couple(TAKER) == GIVER
        cache._spill(TAKER, GIVER, 99, False)
        if stop_giving is not None:
            stop_giving(cache, GIVER)
        # Three misses fill the free ways; the fourth evicts the
        # cooperative block, the giver's LRU entry.
        for tag in range(1, 5):
            cache.access(address(cache, GIVER, tag))
            if hits_between and tag < 4:
                cache.access(address(cache, GIVER, tag))
        assert cache.stats.decouplings == 1
        assert cache._partner_of(TAKER) is None
        cache.check_invariants()
        return [
            (event.set_index, event.giver, event.reason)
            for event in events_of(ring, Decoupling)
        ]

    @SCHEMES
    def test_giver_drained(self, scheme, stop_giving, names):
        # The giver still gives when its last cooperative block leaves:
        # the taker stopped re-referencing its blocks.
        cache, ring = traced(scheme)
        assert self.drain(cache, ring, hits_between=True) == [
            (TAKER, GIVER, "giver_drained")
        ]
        assert (cache.role_of(TAKER), cache.role_of(GIVER)) == (
            names[0], names[0]
        )

    @SCHEMES
    def test_role_change(self, scheme, stop_giving, names):
        # The giver's own demand recovered: it no longer gives.
        cache, ring = traced(scheme)
        assert self.drain(
            cache, ring, hits_between=False, stop_giving=stop_giving
        ) == [(TAKER, GIVER, "role_change")]

    @SCHEMES
    def test_spill_over_a_cooperative_block_keeps_the_pair(
        self, scheme, stop_giving, names
    ):
        cache, ring = traced(scheme)
        cache.heap.offer(GIVER, 0)
        assert cache._try_couple(TAKER) == GIVER
        for tag in range(100, 106):
            cache._spill(TAKER, GIVER, tag, True)
        # The last two spills each displaced a dirty cooperative block.
        assert cache.stats.writebacks == 2
        assert cache.stats.decouplings == 0
        assert events_of(ring, Decoupling) == []
        assert cache.role_of(GIVER) == names[2]
        cache.check_invariants()
