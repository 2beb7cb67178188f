"""Unit and behavioural tests for the STEM LLC."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.cache.access import AccessKind
from repro.cache.geometry import CacheGeometry
from repro.common.errors import ConfigError
from repro.core.config import StemConfig
from repro.core.stem_cache import StemCache
from repro.sim.simulator import run_trace
from repro.workloads.synthetic import figure2_trace

from tests.conftest import cyclic_addresses, random_addresses


def make_stem(num_sets=8, associativity=4, **config_kwargs):
    geometry = CacheGeometry(num_sets=num_sets, associativity=associativity)
    config = StemConfig(**config_kwargs) if config_kwargs else None
    return StemCache(geometry, config=config)


def interleave(*streams):
    return [address for accesses in zip(*streams) for address in accesses]


class TestConstruction:
    def test_needs_two_sets(self):
        with pytest.raises(ConfigError):
            StemCache(CacheGeometry(num_sets=1, associativity=4))

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                        reason="CPython 3.11's shared key table, as the "
                               "benchmark runs it")
    def test_plain_stem_after_safe_mode_keeps_inline_attributes(self):
        # A safe-mode STEM built first fills the class's shared key
        # table; a name that no longer fits (``seed``) would turn every
        # later STEM's attributes into a dict (DESIGN.md §9).  A fresh
        # interpreter, so the table starts empty.
        script = textwrap.dedent("""
            import gc
            from repro.cache.geometry import CacheGeometry
            from repro.core.config import StemConfig
            from repro.sim.config import make_scheme
            geometry = CacheGeometry(num_sets=4, associativity=4)
            make_scheme("stem", geometry, config=StemConfig(safe_mode=True))
            cache = make_scheme("stem", geometry)
            print(any(isinstance(ref, dict) and "stats" in ref
                      for ref in gc.get_referents(cache)))
        """)
        env = {**os.environ,
               "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            StemConfig(counter_bits=0)
        with pytest.raises(ConfigError):
            StemConfig(shadow_tag_bits=0)
        with pytest.raises(ConfigError):
            StemConfig(heap_capacity=0)
        with pytest.raises(ConfigError):
            StemConfig(spatial_ratio_bits=-1)

    def test_all_sets_start_as_lru(self):
        cache = make_stem()
        assert all(
            cache.policy_mode_of(s) == "LRU"
            for s in range(cache.geometry.num_sets)
        )


class TestBasicAccessPath:
    def test_miss_then_hit(self):
        cache = make_stem()
        assert cache.access(0x1000) == AccessKind.MISS
        assert cache.access(0x1000) == AccessKind.LOCAL_HIT

    def test_stats_partition_under_random_load(self):
        cache = make_stem(num_sets=16, associativity=4)
        for address in random_addresses(cache.geometry, 5000, tag_space=48):
            cache.access(address)
        stats = cache.stats
        assert stats.hits + stats.misses == stats.accesses
        assert stats.local_hits + stats.cooperative_hits == stats.hits
        assert (
            stats.misses_single_probe + stats.misses_double_probe
            == stats.misses
        )
        cache.check_invariants()

    def test_shadow_captures_victims(self):
        cache = make_stem(num_sets=2, associativity=2)
        mapper = cache.geometry.mapper
        for tag in (1, 2, 3):  # overflow the 2-way set
            cache.access(mapper.compose(tag, 0))
        assert len(cache.shadow_entries(0)) >= 1

    def test_shadow_hit_counted_and_exclusive(self):
        cache = make_stem(num_sets=2, associativity=2)
        mapper = cache.geometry.mapper
        for tag in (1, 2, 3):
            cache.access(mapper.compose(tag, 0))
        # Tag 1 was evicted; re-touching it is a shadow hit...
        cache.access(mapper.compose(1, 0))
        assert cache.stats.shadow_hits == 1
        signatures = {e.hashed_tag for e in cache.shadow_entries(0)}
        assert cache._hash(1) not in signatures  # invalidated on hit


class TestTemporalManagement:
    def test_thrashing_set_triggers_policy_swaps(self):
        # A loop of 2x the associativity saturates SC_T and forces the
        # set out of pure LRU.  (The SC_T duel re-arms after each swap,
        # so the set legitimately oscillates between BIP-heavy phases;
        # what matters is that swaps fire and misses drop below LRU's
        # 100% thrash.)
        cache = make_stem(num_sets=2, associativity=4)
        stream = cyclic_addresses(cache.geometry, 0, 8, 3000)
        for address in stream:
            cache.access(address)
        assert cache.stats.policy_swaps >= 1
        assert cache.stats.miss_rate < 0.8

    def test_friendly_set_stays_lru(self):
        cache = make_stem(num_sets=2, associativity=4)
        stream = cyclic_addresses(cache.geometry, 0, 4, 2000)
        for address in stream:
            cache.access(address)
        assert cache.policy_mode_of(0) == "LRU"
        assert cache.stats.policy_swaps == 0

    def test_swap_cuts_miss_rate_on_solo_thrash(self):
        # One thrashing set with no partner available (the other set is
        # idle but never posted): per-set BIP should still kick in.
        cache = make_stem(num_sets=2, associativity=4)
        stream = cyclic_addresses(cache.geometry, 0, 8, 6000)
        for address in stream[:3000]:
            cache.access(address)
        cache.reset_stats()
        for address in stream[3000:]:
            cache.access(address)
        # LRU would thrash at 1.0; BIP's analytic rate is 1 - 3/8.
        assert cache.stats.miss_rate < 0.8

    def test_mirrored_shadow_ablation_disables_swap_signal(self):
        # With the shadow running the *same* policy, a thrashing LRU
        # set's shadow also thrashes: far weaker SC_T signal.
        inverted = make_stem(num_sets=2, associativity=4)
        mirrored = make_stem(
            num_sets=2, associativity=4, invert_shadow_policy=False
        )
        stream = cyclic_addresses(inverted.geometry, 0, 8, 4000)
        for address in stream:
            inverted.access(address)
            mirrored.access(address)
        assert inverted.stats.policy_swaps >= mirrored.stats.policy_swaps


class TestSpatialManagement:
    def test_figure2_example1_couples_and_balances(self):
        cache = StemCache(CacheGeometry(num_sets=2, associativity=4))
        result = run_trace(cache, figure2_trace(1, rounds=2048),
                           warmup_fraction=0.5)
        # Coupling happens during warm-up, so read the association
        # table's own counter rather than the (reset) run statistics.
        assert cache.association.couplings >= 1
        assert cache.stats.cooperative_hits > 0
        assert result.miss_rate < 0.05

    def test_roles_reported(self):
        cache = StemCache(CacheGeometry(num_sets=2, associativity=4))
        for address in figure2_trace(1, rounds=1024).addresses:
            cache.access(address)
        assert cache.role_of(0) == "taker"
        assert cache.role_of(1) == "giver"
        cache.check_invariants()

    def test_no_coupling_when_no_givers(self):
        # Figure 2 Example #3: both sets overutilized -> heap empty.
        cache = StemCache(CacheGeometry(num_sets=2, associativity=4))
        for address in figure2_trace(3, rounds=1024).addresses:
            cache.access(address)
        assert cache.stats.couplings == 0

    def test_coop_hits_use_double_tag_probes(self):
        cache = StemCache(CacheGeometry(num_sets=2, associativity=4))
        for address in figure2_trace(1, rounds=1024).addresses:
            cache.access(address)
        assert cache.stats.cooperative_hits > 0
        assert cache.stats.misses_double_probe >= 0
        # Every cooperative block in the giver carries CC = 1.
        coop = [b for b in cache.resident_blocks(1) if b.cooperative]
        assert coop

    def test_receiving_control_protects_giver(self):
        # A giver bombarded by a streaming taker must start refusing
        # spills once its own monitor stops reading "giver".
        geometry = CacheGeometry(num_sets=2, associativity=4)
        gated = StemCache(geometry)
        ungated = StemCache(
            geometry, config=StemConfig(receiving_control=False)
        )
        thrash = cyclic_addresses(geometry, 0, 64, 4000)
        friendly = cyclic_addresses(geometry, 1, 4, 4000)
        stream = interleave(thrash, friendly)
        for address in stream:
            gated.access(address)
            ungated.access(address)
        assert gated.stats.spill_rejects > 0
        # Unconditional receiving never rejects; gating cannot do worse.
        assert ungated.stats.spill_rejects == 0
        assert gated.stats.misses <= ungated.stats.misses

    def test_decoupling_on_cc_drain(self):
        # Couple a pair, then let the giver's own demand evict every
        # cooperative block: the pair must dissolve (Section 4.7).
        geometry = CacheGeometry(num_sets=2, associativity=4)
        cache = StemCache(geometry)
        for address in figure2_trace(1, rounds=1024).addresses:
            cache.access(address)
        assert cache.role_of(1) == "giver"
        # Phase change: set 1 suddenly needs all of its capacity.
        for address in cyclic_addresses(geometry, 1, 4, 400):
            cache.access(address)
        for address in cyclic_addresses(geometry, 1, 6, 2000):
            cache.access(address)
        assert cache.stats.decouplings >= 1
        assert cache.role_of(1) == "uncoupled"
        cache.check_invariants()


class TestHalfAblations:
    def test_temporal_only_never_couples(self):
        cache = make_stem(num_sets=2, associativity=4, enable_spatial=False)
        for address in figure2_trace(1, rounds=1024).addresses:
            cache.access(address)
        assert cache.stats.couplings == 0
        assert cache.stats.spills == 0

    def test_spatial_only_never_swaps(self):
        cache = make_stem(num_sets=2, associativity=4, enable_temporal=False)
        stream = cyclic_addresses(cache.geometry, 0, 8, 3000)
        for address in stream:
            cache.access(address)
        assert cache.stats.policy_swaps == 0
        assert cache.policy_mode_of(0) == "LRU"

    def test_spatial_only_still_balances_figure2_example1(self):
        cache = make_stem(num_sets=2, associativity=4, enable_temporal=False)
        result = run_trace(cache, figure2_trace(1, rounds=2048),
                           warmup_fraction=0.5)
        assert result.miss_rate < 0.05

    def test_full_stem_at_least_as_good_as_either_half(self):
        # The paper's thesis in one assertion: Example #2 needs both
        # dimensions, and the combination dominates each half.
        trace = figure2_trace(2, rounds=2048)
        rates = {}
        for label, kwargs in (
            ("full", {}),
            ("spatial", {"enable_temporal": False}),
            ("temporal", {"enable_spatial": False}),
        ):
            cache = make_stem(num_sets=2, associativity=4, **kwargs)
            rates[label] = run_trace(
                cache, trace, warmup_fraction=0.5
            ).miss_rate
        assert rates["full"] <= rates["spatial"] + 0.02
        assert rates["full"] <= rates["temporal"] + 0.02


class TestInspection:
    def test_resident_blocks_views(self):
        cache = make_stem()
        cache.access(0x2000, is_write=True)
        set_index = cache.mapper.set_index(0x2000)
        views = cache.resident_blocks(set_index)
        assert len(views) == 1
        assert views[0].dirty
        assert not views[0].cooperative

    def test_reset_stats_preserves_contents(self):
        cache = make_stem()
        cache.access(0x2000)
        cache.reset_stats()
        assert cache.stats.accesses == 0
        assert cache.access(0x2000) == AccessKind.LOCAL_HIT
