"""Tests for the capacity-flow ledger and the explain attribution.

Covers :class:`repro.obs.ledger.LedgerSink` on synthetic event streams
(episode lifecycle, orphans, swap windows, caps, conservation), the
capacity-flow-only delivery rule (events no sink reads are counted,
not built), sealed
ledgers on real STEM runs (conservation against ``stats``, decouple
reason vocabulary), the exact spatial/temporal/residual decomposition
of :func:`repro.obs.explain.attribute`, byte-stability across repeated
and serial/parallel runs, fault-injected streams, saved-run round
trips, and the ``repro explain`` / ``repro trace --kinds`` commands.
"""

import json

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cli import main
from repro.common.errors import (
    ConfigError,
    InvariantViolation,
    WatchdogTimeout,
)
from repro.core.config import StemConfig
from repro.obs.sinks import RingBufferSink
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.obs.events import (
    CoopHit,
    Coupling,
    Decoupling,
    Eviction,
    PolicySwap,
    Spill,
    is_capacity_flow,
)
from repro.obs.explain import attribute
from repro.obs.htmlreport import explain_to_html
from repro.obs.ledger import (
    OPEN_AT_SEAL,
    SUPERSEDED,
    LedgerSink,
    RunLedger,
)
from repro.resilience.faults import FaultInjector, FaultPlan, InjectingCache
from repro.sim.cache import load_run, result_to_dict, save_run
from repro.sim.config import PAPER_SCHEMES, ExperimentScale, make_scheme
from repro.sim.runner import run_matrix
import repro.sim.simulator as simulator
from repro.sim.simulator import run_trace
from repro.workloads.spec_like import make_benchmark_trace

GEOMETRY = CacheGeometry(num_sets=64, associativity=16)

#: Every reason a closed episode may legitimately carry.
KNOWN_REASONS = {
    "giver_drained", "role_change", "safe_mode", OPEN_AT_SEAL, SUPERSEDED,
}


def _ledgered(scheme, benchmark="mcf", length=40_000, seed=0xACE1):
    trace = make_benchmark_trace(benchmark, num_sets=64, length=length)
    cache = make_scheme(scheme, GEOMETRY, seed=seed)
    return run_trace(cache, trace, warmup_fraction=0.0, ledger=True)


@pytest.fixture(scope="module")
def stem_run():
    return _ledgered("STEM")


@pytest.fixture(scope="module")
def lru_run():
    return _ledgered("LRU")


# ----------------------------------------------------------------------
# Synthetic streams
# ----------------------------------------------------------------------

class TestEpisodeLifecycle:
    def test_full_episode(self):
        sink = LedgerSink()
        for event in (
            Coupling(access=10, set_index=3, giver=7, global_access=10),
            Spill(access=12, set_index=3, giver=7, global_access=12),
            CoopHit(access=20, set_index=3, giver=7, global_access=20),
            Eviction(access=25, set_index=7, cooperative=True,
                     global_access=25),
            Decoupling(access=30, set_index=3, giver=7,
                       reason="role_change", global_access=30),
        ):
            sink.record(event)
        ledger = sink.seal(final_accesses=30, final_hits=9)

        assert len(ledger.coupling_episodes) == 1
        episode = ledger.coupling_episodes[0]
        assert (episode.taker, episode.giver) == (3, 7)
        assert (episode.start, episode.end) == (10, 30)
        assert episode.spills == 1
        assert episode.coop_hits == 1
        assert episode.reason == "role_change"
        assert episode.residual_blocks == 0
        # One block resident from clock 12 (spill) to 25 (eviction).
        assert episode.area == 25 - 12

    def test_flows_mirror_episode(self):
        sink = LedgerSink()
        sink.record(Coupling(access=1, set_index=3, giver=7,
                             global_access=1))
        sink.record(Spill(access=2, set_index=3, giver=7, global_access=2))
        sink.record(CoopHit(access=5, set_index=3, giver=7,
                            global_access=5))
        sink.record(Decoupling(access=9, set_index=3, giver=7,
                               reason="giver_drained", global_access=9))
        ledger = sink.seal(final_accesses=9, final_hits=4)

        area = ledger.coupling_episodes[0].area
        assert area == 9 - 2
        assert ledger.flows[7]["lent"] == area
        assert ledger.flows[3]["borrowed"] == area
        assert ledger.flows[3]["spills_out"] == 1
        assert ledger.flows[7]["spills_in"] == 1
        assert ledger.flows[3]["coop_hits"] == 1
        assert ledger.totals["lent"] == ledger.totals["borrowed"] == area

    def test_open_episode_closed_at_seal(self):
        sink = LedgerSink()
        sink.record(Coupling(access=5, set_index=2, giver=6,
                             global_access=5))
        sink.record(Spill(access=8, set_index=2, giver=6, global_access=8))
        ledger = sink.seal(final_accesses=50, final_hits=0, final_clock=20)

        episode = ledger.coupling_episodes[0]
        assert episode.reason == OPEN_AT_SEAL
        assert episode.end == 20
        # The spilled block never drained: it is residual capacity.
        assert episode.residual_blocks == 1
        assert episode.area == (20 - 8) * 1
        assert ledger.totals["lent"] == ledger.totals["borrowed"]

    def test_recoupling_supersedes_stale_episode(self):
        sink = LedgerSink()
        sink.record(Coupling(access=1, set_index=3, giver=7,
                             global_access=1))
        # Same taker couples again without an intervening Decoupling.
        sink.record(Coupling(access=5, set_index=3, giver=9,
                             global_access=5))
        ledger = sink.seal(final_accesses=10, final_hits=0)

        assert [e.reason for e in ledger.coupling_episodes] == [
            SUPERSEDED, OPEN_AT_SEAL,
        ]
        assert ledger.coupling_episodes[0].giver == 7
        assert ledger.coupling_episodes[0].end == 5


class TestOrphans:
    def test_unmatched_events_become_orphans(self):
        sink = LedgerSink()
        sink.record(Spill(access=1, set_index=3, giver=7, global_access=1))
        sink.record(CoopHit(access=2, set_index=3, giver=7,
                            global_access=2))
        sink.record(Decoupling(access=3, set_index=3, giver=7,
                               global_access=3))
        sink.record(Eviction(access=4, set_index=7, cooperative=True,
                             global_access=4))
        ledger = sink.seal(final_accesses=4, final_hits=0)

        assert ledger.totals["orphan_spills"] == 1
        assert ledger.totals["orphan_coop_hits"] == 1
        assert ledger.totals["orphan_decouplings"] == 1
        assert ledger.totals["orphan_evictions"] == 1
        assert ledger.coupling_episodes == []
        assert ledger.totals["lent"] == ledger.totals["borrowed"] == 0

    def test_decoupling_with_wrong_giver_is_orphaned(self):
        sink = LedgerSink()
        sink.record(Coupling(access=1, set_index=3, giver=7,
                             global_access=1))
        sink.record(Decoupling(access=4, set_index=3, giver=9,
                               global_access=4))
        ledger = sink.seal(final_accesses=4, final_hits=0)

        assert ledger.totals["orphan_decouplings"] == 1
        # The real pairing stayed open until seal.
        assert ledger.coupling_episodes[0].reason == OPEN_AT_SEAL

    def test_non_cooperative_evictions_ignored(self):
        sink = LedgerSink()
        sink.record(Eviction(access=1, set_index=5, cooperative=False,
                             global_access=1))
        ledger = sink.seal(final_accesses=1, final_hits=0)
        assert ledger.totals["orphan_evictions"] == 0
        assert ledger.events_seen == 1


class TestSwapWindows:
    def test_windows_resolved_against_neighbours_and_seal(self):
        sink = LedgerSink()
        sink.record(PolicySwap(access=100, set_index=9, mode="BIP",
                               hits=40, global_access=100))
        sink.record(PolicySwap(access=200, set_index=9, mode="LRU",
                               hits=90, global_access=200))
        ledger = sink.seal(final_accesses=300, final_hits=140)

        first, second = ledger.swap_episodes
        assert first.hit_rate_before == pytest.approx(40 / 100)
        assert first.hit_rate_after == pytest.approx(50 / 100)
        assert second.hit_rate_before == pytest.approx(50 / 100)
        assert second.hit_rate_after == pytest.approx(50 / 100)

    def test_windows_independent_per_set(self):
        sink = LedgerSink()
        sink.record(PolicySwap(access=100, set_index=1, mode="BIP",
                               hits=10, global_access=100))
        sink.record(PolicySwap(access=150, set_index=2, mode="BIP",
                               hits=30, global_access=150))
        ledger = sink.seal(final_accesses=200, final_hits=80)

        by_set = {swap.set_index: swap for swap in ledger.swap_episodes}
        assert by_set[1].hit_rate_before == pytest.approx(10 / 100)
        assert by_set[2].hit_rate_before == pytest.approx(30 / 150)

    def test_rewound_snapshots_yield_no_rate(self):
        # reset_stats() inside a window rewinds (access, hits); the
        # ledger must refuse to report a rate over such a window.
        sink = LedgerSink()
        sink.record(PolicySwap(access=50, set_index=4, mode="BIP",
                               hits=20, global_access=50))
        sink.record(PolicySwap(access=10, set_index=4, mode="LRU",
                               hits=2, global_access=90))
        ledger = sink.seal(final_accesses=5, final_hits=1)

        first, second = ledger.swap_episodes
        assert first.hit_rate_after is None
        assert second.hit_rate_before is None
        assert second.hit_rate_after is None


class TestBoundsAndGuards:
    def test_episode_cap_drops_detail_not_counts(self):
        sink = LedgerSink(episode_cap=1)
        for start in (1, 10, 20):
            sink.record(Coupling(access=start, set_index=3, giver=7,
                                 global_access=start))
            sink.record(Decoupling(access=start + 5, set_index=3, giver=7,
                                   reason="role_change",
                                   global_access=start + 5))
        ledger = sink.seal(final_accesses=30, final_hits=0)

        assert len(ledger.coupling_episodes) == 1
        assert ledger.episodes_dropped == 2
        assert ledger.totals["coupling_events"] == 3
        assert ledger.summary()["coupling_episodes"] == 3

    def test_swap_cap_drops_detail_not_counts(self):
        sink = LedgerSink(episode_cap=1)
        sink.record(PolicySwap(access=10, set_index=1, mode="BIP",
                               hits=1, global_access=10))
        sink.record(PolicySwap(access=20, set_index=1, mode="LRU",
                               hits=2, global_access=20))
        ledger = sink.seal(final_accesses=30, final_hits=3)

        assert len(ledger.swap_episodes) == 1
        assert ledger.swaps_dropped == 1
        assert ledger.summary()["policy_swaps"] == 2

    def test_invalid_cap_rejected(self):
        with pytest.raises(ConfigError):
            LedgerSink(episode_cap=0)

    def test_record_after_seal_rejected(self):
        sink = LedgerSink()
        sink.seal(final_accesses=0, final_hits=0)
        with pytest.raises(ConfigError, match="sealed"):
            sink.record(Coupling(access=1, set_index=0, giver=1,
                                 global_access=1))

    @pytest.mark.parametrize("method, fields", [
        ("spill", (1, 3, 1, 7, 0, False)),
        ("coop_hit", (1, 3, 1, 7)),
        ("eviction", (1, 7, 1, 0, False, True)),
    ])
    def test_fields_after_seal_rejected(self, method, fields):
        sink = LedgerSink()
        sink.seal(final_accesses=0, final_hits=0)
        with pytest.raises(ConfigError, match="LedgerSink is sealed"):
            getattr(sink, method)(*fields)

    def test_double_seal_rejected(self):
        sink = LedgerSink()
        sink.seal(final_accesses=0, final_hits=0)
        with pytest.raises(ConfigError, match="sealed"):
            sink.seal(final_accesses=0, final_hits=0)


class CapacityFlowSpy:
    """A capacity-flow sink that keeps what the tracer sends it.

    Spills, cooperative hits and cooperative evictions arrive as
    fields; the spy rebuilds each event from them, in arrival order.
    """

    reads_every_event = False

    def __init__(self):
        self.events = []
        self.skipped = 0

    def record(self, event):
        self.events.append(event)

    def spill(self, *fields):
        self.events.append(Spill(*fields))

    def coop_hit(self, *fields):
        self.events.append(CoopHit(*fields))

    def eviction(self, *fields):
        self.events.append(Eviction(*fields))

    def skip(self, count):
        self.skipped += count


class TestCapacityFlowSinks:
    def test_tracer_is_full_only_with_a_full_sink(self):
        tracer = Tracer(LedgerSink())
        assert tracer.enabled and not tracer.full
        tracer.add_sink(RingBufferSink())
        assert tracer.full

    @pytest.mark.parametrize("scheme", PAPER_SCHEMES)
    def test_unread_events_are_counted_not_built(self, scheme):
        """Without a full sink only capacity-flow events are built.

        They are the events a full sink receives, in the same order
        and with the same snapshots; every other event is counted.
        """
        trace = make_benchmark_trace("omnetpp", num_sets=64,
                                     length=20_000)
        ring = RingBufferSink()
        full = Tracer(ring)
        run_trace(make_scheme(scheme, GEOMETRY, tracer=full), trace)
        spy = CapacityFlowSpy()
        partial = Tracer(spy)
        run_trace(make_scheme(scheme, GEOMETRY, tracer=partial), trace)

        assert spy.events == [e for e in ring.events if is_capacity_flow(e)]
        assert len(spy.events) + spy.skipped == len(ring.events)
        assert partial.events_emitted == full.events_emitted

    def test_skip_after_seal_rejected(self):
        sink = LedgerSink()
        sink.seal(final_accesses=0, final_hits=0)
        with pytest.raises(ConfigError, match="sealed"):
            sink.skip(1)


class TestLedgerUnderAFullSink:
    """A ledger keeps the same books whether or not a full sink rides along.

    A :class:`RingBufferSink` makes the tracer full, so every event is
    built and the ledger reads it through ``record``; without one the
    ledger receives only what the capacity-flow tracepoints send it.
    """

    @staticmethod
    def _books(build):
        """The ledger ``build(tracer)``'s run seals, plain and full."""
        books = []
        for tracer in (None, Tracer(RingBufferSink())):
            books.append(build(tracer).ledger.as_dict())
        return books

    @pytest.mark.parametrize("workload", ["omnetpp", "mcf", "vpr"])
    @pytest.mark.parametrize("scheme", PAPER_SCHEMES)
    def test_paper_schemes(self, scheme, workload):
        trace = make_benchmark_trace(workload, num_sets=64, length=20_000)
        plain, full = self._books(lambda tracer: run_trace(
            make_scheme(scheme, GEOMETRY, tracer=tracer), trace,
            ledger=True,
        ))
        assert plain == full
        assert plain["events_seen"] > 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("plan", ["association:20",
                                      "association:5,heap:5"])
    def test_stem_safe_mode_under_faults(self, plan, seed):
        trace = make_benchmark_trace("mcf", num_sets=64, length=20_000)

        def build(tracer):
            cache = make_scheme("STEM", GEOMETRY, seed=seed, tracer=tracer,
                                config=StemConfig(safe_mode=True))
            injector = FaultInjector(FaultPlan.parse(plan), len(trace),
                                     seed=seed)
            return run_trace(InjectingCache(cache, injector), trace,
                             ledger=True)

        plain, full = self._books(build)
        assert plain == full
        assert plain["totals"]["coupling_events"] > 0


def _drive(cache, addresses):
    for address in addresses:
        cache.access(address)


class TestUnreadCount:
    """Unread events are counted inline and reach sinks at a flush."""

    @pytest.mark.parametrize("scheme", PAPER_SCHEMES)
    def test_emitted_is_built_plus_unread_before_a_flush(self, scheme):
        trace = make_benchmark_trace("omnetpp", num_sets=64, length=8_000)
        spy = CapacityFlowSpy()
        tracer = Tracer(spy)
        cache = make_scheme(scheme, GEOMETRY, tracer=tracer)
        set_indices, tags = trace.precompute_geometry(cache.mapper)
        half = len(trace) // 2
        _drive(cache, trace.addresses[:half])
        cache.access_batch(trace.addresses, set_indices, tags, None,
                           half, len(trace))
        assert tracer.unread > 0
        assert spy.skipped == 0
        assert tracer.events_emitted == len(spy.events) + tracer.unread

    def test_flush_and_close_deliver_the_pending_count(self):
        trace = make_benchmark_trace("mcf", num_sets=64, length=8_000)
        spy = CapacityFlowSpy()
        tracer = Tracer(spy)
        cache = make_scheme("STEM", GEOMETRY, tracer=tracer)
        half = len(trace) // 2
        _drive(cache, trace.addresses[:half])
        pending = tracer.unread
        emitted = tracer.events_emitted
        tracer.flush()
        assert spy.skipped == pending > 0
        assert tracer.unread == 0
        assert tracer.events_emitted == emitted
        tracer.flush()
        assert spy.skipped == pending
        _drive(cache, trace.addresses[half:])
        later = tracer.unread
        assert later > 0
        tracer.close()
        assert spy.skipped == pending + later
        assert tracer.unread == 0
        assert len(spy.events) + spy.skipped == tracer.events_emitted

    def test_sink_added_mid_run_gets_no_earlier_counts(self):
        trace = make_benchmark_trace("mcf", num_sets=64, length=8_000)
        early, late = CapacityFlowSpy(), CapacityFlowSpy()
        tracer = Tracer(early)
        cache = make_scheme("SBC", GEOMETRY, tracer=tracer)
        half = len(trace) // 2
        _drive(cache, trace.addresses[:half])
        before = tracer.unread
        assert before > 0
        tracer.add_sink(late)
        assert early.skipped == before
        assert late.skipped == 0
        _drive(cache, trace.addresses[half:])
        after = tracer.unread
        tracer.flush()
        assert late.skipped == after > 0
        assert early.skipped == before + after
        assert len(early.events) + early.skipped == tracer.events_emitted

    @pytest.mark.parametrize("scheme", PAPER_SCHEMES)
    def test_full_tracer_never_counts_unread(self, scheme):
        trace = make_benchmark_trace("omnetpp", num_sets=64, length=8_000)
        spy = CapacityFlowSpy()
        tracer = Tracer(spy)
        cache = make_scheme(scheme, GEOMETRY, tracer=tracer)
        set_indices, tags = trace.precompute_geometry(cache.mapper)
        half = len(trace) // 2
        _drive(cache, trace.addresses[:half])
        built_before = len(spy.events)
        ring = RingBufferSink()
        tracer.add_sink(ring)
        assert tracer.full and tracer.unread == 0
        cache.access_batch(trace.addresses, set_indices, tags, None,
                           half, len(trace))
        assert tracer.unread == 0
        # From the join on, every event is built and both sinks get it.
        assert ring.events and spy.events[built_before:] == ring.events
        assert tracer.events_emitted == len(spy.events) + spy.skipped

    def test_null_tracer_is_never_mutated(self):
        trace = make_benchmark_trace("vpr", num_sets=64, length=8_000)
        for scheme in PAPER_SCHEMES:
            run_trace(make_scheme(scheme, GEOMETRY), trace)
        NULL_TRACER.flush()
        assert NULL_TRACER.unread == 0
        assert NULL_TRACER.events_emitted == 0
        assert not NULL_TRACER.enabled and not NULL_TRACER.full

    def test_one_way_to_count(self):
        assert not hasattr(Tracer(), "skip")


class TestAttach:
    """Attaching a ledger reads no ``__dict__`` of the scheme.

    On CPython 3.11+ reading an instance's ``__dict__`` replaces its
    inline attribute values with a dict for good, which slows every
    attribute load in the access path.  The manifest's ``vars(cache)``
    after the measured phase is allowed.  The tracer the ledger ran on
    is read there too, because sealing the ledger detaches it.
    """

    @staticmethod
    def _watched(scheme, monkeypatch):
        reads = []
        tracers = []
        watching = [True]
        cache = make_scheme(scheme, GEOMETRY, seed=11)

        class Watched(type(cache)):
            def __getattribute__(self, name):
                if name == "__dict__" and watching[0]:
                    reads.append(name)
                return super().__getattribute__(name)

        build = simulator.build_manifest

        def build_after_measuring(*args, **kwargs):
            watching[0] = False
            tracers.append(cache.tracer)
            return build(*args, **kwargs)

        monkeypatch.setattr(simulator, "build_manifest",
                            build_after_measuring)
        cache.__class__ = Watched
        return cache, reads, tracers

    @pytest.mark.parametrize("scheme", ["STEM", "SBC", "V-Way", "LRU"])
    def test_attach_reads_no_dict(self, scheme, monkeypatch):
        cache, reads, tracers = self._watched(scheme, monkeypatch)
        trace = make_benchmark_trace("mcf", num_sets=64, length=4_000)
        result = run_trace(cache, trace, warmup_fraction=0.0, ledger=True)
        assert reads == []
        tracer, = tracers
        assert tracer is not NULL_TRACER
        assert tracer.enabled and not tracer.full
        assert result.ledger.events_seen == tracer.events_emitted > 0
        assert cache.tracer is NULL_TRACER

    def test_attach_through_injecting_cache_reads_no_dict(
        self, monkeypatch
    ):
        cache, reads, tracers = self._watched("STEM", monkeypatch)
        trace = make_benchmark_trace("mcf", num_sets=64, length=4_000)
        injector = FaultInjector(FaultPlan.parse("sc_s:2"), len(trace),
                                 seed=11)
        wrapper = InjectingCache(cache, injector)
        result = run_trace(wrapper, trace, warmup_fraction=0.0, ledger=True)
        assert reads == []
        # The sink landed on the inner cache's tracer, not the wrapper.
        assert "tracer" not in vars(wrapper)
        tracer, = tracers
        assert tracer is not NULL_TRACER and tracer.enabled
        assert result.ledger.events_seen == tracer.events_emitted > 0
        assert cache.tracer is NULL_TRACER


class TestRunAgain:
    """A cache runs again after a ledgered run, with or without one.

    Sealing the ledger detaches it: a plain cache gets its disabled
    tracer back, and a caller's tracer keeps its own sinks.
    """

    #: Manifest fields that vary between runs of the same cell.
    TIMINGS = ("warmup_seconds", "measured_seconds")

    @classmethod
    def _second_run(cls, scheme, first_ledger, second_ledger):
        trace = make_benchmark_trace("mcf", num_sets=64, length=5_000)
        cache = make_scheme(scheme, GEOMETRY, seed=11)
        run_trace(cache, trace, ledger=first_ledger)
        payload = result_to_dict(run_trace(cache, trace,
                                           ledger=second_ledger))
        for name in cls.TIMINGS:
            del payload["manifest"][name]
        return json.dumps(payload, sort_keys=True), cache.tracer

    @pytest.mark.parametrize("second_ledger", [True, False])
    @pytest.mark.parametrize("scheme", ["LRU", "SBC", "STEM"])
    def test_second_run_as_after_a_plain_one(self, scheme, second_ledger):
        after_ledger, tracer = self._second_run(scheme, True, second_ledger)
        after_plain, _ = self._second_run(scheme, False, second_ledger)
        assert after_ledger == after_plain
        assert tracer is NULL_TRACER

    @pytest.mark.parametrize("scheme", ["LRU", "SBC", "STEM"])
    def test_callers_tracer_keeps_its_sinks(self, scheme):
        trace = make_benchmark_trace("mcf", num_sets=64, length=5_000)
        streams = []
        for first_ledger in (True, False):
            sink = RingBufferSink()
            tracer = Tracer(sink)
            cache = make_scheme(scheme, GEOMETRY, seed=11, tracer=tracer)
            run_trace(cache, trace, ledger=first_ledger)
            run_trace(cache, trace)
            assert cache.tracer is tracer and tracer.full
            streams.append((
                [event.as_dict() for event in sink.events],
                tracer.events_emitted,
            ))
        assert streams[0] == streams[1]
        assert streams[0][1] > 0

    def test_failed_run_detaches_too(self):
        trace = make_benchmark_trace("mcf", num_sets=64, length=20_000)
        cache = make_scheme("STEM", GEOMETRY, seed=11)
        with pytest.raises(WatchdogTimeout):
            run_trace(cache, trace, ledger=True, deadline_seconds=1e-9)
        assert cache.tracer is NULL_TRACER


class TestConservation:
    def test_tampered_lent_total_raises(self):
        # The lent/borrowed cross-check is live: knock the incremental
        # integral out of step and seal() must refuse to balance.
        sink = LedgerSink()
        sink.record(Coupling(access=1, set_index=3, giver=7,
                             global_access=1))
        sink.record(Decoupling(access=5, set_index=3, giver=7,
                               reason="role_change", global_access=5))
        sink._lent_total += 1
        with pytest.raises(InvariantViolation, match="conservation"):
            sink.seal(final_accesses=5, final_hits=0)

    def test_tampered_spill_count_raises(self):
        sink = LedgerSink()
        sink.record(Coupling(access=1, set_index=3, giver=7,
                             global_access=1))
        sink.record(Spill(access=2, set_index=3, giver=7, global_access=2))
        sink._spill_events += 1
        with pytest.raises(InvariantViolation, match="spill conservation"):
            sink.seal(final_accesses=5, final_hits=0)


class TestLedgerSerialization:
    def _sample_ledger(self):
        sink = LedgerSink()
        sink.record(Coupling(access=1, set_index=3, giver=7,
                             global_access=1))
        sink.record(Spill(access=2, set_index=3, giver=7, global_access=2))
        sink.record(PolicySwap(access=4, set_index=9, mode="BIP",
                               hits=2, global_access=4))
        sink.record(Decoupling(access=6, set_index=3, giver=7,
                               reason="giver_drained", global_access=6))
        return sink.seal(
            final_accesses=10, final_hits=5,
            counters={"hits": [1, 2], "cooperative_hits": [0, 1]},
        )

    def test_round_trip_through_json(self):
        ledger = self._sample_ledger()
        payload = json.loads(json.dumps(ledger.as_dict()))
        rebuilt = RunLedger.from_dict(payload)
        assert rebuilt.as_dict() == ledger.as_dict()
        assert rebuilt.flows[7]["lent"] == ledger.flows[7]["lent"]

    def test_malformed_payload_rejected(self):
        with pytest.raises(ConfigError, match="malformed ledger payload"):
            RunLedger.from_dict({"coupling_episodes": 3})


# ----------------------------------------------------------------------
# Real runs
# ----------------------------------------------------------------------

class TestStemLedger:
    def test_conservation_against_stats(self, stem_run):
        ledger = stem_run.ledger
        assert ledger is not None
        # Capacity flow balances...
        assert ledger.totals["lent"] == ledger.totals["borrowed"]
        assert ledger.totals["lent"] > 0
        # ...and the event totals agree with the simulator's counters
        # (warmup_fraction=0.0, so no events predate the window).
        assert ledger.totals["spill_events"] == stem_run.stats.spills
        assert (ledger.totals["coop_hit_events"]
                == stem_run.stats.cooperative_hits)
        # An intact stream has no orphans.
        for key in ("orphan_spills", "orphan_coop_hits",
                    "orphan_decouplings", "orphan_evictions"):
            assert ledger.totals[key] == 0

    def test_counters_sum_to_stats(self, stem_run):
        counters = stem_run.ledger.counters
        assert counters is not None
        assert sum(counters["hits"]) == stem_run.stats.hits
        assert (sum(counters["cooperative_hits"])
                == stem_run.stats.cooperative_hits)
        assert len(counters["hits"]) == GEOMETRY.num_sets

    def test_every_episode_closed_with_known_reason(self, stem_run):
        ledger = stem_run.ledger
        assert ledger.coupling_episodes
        for episode in ledger.coupling_episodes:
            assert episode.end is not None
            assert episode.reason in KNOWN_REASONS
        assert (len(ledger.coupling_episodes) + ledger.episodes_dropped
                == ledger.totals["coupling_events"])

    def test_episodes_sorted_for_stable_bytes(self, stem_run):
        episodes = stem_run.ledger.coupling_episodes
        keys = [(e.start, e.taker, e.giver) for e in episodes]
        assert keys == sorted(keys)

    def test_faulted_run_still_seals(self):
        # Fault injection corrupts the association table mid-run; safe
        # mode repairs the structural damage, the ledger absorbs the
        # resulting mismatched events as orphans, and conservation
        # still holds at seal.
        trace = make_benchmark_trace("mcf", num_sets=64, length=30_000)
        cache = make_scheme(
            "STEM", GEOMETRY, seed=11, config=StemConfig(safe_mode=True)
        )
        plan = FaultPlan.parse("association:2,sc_s:2")
        injector = FaultInjector(plan, len(trace), seed=11)
        result = run_trace(
            InjectingCache(cache, injector), trace,
            warmup_fraction=0.0, ledger=True,
        )
        ledger = result.ledger
        assert ledger is not None
        assert ledger.totals["lent"] == ledger.totals["borrowed"]
        for episode in ledger.coupling_episodes:
            assert episode.reason in KNOWN_REASONS


class TestAttribution:
    def test_components_sum_exactly(self, stem_run, lru_run):
        att = attribute(lru_run, stem_run)
        assert att.total_delta_hits == (
            stem_run.stats.hits - lru_run.stats.hits
        )
        assert att.spatial + att.temporal + att.residual \
            == att.total_delta_hits
        assert att.spatial == (
            stem_run.stats.cooperative_hits
            - lru_run.stats.cooperative_hits
        )

    def test_per_set_rows_sum_to_global(self, stem_run, lru_run):
        att = attribute(lru_run, stem_run)
        assert att.sets
        for row in att.sets:
            assert row.spatial + row.temporal + row.residual \
                == row.delta_hits
        assert sum(row.delta_hits for row in att.sets) \
            == att.total_delta_hits
        assert sum(row.spatial for row in att.sets) == att.spatial
        assert sum(row.temporal for row in att.sets) == att.temporal

    def test_byte_stable_across_repeated_runs(self, lru_run):
        first = _ledgered("STEM", length=12_000)
        second = _ledgered("STEM", length=12_000)
        base = _ledgered("LRU", length=12_000)
        dumps = lambda att: json.dumps(att.as_dict(), sort_keys=True)  # noqa: E731
        assert dumps(attribute(base, first)) \
            == dumps(attribute(base, second))
        assert first.ledger.as_dict() == second.ledger.as_dict()

    def test_ledgerless_runs_degrade_with_notes(self):
        trace = make_benchmark_trace("mcf", num_sets=64, length=12_000)
        a = run_trace(make_scheme("LRU", GEOMETRY), trace,
                      warmup_fraction=0.0)
        b = run_trace(make_scheme("STEM", GEOMETRY), trace,
                      warmup_fraction=0.0)
        att = attribute(a, b)
        assert att.temporal == 0
        assert att.sets == []
        assert any("ledger" in note for note in att.notes)
        # The exactness contract survives the degradation.
        assert att.spatial + att.temporal + att.residual \
            == att.total_delta_hits

    def test_saved_run_round_trip(self, tmp_path, stem_run, lru_run):
        path = tmp_path / "stem.json"
        save_run(path, stem_run)
        loaded = load_run(path)
        assert loaded.ledger is not None
        assert loaded.ledger.as_dict() == stem_run.ledger.as_dict()
        assert attribute(lru_run, loaded).as_dict() \
            == attribute(lru_run, stem_run).as_dict()

    def test_explain_html_self_contained(self, stem_run, lru_run):
        att = attribute(lru_run, stem_run)
        html = explain_to_html(att)
        assert html == explain_to_html(att)
        assert "spatial" in html
        assert "http" not in html.lower()

    def test_render_lists_top_sets(self, stem_run, lru_run):
        rendered = attribute(lru_run, stem_run).render(top_k=4)
        assert "explain:" in rendered
        assert "observed class:" in rendered
        assert "diverging sets" in rendered


class TestSerialParallelParity:
    def test_ledgers_identical_across_workers(self):
        scale = ExperimentScale(
            num_sets=64, associativity=16, trace_length=12_000,
            warmup_fraction=0.0,
        )
        traces = [make_benchmark_trace("mcf", num_sets=64, length=12_000)]
        serial = run_matrix(traces, ("LRU", "STEM"), scale=scale,
                            seed=5, ledger=True, max_workers=1)
        parallel = run_matrix(traces, ("LRU", "STEM"), scale=scale,
                              seed=5, ledger=True, max_workers=2)
        for scheme in ("LRU", "STEM"):
            led_s = serial.ledger_for("mcf", scheme)
            led_p = parallel.ledger_for("mcf", scheme)
            assert led_s is not None and led_p is not None
            assert json.dumps(led_s.as_dict(), sort_keys=True) \
                == json.dumps(led_p.as_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestExplainCommand:
    ARGS = ["--benchmark", "mcf", "--sets", "32", "--length", "8000"]

    def test_text_report(self, capsys):
        assert main(["explain", "LRU", "STEM"] + self.ARGS) == 0
        output = capsys.readouterr().out
        assert "explain:" in output
        assert "spatial" in output

    def test_json_byte_stable(self, tmp_path, capsys):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(["explain", "LRU", "STEM", "--json", str(first)]
                    + self.ARGS) == 0
        assert main(["explain", "LRU", "STEM", "--json", str(second)]
                    + self.ARGS) == 0
        assert first.read_bytes() == second.read_bytes()
        payload = json.loads(first.read_text())
        assert payload["total_delta_hits"] == (
            payload["spatial"] + payload["temporal"] + payload["residual"]
        )

    def test_html_out(self, tmp_path, capsys):
        out = tmp_path / "explain.html"
        assert main(["explain", "LRU", "STEM", "--out", str(out)]
                    + self.ARGS) == 0
        html = out.read_text()
        assert "<html" in html
        assert "http" not in html.lower()

    def test_saved_run_operands(self, tmp_path, capsys, stem_run, lru_run):
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        save_run(path_a, lru_run)
        save_run(path_b, stem_run)
        assert main(["explain", str(path_a), str(path_b)]) == 0
        assert "observed class:" in capsys.readouterr().out


class TestTraceKinds:
    ARGS = ["--sets", "32", "--length", "8000"]

    def test_jsonl_filtered_to_named_kinds(self, tmp_path, capsys):
        log = tmp_path / "events.jsonl"
        code = main([
            "trace", "STEM", "mcf", "--events", str(log),
            "--kinds", "spill,coupling",
        ] + self.ARGS)
        assert code == 0
        assert "kinds filter" in capsys.readouterr().out
        kinds = {
            json.loads(line)["kind"]
            for line in log.read_text().splitlines() if line
        }
        assert kinds
        assert kinds <= {"spill", "coupling"}

    def test_unknown_kind_rejected(self, capsys):
        code = main([
            "trace", "STEM", "mcf", "--kinds", "warp_drive",
        ] + self.ARGS)
        assert code == 2
        assert "unknown event kind" in capsys.readouterr().err
