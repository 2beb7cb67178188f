"""Tests for the parallel grid engine, batch fast path, and run cache."""

import pytest

import repro.sim.config as sim_config
from repro.cache.geometry import CacheGeometry
from repro.common.errors import ConfigError, SimulationError
from repro.obs import RingBufferSink, Tracer
from repro.obs.ledger import LedgerSink
from repro.sim.cache import RunCache, result_from_dict, result_to_dict
from repro.sim.config import ExperimentScale, make_scheme
from repro.sim.options import RunOptions
from repro.sim.parallel import (
    CellSpec,
    ParallelRunner,
    cell_cache_key,
    ordered_map,
)
from repro.sim.runner import associativity_sweep, run_benchmarks, run_matrix
from repro.sim.simulator import run_trace
from repro.obs.profile import RunProfiler
from repro.workloads.spec_like import make_benchmark_trace
from tests.test_scheme_pins import SCHEMES as PINNED_SCHEMES

SCALE = ExperimentScale(num_sets=64, associativity=16, trace_length=20_000)


def small_trace(name="omnetpp", length=8_000, write_fraction=0.0):
    return make_benchmark_trace(
        name, num_sets=64, length=length, write_fraction=write_fraction
    )


def _poisoned_factory(geometry, seed=0xACE1, tracer=None, **kwargs):
    raise SimulationError(f"poisoned cell (seed {seed})")


def _matrix_fingerprint(matrix):
    """Everything observable about a matrix except wall-clock floats."""
    cells = {}
    for workload in matrix.workloads:
        for scheme in matrix.schemes:
            if matrix.failure_for(workload, scheme) is not None:
                continue
            result = matrix.get(workload, scheme)
            cells[(workload, scheme)] = (
                result.stats.as_dict(),
                result.metrics,
                result.manifest.content_hash if result.manifest else None,
            )
    failures = [
        (f.scheme, f.workload, f.error_type, f.attempts, f.seeds)
        for f in matrix.failures
    ]
    return (matrix.schemes, matrix.workloads, cells, failures)


# ----------------------------------------------------------------------
# Batch fast path == scalar access path, access for access
# ----------------------------------------------------------------------

BATCHED_SCHEMES = [
    "lru", "lip", "bip", "dip", "fifo", "random",
    "nru", "srrip", "drrip", "pelifo", "vway", "sbc", "stem",
]

#: Sinks attached to both caches: none, the ledger alone (it reads only
#: capacity-flow events), and the ledger plus a sink reading every event.
OBSERVERS = ("none", "ledger", "ledger+ring")

BATCH_CELLS = [
    pytest.param(
        scheme, observers,
        id=scheme if observers == "none" else f"{scheme}-{observers}",
    )
    for observers in OBSERVERS for scheme in BATCHED_SCHEMES
]


def _observed_scheme(scheme, observers):
    ledger = LedgerSink() if observers != "none" else None
    ring = RingBufferSink() if observers == "ledger+ring" else None
    sinks = [sink for sink in (ledger, ring) if sink is not None]
    tracer = Tracer(*sinks) if sinks else None
    cache = make_scheme(scheme, SCALE.geometry(), seed=7, tracer=tracer)
    return cache, ledger, ring


#: STEM's ablation configs, named as in the scheme pins.
STEM_ABLATIONS = {
    case: kwargs["config"] for case, (scheme, kwargs) in PINNED_SCHEMES.items()
    if case.startswith("stem-")
}


def _stem_snapshot(cache):
    """Stats, LFSR state, resident blocks, every set's SCDM state, policy
    mode and role, and the giver heap."""
    sets = range(cache.geometry.num_sets)
    return (
        cache.stats.as_dict(),
        cache.rng.state,
        [cache.resident_blocks(s) for s in sets],
        [cache.shadow_entries(s) for s in sets],
        list(cache.sc_s),
        list(cache.sc_t),
        [cache.policy_mode_of(s) for s in sets],
        [cache.role_of(s) for s in sets],
        cache.heap.entries(),
    )


def _sealed(cache, ledger):
    stats = cache.stats
    counters = getattr(cache, "ledger_counters", None)
    return ledger.seal(
        final_accesses=stats.accesses, final_hits=stats.hits,
        counters=counters() if counters is not None else None,
    ).as_dict()


class TestBatchExactness:
    @pytest.mark.parametrize("scheme,observers", BATCH_CELLS)
    def test_batch_matches_scalar(self, scheme, observers):
        trace = small_trace("omnetpp", 6_000, write_fraction=0.3)
        scalar, scalar_ledger, scalar_ring = _observed_scheme(
            scheme, observers
        )
        batched, batched_ledger, batched_ring = _observed_scheme(
            scheme, observers
        )
        batch = getattr(batched, "access_batch", None)
        assert batch is not None, f"{scheme} lost its batch path"

        for address, write in zip(trace.addresses, trace.writes):
            scalar.access(address, bool(write))
        set_indices, tags = trace.precompute_geometry(batched.mapper)
        batch(trace.addresses, set_indices, tags, trace.writes,
              0, len(trace.addresses))

        assert batched.stats.as_dict() == scalar.stats.as_dict()
        if hasattr(scalar, "rng") and hasattr(batched, "rng"):
            assert batched.rng.state == scalar.rng.state
        if hasattr(scalar, "ledger_counters"):
            assert batched.ledger_counters() == scalar.ledger_counters()
        assert batched.tracer.events_emitted == scalar.tracer.events_emitted
        if scalar_ledger is not None:
            assert _sealed(batched, batched_ledger) == \
                _sealed(scalar, scalar_ledger)
        if scalar_ring is not None:
            assert batched_ring.events == scalar_ring.events

    @pytest.mark.parametrize("case", sorted(STEM_ABLATIONS))
    @pytest.mark.parametrize("workload", ["omnetpp", "vpr"])
    def test_stem_ablation_batch_matches_scalar(self, workload, case):
        # The batch loop's spatial, ratio and throttle branches differ
        # per config; each must leave the scalar path's SCDM state.
        # omnetpp thrashes a 16 x 4 cache (takers, couplings, swaps);
        # vpr mostly hits, with givers posting to the heap.
        geometry = CacheGeometry(num_sets=16, associativity=4)
        trace = make_benchmark_trace(workload, num_sets=16, length=6_000,
                                     write_fraction=0.3)
        config = STEM_ABLATIONS[case]
        scalar = make_scheme("stem", geometry, seed=7, config=config)
        batched = make_scheme("stem", geometry, seed=7, config=config)
        for address, write in zip(trace.addresses, trace.writes):
            scalar.access(address, bool(write))
        set_indices, tags = trace.precompute_geometry(batched.mapper)
        batched.access_batch(trace.addresses, set_indices, tags,
                             trace.writes, 0, len(trace.addresses))
        assert _stem_snapshot(batched) == _stem_snapshot(scalar)

    @pytest.mark.parametrize("scheme", ["stem", "sbc", "vway", "pelifo",
                                        "dip"])
    def test_batch_split_matches_whole(self, scheme):
        # Flushing mid-stream (warm-up boundary) must not change counts;
        # PeLIFO's epoch count must carry across the chunk boundaries.
        trace = small_trace("mcf", 5_000)
        whole = make_scheme(scheme, SCALE.geometry(), seed=3)
        split = make_scheme(scheme, SCALE.geometry(), seed=3)
        set_indices, tags = trace.precompute_geometry(whole.mapper)
        n = len(trace.addresses)
        whole.access_batch(trace.addresses, set_indices, tags,
                           trace.writes, 0, n)
        for start, stop in ((0, n // 3), (n // 3, n // 2), (n // 2, n)):
            split.access_batch(trace.addresses, set_indices, tags,
                               trace.writes, start, stop)
        assert split.stats.as_dict() == whole.stats.as_dict()
        assert split.rng.state == whole.rng.state
        for set_index in range(SCALE.num_sets):
            assert split.resident_blocks(set_index) == \
                whole.resident_blocks(set_index)


# ----------------------------------------------------------------------
# Serial vs parallel equivalence
# ----------------------------------------------------------------------

class TestParallelEquivalence:
    def test_poisoned_grid_identical_across_worker_counts(self, monkeypatch):
        monkeypatch.setitem(
            sim_config._SCHEME_FACTORIES, "boom", _poisoned_factory
        )
        monkeypatch.setitem(sim_config._DISPLAY_NAMES, "boom", "BOOM")
        traces = [small_trace("omnetpp", 4_000), small_trace("vpr", 4_000)]
        schemes = ["lru", "boom", "stem"]
        serial = run_matrix(traces, schemes, scale=SCALE, seed=5)
        reference = _matrix_fingerprint(serial)
        assert len(serial.failures) == 2
        for workers in (1, 4):
            parallel = run_matrix(
                traces, schemes, scale=SCALE, seed=5, max_workers=workers
            )
            assert _matrix_fingerprint(parallel) == reference

    def test_sweep_parallel_matches_serial(self):
        trace = small_trace("vpr", 4_000)
        serial = associativity_sweep(
            trace, ["lru", "dip"], [4, 8], scale=SCALE, seed=9
        )
        parallel = associativity_sweep(
            trace, ["lru", "dip"], [4, 8], scale=SCALE, seed=9,
            max_workers=4,
        )
        for scheme in serial:
            serial_hashes = [
                r.manifest.content_hash for r in serial[scheme]
            ]
            parallel_hashes = [
                r.manifest.content_hash for r in parallel[scheme]
            ]
            assert parallel_hashes == serial_hashes
            assert [r.mpki for r in parallel[scheme]] == \
                [r.mpki for r in serial[scheme]]

    def test_profiler_merges_in_canonical_order(self):
        profiler = RunProfiler()
        run_benchmarks(
            ["lru", "stem"], benchmarks=["vpr", "omnetpp"], scale=SCALE,
            profiler=profiler, max_workers=4,
        )
        observed = [(r.trace_name, r.scheme) for r in profiler.records]
        assert observed == [
            ("vpr", "LRU"), ("vpr", "STEM"),
            ("omnetpp", "LRU"), ("omnetpp", "STEM"),
        ]

    def test_run_benchmarks_parallel_matches_serial(self):
        # max_workers fans out the trace synthesis as well as the cells.
        kwargs = dict(
            benchmarks=["vpr", "mcf", "omnetpp"],
            scale=ExperimentScale(
                num_sets=64, associativity=16, trace_length=4_000
            ),
            seed=3,
        )
        serial = run_benchmarks(["lru", "stem"], **kwargs)
        parallel = run_benchmarks(["lru", "stem"], max_workers=2, **kwargs)
        assert _matrix_fingerprint(parallel) == _matrix_fingerprint(serial)
        assert serial.workloads == ["vpr", "mcf", "omnetpp"]

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ConfigError, match="max_workers"):
            ParallelRunner(max_workers=0)
        with pytest.raises(ConfigError, match="max_workers"):
            ordered_map(abs, [1], max_workers=0)

    def test_metrics_series_identical_across_worker_counts(
        self, monkeypatch
    ):
        """Windowed series survive the pool byte-for-byte; failed
        cells carry no series."""
        import json

        monkeypatch.setitem(
            sim_config._SCHEME_FACTORIES, "boom", _poisoned_factory
        )
        monkeypatch.setitem(sim_config._DISPLAY_NAMES, "boom", "BOOM")
        traces = [small_trace("omnetpp", 4_000), small_trace("vpr", 4_000)]
        schemes = ["lru", "boom", "stem"]

        def series_fingerprint(matrix):
            table = {}
            for workload in matrix.workloads:
                for scheme in matrix.schemes:
                    series = matrix.series_for(workload, scheme)
                    table[(workload, scheme)] = (
                        json.dumps(series.as_dict(), sort_keys=True)
                        if series is not None else None
                    )
            return table

        serial = run_matrix(
            traces, schemes, scale=SCALE, seed=5, metrics_window=1_000
        )
        reference = series_fingerprint(serial)
        assert len(serial.failures) == 2
        # Successful cells all carry series; poisoned cells (recorded
        # under their CellSpec label, "boom") carry none.
        for (workload, scheme), value in reference.items():
            if scheme == "boom":
                assert value is None
            else:
                assert value is not None, (workload, scheme)
        parallel = run_matrix(
            traces, schemes, scale=SCALE, seed=5, metrics_window=1_000,
            max_workers=4,
        )
        assert series_fingerprint(parallel) == reference
        assert _matrix_fingerprint(parallel) == \
            _matrix_fingerprint(serial)


# ----------------------------------------------------------------------
# Content-addressed run cache
# ----------------------------------------------------------------------

class TestRunCache:
    def test_result_round_trips_through_json(self):
        trace = small_trace("vpr", 3_000)
        cache = make_scheme("lru", SCALE.geometry(), seed=2)
        result = run_trace(cache, trace)
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt.stats == result.stats
        assert rebuilt.metrics == result.metrics
        assert rebuilt.manifest == result.manifest

    def test_second_grid_run_is_all_hits(self, tmp_path):
        run_cache = RunCache(tmp_path / "runs")
        first = run_benchmarks(
            ["lru", "stem"], benchmarks=["vpr"], scale=SCALE,
            run_cache=run_cache,
        )
        assert (run_cache.hits, run_cache.misses) == (0, 2)
        assert len(run_cache) == 2
        second = run_benchmarks(
            ["lru", "stem"], benchmarks=["vpr"], scale=SCALE,
            run_cache=run_cache,
        )
        assert (run_cache.hits, run_cache.misses) == (2, 2)
        assert _matrix_fingerprint(second) == _matrix_fingerprint(first)

    def test_cache_feeds_profiler_counters(self, tmp_path):
        run_cache = RunCache(tmp_path / "runs")
        profiler = RunProfiler()
        run_benchmarks(["lru"], benchmarks=["vpr"], scale=SCALE,
                       run_cache=run_cache, profiler=profiler)
        assert profiler.run_cache_misses == 1
        run_benchmarks(["lru"], benchmarks=["vpr"], scale=SCALE,
                       run_cache=run_cache, profiler=profiler)
        assert profiler.run_cache_hits == 1
        assert "run cache: 1 hit(s), 1 miss(es)" in profiler.render()
        assert profiler.to_bench_json()["run_cache"] == {
            "hits": 1, "misses": 1,
        }

    def test_key_tracks_every_input(self):
        trace = small_trace("vpr", 3_000)
        base = CellSpec(
            index=0, scheme="lru", label="lru", trace=trace,
            geometry=SCALE.geometry(), seed=1,
        )
        key = cell_cache_key(base)
        assert key is not None
        from dataclasses import replace
        assert cell_cache_key(replace(base, seed=2)) != key
        assert cell_cache_key(
            replace(base, options=RunOptions(warmup_fraction=0.5))
        ) != key
        assert cell_cache_key(
            replace(base, trace=small_trace("mcf", 3_000))
        ) != key
        # Same inputs, fresh spec object -> same key.
        assert cell_cache_key(replace(base, index=99)) == key

    def test_poisoned_scheme_has_no_key(self, monkeypatch):
        monkeypatch.setitem(
            sim_config._SCHEME_FACTORIES, "boom", _poisoned_factory
        )
        spec = CellSpec(
            index=0, scheme="boom", label="boom",
            trace=small_trace("vpr", 2_000),
            geometry=SCALE.geometry(), seed=1,
        )
        assert cell_cache_key(spec) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        run_cache = RunCache(tmp_path / "runs")
        trace = small_trace("vpr", 3_000)
        cache = make_scheme("lru", SCALE.geometry(), seed=2)
        result = run_trace(cache, trace)
        key = "ab" + "0" * 62
        path = run_cache.put(key, result)
        path.write_text("{not json", encoding="utf-8")
        assert run_cache.get(key) is None
        assert run_cache.misses == 1

    def test_failures_are_never_cached(self, tmp_path, monkeypatch):
        monkeypatch.setitem(
            sim_config._SCHEME_FACTORIES, "boom", _poisoned_factory
        )
        monkeypatch.setitem(sim_config._DISPLAY_NAMES, "boom", "BOOM")
        run_cache = RunCache(tmp_path / "runs")
        matrix = run_matrix(
            [small_trace("vpr", 2_000)], ["boom"], scale=SCALE,
            run_cache=run_cache,
        )
        assert len(matrix.failures) == 1
        assert len(run_cache) == 0
