"""Tests for fault injection, safe-mode degradation, and run isolation."""

import json

import pytest

import repro.sim.config as sim_config
from repro.common.errors import (
    ConfigError,
    InvariantViolation,
    SimulationError,
    WatchdogTimeout,
)
from repro.common.io import atomic_write, atomic_write_text
from repro.common.rng import SplitMix
from repro.core.config import StemConfig
from repro.obs.events import FaultInjected, SafeModeEntry, event_from_dict
from repro.obs.sinks import JsonlSink, load_events, load_events_report
from repro.obs.tracer import Tracer
from repro.resilience.campaign import run_fault_campaign
from repro.resilience.faults import (
    FAULT_TARGETS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectingCache,
)
from repro.resilience.harness import RetryPolicy, guarded_run
from repro.sim.config import ExperimentScale, make_scheme
from repro.sim.options import RunOptions
from repro.sim.results import ResultMatrix, RunFailure
from repro.sim.runner import associativity_sweep, run_matrix
from repro.sim.simulator import RunResult, run_trace
from repro.workloads.spec_like import make_benchmark_trace

SCALE = ExperimentScale(num_sets=64, associativity=16, trace_length=40_000)


def small_trace(name="omnetpp", length=8_000):
    return make_benchmark_trace(name, num_sets=64, length=length)


# ----------------------------------------------------------------------
# Fault plans
# ----------------------------------------------------------------------

class TestFaultPlan:
    def test_parse_full_syntax(self):
        plan = FaultPlan.parse("sc_s:3,association:1@0.5,trace:8@0.25-0.75")
        assert plan.specs == (
            FaultSpec("sc_s", 3),
            FaultSpec("association", 1, start=0.5),
            FaultSpec("trace", 8, start=0.25, stop=0.75),
        )

    def test_describe_round_trips(self):
        text = "sc_s:3,association:1@0.5-1,trace:8@0.25-0.75"
        plan = FaultPlan.parse(text)
        assert FaultPlan.parse(plan.describe()) == plan

    def test_unknown_target_rejected(self):
        with pytest.raises(ConfigError, match="unknown fault target"):
            FaultPlan.parse("flux_capacitor:2")

    def test_bad_count_rejected(self):
        with pytest.raises(ConfigError, match="bad fault count"):
            FaultPlan.parse("sc_s:lots")
        with pytest.raises(ConfigError, match="count must be >= 1"):
            FaultPlan.parse("sc_s:0")

    def test_bad_window_rejected(self):
        with pytest.raises(ConfigError, match="bad fault window"):
            FaultPlan.parse("sc_s@half")
        with pytest.raises(ConfigError, match="window"):
            FaultPlan.parse("sc_s@0.9-0.1")

    def test_empty_plan_rejected(self):
        with pytest.raises(ConfigError, match="at least one spec"):
            FaultPlan.parse(" , ")

    def test_schedule_is_deterministic(self):
        plan = FaultPlan.parse("sc_s:4,trace:4@0.5")
        first = plan.schedule(10_000, SplitMix(seed=42))
        second = plan.schedule(10_000, SplitMix(seed=42))
        assert first == second
        assert len(first) == plan.total_faults()

    def test_schedule_respects_window(self):
        plan = FaultPlan.parse("trace:50@0.25-0.75")
        for fault in plan.schedule(1000, SplitMix(seed=1)):
            assert 250 <= fault.index < 750


# ----------------------------------------------------------------------
# The injector
# ----------------------------------------------------------------------

class TestFaultInjector:
    def test_skips_absent_targets_on_plain_lru(self):
        trace = small_trace(length=4_000)
        cache = make_scheme("lru", SCALE.geometry(), seed=3)
        plan = FaultPlan.parse("sc_s:2,heap:1,association:1,trace:2")
        injector = FaultInjector(plan, length=len(trace), seed=3)
        result = run_trace(
            InjectingCache(cache, injector), trace, warmup_fraction=0.0
        )
        assert isinstance(result, RunResult)
        # LRU has no monitors/heap/association: only trace faults apply.
        assert injector.applied == 2
        assert injector.skipped == 4
        assert injector.counts_by_target() == {"trace": 2}

    def test_emits_fault_injected_events(self, tmp_path):
        trace = small_trace(length=4_000)
        path = tmp_path / "faults.jsonl"
        with JsonlSink(path) as sink:
            tracer = Tracer(sink)
            cache = make_scheme(
                "stem", SCALE.geometry(), seed=3,
                config=StemConfig(safe_mode=True),
            )
            plan = FaultPlan.parse("sc_s:2,association:1")
            injector = FaultInjector(
                plan, length=len(trace), seed=3, tracer=tracer
            )
            run_trace(
                InjectingCache(cache, injector), trace, warmup_fraction=0.0
            )
        events = [e for e in load_events(path) if e.kind == "fault_injected"]
        assert len(events) == 3
        assert {e.target for e in events} == {"sc_s", "association"}

    def test_proxy_delegates_everything_else(self):
        cache = make_scheme("stem", SCALE.geometry(), seed=3)
        plan = FaultPlan.parse("trace:1")
        wrapped = InjectingCache(cache, FaultInjector(plan, 100, seed=3))
        assert wrapped.geometry is cache.geometry
        assert wrapped.stats is cache.stats
        wrapped.check_invariants()


# ----------------------------------------------------------------------
# Safe mode
# ----------------------------------------------------------------------

class TestSafeMode:
    @pytest.fixture(scope="class")
    def campaign(self):
        return run_fault_campaign(
            "stem",
            "omnetpp",
            plan="sc_s:2,association:1,trace:2",
            seed=7,
            scale=SCALE,
        )

    def test_faulted_run_completes_and_degrades(self, campaign):
        assert campaign.faults_applied == 5
        assert campaign.safe_mode_entries > 0
        assert campaign.safe_mode_sets > 0

    def test_faulted_mpki_within_10pct_of_lru(self, campaign):
        # The acceptance bar: graceful degradation must never be worse
        # than abandoning STEM entirely (plus 10% slack).
        assert campaign.faulted_mpki <= 1.10 * campaign.lru_mpki

    def test_campaign_is_deterministic(self, campaign):
        again = run_fault_campaign(
            "stem",
            "omnetpp",
            plan="sc_s:2,association:1,trace:2",
            seed=7,
            scale=SCALE,
        )
        assert again == campaign
        assert again.render() == campaign.render()
        assert again.as_dict() == campaign.as_dict()
        assert again.baseline_hash and again.faulted_hash

    def test_safe_mode_entry_counted_in_stats(self, campaign):
        report = campaign.as_dict()
        assert report["safe_mode_entries"] == campaign.safe_mode_entries
        assert "safe_mode_entries" in json.dumps(report)

    def test_safe_mode_events_emitted(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with JsonlSink(path) as sink:
            report = run_fault_campaign(
                "stem",
                "omnetpp",
                plan="sc_s:2,association:1,trace:2",
                seed=7,
                scale=SCALE,
                tracer=Tracer(sink),
            )
        kinds = [e.kind for e in load_events(path)]
        assert kinds.count("safe_mode") == report.safe_mode_entries
        assert "fault_injected" in kinds

    def test_event_dict_round_trip(self):
        for event in (
            FaultInjected(access=5, set_index=3, target="sc_s", detail="bit=1"),
            SafeModeEntry(access=9, set_index=3, reason="sweep"),
        ):
            assert event_from_dict(event.as_dict()) == event

    def test_invariant_violation_is_simulation_error(self):
        cache = make_scheme("lru", SCALE.geometry(), seed=1)
        for address in range(0, 64 * 1024, 64):
            cache.access(address)
        # Corrupt the tag store behind the lookup table's back.
        cache._way_tag[0][0] ^= 0x1
        with pytest.raises(InvariantViolation) as excinfo:
            cache.check_invariants()
        assert isinstance(excinfo.value, SimulationError)


# ----------------------------------------------------------------------
# Crash-tolerant harness
# ----------------------------------------------------------------------

def _poisoned_factory(geometry, seed=0xACE1, tracer=None, **kwargs):
    raise SimulationError(f"poisoned cell (seed {seed})")


class TestGuardedRun:
    def test_retry_policy_seeds(self):
        policy = RetryPolicy(max_attempts=3, reseed_step=10)
        assert policy.seeds(5) == [5, 15, 25]
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)

    def test_success_passes_through(self):
        trace = small_trace(length=2_000)
        result = guarded_run(
            lambda seed: make_scheme("lru", SCALE.geometry(), seed=seed),
            trace,
            scheme="LRU",
            base_seed=1,
        )
        assert isinstance(result, RunResult)

    def test_retry_with_reseed_recovers(self):
        trace = small_trace(length=2_000)
        seeds_seen = []

        def flaky(seed):
            seeds_seen.append(seed)
            if len(seeds_seen) == 1:
                raise SimulationError("transient")
            return make_scheme("lru", SCALE.geometry(), seed=seed)

        result = guarded_run(
            flaky, trace, scheme="LRU", base_seed=100,
            options=RunOptions(
                retry=RetryPolicy(max_attempts=2, reseed_step=7)
            ),
        )
        assert isinstance(result, RunResult)
        assert seeds_seen == [100, 107]

    def test_exhausted_retries_return_failure(self):
        trace = small_trace(length=2_000)
        failure = guarded_run(
            lambda seed: _poisoned_factory(None, seed=seed),
            trace,
            scheme="BOOM",
            base_seed=100,
            options=RunOptions(retry=RetryPolicy(max_attempts=3)),
        )
        assert isinstance(failure, RunFailure)
        assert failure.error_type == "SimulationError"
        assert failure.attempts == 3
        assert failure.seeds == (100, 101, 102)
        assert "poisoned" in failure.message

    def test_watchdog_times_out(self):
        trace = small_trace(length=20_000)
        cache = make_scheme("lru", SCALE.geometry(), seed=1)
        with pytest.raises(WatchdogTimeout, match="deadline"):
            run_trace(cache, trace, deadline_seconds=1e-9)

    def test_watchdog_failure_is_recorded_not_raised(self):
        trace = small_trace(length=20_000)
        failure = guarded_run(
            lambda seed: make_scheme("lru", SCALE.geometry(), seed=seed),
            trace,
            scheme="LRU",
            base_seed=1,
            options=RunOptions(watchdog_seconds=1e-9),
        )
        assert isinstance(failure, RunFailure)
        assert failure.error_type == "WatchdogTimeout"


class TestGridIsolation:
    def test_matrix_survives_poisoned_cell(self, monkeypatch):
        monkeypatch.setitem(
            sim_config._SCHEME_FACTORIES, "boom", _poisoned_factory
        )
        monkeypatch.setitem(sim_config._DISPLAY_NAMES, "boom", "BOOM")
        traces = [small_trace("omnetpp", 2_000), small_trace("mcf", 2_000)]
        matrix = run_matrix(traces, ["lru", "boom"], scale=SCALE, seed=5)
        # Healthy cells all completed...
        for trace in traces:
            assert matrix.get(trace.name, "LRU").mpki >= 0.0
        # ...and the poisoned ones left structured failures behind.
        assert len(matrix.failures) == 2
        failure = matrix.failure_for("omnetpp", "boom")
        assert failure is not None
        assert failure.error_type == "SimulationError"
        with pytest.raises(ConfigError, match="SimulationError"):
            matrix.get("omnetpp", "boom")

    def test_isolate_false_propagates(self, monkeypatch):
        monkeypatch.setitem(
            sim_config._SCHEME_FACTORIES, "boom", _poisoned_factory
        )
        with pytest.raises(SimulationError, match="poisoned"):
            run_matrix(
                [small_trace(length=2_000)], ["boom"],
                scale=SCALE, isolate=False,
            )
        # A fail-fast cell keeps its watchdog, and a sweep without a
        # failures list runs its cells fail-fast.
        with pytest.raises(WatchdogTimeout, match="deadline"):
            run_matrix(
                [small_trace(length=20_000)], ["lru"],
                scale=SCALE, isolate=False, watchdog_seconds=1e-9,
            )
        with pytest.raises(WatchdogTimeout, match="deadline"):
            associativity_sweep(
                small_trace(length=20_000), ["lru"], [4, 8],
                scale=SCALE, watchdog_seconds=1e-9,
            )

    def test_sweep_skips_failed_runs(self, monkeypatch):
        calls = {"n": 0}

        def sometimes(geometry, seed=0xACE1, tracer=None, **kwargs):
            calls["n"] += 1
            if geometry.associativity == 8:
                raise SimulationError("bad geometry")
            return sim_config._SCHEME_FACTORIES["lru"](geometry, seed=seed)

        monkeypatch.setitem(
            sim_config._SCHEME_FACTORIES, "flaky", sometimes
        )
        failures = []
        curves = associativity_sweep(
            small_trace(length=2_000), ["flaky"], [4, 8, 16],
            scale=SCALE, failures=failures,
        )
        assert len(curves["flaky"]) == 2
        assert len(failures) == 1
        assert failures[0].scheme == "flaky@8"

    def test_run_failure_as_dict_and_str(self):
        failure = RunFailure(
            workload="w", scheme="s", error_type="KeyError",
            message="boom", attempts=2, seeds=(1, 2),
        )
        record = failure.as_dict()
        assert record["seeds"] == [1, 2]
        assert "failed after 2 attempt(s)" in str(failure)

    def test_matrix_failure_axes_still_render(self):
        matrix = ResultMatrix()
        matrix.add_failure(RunFailure(
            workload="w", scheme="s", error_type="E", message="m",
        ))
        assert matrix.workloads == ["w"]
        assert matrix.schemes == ["s"]
        assert matrix.failed_cells() == [("w", "s")]


# ----------------------------------------------------------------------
# Crash-safe persistence
# ----------------------------------------------------------------------

class TestAtomicWrite:
    def test_atomic_write_text(self, tmp_path):
        path = tmp_path / "out.json"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"
        atomic_write_text(path, "replaced\n")
        assert path.read_text() == "replaced\n"

    def test_failed_write_leaves_no_trace(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("original")
        with pytest.raises(RuntimeError):
            with atomic_write(path) as handle:
                handle.write("partial garbage")
                raise RuntimeError("crash mid-write")
        assert path.read_text() == "original"
        assert list(tmp_path.iterdir()) == [path]

    def test_manifest_save_is_atomic(self, tmp_path):
        trace = small_trace(length=2_000)
        cache = make_scheme("lru", SCALE.geometry(), seed=1)
        result = run_trace(cache, trace, warmup_fraction=0.0)
        path = tmp_path / "manifest.json"
        result.manifest.save(path)
        record = json.loads(path.read_text())
        assert record["content_hash"] == result.manifest.content_hash


class TestTruncatedEventLog:
    def _write_log(self, path, truncate=True):
        with JsonlSink(path) as sink:
            tracer = Tracer(sink)
            for access in range(4):
                tracer.emit(FaultInjected(
                    access=access, set_index=1, target="sc_s", detail="x",
                ))
        if truncate:
            text = path.read_text()
            path.write_text(text + '{"kind": "fault_inj')

    def test_strict_load_raises(self, tmp_path):
        path = tmp_path / "log.jsonl"
        self._write_log(path)
        with pytest.raises(ConfigError, match="malformed event line"):
            load_events(path)

    def test_tolerant_load_recovers_prefix(self, tmp_path):
        path = tmp_path / "log.jsonl"
        self._write_log(path)
        with pytest.warns(UserWarning, match="skipped unreadable"):
            events = load_events(path, strict=False)
        assert len(events) == 4
        events, skipped = load_events_report(path, strict=False)
        assert skipped == [5]

    def test_mid_file_torn_line_recovered(self, tmp_path):
        """strict=False skips a torn line anywhere, not just at EOF."""
        path = tmp_path / "log.jsonl"
        self._write_log(path, truncate=False)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:10]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="malformed event line"):
            load_events(path)  # strict still refuses corruption
        with pytest.warns(UserWarning, match="skipped unreadable"):
            events = load_events(path, strict=False)
        assert len(events) == 3
        events, skipped = load_events_report(path, strict=False)
        assert skipped == [2]
        assert [e.access for e in events] == [0, 2, 3]

    def test_unknown_kind_recovered_non_strict(self, tmp_path):
        """A newer writer's event kinds are skipped, not fatal."""
        path = tmp_path / "log.jsonl"
        self._write_log(path, truncate=False)
        lines = path.read_text().splitlines()
        lines.insert(2, '{"kind": "from_the_future", "access": 9}')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError):
            load_events(path)
        events, skipped = load_events_report(path, strict=False)
        assert len(events) == 4
        assert skipped == [3]

    def test_intact_log_loads_clean(self, tmp_path):
        path = tmp_path / "log.jsonl"
        self._write_log(path, truncate=False)
        events, skipped = load_events_report(path, strict=False)
        assert len(events) == 4
        assert skipped == []

    def test_flush_every_validated(self, tmp_path):
        with pytest.raises(ConfigError):
            JsonlSink(tmp_path / "x.jsonl", flush_every=-1)


class TestTargetsStayInSync:
    def test_cli_default_plan_covers_every_target(self):
        from repro.cli import _DEFAULT_FAULT_PLAN

        plan = FaultPlan.parse(_DEFAULT_FAULT_PLAN)
        assert {spec.target for spec in plan.specs} == set(FAULT_TARGETS)
