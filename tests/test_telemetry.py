"""Tests for the live fleet-telemetry channel (DESIGN.md §11).

Covers the write side (spans, heartbeats, resource samples, atexit
flushes), the read side (merging, states, ETA, stall verdicts,
status.json), the ``repro top`` CLI, and the two acceptance
invariants: results are byte-identical with telemetry on or off and
serial vs parallel, and a stalled worker is reported *before* its
watchdog deadline fires.
"""

import json
import threading
import time

import pytest

from repro.cli import main
from repro.common.errors import SimulationError
from repro.obs.fleet import (
    CellFleetStatus,
    FleetStatus,
    load_fleet,
    render_top,
    write_status,
)
from repro.obs.telemetry import (
    CELLS_DIR,
    CellTelemetry,
    GridTelemetry,
    TelemetrySpec,
    cell_span_id,
    cell_status_path,
    read_status_lines,
    resource_sample,
)
from repro.resilience.harness import RetryPolicy, guarded_run
from repro.sim.cache import RunCache
from repro.sim.config import ExperimentScale, make_scheme
from repro.sim.options import RunOptions
from repro.sim.results import RunFailure
from repro.sim.runner import run_matrix
from repro.sim.simulator import RunResult, run_trace
from repro.workloads.spec_like import make_benchmark_trace

SCALE = ExperimentScale(num_sets=64, associativity=16, trace_length=8_000)


def small_trace(name="omnetpp", length=8_000):
    return make_benchmark_trace(name, num_sets=64, length=length)


def eager_spec(run_dir):
    """A spec whose beat throttle never suppresses a heartbeat."""
    return TelemetrySpec(
        run_dir=str(run_dir), grid_span="grid-test", heartbeat_seconds=0.0
    )


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
    return (matrix.schemes, matrix.workloads, cells)


# ----------------------------------------------------------------------
# Span ids and channel layout
# ----------------------------------------------------------------------

class TestSpans:
    def test_cell_span_id_is_deterministic(self):
        assert cell_span_id("grid-abc", 7) == "grid-abc/cell-00007"
        assert cell_span_id("grid-abc", 7) == cell_span_id("grid-abc", 7)

    def test_cell_status_path_layout(self, tmp_path):
        path = cell_status_path(tmp_path, 3)
        assert path == tmp_path / CELLS_DIR / "cell-00003.jsonl"

    def test_grid_spans_are_unique(self, tmp_path):
        with GridTelemetry(tmp_path / "a") as a, \
                GridTelemetry(tmp_path / "b") as b:
            assert a.grid_span != b.grid_span

    def test_worker_derives_parent_planned_span(self, tmp_path):
        # The parent plans the span; the worker reconstructs the same id
        # from the picklable spec alone — no handshake crosses processes.
        with GridTelemetry(tmp_path) as grid:
            grid.cell_plan(index=4, label="lru", workload="mcf",
                           total_accesses=100)
            worker_side = CellTelemetry(grid.spec, 4, "lru", "mcf")
            assert worker_side.span_id == cell_span_id(grid.grid_span, 4)
            worker_side.close()
        records, _ = read_status_lines(tmp_path / "grid.jsonl")
        plan = [r for r in records if r["kind"] == "cell_plan"][0]
        assert plan["span_id"] == cell_span_id(grid.grid_span, 4)


class TestResourceSample:
    def test_sample_fields(self):
        sample = resource_sample()
        assert sample["cpu_seconds"] >= 0
        assert sample["gc_collections"] >= 0
        # RSS may be None on exotic platforms but is an int on Linux.
        if sample["rss_kb"] is not None:
            assert sample["rss_kb"] > 0


# ----------------------------------------------------------------------
# Write side: CellTelemetry record stream
# ----------------------------------------------------------------------

class TestCellTelemetry:
    def test_lifecycle_records(self, tmp_path):
        telemetry = CellTelemetry(eager_spec(tmp_path), 0, "lru", "mcf")
        telemetry.cell_start(total_accesses=1000, seed=17,
                             watchdog_seconds=30.0, max_attempts=3)
        telemetry.phase_start("warmup", 0)
        telemetry.beat(250)
        telemetry.phase_end("warmup", 250)
        telemetry.phase_start("measured", 250)
        telemetry.attempt_failed(1, 17, "boom")
        telemetry.cell_end("ok")
        telemetry.close()

        records, truncated = read_status_lines(
            cell_status_path(tmp_path, 0)
        )
        assert not truncated
        kinds = [r["kind"] for r in records]
        assert kinds == [
            "cell_start", "phase_start", "heartbeat", "phase_end",
            "phase_start", "attempt_failed", "cell_end",
        ]
        start = records[0]
        assert start["span_id"] == "grid-test/cell-00000"
        assert start["parent"] == "grid-test"
        assert start["total_accesses"] == 1000
        assert start["seed"] == 17
        assert start["watchdog_seconds"] == 30.0
        assert start["max_attempts"] == 3
        beat = records[2]
        assert beat["accesses"] == 250
        assert beat["phase"] == "warmup"
        assert beat["cpu_seconds"] >= 0

    def test_beat_throttles_by_wall_clock(self, tmp_path):
        spec = TelemetrySpec(run_dir=str(tmp_path), grid_span="grid-test",
                             heartbeat_seconds=3600.0)
        telemetry = CellTelemetry(spec, 1, "lru", "mcf")
        telemetry.cell_start(total_accesses=100, seed=1)
        for accesses in range(0, 100, 10):
            telemetry.beat(accesses)
        telemetry.close()
        records, _ = read_status_lines(cell_status_path(tmp_path, 1))
        assert [r["kind"] for r in records] == ["cell_start"]

    def test_close_is_idempotent(self, tmp_path):
        telemetry = CellTelemetry(eager_spec(tmp_path), 2, "lru", "mcf")
        telemetry.cell_start(total_accesses=10, seed=1)
        telemetry.close()
        telemetry.close()

    def test_torn_tail_is_tolerated(self, tmp_path):
        telemetry = CellTelemetry(eager_spec(tmp_path), 0, "lru", "mcf")
        telemetry.cell_start(total_accesses=10, seed=1)
        telemetry.close()
        path = cell_status_path(tmp_path, 0)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "heartbeat", "acc')  # killed mid-write
        records, truncated = read_status_lines(path)
        assert truncated
        assert [r["kind"] for r in records] == ["cell_start"]

    def test_missing_file_reads_empty(self, tmp_path):
        records, truncated = read_status_lines(tmp_path / "absent.jsonl")
        assert records == [] and not truncated


# ----------------------------------------------------------------------
# Telemetry through run_trace / guarded_run
# ----------------------------------------------------------------------

class TestSimulatorIntegration:
    def test_run_trace_emits_phase_spans_and_beats(self, tmp_path):
        trace = small_trace(length=6_000)
        cache = make_scheme("lru", SCALE.geometry(), seed=7)
        telemetry = CellTelemetry(eager_spec(tmp_path), 0, "lru", trace.name)
        telemetry.cell_start(total_accesses=len(trace), seed=7)
        run_trace(cache, trace, telemetry=telemetry)
        telemetry.close()

        records, _ = read_status_lines(cell_status_path(tmp_path, 0))
        kinds = [r["kind"] for r in records]
        phases = [
            (r["kind"], r["phase"]) for r in records
            if r["kind"] in ("phase_start", "phase_end")
        ]
        assert phases == [
            ("phase_start", "warmup"), ("phase_end", "warmup"),
            ("phase_start", "measured"), ("phase_end", "measured"),
        ]
        assert "heartbeat" in kinds
        final_positions = [
            r["accesses"] for r in records if r["kind"] == "phase_end"
        ]
        assert final_positions == [int(len(trace) * 0.25), len(trace)]

    def test_disabled_telemetry_leaves_single_chunk_spans(self, tmp_path):
        # The zero-overhead contract, pinned structurally rather than by
        # wall clock: with telemetry off each phase is one batch call
        # (the old tight loop); armed, spans chunk on the watchdog
        # stride so the beat callback runs between chunks.
        trace = small_trace(length=20_000)
        calls = []

        def spying_cache(seed):
            cache = make_scheme("lru", SCALE.geometry(), seed=seed)
            real_batch = cache.access_batch

            def spy(addresses, set_indices, tags, writes, start, stop):
                calls.append((start, stop))
                return real_batch(
                    addresses, set_indices, tags, writes, start, stop
                )

            cache.access_batch = spy
            return cache

        run_trace(spying_cache(7), trace)
        assert calls == [(0, 5_000), (5_000, 20_000)]

        calls.clear()
        telemetry = CellTelemetry(eager_spec(tmp_path), 0, "lru", trace.name)
        run_trace(spying_cache(7), trace, telemetry=telemetry)
        telemetry.close()
        assert calls == [
            (0, 5_000), (5_000, 13_192), (13_192, 20_000)
        ]

    def test_results_identical_with_and_without_telemetry(self, tmp_path):
        trace = small_trace(length=6_000)
        plain = run_trace(
            make_scheme("stem", SCALE.geometry(), seed=7), trace
        )
        telemetry = CellTelemetry(eager_spec(tmp_path), 0, "stem", trace.name)
        observed = run_trace(
            make_scheme("stem", SCALE.geometry(), seed=7), trace,
            telemetry=telemetry,
        )
        telemetry.close()
        assert observed.stats.as_dict() == plain.stats.as_dict()
        assert observed.metrics == plain.metrics
        assert observed.manifest.content_hash == plain.manifest.content_hash

    def test_guarded_run_reports_success(self, tmp_path):
        trace = small_trace(length=4_000)
        telemetry = CellTelemetry(eager_spec(tmp_path), 0, "lru", trace.name)
        outcome = guarded_run(
            lambda seed: make_scheme("lru", SCALE.geometry(), seed=seed),
            trace, scheme="lru", base_seed=11,
            options=RunOptions(watchdog_seconds=60.0), telemetry=telemetry,
        )
        telemetry.close()
        assert isinstance(outcome, RunResult)
        records, _ = read_status_lines(cell_status_path(tmp_path, 0))
        start = records[0]
        assert start["kind"] == "cell_start"
        assert start["seed"] == 11
        assert start["watchdog_seconds"] == 60.0
        end = records[-1]
        assert end["kind"] == "cell_end" and end["status"] == "ok"

    def test_guarded_run_reports_retries_and_failure(self, tmp_path):
        trace = small_trace(length=2_000)

        def poisoned(seed):
            raise SimulationError(f"poisoned (seed {seed})")

        telemetry = CellTelemetry(eager_spec(tmp_path), 0, "lru", trace.name)
        outcome = guarded_run(
            poisoned, trace, scheme="lru", base_seed=5,
            options=RunOptions(retry=RetryPolicy(max_attempts=3)),
            telemetry=telemetry,
        )
        telemetry.close()
        assert isinstance(outcome, RunFailure)
        records, _ = read_status_lines(cell_status_path(tmp_path, 0))
        assert records[0]["max_attempts"] == 3
        failed = [r for r in records if r["kind"] == "attempt_failed"]
        assert [r["attempt"] for r in failed] == [1, 2, 3]
        end = records[-1]
        assert end["kind"] == "cell_end"
        assert end["status"] == "failed"
        assert end["error_type"] == "SimulationError"


# ----------------------------------------------------------------------
# Acceptance: byte-identical matrices, telemetry on/off, serial/parallel
# ----------------------------------------------------------------------

class TestEquivalence:
    SCHEMES = ["lru", "stem"]

    def _traces(self):
        return [small_trace("omnetpp", 6_000), small_trace("mcf", 6_000)]

    def test_matrix_identical_with_telemetry_serial_and_parallel(
        self, tmp_path
    ):
        baseline = run_matrix(self._traces(), self.SCHEMES, scale=SCALE)
        serial = run_matrix(
            self._traces(), self.SCHEMES, scale=SCALE,
            telemetry_dir=tmp_path / "serial",
        )
        parallel = run_matrix(
            self._traces(), self.SCHEMES, scale=SCALE,
            max_workers=2, telemetry_dir=tmp_path / "parallel",
        )
        fingerprint = _matrix_fingerprint(baseline)
        assert _matrix_fingerprint(serial) == fingerprint
        assert _matrix_fingerprint(parallel) == fingerprint
        # Both runs actually produced channels (this test must not pass
        # vacuously because telemetry silently failed to arm).
        for sub in ("serial", "parallel"):
            status = load_fleet(tmp_path / sub)
            assert status.finished
            assert status.counts()["done"] == len(self.SCHEMES) * 2

    def test_parallel_channel_has_worker_spans(self, tmp_path):
        run_matrix(
            self._traces(), ["lru"], scale=SCALE,
            max_workers=2, telemetry_dir=tmp_path,
        )
        grid_records, _ = read_status_lines(tmp_path / "grid.jsonl")
        kinds = [r["kind"] for r in grid_records]
        assert kinds[0] == "grid_start"
        assert kinds[-1] == "grid_end"
        assert kinds.count("cell_plan") == 2
        assert kinds.count("cell_done") == 2
        grid_span = grid_records[0]["span_id"]
        for index in range(2):
            records, _ = read_status_lines(cell_status_path(tmp_path, index))
            start = [r for r in records if r["kind"] == "cell_start"][0]
            assert start["span_id"] == cell_span_id(grid_span, index)
            assert start["parent"] == grid_span
            assert start["pid"] > 0

    def test_cached_cells_are_reported(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        traces = self._traces()
        run_matrix(traces, ["lru"], scale=SCALE, run_cache=cache)
        run_matrix(
            traces, ["lru"], scale=SCALE, run_cache=cache,
            telemetry_dir=tmp_path / "run2",
        )
        status = load_fleet(tmp_path / "run2")
        assert status.counts()["cached"] == 2
        assert status.finished
        assert all(cell.progress == 1.0 for cell in status.cells)

    def test_runner_writes_status_json(self, tmp_path):
        run_matrix(
            self._traces(), ["lru"], scale=SCALE, telemetry_dir=tmp_path
        )
        payload = json.loads((tmp_path / "status.json").read_text())
        assert payload["finished"] is True
        assert payload["counts"]["done"] == 2
        assert payload["total_cells"] == 2
        assert len(payload["cells"]) == 2


# ----------------------------------------------------------------------
# Read side: states, ETA, stall verdicts
# ----------------------------------------------------------------------

def _write_jsonl(path, records):
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


class TestAggregator:
    def test_states_and_eta(self, tmp_path):
        now = 1_000.0
        _write_jsonl(tmp_path / "grid.jsonl", [
            {"kind": "grid_start", "span_id": "grid-x", "t": now - 20,
             "total_cells": 3},
            {"kind": "cell_plan", "cell": 0, "label": "lru",
             "workload": "mcf", "total_accesses": 1000},
            {"kind": "cell_plan", "cell": 1, "label": "stem",
             "workload": "mcf", "total_accesses": 1000},
            {"kind": "cell_plan", "cell": 2, "label": "dip",
             "workload": "mcf", "total_accesses": 1000},
            {"kind": "cell_cached", "cell": 2},
        ])
        _write_jsonl(cell_status_path(tmp_path, 0), [
            {"kind": "cell_start", "cell": 0, "t": now - 10, "label": "lru",
             "workload": "mcf", "total_accesses": 1000, "pid": 42},
            {"kind": "heartbeat", "cell": 0, "t": now - 1, "accesses": 500,
             "rate": 100.0, "phase": "measured", "rss_kb": 2048,
             "cpu_seconds": 4.5, "gc_collections": 3},
        ])
        status = load_fleet(tmp_path, stall_after=5.0, now_wall=now)
        counts = status.counts()
        assert counts == {"pending": 1, "cached": 1, "running": 1,
                          "stalled": 0, "done": 0, "failed": 0}
        assert not status.finished
        running = status.cells[0]
        assert running.state == "running"
        assert running.accesses_done == 500
        assert running.rss_kb == 2048
        assert running.progress == 0.5
        # remaining = 500 (cell 0) + 1000 (pending cell 1); live rate 100
        assert status.remaining_accesses() == 1500
        assert status.aggregate_rate() == 100.0
        assert status.eta_seconds() == pytest.approx(15.0)

    def test_stall_verdict_names_watchdog(self, tmp_path):
        now = 2_000.0
        _write_jsonl(cell_status_path(tmp_path, 0), [
            {"kind": "cell_start", "cell": 0, "t": now - 12, "label": "lru",
             "workload": "mcf", "total_accesses": 1000,
             "watchdog_seconds": 60.0, "pid": 42},
            {"kind": "heartbeat", "cell": 0, "t": now - 10,
             "accesses": 400, "rate": 200.0},
        ])
        status = load_fleet(tmp_path, stall_after=5.0, now_wall=now)
        cell = status.cells[0]
        assert cell.state == "stalled"
        assert "no heartbeat for 10.0s" in cell.stall_verdict
        assert "400" in cell.stall_verdict
        # Watchdog armed 12s ago with a 60s budget: fires in 48s.
        assert "WatchdogTimeout fires in 48.0s" in cell.stall_verdict
        assert status.stalled_cells == [cell]

    def test_stall_verdict_without_watchdog(self, tmp_path):
        now = 2_000.0
        _write_jsonl(cell_status_path(tmp_path, 0), [
            {"kind": "cell_start", "cell": 0, "t": now - 30, "label": "lru",
             "workload": "mcf", "total_accesses": 1000, "pid": 42},
        ])
        status = load_fleet(tmp_path, stall_after=5.0, now_wall=now)
        assert "no watchdog armed" in status.cells[0].stall_verdict

    def test_slow_cell_with_heartbeats_is_not_stalled(self, tmp_path):
        now = 2_000.0
        _write_jsonl(cell_status_path(tmp_path, 0), [
            {"kind": "cell_start", "cell": 0, "t": now - 100, "label": "lru",
             "workload": "mcf", "total_accesses": 1_000_000, "pid": 42},
            {"kind": "heartbeat", "cell": 0, "t": now - 1,
             "accesses": 100, "rate": 1.0},
        ])
        status = load_fleet(tmp_path, stall_after=5.0, now_wall=now)
        assert status.cells[0].state == "running"
        assert status.stalled_cells == []

    def test_empty_directory(self, tmp_path):
        status = load_fleet(tmp_path)
        assert status.cells == []
        assert status.counts()["done"] == 0

    def test_write_status_round_trips(self, tmp_path):
        status = FleetStatus(run_dir=str(tmp_path), observed_at=1.0)
        status.cells = [CellFleetStatus(index=0, state="done")]
        path = write_status(tmp_path, status)
        payload = json.loads(path.read_text())
        assert payload["counts"]["done"] == 1

    def test_render_top_lines(self, tmp_path):
        now = 3_000.0
        _write_jsonl(tmp_path / "grid.jsonl", [
            {"kind": "grid_start", "span_id": "grid-y", "t": now - 50,
             "total_cells": 2},
            {"kind": "cell_plan", "cell": 0, "label": "lru",
             "workload": "mcf", "total_accesses": 1000},
            {"kind": "cell_plan", "cell": 1, "label": "stem",
             "workload": "astar", "total_accesses": 1000},
        ])
        _write_jsonl(cell_status_path(tmp_path, 0), [
            {"kind": "cell_start", "cell": 0, "t": now - 40, "label": "lru",
             "workload": "mcf", "total_accesses": 1000,
             "watchdog_seconds": 90.0, "pid": 7},
            {"kind": "heartbeat", "cell": 0, "t": now - 30,
             "accesses": 100, "rate": 10.0},
        ])
        status = load_fleet(tmp_path, stall_after=5.0, now_wall=now)
        rendered = render_top(status)
        assert "2 cell(s)" in rendered
        assert "1 stalled" in rendered
        assert "1 pending" in rendered
        assert "STALLED cell 0 (lru on mcf)" in rendered
        assert "WatchdogTimeout fires in" in rendered


# ----------------------------------------------------------------------
# Acceptance: the stall is visible before the watchdog fires
# ----------------------------------------------------------------------

class _BlockingCache:
    """Delegating cache whose Nth access blocks until released.

    ``access_batch`` is masked so run_trace takes the scalar path and
    the block lands mid-chunk — exactly how a genuinely wedged worker
    looks to the telemetry channel (heartbeats stop between chunks).
    """

    access_batch = None

    def __init__(self, inner, release, block_at):
        self._inner = inner
        self._release = release
        self._block_at = block_at
        self._count = 0

    def access(self, address, write=False):
        self._count += 1
        if self._count == self._block_at:
            self._release.wait(timeout=30.0)
        return self._inner.access(address, write)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestStallDetection:
    def test_top_reports_stall_before_watchdog_fires(
        self, tmp_path, capsys
    ):
        trace = small_trace(length=20_000)
        release = threading.Event()
        watchdog_seconds = 120.0

        def make_cache(seed):
            return _BlockingCache(
                make_scheme("lru", SCALE.geometry(), seed=seed),
                release, block_at=10_000,
            )

        telemetry = CellTelemetry(eager_spec(tmp_path), 0, "lru", trace.name)
        outcome = {}

        def run():
            outcome["result"] = guarded_run(
                make_cache, trace, scheme="lru", base_seed=9,
                options=RunOptions(watchdog_seconds=watchdog_seconds),
                telemetry=telemetry,
            )

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        try:
            deadline = time.monotonic() + 20.0
            status = None
            while time.monotonic() < deadline:
                status = load_fleet(tmp_path, stall_after=0.3)
                if status.stalled_cells:
                    break
                time.sleep(0.05)
            assert status is not None and status.stalled_cells, (
                "stall never detected"
            )
            cell = status.stalled_cells[0]
            # The verdict lands while the watchdog still has most of its
            # budget left — the whole point of the heartbeat channel.
            assert "WatchdogTimeout fires in" in cell.stall_verdict
            assert cell.accesses_done > 0
            assert cell.accesses_done < len(trace)

            exit_code = main([
                "top", str(tmp_path), "--once", "--stall-after", "0.3",
            ])
            captured = capsys.readouterr()
            assert exit_code == 3
            assert "STALLED cell 0" in captured.out
            assert "WatchdogTimeout fires in" in captured.out
            assert (tmp_path / "status.json").is_file()
        finally:
            release.set()
            worker.join(timeout=30.0)
        assert not worker.is_alive()
        assert isinstance(outcome["result"], RunResult)
        telemetry.close()
        # After release the run completes normally and the channel shows
        # a clean finish.
        final = load_fleet(tmp_path, stall_after=30.0)
        assert final.cells[0].state == "done"


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------

class TestTopCli:
    def test_top_missing_directory_exits_2(self, tmp_path, capsys):
        assert main(["top", str(tmp_path / "nope"), "--once"]) == 2
        assert "no telemetry directory" in capsys.readouterr().err

    def test_top_once_on_finished_grid(self, tmp_path, capsys):
        run_matrix(
            [small_trace("omnetpp", 6_000)], ["lru"], scale=SCALE,
            telemetry_dir=tmp_path,
        )
        assert main(["top", str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "1 done" in out
        assert "status.json" in out

    def test_top_json_prints_status_document(self, tmp_path, capsys):
        run_matrix(
            [small_trace("omnetpp", 6_000)], ["lru"], scale=SCALE,
            telemetry_dir=tmp_path,
        )
        # The grid runner writes its own final status.json; remove it
        # to prove --json is the no-file-round-trip surface.
        (tmp_path / "status.json").unlink()
        assert main(["top", str(tmp_path), "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["finished"] is True
        assert document["counts"]["done"] == 1
        assert len(document["cells"]) == 1
        assert not (tmp_path / "status.json").exists()
