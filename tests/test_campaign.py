"""Tests for the crash-recoverable campaign layer (DESIGN.md §12).

Covers spec preflight validation (errors name file, key path and the
offending value), deterministic cell expansion, the append-only journal
and its torn-tail tolerance, quarantine semantics, byte-stable output
artefacts, the corrupt-run-cache quarantine path, and the clean
``ReproError`` wrapping of environmental write failures.
"""

import json
import sys

import pytest

import repro.sim.campaign as campaign_module
import repro.sim.parallel as parallel_module
from repro.cli import main
from repro.common.errors import (
    CampaignError,
    CampaignSpecError,
    ConfigError,
    ReproError,
)
from repro.common.io import atomic_write, atomic_write_text
from repro.obs.index import ArtifactIndex
from repro.obs.profile import RunProfiler
from repro.obs.server import create_server
from repro.sim.cache import RunCache
from repro.sim.campaign import (
    CampaignJournal,
    build_cells,
    campaign_status,
    load_campaign_spec,
    load_journal,
    replay_journal,
    run_campaign,
)
from repro.sim.parallel import CellSpec, ParallelRunner, cell_cache_key
from repro.workloads.spec_like import make_benchmark_trace


def write_spec(tmp_path, document, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


def count_synthesis(monkeypatch):
    """Record each (benchmark, sets, length) the campaign synthesises."""
    calls = []
    original = campaign_module.make_benchmark_trace

    def counting(name, num_sets, length):
        calls.append((name, num_sets, length))
        return original(name, num_sets=num_sets, length=length)

    monkeypatch.setattr(campaign_module, "make_benchmark_trace", counting)
    return calls


def journaled_keys(directory):
    """Cell index -> the run-cache key its ``cell_done`` record holds."""
    records, _ = load_journal(directory / "campaign.jsonl")
    return {
        record["cell"]: record["key"]
        for record in records if record["kind"] == "cell_done"
    }


SMALL = {
    "name": "small",
    "schemes": ["lru", "stem"],
    "benchmarks": ["mcf", "art"],
    "geometries": [{"sets": 64, "assoc": 8}],
    "trace_length": 6_000,
}


# ----------------------------------------------------------------------
# Spec preflight validation
# ----------------------------------------------------------------------

class TestSpecValidation:
    def test_defaults(self, tmp_path):
        path = write_spec(
            tmp_path, {"schemes": ["lru"], "benchmarks": ["mcf"]}
        )
        spec = load_campaign_spec(path)
        assert spec.name == "spec"  # from the file stem
        assert spec.geometries[0].sets == 256
        assert spec.geometries[0].assoc == 16
        assert spec.seeds == (0xACE1,)
        assert spec.fault_plans == (None,)
        assert spec.options.retry is None

    def test_error_names_file_and_keypath_for_unknown_scheme(self, tmp_path):
        path = write_spec(tmp_path, dict(SMALL, schemes=["lru", "clock"]))
        with pytest.raises(CampaignSpecError) as excinfo:
            load_campaign_spec(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert "schemes[1]" in message
        assert "clock" in message

    def test_unknown_benchmark_set_names_keypath(self, tmp_path):
        path = write_spec(tmp_path, dict(SMALL, benchmarks=["integer"]))
        with pytest.raises(
            CampaignSpecError, match=r"benchmarks\[0\].*'integer'"
        ):
            load_campaign_spec(path)

    def test_unknown_geometry_key_names_keypath(self, tmp_path):
        path = write_spec(
            tmp_path, dict(SMALL, geometries=[{"sets": 64, "ways": 8}])
        )
        with pytest.raises(
            CampaignSpecError, match=r"geometries\[0\]\.ways"
        ):
            load_campaign_spec(path)

    def test_invalid_geometry_value(self, tmp_path):
        path = write_spec(
            tmp_path, dict(SMALL, geometries=[{"sets": 63, "assoc": 8}])
        )
        with pytest.raises(CampaignSpecError, match=r"geometries\[0\]"):
            load_campaign_spec(path)

    def test_unknown_top_level_key(self, tmp_path):
        path = write_spec(tmp_path, dict(SMALL, benchmark=["mcf"]))
        with pytest.raises(CampaignSpecError, match="benchmark"):
            load_campaign_spec(path)

    def test_duplicate_scheme_spelling_rejected(self, tmp_path):
        path = write_spec(tmp_path, dict(SMALL, schemes=["vway", "v-way"]))
        with pytest.raises(CampaignSpecError, match=r"schemes\[1\]"):
            load_campaign_spec(path)

    def test_bool_seed_rejected(self, tmp_path):
        path = write_spec(tmp_path, dict(SMALL, seeds=[True]))
        with pytest.raises(CampaignSpecError, match=r"seeds\[0\]"):
            load_campaign_spec(path)

    def test_warmup_fraction_range(self, tmp_path):
        path = write_spec(tmp_path, dict(SMALL, warmup_fraction=1.5))
        with pytest.raises(CampaignSpecError, match="warmup_fraction"):
            load_campaign_spec(path)

    def test_retry_unknown_key(self, tmp_path):
        path = write_spec(tmp_path, dict(SMALL, retry={"attempts": 3}))
        with pytest.raises(CampaignSpecError, match=r"retry\.attempts"):
            load_campaign_spec(path)

    def test_invalid_fault_plan_names_keypath(self, tmp_path):
        path = write_spec(
            tmp_path, dict(SMALL, fault_plans=["warp_core:2"])
        )
        with pytest.raises(CampaignSpecError, match=r"fault_plans\[0\]"):
            load_campaign_spec(path)

    def test_invalid_json_names_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(CampaignSpecError, match="invalid JSON"):
            load_campaign_spec(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CampaignSpecError, match="cannot read"):
            load_campaign_spec(tmp_path / "absent.json")

    def test_toml_spec(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(
            'name = "t"\nschemes = ["lru"]\nbenchmarks = ["mcf"]\n'
            'fault_plans = ["", "sc_s:2"]\n',
            encoding="utf-8",
        )
        if sys.version_info >= (3, 11):
            spec = load_campaign_spec(path)
            # TOML has no null: "" spells the fault-free plan.
            assert spec.fault_plans == (None, "sc_s:2")
        else:
            with pytest.raises(CampaignSpecError, match="tomllib"):
                load_campaign_spec(path)

    def test_digest_ignores_spelling(self, tmp_path):
        a = load_campaign_spec(write_spec(tmp_path, SMALL, "a.json"))
        b = load_campaign_spec(write_spec(
            tmp_path,
            dict(SMALL, schemes=["LRU", "STEM"], benchmarks=["art", "mcf"]),
            "b.json",
        ))
        assert a.digest() == b.digest()

    def test_digest_tracks_semantics(self, tmp_path):
        a = load_campaign_spec(write_spec(tmp_path, SMALL, "a.json"))
        b = load_campaign_spec(write_spec(
            tmp_path, dict(SMALL, trace_length=7_000), "b.json"
        ))
        assert a.digest() != b.digest()


# ----------------------------------------------------------------------
# Deterministic cell expansion
# ----------------------------------------------------------------------

class TestBuildCells:
    def test_order_and_indices(self, tmp_path):
        spec = load_campaign_spec(write_spec(tmp_path, SMALL))
        cells = build_cells(spec)
        assert [cell.index for cell in cells] == list(range(4))
        # Benchmark-major (sorted), scheme-minor.
        assert [cell.cell_id for cell in cells] == [
            "art/lru/g64x8/s44257",
            "art/stem/g64x8/s44257",
            "mcf/lru/g64x8/s44257",
            "mcf/stem/g64x8/s44257",
        ]

    def test_single_axis_labels_are_plain(self, tmp_path):
        spec = load_campaign_spec(write_spec(tmp_path, SMALL))
        labels = {cell.label for cell in build_cells(spec)}
        assert labels == {"LRU", "STEM"}

    def test_multi_axis_labels(self, tmp_path):
        document = dict(
            SMALL,
            geometries=[{"sets": 64, "assoc": 8}, {"sets": 64, "assoc": 16}],
            seeds=[1, 2],
            fault_plans=[None, "sc_s:2"],
        )
        spec = load_campaign_spec(write_spec(tmp_path, document))
        cells = build_cells(spec)
        assert len(cells) == 2 * 2 * 2 * 2 * 2
        labels = [cell.label for cell in cells]
        assert "LRU@64x8#s1" in labels
        assert "STEM@64x16#s2!sc_s:2" in labels
        # Labels are unique per workload: no two cells of one benchmark
        # collide in the result matrix.
        per_bench = {}
        for cell in cells:
            per_bench.setdefault(cell.benchmark, []).append(cell.label)
        for bench_labels in per_bench.values():
            assert len(bench_labels) == len(set(bench_labels))

    def test_fault_plan_reaches_cell_spec(self, tmp_path):
        document = dict(SMALL, fault_plans=["sc_s:2"])
        spec = load_campaign_spec(write_spec(tmp_path, document))
        cells = build_cells(spec)
        trace = make_benchmark_trace("mcf", num_sets=64, length=1_000)
        assert all(
            cell.cell_spec(spec, trace).options.fault_plan == "sc_s:2"
            for cell in cells
        )
        assert all(
            cell.cell_id.endswith("/f=sc_s:2") for cell in cells
        )


# ----------------------------------------------------------------------
# Journal durability and replay
# ----------------------------------------------------------------------

class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with CampaignJournal(path) as journal:
            journal.append("campaign_start", total_cells=2)
            journal.append("cell_start", cell=0, id="a")
            journal.append("cell_done", cell=0, id="a", digest="d", key="k")
        records, truncated = load_journal(path)
        assert not truncated
        assert [record["kind"] for record in records] == [
            "campaign_start", "cell_start", "cell_done",
        ]

    def test_missing_journal_reads_empty(self, tmp_path):
        assert load_journal(tmp_path / "nope.jsonl") == ([], False)

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with CampaignJournal(path) as journal:
            journal.append("cell_start", cell=0, id="a")
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "cell_done", "cel')
        records, truncated = load_journal(path)
        assert truncated
        assert len(records) == 1

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        path.write_text(
            'garbage\n{"kind": "cell_start", "cell": 0}\n',
            encoding="utf-8",
        )
        with pytest.raises(CampaignError, match="line 1"):
            load_journal(path)

    def test_replay_last_terminal_record_wins(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with CampaignJournal(path) as journal:
            journal.append("cell_start", cell=0, id="a")
            journal.append(
                "cell_failed", cell=0, id="a",
                failure={"workload": "a", "scheme": "LRU",
                         "error_type": "Boom", "message": "x"},
            )
            journal.append("cell_start", cell=0, id="a")
            journal.append("cell_done", cell=0, id="a", digest="d", key="k")
        state = replay_journal(path)
        assert 0 in state.completed
        assert not state.failed
        assert state.in_flight == []

    def test_in_flight_detection(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with CampaignJournal(path) as journal:
            journal.append("cell_start", cell=3, id="c")
        assert replay_journal(path).in_flight == [3]


# ----------------------------------------------------------------------
# run_campaign: resume, quarantine, byte-stable artefacts
# ----------------------------------------------------------------------

def output_bytes(directory):
    return {
        name: (directory / name).read_bytes()
        for name in ("matrix.txt", "summary.json", "report.html")
    }


class TestRunCampaign:
    def test_fresh_run_emits_artifacts(self, tmp_path):
        spec_path = write_spec(tmp_path, SMALL)
        outcome = run_campaign(spec_path, directory=tmp_path / "camp")
        assert outcome.ok
        assert outcome.executed == 4 and outcome.resumed == 0
        assert (tmp_path / "camp" / "campaign.jsonl").exists()
        matrix_text = (tmp_path / "camp" / "matrix.txt").read_text()
        assert "MPKI normalized to LRU" in matrix_text
        summary = json.loads(
            (tmp_path / "camp" / "summary.json").read_text()
        )
        assert summary["total_cells"] == 4
        assert summary["quarantined"] == []
        assert summary["normalized_mpki"]["Geomean"]["LRU"] == 1.0

    def test_resume_is_a_no_op_and_byte_identical(self, tmp_path):
        spec_path = write_spec(tmp_path, SMALL)
        directory = tmp_path / "camp"
        run_campaign(spec_path, directory=directory)
        before = output_bytes(directory)
        outcome = run_campaign(spec_path, directory=directory)
        assert outcome.executed == 0
        assert outcome.resumed == 4
        assert output_bytes(directory) == before

    def test_torn_journal_resumes_byte_identical(self, tmp_path):
        spec_path = write_spec(tmp_path, SMALL)
        directory = tmp_path / "camp"
        run_campaign(spec_path, directory=directory)
        before = output_bytes(directory)
        journal_path = directory / "campaign.jsonl"
        # Keep campaign_start + the first cell's records, then a torn
        # line — the on-disk state an uncooperative SIGKILL leaves.
        lines = journal_path.read_text().splitlines()[:3]
        journal_path.write_text(
            "\n".join(lines) + '\n{"kind": "cell_done", "cel',
            encoding="utf-8",
        )
        outcome = run_campaign(spec_path, directory=directory)
        assert outcome.executed == 3
        assert output_bytes(directory) == before
        # The repaired journal replays cleanly end to end.
        records, truncated = load_journal(journal_path)
        assert not truncated

    def test_journal_missing_final_newline_keeps_resuming(self, tmp_path):
        # A final record that lost only its newline is a torn tail: it
        # must be trimmed, not glued onto the next resume's first record.
        spec_path = write_spec(tmp_path, SMALL)
        directory = tmp_path / "camp"
        run_campaign(spec_path, directory=directory)
        before = output_bytes(directory)
        journal_path = directory / "campaign.jsonl"
        journal_path.write_bytes(journal_path.read_bytes()[:-1])
        for _ in range(2):
            outcome = run_campaign(spec_path, directory=directory)
            assert outcome.executed == 0
            assert output_bytes(directory) == before
        assert "4 done" in campaign_status(directory)
        with ArtifactIndex(":memory:") as index:
            assert index.ingest(directory).skipped == []

    @pytest.mark.parametrize("torn", [False, True], ids=["whole", "torn"])
    def test_complete_resume_leaves_the_journal_alone(self, tmp_path, torn):
        # Nothing executes, so nothing is journaled: the journal every
        # later resume and ingest replays stops growing.  A torn final
        # newline is tolerated as it stands.
        spec_path = write_spec(tmp_path, SMALL)
        directory = tmp_path / "camp"
        run_campaign(spec_path, directory=directory)
        journal_path = directory / "campaign.jsonl"
        if torn:
            journal_path.write_bytes(journal_path.read_bytes()[:-1])
        journal = journal_path.read_bytes()
        for _ in range(2):
            assert run_campaign(spec_path, directory=directory).executed == 0
            assert journal_path.read_bytes() == journal

    def test_resume_that_executes_journals_resume_and_end(self, tmp_path):
        spec_path = write_spec(tmp_path, SMALL)
        directory = tmp_path / "camp"
        run_campaign(spec_path, directory=directory)
        next(iter((directory / "runcache").glob("*/*.json"))).unlink()
        assert run_campaign(spec_path, directory=directory).executed == 1
        records, _ = load_journal(directory / "campaign.jsonl")
        kinds = [record["kind"] for record in records]
        assert kinds.count("campaign_resume") == 1
        assert kinds.count("campaign_end") == 2
        assert kinds[-4:] == [
            "campaign_resume", "cell_start", "cell_done", "campaign_end",
        ]

    def test_two_directories_byte_identical(self, tmp_path):
        spec_path = write_spec(tmp_path, SMALL)
        run_campaign(spec_path, directory=tmp_path / "a")
        run_campaign(spec_path, directory=tmp_path / "b")
        assert output_bytes(tmp_path / "a") == output_bytes(tmp_path / "b")

    def test_spec_change_is_refused_without_fresh(self, tmp_path):
        directory = tmp_path / "camp"
        run_campaign(write_spec(tmp_path, SMALL), directory=directory)
        changed = write_spec(
            tmp_path, dict(SMALL, trace_length=7_000), "changed.json"
        )
        with pytest.raises(CampaignError, match="--fresh"):
            run_campaign(changed, directory=directory)
        outcome = run_campaign(changed, directory=directory, fresh=True)
        assert outcome.executed == 4

    def test_quarantine_contract(self, tmp_path):
        document = dict(
            SMALL,
            benchmarks=["mcf"],
            watchdog_seconds=1e-9,
            retry={"max_attempts": 2, "reseed_step": 10},
        )
        spec_path = write_spec(tmp_path, document)
        directory = tmp_path / "camp"
        outcome = run_campaign(spec_path, directory=directory)
        assert not outcome.ok
        assert len(outcome.quarantined) == 2
        entry = outcome.quarantined[0]
        assert entry.failure.error_type == "WatchdogTimeout"
        assert entry.failure.attempts == 2
        quarantine_files = sorted(
            (directory / "quarantine").glob("cell-*.json")
        )
        assert [path.name for path in quarantine_files] == [
            "cell-00000.json", "cell-00001.json",
        ]
        report = json.loads(quarantine_files[0].read_text())
        assert report["error_type"] == "WatchdogTimeout"
        assert "elapsed_seconds" not in report
        html = (directory / "report.html").read_text()
        assert "degraded: 2 cell(s) quarantined" in html
        assert "WatchdogTimeout" in html
        assert "quarantined cells:" in (
            directory / "matrix.txt"
        ).read_text()

    def test_quarantined_cells_are_not_rerun_on_resume(self, tmp_path):
        document = dict(
            SMALL, benchmarks=["mcf"], watchdog_seconds=1e-9
        )
        spec_path = write_spec(tmp_path, document)
        directory = tmp_path / "camp"
        run_campaign(spec_path, directory=directory)
        before = output_bytes(directory)
        outcome = run_campaign(spec_path, directory=directory)
        assert outcome.executed == 0
        assert len(outcome.quarantined) == 2
        assert output_bytes(directory) == before

    def test_lost_cache_entry_triggers_re_run(self, tmp_path):
        spec_path = write_spec(tmp_path, SMALL)
        directory = tmp_path / "camp"
        run_campaign(spec_path, directory=directory)
        before = output_bytes(directory)
        for shard in (directory / "runcache").glob("*/*.json"):
            shard.unlink()
        outcome = run_campaign(spec_path, directory=directory)
        # Journal says done, but the cache cannot prove it: re-run.
        assert outcome.executed == 4
        assert output_bytes(directory) == before

    def test_status_rendering(self, tmp_path):
        spec_path = write_spec(tmp_path, SMALL)
        directory = tmp_path / "camp"
        run_campaign(spec_path, directory=directory)
        status = campaign_status(directory)
        assert "4 cells" in status and "4 done" in status
        with pytest.raises(CampaignError, match="no campaign journal"):
            campaign_status(tmp_path / "nowhere")


# ----------------------------------------------------------------------
# Malformed journal records are ignored by every reader
# ----------------------------------------------------------------------

#: A cell record whose payload field has the wrong type, by field.
MALFORMED = {
    "digest": {"kind": "cell_done", "key": "k", "digest": {"x": 1}},
    "failure": {"kind": "cell_failed", "failure": "x"},
}


def malform_cell_record(journal_path, cell, field):
    """Replace ``cell``'s terminal record with a malformed one."""
    lines = []
    for line in journal_path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record["kind"] == "cell_done" and record["cell"] == cell:
            record = {"cell": cell, "id": record["id"], **MALFORMED[field]}
        lines.append(json.dumps(record, sort_keys=True))
    journal_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestMalformedJournalRecords:
    @pytest.mark.parametrize("field", sorted(MALFORMED))
    def test_replay_ignores_the_record(self, tmp_path, field):
        spec_path = write_spec(tmp_path, SMALL)
        directory = tmp_path / "camp"
        run_campaign(spec_path, directory=directory)
        malform_cell_record(directory / "campaign.jsonl", 0, field)
        state = replay_journal(directory / "campaign.jsonl")
        assert sorted(state.completed) == [1, 2, 3]
        assert state.failed == {}
        assert state.in_flight == [0]

    @pytest.mark.parametrize("field", sorted(MALFORMED))
    def test_status_ingest_serve_and_resume(self, tmp_path, capsys, field):
        spec_path = write_spec(tmp_path, SMALL)
        directory = tmp_path / "camp"
        run_campaign(spec_path, directory=directory)
        before = output_bytes(directory)
        malform_cell_record(directory / "campaign.jsonl", 0, field)

        assert main(["campaign", "status", str(directory)]) == 0
        assert "3 done, 0 quarantined, 1 in flight" in \
            capsys.readouterr().out
        db = tmp_path / "index.sqlite"
        assert main(["index", "ingest", str(directory), "--db", str(db)]) == 0
        assert "runs: 3 added" in capsys.readouterr().out
        server = create_server(directory)
        server.server_close()
        server.index.close()

        # The cell re-runs and the campaign's artifacts come out as
        # they were.
        assert main([
            "campaign", "run", str(spec_path), "--dir", str(directory)
        ]) == 0
        assert "1 executed, 3 resumed" in capsys.readouterr().out
        assert output_bytes(directory) == before
        assert "4 done" in campaign_status(directory)


# ----------------------------------------------------------------------
# Traces are synthesised only for the cells that execute
# ----------------------------------------------------------------------

class TestSynthesisOnDemand:
    def test_complete_resume_synthesises_nothing(
        self, tmp_path, monkeypatch
    ):
        spec_path = write_spec(tmp_path, SMALL)
        directory = tmp_path / "camp"
        run_campaign(spec_path, directory=directory, jobs=2)
        calls = count_synthesis(monkeypatch)

        def no_pool(*args, **kwargs):
            raise AssertionError("a complete resume started a worker")

        monkeypatch.setattr(parallel_module, "ProcessPoolExecutor", no_pool)
        outcome = run_campaign(spec_path, directory=directory, jobs=2)
        assert (outcome.executed, outcome.resumed) == (0, 4)
        assert calls == []

    def test_lost_cache_entry_synthesises_one_trace(
        self, tmp_path, monkeypatch
    ):
        spec_path = write_spec(tmp_path, SMALL)
        directory = tmp_path / "camp"
        run_campaign(spec_path, directory=directory, jobs=1)
        before = output_bytes(directory)
        # Cell 2 is mcf/lru: benchmark-major over the sorted benchmarks.
        key = journaled_keys(directory)[2]
        RunCache(directory / "runcache").path_for(key).unlink()
        calls = count_synthesis(monkeypatch)
        outcome = run_campaign(spec_path, directory=directory, jobs=1)
        assert calls == [("mcf", 64, 6_000)]
        assert (outcome.executed, outcome.resumed) == (1, 3)
        assert output_bytes(directory) == before

    def test_cold_runs_agree_across_job_counts(self, tmp_path):
        spec_path = write_spec(tmp_path, SMALL)
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        run_campaign(spec_path, directory=serial, jobs=1)
        run_campaign(spec_path, directory=pooled, jobs=2)
        assert output_bytes(pooled) == output_bytes(serial)
        assert journaled_keys(pooled) == journaled_keys(serial)
        assert len(journaled_keys(serial)) == 4


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

class TestCampaignCli:
    def test_run_and_status(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, SMALL)
        directory = tmp_path / "camp"
        assert main([
            "campaign", "run", str(spec_path), "--dir", str(directory)
        ]) == 0
        out = capsys.readouterr().out
        assert "4 executed" in out
        assert main(["campaign", "status", str(directory)]) == 0
        assert "4 done" in capsys.readouterr().out
        # resume is an alias of run
        assert main([
            "campaign", "resume", str(spec_path), "--dir", str(directory)
        ]) == 0
        assert "4 resumed" in capsys.readouterr().out

    def test_quarantine_exit_code(self, tmp_path, capsys):
        document = dict(SMALL, benchmarks=["mcf"], watchdog_seconds=1e-9)
        spec_path = write_spec(tmp_path, document)
        code = main([
            "campaign", "run", str(spec_path),
            "--dir", str(tmp_path / "camp"),
        ])
        assert code == 1
        assert "QUARANTINED" in capsys.readouterr().out

    def test_spec_error_exits_2(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, dict(SMALL, schemes=["clock"]))
        assert main(["campaign", "run", str(spec_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "schemes[0]" in err


# ----------------------------------------------------------------------
# Satellite: corrupt run-cache entries are quarantined, not silent
# ----------------------------------------------------------------------

class TestRunCacheCorruption:
    def _one_cell(self, tmp_path):
        trace = make_benchmark_trace("mcf", num_sets=64, length=4_000)
        from repro.cache.geometry import CacheGeometry
        return CellSpec(
            index=0, scheme="lru", label="LRU", trace=trace,
            geometry=CacheGeometry(
                num_sets=64, associativity=8, line_size=64
            ),
            seed=0xACE1,
        )

    def test_corrupt_entry_renamed_and_counted(self, tmp_path):
        cache = RunCache(tmp_path / "cache")
        spec = self._one_cell(tmp_path)
        runner = ParallelRunner(run_cache=cache)
        runner.run([spec])
        key = cell_cache_key(spec)
        path = cache.path_for(key)
        path.write_text("{definitely not json", encoding="utf-8")
        with pytest.warns(UserWarning, match="corrupt"):
            assert cache.get(key) is None
        assert cache.corrupt_entries == 1
        assert path.with_suffix(".corrupt").exists()
        assert not path.exists()
        # Quarantined once: the next lookup is a plain, warning-free miss.
        assert cache.get(key) is None
        assert cache.corrupt_entries == 1

    def test_profiler_surfaces_corrupt_entries(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        profile_json = tmp_path / "profile.json"
        argv = [
            "bench", "--schemes", "lru", "--benchmarks", "mcf",
            "--sets", "64", "--length", "4000",
            "--run-cache", str(cache_dir),
            "--profile", "--profile-json", str(profile_json),
        ]
        assert main(argv) == 0
        [entry] = cache_dir.glob("*/*.json")
        entry.write_text("{broken", encoding="utf-8")
        capsys.readouterr()
        with pytest.warns(UserWarning, match="corrupt"):
            assert main(argv) == 0
        assert "1 corrupt entry quarantined" in capsys.readouterr().out
        document = json.loads(profile_json.read_text())
        assert document["run_cache"]["corrupt"] == 1

    def test_profiler_render_unchanged_without_corruption(self):
        profiler = RunProfiler()
        profiler.note_run_cache(0, 4)
        assert profiler.render().endswith("0 hit(s), 4 miss(es)")
        assert "corrupt" not in profiler.to_bench_json().get(
            "run_cache", {}
        )


# ----------------------------------------------------------------------
# Satellite: environmental write failures become clean ReproErrors
# ----------------------------------------------------------------------

class TestAtomicWriteErrors:
    def test_missing_directory_is_a_repro_error(self, tmp_path):
        target = tmp_path / "absent" / "file.txt"
        with pytest.raises(ReproError, match="cannot write") as excinfo:
            atomic_write_text(target, "content")
        assert str(target) in str(excinfo.value)
        assert not isinstance(excinfo.value, OSError)

    def test_enospc_mid_stream_is_wrapped_and_cleaned_up(self, tmp_path):
        target = tmp_path / "file.txt"
        with pytest.raises(ReproError, match="No space left"):
            with atomic_write(target) as handle:
                handle.write("partial")
                raise OSError(28, "No space left on device")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # temp file removed

    def test_caller_exceptions_propagate_unwrapped(self, tmp_path):
        target = tmp_path / "file.txt"
        with pytest.raises(ValueError, match="caller bug"):
            with atomic_write(target) as handle:
                handle.write("partial")
                raise ValueError("caller bug")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_cli_maps_write_failure_to_exit_2(self, tmp_path, capsys):
        spec_path = write_spec(tmp_path, SMALL)
        missing = tmp_path / "gone"
        code = main([
            "campaign", "run", str(spec_path),
            "--dir", str(tmp_path / "camp"),
            "--profile-json", str(missing / "profile.json"),
        ])
        assert code == 2
        assert "repro: error: cannot write" in capsys.readouterr().err
