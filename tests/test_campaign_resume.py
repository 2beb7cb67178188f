"""Kill-anywhere resume: SIGKILL a live campaign, resume, diff bytes.

The campaign runs as a real subprocess (its own ``campaign.jsonl``,
run cache and pool workers) and is SIGKILLed at a randomized cell —
either the parent orchestrator or one of its pool workers.  The
journal's per-record fsync contract means the surviving file is
replayable (at worst a torn final line), and resuming must produce
``matrix.txt``/``summary.json``/``report.html`` byte-identical to a
campaign that was never interrupted.
"""

import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.sim.campaign import load_journal, replay_journal, run_campaign

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

SPEC = {
    "name": "killable",
    "schemes": ["lru", "stem"],
    "benchmarks": ["mcf", "art", "gobmk"],
    "geometries": [{"sets": 64, "assoc": 8}],
    "trace_length": 8_000,
}

TOTAL_CELLS = 6


def write_spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC), encoding="utf-8")
    return path


def reference_outputs(tmp_path):
    """The uninterrupted run's artefacts (its own directory and cache)."""
    spec_path = write_spec(tmp_path)
    directory = tmp_path / "reference"
    run_campaign(spec_path, directory=directory, jobs=2)
    return {
        name: (directory / name).read_bytes()
        for name in ("matrix.txt", "summary.json", "report.html")
    }


def launch(spec_path, directory):
    """Start a campaign in its own session.

    The new session's process group holds the campaign and every pool
    worker it forks, so :func:`reap` can kill them all at once.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "run",
         str(spec_path), "--dir", str(directory), "--jobs", "2"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )


def group_alive(pgid):
    """True while any process of group ``pgid`` has not exited."""
    proc = Path("/proc")
    if not proc.is_dir():
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return False
        return True
    for entry in proc.iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while we scanned
        # Fields after the parenthesised command name: state, ppid, pgrp.
        state, _ppid, pgrp = stat[stat.rindex(")") + 2:].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            return True
    return False


def reap(process, deadline=30.0):
    """SIGKILL the campaign's process group; assert none of it survives.

    A SIGKILLed campaign parent leaves its pool workers blocked forever
    on the executor's call queue, reparented to init.
    """
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the whole group already exited
    process.wait(timeout=60)
    start = time.monotonic()
    while group_alive(process.pid):
        assert time.monotonic() - start < deadline, (
            f"processes of group {process.pid} survived SIGKILL"
        )
        time.sleep(0.02)


def count_done(journal_path):
    try:
        text = journal_path.read_text(encoding="utf-8")
    except OSError:
        return 0
    return text.count('"kind": "cell_done"')


def wait_for_done_cells(process, journal_path, minimum, deadline=120.0):
    """Poll until ``minimum`` cells are journaled done (or the run ends)."""
    start = time.monotonic()
    while time.monotonic() - start < deadline:
        if count_done(journal_path) >= minimum:
            return True
        if process.poll() is not None:
            return False  # finished before we could interrupt it
        time.sleep(0.02)
    raise AssertionError(
        f"campaign never reached {minimum} done cells within {deadline}s"
    )


def resumed_outputs(spec_path, directory):
    outcome = run_campaign(spec_path, directory=directory, jobs=2)
    assert outcome.ok
    return {
        name: (directory / name).read_bytes()
        for name in ("matrix.txt", "summary.json", "report.html")
    }


class TestParentKill:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_sigkill_parent_then_resume_matches_reference(
        self, tmp_path, seed
    ):
        reference = reference_outputs(tmp_path)
        spec_path = tmp_path / "spec.json"
        directory = tmp_path / f"killed-{seed}"
        journal_path = directory / "campaign.jsonl"
        kill_after = random.Random(seed).randint(1, TOTAL_CELLS - 2)
        process = launch(spec_path, directory)
        try:
            interrupted = wait_for_done_cells(
                process, journal_path, kill_after
            )
            if interrupted:
                process.kill()  # SIGKILL: no handlers, no cleanup
            process.wait(timeout=60)
        finally:
            reap(process)
        # Whatever instant the kill landed at, the journal replays —
        # the only tolerated damage is a torn final line.
        records, truncated = load_journal(journal_path)
        assert records, "journal lost its fsynced records"
        state = replay_journal(journal_path)
        assert len(state.completed) <= TOTAL_CELLS
        assert resumed_outputs(spec_path, directory) == reference

    def test_resume_after_kill_serves_completed_cells(self, tmp_path):
        reference = reference_outputs(tmp_path)
        spec_path = tmp_path / "spec.json"
        directory = tmp_path / "killed"
        journal_path = directory / "campaign.jsonl"
        process = launch(spec_path, directory)
        try:
            interrupted = wait_for_done_cells(process, journal_path, 2)
            if interrupted:
                process.kill()
            process.wait(timeout=60)
        finally:
            reap(process)
        done_before = len(replay_journal(journal_path).completed)
        outcome = run_campaign(spec_path, directory=directory, jobs=2)
        # Every journaled-done cell was served from the journal + run
        # cache, not re-simulated.
        assert outcome.resumed >= done_before
        assert outcome.executed == TOTAL_CELLS - outcome.resumed
        assert {
            name: (directory / name).read_bytes()
            for name in ("matrix.txt", "summary.json", "report.html")
        } == reference


@pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="group membership is read from /proc",
)
class TestOrphanedWorkers:
    def test_pool_workers_exit_when_the_parent_is_killed(self, tmp_path):
        spec_path = write_spec(tmp_path)
        directory = tmp_path / "orphaned"
        process = launch(spec_path, directory)
        try:
            assert wait_for_done_cells(
                process, directory / "campaign.jsonl", 2
            ), "the campaign finished before it could be interrupted"
            process.kill()  # the parent only: its workers are orphaned
            process.wait(timeout=60)
            start = time.monotonic()
            while group_alive(process.pid):
                assert time.monotonic() - start < 10.0, (
                    "pool workers outlived their killed parent"
                )
                time.sleep(0.05)
        finally:
            reap(process)


def pool_worker_pids(parent_pid):
    """Direct children of ``parent_pid`` via /proc (Linux only)."""
    pids = []
    task_dir = Path(f"/proc/{parent_pid}/task")
    try:
        for task in task_dir.iterdir():
            children = (task / "children").read_text().split()
            pids.extend(int(child) for child in children)
    except OSError:
        pass
    return pids


@pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="worker discovery reads /proc",
)
class TestWorkerKill:
    def test_sigkill_worker_then_resume_matches_reference(self, tmp_path):
        reference = reference_outputs(tmp_path)
        spec_path = tmp_path / "spec.json"
        directory = tmp_path / "worker-killed"
        journal_path = directory / "campaign.jsonl"
        process = launch(spec_path, directory)
        try:
            start = time.monotonic()
            workers = []
            while time.monotonic() - start < 120.0:
                workers = pool_worker_pids(process.pid)
                if workers or process.poll() is not None:
                    break
                time.sleep(0.02)
            if workers and process.poll() is None:
                os.kill(workers[0], signal.SIGKILL)
            # A dead pool worker breaks the ProcessPoolExecutor: the
            # parent exits with an error instead of finishing the grid
            # (unless the race let it finish first).
            process.wait(timeout=120)
        finally:
            reap(process)
        records, _truncated = load_journal(journal_path)
        assert records, "journal lost its fsynced records"
        assert resumed_outputs(spec_path, directory) == reference
