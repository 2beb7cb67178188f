"""The append-only JSONL contract (:mod:`repro.common.jsonl`), fuzzed.

Small real files of each format — a 2-cell campaign journal, a 3-entry
bench history, a cell telemetry status file and a traced event log —
are cut at every byte offset, and separately have every byte
overwritten with ``0xff``.  For a cut, the format's reader returns
exactly the records whose newline precedes it, never raises, and flags
a torn tail exactly when the cut falls mid-line; one more append
through the format's writer extends that prefix by the new record.
For a bad byte, ``SKIP`` readers never raise and ``STRICT``/``TAIL``
readers raise only library errors.
"""

import json
import os
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

import pytest

from repro.cache.geometry import CacheGeometry
from repro.common.errors import CampaignError, ConfigError, ReproError
from repro.common.jsonl import SKIP, STRICT, TAIL, read_jsonl
from repro.obs.tracer import Tracer
from repro.obs.benchhistory import append_history, load_history, make_entry
from repro.obs.events import event_from_dict
from repro.obs.fleet import load_fleet
from repro.obs.sinks import (
    FilteredSink,
    JsonlSink,
    load_events,
    load_events_report,
)
from repro.obs.telemetry import (
    CellTelemetry,
    TelemetrySpec,
    cell_status_path,
    read_status_lines,
)
from repro.sim.campaign import CampaignJournal, load_journal, run_campaign
from repro.sim.config import make_scheme
from repro.sim.simulator import run_trace
from repro.workloads.spec_like import make_benchmark_trace

GEOMETRY = CacheGeometry(num_sets=16, associativity=4)


def telemetry_spec(run_dir):
    return TelemetrySpec(
        run_dir=str(run_dir), grid_span="grid-fuzz", heartbeat_seconds=0.0
    )


def history_entry(day):
    return make_entry(
        {"lru": {"accesses_per_sec": 1000.0 + day, "manifest_hash": "h"}},
        recorded_at=f"2026-08-{day:02d}T00:00:00+00:00",
    )


def untimed(record):
    """A status record without its wall-clock stamp."""
    return {key: value for key, value in record.items() if key != "t"}


# ----------------------------------------------------------------------
# The formats: a real file, its reader and its writer
# ----------------------------------------------------------------------

def build_journal(directory):
    spec = directory / "spec.json"
    spec.write_text(json.dumps({
        "name": "fuzz",
        "schemes": ["lru"],
        "benchmarks": ["mcf", "art"],
        "geometries": [{"sets": 16, "assoc": 4}],
        "trace_length": 1_000,
    }), encoding="utf-8")
    run_campaign(spec, directory=directory / "camp")
    return directory / "camp" / "campaign.jsonl"


def append_journal(path):
    with CampaignJournal(path) as journal:
        journal.append("campaign_resume", pending=0)
    return {"kind": "campaign_resume", "pending": 0}


def build_history(directory):
    path = directory / "history.jsonl"
    for day in (1, 2, 3):
        append_history(path, history_entry(day))
    return path


def append_history_entry(path):
    append_history(path, history_entry(9))
    return history_entry(9)


def build_status(directory):
    telemetry = CellTelemetry(telemetry_spec(directory), 0, "lru", "mcf")
    telemetry.cell_start(total_accesses=600, seed=1)
    trace = make_benchmark_trace("mcf", num_sets=16, length=600)
    run_trace(make_scheme("lru", GEOMETRY), trace, telemetry=telemetry)
    telemetry.cell_end("ok")
    telemetry.close()
    return cell_status_path(directory, 0)


def append_status(path):
    # ``path`` is cell 0's status file under ``path.parent.parent``.
    with CellTelemetry(
        telemetry_spec(path.parent.parent), 0, "lru", "mcf"
    ) as telemetry:
        telemetry.attempt_failed(attempt=1, seed=2, error="boom")
    return {
        "kind": "attempt_failed", "cell": 0, "attempt": 1, "seed": 2,
        "error": "boom",
    }


def read_status(path):
    records, truncated = read_status_lines(path)
    return [untimed(record) for record in records], truncated


def build_events(directory):
    path = directory / "events.jsonl"
    trace = make_benchmark_trace("omnetpp", num_sets=16, length=800)
    with JsonlSink(path) as sink:
        tracer = Tracer(
            FilteredSink(sink, ("coupling", "decoupling", "policy_swap"))
        )
        run_trace(make_scheme("stem", GEOMETRY, tracer=tracer), trace)
    return path


def read_events(path):
    events, skipped = load_events_report(path, strict=False)
    return events, bool(skipped)


def read_history(path):
    return load_history(path), read_jsonl(path, TAIL).torn


@dataclass(frozen=True)
class Format:
    build: Callable[[Any], Any]
    #: The format's reader as ``(records, torn)``.
    read: Callable[[Any], Tuple[List[Any], bool]]
    #: The recovery policy ``read`` applies.
    policy: str
    #: Maps one parsed line of the original file to what ``read`` returns.
    parse: Callable[[Any], Any] = lambda record: record
    #: Appends through the format's writer, returning the new record.
    append: Optional[Callable[[Any], Any]] = None


FORMATS = {
    "journal": Format(build_journal, load_journal, TAIL,
                      append=append_journal),
    "history": Format(build_history, read_history, TAIL,
                      append=append_history_entry),
    "status": Format(build_status, read_status, SKIP, parse=untimed,
                     append=append_status),
    "events": Format(build_events, read_events, SKIP,
                     parse=event_from_dict),
}


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """Format name -> the bytes of a real file its writer produced."""
    return {
        name: fmt.build(tmp_path_factory.mktemp(name)).read_bytes()
        for name, fmt in FORMATS.items()
    }


def parsed(fmt, data):
    return [fmt.parse(json.loads(line)) for line in data.splitlines()]


def rewrite(path, data):
    # Replacing the file is several times faster than truncating it in
    # place, which matters at thousands of offsets.
    path.unlink(missing_ok=True)
    path.write_bytes(data)


# ----------------------------------------------------------------------
# Every byte offset
# ----------------------------------------------------------------------

@pytest.fixture
def no_fsync(monkeypatch):
    # fsync makes a record durable, not different; thousands of appends
    # run much faster without it.
    monkeypatch.setattr(os, "fsync", lambda fd: None)


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_cut_at_every_offset_keeps_exactly_the_complete_records(
    name, originals, tmp_path, no_fsync
):
    fmt = FORMATS[name]
    data = originals[name]
    records = parsed(fmt, data)
    assert len(records) >= 2 and data.endswith(b"\n")
    ends = [offset + 1 for offset, byte in enumerate(data) if byte == 0x0A]
    # Every format is cut at cell 0's status path, so the status writer
    # can append to it; the other readers and writers take any path.
    path = cell_status_path(tmp_path, 0)
    path.parent.mkdir(parents=True)
    for offset in range(len(data) + 1):
        prefix = records[:bisect_right(ends, offset)]
        mid_line = offset > 0 and data[offset - 1] != 0x0A
        rewrite(path, data[:offset])
        assert fmt.read(path) == (prefix, mid_line), offset
        if fmt.append is not None:
            new = fmt.append(path)
            assert fmt.read(path) == (prefix + [new], False), offset


def test_strict_event_log_refuses_a_torn_tail_and_any_bad_byte(
    originals, tmp_path
):
    data = originals["events"]
    events = parsed(FORMATS["events"], data)
    ends = [offset + 1 for offset, byte in enumerate(data) if byte == 0x0A]
    path = tmp_path / "events.jsonl"
    for offset in range(len(data) + 1):
        rewrite(path, data[:offset])
        if offset == 0 or data[offset - 1] == 0x0A:
            assert load_events(path) == events[:bisect_right(ends, offset)]
        else:
            with pytest.raises(ConfigError, match="malformed event line"):
                load_events(path)
    for offset in range(len(data)):
        rewrite(path, data[:offset] + b"\xff" + data[offset + 1:])
        with pytest.raises(ConfigError, match="malformed event line"):
            load_events(path)


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_bad_byte_at_every_offset_is_skipped_or_a_library_error(
    name, originals, tmp_path
):
    fmt = FORMATS[name]
    data = originals[name]
    records = parsed(fmt, data)
    lines = [json.loads(line) for line in data.splitlines()]
    path = tmp_path / "log.jsonl"
    for offset in range(len(data)):
        rewrite(path, data[:offset] + b"\xff" + data[offset + 1:])
        # The bad byte damages its own line, or the two lines joined
        # where it replaced a newline: every other record survives.
        tolerant = read_jsonl(path, SKIP)
        assert len(tolerant.records) >= len(lines) - 2, offset
        assert all(record in lines for record in tolerant.records), offset
        for policy in (STRICT, TAIL):
            try:
                read_jsonl(path, policy)
            except ReproError:
                pass
        if fmt.policy == SKIP:
            got, _torn = fmt.read(path)
            assert all(record in records for record in got), offset
        else:
            try:
                fmt.read(path)
            except ReproError:
                pass


# ----------------------------------------------------------------------
# A line of non-UTF-8 bytes in each format
# ----------------------------------------------------------------------

class TestBadBytesLine:
    def test_status_readers_skip_it(self, originals, tmp_path):
        path = cell_status_path(tmp_path, 0)
        path.parent.mkdir(parents=True)
        path.write_bytes(originals["status"] + b"\xff\n")
        records, truncated = read_status_lines(path)
        assert truncated
        assert [untimed(record) for record in records] == parsed(
            FORMATS["status"], originals["status"]
        )
        (cell,) = load_fleet(tmp_path).cells
        assert cell.state == "done"

    def test_tolerant_event_load_skips_it(self, originals, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_bytes(b"\xff\n" + originals["events"])
        with pytest.warns(UserWarning, match="skipped unreadable"):
            events = load_events(path, strict=False)
        assert events == parsed(FORMATS["events"], originals["events"])

    def test_journal_raises_campaign_error(self, originals, tmp_path):
        path = tmp_path / "campaign.jsonl"
        path.write_bytes(originals["journal"] + b"\xff\n")
        with pytest.raises(CampaignError, match="is corrupt"):
            load_journal(path)

    def test_history_raises_config_error(self, originals, tmp_path):
        path = tmp_path / "history.jsonl"
        path.write_bytes(originals["history"] + b"\xff\n")
        with pytest.raises(ConfigError, match="malformed ledger line"):
            load_history(path)
