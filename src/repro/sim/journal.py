"""The campaign journal: its writer, its replay and ``campaign status``.

``campaign.jsonl`` is the append-only record of a campaign's cells
(DESIGN.md §12): :class:`CampaignJournal` appends and fsyncs each
record, :func:`load_journal` reads them under the torn-tail contract of
:mod:`repro.common.jsonl`, :func:`replay_journal` folds them into
per-cell state, and :func:`campaign_status` renders that state.

The module imports only :mod:`repro.common`, so ``repro campaign
status`` replays a journal without loading the simulator, the schemes
or the process pool; :mod:`repro.sim.campaign` runs campaigns over the
same names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.common.errors import CampaignError
from repro.common.jsonl import TAIL, JsonlAppender, JsonlCorruption, read_jsonl

#: Journal format marker, recorded in ``campaign_start``.
JOURNAL_FORMAT = 1


class CampaignJournal(JsonlAppender):
    """Append-only ``campaign.jsonl`` writer with per-record durability.

    Every record is one JSON line, flushed *and fsynced* before
    :meth:`append` returns: after a crash the journal is complete up to
    the final record, which at worst is torn mid-line — a state
    :func:`load_journal` tolerates.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        super().__init__(path, fsync=True)

    def append(self, kind: str, **fields: Any) -> None:
        self.write({"kind": kind, **fields})


def _journal_record(record: Any) -> Dict[str, Any]:
    if not isinstance(record, dict):
        raise ValueError("record is not an object")
    return record


def load_journal(
    path: Union[str, Path]
) -> Tuple[List[Dict[str, Any]], bool]:
    """Read journal records, tolerating a torn final line.

    Returns ``(records, truncated)``; ``truncated`` is True when bytes
    follow the last newline — the signature of a crash mid-append,
    which per-record fsync guarantees is the *only* possible damage.  A
    malformed line anywhere else is real corruption and raises
    :class:`~repro.common.errors.CampaignError`.  A missing journal
    reads as empty.
    """
    path = Path(path)
    try:
        read = read_jsonl(path, TAIL, convert=_journal_record)
    except FileNotFoundError:
        return [], False
    except OSError as exc:
        raise CampaignError(
            f"cannot read campaign journal {path}: {exc}"
        ) from exc
    except JsonlCorruption as exc:
        raise CampaignError(
            f"campaign journal {path} line {exc.line} is corrupt "
            f"(not torn-tail damage): {exc.reason}"
        ) from exc
    return read.records, read.torn


@dataclass
class JournalState:
    """The replayed view of a campaign journal."""

    spec_digest: Optional[str] = None
    name: Optional[str] = None
    total_cells: Optional[int] = None
    started: Dict[int, str] = field(default_factory=dict)
    completed: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    failed: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    truncated: bool = False
    records: int = 0

    @property
    def in_flight(self) -> List[int]:
        """Cells started but never finished — a worker died on them."""
        return sorted(
            index for index in self.started
            if index not in self.completed and index not in self.failed
        )


def replay_journal(path: Union[str, Path]) -> JournalState:
    """Fold journal records into per-cell terminal state (last wins).

    A cell record is ignored unless its ``cell`` is an integer; a
    ``cell_done`` also needs a string ``digest`` and a ``cell_failed``
    an object ``failure``, the fields every reader of the state takes.
    """
    records, truncated = load_journal(path)
    state = JournalState(truncated=truncated, records=len(records))
    for record in records:
        kind = record.get("kind")
        if kind == "campaign_start":
            state.spec_digest = record.get("spec_digest")
            state.name = record.get("name")
            state.total_cells = record.get("total_cells")
        elif kind == "cell_start":
            index = record.get("cell")
            if isinstance(index, int):
                state.started[index] = str(record.get("id", ""))
        elif kind == "cell_done":
            index = record.get("cell")
            if isinstance(index, int) and isinstance(
                record.get("digest"), str
            ):
                state.completed[index] = record
                state.failed.pop(index, None)
        elif kind == "cell_failed":
            index = record.get("cell")
            if isinstance(index, int) and isinstance(
                record.get("failure"), dict
            ):
                state.failed[index] = record
                state.completed.pop(index, None)
        # campaign_resume / campaign_end carry no per-cell state.
    return state


def campaign_status(directory: Union[str, Path]) -> str:
    """Human-readable journal replay for ``repro campaign status``."""
    directory = Path(directory)
    journal_path = directory / "campaign.jsonl"
    if not journal_path.exists():
        raise CampaignError(f"no campaign journal at {journal_path}")
    state = replay_journal(journal_path)
    name = state.name or directory.name
    done = len(state.completed)
    failed = len(state.failed)
    in_flight = len(state.in_flight)
    lines: List[str] = []
    if state.total_cells is not None:
        pendings = max(0, state.total_cells - done - failed - in_flight)
        lines.append(
            f"campaign {name}: {state.total_cells} cells — {done} done, "
            f"{failed} quarantined, {in_flight} in flight, "
            f"{pendings} pending"
        )
    else:
        lines.append(
            f"campaign {name}: {done} done, {failed} quarantined, "
            f"{in_flight} in flight (no campaign_start record)"
        )
    if state.truncated:
        lines.append(
            "journal tail is torn (crash mid-append) — tolerated; "
            "resume re-runs any cell the torn record finished"
        )
    for index in sorted(state.failed):
        record = state.failed[index]
        # The failure's fields as journaled; replay checked that it is
        # an object.
        failure = record["failure"]
        lines.append(
            f"  quarantined cell {index:05d} {record.get('id', '?')}: "
            f"{failure.get('error_type', '?')}: "
            f"{failure.get('message', '')}"
        )
    return "\n".join(lines) + "\n"
