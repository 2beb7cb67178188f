"""Append-only JSON lines: the one implementation of the format.

The contract (DESIGN.md §16): a record is a line that ends in ``\\n``.
Bytes after the last newline are a *torn tail*, what a writer killed
mid-append leaves: no reader counts it as a record, even when it
parses, and :class:`JsonlAppender` truncates it before its first
write.  Blank lines are ignored.  Any other damaged line — not UTF-8,
not JSON, or refused by the reader's ``convert`` — is corruption.
"""

from __future__ import annotations

import atexit
import json
import os
from pathlib import Path
from typing import Any, BinaryIO, Callable, List, NamedTuple, Optional, Union

from repro.common.errors import ReproError

#: Reading policies: refuse any damage, the torn tail included; tolerate
#: only the torn tail; skip damaged lines anywhere.
STRICT, TAIL, SKIP = "strict", "tail", "skip"


class JsonlCorruption(ReproError):
    """Damage the reading policy does not tolerate, at line ``line``."""

    def __init__(self, path: Path, line: int, reason: Exception) -> None:
        super().__init__(f"{path}:{line}: {reason}")
        self.line = line
        self.reason = reason


class JsonlRead(NamedTuple):
    """What :func:`read_jsonl` recovered from one file."""

    records: List[Any]
    #: Non-blank lines not returned as records, the torn tail included.
    skipped: List[int]
    torn: bool


def read_jsonl(
    path: Union[str, Path],
    policy: str,
    convert: Optional[Callable[[Any], Any]] = None,
) -> JsonlRead:
    """Read ``path`` under ``policy``, decoding line by line.

    ``convert`` maps each parsed line to its record and refuses it by
    raising ``ValueError``, ``TypeError`` or a ``ReproError``.  An
    ``OSError`` propagates: what a missing file means is the caller's
    decision.
    """
    path = Path(path)
    *lines, tail = path.read_bytes().split(b"\n")
    records: List[Any] = []
    skipped: List[int] = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line.decode("utf-8"))
            records.append(record if convert is None else convert(record))
        except (ValueError, TypeError, ReproError) as exc:
            if policy != SKIP:
                raise JsonlCorruption(path, number, exc) from exc
            skipped.append(number)
    if tail and policy == STRICT:
        raise JsonlCorruption(path, len(lines) + 1, ValueError("torn tail"))
    if tail:
        skipped.append(len(lines) + 1)
    return JsonlRead(records, skipped, bool(tail))


class JsonlAppender:
    """Append one sorted-key JSON line per record, flushed per record.

    Opens lazily in append mode, so retries, resumes and parent/worker
    handoffs keep earlier records, and trims a torn tail first.
    ``fsync=True`` makes each record durable before :meth:`write`
    returns.  An ``atexit`` close flushes a process that exits without
    unwinding.
    """

    def __init__(self, path: Union[str, Path], fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._handle: Optional[BinaryIO] = None

    def write(self, record: Any) -> None:
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self.path.open("a+b")
            self._handle.seek(0)
            data = self._handle.read()
            if not data.endswith(b"\n"):
                self._handle.truncate(data.rfind(b"\n") + 1)
            atexit.register(self.close)
        line = json.dumps(record, sort_keys=True) + "\n"
        self._handle.write(line.encode("utf-8"))
        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            atexit.unregister(self.close)

    def __enter__(self) -> "JsonlAppender":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
