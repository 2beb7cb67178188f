"""Memory traces: the unit of work every experiment consumes.

A :class:`Trace` is a compact ``array('Q')`` of physical block
addresses, one unsigned 64-bit word per access (optionally with
per-access write flags), plus :class:`TraceMetadata` describing the
program it stands for — most importantly the instruction count, which
turns miss counts into the paper's MPKI metric.  Traces are plain data:
generators build them, simulators iterate them, and they round-trip
through a small text format for archiving.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.common.errors import TraceError
from repro.common.io import atomic_write


@dataclass(frozen=True)
class TraceMetadata:
    """Descriptive metadata accompanying a trace.

    ``instructions`` is the number of dynamic instructions the trace
    represents; generators derive it from their accesses-per-kilo-
    instruction parameter so MPKI is well defined (DESIGN.md §7).
    """

    name: str
    instructions: int
    line_size: int = 64
    address_bits: int = 44
    description: str = ""
    spec_class: str = ""  # 'I', 'II', 'III' or '' for non-benchmark traces

    def __post_init__(self) -> None:
        if self.instructions <= 0:
            raise TraceError(
                f"instructions must be positive, got {self.instructions}"
            )


@dataclass
class Trace:
    """A sequence of memory accesses with program-level metadata.

    ``addresses`` is an ``array('Q')``: eight bytes per access where a
    list of ints takes about 36, and a pickle ships it as one raw
    buffer.  Any other sequence of ints is converted once on
    construction; a value that does not fit an unsigned 64-bit word
    raises :class:`TraceError` there.  ``writes`` stays a list of bools.
    """

    metadata: TraceMetadata
    addresses: array
    writes: Optional[List[bool]] = field(default=None)
    #: (offset_bits, index_bits) -> (set_indices, tags); derived, never
    #: compared, pickled, or persisted.
    _geometry_cache: Dict[Tuple[int, int], Tuple[List[int], List[int]]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _content_digest: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        addresses = self.addresses
        if type(addresses) is not array or addresses.typecode != "Q":
            try:
                self.addresses = array("Q", addresses)
            except (OverflowError, TypeError) as exc:
                raise TraceError(_unstorable(addresses, exc)) from exc
        if self.writes is not None and len(self.writes) != len(self.addresses):
            raise TraceError(
                "writes mask length does not match the address stream: "
                f"{len(self.writes)} vs {len(self.addresses)}"
            )

    def __getstate__(self) -> dict:
        # Derived caches can be large (two ints per access per geometry);
        # drop them so parallel-worker job payloads stay small.  Workers
        # recompute lazily on first use.
        state = dict(self.__dict__)
        state["_geometry_cache"] = {}
        return state

    def precompute_geometry(
        self, mapper
    ) -> Tuple[List[int], List[int]]:
        """Split every address through ``mapper`` once, with caching.

        Returns ``(set_indices, tags)`` lists index-aligned with
        :attr:`addresses`, so hot loops can skip the per-access
        shift/mask work entirely.  Results are cached per
        ``(offset_bits, index_bits)`` geometry; mutating
        :attr:`addresses` after the first call is unsupported.
        """
        key = (mapper.offset_bits, mapper.index_bits)
        cached = self._geometry_cache.get(key)
        if cached is not None:
            return cached
        offset_bits, index_bits = key
        index_mask = (1 << index_bits) - 1
        set_indices: List[int] = []
        tags: List[int] = []
        append_index = set_indices.append
        append_tag = tags.append
        for address in self.addresses:
            block = address >> offset_bits
            append_index(block & index_mask)
            append_tag(block >> index_bits)
        entry = (set_indices, tags)
        self._geometry_cache[key] = entry
        return entry

    def content_digest(self) -> str:
        """SHA-256 digest over the raw access stream.

        Covers addresses and write flags (not metadata); used as the
        trace component of content-addressed run-cache keys, where the
        *data* fed to the simulator is what must match.
        """
        if self._content_digest is None:
            hasher = hashlib.sha256()
            hasher.update(self.addresses)
            if self.writes is not None:
                hasher.update(b"w")
                hasher.update(bytes(bytearray(self.writes)))
            self._content_digest = hasher.hexdigest()
        return self._content_digest

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[int]:
        return iter(self.addresses)

    @property
    def name(self) -> str:
        """Convenience passthrough to the metadata name."""
        return self.metadata.name

    @property
    def accesses_per_kilo_instruction(self) -> float:
        """APKI — the paper's bridge between misses and MPKI."""
        return len(self.addresses) * 1000.0 / self.metadata.instructions

    def slice(self, start: int, stop: int) -> "Trace":
        """A sub-trace over ``[start, stop)`` with scaled instructions.

        Instruction counts are prorated so MPKI computed on the slice
        remains comparable with the full trace.
        """
        if not 0 <= start <= stop <= len(self.addresses):
            raise TraceError(
                f"slice [{start}, {stop}) out of bounds for {len(self)} accesses"
            )
        fraction = (stop - start) / max(1, len(self.addresses))
        scaled = max(1, round(self.metadata.instructions * fraction))
        metadata = TraceMetadata(
            name=self.metadata.name,
            instructions=scaled,
            line_size=self.metadata.line_size,
            address_bits=self.metadata.address_bits,
            description=self.metadata.description,
            spec_class=self.metadata.spec_class,
        )
        writes = self.writes[start:stop] if self.writes is not None else None
        return Trace(metadata, self.addresses[start:stop], writes)

    # ------------------------------------------------------------------
    # Persistence: a line-oriented text format with a JSON header
    # ------------------------------------------------------------------

    def save(self, path: "Path | str") -> None:
        """Write the trace as '<json header>\\n<hex addr>[ w]\\n...'.

        The header's ``writes`` key says whether the trace has a write
        mask, so an all-read mask survives the round trip (and with it
        the content digest).
        """
        path = Path(path)
        header = {
            "name": self.metadata.name,
            "instructions": self.metadata.instructions,
            "line_size": self.metadata.line_size,
            "address_bits": self.metadata.address_bits,
            "description": self.metadata.description,
            "spec_class": self.metadata.spec_class,
            "writes": self.writes is not None,
        }
        # Write-then-rename so a crash mid-save can never leave a
        # truncated trace where a complete one is expected.
        with atomic_write(path) as handle:
            handle.write(json.dumps(header) + "\n")
            if self.writes is None:
                for address in self.addresses:
                    handle.write(f"{address:x}\n")
            else:
                for address, write in zip(self.addresses, self.writes):
                    suffix = " w" if write else ""
                    handle.write(f"{address:x}{suffix}\n")

    @classmethod
    def load(cls, path: "Path | str") -> "Trace":
        """Read a trace previously written by :meth:`save`.

        Every malformation — a corrupt or incomplete header, a missing
        required key, a non-hex address, a negative address, or an
        address wider than the header's ``address_bits`` or than 64
        bits — raises :class:`TraceError` naming the file (and line),
        never a bare ``KeyError``, ``ValueError`` or ``OverflowError``.
        A header without the ``writes`` key (written before it existed)
        gets a write mask exactly when some line is marked ``w``.
        """
        path = Path(path)
        with path.open("r", encoding="utf-8") as handle:
            header_line = handle.readline()
            try:
                header = json.loads(header_line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"malformed trace header in {path}") from exc
            if not isinstance(header, dict):
                raise TraceError(
                    f"trace header in {path} is not a JSON object"
                )
            for required in ("name", "instructions"):
                if required not in header:
                    raise TraceError(
                        f"trace header in {path} is missing the "
                        f"{required!r} key"
                    )
            try:
                metadata = TraceMetadata(
                    name=header["name"],
                    instructions=header["instructions"],
                    line_size=header.get("line_size", 64),
                    address_bits=header.get("address_bits", 44),
                    description=header.get("description", ""),
                    spec_class=header.get("spec_class", ""),
                )
            except TypeError as exc:
                raise TraceError(
                    f"trace header in {path} has ill-typed values: {exc}"
                ) from exc
            has_mask = header.get("writes")
            if has_mask is not None and not isinstance(has_mask, bool):
                raise TraceError(
                    f"trace header in {path} has ill-typed values: "
                    f"writes must be true or false, got {has_mask!r}"
                )
            address_limit = 1 << metadata.address_bits
            addresses = array("Q")
            writes: List[bool] = []
            any_write = False
            for line_number, line in enumerate(handle, start=2):
                parts = line.split()
                if not parts:
                    continue
                try:
                    address = int(parts[0], 16)
                except ValueError as exc:
                    raise TraceError(
                        f"{path}:{line_number}: bad address {parts[0]!r}"
                    ) from exc
                if address < 0:
                    raise TraceError(
                        f"{path}:{line_number}: negative address "
                        f"{parts[0]!r}"
                    )
                if address >= address_limit:
                    raise TraceError(
                        f"{path}:{line_number}: address {parts[0]!r} wider "
                        f"than address_bits={metadata.address_bits}"
                    )
                try:
                    addresses.append(address)
                except OverflowError as exc:
                    raise TraceError(
                        f"{path}:{line_number}: address {parts[0]!r} does "
                        "not fit in 64 bits"
                    ) from exc
                is_write = len(parts) > 1 and parts[1] == "w"
                writes.append(is_write)
                any_write = any_write or is_write
        if has_mask is None:  # written before the header said
            has_mask = any_write
        return cls(metadata, addresses, writes if has_mask else None)


def _unstorable(addresses: Iterable, error: Exception) -> str:
    """Name the first value of ``addresses`` an ``array('Q')`` rejects."""
    try:
        for index, address in enumerate(addresses):
            try:
                array("Q", (address,))
            except (OverflowError, TypeError):
                return (
                    f"address {index} is {address!r}, which is not an "
                    "unsigned 64-bit integer"
                )
    except TypeError:
        pass
    return f"addresses must be a sequence of ints: {error}"
