"""Phased and concatenated workloads — adaptivity stress tests.

The paper's schemes are *dynamic*: STEM swaps per-set policies, couples
and decouples pairs as demand shifts.  These helpers build traces whose
demand changes over time so tests and ablation benches can verify that
the adaptive machinery actually tracks phase changes (e.g. a taker set
turning into a giver must eventually decouple, Section 4.7).
"""

from __future__ import annotations

from array import array
from typing import List, Sequence

from repro.common.errors import ConfigError, TraceError
from repro.workloads.generators import WorkloadSpec, generate_trace
from repro.workloads.trace import Trace, TraceMetadata


def concatenate_traces(traces: Sequence[Trace], name: str = "") -> Trace:
    """Join traces back-to-back (they must share the address geometry)."""
    if not traces:
        raise ConfigError("need at least one trace to concatenate")
    first = traces[0].metadata
    for trace in traces[1:]:
        if (trace.metadata.line_size != first.line_size
                or trace.metadata.address_bits != first.address_bits):
            raise TraceError(
                "cannot concatenate traces with different address geometry"
            )
    addresses = array("Q")
    instructions = 0
    any_writes = any(trace.writes is not None for trace in traces)
    writes: List[bool] = []
    for trace in traces:
        addresses.extend(trace.addresses)
        instructions += trace.metadata.instructions
        if any_writes:
            if trace.writes is None:
                writes.extend([False] * len(trace.addresses))
            else:
                writes.extend(trace.writes)
    metadata = TraceMetadata(
        name=name or "+".join(trace.name for trace in traces),
        instructions=instructions,
        line_size=first.line_size,
        address_bits=first.address_bits,
        description="concatenation of " + ", ".join(t.name for t in traces),
    )
    return Trace(metadata, addresses, writes if any_writes else None)


def phased_trace(
    phases: Sequence[WorkloadSpec],
    phase_length: int,
    num_sets: int,
    line_size: int = 64,
    address_bits: int = 44,
    seed: int = 1,
    name: str = "phased",
) -> Trace:
    """One trace whose workload spec changes every ``phase_length`` accesses.

    Each phase draws a fresh set-to-group assignment, so a set that was
    a giver in one phase can become a taker in the next — exercising
    decoupling, role flips and per-set policy swaps.
    """
    if phase_length <= 0:
        raise ConfigError(f"phase_length must be positive, got {phase_length}")
    pieces = [
        generate_trace(
            spec,
            num_sets=num_sets,
            length=phase_length,
            line_size=line_size,
            address_bits=address_bits,
            seed=seed + phase_number,
        )
        for phase_number, spec in enumerate(phases)
    ]
    return concatenate_traces(pieces, name=name)
