"""Typed trace events emitted by the simulated cache controllers.

Every interesting micro-architectural action — a block leaving a set, a
victim spilling into a coupled partner, a pair forming or dissolving, a
per-set policy swap, a shadow-set hit — has a small frozen dataclass
here.  Events are *data*: caches construct them only when a tracer is
enabled, and the frequent ones (evictions, spills, cooperative hits,
shadow hits, spill rejects) only when a sink reads every event
(:mod:`repro.obs.tracer`); sinks serialise them (``as_dict``), and the
inspection helpers rebuild them from JSONL logs (``event_from_dict``).

All events share three fields:

``access``
    The owning cache's ``stats.accesses`` value at emission time — the
    simulation's clock.  ``reset_stats()`` (the warm-up boundary) also
    resets this clock; it is kept for backward compatibility with
    existing logs and tooling.
``global_access``
    The monotonic access clock: the cache's lifetime access count,
    which ``reset_stats()`` does *not* rewind.  Time-axis analyses
    (coupling lifetimes, swap cadence) key on this clock, so they stay
    correct even when a run traces with warm-up enabled.  Logs written
    before this field existed rebuild with ``global_access=0``;
    :func:`repro.obs.inspect.event_clock` falls back to ``access`` for
    them.
``set_index``
    The *home* set of the action: the evicting set, the spilling taker,
    the swapping set, the shadow-probing set.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, Type

from repro.common.errors import ConfigError


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """Base class for every trace event."""

    kind: ClassVar[str] = "event"

    access: int
    set_index: int
    # Monotonic lifetime clock; 0 marks a record predating the field
    # (reset_stats() never rewinds it, so real emissions are >= 1).
    global_access: int = 0

    def as_dict(self) -> Dict[str, Any]:
        """Flat JSON-serialisable view including the ``kind`` tag."""
        record: Dict[str, Any] = {"kind": self.kind}
        for spec in fields(self):
            record[spec.name] = getattr(self, spec.name)
        return record


@dataclass(frozen=True, slots=True)
class Eviction(TraceEvent):
    """A block was removed from ``set_index`` (mirrors ``stats.evictions``).

    ``cooperative`` marks a giver set evicting a block it cached on
    behalf of its coupled taker.  Spilled victims also produce an
    :class:`Eviction` in the taker (the block left that set) followed by
    a :class:`Spill` recording where it went.
    """

    kind: ClassVar[str] = "eviction"

    tag: int = 0
    dirty: bool = False
    cooperative: bool = False


@dataclass(frozen=True, slots=True)
class Spill(TraceEvent):
    """A taker (``set_index``) displaced a victim into ``giver``."""

    kind: ClassVar[str] = "spill"

    giver: int = -1
    tag: int = 0
    dirty: bool = False


@dataclass(frozen=True, slots=True)
class SpillReject(TraceEvent):
    """Receiving control refused a spill from ``set_index`` to ``giver``."""

    kind: ClassVar[str] = "spill_reject"

    giver: int = -1
    tag: int = 0


@dataclass(frozen=True, slots=True)
class Coupling(TraceEvent):
    """Taker ``set_index`` coupled with ``giver``."""

    kind: ClassVar[str] = "coupling"

    giver: int = -1


@dataclass(frozen=True, slots=True)
class CoopHit(TraceEvent):
    """Taker ``set_index`` hit in space borrowed from ``giver``.

    Mirrors ``stats.cooperative_hits``: the access missed the taker's
    own ways but found the block among the cooperative blocks its
    coupled giver caches on its behalf.  Emitted from the miss path
    only, so it is as rare as the cooperative hits themselves.
    """

    kind: ClassVar[str] = "coop_hit"

    giver: int = -1


@dataclass(frozen=True, slots=True)
class Decoupling(TraceEvent):
    """The (``set_index`` = taker, ``giver``) pair dissolved.

    ``reason`` records *why*: ``giver_drained`` (the giver evicted its
    last cooperative block while still acting as a giver),
    ``role_change`` (the pair dissolved because the giver's demand
    recovered), or ``safe_mode`` (an invariant sweep dissolved the pair
    while repairing the set).  Logs written before the field existed
    rebuild with the empty string.
    """

    kind: ClassVar[str] = "decoupling"

    giver: int = -1
    reason: str = ""


@dataclass(frozen=True, slots=True)
class PolicySwap(TraceEvent):
    """SC_T saturated: ``set_index`` swapped its policy to ``mode``.

    ``hits`` snapshots ``stats.hits`` at the swap, pairing with
    ``access`` so the ledger can compute hit rates for the windows
    before and after each swap without retaining per-access events.
    Old logs rebuild with ``hits=0``.
    """

    kind: ClassVar[str] = "policy_swap"

    mode: str = "LRU"
    hits: int = 0


@dataclass(frozen=True, slots=True)
class ShadowHit(TraceEvent):
    """A miss in ``set_index`` hit the set's shadow tags (SCDM pulse)."""

    kind: ClassVar[str] = "shadow_hit"

    signature: int = 0


@dataclass(frozen=True, slots=True)
class FaultInjected(TraceEvent):
    """A fault campaign corrupted simulated state.

    ``target`` names the structure (``sc_s``, ``sc_t``, ``shadow``,
    ``association``, ``heap``, ``trace``); ``detail`` is a compact,
    deterministic description of exactly what was flipped.  ``set_index``
    is the affected set, or -1 for structures without a home set.
    """

    kind: ClassVar[str] = "fault_injected"

    target: str = ""
    detail: str = ""


@dataclass(frozen=True, slots=True)
class SafeModeEntry(TraceEvent):
    """Safe mode repaired ``set_index`` and pinned it to plain LRU."""

    kind: ClassVar[str] = "safe_mode"

    reason: str = ""


#: Every concrete event type, keyed by its ``kind`` tag.
EVENT_TYPES: Dict[str, Type[TraceEvent]] = {
    cls.kind: cls
    for cls in (
        Eviction,
        Spill,
        SpillReject,
        Coupling,
        CoopHit,
        Decoupling,
        PolicySwap,
        ShadowHit,
        FaultInjected,
        SafeModeEntry,
    )
}


#: Kinds whose every event is a capacity-flow event.  Together with the
#: *cooperative* evictions (a giver dropping a block it cached for its
#: taker) they are everything the capacity-flow ledger reads; a tracer
#: whose sinks read nothing else hands them the spills, cooperative hits
#: and cooperative evictions as fields and counts the other events,
#: building neither (DESIGN.md §14).
CAPACITY_FLOW_KINDS = frozenset(
    {"coupling", "decoupling", "spill", "coop_hit", "policy_swap"}
)


def is_capacity_flow(event: TraceEvent) -> bool:
    """True for the events a capacity-flow sink reads."""
    return event.kind in CAPACITY_FLOW_KINDS or (
        isinstance(event, Eviction) and event.cooperative
    )


def event_from_dict(record: Dict[str, Any]) -> TraceEvent:
    """Rebuild a typed event from an ``as_dict`` / JSONL record."""
    try:
        cls = EVENT_TYPES[record["kind"]]
    except KeyError as exc:
        raise ConfigError(
            f"unknown event kind {record.get('kind')!r}; "
            f"known: {', '.join(sorted(EVENT_TYPES))}"
        ) from exc
    payload = {
        spec.name: record[spec.name]
        for spec in fields(cls)
        if spec.name in record
    }
    return cls(**payload)
