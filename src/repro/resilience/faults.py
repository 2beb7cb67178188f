"""Deterministic, seeded fault injection into simulated cache state.

A campaign is described by a :class:`FaultPlan` — *what* to corrupt
(``sc_s``, ``sc_t``, ``shadow``, ``association``, ``heap``, ``trace``),
*how many* times, and *when* (a fractional window of the run).  The
plan is expanded against a trace length and a seed into a concrete,
sorted injection schedule; every random choice (which access, which
set, which bit) comes from one SplitMix64 stream, so the same plan +
seed + workload reproduces the same campaign bit for bit.

:class:`InjectingCache` wraps any scheme object and applies the
schedule as the access stream flows through it, which lets the
unmodified :func:`~repro.sim.simulator.run_trace` drive a faulted run.
Targets a scheme does not have (e.g. ``sc_s`` on plain LRU) are
recorded as skipped rather than failing the campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.cache.access import AccessKind
from repro.common.errors import ConfigError
from repro.common.rng import SplitMix
from repro.obs.events import FaultInjected
from repro.obs.tracer import NULL_TRACER, Tracer

#: Every injectable structure, in canonical order.
FAULT_TARGETS = ("sc_s", "sc_t", "shadow", "association", "heap", "trace")


@dataclass(frozen=True)
class FaultSpec:
    """One line of a plan: inject ``count`` faults into ``target``.

    ``start``/``stop`` bound the injection window as fractions of the
    run, mirroring how :class:`~repro.sim.config.ExperimentScale`
    expresses its warm-up boundary.
    """

    target: str
    count: int = 1
    start: float = 0.0
    stop: float = 1.0

    def __post_init__(self) -> None:
        if self.target not in FAULT_TARGETS:
            raise ConfigError(
                f"unknown fault target {self.target!r}; "
                f"known: {', '.join(FAULT_TARGETS)}"
            )
        if self.count < 1:
            raise ConfigError(
                f"fault count must be >= 1, got {self.count}"
            )
        if not 0.0 <= self.start < self.stop <= 1.0:
            raise ConfigError(
                f"fault window [{self.start}, {self.stop}) must satisfy "
                "0 <= start < stop <= 1"
            )


@dataclass(frozen=True)
class ScheduledFault:
    """A concrete injection: corrupt ``target`` before access ``index``."""

    index: int
    target: str


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of :class:`FaultSpec` lines.

    The compact text syntax (the CLI's ``--plan``) is comma-separated
    ``target[:count][@start[-stop]]`` items::

        sc_s:3,association:1@0.5,trace:8@0.25-0.75

    meaning three SC_S bit flips anywhere in the run, one association
    glitch in the second half, and eight trace-record glitches in the
    middle two quarters.
    """

    specs: Tuple[FaultSpec, ...]

    def __post_init__(self) -> None:
        if not self.specs:
            raise ConfigError("a fault plan needs at least one spec")

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the compact ``target[:count][@start[-stop]]`` syntax."""
        specs: List[FaultSpec] = []
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            window = (0.0, 1.0)
            if "@" in item:
                item, window_text = item.split("@", 1)
                try:
                    if "-" in window_text:
                        start_text, stop_text = window_text.split("-", 1)
                        window = (float(start_text), float(stop_text))
                    else:
                        window = (float(window_text), 1.0)
                except ValueError as exc:
                    raise ConfigError(
                        f"bad fault window {window_text!r} in {item!r}"
                    ) from exc
            count = 1
            if ":" in item:
                item, count_text = item.split(":", 1)
                try:
                    count = int(count_text)
                except ValueError as exc:
                    raise ConfigError(
                        f"bad fault count {count_text!r} in plan item"
                    ) from exc
            specs.append(FaultSpec(
                target=item.strip(),
                count=count,
                start=window[0],
                stop=window[1],
            ))
        return cls(specs=tuple(specs))

    def describe(self) -> str:
        """Canonical round-trippable text form of the plan."""
        items = []
        for spec in self.specs:
            item = f"{spec.target}:{spec.count}"
            if (spec.start, spec.stop) != (0.0, 1.0):
                item += f"@{spec.start:g}-{spec.stop:g}"
            items.append(item)
        return ",".join(items)

    def total_faults(self) -> int:
        """Number of injections the plan asks for."""
        return sum(spec.count for spec in self.specs)

    def schedule(self, length: int, rng: SplitMix) -> List[ScheduledFault]:
        """Expand into concrete access indices, sorted by time.

        Consumes ``rng`` deterministically: specs in plan order, then
        ``count`` draws each, so the same plan + seed always yields the
        same schedule.
        """
        if length <= 0:
            raise ConfigError(f"trace length must be positive, got {length}")
        scheduled: List[ScheduledFault] = []
        for spec in self.specs:
            low = int(spec.start * length)
            high = max(low, int(spec.stop * length) - 1)
            for _ in range(spec.count):
                scheduled.append(ScheduledFault(
                    index=rng.randint(low, high), target=spec.target
                ))
        scheduled.sort(key=lambda fault: (fault.index, fault.target))
        return scheduled


class FaultInjector:
    """Applies a :class:`FaultPlan` to a live cache, deterministically.

    The injector owns one SplitMix64 stream seeded by the campaign
    seed; the schedule and every corruption choice draw from it in a
    fixed order.  Each applied (or skipped) fault is appended to
    :attr:`log` — the campaign report's raw material — and emitted as a
    ``fault_injected`` trace event when a tracer is enabled.
    """

    def __init__(
        self,
        plan: FaultPlan,
        length: int,
        seed: int,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.plan = plan
        self.seed = seed
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._rng = SplitMix(seed=seed)
        self.schedule = plan.schedule(length, self._rng)
        self._cursor = 0
        self.log: List[Dict[str, Any]] = []

    @property
    def applied(self) -> int:
        """Faults actually applied so far."""
        return sum(1 for entry in self.log if not entry.get("skipped"))

    @property
    def skipped(self) -> int:
        """Scheduled faults the target scheme had no structure for."""
        return sum(1 for entry in self.log if entry.get("skipped"))

    def counts_by_target(self) -> Dict[str, int]:
        """{target: applied count}, keyed in canonical target order."""
        counts = {target: 0 for target in FAULT_TARGETS}
        for entry in self.log:
            if not entry.get("skipped"):
                counts[entry["target"]] += 1
        return {t: c for t, c in counts.items() if c}

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def pending(self, index: int) -> bool:
        """Is any fault scheduled at or before access ``index``?"""
        return (
            self._cursor < len(self.schedule)
            and self.schedule[self._cursor].index <= index
        )

    def step(self, cache: Any, index: int, address: int) -> int:
        """Apply every fault due at access ``index``.

        Returns the (possibly glitched) address the access should use.
        """
        while self.pending(index):
            fault = self.schedule[self._cursor]
            self._cursor += 1
            if fault.target == "trace":
                address = self._glitch_address(cache, index, address)
            else:
                self._apply_state_fault(cache, fault.target, index)
        return address

    # ------------------------------------------------------------------
    # Corruption per target
    # ------------------------------------------------------------------

    def _glitch_address(self, cache: Any, index: int, address: int) -> int:
        geometry = getattr(cache, "geometry", None)
        address_bits = getattr(geometry, "address_bits", None) or 44
        bit = self._rng.randint(0, address_bits - 1)
        glitched = address ^ (1 << bit)
        self._record(
            cache, "trace", set_index=-1,
            detail=f"access={index} bit={bit}", index=index,
        )
        return glitched

    def _apply_state_fault(
        self, cache: Any, target: str, index: int
    ) -> None:
        rng = self._rng
        if target in ("sc_s", "sc_t"):
            # STEM's per-set SC_S / SC_T lists carry the targets' names.
            counters = getattr(cache, target, None)
            if not counters:
                self._skip(cache, target, index)
                return
            set_index = rng.randint(0, len(counters) - 1)
            # A single-event upset in the k-bit register: the value
            # stays in range and silently steers classification.
            bit = rng.randint(0, cache.config.counter_bits - 1)
            counters[set_index] ^= 1 << bit
            self._record(
                cache, target, set_index=set_index,
                detail=f"bit={bit}", index=index,
            )
        elif target == "shadow":
            shadows = getattr(cache, "shadow_order", None)
            if not shadows:
                self._skip(cache, target, index)
                return
            set_index = rng.randint(0, len(shadows) - 1)
            ranks = shadows[set_index]
            dropped = None
            if ranks:
                dropped = ranks[rng.randint(0, len(ranks) - 1)]
                ranks.remove(dropped)
                cache.shadow_members[set_index].discard(dropped)
            bogus = rng.randint(0, (1 << cache.config.shadow_tag_bits) - 1)
            cache.shadow_insert(set_index, bogus, bool(rng.randint(0, 1)))
            self._record(
                cache, "shadow", set_index=set_index,
                detail=f"dropped={dropped} inserted={bogus}", index=index,
            )
        elif target == "association":
            table = getattr(cache, "association", None)
            if table is None:
                self._skip(cache, target, index)
                return
            # A glitch in the table RAM: one entry takes any set index.
            entry = rng.randint(0, len(table) - 1)
            value = rng.randint(0, len(table) - 1)
            table[entry] = value
            self._record(
                cache, "association", set_index=entry,
                detail=f"entry={entry} value={value}", index=index,
            )
        elif target == "heap":
            heap = getattr(cache, "heap", None)
            if heap is None:
                self._skip(cache, target, index)
                return
            geometry = getattr(cache, "geometry", None)
            num_sets = getattr(geometry, "num_sets", 1)
            # A glitched slot may name a set beyond the end of the LLC;
            # lazy pop-time validation is expected to discard it.
            bogus_set = rng.randint(0, 2 * num_sets - 1)
            saturation = rng.randint(0, 15)
            heap.force_entry(bogus_set, saturation)
            self._record(
                cache, "heap", set_index=-1,
                detail=f"slot={bogus_set} saturation={saturation}",
                index=index,
            )
        else:  # pragma: no cover — FaultSpec validates targets
            raise ConfigError(f"unknown fault target {target!r}")

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def _record(
        self, cache: Any, target: str, set_index: int, detail: str,
        index: int,
    ) -> None:
        self.log.append({
            "index": index,
            "target": target,
            "set_index": set_index,
            "detail": detail,
        })
        tracer = self.tracer
        if tracer.enabled:
            stats = getattr(cache, "stats", None)
            accesses = getattr(stats, "accesses", 0)
            tracer.emit(FaultInjected(
                access=accesses,
                set_index=set_index,
                global_access=getattr(cache, "global_accesses", accesses),
                target=target,
                detail=detail,
            ))

    def _skip(self, cache: Any, target: str, index: int) -> None:
        self.log.append({
            "index": index,
            "target": target,
            "set_index": -1,
            "detail": "target not present on this scheme",
            "skipped": True,
        })


class InjectingCache:
    """Transparent cache wrapper that injects faults mid-stream.

    Delegates every attribute to the wrapped cache, intercepting only
    ``access`` to count the access index and give the injector its
    chance to corrupt state (or the address itself) first — so the
    standard :func:`~repro.sim.simulator.run_trace` loop drives a
    faulted run unchanged.
    """

    #: Mask the wrapped cache's batched fast path: ``__getattr__`` would
    #: otherwise hand the simulator a loop that skips fault injection.
    access_batch = None

    def __init__(self, cache: Any, injector: FaultInjector) -> None:
        self._cache = cache
        self._injector = injector
        self._index = 0

    def access(self, address: int, is_write: bool = False) -> AccessKind:
        index = self._index
        self._index = index + 1
        injector = self._injector
        if injector.pending(index):
            address = injector.step(self._cache, index, address)
        return self._cache.access(address, is_write)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._cache, name)
