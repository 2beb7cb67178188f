"""The options a grid cell runs under, as one :class:`RunOptions` value.

Grid entry points, cells, :func:`~repro.resilience.harness.guarded_run`
and campaign specs all carry this one value.  It checks every option
once, when it is built, and :meth:`RunOptions.cache_key_fields` states
which options a cell's run-cache key covers (DESIGN.md §9).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.common.errors import ConfigError
from repro.resilience.faults import FaultPlan
from repro.sim.columnar import BACKENDS
from repro.sim.config import MachineConfig

if TYPE_CHECKING:
    from repro.resilience.harness import RetryPolicy


@dataclass(frozen=True)
class RunOptions:
    """How a cell runs, beyond its scheme, trace, geometry and seed.

    ``warmup_fraction`` of the trace primes the cache; ``machine`` is
    the timing model; ``metrics_window`` opts into windowed metrics
    (DESIGN.md §10); ``ledger`` attaches the capacity-flow ledger
    (§14); ``backend`` picks the execution path (§13); ``fault_plan``
    (:class:`~repro.resilience.faults.FaultPlan` text) wraps the
    cell's scheme in an injector; ``retry`` is an isolated cell's
    :class:`~repro.resilience.harness.RetryPolicy`; and
    ``watchdog_seconds`` is a wall-clock deadline on each run.
    """

    warmup_fraction: float = 0.25
    machine: MachineConfig = field(default_factory=MachineConfig)
    metrics_window: Optional[int] = None
    ledger: bool = False
    backend: Optional[str] = None
    fault_plan: Optional[str] = None
    retry: Optional[RetryPolicy] = None
    watchdog_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        # Messages read "key: problem", so a spec loader that prefixes
        # its file name still names the offending key.
        window, deadline = self.metrics_window, self.watchdog_seconds
        for name, valid, expected in (
            ("warmup_fraction", 0.0 <= self.warmup_fraction < 1.0,
             "must lie in [0, 1)"),
            ("metrics_window", window is None or window >= 1,
             "must be >= 1"),
            ("ledger", isinstance(self.ledger, bool),
             "expected true or false"),
            ("backend", self.backend is None or self.backend in BACKENDS,
             f"expected one of {', '.join(BACKENDS)}"),
            ("watchdog_seconds", deadline is None or deadline > 0,
             "must be positive"),
        ):
            if not valid:
                raise ConfigError(
                    f"{name}: {expected}, got {getattr(self, name)!r}"
                )
        if self.fault_plan is not None:
            FaultPlan.parse(self.fault_plan)

    def cache_key_fields(self) -> Dict[str, Any]:
        """What these options add to a cell's run-cache key.

        Warm-up, timing model and metrics window shape every result, so
        they are always in the key.  A fault plan and the ledger are in
        it only when set, so keys from before they existed stay valid.
        Backend, retry policy and watchdog never change a cached result
        (backends are exact and only first attempts are cached), so
        they are never in it.
        """
        fields: Dict[str, Any] = {
            "warmup_fraction": self.warmup_fraction,
            "machine": asdict(self.machine),
            "metrics_window": self.metrics_window,
        }
        if self.fault_plan is not None:
            fields["fault_plan"] = self.fault_plan
        if self.ledger:
            fields["ledger"] = True
        return fields

    def run_trace_kwargs(self) -> Dict[str, Any]:
        """These options as :func:`~repro.sim.simulator.run_trace` keywords.

        ``fault_plan`` and ``retry`` act around a run, so they have none.
        """
        return {
            "warmup_fraction": self.warmup_fraction,
            "machine": self.machine,
            "metrics_window": self.metrics_window,
            "ledger": self.ledger,
            "backend": self.backend,
            "deadline_seconds": self.watchdog_seconds,
        }
