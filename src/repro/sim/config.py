"""Simulation configuration and the scheme factory.

:class:`MachineConfig` collects the Table 1 parameters the timing model
consumes; :func:`make_scheme` builds any of the evaluated LLC schemes
by the names the paper uses, so experiments are driven by declarative
(scheme-name, geometry) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.cache.basecache import SetAssociativeCache
from repro.cache.geometry import CacheGeometry
from repro.common.errors import ConfigError
from repro.common.rng import Lfsr
from repro.obs.tracer import Tracer
from repro.core.stem_cache import StemCache
from repro.policies.registry import make_policy
from repro.spatial.page_coloring import PageColoringCache
from repro.spatial.sbc import SbcCache
from repro.spatial.sbc_static import StaticSbcCache
from repro.spatial.victim_cache import VictimCache
from repro.spatial.vway import VwayCache
from repro.timing.cpi import PAPER_CPI, CpiModel
from repro.timing.latency import PAPER_LATENCY, LatencyModel

#: The five competing schemes of Figures 7-10, plus the LRU baseline.
PAPER_SCHEMES = ("LRU", "DIP", "PeLIFO", "V-Way", "SBC", "STEM")


@dataclass(frozen=True)
class MachineConfig:
    """Timing-relevant machine parameters (Table 1 + DESIGN.md §7)."""

    latency: LatencyModel = PAPER_LATENCY
    cpi: CpiModel = PAPER_CPI


#: Scheme key -> the scheme's class, or the name of the replacement
#: policy a plain set-associative cache runs (a policy's key is its
#: name).  Display names are each class's ``name``; spelling aliases
#: map to the same entry.
_SCHEMES: Dict[str, Union[type, str]] = {
    **{policy: policy for policy in (
        "lru", "lip", "bip", "dip", "fifo", "random", "nru", "srrip",
        "drrip", "pelifo",
    )},
    "v-way": VwayCache,
    "vway": VwayCache,
    "sbc": SbcCache,
    "staticsbc": StaticSbcCache,
    "static-sbc": StaticSbcCache,
    "rocs": PageColoringCache,
    "victim": VictimCache,
    "stem": StemCache,
}

#: Schemes that carry no tracepoints, so take no tracer.
_UNTRACED = (PageColoringCache, VictimCache)


def _display_name(entry: Union[type, str]) -> str:
    return make_policy(entry).name if isinstance(entry, str) else entry.name


def _entry(name: str) -> Union[type, str]:
    entry = _SCHEMES.get(name.lower())
    if entry is None:
        raise ConfigError(
            f"unknown scheme {name!r}; available: {', '.join(available_schemes())}"
        )
    return entry


def available_schemes() -> List[str]:
    """Canonical names of every buildable scheme."""
    return sorted({_display_name(entry) for entry in _SCHEMES.values()})


def registry_scheme_keys() -> List[str]:
    """One factory key per distinct scheme, aliases deduplicated.

    Spelling aliases (``vway``/``v-way``, ``static-sbc``/``staticsbc``)
    map to the same display name; the first registered key wins, in
    registration order — the stable iteration set for anything that
    wants to cover *every* scheme exactly once (e.g. the throughput
    recorder).
    """
    keys: Dict[str, str] = {}
    for key, entry in _SCHEMES.items():
        keys.setdefault(_display_name(entry), key)
    return list(keys.values())


def canonical_scheme_name(name: str) -> str:
    """Map any accepted spelling to the display name used in tables."""
    return _display_name(_entry(name))


def make_scheme(name: str, geometry: CacheGeometry, seed: int = 0xACE1,
                tracer: Optional[Tracer] = None, **kwargs: object):
    """Instantiate the LLC scheme registered under ``name``.

    ``tracer`` is handed to schemes that carry tracepoints (all of the
    paper's competitors) and ``kwargs`` to a scheme class's constructor
    (``config=`` for STEM); a policy cache ignores ``kwargs``.  The
    build seed is stamped on the returned cache as ``cache.seed`` so
    run manifests can record it.
    """
    entry = _entry(name)
    rng = Lfsr(seed=seed)
    if isinstance(entry, str):
        cache = SetAssociativeCache(
            geometry, make_policy(entry), rng=rng, tracer=tracer
        )
    elif issubclass(entry, _UNTRACED):
        cache = entry(geometry, rng=rng, **kwargs)
    else:
        cache = entry(geometry, rng=rng, tracer=tracer, **kwargs)
    cache.seed = seed
    return cache


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that trade fidelity for wall-clock time.

    ``paper()`` mirrors the publication's configuration; ``default()``
    is the laptop-scale setting used by the experiment scripts; and
    ``smoke()`` keeps the benchmark suite fast.
    """

    num_sets: int = 256
    associativity: int = 16
    trace_length: int = 400_000
    warmup_fraction: float = 0.25
    machine: MachineConfig = field(default_factory=MachineConfig)

    def __post_init__(self) -> None:
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigError(
                f"warmup_fraction must lie in [0, 1), got {self.warmup_fraction}"
            )

    def geometry(self, associativity: Optional[int] = None,
                 line_size: int = 64) -> CacheGeometry:
        """The LLC geometry at this scale."""
        return CacheGeometry(
            num_sets=self.num_sets,
            associativity=(
                associativity if associativity is not None
                else self.associativity
            ),
            line_size=line_size,
        )

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """Table 1's 2 MB / 16-way / 2048-set LLC (slow in pure Python)."""
        return cls(num_sets=2048, associativity=16, trace_length=2_000_000)

    @classmethod
    def default(cls) -> "ExperimentScale":
        """The laptop-scale configuration used by examples/experiments."""
        return cls()

    @classmethod
    def smoke(cls) -> "ExperimentScale":
        """Small and fast: for tests and pytest-benchmark targets."""
        return cls(num_sets=64, associativity=16, trace_length=60_000)
