"""Shared plumbing: addressing, hashing, DIP's PSEL counter, RNGs, statistics."""

from repro.common.addressing import AddressMapper, is_power_of_two, log2_exact
from repro.common.counters import PolicySelector
from repro.common.errors import ConfigError, ReproError, SimulationError, TraceError
from repro.common.hashing import H3Hash, fold_xor, parity
from repro.common.rng import Lfsr, SplitMix
from repro.common.stats import CacheStats

__all__ = [
    "AddressMapper",
    "CacheStats",
    "ConfigError",
    "H3Hash",
    "Lfsr",
    "PolicySelector",
    "ReproError",
    "SimulationError",
    "SplitMix",
    "TraceError",
    "fold_xor",
    "is_power_of_two",
    "log2_exact",
    "parity",
]
