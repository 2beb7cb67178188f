"""STEM configuration knobs, defaulted to the paper's Table 3 values."""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class StemConfig:
    """Tunable parameters of the STEM LLC.

    Defaults reproduce Table 3: 4-bit saturating counters (``k``), a
    1/2**3 spatial decrement ratio (``n``), 10-bit shadow-tag hashes
    (``m``) and a small hardware heap of candidate givers.  The two
    boolean flags exist for the ablation benchmarks called out in
    DESIGN.md §6:

    * ``receiving_control`` — STEM's gate that lets a giver refuse
      spills once it stops looking like a giver (Section 4.6).  Turning
      it off yields SBC-style unconditional receiving.
    * ``invert_shadow_policy`` — the shadow set runs the *opposite*
      replacement policy of its LLC set (Section 4.3).  Turning it off
      makes the shadow mirror the set, removing the temporal signal.
    * ``enable_spatial`` / ``enable_temporal`` — disable one of STEM's
      two management dimensions entirely.  Spatial-only STEM keeps the
      coupling machinery but never swaps policies; temporal-only STEM
      duels LRU/BIP per set but never couples.  Together they quantify
      the paper's thesis that *both* dimensions are required.
    * ``safe_mode`` — graceful degradation under state corruption (the
      resilience layer's contract): structural inconsistencies detected
      on the access path or by the periodic invariant sweep trigger a
      repair that decouples the affected pair, resets its SCDM state and
      pins the set to plain LRU, instead of crashing the run.
    * ``safe_mode_check_interval`` — accesses between periodic full
      invariant sweeps while safe mode is active (0 disables the sweep;
      corruption is then only caught when it breaks the access path).

    Two values derive from ``counter_bits`` and are not fields, so
    neither ``asdict()`` nor the manifest hash sees them:
    ``counter_max``, where SC_S and SC_T saturate, and ``giver_bit``,
    the MSB: a set is a giver while its SC_S is below it.
    """

    counter_bits: int = 4
    spatial_ratio_bits: int = 3
    shadow_tag_bits: int = 10
    heap_capacity: int = 16
    bip_throttle_bits: int = 5
    receiving_control: bool = True
    invert_shadow_policy: bool = True
    enable_spatial: bool = True
    enable_temporal: bool = True
    hash_seed: int = 0xACE1
    safe_mode: bool = False
    safe_mode_check_interval: int = 2048

    def __post_init__(self) -> None:
        if self.counter_bits <= 0:
            raise ConfigError(
                f"counter_bits must be positive, got {self.counter_bits}"
            )
        if self.spatial_ratio_bits < 0:
            raise ConfigError(
                f"spatial_ratio_bits must be >= 0, got {self.spatial_ratio_bits}"
            )
        if self.shadow_tag_bits <= 0:
            raise ConfigError(
                f"shadow_tag_bits must be positive, got {self.shadow_tag_bits}"
            )
        if self.heap_capacity <= 0:
            raise ConfigError(
                f"heap_capacity must be positive, got {self.heap_capacity}"
            )
        if self.bip_throttle_bits < 0:
            raise ConfigError(
                f"bip_throttle_bits must be >= 0, got {self.bip_throttle_bits}"
            )
        if self.safe_mode_check_interval < 0:
            raise ConfigError(
                "safe_mode_check_interval must be >= 0, got "
                f"{self.safe_mode_check_interval}"
            )
        # Derived values, set past the frozen dataclass's __setattr__.
        object.__setattr__(self, "counter_max", (1 << self.counter_bits) - 1)
        object.__setattr__(self, "giver_bit", 1 << (self.counter_bits - 1))
