"""DRRIP — Dynamic RRIP via set dueling (Jaleel et al., ISCA 2010).

An extension policy beyond the paper's evaluated set (DESIGN.md §6
lists it under the ablation/extension targets): SRRIP inserts blocks
with a "long" re-reference prediction, BRRIP inserts "distant" with a
1/32 bimodal exception (the RRIP analogue of BIP), and a PSEL counter
trained on leader sets picks the winner for the followers — exactly
DIP's dueling structure transplanted onto RRIP, which makes it a
natural extra baseline for STEM's set-level adaptivity.
"""

from __future__ import annotations

from typing import List

from repro.common.counters import PolicySelector
from repro.common.errors import ConfigError, SimulationError
from repro.policies.base import ReplacementPolicy

_SRRIP_LEADER = 0
_BRRIP_LEADER = 1
_FOLLOWER = 2


class DrripPolicy(ReplacementPolicy):
    """Set-dueling dynamic RRIP between SRRIP and BRRIP."""

    name = "DRRIP"

    def __init__(
        self,
        rrpv_bits: int = 2,
        leaders_per_policy: int = 32,
        psel_bits: int = 10,
        throttle_bits: int = 5,
    ) -> None:
        super().__init__()
        if rrpv_bits <= 0:
            raise ConfigError(f"rrpv_bits must be positive, got {rrpv_bits}")
        if leaders_per_policy <= 0:
            raise ConfigError(
                f"leaders_per_policy must be positive, got {leaders_per_policy}"
            )
        if throttle_bits < 0:
            raise ConfigError(
                f"throttle_bits must be >= 0, got {throttle_bits}"
            )
        self.rrpv_bits = rrpv_bits
        self.max_rrpv = (1 << rrpv_bits) - 1
        self.leaders_per_policy = leaders_per_policy
        self.psel = PolicySelector(bits=psel_bits)
        self.throttle_bits = throttle_bits
        self._rrpv: List[List[int]] = []
        self._roles: List[int] = []

    def _allocate(self) -> None:
        self._rrpv = [
            [self.max_rrpv] * self.associativity for _ in range(self.num_sets)
        ]
        leaders = min(
            self.leaders_per_policy, max(1, self.num_sets // 32)
        )
        stride = max(2, self.num_sets // leaders)
        self._roles = [_FOLLOWER] * self.num_sets
        for index in range(0, self.num_sets, stride):
            self._roles[index] = _SRRIP_LEADER
        half = stride // 2
        for index in range(half, self.num_sets, stride):
            if self._roles[index] == _FOLLOWER:
                self._roles[index] = _BRRIP_LEADER

    def role_of(self, set_index: int) -> str:
        """'srrip-leader', 'brrip-leader' or 'follower' (for tests)."""
        return ("srrip-leader", "brrip-leader", "follower")[
            self._roles[set_index]
        ]

    def on_hit(self, set_index: int, way: int) -> None:
        self._rrpv[set_index][way] = 0

    def on_miss(self, set_index: int) -> None:
        role = self._roles[set_index]
        if role == _SRRIP_LEADER:
            self.psel.policy0_missed()
        elif role == _BRRIP_LEADER:
            self.psel.policy1_missed()

    def victim(self, set_index: int) -> int:
        values = self._rrpv[set_index]
        for _ in range(self.max_rrpv + 1):
            for way, value in enumerate(values):
                if value == self.max_rrpv:
                    return way
            for way in range(self.associativity):
                values[way] += 1
        raise SimulationError(
            f"DRRIP failed to converge on a victim in set {set_index}"
        )

    def _insert_long(self, set_index: int) -> bool:
        """True -> insert with 'long' RRPV (SRRIP behaviour)."""
        role = self._roles[set_index]
        if role == _SRRIP_LEADER:
            return True
        if role == _BRRIP_LEADER:
            return self.rng.one_in(self.throttle_bits)
        if self.psel.winner() == 0:
            return True
        return self.rng.one_in(self.throttle_bits)

    def on_fill(self, set_index: int, way: int) -> None:
        if self._insert_long(set_index):
            self._rrpv[set_index][way] = self.max_rrpv - 1
        else:
            self._rrpv[set_index][way] = self.max_rrpv

    def on_invalidate(self, set_index: int, way: int) -> None:
        self._rrpv[set_index][way] = self.max_rrpv
