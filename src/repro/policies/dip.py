"""DIP — Dynamic Insertion Policy via set dueling (Qureshi et al., 2007).

DIP dedicates two small groups of *leader* sets to LRU and BIP
respectively.  Misses in LRU leaders increment a PSEL saturating
counter, misses in BIP leaders decrement it, and every *follower* set
uses whichever policy the PSEL's MSB currently favours.  This is the
application/LLC-level adaptivity the STEM paper contrasts with its own
set-level adaptivity (Section 5.2's ``astar`` discussion shows exactly
the failure mode: one global winner imposed on heterogeneous sets).

Leader selection uses the "constituency" layout of the original paper:
with ``num_sets / leaders_per_policy = K``, set ``i`` is an LRU leader
when ``i % K == 0`` and a BIP leader when ``i % K == K // 2``.
"""

from __future__ import annotations

from repro.common.counters import PolicySelector
from repro.common.errors import ConfigError
from repro.policies.base import RecencyPolicy
from repro.policies.bip import DEFAULT_THROTTLE_BITS

#: Target number of leader sets per policy (DIP paper uses 32).
DEFAULT_LEADERS_PER_POLICY = 32

#: Width of the dueling counter (DIP paper uses 10 bits).
DEFAULT_PSEL_BITS = 10

_LRU_LEADER = 0
_BIP_LEADER = 1
_FOLLOWER = 2


class DipPolicy(RecencyPolicy):
    """Set-dueling dynamic insertion between LRU and BIP."""

    name = "DIP"

    def __init__(
        self,
        leaders_per_policy: int = DEFAULT_LEADERS_PER_POLICY,
        psel_bits: int = DEFAULT_PSEL_BITS,
        throttle_bits: int = DEFAULT_THROTTLE_BITS,
    ) -> None:
        super().__init__()
        if leaders_per_policy <= 0:
            raise ConfigError(
                f"leaders_per_policy must be positive, got {leaders_per_policy}"
            )
        if throttle_bits < 0:
            raise ConfigError(
                f"throttle_bits must be >= 0, got {throttle_bits}"
            )
        self.leaders_per_policy = leaders_per_policy
        self.psel = PolicySelector(bits=psel_bits)
        self.throttle_bits = throttle_bits
        self._roles: list = []
        # Per role: True when a fill always lands at MRU.  The follower
        # entry mirrors the PSEL winner; only on_miss moves the PSEL.
        self._always_mru = [True, False, self.psel.winner() == 0]

    def _allocate(self) -> None:
        super()._allocate()
        # Scale the leader population down with the cache so dedicated
        # sets stay a small sample (the DIP paper uses 32 of 2048); tiny
        # test caches keep at least one leader per policy.
        leaders = min(
            self.leaders_per_policy,
            max(1, self.num_sets // 32),
        )
        stride = max(2, self.num_sets // leaders)
        self._roles = [_FOLLOWER] * self.num_sets
        for index in range(0, self.num_sets, stride):
            self._roles[index] = _LRU_LEADER
        half = stride // 2
        for index in range(half, self.num_sets, stride):
            if self._roles[index] == _FOLLOWER:
                self._roles[index] = _BIP_LEADER

    def role_of(self, set_index: int) -> str:
        """Role label for tests: 'lru-leader', 'bip-leader' or 'follower'."""
        return ("lru-leader", "bip-leader", "follower")[self._roles[set_index]]

    def on_miss(self, set_index: int) -> None:
        role = self._roles[set_index]
        if role == _LRU_LEADER:
            self.psel.policy0_missed()
        elif role == _BIP_LEADER:
            self.psel.policy1_missed()
        else:
            return
        self._always_mru[_FOLLOWER] = self.psel.winner() == 0

    def _insert_at_mru(self, set_index: int) -> bool:
        # LRU leaders, and followers while LRU wins, always insert at
        # MRU; the rest draw BIP's 1-in-2**throttle_bits.
        if self._always_mru[self._roles[set_index]]:
            return True
        return self.rng.one_in(self.throttle_bits)
