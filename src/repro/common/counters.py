"""DIP's policy-selection counter.

STEM's per-set SC_S/SC_T live as plain per-set lists in
:class:`~repro.core.stem_cache.StemCache`; the one counter with an
object of its own is :class:`PolicySelector`, the PSEL that DIP and
DRRIP duel their policies with.
"""

from __future__ import annotations

from repro.common.errors import ConfigError


class PolicySelector:
    """DIP's PSEL: an unsigned dueling counter read through its MSB.

    Misses in the first policy's leader sets increment the counter;
    misses in the second policy's leaders decrement it, clamped to
    ``[0, 2**bits - 1]`` from a start at the midpoint.  The MSB selects
    the follower policy: MSB = 0 picks policy 0, MSB = 1 picks policy 1
    (the convention from Qureshi et al., ISCA 2007).
    """

    __slots__ = ("_max", "_msb_shift", "_value")

    def __init__(self, bits: int = 10) -> None:
        if bits <= 0:
            raise ConfigError(f"PSEL width must be positive, got {bits}")
        self._max = (1 << bits) - 1
        self._msb_shift = bits - 1
        self._value = 1 << (bits - 1)

    @property
    def value(self) -> int:
        """Raw counter value (mainly for tests and introspection)."""
        return self._value

    def policy0_missed(self) -> None:
        """Record a miss in a policy-0 leader set."""
        if self._value < self._max:
            self._value += 1

    def policy1_missed(self) -> None:
        """Record a miss in a policy-1 leader set."""
        if self._value:
            self._value -= 1

    def winner(self) -> int:
        """Index (0 or 1) of the policy followers should use."""
        # MSB set -> policy 0 missing more -> use 1.
        return self._value >> self._msb_shift
