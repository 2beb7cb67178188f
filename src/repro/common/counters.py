"""Saturating counters — the decision hardware of DIP, SBC and STEM.

Three flavours appear in the reproduced designs:

* :class:`SaturatingCounter` — STEM's per-set ``SC_S``/``SC_T`` (k = 4 in
  Table 3): unsigned, clamps at ``[0, 2^k - 1]``, exposes ``msb`` (STEM's
  giver test) and ``saturated`` (taker / policy-swap tests).
* :class:`PolicySelector` — DIP's PSEL dueling counter: unsigned counter
  whose MSB arbitrates between two policies.
* :class:`SignedSaturatingCounter` — SBC's saturation level, the
  difference between miss and hit counts clamped to a signed range.
"""

from __future__ import annotations

from repro.common.errors import ConfigError


class SaturatingCounter:
    """Unsigned k-bit saturating counter."""

    __slots__ = ("bits", "max_value", "_value")

    def __init__(self, bits: int, initial: int = 0) -> None:
        if bits <= 0:
            raise ConfigError(f"counter width must be positive, got {bits}")
        self.bits = bits
        self.max_value = (1 << bits) - 1
        if not 0 <= initial <= self.max_value:
            raise ConfigError(
                f"initial value {initial} out of range [0, {self.max_value}]"
            )
        self._value = initial

    @property
    def value(self) -> int:
        """Current counter value."""
        return self._value

    @property
    def saturated(self) -> bool:
        """True when the counter has reached its maximum."""
        return self._value == self.max_value

    @property
    def msb(self) -> int:
        """Most significant bit — STEM's giver/taker discriminator."""
        return (self._value >> (self.bits - 1)) & 1

    def increment(self, amount: int = 1) -> None:
        """Add ``amount``, clamping at the maximum."""
        self._value = min(self.max_value, self._value + amount)

    def decrement(self, amount: int = 1) -> None:
        """Subtract ``amount``, clamping at zero."""
        self._value = max(0, self._value - amount)

    def reset(self, value: int = 0) -> None:
        """Force the counter to ``value`` (bounds-checked)."""
        if not 0 <= value <= self.max_value:
            raise ConfigError(
                f"reset value {value} out of range [0, {self.max_value}]"
            )
        self._value = value

    def flip_bit(self, bit: int) -> None:
        """Toggle one stored bit — the fault-injection surface.

        Models a single-event upset in the counter register; the result
        is always within range, so a flipped counter silently steers
        classification decisions rather than crashing the controller.
        """
        if not 0 <= bit < self.bits:
            raise ConfigError(
                f"bit {bit} out of range for a {self.bits}-bit counter"
            )
        self._value ^= 1 << bit

    def __repr__(self) -> str:
        return f"SaturatingCounter(bits={self.bits}, value={self._value})"


class PolicySelector:
    """DIP's PSEL: an unsigned dueling counter read through its MSB.

    Misses in the first policy's leader sets increment the counter;
    misses in the second policy's leaders decrement it.  The MSB selects
    the follower policy: MSB = 0 picks policy 0, MSB = 1 picks policy 1
    (the convention from Qureshi et al., ISCA 2007).
    """

    __slots__ = ("_counter",)

    def __init__(self, bits: int = 10) -> None:
        if bits <= 0:
            raise ConfigError(f"PSEL width must be positive, got {bits}")
        midpoint = 1 << (bits - 1)
        self._counter = SaturatingCounter(bits, initial=midpoint)

    @property
    def value(self) -> int:
        """Raw counter value (mainly for tests and introspection)."""
        return self._counter.value

    def policy0_missed(self) -> None:
        """Record a miss in a policy-0 leader set."""
        self._counter.increment()

    def policy1_missed(self) -> None:
        """Record a miss in a policy-1 leader set."""
        self._counter.decrement()

    def winner(self) -> int:
        """Index (0 or 1) of the policy followers should use."""
        return self._counter.msb  # MSB set -> policy 0 missing more -> use 1


class SignedSaturatingCounter:
    """Signed saturating counter clamped to [-limit, +limit].

    SBC defines a set's *saturation level* as the difference between its
    miss and hit counts; hardware would keep it in a signed register of
    modest width, so we clamp symmetrically.
    """

    __slots__ = ("limit", "_value")

    def __init__(self, limit: int, initial: int = 0) -> None:
        if limit <= 0:
            raise ConfigError(f"limit must be positive, got {limit}")
        if not -limit <= initial <= limit:
            raise ConfigError(
                f"initial value {initial} out of range [{-limit}, {limit}]"
            )
        self.limit = limit
        self._value = initial

    @property
    def value(self) -> int:
        """Current signed value."""
        return self._value

    def increment(self, amount: int = 1) -> None:
        """Add ``amount``, clamping at ``+limit``."""
        self._value = min(self.limit, self._value + amount)

    def decrement(self, amount: int = 1) -> None:
        """Subtract ``amount``, clamping at ``-limit``."""
        self._value = max(-self.limit, self._value - amount)

    def reset(self, value: int = 0) -> None:
        """Force the counter to ``value`` (bounds-checked)."""
        if not -self.limit <= value <= self.limit:
            raise ConfigError(
                f"reset value {value} out of range [{-self.limit}, {self.limit}]"
            )
        self._value = value

    def __repr__(self) -> str:
        return f"SignedSaturatingCounter(limit={self.limit}, value={self._value})"
