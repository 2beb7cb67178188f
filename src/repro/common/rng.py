"""Deterministic pseudo-random sources modelled after cheap hardware.

The paper relies on randomness in two places: BIP inserts at MRU "with a
low probability" (1/32 in the DIP paper) and STEM decrements the spatial
saturating counter once per 2^n LLC hits "in a probabilistic way that the
counter is decremented only when an n-bit value produced by a random
number generator is zero" (Section 4.4), noting the generator "can be
simply incorporated in the LLC controller".  A hardware LLC controller
would use an LFSR, so we provide one: deterministic, seedable, and
trivially cheap, which keeps every simulation bit-for-bit reproducible.
"""

from __future__ import annotations

import sys
from array import array
from typing import Dict, List, Tuple

from repro.common.errors import ConfigError

#: Taps for a maximal-length 16-bit Fibonacci LFSR (x^16+x^14+x^13+x^11+1).
_TAPS_16 = (15, 13, 12, 10)

#: next_bits() calls of one width before a jump table is built for it.
#: Cold widths (H3 matrix setup draws a handful of 16-bit values) never
#: pay the one-time table construction; hot widths (BIP/STEM throttle
#: decisions, millions per run) amortise it within a fraction of a run.
_JUMP_BUILD_THRESHOLD = 4096


class Lfsr:
    """16-bit maximal-length linear feedback shift register.

    The period is 2**16 - 1, which is ample for deciding 1/2^n events; the
    statistical quality requirements here are modest (the hardware being
    modelled would use something equally simple).

    Hot widths are served from class-level *jump tables*: for a width
    ``w``, ``_JUMP_TABLES[w]`` maps every 16-bit state to the value of
    the next ``w`` output bits and to the state after emitting them, so
    ``next_bits``/``one_in`` become two list lookups instead of ``w``
    shift-register steps.  Tables are built lazily (after
    ``_JUMP_BUILD_THRESHOLD`` uses of a width, or on demand via
    :meth:`jump_table`) from one walk of the *same* recurrence, so the
    output stream is bit-for-bit identical with and without them.
    """

    __slots__ = ("_state",)

    #: width -> (value-of-next-w-bits per state, state after w steps).
    _JUMP_TABLES: Dict[int, Tuple[List[int], List[int]]] = {}
    _JUMP_USE_COUNTS: Dict[int, int] = {}
    #: The 65,535 non-zero states in stepping order, walked once.
    _CYCLE: List[int] = []

    def __init__(self, seed: int = 0xACE1) -> None:
        seed &= 0xFFFF
        if seed == 0:
            raise ConfigError("LFSR seed must be non-zero in 16 bits")
        self._state = seed

    @property
    def state(self) -> int:
        """Current 16-bit register contents."""
        return self._state

    def next_bit(self) -> int:
        """Advance one step and return the new output bit."""
        s = self._state
        bit = ((s >> _TAPS_16[0]) ^ (s >> _TAPS_16[1])
               ^ (s >> _TAPS_16[2]) ^ (s >> _TAPS_16[3])) & 1
        self._state = ((s << 1) | bit) & 0xFFFF
        return bit

    @classmethod
    def jump_table(cls, width: int) -> Tuple[List[int], List[int]]:
        """Build (or fetch) the width-step jump table.

        Index the two returned lists by the current 16-bit state: the
        first yields ``next_bits(width)``'s value, the second the state
        afterwards.  State 0 is unreachable (the all-zero LFSR state is
        rejected at construction) and maps to itself.
        """
        if width <= 0:
            raise ConfigError(f"width must be positive, got {width}")
        table = cls._JUMP_TABLES.get(width)
        if table is not None:
            return table
        if width <= 16:
            # Each step shifts its output bit in at the bottom, so after
            # w <= 16 steps the low w bits of the state are exactly the
            # w output bits: the value is the later state, masked.
            cycle = cls._state_cycle()
            states = [0] * 0x10000
            for state, after in zip(cycle, cycle[width:] + cycle[:width]):
                states[state] = after
            mask = (1 << width) - 1
            values = [after & mask for after in states]
        else:
            # Wider draws are 16 bits, then the remaining width - 16.
            head_values, head_states = cls.jump_table(16)
            tail_values, tail_states = cls.jump_table(width - 16)
            shift = width - 16
            values = [
                (head_values[state] << shift)
                | tail_values[head_states[state]]
                for state in range(0x10000)
            ]
            states = [tail_states[after] for after in head_states]
        table = (values, states)
        cls._JUMP_TABLES[width] = table
        return table

    @classmethod
    def _state_cycle(cls) -> List[int]:
        """Every non-zero state, in the order the register visits them.

        The register is maximal-length, so one walk from any seed
        passes all 65,535 non-zero states before it returns.
        """
        if not cls._CYCLE:
            cycle = []
            state = 1
            for _ in range(0xFFFF):
                cycle.append(state)
                bit = ((state >> 15) ^ (state >> 13)
                       ^ (state >> 12) ^ (state >> 10)) & 1
                state = ((state << 1) | bit) & 0xFFFF
            cls._CYCLE = cycle
        return cls._CYCLE

    def next_bits(self, width: int) -> int:
        """Return ``width`` fresh pseudo-random bits as an integer."""
        table = Lfsr._JUMP_TABLES.get(width)
        if table is not None:
            values, states = table
            s = self._state
            self._state = states[s]
            return values[s]
        if width <= 0:
            raise ConfigError(f"width must be positive, got {width}")
        counts = Lfsr._JUMP_USE_COUNTS
        counts[width] = uses = counts.get(width, 0) + 1
        if uses >= _JUMP_BUILD_THRESHOLD:
            values, states = Lfsr.jump_table(width)
            s = self._state
            self._state = states[s]
            return values[s]
        value = 0
        for _ in range(width):
            value = (value << 1) | self.next_bit()
        return value

    def one_in(self, power: int) -> bool:
        """True with probability 1/2**power (the paper's n-bit-zero test)."""
        if power <= 0:
            return True
        return self.next_bits(power) == 0


#: SplitMix64 step: the state advances by the golden gamma, and each
#: output is the new state through two xor-shift-multiply rounds.
#: ``SplitMix`` steps it one draw at a time; ``SplitMixBlock`` computes
#: many consecutive draws at once from the same constants.
SPLITMIX_MASK = (1 << 64) - 1
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
SPLITMIX_MIX1 = 0xBF58476D1CE4E5B9
SPLITMIX_MIX2 = 0x94D049BB133111EB
#: ``random()`` divides a 64-bit output by this to land in [0, 1).
SPLITMIX_SCALE = float(1 << 64)

#: Per block size: (a 1 in every 128-bit lane, the low 64 bits of every
#: lane, lane k holding (k + 1) * gamma mod 2**64).
_LANE_CONSTANTS: Dict[int, Tuple[int, int, int]] = {}


def _lane_constants(count: int) -> Tuple[int, int, int]:
    constants = _LANE_CONSTANTS.get(count)
    if constants is None:
        ones = int.from_bytes((b"\x01" + bytes(15)) * count, "little")
        low = int.from_bytes((b"\xff" * 8 + bytes(8)) * count, "little")
        ramp = int.from_bytes(b"".join(
            ((k * SPLITMIX_GAMMA) & SPLITMIX_MASK).to_bytes(16, "little")
            for k in range(1, count + 1)
        ), "little")
        constants = _LANE_CONSTANTS[count] = (ones, low, ramp)
    return constants


def splitmix_cut(x: float) -> int:
    """The largest 64-bit ``u`` with ``u / SPLITMIX_SCALE < x``, or -1.

    ``u / SPLITMIX_SCALE`` never decreases as ``u`` grows, so the float
    test ``SplitMix.random() < x`` is exactly ``next_u64() <= cut``.
    The cut comes from a binary search over that same float expression,
    because the division rounds: every ``u >= 2**64 - 1024`` divides to
    exactly 1.0, so ``splitmix_cut(1.0)`` is ``2**64 - 1025``.
    """
    low, high = -1, 1 << 64  # u / SCALE < x holds at low, fails at high
    while high - low > 1:
        middle = (low + high) >> 1
        if middle / SPLITMIX_SCALE < x:
            low = middle
        else:
            high = middle
    return low


class SplitMixBlock:
    """The ``count`` SplitMix64 outputs that follow ``state``, at once.

    ``values[k]`` is what ``next_u64()`` returns on its ``k + 1``-th
    call from ``state``.  SplitMix64 is counter based, so the block
    packs every state into its own 128-bit lane of one Python int and
    puts all lanes through the two xor-shift-multiply rounds together:
    about fifteen big-int operations per block instead of a dozen
    interpreted ones per draw.  Each lane is masked to its low 64 bits
    before every multiply (the right shifts pull the next lane's low
    bits into the top of this one) and after it (a 64 x 64-bit product
    fills its 128-bit lane but never carries into the next).
    """

    __slots__ = ("state", "values", "_lanes")

    def __init__(self, state: int, count: int) -> None:
        ones, low, ramp = _lane_constants(count)
        z = (ramp + state * ones) & low
        z = (((z ^ (z >> 30)) & low) * SPLITMIX_MIX1) & low
        z = (((z ^ (z >> 27)) & low) * SPLITMIX_MIX2) & low
        z = (z ^ (z >> 31)) & low
        # array reads native byte order: on a big-endian host the last
        # lane comes first and each lane's zero half precedes its value.
        words = array("Q", z.to_bytes(16 * count, sys.byteorder))
        self.values = words[::2] if sys.byteorder == "little" else words[::-2]
        self.state = state
        self._lanes = z

    def state_at(self, k: int) -> int:
        """The generator state just before ``values[k]`` is drawn."""
        return (self.state + k * SPLITMIX_GAMMA) & SPLITMIX_MASK

    def above(self, cut: int) -> bytes:
        """Byte ``k`` is 1 where ``values[k] > cut`` and 0 elsewhere.

        Adding ``2**64 - 1 - cut`` to every lane carries into bit 64 of
        the lane exactly where the value exceeds ``cut``, and the sum
        stays below 2**65, so byte 8 of each 16-byte lane is the flag.
        """
        count = len(self.values)
        ones = _lane_constants(count)[0]
        carries = self._lanes + (SPLITMIX_MASK - cut) * ones
        return carries.to_bytes(16 * count, "little")[8::16]


class SplitMix:
    """SplitMix64 generator for workload synthesis.

    Workload generators need better-distributed randomness than an LFSR
    but must stay dependency-free and deterministic; SplitMix64 is the
    standard tiny answer.  Not used by any simulated hardware.
    """

    def __init__(self, seed: int = SPLITMIX_GAMMA) -> None:
        self._state = seed & SPLITMIX_MASK

    @property
    def state(self) -> int:
        """Current 64-bit state: a ``SplitMixBlock`` can resume from here."""
        return self._state

    def next_u64(self) -> int:
        """Next 64-bit value."""
        self._state = (self._state + SPLITMIX_GAMMA) & SPLITMIX_MASK
        z = self._state
        z = ((z ^ (z >> 30)) * SPLITMIX_MIX1) & SPLITMIX_MASK
        z = ((z ^ (z >> 27)) * SPLITMIX_MIX2) & SPLITMIX_MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self.next_u64() / SPLITMIX_SCALE

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        if high < low:
            raise ConfigError(f"empty range [{low}, {high}]")
        span = high - low + 1
        return low + self.next_u64() % span

    def choice(self, sequence):
        """Uniformly pick one element of a non-empty sequence."""
        if not sequence:
            raise ConfigError("cannot choose from an empty sequence")
        return sequence[self.next_u64() % len(sequence)]

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            items[i], items[j] = items[j], items[i]
