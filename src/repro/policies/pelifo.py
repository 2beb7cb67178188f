"""PeLIFO — probabilistic escape LIFO (Chaudhuri, MICRO 2009).

PeLIFO ranks the blocks of a set by *fill order* (a fill stack) and
learns, from the distribution of hit depths in that stack, how far into
the stack blocks keep "escaping" (receiving hits).  It then evicts from
a learned shallow position instead of always evicting the LRU block,
which pins long-lived blocks at the bottom of the stack the way LIP/BIP
do, while set dueling against LRU protects recency-friendly workloads.

Reproduction notes (documented substitution, see DESIGN.md §4): the
original design tracks several candidate escape points with per-point
dueling monitors.  We reproduce the same structure in a compact form:

* every set keeps a fill stack (top = most recently filled);
* a global histogram of hit depths, periodically halved, yields the
  escape probability ``pe(d)`` = fraction of hits at depth >= d;
* three candidate policies duel on interleaved leader sets — LRU,
  pure LIFO (evict the top of the fill stack) and *learned-depth*
  (evict at the shallowest depth whose escape probability falls below
  ``theta``); follower sets copy the current best leader group.

This preserves the published behaviour that matters to the STEM
comparison: PeLIFO matches LRU on recency-friendly workloads and
behaves like an insertion-throttled policy on thrashing ones, while
remaining an application-level (not set-level) mechanism.
"""

from __future__ import annotations

from typing import List

from repro.common.errors import ConfigError, SimulationError
from repro.policies.base import ReplacementPolicy

_MODE_LRU = 0
_MODE_LIFO = 1
_MODE_LEARNED = 2
_MODES = (_MODE_LRU, _MODE_LIFO, _MODE_LEARNED)


class PeLifoPolicy(ReplacementPolicy):
    """Fill-stack replacement with learned probabilistic escape points."""

    name = "PeLIFO"

    def __init__(
        self,
        theta: float = 1.0 / 16.0,
        epoch_length: int = 4096,
        leaders_per_mode: int = 16,
    ) -> None:
        super().__init__()
        if not 0.0 < theta < 1.0:
            raise ConfigError(f"theta must lie in (0, 1), got {theta}")
        if epoch_length <= 0:
            raise ConfigError(
                f"epoch_length must be positive, got {epoch_length}"
            )
        if leaders_per_mode <= 0:
            raise ConfigError(
                f"leaders_per_mode must be positive, got {leaders_per_mode}"
            )
        self.theta = theta
        self.epoch_length = epoch_length
        self.leaders_per_mode = leaders_per_mode
        self._fill_stack: List[List[int]] = []
        self._recency: List[List[int]] = []
        self._roles: List[int] = []
        self._depth_hits: List[int] = []
        self._mode_misses = [0, 0, 0]
        self._mode_accesses = [0, 0, 0]
        self._events = 0
        self._best_mode = _MODE_LRU

    def _allocate(self) -> None:
        self._fill_stack = [[] for _ in range(self.num_sets)]
        self._recency = [[] for _ in range(self.num_sets)]
        self._depth_hits = [0] * self.associativity
        self._mode_misses = [0, 0, 0]
        self._mode_accesses = [0, 0, 0]
        self._events = 0
        self._best_mode = _MODE_LRU
        # Keep the dedicated sample small relative to the cache, as the
        # original design does; tiny test caches get one leader per mode.
        leaders = min(self.leaders_per_mode, max(2, self.num_sets // 32))
        stride = max(3, self.num_sets // leaders)
        # -1 marks followers; leaders rotate through the three modes.
        self._roles = [-1] * self.num_sets
        third = max(1, stride // 3)
        for base in range(0, self.num_sets, stride):
            for offset, mode in ((0, _MODE_LRU), (third, _MODE_LIFO),
                                 (2 * third, _MODE_LEARNED)):
                index = base + offset
                if index < self.num_sets and self._roles[index] == -1:
                    self._roles[index] = mode

    # ------------------------------------------------------------------
    # Learning machinery
    # ------------------------------------------------------------------

    def _mode_for(self, set_index: int) -> int:
        role = self._roles[set_index]
        if role != -1:
            return role
        return self._best_mode

    def _learned_depth(self) -> int:
        """Shallowest depth whose escape probability drops below theta."""
        total = sum(self._depth_hits)
        if total == 0:
            return 0  # No signal yet: behave like pure LIFO.
        threshold = self.theta * total
        escaping = total
        for depth in range(self.associativity):
            if escaping < threshold:
                return depth
            escaping -= self._depth_hits[depth]
        return 0

    def _tick(self) -> None:
        """Count one hit or miss; the epoch's last one runs the election."""
        self._events += 1
        if self._events >= self.epoch_length:
            self._elect()

    def _elect(self) -> None:
        """Epoch end: re-elect the best mode and decay the counters.

        Election compares leader-group miss *rates* rather than raw
        counts so that unevenly-accessed leader sets cannot skew the
        duel (set sampling is sparse by design).  The counters are
        halved in place, so a batch loop holding them stays in step.
        """
        self._events = 0
        misses = self._mode_misses
        accesses = self._mode_accesses
        self._best_mode = min(
            _MODES,
            key=lambda m: misses[m] / accesses[m] if accesses[m] else 1.0,
        )
        for counters in (misses, accesses, self._depth_hits):
            counters[:] = [value // 2 for value in counters]

    # ------------------------------------------------------------------
    # Policy protocol
    # ------------------------------------------------------------------

    def on_hit(self, set_index: int, way: int) -> None:
        stack = self._fill_stack[set_index]
        depth = len(stack) - 1 - stack.index(way)
        self._depth_hits[min(depth, self.associativity - 1)] += 1
        role = self._roles[set_index]
        if role != -1:
            self._mode_accesses[role] += 1
        recency = self._recency[set_index]
        recency.remove(way)
        recency.append(way)
        self._tick()

    def on_miss(self, set_index: int) -> None:
        role = self._roles[set_index]
        if role != -1:
            self._mode_misses[role] += 1
            self._mode_accesses[role] += 1
        self._tick()

    def victim(self, set_index: int) -> int:
        mode = self._mode_for(set_index)
        stack = self._fill_stack[set_index]
        if not stack:
            raise SimulationError(
                f"victim() on empty fill stack for set {set_index}"
            )
        if mode == _MODE_LRU:
            return self._recency[set_index][0]
        if mode == _MODE_LIFO:
            return stack[-1]
        depth = min(self._learned_depth(), len(stack) - 1)
        return stack[len(stack) - 1 - depth]

    def on_fill(self, set_index: int, way: int) -> None:
        stack = self._fill_stack[set_index]
        if way in stack:
            stack.remove(way)
        stack.append(way)
        recency = self._recency[set_index]
        if way in recency:
            recency.remove(way)
        recency.append(way)

    def on_invalidate(self, set_index: int, way: int) -> None:
        stack = self._fill_stack[set_index]
        if way in stack:
            stack.remove(way)
        recency = self._recency[set_index]
        if way in recency:
            recency.remove(way)

    def current_best_mode(self) -> str:
        """Name of the mode follower sets are using (for tests)."""
        return ("LRU", "LIFO", "LEARNED")[self._best_mode]
