"""A naive giver heap: the reference for :class:`repro.spatial.heap.GiverHeap`.

This is the heap as it was before it remembered its most-saturated
entry: every offer the full heap might refuse scans all entries with
``max(entries, key=entries.get)``, which returns the first
most-saturated entry in insertion order.  It is slow on purpose and
shares nothing with the heap it checks.
"""

from typing import Callable, Dict, Optional


class NaiveGiverHeap:
    """Bounded least-saturation-first pool, scanning on every offer."""

    def __init__(self, capacity: int = 16) -> None:
        self.capacity = capacity
        self._saturation: Dict[int, int] = {}
        self.offers = 0
        self.replacements = 0

    def __len__(self) -> int:
        return len(self._saturation)

    def __contains__(self, set_index: int) -> bool:
        return set_index in self._saturation

    def offer(self, set_index: int, saturation: int) -> bool:
        self.offers += 1
        entries = self._saturation
        if set_index in entries:
            entries[set_index] = saturation
            return True
        if len(entries) < self.capacity:
            entries[set_index] = saturation
            return True
        worst_index = max(entries, key=entries.get)
        if entries[worst_index] > saturation:
            del entries[worst_index]
            entries[set_index] = saturation
            self.replacements += 1
            return True
        return False

    def remove(self, set_index: int) -> None:
        self._saturation.pop(set_index, None)

    def entries(self) -> Dict[int, int]:
        return dict(self._saturation)

    def force_entry(self, set_index: int, saturation: int) -> None:
        self._saturation[set_index] = saturation

    def pop_best(self, validator: Callable[[int], bool]) -> Optional[int]:
        entries = self._saturation
        while entries:
            best_index = min(entries, key=entries.get)
            del entries[best_index]
            if validator(best_index):
                return best_index
        return None
