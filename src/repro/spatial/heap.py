"""The hardware heap of candidate giver sets.

STEM keeps "a small number of uncoupled giver sets that are less
saturated than others" in a hardware heap (Section 4.5), similar to
SBC's Destination Set Selector.  When a giver posts itself, the heap
either fills an invalid entry or replaces its most-saturated entry if
the newcomer is less saturated.  When a taker requests a partner, the
heap returns its least-saturated entry that still passes a validity
check (uncoupled, still a giver) — entries are validated lazily at pop
time, the way real tables tolerate stale metadata.

Capacity is small (16 entries by default) so the linear scans below
model exactly what a hardware priority structure would do in parallel.
The heap remembers its most-saturated entry between offers, so an offer
the full heap refuses costs one lookup and a compare instead of a scan.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.common.errors import ConfigError

#: Accepts a candidate set index; False drops the stale entry.
Validator = Callable[[int], bool]


class GiverHeap:
    """Bounded least-saturation-first pool of candidate giver sets."""

    def __init__(self, capacity: int = 16) -> None:
        if capacity <= 0:
            raise ConfigError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._saturation: Dict[int, int] = {}
        # The entry ``max(entries, key=entries.get)`` returns: the first
        # most-saturated one in insertion order.  None while unknown; a
        # refused offer rescans only then.
        self._worst: Optional[int] = None
        self.offers = 0
        self.replacements = 0

    def __len__(self) -> int:
        return len(self._saturation)

    def __contains__(self, set_index: int) -> bool:
        return set_index in self._saturation

    def offer(self, set_index: int, saturation: int) -> bool:
        """Post a giver set; returns True if it is (now) tracked."""
        self.offers += 1
        entries = self._saturation
        worst = self._worst
        if set_index in entries:
            if worst is not None and saturation != entries[set_index]:
                top = entries[worst]
                if set_index == worst:
                    if saturation < top:
                        self._worst = None
                elif saturation >= top:
                    # Above the worst it takes over; at a new tie the
                    # earlier insertion wins, which only a scan can tell.
                    self._worst = set_index if saturation > top else None
            entries[set_index] = saturation
            return True
        if len(entries) < self.capacity:
            # A new entry comes last in insertion order: it is the worst
            # only when strictly more saturated than the current one.
            if worst is not None and saturation > entries[worst]:
                self._worst = set_index
            entries[set_index] = saturation
            return True
        if worst is None:
            worst = self._worst = max(entries, key=entries.get)
        if entries[worst] > saturation:
            del entries[worst]
            entries[set_index] = saturation
            self._worst = None
            self.replacements += 1
            return True
        return False

    def remove(self, set_index: int) -> None:
        """Drop an entry (e.g. the set just got coupled)."""
        self._saturation.pop(set_index, None)
        if set_index == self._worst:
            self._worst = None

    def entries(self) -> Dict[int, int]:
        """Snapshot of {set_index: saturation} (tests, fault injection)."""
        return dict(self._saturation)

    def force_entry(self, set_index: int, saturation: int) -> None:
        """Write one entry unconditionally — the fault-injection surface.

        Bypasses capacity and replacement so a campaign can model a
        glitched heap slot (stale index, even one naming a set that does
        not exist); :meth:`pop_best`'s lazy validation is what makes the
        real design tolerate exactly this kind of garbage.
        """
        self._saturation[set_index] = saturation
        self._worst = None

    def pop_best(self, validator: Validator) -> Optional[int]:
        """Return and remove the least-saturated valid giver, if any.

        Entries failing ``validator`` are discarded as stale, mirroring
        how the controller re-checks a candidate's monitor state before
        actually coupling with it.
        """
        entries = self._saturation
        while entries:
            best_index = min(entries, key=entries.get)
            del entries[best_index]
            if best_index == self._worst:
                self._worst = None
            if validator(best_index):
                return best_index
        return None
