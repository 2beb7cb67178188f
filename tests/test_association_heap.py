"""Tests for the candidate-giver heap.

The association table is a per-set list in the coupling engine; its
cases are in ``tests/test_coupling_engine.py``.
"""

import pytest

from repro.common.errors import ConfigError
from repro.spatial.heap import GiverHeap


class TestGiverHeap:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigError):
            GiverHeap(0)

    def test_offer_and_pop_least_saturated(self):
        heap = GiverHeap(4)
        heap.offer(10, saturation=5)
        heap.offer(11, saturation=2)
        heap.offer(12, saturation=7)
        assert heap.pop_best(lambda s: True) == 11
        assert heap.pop_best(lambda s: True) == 10

    def test_full_heap_replaces_most_saturated(self):
        heap = GiverHeap(2)
        heap.offer(1, saturation=5)
        heap.offer(2, saturation=6)
        assert heap.offer(3, saturation=1)  # kicks out set 2
        assert 2 not in heap
        assert 3 in heap
        assert heap.replacements == 1

    def test_full_heap_rejects_more_saturated(self):
        heap = GiverHeap(2)
        heap.offer(1, saturation=1)
        heap.offer(2, saturation=2)
        assert not heap.offer(3, saturation=9)
        assert 3 not in heap

    def test_reoffer_updates_saturation(self):
        heap = GiverHeap(4)
        heap.offer(1, saturation=5)
        heap.offer(2, saturation=3)
        heap.offer(1, saturation=0)
        assert heap.pop_best(lambda s: True) == 1

    def test_stale_entries_discarded_by_validator(self):
        heap = GiverHeap(4)
        heap.offer(1, saturation=0)
        heap.offer(2, saturation=5)
        assert heap.pop_best(lambda s: s != 1) == 2
        assert 1 not in heap  # discarded as stale

    def test_pop_empty_returns_none(self):
        heap = GiverHeap(4)
        assert heap.pop_best(lambda s: True) is None

    def test_remove_is_idempotent(self):
        heap = GiverHeap(4)
        heap.offer(1, saturation=0)
        heap.remove(1)
        heap.remove(1)
        assert len(heap) == 0
