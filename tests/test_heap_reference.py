"""``GiverHeap`` against the naive scan-every-offer reference.

The heap remembers the entry ``max(entries, key=entries.get)`` would
return and forgets it when a mutation could change it.  Both heaps go
through the same operations: first one short sequence per forgetting
rule, then Hypothesis sequences (offers over few sets and few
saturation levels, so ties and refusals are common; removals of present
and absent sets; forced entries past capacity and naming sets that do
not exist; pops whose validator rejects some entries).  Every return
value and the full observable state are compared after each operation.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.spatial.heap as heap_module
from repro.spatial.heap import GiverHeap
from tests.heap_reference import NaiveGiverHeap

SETS = st.integers(0, 5)
SATURATIONS = st.integers(0, 3)
#: Forced slots may name sets beyond the heap's range and negative ones.
FORCED_SETS = st.integers(-2, 11)

OFFER = st.tuples(st.just("offer"), SETS, SATURATIONS)
OPERATIONS = st.one_of(
    OFFER, OFFER, OFFER,
    st.tuples(st.just("remove"), SETS),
    st.tuples(st.just("force_entry"), FORCED_SETS, SATURATIONS),
    st.tuples(st.just("pop_best"), st.frozensets(FORCED_SETS)),
)


def _state(heap):
    return (
        list(heap.entries().items()),
        len(heap),
        heap.offers,
        heap.replacements,
        [index in heap for index in range(-2, 12)],
    )


def _apply(heap, operation):
    name = operation[0]
    if name == "pop_best":
        rejected = operation[1]
        return heap.pop_best(lambda index: index not in rejected)
    return getattr(heap, name)(*operation[1:])


def offer(set_index, saturation):
    return ("offer", set_index, saturation)


#: One sequence per rule for forgetting the remembered entry; each one
#: diverges from the reference if that rule is broken.
RULE_EXAMPLES = [
    # force_entry past capacity: the forced slot is the new worst.
    (1, [offer(0, 0), offer(1, 0), ("force_entry", -1, 1), offer(1, 0)]),
    # remove and pop_best of the remembered entry.
    (1, [offer(0, 1), offer(1, 1), ("remove", 0), offer(1, 0)]),
    (1, [offer(0, 1), offer(1, 1), ("pop_best", frozenset()), offer(2, 0)]),
    # A replacement deletes the remembered entry.
    (1, [offer(0, 2), offer(1, 1), offer(2, 0)]),
    # An earlier entry rising to a tie wins it.
    (2, [offer(0, 1), offer(1, 2), offer(5, 2), offer(0, 2), offer(5, 1)]),
    # The remembered entry falls below another.
    (2, [offer(0, 2), offer(1, 1), offer(5, 3), offer(0, 0), offer(5, 0)]),
    # A new entry below capacity, strictly more saturated, takes over.
    (2, [offer(0, 1), offer(1, 0), offer(5, 1), ("remove", 1),
         offer(2, 3), offer(6, 2)]),
    # Another entry rises above the remembered one.
    (2, [offer(0, 2), offer(1, 1), offer(5, 2), offer(1, 3), offer(6, 2)]),
]


def _check(capacity, operations):
    heap = GiverHeap(capacity)
    reference = NaiveGiverHeap(capacity)
    for operation in operations:
        assert _apply(heap, operation) == _apply(reference, operation), \
            operation
        assert _state(heap) == _state(reference), operation


@pytest.mark.parametrize("capacity,operations", RULE_EXAMPLES)
def test_forgetting_rule(capacity, operations):
    _check(capacity, operations)


@settings(max_examples=500, deadline=None)
@given(capacity=st.integers(1, 3),
       operations=st.lists(OPERATIONS, min_size=4, max_size=60))
def test_heap_matches_naive_reference(capacity, operations):
    _check(capacity, operations)


def test_refused_offers_scan_once(monkeypatch):
    # Fill the heap, then keep offering more saturated newcomers: only
    # the first refusal needs to look for the most-saturated entry.
    scans = []

    def counting_max(*args, **kwargs):
        scans.append(args)
        return max(*args, **kwargs)

    monkeypatch.setattr(heap_module, "max", counting_max, raising=False)
    heap = GiverHeap(4)
    for index in range(4):
        heap.offer(index, 2)
    for index in range(10, 20):
        assert not heap.offer(index, 3)
    assert len(scans) == 1
