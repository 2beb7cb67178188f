"""A deliberately naive trace synthesiser: the reference for generate_trace.

Written from DESIGN.md §9's draw-order rule, not from the kernel: one
object per set, one ``SplitMix.random()`` per draw, and every float
computed as the rule states (``u / 2**64``, then ``* total_weight`` for
the set pick).  Per access the draws are, in order:

1. the set pick;
2. the injection test, only for a set whose ``stream_fraction > 0``;
3. for a recency set whose frontier is not 0, the freshness test and,
   when it fails, one draw per walk step back from the newest block,
   including the draw that stops the walk at the oldest block;
   for a zipf set, the rank;
4. the write flag, only when ``write_fraction > 0``.

It is slow on purpose: nothing here is shared with the kernel it checks.
"""

from bisect import bisect_right
from typing import List, Optional, Tuple

from repro.common.rng import SplitMix
from repro.workloads.generators import SetGroupSpec

STREAM_BASE = 1 << 24


class _SetStream:
    """One set's reference stream."""

    def __init__(self, group, ws_size: int) -> None:
        self.kind = group.kind
        self.ws_size = ws_size
        self.stream_fraction = group.stream_fraction
        self.new_fraction = group.new_fraction
        self.escape = 1.0 / group.reuse_mean
        self.position = 0  # cyclic/streaming cursor, or recency frontier
        self.stream_next = STREAM_BASE
        self.cdf: List[float] = []
        if group.kind == "zipf":
            masses = [1.0 / (rank ** group.zipf_alpha)
                      for rank in range(1, ws_size + 1)]
            total = sum(masses)
            running = 0.0
            for mass in masses:
                running += mass / total
                self.cdf.append(running)
            self.cdf[-1] = 1.0

    def next_tag(self, rng: SplitMix) -> int:
        if self.stream_fraction > 0.0 and rng.random() < self.stream_fraction:
            self.stream_next += 1
            return self.stream_next - 1
        if self.kind == "cyclic":
            tag = self.position
            self.position = (self.position + 1) % self.ws_size
            return tag
        if self.kind == "streaming":
            self.position += 1
            return self.position - 1
        if self.kind == "zipf":
            return bisect_right(self.cdf, rng.random())
        if self.position == 0 or rng.random() < self.new_fraction:
            self.position += 1
            return self.position - 1
        tag = self.position - 1
        while True:
            walk_on = rng.random() > self.escape
            if not walk_on or tag == 0:
                return tag
            tag -= 1


def reference_trace(
    spec, num_sets: int, length: int, line_size: int = 64, seed: int = 1,
) -> Tuple[List[int], Optional[List[bool]]]:
    """The addresses and write flags ``generate_trace`` must produce."""
    rng = SplitMix(seed=seed)
    order = list(range(num_sets))
    if spec.shuffle_sets:
        rng.shuffle(order)
    # A set no group receives keeps a zero-weight streaming stream.
    unassigned = SetGroupSpec(fraction=1.0, weight=1.0, kind="streaming")
    streams = [_SetStream(unassigned, 1) for _ in range(num_sets)]
    weights = [0.0] * num_sets
    cursor = 0
    for number, group in enumerate(spec.groups):
        if number == len(spec.groups) - 1:
            count = num_sets - cursor
        else:
            count = max(1, round(group.fraction * num_sets))
        for set_index in order[cursor:cursor + count]:
            ws_size = rng.randint(group.ws_min, group.ws_max)
            streams[set_index] = _SetStream(group, ws_size)
            weights[set_index] = group.weight
        cursor += count
        if cursor >= num_sets:
            break
    cumulative = []
    total_weight = 0.0
    for weight in weights:
        total_weight += weight
        cumulative.append(total_weight)
    index_bits = num_sets.bit_length() - 1
    offset_bits = line_size.bit_length() - 1
    addresses: List[int] = []
    writes: Optional[List[bool]] = [] if spec.write_fraction > 0.0 else None
    for _ in range(length):
        set_index = bisect_right(cumulative, rng.random() * total_weight)
        set_index = min(set_index, num_sets - 1)
        tag = streams[set_index].next_tag(rng)
        addresses.append(((tag << index_bits) | set_index) << offset_bits)
        if writes is not None:
            writes.append(rng.random() < spec.write_fraction)
    return addresses, writes
