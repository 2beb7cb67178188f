"""Parametric workload generation with controlled set-level demand.

The paper's whole argument rests on *set-level non-uniformity of
capacity demands* (Section 3), so the generator framework is organised
around it: a workload is a partition of the cache's sets into *groups*,
each group giving its sets a per-set reference stream with a chosen
reuse structure and working-set size, plus an access weight.  The
resulting interleaved trace exercises exactly the behaviours the
evaluated schemes differ on:

* ``cyclic``    — a looping working set; thrashes LRU when the set size
  exceeds the associativity (the paper's Figure 2 streams), the bread
  and butter of BIP/DIP;
* ``zipf``      — skewed popularity with frequency (not recency)
  locality; friendly to every policy once the hot blocks fit;
* ``streaming`` — never-reused blocks; pure compulsory misses that no
  policy can remove, and "zero capacity demand" in Figure 1's terms;
* ``recency``   — short geometric reuse distances over a moving frontier;
  LRU-friendly and *insertion-hostile* (BIP evicts new blocks before
  their imminent reuse), the pattern behind the paper's ``astar``
  pathology.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.common.addressing import AddressMapper
from repro.common.errors import ConfigError
from repro.common.rng import (
    SPLITMIX_SCALE,
    SplitMix,
    SplitMixBlock,
    splitmix_cut,
)
from repro.workloads.trace import Trace, TraceMetadata

_STREAM_KINDS = ("cyclic", "zipf", "streaming", "recency")


@dataclass(frozen=True)
class SetGroupSpec:
    """One group of sets sharing a reference-stream shape.

    Parameters
    ----------
    fraction:
        Share of the cache's sets assigned to this group; the fractions
        of all groups in a workload must sum to 1 (within rounding).
    weight:
        Relative access frequency *per set* in this group.
    kind:
        One of ``cyclic``, ``zipf``, ``streaming``, ``recency``.
    ws_min / ws_max:
        Working-set size range in blocks; each set draws its own size
        uniformly from the inclusive range (ignored for ``streaming``).
    zipf_alpha:
        Skew of the zipf popularity law (``kind='zipf'`` only).
    reuse_mean:
        Mean geometric reuse distance in distinct blocks
        (``kind='recency'`` only).
    new_fraction:
        Probability that a ``recency`` access touches a brand-new block.
    stream_fraction:
        Probability that any access is instead a never-reused
        (compulsory-miss) block.  Injecting these *within* each set
        keeps the miss pressure uniform across sets — the signature of
        the paper's Class II/III workloads, where no under-saturated
        sets exist for spatial schemes to exploit.
    """

    fraction: float
    weight: float
    kind: str
    ws_min: int = 1
    ws_max: int = 1
    zipf_alpha: float = 0.8
    reuse_mean: float = 6.0
    new_fraction: float = 0.25
    stream_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigError(f"fraction must lie in (0, 1], got {self.fraction}")
        if self.weight <= 0.0:
            raise ConfigError(f"weight must be positive, got {self.weight}")
        if self.kind not in _STREAM_KINDS:
            raise ConfigError(
                f"kind must be one of {_STREAM_KINDS}, got {self.kind!r}"
            )
        if self.ws_min <= 0 or self.ws_max < self.ws_min:
            raise ConfigError(
                f"bad working-set range [{self.ws_min}, {self.ws_max}]"
            )
        if not 0.0 < self.new_fraction <= 1.0:
            raise ConfigError(
                f"new_fraction must lie in (0, 1], got {self.new_fraction}"
            )
        if self.reuse_mean <= 0.0:
            raise ConfigError(
                f"reuse_mean must be positive, got {self.reuse_mean}"
            )
        if not 0.0 <= self.stream_fraction < 1.0:
            raise ConfigError(
                f"stream_fraction must lie in [0, 1), got {self.stream_fraction}"
            )


#: Tag offset for injected compulsory-miss blocks: far above any
#: working-set tag so the two populations never alias.
_STREAM_BASE = 1 << 24

#: Stream kinds as small ints for the kernel's dispatch.  ``_INJECTED``
#: is never a set's kind: it marks an access that drew a compulsory-miss
#: block instead of extending the set's own stream.
_CYCLIC, _RECENCY, _ZIPF, _STREAMING, _INJECTED = range(5)
_KIND_CODES = {
    "cyclic": _CYCLIC, "recency": _RECENCY,
    "zipf": _ZIPF, "streaming": _STREAMING,
}

#: SplitMix64 draws computed per block.  A block's big ints take 16
#: bytes per draw, so 4096 draws keep synthesis's transient memory to a
#: few hundred kB; 8192-draw blocks were no faster and raised the
#: benchmark's peak RSS by over 2%.
_BLOCK_DRAWS = 4096
#: Most draws one access takes outside a recency walk: the set pick, the
#: injection test, the freshness test or zipf rank, and the write flag.
_ACCESS_DRAWS = 4


def _zipf_cdf(ws_size: int, alpha: float) -> List[float]:
    """Cumulative zipf popularity over ranks ``1..ws_size``."""
    masses = [1.0 / (rank ** alpha) for rank in range(1, ws_size + 1)]
    total = sum(masses)
    running = 0.0
    cdf = []
    for mass in masses:
        running += mass / total
        cdf.append(running)
    cdf[-1] = 1.0
    return cdf


@dataclass
class WorkloadSpec:
    """A full synthetic workload: groups + interleaving parameters."""

    name: str
    groups: Sequence[SetGroupSpec]
    accesses_per_kilo_instruction: float = 20.0
    description: str = ""
    spec_class: str = ""
    write_fraction: float = 0.0
    shuffle_sets: bool = True

    def __post_init__(self) -> None:
        if not self.groups:
            raise ConfigError("a workload needs at least one set group")
        total = sum(group.fraction for group in self.groups)
        if abs(total - 1.0) > 1e-6:
            raise ConfigError(
                f"group fractions must sum to 1, got {total:.6f}"
            )
        if self.accesses_per_kilo_instruction <= 0.0:
            raise ConfigError("accesses_per_kilo_instruction must be positive")
        if not 0.0 <= self.write_fraction < 1.0:
            raise ConfigError(
                f"write_fraction must lie in [0, 1), got {self.write_fraction}"
            )


def generate_trace(
    spec: WorkloadSpec,
    num_sets: int,
    length: int,
    line_size: int = 64,
    address_bits: int = 44,
    seed: int = 1,
) -> Trace:
    """Materialise ``length`` accesses of ``spec`` over ``num_sets`` sets.

    Sets are dealt to groups proportionally to each group's fraction
    (optionally shuffled so groups interleave across the index space,
    which keeps DIP's leader-set sampling representative), then accesses
    pick a set by weighted sampling and extend that set's stream.

    The per-access loop is the synthesis hot path.  It keeps each set's
    stream state in flat per-set lists and reads SplitMix64 draws by
    index from a ``SplitMixBlock``, yet makes exactly the draws, in
    exactly the order, that one ``SplitMix.random()`` per draw would:
    every trace is byte-identical to the object-per-set formulation
    (DESIGN.md §9).
    """
    if length <= 0:
        raise ConfigError(f"length must be positive, got {length}")
    mapper = AddressMapper(
        num_sets=num_sets, line_size=line_size, address_bits=address_bits
    )
    rng = SplitMix(seed=seed)
    set_indices = list(range(num_sets))
    if spec.shuffle_sets:
        rng.shuffle(set_indices)
    # Deal sets to groups.  Rounding can leave a set unassigned (tiny
    # configurations); it keeps a zero-weight streaming stream so a
    # boundary tie in the sampler below still produces a valid access.
    kinds = [_STREAMING] * num_sets
    ws_sizes = [1] * num_sets
    weights = [0.0] * num_sets
    inject_cuts: List[Optional[int]] = [None] * num_sets
    fresh_cuts = [0] * num_sets
    escape_cuts = [0] * num_sets
    cdfs: List[List[float]] = [[]] * num_sets
    cursor = 0
    for group_number, group in enumerate(spec.groups):
        if group_number == len(spec.groups) - 1:
            count = num_sets - cursor  # absorb rounding in the last group
        else:
            count = max(1, round(group.fraction * num_sets))
        # A "random() < fraction" test is "draw <= cut" on the integer
        # draw; a set without injection makes no injection draw.  A walk
        # stops where random() <= 1 / reuse_mean, that is, where it is
        # below the next float up.
        inject_cut = (splitmix_cut(group.stream_fraction)
                      if group.stream_fraction > 0.0 else None)
        fresh_cut = splitmix_cut(group.new_fraction)
        escape_cut = splitmix_cut(
            math.nextafter(1.0 / group.reuse_mean, math.inf)
        )
        for set_index in set_indices[cursor:cursor + count]:
            ws_size = rng.randint(group.ws_min, group.ws_max)
            kinds[set_index] = _KIND_CODES[group.kind]
            ws_sizes[set_index] = ws_size
            weights[set_index] = group.weight
            inject_cuts[set_index] = inject_cut
            fresh_cuts[set_index] = fresh_cut
            escape_cuts[set_index] = escape_cut
            if group.kind == "zipf":
                cdfs[set_index] = _zipf_cdf(ws_size, group.zipf_alpha)
        cursor += count
        if cursor >= num_sets:
            break
    # Weighted set selection via a cumulative table + binary search.
    cumulative: List[float] = []
    running = 0.0
    for weight in weights:
        running += weight
        cumulative.append(running)
    total_weight = running
    addresses = array("Q")
    append = addresses.append
    writes: Optional[List[bool]] = [] if spec.write_fraction > 0.0 else None
    write_cut = splitmix_cut(spec.write_fraction)
    offset_bits = mapper.offset_bits
    index_bits = mapper.index_bits
    last_set = num_sets - 1
    # Cyclic/streaming position, or the recency frontier, per set.
    cursors = [0] * num_sets
    stream_next = [_STREAM_BASE] * num_sets
    scale = SPLITMIX_SCALE
    # The next draw is draws[j].  A refill starts the next block at the
    # first unread draw, so no draw is skipped or read twice.  masks maps
    # an escape cut to block.above(cut), built on first use per block.
    block = SplitMixBlock(rng.state, _BLOCK_DRAWS)
    draws = block.values
    masks = {}
    j = 0
    refill_after = _BLOCK_DRAWS - _ACCESS_DRAWS
    walk_end = _BLOCK_DRAWS - 1  # the last draw is kept for the write flag
    for _ in range(length):
        if j > refill_after:
            block = SplitMixBlock(block.state_at(j), _BLOCK_DRAWS)
            draws = block.values
            masks = {}
            j = 0
        set_index = bisect_right(cumulative, draws[j] / scale * total_weight)
        j += 1
        if set_index > last_set:
            set_index = last_set
        kind = kinds[set_index]
        cut = inject_cuts[set_index]
        if cut is not None:
            if draws[j] <= cut:
                kind = _INJECTED
            j += 1
        if kind == _CYCLIC:
            tag = cursors[set_index]
            following = tag + 1
            if following >= ws_sizes[set_index]:
                following = 0
            cursors[set_index] = following
        elif kind == _RECENCY:
            # Geometric reuse over a moving frontier of new blocks.
            tag = cursors[set_index]
            fresh = tag == 0
            if not fresh:
                fresh = draws[j] <= fresh_cuts[set_index]
                j += 1
            if fresh:
                cursors[set_index] = tag + 1
            else:
                # Walk back from the newest block: every draw above the
                # escape cut steps one block older, down to the oldest,
                # and the draw that ends the walk is consumed too.  The
                # mask finds the first stopping draw in C.
                tag -= 1
                cut = escape_cuts[set_index]
                while True:
                    mask = masks.get(cut)
                    if mask is None:
                        mask = masks[cut] = block.above(cut)
                    stop = mask.find(0, j, walk_end)
                    if stop < 0:
                        stop = walk_end
                    if tag < stop - j:  # tag 0 comes before the stop
                        j += tag + 1
                        tag = 0
                        break
                    tag -= stop - j
                    if stop < walk_end:
                        j = stop + 1
                        break
                    # No stop before walk_end: refill and go on.
                    block = SplitMixBlock(block.state_at(stop), _BLOCK_DRAWS)
                    draws = block.values
                    masks = {}
                    j = 0
        elif kind == _ZIPF:
            tag = bisect_right(cdfs[set_index], draws[j] / scale)
            j += 1
        elif kind == _STREAMING:
            tag = cursors[set_index]
            cursors[set_index] = tag + 1
        else:
            tag = stream_next[set_index]
            stream_next[set_index] = tag + 1
        append(((tag << index_bits) | set_index) << offset_bits)
        if writes is not None:
            writes.append(draws[j] <= write_cut)
            j += 1
    instructions = max(1, round(length * 1000.0
                                / spec.accesses_per_kilo_instruction))
    metadata = TraceMetadata(
        name=spec.name,
        instructions=instructions,
        line_size=line_size,
        address_bits=address_bits,
        description=spec.description,
        spec_class=spec.spec_class,
    )
    return Trace(metadata, addresses, writes)
