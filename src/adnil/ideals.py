"""Ad-nilpotent ideals as bit masks over the positive roots.

An ideal is a set of positive roots closed upward in dominance order
(its root spaces span an ideal of the Borel subalgebra).  Ideals are in
bijection with antichains via their minimal elements.  Both sets are
stored as integer bit masks, bit i marking positive_roots[i].
"""
from __future__ import annotations

from typing import Iterable, Iterator

from .rootsys import RootSystem

Seed = tuple[int, int]  # a DFS state (ideal mask, mask of the roots still free)


def mask_indices(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def is_upward_closed(rs: RootSystem, mask: int) -> bool:
    return all(rs.filter_masks[i] & ~mask == 0 for i in mask_indices(mask))


def antichain_to_ideal(rs: RootSystem, antichain: int) -> int:
    """Union of the principal filters over the antichain's elements."""
    mask = 0
    for i in mask_indices(antichain):
        mask |= rs.filter_masks[i]
    return mask


def ideal_minimal_elements(rs: RootSystem, ideal: int) -> int:
    """The antichain of roots in the ideal with nothing below them in it."""
    mask = 0
    for i in mask_indices(ideal):
        if not ideal & rs.below_masks[i]:
            mask |= 1 << i
    return mask


def walk(rs: RootSystem, seeds: Iterable[Seed], size: int) -> Iterator[list[int]]:
    """Every ideal mask below the DFS states `seeds`, in lists of exactly
    `size` masks but the last.  A state (ideal, free) stands for the ideals
    whose antichain extends the ideal's by roots of `free`; a child with no
    free root left is a leaf and goes straight into the block."""
    filters, incomparable = rs.filter_masks, rs.incomparable_masks
    stack = list(seeds)
    block: list[int] = []
    while stack:
        ideal, free = stack.pop()
        block.append(ideal)
        while free:
            bit = free & -free
            free ^= bit
            i = bit.bit_length() - 1
            if rest := free & incomparable[i]:
                stack.append((ideal | filters[i], rest))
            else:
                block.append(ideal | filters[i])
        while len(block) >= size:
            yield block[:size]
            block = block[size:]
    if block:
        yield block


def root_state(rs: RootSystem) -> Seed:
    """The walk's root: the empty ideal, every root free."""
    return 0, (1 << len(rs)) - 1


def partition_seeds(rs: RootSystem) -> list[Seed]:
    """The children of the walk's root: the empty ideal alone, then for each
    root i the antichains whose least index is i.  Walked in any grouping
    and order, they cover every ideal exactly once."""
    return [(0, 0), *zip(rs.filter_masks, rs.incomparable_masks)]


def enumerate_ideal_masks(rs: RootSystem) -> list[int]:
    """Every ideal of the root system as a bit mask, ascending."""
    return sorted(mask for block in walk(rs, [root_state(rs)], 4096) for mask in block)
