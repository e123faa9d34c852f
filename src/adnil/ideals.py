"""Ad-nilpotent ideals as bit masks over the positive roots.

An ideal is a set of positive roots closed upward in dominance order
(its root spaces span an ideal of the Borel subalgebra).  Ideals are in
bijection with antichains via their minimal elements.  Both sets are
stored as integer bit masks, bit i marking positive_roots[i].
"""
from __future__ import annotations

from typing import Iterator

from .rootsys import RootSystem

Seed = tuple[int, int, int]  # a DFS state (start, ideal mask, blocked mask)


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


def walk(rs: RootSystem, seed: Seed = (0, 0, 0)) -> Iterator[tuple[int, int]]:
    """Every ideal in the search subtree below `seed`, with its antichain,
    as (ideal mask, antichain mask) pairs: the ideals whose antichain
    extends the seed's with roots of index >= start, where `blocked` holds
    every root comparable to one already chosen.  The default seed is the
    root of the whole tree."""
    filters = rs.filter_masks
    comparable = rs.comparable_masks
    full = (1 << len(filters)) - 1
    start, ideal, blocked = seed
    stack = [(start, ideal, blocked, ideal_minimal_elements(rs, ideal))]
    while stack:
        start, ideal, blocked, anti = stack.pop()
        yield ideal, anti
        free = full >> start << start & ~blocked  # roots i >= start still free
        while free:
            bit = free & -free
            free ^= bit
            i = bit.bit_length() - 1
            stack.append((i + 1, ideal | filters[i], blocked | comparable[i], anti | bit))


def partition_seeds(rs: RootSystem) -> list[Seed]:
    """The children of the walk's root, as DFS states: the empty ideal
    alone, then for each root i the subtree of antichains whose least
    index is i.  Their walks cover every ideal exactly once."""
    children = zip(range(1, len(rs) + 1), rs.filter_masks, rs.comparable_masks)
    return [(len(rs), 0, 0), *children]


def enumerate_ideal_masks(rs: RootSystem) -> list[int]:
    """Every ideal of the root system as a bit mask, ascending."""
    return sorted(ideal for ideal, _ in walk(rs))
