"""Ad-nilpotent ideals as bit masks over the positive roots.

An ideal is a set of positive roots closed upward in dominance order
(its root spaces span an ideal of the Borel subalgebra).  Ideals are in
bijection with antichains via their minimal elements.  Both sets are
stored as integer bit masks, bit i marking positive_roots[i].
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .rootsys import RootSystem, total_count_formula

Seed = tuple[int, int]  # a DFS state (ideal mask, mask of the roots still free)
Memo = dict[int, Sequence[int] | bool | None]  # a walk's subtrees by free set (`walk`)


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


def _descend(
    filters: list[int], incomparable: list[int], memo: Memo | None,
    stack: list[Seed], out: list[int], limit: int,
) -> None:
    """Pop states off `stack` and append their ideals to `out`, in walk
    order, until the stack is empty or `out` holds `limit` masks.

    The ideals below a state (ideal, free) are ideal | u for u in U(free),
    the ideals below (0, free).  So `memo`, unless None, maps a free set of
    two roots or more to False once seen, then on its second sighting to
    U(free) if that holds fewer than `limit` masks, else to None (walked as
    is).  U(free) is walked by a call of its own; one cut short at `limit`
    masks hands its unwalked states back to `stack`, shifted by the ideal.
    A kept U(free) of masks of at most 64 roots is an array of 8-byte
    words, a fifth of the memory of a list of ints."""
    while stack and len(out) < limit:
        ideal, free = stack.pop()
        if memo is not None and free.bit_count() > 1:
            known = memo.get(free, 0)
            if known:
                out += [ideal | u for u in known]
                continue
            if known is False:
                memo[free] = None  # its own walk below walks it as is
                below: list[int] = []
                left = [(0, free)]
                _descend(filters, incomparable, memo, left, below, limit)
                if left:
                    stack += [(ideal | mask, rest) for mask, rest in left]
                elif len(below) < limit:
                    # imported on first use: a process that walks no memo
                    # never loads the array module (about 76 KiB of RSS)
                    from array import array

                    memo[free] = array("Q", below) if len(filters) <= 64 else below
                out += [ideal | u for u in below]
                continue
            if known is not None:
                memo[free] = False
        out.append(ideal)
        while free:
            bit = free & -free
            free ^= bit
            i = bit.bit_length() - 1
            if rest := free & incomparable[i]:
                stack.append((ideal | filters[i], rest))
            else:
                out.append(ideal | filters[i])


def walk(rs: RootSystem, seeds: Iterable[Seed], size: int) -> Iterator[list[int]]:
    """Every ideal mask below the DFS states `seeds`, in lists of exactly
    `size` masks but the last.  A state (ideal, free) stands for the ideals
    whose antichain extends the ideal's by roots of `free`; a child with no
    free root left is a leaf and goes straight into the block.

    A free set seen twice is walked once more from the empty ideal and, if
    its ideals fit one block, kept in a memo that lives for this walk and
    replayed at every later sighting (`_descend`); the blocks stay the same,
    in the same order.  Only a classical root system (staircase order,
    `rs.rows`) of at least one full block of ideals keeps a memo: its free
    sets are few and repeat with large subtrees (A10's 16796 DFS states
    have 46 distinct free sets), while a smaller one repeats too little
    to pay for the lookups, and an exceptional one has many small free
    sets (E8's 9959 states have 772), which a pool's seed groups, each a
    walk of its own, see too few times to replay."""
    memo: Memo | None = {} if rs.rows and total_count_formula(rs) >= size else None
    filters, incomparable = rs.filter_masks, rs.incomparable_masks
    stack = list(seeds)
    block: list[int] = []
    while stack:
        _descend(filters, incomparable, memo, stack, block, size + 1)
        full = len(block) - len(block) % size
        for start in range(0, full, size):
            yield block[start:start + size]
        del block[:full]
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
