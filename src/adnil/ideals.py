"""Ad-nilpotent ideals as bit masks over the positive roots.

An ideal is a set of positive roots closed upward in dominance order
(its root spaces span an ideal of the Borel subalgebra).  Ideals are in
bijection with antichains via their minimal elements.  Both sets are
stored as integer bit masks, bit i marking positive_roots[i].  The walk
yields its ideals in blocks of `BLOCK` fixed-width records: each mask in
`record_width` bytes, little-endian, the records one after the other.
"""
from __future__ import annotations

import struct
from typing import Iterable, Iterator

from .rootsys import RootSystem, total_count_formula

Seed = tuple[int, int]  # a walk state (ideal mask, mask of the roots still undecided)
Memo = dict[int, int | bool]  # a walk's replays by undecided set (`_descend`)
BLOCK = 4096  # ideals in each block of a walk but its last
LEAF_BATCH = 512  # masks a walk without a memo gathers as ints between two packings


def record_width(rs: RootSystem) -> int:
    """The bytes of one mask in a block: one bit per root, in whole bytes."""
    return (len(rs) + 7) >> 3


def block_length(rs: RootSystem, block: bytes | list[int]) -> int:
    """The number of masks in a block of records, or in a list of them."""
    return len(block) if isinstance(block, list) else len(block) // record_width(rs)


def _restride(data: bytes, width: int, wide: int) -> bytearray:
    """Records of `width` bytes as records of `wide`, cut or zero-padded:
    one strided copy per byte kept."""
    out = bytearray(len(data) // width * wide)
    for j in range(min(width, wide)):
        out[j::wide] = data[j::width]
    return out


def _records(masks: list[int], width: int) -> bytes:
    """The masks as records of `width` bytes, little-endian: 8-byte words
    by one `struct.pack` up to 8 bytes, else one `to_bytes` per mask."""
    if width > 8:
        return b"".join([mask.to_bytes(width, "little") for mask in masks])
    return _restride(struct.pack(f"<{len(masks)}Q", *masks), 8, width)


def _spread(mask: int, count: int, width: int) -> int:
    """The int of `count` records `mask`, in the layout of `_records`."""
    return int.from_bytes(mask.to_bytes(width, "little") * count, "little")


def block_masks(rs: RootSystem, block: bytes | list[int]) -> list[int]:
    """The masks of a block of records, each widened to whole 8-byte words
    read by one `struct.unpack`; a list of ints as it is."""
    if isinstance(block, list):
        return block
    width = record_width(rs)
    words = -(-width // 8)
    ints = struct.unpack(f"<{len(block) // width * words}Q", _restride(block, width, 8 * words))
    masks = list(ints[::words])
    for i in range(1, words):
        masks = [mask | word << 64 * i for mask, word in zip(masks, ints[i::words])]
    return masks


def block_bytes(rs: RootSystem, block: bytes | list[int]) -> list[bytes]:
    """Byte j of every mask of a block, the last ideal first, for
    each j below `record_width`: one strided slice of the records taken
    backwards.  A list of ints is packed to records first.  A mask that is
    negative or has a bit past the roots raises ValueError: in a list by
    its range, in records as a byte of the last column past the roots."""
    width = record_width(rs)
    message = f"a mask of the block is no set of roots of {rs.lie_type}"
    if isinstance(block, list):
        if min(block, default=0) < 0 or max(block, default=0) >> len(rs):
            raise ValueError(message)
        block = _records(block, width)
    elif block[width - 1::width].translate(None, bytes(range(1 << len(rs) - 8 * width + 8))):
        raise ValueError(message)
    last = len(block) - width  # the last record's first byte
    return [block[last + j::-width] for j in range(width)]


def mask_indices(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _root_indices(rs: RootSystem, mask: int) -> list[int]:
    """The roots of a mask (`mask_indices`); a mask that is negative or
    has a bit past the roots raises ValueError."""
    if mask < 0 or mask >> len(rs):
        raise ValueError(f"mask {mask} is no set of roots of {rs.lie_type}")
    return mask_indices(mask)


def is_upward_closed(rs: RootSystem, mask: int) -> bool:
    return all(rs.filter_masks[i] & ~mask == 0 for i in _root_indices(rs, mask))


def antichain_to_ideal(rs: RootSystem, antichain: int) -> int:
    """Union of the principal filters over the antichain's elements."""
    mask = 0
    for i in _root_indices(rs, antichain):
        mask |= rs.filter_masks[i]
    return mask


def ideal_minimal_elements(rs: RootSystem, ideal: int) -> int:
    """The antichain of roots in the ideal with nothing below them in it."""
    mask = 0
    for i in _root_indices(rs, ideal):
        if not ideal & rs.below_masks[i]:
            mask |= 1 << i
    return mask


def _decisions(rs: RootSystem) -> list[tuple[int, int, int]]:
    """Per root: its filter, the undecided roots kept when it goes in, and out."""
    full = (1 << len(rs)) - 1
    return [(up, full ^ up, full ^ down ^ 1 << k)
            for k, (up, down) in enumerate(zip(rs.filter_masks, rs.below_masks))]


def _size(decisions: list[tuple[int, int, int]], sizes: dict[int, int], und: int) -> int:
    """The number of ideals below (0, und), kept per set in `sizes` (seeded {0: 1})."""
    if (size := sizes.get(und)) is None:
        _, keep_in, keep_out = decisions[und.bit_length() - 1]
        size = _size(decisions, sizes, und & keep_out) + _size(decisions, sizes, und & keep_in)
        sizes[und] = size
    return size


def _descend(
    decisions: list[tuple[int, int, int]], memo: Memo | None, sizes: dict[int, int],
    stack: list[Seed], out: bytearray, width: int,
) -> None:
    """Pop states off `stack` and append their ideals to `out` as records
    of `width` bytes, in walk order, until the stack is empty or `out`
    holds more than `BLOCK` records; without a memo, until `LEAF_BATCH`
    masks more, gathered as ints and packed once.  A state follows "out"
    down to its least ideal and pushes each "in" on the way.  The ideals
    below (ideal, und) are ideal | u for u in U(und), those below (0, und).
    So `memo` maps an undecided set of two roots or more to False once
    seen, then, if it holds at most `BLOCK` masks (`_size`), to U(und),
    walked from its two children and kept as one int of the records u & und.
    A replay is one addition: a root above an undecided root is undecided
    or in `ideal`, so u & ~und lies in `ideal` and ideal | u = ideal +
    (u & und) in every record."""
    if memo is None:
        masks: list[int] = []
        while stack and len(masks) < LEAF_BATCH:
            ideal, und = stack.pop()
            while und & (und - 1):
                up, keep_in, keep_out = decisions[und.bit_length() - 1]
                stack.append((ideal | up, und & keep_in))
                und &= keep_out
            masks.append(ideal)
            if und:  # one root left: out, then in, both leaves
                masks.append(ideal | decisions[und.bit_length() - 1][0])
        out += _records(masks, width)
        return
    end = BLOCK * width
    while stack and len(out) <= end:
        ideal, und = stack.pop()
        if und & (und - 1):
            known = memo.get(und)
            if known is None:
                memo[und] = False
            elif known or _size(decisions, sizes, und) <= BLOCK:
                count = sizes[und]
                if not known:
                    up, keep_in, keep_out = decisions[und.bit_length() - 1]
                    below = bytearray()
                    _descend(decisions, memo, sizes, [(up, und & keep_in), (0, und & keep_out)],
                             below, width)
                    memo[und] = known = int.from_bytes(below, "little") & _spread(und, count, width)
                out += (known + _spread(ideal, count, width)).to_bytes(count * width, "little")
                continue
        while und & (und - 1):
            up, keep_in, keep_out = decisions[und.bit_length() - 1]
            stack.append((ideal | up, und & keep_in))
            und &= keep_out
        out += ideal.to_bytes(width, "little")
        if und:
            out += (ideal | decisions[und.bit_length() - 1][0]).to_bytes(width, "little")


def walk(rs: RootSystem, seeds: Iterable[Seed] | None = None) -> Iterator[bytes]:
    """Every ideal mask below the states `seeds` (the root state when
    None), seed by seed, in blocks of exactly `BLOCK` records (`_records`)
    but the last.  A state (ideal, und) stands for the ideals that agree
    with `ideal` outside `und`, its undecided roots.  For any root k they
    split into those without k (nor any root below it) and those with k's
    filter: deciding the highest undecided root first, "out" before "in",
    lists them ascending.  Only a walk of a full block or more below its
    seeds, of a classical type (`rs.rows`), keeps a memo (`_descend`): a
    smaller one repeats too little, an exceptional one has many small
    subtrees."""
    decisions = _decisions(rs)
    sizes = {0: 1}
    stack = [root_state(rs)] if seeds is None else list(seeds)[::-1]
    # a memo needs a full block below the seeds; the type's own count, a
    # formula, bounds theirs without sizing a set
    memo: Memo | None = (
        {} if rs.rows and total_count_formula(rs) >= BLOCK
        and sum(_size(decisions, sizes, und) for _, und in stack) >= BLOCK else None
    )
    width = record_width(rs)
    end = BLOCK * width
    block = bytearray()
    while stack:
        _descend(decisions, memo, sizes, stack, block, width)
        while len(block) >= end:  # a yielded block is not also kept in `block`
            chunk, block = block[:end], block[end:]
            yield chunk
    if block:
        yield block


def root_state(rs: RootSystem) -> Seed:
    """The walk's root: the empty ideal, every root undecided."""
    return 0, (1 << len(rs)) - 1


def partition_seeds(rs: RootSystem, parts: int) -> list[list[Seed]]:
    """The walk's ideals cut into `parts` ranges of the ascending order,
    rank r in range r x parts // total: the non-empty ranges, ascending, as
    lists of states.  A state, in walk order, goes whole into the range of
    its first ideal if its last one falls there too; else it is split.
    Fewer than one part raises ValueError."""
    if parts < 1:
        raise ValueError(f"parts must be a positive integer, got {parts}")
    decisions = _decisions(rs)
    sizes = {0: 1}
    total = _size(decisions, sizes, root_state(rs)[1])
    groups: list[list[Seed]] = [[] for _ in range(parts)]
    done, stack = 0, [root_state(rs)]
    while stack:
        ideal, und = stack.pop()
        size = _size(decisions, sizes, und)
        if (group := done * parts // total) == (done + size - 1) * parts // total:
            groups[group].append((ideal, und))
            done += size
        else:
            up, keep_in, keep_out = decisions[und.bit_length() - 1]
            stack += [(ideal | up, und & keep_in), (ideal, und & keep_out)]
    return [group for group in groups if group]


def enumerate_ideal_masks(rs: RootSystem) -> list[int]:
    """Every ideal of the root system as a bit mask, ascending."""
    return [mask for block in walk(rs) for mask in block_masks(rs, block)]
