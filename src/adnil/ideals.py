"""Ad-nilpotent ideals as bit masks over the positive roots.

An ideal is a set of positive roots closed upward in dominance order
(its root spaces span an ideal of the Borel subalgebra).  Ideals are in
bijection with antichains via their minimal elements.  Both sets are
stored as integer bit masks, bit i marking positive_roots[i].
"""
from __future__ import annotations

from array import array
from sys import byteorder
from typing import Iterable, Iterator

from .rootsys import RootSystem, total_count_formula

Seed = tuple[int, int]  # a walk state (ideal mask, mask of the roots still undecided)
WORD_ROOTS = 64  # a type of at most this many roots has each mask in one 8-byte word
Block = array | list[int]  # ideal masks: an array of words ("Q") up to WORD_ROOTS roots, else ints
Memo = dict[int, int | list[int] | bool]  # a walk's subtrees by undecided set (`walk`)

_UNDER = [bytes(range(1 << bits)) for bits in range(8)]  # the bytes of no bit from `bits` on


def block_bytes(rs: RootSystem, block: Block) -> list[bytes]:
    """Byte j of every mask of a nonempty block, the last ideal first, for
    each j below the record width.  Each mask is one record of fixed width
    in native byte order (an 8-byte word by `array("Q")` up to `WORD_ROOTS`
    roots, else the roots' bytes), and byte j of every record is one
    strided slice taken backwards.  A mask that is negative or wider than
    the roots raises ValueError: as OverflowError in the packing, or as a
    byte outside `_UNDER` in a column past the roots."""
    size = len(rs)
    width = 8 if size <= WORD_ROOTS else (size + 7) >> 3
    message = f"a mask of the block is no set of roots of {rs.lie_type}"
    try:
        if width == 8:
            data = array("Q", block).tobytes()
        else:
            data = b"".join([mask.to_bytes(width, byteorder) for mask in block])
    except OverflowError:
        raise ValueError(message) from None
    last = len(data) - width  # the last record's first byte
    columns = [data[last + (j if byteorder == "little" else width - 1 - j)::-width]
               for j in range(width)]
    for j in range(size >> 3, width):  # the columns that hold bits past the roots
        if columns[j].translate(None, _UNDER[max(size - 8 * j, 0)]):
            raise ValueError(message)
    return columns


def _spread(mask: int, count: int) -> int:
    """The int of `count` words `mask`, in the layout of `_pack`."""
    return int.from_bytes(array("Q", [mask]) * count, byteorder)


def _pack(words: array, und: int) -> int:
    """The int whose bytes, in native order, are those of the words, each
    word ANDed with `und`.  The replay's addition (`_descend`) never
    carries, so it is exact in either byte order."""
    return int.from_bytes(words, byteorder) & _spread(und, len(words))


def _unpack(packed: int, count: int) -> array:
    """The `count` words of `packed`, as `_pack` lays them out."""
    return array("Q", packed.to_bytes(8 * count, byteorder))


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
    stack: list[Seed], out: Block, limit: int,
) -> None:
    """Pop states off `stack` and append their ideals to `out`, in walk
    order, until the stack is empty or `out` holds `limit` masks.  A state
    follows "out" down to its least ideal and pushes each "in" on the way.
    The ideals below (ideal, und) are ideal | u for u in U(und), those
    below (0, und).  So `memo`, unless None, maps an undecided set of two
    roots or more to False once seen, then, if it holds fewer than `limit`
    masks (`_size`), to U(und), walked from its two children by a call of
    its own.  Into a list it is kept as a list.  Into an array of 8-byte
    words it is kept as one int of the words u_i & und (`_pack`), and
    replayed by one addition: every root above an undecided root is undecided or in
    `ideal`, so u & ~und lies in `ideal`, ideal and u & und are disjoint,
    and ideal | u = ideal + (u & und) in every word at once."""
    words = isinstance(out, array)
    while stack and len(out) < limit:
        ideal, und = stack.pop()
        if memo is not None and und.bit_count() > 1:
            known = memo.get(und)
            if known is None:
                memo[und] = False
            elif known or _size(decisions, sizes, und) < limit:
                if not known:
                    up, keep_in, keep_out = decisions[und.bit_length() - 1]
                    below: Block = array("Q") if words else []
                    _descend(decisions, memo, sizes, [(up, und & keep_in), (0, und & keep_out)],
                             below, limit)
                    memo[und] = known = _pack(below, und) if words else below
                if words:
                    count = sizes[und]
                    out += _unpack(known + _spread(ideal, count), count)
                else:
                    out += [ideal | u for u in known]
                continue
        while und & (und - 1):
            up, keep_in, keep_out = decisions[und.bit_length() - 1]
            stack.append((ideal | up, und & keep_in))
            und &= keep_out
        out.append(ideal)
        if und:  # one root left: out, then in, both leaves
            out.append(ideal | decisions[und.bit_length() - 1][0])


def walk(rs: RootSystem, seeds: Iterable[Seed], size: int) -> Iterator[Block]:
    """Every ideal mask below the states `seeds`, seed by seed, in blocks of
    exactly `size` masks but the last: arrays of 8-byte words ("Q") for a
    type of at most `WORD_ROOTS` roots, else lists of ints.  A state
    (ideal, und) stands for the ideals that agree with `ideal` outside
    `und`, its undecided roots.  For any root k they split into those
    without k (nor any root below it) and those with k's filter: deciding
    the highest undecided root first, "out" before "in", lists them
    ascending.  Only a classical type (`rs.rows`) of a full block of
    ideals or more keeps a memo (`_descend`): a smaller one repeats too
    little, an exceptional one has many small subtrees.  A size below 1
    raises ValueError."""
    if size < 1:
        raise ValueError(f"block size must be a positive integer, got {size}")
    memo: Memo | None = {} if rs.rows and total_count_formula(rs) >= size else None
    decisions = _decisions(rs)
    sizes = {0: 1}
    stack = list(seeds)[::-1]
    block: Block = array("Q") if len(rs) <= WORD_ROOTS else []
    while stack:
        _descend(decisions, memo, sizes, stack, block, size + 1)
        while len(block) >= size:  # a yielded block is not also kept in `block`
            chunk, block = block[:size], block[size:]
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
    return [mask for block in walk(rs, [root_state(rs)], 4096) for mask in block]
