from __future__ import annotations

import gc

import pytest
from hypothesis import given, strategies as st

from adnil import (
    antichain_to_ideal,
    build_root_system,
    ideal_minimal_elements,
    total_count_formula,
)
from adnil import ideals
from adnil.checks import SMALL_TYPES
from adnil.ideals import (
    block_length,
    block_masks,
    enumerate_ideal_masks,
    is_upward_closed,
    mask_indices,
    partition_seeds,
    record_width,
    root_state,
    walk,
)
from adnil.rootsys import root_leq

COUNT_LABELS = (
    ["A1", "A2", "A3", "A4", "A5"]
    + ["B2", "B3", "B4", "C2", "C3", "C4", "D2", "D3", "D4"]
    + ["G2", "F4"]
)


def test_mask_indices() -> None:
    assert mask_indices(0) == []
    assert mask_indices(0b101101) == [0, 2, 3, 5]


def test_counts_match_product_formula() -> None:
    for label in COUNT_LABELS:
        rs = build_root_system(label)
        assert len(enumerate_ideal_masks(rs)) == total_count_formula(rs.lie_type), label


def test_every_enumerated_mask_is_upward_closed() -> None:
    for label in ["A3", "B3", "G2"]:
        rs = build_root_system(label)
        for mask in enumerate_ideal_masks(rs):
            assert is_upward_closed(rs, mask), (label, mask)


@pytest.mark.parametrize("label", [*SMALL_TYPES, "A10", "E8"])
def test_masks_are_ascending_and_unique(label: str) -> None:
    rs = build_root_system(label)
    masks = enumerate_ideal_masks(rs)
    assert masks == sorted(set(masks))
    assert masks[0] == 0 and masks[-1] == (1 << len(rs)) - 1


def test_antichain_ideal_bijection_exhaustive() -> None:
    for label in ["A4", "B3", "D4", "G2"]:
        rs = build_root_system(label)
        seen = set()
        for ideal in enumerate_ideal_masks(rs):
            antichain = ideal_minimal_elements(rs, ideal)
            # minimal elements really are pairwise incomparable
            idx = mask_indices(antichain)
            for a in idx:
                for b in idx:
                    if a != b:
                        ra, rb = rs.positive_roots[a], rs.positive_roots[b]
                        assert not root_leq(ra, rb)
            assert antichain_to_ideal(rs, antichain) == ideal
            seen.add(antichain)
        assert len(seen) == total_count_formula(rs.lie_type)


_B4 = build_root_system("B4")


@given(st.integers(min_value=0, max_value=(1 << 16) - 1))
def test_minimal_elements_of_any_filter_union(bits: int) -> None:
    # the up-closure of the minimal elements of any root subset is an
    # ideal whose minimal elements form exactly that antichain
    rs = _B4
    antichain = ideal_minimal_elements(rs, bits)
    ideal = antichain_to_ideal(rs, antichain)
    assert is_upward_closed(rs, ideal)
    assert ideal_minimal_elements(rs, ideal) == antichain


def test_empty_antichain_gives_zero_ideal() -> None:
    rs = build_root_system("A2")
    assert antichain_to_ideal(rs, 0) == 0


def _walked(rs, seeds, size: int = 4096) -> list[int]:
    return [mask for block in walk(rs, seeds, size) for mask in block_masks(rs, block)]


def _blocks(rs, blocks) -> list[list[int]]:
    """A walk's blocks of records as lists of ints."""
    return [block_masks(rs, block) for block in blocks]


def _size(rs, und: int) -> int:
    return ideals._size(ideals._decisions(rs), {0: 1}, und)


@pytest.mark.parametrize("family", "ABCD")
def test_size_of_the_root_state_is_the_product_formula(family: str) -> None:
    # counted without listing, from the undecided sets alone
    for rank in range(1 if family == "A" else 2, 13):
        rs = build_root_system(f"{family}{rank}")
        assert _size(rs, root_state(rs)[1]) == total_count_formula(rs), rank
    for label in ("G2", "F4", "E6", "E7", "E8"):
        rs = build_root_system(label)
        assert _size(rs, root_state(rs)[1]) == total_count_formula(rs), label


def test_size_of_every_split_state_is_its_walk() -> None:
    # the ideals below (ideal, und) are ideal | u for those below (0, und)
    for label in SMALL_TYPES:
        rs = build_root_system(label)
        for parts in (3, 8):
            for ideal, und in (state for group in partition_seeds(rs, parts) for state in group):
                assert _size(rs, und) == len(_walked(rs, [(ideal, und)])), (label, ideal, und)


def _sorted_dfs(rs) -> list[int]:
    return sorted(_dfs_walk(rs, [root_state(rs)]))


def _ranges(masks: list[int], parts: int) -> list[list[int]]:
    """The non-empty ranges of `masks`, the one of rank r being r x parts
    // len(masks)."""
    total = len(masks)
    cuts = [-(-j * total // parts) for j in range(parts + 1)]  # the first rank of range j
    return [masks[start:end] for start, end in zip(cuts, cuts[1:]) if start < end]


def _chunks(masks: list[int], size: int) -> list[list[int]]:
    return [masks[start:start + size] for start in range(0, len(masks), size)]


def test_partition_seeds_cover_exactly_once() -> None:
    # each state walked alone, in order, group by group, lists every ideal
    # ascending; the groups are the ranges of the ascending order, one per
    # part while there are as many ideals
    for label in SMALL_TYPES:
        rs = build_root_system(label)
        want = _sorted_dfs(rs)
        for parts in (1, 2, 3, 8, 100):
            groups = partition_seeds(rs, parts)
            assert len(groups) == min(parts, len(want)), (label, parts)
            got = [[mask for state in group for mask in _walked(rs, [state])] for group in groups]
            assert got == _ranges(want, parts), (label, parts)


@pytest.mark.parametrize("label", [*SMALL_TYPES, "A10", "E8"])
def test_one_walk_of_the_seeds_in_order_is_the_enumeration(label: str) -> None:
    rs = build_root_system(label)
    want = enumerate_ideal_masks(rs)
    for parts in (1, 3, 8):
        seeds = [state for group in partition_seeds(rs, parts) for state in group]
        assert _walked(rs, seeds) == want, parts


def test_partition_seeds_are_balanced() -> None:
    # a pool can only be as fast as its largest group: the groups' sizes
    # are within one of each other
    for label in ("E8", "A10", "B8", "C8", "D8"):
        rs = build_root_system(label)
        for parts in (2, 8, 12):
            sizes = [len(_walked(rs, group)) for group in partition_seeds(rs, parts)]
            assert sum(sizes) == total_count_formula(rs), label
            assert len(sizes) == parts and max(sizes) - min(sizes) <= 1, (label, sizes)


@pytest.mark.parametrize("size", [1, 7, 4096])
def test_walk_blocks_are_full_but_the_last(size: int) -> None:
    def full_but_the_last(count: int) -> list[int]:
        return [size] * (count // size) + [count % size] * (count % size > 0)

    for label in ("A1", "D4", "C5", "E6"):
        rs = build_root_system(label)
        total = total_count_formula(rs)
        groups = partition_seeds(rs, 3)
        for seeds in ([root_state(rs)], [state for group in groups for state in group]):
            sizes = [block_length(rs, block) for block in walk(rs, seeds, size)]
            assert sizes == full_but_the_last(total), label
        for group in groups:
            sizes = [block_length(rs, block) for block in walk(rs, group, size)]
            assert sizes == full_but_the_last(len(_walked(rs, group))), label


@pytest.mark.parametrize("label", SMALL_TYPES)  # reducible D2 and A1 among them
def test_any_grouping_of_the_seeds_walks_every_ideal_once(label: str) -> None:
    # a pool task walks one group of states as one walk, with all of them
    # on its first stack; every group lists its own range
    rs = build_root_system(label)
    want = _sorted_dfs(rs)
    assert want == enumerate_ideal_masks(rs)
    assert len(set(want)) == len(want) == total_count_formula(rs)
    seeds = [state for group in partition_seeds(rs, 8) for state in group]
    assert sorted(_walked(rs, seeds[::-1], 7)) == want
    for parts in (1, 2, 3, 8, 100):
        groups = partition_seeds(rs, parts)
        assert [_walked(rs, group, 5) for group in groups] == _ranges(want, parts), parts


def test_walk_of_no_seed_or_a_finished_state() -> None:
    rs = build_root_system("B3")
    assert list(walk(rs, [], 4096)) == []
    full = (1 << len(rs)) - 1
    for ideal in (0, full, rs.filter_masks[2]):
        assert _blocks(rs, walk(rs, [(ideal, 0)], 4096)) == [[ideal]]
    assert _blocks(rs, walk(rs, [(0, 0), (full, 0)], 1)) == [[0], [full]]  # seed by seed


def _dfs_walk(rs, seeds) -> list[int]:
    """An antichain DFS, as reference: every ideal below the states `seeds`,
    each a pair (ideal, roots that may still join its antichain), in DFS
    order.  A state's children join one free root i each, and keep free
    the roots after i that are incomparable to it."""
    filters = rs.filter_masks
    incomparable = [
        (1 << len(rs)) - (2 << i) & ~(up | down)
        for i, (up, down) in enumerate(zip(filters, rs.below_masks))
    ]
    stack = list(seeds)
    out: list[int] = []
    while stack:
        ideal, free = stack.pop()
        out.append(ideal)
        while free:
            bit = free & -free
            free ^= bit
            i = bit.bit_length() - 1
            if rest := free & incomparable[i]:
                stack.append((ideal | filters[i], rest))
            else:
                out.append(ideal | filters[i])
    return out


@pytest.mark.parametrize("label", [*SMALL_TYPES, "A10", "B8", "C8", "D8", "E8"])
def test_walk_replays_the_plain_dfs_block_for_block(label: str) -> None:
    # the memo's replays leave every block as the sorted antichain DFS
    # cuts it: from the root state (one part), and from every range of the
    # ascending order, each range a walk of its own as a pool task is
    rs = build_root_system(label)
    want = _sorted_dfs(rs)
    assert partition_seeds(rs, 1) == [[root_state(rs)]]
    width = record_width(rs)  # E8's 120 roots take 15 bytes a record
    for parts in (1, 2, 3, 8):
        groups = partition_seeds(rs, parts)
        for size in (1, 5, 7, 4096):
            walks = [list(walk(rs, group, size)) for group in groups]
            assert {type(block) for blocks in walks for block in blocks} == {bytearray}
            assert all(len(block) % width == 0 for blocks in walks for block in blocks)
            got = [_blocks(rs, blocks) for blocks in walks]
            assert got == [_chunks(masks, size) for masks in _ranges(want, parts)], (parts, size)


def _walk_memos(monkeypatch: pytest.MonkeyPatch) -> list:
    """The memo argument of every `_descend` call from now on."""
    memos = []
    descend = ideals._descend

    def spy(decisions, memo, *rest):
        memos.append(memo)
        return descend(decisions, memo, *rest)

    monkeypatch.setattr(ideals, "_descend", spy)
    return memos


def _kept(rs, memo) -> dict[int, list[int]]:
    """The kept entries of a walk memo, each as its list of masks: the
    packed int read as the little-endian records of as many masks as the
    set has ideals."""
    width = record_width(rs)
    return {
        und: block_masks(rs, below.to_bytes(width * _size(rs, und), "little"))
        for und, below in memo.items() if below
    }


def test_memo_stores_no_list_longer_than_a_block(monkeypatch: pytest.MonkeyPatch) -> None:
    # a subtree of more ideals than a block is walked as is at every
    # sighting, and an undecided set of at most one root is never stored
    memos = _walk_memos(monkeypatch)
    rs = build_root_system("A10")
    assert _blocks(rs, walk(rs, [root_state(rs)], 64)) == _chunks(_sorted_dfs(rs), 64)
    memo = memos[0]
    assert all(m is memo for m in memos)  # one memo for the whole walk
    assert all(type(below) is int for below in memo.values() if below)  # 55 roots: 7-byte records
    stored = _kept(rs, memo)
    assert stored and max(map(len, stored.values())) <= 64
    for undecided, below in stored.items():  # the masks of U(und), each ANDed with und
        assert below == [u & undecided for u in _walked(rs, [(0, undecided)])]
        assert len(below) == _size(rs, undecided)
    # some subtree held more than 64 ideals
    assert any(_size(rs, undecided) > 64 for undecided, below in memo.items() if not below)
    assert all(undecided.bit_count() > 1 for undecided in memo)
    memos.clear()
    rs = build_root_system("A11")  # 66 roots: kept as 9-byte records, one int per set
    assert _blocks(rs, walk(rs, [root_state(rs)], 4096)) == _chunks(_sorted_dfs(rs), 4096)
    stored = _kept(rs, memos[0])
    assert stored and max(map(len, stored.values())) <= 4096
    assert all(below == [u & und for u in _walked(rs, [(0, und)])] for und, below in stored.items())


@pytest.mark.parametrize("label, sets, masks", [
    ("A8", 20, 1420), ("A10", 34, 11922), ("B8", 35, 3416), ("C8", 35, 3416), ("D8", 33, 2469),
])
def test_memo_keeps_every_set_of_fewer_ideals_than_a_block_seen_twice(
    monkeypatch: pytest.MonkeyPatch, label: str, sets: int, masks: int,
) -> None:
    # the undecided sets kept, and the masks kept for them, over one walk
    # of the root state in blocks of 4096
    memos = _walk_memos(monkeypatch)
    rs = build_root_system(label)
    for _ in walk(rs, [root_state(rs)], 4096):
        pass
    stored = list(_kept(rs, memos[0]).values())
    assert (len(stored), sum(map(len, stored))) == (sets, masks)


class _Popped(list):
    """A walk stack that records every state popped off it."""

    def __init__(self, stack: list, popped: list) -> None:
        super().__init__(stack)
        self.popped = popped

    def pop(self):
        state = super().pop()
        self.popped.append(state)
        return state


@pytest.mark.parametrize("label", ["A8", "A10", "B8", "C8", "D8"])
def test_every_replay_adds_the_ideal_to_disjoint_words(
    monkeypatch: pytest.MonkeyPatch, label: str,
) -> None:
    # a state (ideal, und) of the walk has every root above an undecided
    # root undecided or in `ideal`, so for each u below (0, und) the roots
    # of u outside und lie in `ideal`: ideal | u = ideal + (u & und), the
    # one addition of a replay, with no carry between the records
    popped: list = []
    memos: list = []
    depth = [0]
    descend = ideals._descend

    def spy(decisions, memo, sizes, stack, *rest):
        memos.append(memo)
        depth[0] += 1
        try:  # the states of the walk itself, not those of a memo's fill
            recorded = _Popped(stack, popped if depth[0] == 1 else [])
            descend(decisions, memo, sizes, recorded, *rest)
            stack[:] = recorded
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ideals, "_descend", spy)
    rs = build_root_system(label)
    assert _blocks(rs, walk(rs, [root_state(rs)], 4096)) == _chunks(_sorted_dfs(rs), 4096)
    monkeypatch.undo()
    stored = _kept(rs, memos[0])
    below = {und: _walked(rs, [(0, und)]) for und in stored}
    replays = [(ideal, und) for ideal, und in popped if und in stored]
    assert len({und for _, und in replays}) == len(stored)  # every kept set is replayed
    for ideal, und in replays:
        assert all(rs.filter_masks[k] & ~und & ~ideal == 0 for k in mask_indices(und))
        assert stored[und] == [u & und for u in below[und]]
        assert [ideal | u for u in below[und]] == [ideal + w for w in stored[und]]


def _little(masks, width: int) -> bytes:
    return b"".join(mask.to_bytes(width, "little") for mask in masks)


@pytest.mark.parametrize("label", ["A8", "A10", "B8", "D8"])
def test_walk_is_the_same_in_either_byte_order(monkeypatch: pytest.MonkeyPatch, label: str) -> None:
    # no step reads the host's byte order: every record of a block, replayed
    # from the memo or walked as is, is its mask's little-endian bytes, and
    # each kept set is one int of the little-endian records of u & und
    memos = _walk_memos(monkeypatch)
    rs = build_root_system(label)
    width = record_width(rs)
    blocks = list(walk(rs, [root_state(rs)], 4096))
    assert [bytes(block) for block in blocks] == [
        _little(masks, width) for masks in _chunks(_sorted_dfs(rs), 4096)
    ]
    kept = {und: below for und, below in memos[0].items() if below}
    assert kept
    for und, packed in kept.items():
        below = _walked(rs, [(0, und)])
        assert packed.to_bytes(width * len(below), "little") == _little([u & und for u in below], width)


@pytest.mark.parametrize("label", ["A1", "C5", "E6", "E7", "E8", "A11"])
def test_each_record_is_the_mask_in_little_endian(label: str) -> None:
    # record widths 1, 4, 5, 8, 15 and 9 bytes, walked without a memo
    # (packed 8-byte words cut to the width, or one `to_bytes` per mask past
    # 8 bytes) and, for A11, with one; `block_masks` reads them back
    rs = build_root_system(label)
    width = record_width(rs)
    assert width == -(-len(rs) // 8)
    want = _chunks(_sorted_dfs(rs), 4096)
    blocks = list(walk(rs, [root_state(rs)], 4096))
    assert [bytes(block) for block in blocks] == [_little(masks, width) for masks in want]
    assert _blocks(rs, blocks) == want
    assert block_masks(rs, want[0]) is want[0]  # a list is already masks


def test_a_walk_of_fewer_ideals_than_a_block_keeps_no_memo(monkeypatch: pytest.MonkeyPatch) -> None:
    # the memo is chosen by the ideals below the walk's own seeds, not by
    # its type's: each of A10's 16 ranges holds fewer than 4096 of its 58786
    # ideals and walks without one, and with one at a block of its own size
    memos = _walk_memos(monkeypatch)
    rs = build_root_system("A10")
    ranges = _ranges(_sorted_dfs(rs), 16)
    for group, masks in zip(partition_seeds(rs, 16), ranges):
        assert len(masks) < 4096
        memos.clear()
        assert _blocks(rs, walk(rs, group, 4096)) == [masks]
        assert memos and all(memo is None for memo in memos)
        memos.clear()
        assert _blocks(rs, walk(rs, group, len(masks))) == [masks]
        assert memos and all(memo is not None for memo in memos)


def test_walk_refuses_a_block_size_below_one() -> None:
    rs = build_root_system("B3")
    for size in (0, -1):
        with pytest.raises(ValueError, match=f"^block size must be a positive integer, got {size}$"):
            next(walk(rs, [root_state(rs)], size))


def test_partition_seeds_refuses_fewer_than_one_part() -> None:
    rs = build_root_system("B3")
    for parts in (0, -1):
        with pytest.raises(ValueError, match=f"^parts must be a positive integer, got {parts}$"):
            partition_seeds(rs, parts)


def test_walk_memo_dies_with_its_walk() -> None:
    # no reference cycle holds a walk's memo until the cyclic collector
    # runs: a finished walk and a dropped one leave no garbage behind
    rs = build_root_system("A10")
    gc.collect()
    gc.disable()
    try:
        for _ in walk(rs, [root_state(rs)], 64):
            pass
        dropped = walk(rs, [root_state(rs)], 64)
        for _ in range(100):
            next(dropped)
        del dropped
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_only_classical_types_of_a_full_block_keep_a_memo(monkeypatch: pytest.MonkeyPatch) -> None:
    # below one full block of ideals, and on the exceptional types at any
    # count, a walk keeps no memo; each walk of a classical type of a full
    # block or more keeps one of its own
    memos = _walk_memos(monkeypatch)
    cases = (("E7", False), ("C7", False), ("E8", False), ("A8", True), ("D8", True))
    for label, memo_kept in cases:
        rs = build_root_system(label)  # 4160, 3432, 25080, 4862 and 9438 ideals
        want = _chunks(_sorted_dfs(rs), 4096)
        memos.clear()
        assert _blocks(rs, walk(rs, [root_state(rs)], 4096)) == want
        assert {memo is not None for memo in memos} == {memo_kept}, label
    memos.clear()
    for group in partition_seeds(rs, 2):
        list(walk(rs, group, 4096))
    assert len({id(memo) for memo in memos}) == 2  # one memo per walk
