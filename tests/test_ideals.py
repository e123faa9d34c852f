from __future__ import annotations

import gc
from array import array
from bisect import bisect_right

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
    enumerate_ideal_masks,
    is_upward_closed,
    mask_indices,
    partition_seeds,
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
    return [mask for block in walk(rs, seeds, size) for mask in block]


def test_partition_seeds_cover_exactly_once() -> None:
    # the root state split into 2 x (roots + 1) states, or into single
    # ideals where there are fewer; each seed walked alone, in order
    for label in SMALL_TYPES:
        rs = build_root_system(label)
        seeds = partition_seeds(rs)
        assert len(seeds) == min(2 * (len(rs) + 1), total_count_formula(rs)), label
        combined = [ideal for seed in seeds for ideal in _walked(rs, [seed])]
        assert combined == enumerate_ideal_masks(rs), label


@pytest.mark.parametrize("label", [*SMALL_TYPES, "A10", "E8"])
def test_one_walk_of_the_seeds_in_order_is_the_enumeration(label: str) -> None:
    rs = build_root_system(label)
    assert _walked(rs, partition_seeds(rs)) == enumerate_ideal_masks(rs)


def test_partition_seeds_are_balanced() -> None:
    # a pool can only be as fast as its largest seed
    for label in ("E8", "A10", "B8", "C8", "D8"):
        rs = build_root_system(label)
        sizes = [len(_walked(rs, [seed])) for seed in partition_seeds(rs)]
        assert sum(sizes) == total_count_formula(rs), label
        assert max(sizes) <= 0.3 * sum(sizes), (label, max(sizes), sum(sizes))


@pytest.mark.parametrize("size", [1, 7, 4096])
def test_walk_blocks_are_full_but_the_last(size: int) -> None:
    for label in ("A1", "D4", "C5", "E6"):
        rs = build_root_system(label)
        for seeds in ([root_state(rs)], partition_seeds(rs)):
            sizes = [len(block) for block in walk(rs, seeds, size)]
            total = total_count_formula(rs)
            assert sizes == [size] * (total // size) + [total % size] * (total % size > 0), label


@pytest.mark.parametrize("label", SMALL_TYPES)  # reducible D2 and A1 among them
def test_any_grouping_of_the_seeds_walks_every_ideal_once(label: str) -> None:
    # a pool task walks one group of seeds as one walk, with all of them
    # on its first stack
    rs = build_root_system(label)
    want = enumerate_ideal_masks(rs)
    assert len(set(want)) == len(want) == total_count_formula(rs)
    seeds = partition_seeds(rs)
    assert sorted(_walked(rs, seeds[::-1], 7)) == want
    for k in (1, 2, 3, 8):
        groups = [seeds[i::k] for i in range(k)]
        assert sorted(mask for group in groups for mask in _walked(rs, group, 5)) == want, k


def test_walk_of_no_seed_or_a_finished_state() -> None:
    rs = build_root_system("B3")
    assert list(walk(rs, [], 4096)) == []
    full = (1 << len(rs)) - 1
    for ideal in (0, full, rs.filter_masks[2]):
        assert list(walk(rs, [(ideal, 0)], 4096)) == [[ideal]]
    assert list(walk(rs, [(0, 0), (full, 0)], 1)) == [[0], [full]]  # seed by seed


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


def _sorted_dfs(rs) -> list[int]:
    return sorted(_dfs_walk(rs, [root_state(rs)]))


def _chunks(masks: list[int], size: int) -> list[list[int]]:
    return [masks[start:start + size] for start in range(0, len(masks), size)]


def _sorted_dfs_below(rs, states: list) -> dict:
    """The ideals below each of the ascending `states`, in ascending order,
    cut from the sorted antichain DFS: each mask goes to the last state
    whose ideal it does not precede, and must hold that ideal and agree
    with it outside the state's undecided roots."""
    below: dict = {state: [] for state in states}
    starts = [ideal for ideal, _ in states]
    for mask in _sorted_dfs(rs):
        ideal, undecided = state = states[bisect_right(starts, mask) - 1]
        assert mask & ~undecided == ideal, (state, mask)
        below[state].append(mask)
    return below


@pytest.mark.parametrize("label", [*SMALL_TYPES, "A10", "B8", "C8", "D8", "E8"])
def test_walk_replays_the_plain_dfs_block_for_block(label: str) -> None:
    # the memo's replays leave every block as the sorted antichain DFS
    # cuts it: from the root state, from all the seeds in order, and from
    # every grouping of the seeds, each group a walk of its own as a pool
    # task is
    rs = build_root_system(label)
    seeds = partition_seeds(rs)
    below = _sorted_dfs_below(rs, seeds)
    groupings = [[seeds[i::k] for i in range(k)] for k in (1, 2, 3, 8)]
    wants = [[_sorted_dfs(rs)]]
    wants += [[[mask for seed in group for mask in below[seed]] for group in groups]
              for groups in groupings]
    for groups, want in zip([[[root_state(rs)]], *groupings], wants):
        for size in (1, 5, 7, 4096):
            got = [list(walk(rs, group, size)) for group in groups]
            assert got == [_chunks(masks, size) for masks in want], (size, len(groups))


def _walk_memos(monkeypatch: pytest.MonkeyPatch) -> list:
    """The memo argument of every `_descend` call from now on."""
    memos = []
    descend = ideals._descend

    def spy(decisions, memo, *rest):
        memos.append(memo)
        return descend(decisions, memo, *rest)

    monkeypatch.setattr(ideals, "_descend", spy)
    return memos


def test_memo_stores_no_list_longer_than_a_block(monkeypatch: pytest.MonkeyPatch) -> None:
    # a subtree of more ideals than a block is walked as is at every
    # sighting, and an undecided set of at most one root is never stored
    memos = _walk_memos(monkeypatch)
    rs = build_root_system("A10")
    assert list(walk(rs, [root_state(rs)], 64)) == _chunks(_sorted_dfs(rs), 64)
    memo = memos[0]
    assert all(m is memo for m in memos)  # one memo for the whole walk
    stored = [below for below in memo.values() if below]
    assert stored and max(map(len, stored)) <= 64
    assert all(isinstance(below, array) for below in stored)  # 55 roots: 8-byte words
    assert None in memo.values()  # some subtree held more than 64 ideals
    assert all(undecided.bit_count() > 1 for undecided in memo)
    memos.clear()
    rs = build_root_system("A11")  # 66 roots: kept as lists of ints
    assert list(walk(rs, [root_state(rs)], 4096)) == _chunks(_sorted_dfs(rs), 4096)
    assert all(type(below) is list for below in memos[0].values() if below)


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
        assert list(walk(rs, [root_state(rs)], 4096)) == want
        assert {memo is not None for memo in memos} == {memo_kept}, label
    seeds = partition_seeds(rs)
    memos.clear()
    for group in (seeds[0::2], seeds[1::2]):
        list(walk(rs, group, 4096))
    assert len({id(memo) for memo in memos}) == 2  # one memo per walk
