from __future__ import annotations

from hypothesis import given, strategies as st

from adnil import (
    antichain_to_ideal,
    build_root_system,
    ideal_minimal_elements,
    total_count_formula,
)
from adnil.checks import SMALL_TYPES
from adnil.ideals import (
    enumerate_ideal_masks,
    is_upward_closed,
    mask_indices,
    partition_seeds,
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


def test_masks_are_ascending_and_unique() -> None:
    rs = build_root_system("C3")
    masks = enumerate_ideal_masks(rs)
    assert masks == sorted(set(masks))
    assert masks[0] == 0


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


def test_partition_seeds_cover_exactly_once() -> None:
    for label in SMALL_TYPES:
        rs = build_root_system(label)
        seeds = partition_seeds(rs)
        assert seeds[0] == (len(rs), 0, 0) and len(seeds) == len(rs) + 1, label
        combined = [ideal for seed in seeds for ideal, _ in walk(rs, seed)]
        assert sorted(combined) == enumerate_ideal_masks(rs), label


def test_walk_carries_each_ideals_antichain() -> None:
    for label in SMALL_TYPES:
        rs = build_root_system(label)
        for seed in [(0, 0, 0), *partition_seeds(rs)]:
            for ideal, antichain in walk(rs, seed):
                assert antichain == ideal_minimal_elements(rs, ideal), (label, ideal)


def test_partition_seeds_are_balanced() -> None:
    # a pool can only be as fast as its largest seed
    for label in ("E8", "A10", "B8", "C8", "D8"):
        rs = build_root_system(label)
        sizes = [sum(1 for _ in walk(rs, seed)) for seed in partition_seeds(rs)]
        assert sum(sizes) == total_count_formula(rs), label
        assert max(sizes) <= 0.3 * sum(sizes), (label, max(sizes), sum(sizes))
