from __future__ import annotations

from math import comb

import pytest

from adnil import LieType, build_root_system, root_leq, total_count_formula

ALL_SMALL = (
    ["A1", "A2", "A3", "A4", "A5"]
    + ["B2", "B3", "B4", "C2", "C3", "C4", "D2", "D3", "D4", "D5"]
    + ["G2", "F4", "E6", "E7"]
)


def test_parse_labels() -> None:
    assert LieType.parse("b4") == LieType("B", 4)
    assert str(LieType.parse("E8")) == "E8"
    assert LieType("A", 1).is_classical
    assert not LieType("G", 2).is_classical


@pytest.mark.parametrize("bad", ["", "A", "X3", "A0", "B1", "E5", "F3", "G3", "A-1"])
def test_parse_rejects(bad: str) -> None:
    with pytest.raises(ValueError):
        LieType.parse(bad)


def test_positive_root_counts() -> None:
    expected = {"A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n,
                "C": lambda n: n * n, "D": lambda n: n * (n - 1)}
    for label in ALL_SMALL:
        rs = build_root_system(label)
        fam, n = rs.lie_type.family, rs.lie_type.rank
        if fam in expected:
            assert len(rs) == expected[fam](n), label
    assert len(build_root_system("G2")) == 6
    assert len(build_root_system("F4")) == 24
    assert len(build_root_system("E6")) == 36
    assert len(build_root_system("E7")) == 63
    assert len(build_root_system("E8")) == 120


def test_highest_roots() -> None:
    frozen = {
        "A3": (1, 1, 1),
        "B3": (1, 2, 2),
        "C3": (2, 2, 1),
        "D4": (1, 2, 1, 1),
        "G2": (3, 2),
        "F4": (2, 3, 4, 2),
    }
    for label, theta in frozen.items():
        assert build_root_system(label).highest_root == theta, label


def test_highest_root_dominates() -> None:
    for label in ALL_SMALL:
        rs = build_root_system(label)
        if label == "D2":
            assert rs.highest_root is None
            continue
        theta = rs.highest_root
        assert all(root_leq(r, theta) for r in rs.positive_roots), label


def test_exponents_and_coxeter_number() -> None:
    for label in ALL_SMALL + ["E8"]:
        rs = build_root_system(label)
        n = rs.lie_type.rank
        h = rs.coxeter_number
        assert h * n == 2 * len(rs), label
        # exponents pair up symmetrically around h/2
        exps = rs.exponents
        assert all(exps[i] + exps[n - 1 - i] == h for i in range(n)), label
    assert build_root_system("E8").coxeter_number == 30
    assert build_root_system("G2").coxeter_number == 6


def test_cells_match_roots_for_classical() -> None:
    for label in ["A4", "B4", "C4", "D4"]:
        rs = build_root_system(label)
        assert rs.cells is not None
        assert len(rs.cells) == len(rs.positive_roots)
        assert len(set(rs.cells)) == len(rs.cells)
    assert build_root_system("F4").cells is None


def test_sum_tables_are_consistent() -> None:
    # B3 lists its roots in cell order, which is not a height order
    for label in ("B3", "D4", "G2"):
        rs = build_root_system(label)
        roots = rs.positive_roots
        order = [k for k, _, _ in rs.decompositions]
        assert sorted(order) == list(range(len(roots))), label
        heights = [sum(roots[k]) for k in order]
        assert heights == sorted(heights), label
        listed = []
        for k, bit, pairs in rs.decompositions:
            assert bit == 1 << k
            for i, j in pairs:
                assert i <= j
                assert tuple(a + b for a, b in zip(roots[i], roots[j])) == roots[k]
                listed.append((i, j))
        # each unordered pair once, and no pair summing to a root missing
        assert len(listed) == len(set(listed)), label
        want = {
            (i, j)
            for i in range(len(roots))
            for j in range(i, len(roots))
            if tuple(a + b for a, b in zip(roots[i], roots[j])) in rs.index
        }
        assert set(listed) == want, label


@pytest.mark.parametrize("label", [*ALL_SMALL, "E8"])
def test_partners_and_covers(label: str) -> None:
    rs = build_root_system(label)
    directed = sorted(
        (i, j, k) for k, _, pairs in rs.decompositions for a, b in pairs
        for i, j in ((a, b), (b, a))
    )
    assert sorted((i, j, k) for i, row in enumerate(rs.partners) for j, k in row) == directed
    # a root covers the roots below it that lie below no other root below it
    for k, down in enumerate(rs.below_masks):
        inner = 0
        for j in range(len(rs)):
            if down >> j & 1:
                inner |= rs.below_masks[j]
        want = [j for j in range(len(rs)) if (down & ~inner) >> j & 1]
        assert sorted(rs.covers[k]) == want, (label, k)


def test_order_masks() -> None:
    rs = build_root_system("C3")
    for i, ri in enumerate(rs.positive_roots):
        for j, rj in enumerate(rs.positive_roots):
            up = bool(rs.filter_masks[i] >> j & 1)
            assert up == root_leq(ri, rj)
            down = bool(rs.below_masks[i] >> j & 1)
            assert down == (root_leq(rj, ri) and i != j)


def test_total_count_formula() -> None:
    catalan = lambda m: comb(2 * m, m) // (m + 1)
    for n in range(1, 9):
        assert total_count_formula(LieType("A", n)) == catalan(n + 1)
    for n in range(2, 7):
        assert total_count_formula(LieType("B", n)) == comb(2 * n, n)
        assert total_count_formula(LieType("C", n)) == comb(2 * n, n)
        expected = comb(2 * n, n) - comb(2 * n - 2, n - 1)
        assert total_count_formula(LieType("D", n)) == expected
    assert total_count_formula(LieType("G", 2)) == 8
    assert total_count_formula(LieType("F", 4)) == 105
    assert total_count_formula(LieType("E", 6)) == 833
    assert total_count_formula(LieType("E", 7)) == 4160
    assert total_count_formula(LieType("E", 8)) == 25080


def test_root_leq_is_a_partial_order() -> None:
    rs = build_root_system("D4")
    roots = rs.positive_roots
    for r in roots:
        assert root_leq(r, r)
    for a in roots:
        for b in roots:
            if root_leq(a, b) and root_leq(b, a):
                assert a == b
