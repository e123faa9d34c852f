from __future__ import annotations

import hashlib
import pickle
from math import comb

import pytest

from adnil import LieType, build_root_system, root_leq, total_count_formula
from adnil import rootsys
from adnil.rootsys import RootSystem, _packed_roots, cartan_matrix

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
    # the family is one letter, not a substring of "ABCDEFG"
    for family in ("", "AB", "a"):
        with pytest.raises(ValueError, match="unknown family"):
            LieType(family, 3)


def test_lie_type_is_an_immutable_value() -> None:
    lt = LieType("A", 3)
    assert repr(lt) == "LieType(family='A', rank=3)"
    assert (lt.family, lt.rank) == ("A", 3)
    assert lt == LieType(family="A", rank=3) == LieType.parse("a3")
    assert lt != LieType("A", 4) and lt != LieType("B", 3)
    assert hash(lt) == hash(LieType("A", 3)) == hash(("A", 3))
    assert {lt: 1}[LieType.parse("A3")] == 1
    assert len({LieType("B", 2), LieType("B", 2), LieType("C", 2)}) == 2
    assert LieType._make(["A", 3]) == lt._replace(rank=4)._replace(rank=3) == lt
    for field in ("family", "rank", "other"):
        with pytest.raises(AttributeError):
            setattr(lt, field, "B")
    assert lt == LieType("A", 3)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(lt, protocol))
        assert type(back) is LieType and back == lt and str(back) == "A3"


@pytest.mark.parametrize("family, rank", [
    ("X", 3), ("", 3), ("AB", 3), ("a", 3), ("A", 0), ("A", -1), ("B", 1), ("C", 1),
    ("D", 1), ("E", 5), ("E", 9), ("F", 3), ("G", 3),
])
def test_lie_type_refuses_a_bad_family_or_rank(family: str, rank: int) -> None:
    with pytest.raises(ValueError, match="unknown family|invalid rank"):
        LieType(family, rank)
    with pytest.raises(ValueError, match="unknown family|invalid rank"):
        LieType(family=family, rank=rank)
    # the namedtuple constructors check too
    with pytest.raises(ValueError, match="unknown family|invalid rank"):
        LieType._make((family, rank))
    with pytest.raises(ValueError, match="unknown family|invalid rank"):
        LieType("E", 6)._replace(family=family, rank=rank)


@pytest.mark.parametrize("bad", ["", "A", "X3", "A0", "B1", "E5", "F3", "G3", "A-1"])
def test_parse_rejects(bad: str) -> None:
    with pytest.raises(ValueError):
        LieType.parse(bad)


@pytest.mark.parametrize("bad", ["A\uff13", "A\u0663", "A\u00b9", "E\u0668", "A1\u0660"])
def test_parse_accepts_ascii_digits_only(bad: str) -> None:
    # fullwidth, Arabic-Indic and superscript digits pass str.isdigit
    with pytest.raises(ValueError, match="cannot parse Lie type"):
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
    # the count that checks each closure, as the sum of the exponents, far
    # past the ranks that are built
    for fam, count in expected.items():
        for n in range(1 if fam == "A" else 2, 200):
            assert rootsys.positive_root_count(LieType(fam, n)) == count(n), (fam, n)
    for label, count in (("G2", 6), ("F4", 24), ("E6", 36), ("E7", 63), ("E8", 120)):
        assert rootsys.positive_root_count(LieType.parse(label)) == count, label


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


TABLES = ("partners", "covers", "filter_masks", "below_masks")
TABLE_TYPES = [*(f"A{n}" for n in range(1, 15)), *(f"{f}{n}" for f in "BCD" for n in range(2, 11)),
               "E6", "E7", "E8", "F4", "G2"]


def test_a_build_holds_no_table_until_one_is_read() -> None:
    for label in ("A1", "D2", "B5", "E8"):
        for first in TABLES:
            rs = build_root_system(label)
            assert not set(TABLES) & vars(rs).keys(), label
            table = getattr(rs, first)
            # one read builds all four, kept on the instance
            assert set(TABLES) <= vars(rs).keys(), (label, first)
            assert getattr(rs, first) is table is vars(rs)[first]
    assert isinstance(RootSystem.partners, rootsys._Table)


def test_lazy_tables_equal_the_eager_build() -> None:
    # the digest of the four tables of each type as the build made them when
    # it built them in `__init__`, whichever table is read first
    for first in TABLES:
        digest = hashlib.sha256()
        for label in TABLE_TYPES:
            rs = build_root_system(label)
            getattr(rs, first)
            for name in TABLES:
                digest.update(f"{label} {name} {getattr(rs, name)!r}\n".encode())
        assert digest.hexdigest() == (
            "5e6045f10c1f84494d6376a508a0c3bf9ded9b98c38cb8cac692176277131711"), first


@pytest.mark.parametrize("label", TABLE_TYPES + ["D2"])
def test_highest_root_by_height_is_the_one_maximal_root(label: str) -> None:
    # the one root whose filter is itself, read before the tables are built
    rs = build_root_system(label)
    index, root = rs.highest_index, rs.highest_root
    tops = [k for k, up in enumerate(rs.filter_masks) if up == 1 << k]
    if label == "D2":
        assert index is root is None and len(tops) == 2
    else:
        assert tops == [index] and root == rs.positive_roots[index]
        assert sum(root) == rs.coxeter_number - 1


def test_bad_builds_raise_before_any_table_is_read(monkeypatch: pytest.MonkeyPatch) -> None:
    def unread(rs) -> None:
        raise AssertionError("a table was read")

    monkeypatch.setattr(RootSystem, "_build_tables", unread)
    with monkeypatch.context() as patched:
        # one root too many expected: the closure check
        patched.setattr(rootsys, "positive_root_count", lambda lt: len(
            rootsys._reflection_closure(cartan_matrix(lt))) + 1)
        with pytest.raises(AssertionError, match="closure produced 9 positive roots"):
            build_root_system("B3")
    with monkeypatch.context() as patched:
        patched.setattr(rootsys, "_staircase_key", lambda lt, r: (0, -sum(r), r))
        with pytest.raises(AssertionError, match="not the staircase widths"):
            build_root_system("B3")
    with pytest.raises(AssertionError, match="a table was read"):
        build_root_system("B3").covers


@pytest.mark.parametrize("label", ["A1", "D2", "A10", "D6", "E8", "F4", "G2"])
def test_pickle_keeps_the_tables(label: str) -> None:
    # a pool that spawns its workers pickles the root system
    fresh = build_root_system(label)
    back = pickle.loads(pickle.dumps(fresh))
    assert not set(TABLES) & vars(back).keys()
    built = build_root_system(label)
    built.partners
    again = pickle.loads(pickle.dumps(built))
    assert set(TABLES) <= vars(again).keys()
    for rs in (back, again):
        assert vars(rs).keys() - set(TABLES) == vars(fresh).keys()
        assert all(getattr(rs, name) == vars(fresh)[name] for name in vars(fresh))
        assert all(getattr(rs, name) == getattr(built, name) for name in TABLES)


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


# the staircase layouts of the classical types, row by row: each root as
# its coefficient digits, in bit order
LAYOUTS = {
    "D2": ["01 10"],
    "A3": ["111 110 100", "011 010", "001"],
    "B3": ["122 112 111 110 100", "012 011 010", "001"],
    "C3": ["221 121 111 110 100", "021 011 010", "001"],
    "D4": ["1211 1111 1101 1110 1100 1000", "0111 0101 0110 0100", "0001 0010"],
}


@pytest.mark.parametrize("label", LAYOUTS)
def test_staircase_layouts(label: str) -> None:
    rs = build_root_system(label)
    digits = ["".join(map(str, r)) for r in rs.positive_roots]
    assert [" ".join(digits[first : first + width]) for first, width in rs.rows] == LAYOUTS[label]
    assert sum(width for _, width in rs.rows) == len(digits)


@pytest.mark.parametrize("family", "ABCD")
def test_rows_have_the_staircase_widths(family: str) -> None:
    # consecutive rows of n, n-1, ..., 1 cells (A), of 2n-1, 2n-3, ..., 1
    # (B, C) or of 2n-2, 2n-4, ..., 2 (D)
    for n in range(1 if family == "A" else 2, 21):
        rs = build_root_system(f"{family}{n}")
        top, step = (n, 1) if family == "A" else (2 * n - 1 - (family == "D"), 2)
        assert [w for _, w in rs.rows] == list(range(top, 0, -step)), (family, n)
        assert [s for s, _ in rs.rows] == [sum(w for _, w in rs.rows[:i]) for i in range(len(rs.rows))]
    assert build_root_system("F4").rows is None


def test_rows_off_the_staircase_widths_raise(monkeypatch: pytest.MonkeyPatch) -> None:
    # every root in one row: the widths check refuses the build, by an
    # explicit raise that `python -O` keeps
    monkeypatch.setattr(rootsys, "_staircase_key", lambda lt, r: (0, -sum(r), r))
    with pytest.raises(AssertionError, match="not the staircase widths"):
        build_root_system("B3")


@pytest.mark.parametrize("label", [*ALL_SMALL, "E8"])
def test_partners_and_covers(label: str) -> None:
    # partners: every ordered pair of roots whose sum is a root, and the sum
    rs = build_root_system(label)
    roots = rs.positive_roots
    index = {r: k for k, r in enumerate(roots)}
    sums = sorted(
        (i, j, index[s])
        for i, ri in enumerate(roots)
        for j, rj in enumerate(roots)
        if (s := tuple(a + b for a, b in zip(ri, rj))) in index
    )
    assert sorted((i, j, k) for i, row in enumerate(rs.partners) for j, k in row) == sums
    # a root covers the roots below it that lie below no other root below
    # it, which are exactly the roots a simple root below it
    simple = set(rs.simple_roots)
    for k, down in enumerate(rs.below_masks):
        inner = 0
        for j in range(len(rs)):
            if down >> j & 1:
                inner |= rs.below_masks[j]
        want = [j for j in range(len(rs)) if (down & ~inner) >> j & 1]
        steps = [tuple(a - b for a, b in zip(roots[k], r)) for r in roots]
        assert [j for j, step in enumerate(steps) if step in simple] == want, (label, k)


def _tuple_sum_tables(rs) -> dict:
    """The order and sum tables of `rs`, built from its Cartan matrix the
    slow way: every reflection that keeps a root positive, one tuple per
    sum of two roots, and the order read off the dominance test."""
    a, n = cartan_matrix(rs.lie_type), rs.lie_type.rank
    closure = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    frontier = list(closure)
    while frontier:
        nxt = []
        for beta in frontier:
            for i in range(n):
                ci = beta[i] - sum(a[i][j] * beta[j] for j in range(n))
                img = beta[:i] + (ci,) + beta[i + 1:]
                if ci >= 0 and any(img) and img not in closure:
                    closure.add(img)
                    nxt.append(img)
        frontier = nxt
    # the classical order is pinned by `test_staircase_layouts`
    if rs.lie_type.is_classical:
        roots = rs.positive_roots
        assert sorted(roots) == sorted(closure)
    else:
        roots = sorted(closure, key=lambda r: (sum(r), r))
    index = {r: k for k, r in enumerate(roots)}
    size = len(roots)
    partners = [[] for _ in range(size)]
    for i, ri in enumerate(roots):
        for j in range(i, size):
            k = index.get(tuple(x + y for x, y in zip(ri, roots[j])))
            if k is not None:
                partners[i].append((j, k))
                partners[j].append((i, k))
    covers = [[index[u] for i in range(n) if (u := r[:i] + (r[i] + 1,) + r[i + 1:]) in index]
              for r in roots]
    up = [sum(1 << j for j, rj in enumerate(roots) if root_leq(ri, rj)) for ri in roots]
    below = [sum(1 << j for j, rj in enumerate(roots) if root_leq(rj, ri) and j != i)
             for i, ri in enumerate(roots)]
    return {
        "positive_roots": roots,
        "partners": partners,
        "covers": covers,
        "filter_masks": up,
        "below_masks": below,
    }


@pytest.mark.parametrize("label", [
    *(f"A{n}" for n in range(1, 16)),
    *(f"{f}{n}" for f in "BCD" for n in range(2, 13)),
    "E6", "E7", "E8", "F4", "G2",
])
def test_tables_match_the_tuple_sum_reference(label: str) -> None:
    # the packed-int build gives the same lists, in the same order
    rs = build_root_system(label)
    for name, want in _tuple_sum_tables(rs).items():
        assert getattr(rs, name) == want, (label, name)


def test_packed_roots_refuse_a_coefficient_above_seven() -> None:
    # 7 + 7 still fits a 4-bit field; 8 would let a sum carry
    assert _packed_roots([(1, 0), (7, 3)]) == [1, 0x37]
    for roots in ([(8,)], [(1, 2), (0, 9)]):
        with pytest.raises(ValueError, match="exceeds 7"):
            _packed_roots(roots)


def test_order_masks() -> None:
    for label in [*ALL_SMALL, "E8", *(f"{f}{n}" for f in "BCD" for n in range(7, 11))]:
        rs = build_root_system(label)
        roots = rs.positive_roots
        for i, ri in enumerate(roots):
            for j, rj in enumerate(roots):
                up = bool(rs.filter_masks[i] >> j & 1)
                assert up == root_leq(ri, rj), (label, i, j)
                down = bool(rs.below_masks[i] >> j & 1)
                assert down == (root_leq(rj, ri) and i != j), (label, i, j)
        maxima = [i for i, ri in enumerate(roots) if not any(
            root_leq(ri, rj) and ri != rj for rj in roots)]
        assert rs.highest_index == (maxima[0] if len(maxima) == 1 else None), label


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
