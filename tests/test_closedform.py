from __future__ import annotations

import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import adnil
from adnil import (
    alpha_A,
    build_root_system,
    c4_count,
    catalan_qt,
    class_distribution,
    corollary_values,
    fibonacci,
    gamma_C,
    gamma_qt,
    joint_histogram,
    path_count_height,
    t_binomial,
)
from adnil import poly
from adnil.closedform import odd_sum_product


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


# ---------------------------------------------------------------------------
# Gaussian binomials


def test_t_binomial_frozen() -> None:
    assert t_binomial(4, 2) == (1, 1, 2, 1, 1)
    assert t_binomial(5, 0) == (1,)
    assert t_binomial(0, 0) == (1,)
    assert t_binomial(2, 5) == ()
    assert t_binomial(3, 1) == (1, 1, 1)


def test_t_binomial_specializes_to_binomial() -> None:
    for m in range(9):
        for n in range(m + 2):
            assert sum(t_binomial(m, n)) == comb(m, n)


def test_t_binomial_matches_product_formula() -> None:
    # [m, n] (1-t)...(1-t^n) = (1-t^(m-n+1))...(1-t^m), free of division
    def one_minus(e: int) -> tuple[int, ...]:
        return (1,) + (0,) * (e - 1) + (-1,)

    for m in range(13):
        for n in range(1, m + 1):
            below = poly.mul((1,), *(one_minus(i) for i in range(1, n + 1)))
            above = poly.mul((1,), *(one_minus(m - n + i) for i in range(1, n + 1)))
            assert poly.mul(t_binomial(m, n), below) == above, (m, n)


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=12))
def test_t_binomial_symmetry(m: int, n: int) -> None:
    assert t_binomial(m, n) == t_binomial(m, m - n) or n > m


# ---------------------------------------------------------------------------
# type A closed forms


def test_alpha_hand_values() -> None:
    assert alpha_A(1, 0) == 1
    assert alpha_A(1, 1) == 1
    assert alpha_A(2, 1) == 3
    assert alpha_A(2, 2) == 1
    assert alpha_A(3, 2) == 5
    assert alpha_A(3, 4) == 0
    with pytest.raises(ValueError):
        alpha_A(3, -1)


def test_alpha_sums_to_catalan() -> None:
    for n in range(1, 8):
        assert sum(alpha_A(n, K) for K in range(n + 1)) == catalan(n + 1)


def test_alpha_matches_enumeration() -> None:
    for n in range(1, 6):
        dist = class_distribution(build_root_system(f"A{n}"), workers=1)
        for K in range(n + 1):
            assert alpha_A(n, K) == dist.get(K, 0), (n, K)


def test_negative_rank_is_refused() -> None:
    # rank 0 keeps its answers; a negative rank is named, not answered
    assert alpha_A(0, 0) == gamma_C(0, 0) == c4_count(0, 2) == 1
    assert catalan_qt(0) == gamma_qt(0) == {(0, 0): 1}
    for call in (
        lambda n: alpha_A(n, 0), lambda n: gamma_C(n, 0), lambda n: c4_count(n, 2),
        catalan_qt, gamma_qt,
    ):
        for n in (-1, -2):
            with pytest.raises(ValueError, match=f"rank must be nonnegative, got {n}"):
                call(n)


def test_catalan_qt_rank_one() -> None:
    assert catalan_qt(0) == gamma_qt(0) == {(0, 0): 1}
    assert catalan_qt(1) == {(0, 0): 1, (1, 1): 1}


def test_catalan_qt_specializations() -> None:
    for n in (*range(1, 15), 24):
        coeffs = catalan_qt(n)
        assert sum(coeffs.values()) == catalan(n + 1)
        # q alone recovers the class counts, as closed-path heights
        for K in range(n + 1):
            got = sum(c for (q, _), c in coeffs.items() if q == K)
            assert got == alpha_A(n, K) == path_count_height(2 * n + 2, K + 1), (n, K)


def test_catalan_qt_matches_joint_enumeration() -> None:
    for n in range(1, 9):
        rs = build_root_system(f"A{n}")
        joint = joint_histogram(rs)
        want = {(K, d): c for (d, K), c in joint.items()}
        assert catalan_qt(n) == want, n


# ---------------------------------------------------------------------------
# type C closed forms


def test_gamma_totals_and_abelian() -> None:
    for n in range(1, 7):
        assert gamma_C(n, 0) == 1
        assert gamma_C(n, 1) == 2**n - 1
        assert gamma_C(n, -1) == gamma_C(n, 2 * n) == 0
        assert sum(gamma_C(n, K) for K in range(2 * n)) == comb(2 * n, n)


def test_gamma_matches_enumeration() -> None:
    for n in range(2, 5):
        dist = class_distribution(build_root_system(f"C{n}"), workers=1)
        for K in range(2 * n):
            assert gamma_C(n, K) == dist.get(K, 0), (n, K)


def test_gamma_qt_specializations() -> None:
    for n in (*range(1, 13), 24):
        coeffs = gamma_qt(n)
        assert sum(coeffs.values()) == comb(2 * n, n)
        assert max(t for _, t in coeffs) == n * n
        # q alone recovers the class counts, as free-path heights
        for K in range(2 * n):
            got = sum(c for (q, _), c in coeffs.items() if q == K)
            assert got == path_count_height(2 * n, K + 1, return_to_axis=False), (n, K)


def test_gamma_qt_matches_joint_enumeration() -> None:
    # C1 = A1, then honest type C
    want = {(K, d): c for (d, K), c in joint_histogram(build_root_system("A1")).items()}
    assert gamma_qt(1) == want
    for n in range(2, 7):
        rs = build_root_system(f"C{n}")
        joint = {(K, d): c for (d, K), c in joint_histogram(rs).items()}
        assert gamma_qt(n) == joint, n


def test_slot_guard_survives_optimize() -> None:
    # a child under -O drops every bare assert; weights that lose their
    # t-powers leave a type-C head term below t^0, and the guard on the
    # slots the head's shift drops must still raise
    src = str(Path(adnil.__file__).resolve().parents[1])
    code = (
        "from adnil import closedform\n"
        "weights = closedform._weights\n"
        "closedform._weights = lambda w, o, size: (\n"
        "    lambda a, b, c: 1, weights(w, o, size)[1])\n"
        "try:\n"
        "    closedform.gamma_qt(3)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "negative t-degree\n"


def test_odd_sum_collapses_to_product() -> None:
    for i2 in range(1, 7):
        for i1 in range(1 - i2, 1):
            lhs, rhs = odd_sum_product(i1, i2)
            assert lhs == rhs, (i1, i2)


def test_reflection_count_small_cases() -> None:
    for n in range(1, 7):
        assert c4_count(n, 0) == 1
        assert c4_count(n, 2 * n - 1) == comb(2 * n, n)
        assert c4_count(n, 2 * n + 3) == comb(2 * n, n)
        assert c4_count(n, 2) == fibonacci(2 * n)
        assert c4_count(n, 3) == 2 * 3 ** (n - 1)


def test_reflection_count_telescopes_to_gamma() -> None:
    for n in range(1, 6):
        for h in range(1, 2 * n):
            assert c4_count(n, h) - c4_count(n, h - 1) == gamma_C(n, h), (n, h)


# ---------------------------------------------------------------------------
# lattice paths


def test_path_count_hand_values() -> None:
    assert path_count_height(2, 1, return_to_axis=True) == 1
    assert path_count_height(4, 1, return_to_axis=True) == 1
    assert path_count_height(4, 2, return_to_axis=True) == 1
    assert path_count_height(2, 2, return_to_axis=False) == 1
    assert path_count_height(0, 0, return_to_axis=True) == 1
    assert path_count_height(2, 0, return_to_axis=True) == 0


def test_path_totals() -> None:
    for n in range(1, 9):
        dyck = sum(path_count_height(2 * n, h) for h in range(n + 1))
        assert dyck == catalan(n)
        free = sum(
            path_count_height(2 * n, h, return_to_axis=False) for h in range(2 * n + 1)
        )
        assert free == comb(2 * n, n)


def test_dyck_heights_match_class_counts() -> None:
    for n in (*range(1, 11), 40):
        for K in range(n + 1):
            assert path_count_height(2 * n + 2, K + 1) == alpha_A(n, K), (n, K)


def test_free_path_heights_match_class_counts() -> None:
    for n in (*range(1, 11), 30):
        for K in range(2 * n):
            got = path_count_height(2 * n, K + 1, return_to_axis=False)
            assert got == gamma_C(n, K), (n, K)


# ---------------------------------------------------------------------------
# Fibonacci-style corollaries


def test_fibonacci_convention() -> None:
    assert [fibonacci(m) for m in range(1, 7)] == [1, 2, 3, 5, 8, 13]


def test_corollary_hand_values() -> None:
    assert corollary_values("A", 2, 2) == 5
    assert corollary_values("A", 2, 3) == 5
    assert corollary_values("B", 2, 2) == 5
    assert corollary_values("B", 2, 3) == 6
    assert corollary_values("C", 1, 2) == 2
    assert corollary_values("C", 2, 2) == 5
    assert corollary_values("D", 2, 2) == 4
    assert corollary_values("D", 2, 3) == 4


def test_corollary_matches_enumeration() -> None:
    ranges = {"A": range(1, 6), "B": range(2, 6), "C": range(2, 6), "D": range(2, 6)}
    for family, ranks in ranges.items():
        for n in ranks:
            dist = class_distribution(build_root_system(f"{family}{n}"), workers=1)
            for h in (2, 3):
                want = sum(c for k, c in dist.items() if k <= h)
                assert corollary_values(family, n, h) == want, (family, n, h)


def test_corollary_validation() -> None:
    with pytest.raises(ValueError):
        corollary_values("A", 3, 4)
    with pytest.raises(ValueError):
        corollary_values("D", 1, 2)
    with pytest.raises(ValueError):
        corollary_values("A", 0, 2)
