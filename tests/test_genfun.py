from __future__ import annotations

from math import comb

import pytest

from adnil import (
    build_root_system,
    class_distribution,
    corollary_values,
    gf_A_le,
    gf_B_K,
    gf_B_le,
    gf_C_le,
    gf_D_K,
    gf_D_le,
    path_count_height,
    series_of_ratio,
    total_count_formula,
    u_tilde,
    verify_cf_identity,
)
from adnil.genfun import T, T2
from adnil.poly import add, mul, scale


def cumulative(label: str, h: int) -> int:
    dist = class_distribution(build_root_system(label), workers=1)
    return sum(c for k, c in dist.items() if k <= h)


def exact(label: str, K: int) -> int:
    return class_distribution(build_root_system(label), workers=1).get(K, 0)


# ---------------------------------------------------------------------------
# Chebyshev polynomials


def test_poly_add_and_mul_take_any_number_of_terms() -> None:
    a, b, c = (1, 2), (0, -1), (3,)
    assert add() == () and add(a) == a
    assert add(a, b, c) == add(add(a, b), c) == (4, 1)
    assert add(a, scale(a, -1)) == ()
    assert mul(a) == a and mul(a, b, c) == mul(mul(a, b), c)
    assert mul(a, (), c) == ()


def test_u_tilde_frozen() -> None:
    assert u_tilde(0) == (1,)
    assert u_tilde(1) == T
    assert u_tilde(2) == (-1, 0, 1)
    assert u_tilde(-1) == ()
    assert u_tilde(-2) == (-1,)
    with pytest.raises(ValueError):
        u_tilde(-3)


def test_u_tilde_matches_the_binomial_sum() -> None:
    # the ratio update of C(k-j, j) against math.comb, term by term
    for k in range(301):
        want = [0] * (k + 1)
        for j in range(k // 2 + 1):
            want[k - 2 * j] = (-1) ** j * comb(k - j, j)
        assert u_tilde(k) == tuple(want), k


def test_u_tilde_recurrence_and_degree() -> None:
    # U_(k+1)(t/2) = t U_k(t/2) - U_(k-1)(t/2), monic of degree k
    for k in range(11):
        assert len(u_tilde(k)) == k + 1 and u_tilde(k)[-1] == 1
        assert u_tilde(k + 1) == add(mul(T, u_tilde(k)), scale(u_tilde(k - 1), -1))


# ---------------------------------------------------------------------------
# series engine: num/den are polynomials in t = 1/sqrt(x)


def test_series_of_trivial_ratios() -> None:
    one = series_of_ratio((1,), (1,), 5)
    assert one.coefficients == (1, 0, 0, 0, 0, 0)
    geometric = series_of_ratio(T2, add(T2, (-1,)), 5)  # 1/(1-x) = t^2/(t^2-1)
    assert geometric.coefficients == (1,) * 6
    zero = series_of_ratio((), (1,), 3)
    assert zero.coefficients == (0, 0, 0, 0)
    same_degree = series_of_ratio(mul(T, (1, 1)), mul(T, (1, 1)), 2)
    assert same_degree.coefficients == (1, 0, 0)


def test_series_rejects_odd_half_powers() -> None:
    # t/(t^2-1) = sqrt(x)/(1-x)
    with pytest.raises(ValueError, match="odd powers"):
        series_of_ratio(u_tilde(1), u_tilde(2), 6)


def test_series_rejects_pole() -> None:
    # t = 1/sqrt(x)
    with pytest.raises(ValueError, match="pole"):
        series_of_ratio(T, (1,), 4)


def test_series_rejects_noninteger() -> None:
    with pytest.raises(ValueError, match="noninteger"):
        series_of_ratio((1,), (2,), 4)


def test_series_rejects_zero_denominator() -> None:
    with pytest.raises(ZeroDivisionError):
        series_of_ratio((1,), (), 4)


# ---------------------------------------------------------------------------
# counting series against enumeration


def test_type_a_series_frozen() -> None:
    assert gf_A_le(1, 4).coefficients == (1, 1, 2, 4, 8)
    assert gf_A_le(0, 6).coefficients == (1,) * 7


def test_type_a_series_matches_enumeration() -> None:
    # rank-n count sits at coefficient x^(n+1)
    for h in range(7):
        series = gf_A_le(h, 6)
        for n in range(1, 6):
            assert series[n + 1] == cumulative(f"A{n}", h), (h, n)


def test_type_c_series_matches_enumeration() -> None:
    for h in range(8):
        series = gf_C_le(h, 5)
        for n in range(2, 6):
            assert series[n] == cumulative(f"C{n}", h), (h, n)


def test_type_b_series_match_enumeration() -> None:
    for h in range(8):
        series = gf_B_le(h, 5)
        for n in range(2, 6):
            assert series[n] == cumulative(f"B{n}", h), (h, n)
    for K in range(8):
        series = gf_B_K(K, 5)
        for n in range(2, 6):
            assert series[n] == exact(f"B{n}", K), (K, n)


def test_type_d_series_match_enumeration() -> None:
    for h in range(8):
        series = gf_D_le(h, 5)
        for n in range(2, 6):
            assert series[n] == cumulative(f"D{n}", h), (h, n)
    for K in range(8):
        series = gf_D_K(K, 5)
        for n in range(2, 6):
            assert series[n] == exact(f"D{n}", K), (K, n)


def test_exact_series_telescope_cumulative() -> None:
    for K in range(1, 7):
        for fam, gf_exact, gf_le in [("B", gf_B_K, gf_B_le), ("D", gf_D_K, gf_D_le)]:
            diff = gf_le(K, 8) - gf_le(K - 1, 8)
            assert gf_exact(K, 8).coefficients == diff.coefficients, (fam, K)


def test_d_series_reach_full_totals() -> None:
    # once the class bound passes the maximal class 2n-3 the series counts
    # every ideal
    series = gf_D_le(9, 6)
    for n in range(2, 7):
        assert series[n] == comb(2 * n, n) - comb(2 * n - 2, n - 1)


def test_corollary_closed_forms_via_series() -> None:
    for n in range(1, 9):
        assert gf_A_le(2, 10)[n + 1] == corollary_values("A", n, 2)
        assert gf_A_le(3, 10)[n + 1] == corollary_values("A", n, 3)
        assert gf_B_le(2, 10)[n] == corollary_values("B", n, 2)
        assert gf_B_le(3, 10)[n] == corollary_values("B", n, 3)
        assert gf_C_le(2, 10)[n] == corollary_values("C", n, 2)
        assert gf_C_le(3, 10)[n] == corollary_values("C", n, 3)
        if n >= 2:
            assert gf_D_le(2, 10)[n] == corollary_values("D", n, 2)
            assert gf_D_le(3, 10)[n] == corollary_values("D", n, 3)


def test_continued_fraction_identity() -> None:
    for h in range(11):
        assert verify_cf_identity(h)


# ---------------------------------------------------------------------------
# counting series at ranks enumeration cannot reach


def test_type_a_and_c_series_match_path_counts_to_rank_20() -> None:
    # class K of A_n pairs with Dyck paths of length 2n+2 and height K+1,
    # class K of C_n with paths of length 2n (any endpoint) and height K+1
    top = 20
    series_a = [gf_A_le(h, top + 1) for h in range(2 * top)]
    series_c = [gf_C_le(h, top) for h in range(2 * top)]
    for n in range(1, top + 1):
        paths_a = [path_count_height(2 * n + 2, K + 1, True) for K in range(2 * n)]
        paths_c = [path_count_height(2 * n, K + 1, False) for K in range(2 * n)]
        for h in range(2 * n):
            assert series_a[h][n + 1] == sum(paths_a[: h + 1]), (n, h)
            assert series_c[h][n] == sum(paths_c[: h + 1]), (n, h)


def test_type_b_and_d_exact_series_sum_to_totals_to_rank_30() -> None:
    # every class of a rank-n ideal is below 2n, so the exact-class series
    # summed over K < 2*top count every ideal of every rank up to top
    top = 30
    series_b = [gf_B_K(K, top) for K in range(2 * top)]
    series_d = [gf_D_K(K, top) for K in range(2 * top)]
    for n in range(2, top + 1):
        assert sum(s[n] for s in series_b) == total_count_formula(f"B{n}"), n
        assert sum(s[n] for s in series_d) == total_count_formula(f"D{n}"), n
