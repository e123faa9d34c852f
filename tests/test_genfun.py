from __future__ import annotations

from math import comb

import pytest

from adnil import (
    LaurentPoly,
    build_root_system,
    chebyshev_u,
    class_distribution,
    corollary_values,
    gf_A_le,
    gf_B_K,
    gf_B_le,
    gf_C_le,
    gf_D_K,
    gf_D_le,
    series_of_ratio,
    u_tilde,
    verify_cf_identity,
)
from adnil.genfun import ONE, SQRT_X, X, laurent_const


def cumulative(label: str, h: int) -> int:
    dist = class_distribution(build_root_system(label), workers=1)
    return sum(c for k, c in dist.items() if k <= h)


def exact(label: str, K: int) -> int:
    return class_distribution(build_root_system(label), workers=1).get(K, 0)


# ---------------------------------------------------------------------------
# Chebyshev polynomials


def test_chebyshev_frozen() -> None:
    assert chebyshev_u(0) == (1,)
    assert chebyshev_u(1) == (0, 2)
    assert chebyshev_u(2) == (-1, 0, 4)
    assert chebyshev_u(3) == (0, -4, 0, 8)
    assert chebyshev_u(-1) == ()
    assert chebyshev_u(-2) == (-1,)
    with pytest.raises(ValueError):
        chebyshev_u(-3)


def test_chebyshev_recurrence() -> None:
    from adnil.poly import add, mul, scale

    for k in range(-1, 11):
        lhs = chebyshev_u(k + 1)
        rhs = add(mul((0, 2), chebyshev_u(k)), scale(chebyshev_u(k - 1), -1))
        assert lhs == rhs


def test_u_tilde_frozen() -> None:
    assert u_tilde(0) == ONE
    assert u_tilde(1) == LaurentPoly({-1: 1})
    assert u_tilde(2) == LaurentPoly({-2: 1, 0: -1})
    assert u_tilde(-1).is_zero()
    assert u_tilde(-2) == laurent_const(-1)


def test_u_tilde_recurrence_and_degree() -> None:
    for k in range(11):
        assert u_tilde(k).min_exponent() == -k
        assert u_tilde(k + 1) == u_tilde(k).shift(-1) - u_tilde(k - 1)


# ---------------------------------------------------------------------------
# series engine


def test_series_of_trivial_ratios() -> None:
    one = series_of_ratio(ONE, ONE, 5)
    assert one.coefficients == (1, 0, 0, 0, 0, 0)
    geometric = series_of_ratio(ONE, ONE - X, 5)
    assert geometric.coefficients == (1,) * 6
    zero = series_of_ratio(LaurentPoly({}), ONE, 3)
    assert zero.coefficients == (0, 0, 0, 0)


def test_series_rejects_odd_half_powers() -> None:
    with pytest.raises(ValueError):
        series_of_ratio(u_tilde(1), u_tilde(2), 6)


def test_series_rejects_pole() -> None:
    with pytest.raises(ValueError):
        series_of_ratio(ONE, SQRT_X, 4)


def test_series_rejects_noninteger() -> None:
    with pytest.raises(ValueError):
        series_of_ratio(ONE, laurent_const(2), 4)


def test_series_rejects_zero_denominator() -> None:
    with pytest.raises(ZeroDivisionError):
        series_of_ratio(ONE, LaurentPoly({}), 4)


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
