"""Chebyshev-based generating functions, expanded exactly.

The counting series live in x, but their closed forms are ratios of
Chebyshev polynomials of the second kind evaluated at 1/(2*sqrt(x)).
In t = 1/sqrt(x) each U_k(t/2) is an ordinary integer polynomial of
degree k, so every numerator and denominator is a coefficient tuple of
adnil.poly; a factor sqrt(x) or x of one side becomes t or t**2 on the
other.  Exact integer long division in s = sqrt(x) = 1/t produces the
series.  A quotient that is a genuine series in x has no odd powers of
s; this is asserted, as is integrality of every coefficient.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import poly

T: poly.Poly = (0, 1)  # t = 1/sqrt(x)
T2: poly.Poly = (0, 0, 1)  # t**2 = 1/x


def chebyshev_u(n: int) -> poly.Poly:
    """Chebyshev polynomial of the second kind, as x-coefficients.
    Extended backwards so that U(-1) = 0 and U(-2) = -1 keep the
    recurrence U(n+1) = 2x*U(n) - U(n-1) valid."""
    if n < -2:
        raise ValueError("index must be at least -2")
    if n == -2:
        return (-1,)
    if n == -1:
        return ()
    prev: poly.Poly = ()
    cur: poly.Poly = (1,)
    for _ in range(n):
        prev, cur = cur, poly.add(poly.mul((0, 2), cur), poly.scale(prev, -1))
    return cur


def u_tilde(k: int) -> poly.Poly:
    """U_k(t/2) with t = 1/sqrt(x): sum over j of (-1)^j C(k-j, j) t^(k-2j).
    Degree k with leading coefficient 1 for k >= 0; negative indices
    extend by the recurrence (u_tilde(-1) = 0, u_tilde(-2) = -1)."""
    if k < -2:
        raise ValueError("index must be at least -2")
    if k == -2:
        return (-1,)
    if k == -1:
        return ()
    out = [0] * (k + 1)
    out[k] = c = 1  # c = C(k - j, j), from j = 0
    for j in range(1, k // 2 + 1):
        c = c * (k - 2 * j + 2) * (k - 2 * j + 1) // (j * (k - j + 1))
        out[k - 2 * j] = -c if j % 2 else c
    return tuple(out)


@dataclass(frozen=True)
class PowerSeries:
    """Truncated series in x with exact integer coefficients; index =
    power of x, length = order + 1."""

    coefficients: tuple[int, ...]

    def __getitem__(self, n: int) -> int:
        return self.coefficients[n]

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(len(self.coefficients), len(other.coefficients))
        return PowerSeries(
            tuple(a - b for a, b in zip(self.coefficients[:n], other.coefficients[:n]))
        )


def series_of_ratio(num: poly.Poly, den: poly.Poly, order: int) -> PowerSeries:
    """Expand num/den, two polynomials in t = 1/sqrt(x), as a power series
    in x = s**2 through x**order.

    In s = 1/t the ratio is s**(deg den - deg num) times the ratio of the
    reversed coefficient tuples, whose denominator has the nonzero
    constant term lead(den); that ratio is divided as a formal series in
    s.  The quotient must have integer coefficients and no odd powers of
    s (otherwise the ratio is not a series in x); both conditions are
    asserted.  Every counting series here has a denominator with leading
    coefficient 1, so integer division loses nothing.
    """
    if not den:
        raise ZeroDivisionError("zero denominator")
    shift = len(den) - len(num)
    if shift < 0:
        raise ValueError("ratio has a pole at the origin")
    length = 2 * order + 2
    n = ([0] * shift + list(reversed(num)) + [0] * length)[:length]
    d = den[::-1]
    q: list[int] = []
    for i in range(length):
        lo = max(0, i - len(d) + 1)  # d vanishes past its degree
        acc = n[i] - sum(q[j] * d[i - j] for j in range(lo, i))
        qi, rem = divmod(acc, d[0])
        if rem:
            raise ValueError(f"noninteger series coefficient {acc}/{d[0]}")
        q.append(qi)
    residue = [c for c in q[1::2] if c]
    if residue:
        raise ValueError(f"odd powers of sqrt(x) survive: {residue[:3]}")
    return PowerSeries(tuple(q[0::2][: order + 1]))


def _counting_series(num: poly.Poly, den: poly.Poly, order: int) -> PowerSeries:
    series = series_of_ratio(num, den, order)
    if any(c < 0 for c in series.coefficients):
        raise ValueError(f"negative count in series {series.coefficients}")
    return series


def gf_A_le(h: int, order: int = 12) -> PowerSeries:
    """Series whose x^(n+1) coefficient counts type-A_n ideals of class
    at most h (constant term 1): U_(h+1) / (sqrt(x) U_(h+2))."""
    return _counting_series(poly.mul(T, u_tilde(h + 1)), u_tilde(h + 2), order)


def gf_C_le(h: int, order: int = 12) -> PowerSeries:
    """Series whose x^n coefficient counts type-C_n ideals of class at
    most h: (U_(h+1) + U_(h-1) + ...) / (sqrt(x) U_(h+2))."""
    num = poly.add(*(u_tilde(i) for i in range(h + 1, -1, -2)))
    return _counting_series(poly.mul(T, num), u_tilde(h + 2), order)


def gf_B_K(K: int, order: int = 12) -> PowerSeries:
    """Series whose x^n coefficient counts type-B_n ideals of class
    exactly K."""
    if K < 0:
        raise ValueError("class must be nonnegative")
    u = u_tilde
    if K % 2 == 0:
        k = K // 2
        num = poly.add(u(2 * k), poly.mul(u(k), u(k + 1), u(2 * k - 1)))
        # the factor sqrt(x) of the denominator is a t of the numerator
        return _counting_series(
            poly.mul(T, num), poly.mul(u(2 * k), u(2 * k + 1), u(2 * k + 2)), order
        )
    k = (K + 1) // 2
    num = poly.add(
        u(2 * k),
        poly.mul(u(k + 1), u(k + 1), u(2 * k - 2)),
        poly.mul(u(k - 1), u(k - 1), u(2 * k - 2)),
        u(2),
    )
    return _counting_series(num, poly.mul(u(2 * k - 1), u(2 * k), u(2 * k + 1)), order)


def gf_B_le(h: int, order: int = 12) -> PowerSeries:
    """Series whose x^n coefficient counts type-B_n ideals of class at
    most h."""
    # the middle term is U_(h+1) for even h and U_h for odd h
    num = poly.add(
        *(poly.scale(u_tilde(2 * i - 1), 2 * i + 1) for i in range(1, h // 2 + 1)),
        poly.scale(u_tilde(h + 1 - h % 2), h + 1),
        *(poly.scale(u_tilde(2 * h + 3 - 2 * i), 2 * i) for i in range(1, (h + 1) // 2 + 1)),
    )
    return _counting_series(num, poly.mul(u_tilde(h + 1), u_tilde(h + 2)), order)


def _geometric_d(h: int) -> tuple[poly.Poly, poly.Poly]:
    """Numerator and denominator in t of x/(1-x) = 1/(t**2 - 1) for h = 0
    and of x(1+2x)/(1-2x) = (t**2 + 2)/(t**2 (t**2 - 2)) for h = 1."""
    if h == 0:
        return (1,), poly.add(T2, (-1,))
    return poly.add(T2, (2,)), poly.mul(T2, poly.add(T2, (-2,)))


def gf_D_K(K: int, order: int = 12) -> PowerSeries:
    """Series whose x^n coefficient counts type-D_n ideals of class
    exactly K (valid for n >= 2).

    K=0 is the plain x/(1-x) (one zero ideal per rank).  The Chebyshev
    branches carry a leading factor x, like the cumulative series; at
    K=1 they reduce to x/((1-x)(1-2x)) on n >= 2, the 2^n - 1 Abelian
    count.
    """
    if K < 0:
        raise ValueError("class must be nonnegative")
    if K == 0:
        return _counting_series(*_geometric_d(0), order)
    u = u_tilde
    if K % 2 == 0:
        k = K // 2
        num = poly.add(
            (2,),
            poly.scale(u(2 * k), -1),
            poly.scale(u(2 * k + 2), 2),
            poly.scale(poly.mul(u(k), u(k + 1), u(2 * k - 1)), 3),
        )
        # x / sqrt(x) = sqrt(x): a t of the denominator
        return _counting_series(
            num, poly.mul(T, u(2 * k), u(2 * k + 1), u(2 * k + 2)), order
        )
    k = (K + 1) // 2
    num = poly.add(
        poly.scale(u(2 * k + 2), 2),
        u(2 * k),
        poly.scale(u(2 * k - 2), -3),
        poly.mul(u(k), u(k + 1), u(2 * k - 1)),
        poly.scale(poly.mul(u(k), u(k), u(2 * k - 2)), 4),
        poly.mul(u(k - 1), u(k), u(2 * k - 3)),
        (2,),
    )
    return _counting_series(num, poly.mul(T2, u(2 * k - 1), u(2 * k), u(2 * k + 1)), order)


def gf_D_le(h: int, order: int = 12) -> PowerSeries:
    """Series whose x^n coefficient counts type-D_n ideals of class at
    most h (valid for n >= 2)."""
    if h < 0:
        raise ValueError("class bound must be nonnegative")
    if h <= 1:
        return _counting_series(*_geometric_d(h), order)
    # the middle term is U_(h+1) for even h and U_h for odd h
    num = poly.add(
        poly.scale(u_tilde(1), 6),
        *(poly.scale(u_tilde(2 * i + 1), 6 * i + 8) for i in range(1, h // 2)),
        poly.scale(u_tilde(h + 1 - h % 2), 3 * h + 4),
        *(poly.scale(u_tilde(2 * h + 1 - 2 * i), 6 * i + 5) for i in range((h - 1) // 2 + 1)),
        u_tilde(2 * h + 3),
    )
    # the leading factor x is a t**2 of the denominator
    return _counting_series(num, poly.mul(T2, u_tilde(h + 1), u_tilde(h + 2)), order)


def family_series(family: str, h: int, order: int, exact: bool = False) -> PowerSeries:
    """Series counting the ideals of a family of class at most `h`, or of
    exactly `h`.  A and C publish cumulative series only, so their exact
    series is a difference.  The names are looked up at call time, so a
    wrapper set on this module sees every call."""
    exact_gf = {"B": gf_B_K, "D": gf_D_K}
    if exact and family in exact_gf:
        return exact_gf[family](h, order)
    cumulative = {"A": gf_A_le, "B": gf_B_le, "C": gf_C_le, "D": gf_D_le}[family]
    series = cumulative(h, order)
    if exact and h > 0:
        series = series - cumulative(h - 1, order)
    return series


def x_power(family: str, rank: int) -> int:
    """Power of x whose coefficient counts the rank-`rank` ideals: the
    published type-A series carries rank n at x^(n+1), the others at x^n."""
    return rank + 1 if family == "A" else rank


def _cf_series(depth: int, order: int) -> PowerSeries:
    """Bottom-up expansion of 1/(1 - x/(1 - x/(... 1 - x))) with `depth`
    occurrences of x, as an exact rational function num/den in t: each
    level 1/(1 - x num/den) is t**2 den / (t**2 den - num)."""
    num: poly.Poly = (1,)
    den: poly.Poly = (1,)
    for _ in range(depth):
        num, den = poly.mul(T2, den), poly.add(poly.mul(T2, den), poly.scale(num, -1))
    return series_of_ratio(num, den, order)


def verify_cf_identity(h: int, order: int = 20) -> bool:
    """Check the depth-h continued fraction against u_tilde(h) /
    (sqrt(x) u_tilde(h+1)), plus the two product identities
    U_k U_{k+1} = U_{2k+1} + U_{2k-1} + ... + U_1 and
    U_{k+1}^2 - U_k^2 = U_{2k+2} as exact polynomial equalities."""
    cf = _cf_series(h, order)
    closed = series_of_ratio(poly.mul(T, u_tilde(h)), u_tilde(h + 1), order)
    if cf.coefficients != closed.coefficients:
        return False
    for k in range(13):
        lhs = poly.mul(chebyshev_u(k), chebyshev_u(k + 1))
        rhs = poly.add(*(chebyshev_u(i) for i in range(1, 2 * k + 2, 2)))
        if lhs != rhs:
            return False
        sq = poly.add(
            poly.mul(chebyshev_u(k + 1), chebyshev_u(k + 1)),
            poly.scale(poly.mul(chebyshev_u(k), chebyshev_u(k)), -1),
        )
        if sq != chebyshev_u(2 * k + 2):
            return False
    return True
