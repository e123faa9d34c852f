"""Chebyshev-based generating functions, expanded exactly.

The counting series live in x, but their closed forms are ratios of
Chebyshev polynomials of the second kind evaluated at 1/(2*sqrt(x)).
We work in the formal variable s with s**2 = x: each U_k(1/(2s)) is a
Laurent polynomial in s, ratios are cleared to ordinary polynomials,
and exact integer long division produces the series.  A quotient that
is a genuine series in x has no odd powers of s; this is asserted, as is
integrality of every coefficient.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from . import poly


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


@dataclass(frozen=True)
class LaurentPoly:
    """Laurent polynomial in s, coefficient map exponent -> int."""

    coeffs: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", {e: c for e, c in self.coeffs.items() if c})

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + other.scale(-1)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    def scale(self, c: int) -> "LaurentPoly":
        return LaurentPoly({e: c * v for e, v in self.coeffs.items()})

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by s**k."""
        return LaurentPoly({e + k: c for e, c in self.coeffs.items()})

    def min_exponent(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs


ONE = LaurentPoly({0: 1})
SQRT_X = LaurentPoly({1: 1})
X = LaurentPoly({2: 1})


def laurent_const(c: int) -> LaurentPoly:
    return LaurentPoly({0: c})


def u_tilde(k: int) -> LaurentPoly:
    """U_k at 1/(2s): sum over j of (-1)^j C(k-j, j) s^(2j-k).
    Lowest exponent is -k for k >= 0; negative indices extend by the
    recurrence (u_tilde(-1) = 0, u_tilde(-2) = -1)."""
    if k < -2:
        raise ValueError("index must be at least -2")
    if k == -2:
        return laurent_const(-1)
    if k == -1:
        return LaurentPoly({})
    out: dict[int, int] = {}
    for j in range(k // 2 + 1):
        out[2 * j - k] = (-1) ** j * comb(k - j, j)
    return LaurentPoly(out)


@dataclass(frozen=True)
class PowerSeries:
    """Truncated series in x with exact integer coefficients; index =
    power of x, length = order + 1."""

    coefficients: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, n: int) -> int:
        return self.coefficients[n]

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(len(self.coefficients), len(other.coefficients))
        return PowerSeries(
            tuple(a + b for a, b in zip(self.coefficients[:n], other.coefficients[:n]))
        )

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        n = min(len(self.coefficients), len(other.coefficients))
        return PowerSeries(
            tuple(a - b for a, b in zip(self.coefficients[:n], other.coefficients[:n]))
        )


def series_of_ratio(num: LaurentPoly, den: LaurentPoly, order: int) -> PowerSeries:
    """Expand num/den as a power series in x = s**2 through x**order.

    Both arguments are shifted by a common power of s until polynomial,
    then divided as formal series in s.  The quotient must have integer
    coefficients and no odd powers of s (otherwise the ratio is not a
    series in x); both conditions are asserted.  Every counting series
    here has a denominator whose lowest coefficient is 1 after the
    shift, so integer division loses nothing.
    """
    if den.is_zero():
        raise ZeroDivisionError("zero denominator")
    if num.is_zero():
        return PowerSeries((0,) * (order + 1))
    shift = -min(num.min_exponent(), den.min_exponent())
    num = num.shift(shift)
    den = den.shift(shift)
    # cancel any remaining common power of s; a pole would surface here
    lead = den.min_exponent()
    num_lead = num.min_exponent()
    if num_lead < lead:
        raise ValueError("ratio has a pole at the origin")
    num = num.shift(-lead)
    den = den.shift(-lead)

    length = 2 * order + 2
    n = [num.coeffs.get(e, 0) for e in range(length)]
    d = [den.coeffs.get(e, 0) for e in range(length)]
    q: list[int] = []
    for i in range(length):
        acc = n[i] - sum(qj * d[i - j] for j, qj in enumerate(q))
        qi, rem = divmod(acc, d[0])
        if rem:
            raise ValueError(f"noninteger series coefficient {acc}/{d[0]}")
        q.append(qi)
    residue = [c for c in q[1::2] if c]
    if residue:
        raise ValueError(f"odd powers of sqrt(x) survive: {residue[:3]}")
    return PowerSeries(tuple(q[0::2][: order + 1]))


def _counting_series(num: LaurentPoly, den: LaurentPoly, order: int) -> PowerSeries:
    series = series_of_ratio(num, den, order)
    if any(c < 0 for c in series.coefficients):
        raise ValueError(f"negative count in series {series.coefficients}")
    return series


def gf_A_le(h: int, order: int = 12) -> PowerSeries:
    """Series whose x^(n+1) coefficient counts type-A_n ideals of class
    at most h (constant term 1)."""
    return _counting_series(u_tilde(h + 1), SQRT_X * u_tilde(h + 2), order)


def gf_C_le(h: int, order: int = 12) -> PowerSeries:
    """Series whose x^n coefficient counts type-C_n ideals of class at
    most h."""
    num = LaurentPoly({})
    i = h + 1
    while i >= 0:
        num = num + u_tilde(i)
        i -= 2
    return _counting_series(num, SQRT_X * u_tilde(h + 2), order)


def gf_B_K(K: int, order: int = 12) -> PowerSeries:
    """Series whose x^n coefficient counts type-B_n ideals of class
    exactly K."""
    if K < 0:
        raise ValueError("class must be nonnegative")
    if K % 2 == 0:
        k = K // 2
        num = u_tilde(2 * k) + u_tilde(k) * u_tilde(k + 1) * u_tilde(2 * k - 1)
        den = SQRT_X * u_tilde(2 * k) * u_tilde(2 * k + 1) * u_tilde(2 * k + 2)
    else:
        k = (K + 1) // 2
        num = (
            u_tilde(2 * k)
            + u_tilde(k + 1) * u_tilde(k + 1) * u_tilde(2 * k - 2)
            + u_tilde(k - 1) * u_tilde(k - 1) * u_tilde(2 * k - 2)
            + u_tilde(2)
        )
        den = u_tilde(2 * k - 1) * u_tilde(2 * k) * u_tilde(2 * k + 1)
    return _counting_series(num, den, order)


def gf_B_le(h: int, order: int = 12) -> PowerSeries:
    """Series whose x^n coefficient counts type-B_n ideals of class at
    most h."""
    num = LaurentPoly({})
    if h % 2 == 0:
        for i in range(1, h // 2 + 1):
            num = num + u_tilde(2 * i - 1).scale(2 * i + 1)
        num = num + u_tilde(h + 1).scale(h + 1)
        for i in range(1, h // 2 + 1):
            num = num + u_tilde(2 * h + 3 - 2 * i).scale(2 * i)
    else:
        for i in range(1, (h - 1) // 2 + 1):
            num = num + u_tilde(2 * i - 1).scale(2 * i + 1)
        num = num + u_tilde(h).scale(h + 1)
        for i in range(1, (h + 1) // 2 + 1):
            num = num + u_tilde(2 * h + 3 - 2 * i).scale(2 * i)
    return _counting_series(num, u_tilde(h + 1) * u_tilde(h + 2), order)


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
        return _counting_series(X, ONE - X, order)
    if K % 2 == 0:
        k = K // 2
        num = (
            laurent_const(2)
            - u_tilde(2 * k)
            + u_tilde(2 * k + 2).scale(2)
            + u_tilde(k) * u_tilde(k + 1) * u_tilde(2 * k - 1).scale(3)
        )
        den = SQRT_X * u_tilde(2 * k) * u_tilde(2 * k + 1) * u_tilde(2 * k + 2)
    else:
        k = (K + 1) // 2
        num = (
            u_tilde(2 * k + 2).scale(2)
            + u_tilde(2 * k)
            - u_tilde(2 * k - 2).scale(3)
            + u_tilde(k) * u_tilde(k + 1) * u_tilde(2 * k - 1)
            + u_tilde(k) * u_tilde(k) * u_tilde(2 * k - 2).scale(4)
            + u_tilde(k - 1) * u_tilde(k) * u_tilde(2 * k - 3)
            + laurent_const(2)
        )
        den = u_tilde(2 * k - 1) * u_tilde(2 * k) * u_tilde(2 * k + 1)
    return _counting_series(X * num, den, order)


def gf_D_le(h: int, order: int = 12) -> PowerSeries:
    """Series whose x^n coefficient counts type-D_n ideals of class at
    most h (valid for n >= 2)."""
    if h < 0:
        raise ValueError("class bound must be nonnegative")
    if h == 0:
        return _counting_series(X, ONE - X, order)
    if h == 1:
        return _counting_series(X + (X * X).scale(2), ONE - X.scale(2), order)
    num = u_tilde(1).scale(6)
    if h % 2 == 0:
        for i in range(1, (h - 2) // 2 + 1):
            num = num + u_tilde(2 * i + 1).scale(6 * i + 8)
        num = num + u_tilde(h + 1).scale(3 * h + 4)
        for i in range((h - 2) // 2 + 1):
            num = num + u_tilde(2 * h + 1 - 2 * i).scale(6 * i + 5)
    else:
        for i in range(1, (h - 3) // 2 + 1):
            num = num + u_tilde(2 * i + 1).scale(6 * i + 8)
        num = num + u_tilde(h).scale(3 * h + 4)
        for i in range((h - 1) // 2 + 1):
            num = num + u_tilde(2 * h + 1 - 2 * i).scale(6 * i + 5)
    num = num + u_tilde(2 * h + 3)
    return _counting_series(X * num, u_tilde(h + 1) * u_tilde(h + 2), order)


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
    occurrences of x, as an exact rational function num/den in x."""
    num: poly.Poly = (1,)
    den: poly.Poly = (1,)
    for _ in range(depth):
        num, den = den, poly.add(den, poly.mul((0, -1), num))
    lp_num = LaurentPoly({2 * i: c for i, c in enumerate(num)})
    lp_den = LaurentPoly({2 * i: c for i, c in enumerate(den)})
    return series_of_ratio(lp_num, lp_den, order)


def verify_cf_identity(h: int, order: int = 20) -> bool:
    """Check the depth-h continued fraction against u_tilde(h) /
    (sqrt(x) u_tilde(h+1)), plus the two product identities
    U_k U_{k+1} = U_{2k+1} + U_{2k-1} + ... + U_1 and
    U_{k+1}^2 - U_k^2 = U_{2k+2} as exact polynomial equalities."""
    cf = _cf_series(h, order)
    closed = series_of_ratio(u_tilde(h), SQRT_X * u_tilde(h + 1), order)
    if cf.coefficients != closed.coefficients:
        return False
    for k in range(13):
        lhs = poly.mul(chebyshev_u(k), chebyshev_u(k + 1))
        rhs: poly.Poly = ()
        for i in range(1, 2 * k + 2, 2):
            rhs = poly.add(rhs, chebyshev_u(i))
        if lhs != rhs:
            return False
        sq = poly.add(
            poly.mul(chebyshev_u(k + 1), chebyshev_u(k + 1)),
            poly.scale(poly.mul(chebyshev_u(k), chebyshev_u(k)), -1),
        )
        if sq != chebyshev_u(2 * k + 2):
            return False
    return True
