"""Exact evaluation of the explicit counting formulas.

Chain multisums for the per-class counts in types A and C, their
bivariate (q,t) refinements by dimension, Gaussian binomials, the
reflection-principle count for bounded type-C classes, lattice-path
counts by height, and the small-class Fibonacci/power closed forms.

Everything is integer arithmetic; polynomials in t are the coefficient
tuples of adnil.poly.
"""
from __future__ import annotations

from itertools import combinations
from math import comb

from . import poly
from .rootsys import LieType


def t_binomial(m: int, n: int) -> poly.Poly:
    """Gaussian binomial in t: zero unless n=0 (then 1) or m >= n > 0,
    in which case prod (1-t^(m-n+i))/(1-t^i) over i=1..n."""
    if n == 0:
        return (1,)
    if not 0 < n <= m:
        return ()
    num: poly.Poly = (1,)
    for i in range(1, n + 1):
        factor = poly.trim([1] + [0] * (m - n + i - 1) + [-1])
        num = poly.mul(num, factor)
    for i in range(1, n + 1):
        num = poly.exact_div(num, poly.trim([1] + [0] * (i - 1) + [-1]))
    return num


def alpha_A(n: int, K: int) -> int:
    """Number of type-A_n ideals with class exactly K: the chain multisum
    over 0 = i_0 < i_1 < ... < i_K < i_{K+1} = n+1."""
    total = 0
    for chain in combinations(range(1, n + 1), K):
        seq = (0,) + chain + (n + 1,)
        prod = 1
        for j in range(K):
            prod *= comb(seq[j + 2] - seq[j] - 1, seq[j + 1] - seq[j])
            if prod == 0:
                break
        total += prod
    return total


def catalan_qt(n: int) -> dict[tuple[int, int], int]:
    """(q,t)-Catalan refinement for type A_n, as a map (q-degree,
    t-degree) -> coefficient: q marks the class, t the dimension.  Every
    coefficient is positive, and they sum to the (n+1)st Catalan number."""
    out: dict[tuple[int, int], int] = {}
    for K in range(n + 1):
        for chain in combinations(range(1, n + 1), K):
            seq = (0,) + chain + (n + 1, n + 2)
            tp: poly.Poly = (1,)
            shift = 0
            for j in range(K):
                shift += seq[j + 1] * (seq[j + 3] - seq[j + 2])
                tp = poly.mul(tp, t_binomial(seq[j + 2] - seq[j] - 1, seq[j + 1] - seq[j]))
                if not tp:
                    break
            for e, c in enumerate(tp):
                if c:
                    key = (K, e + shift)
                    out[key] = out.get(key, 0) + c
    return out


def gamma_C(n: int, K: int) -> int:
    """Number of type-C_n ideals with class exactly K, by the even/odd
    chain multisums (indices i_{k+1} = n, i_{k+2} = n+1)."""
    if K < 0:
        return 0
    total = 0
    if K % 2 == 0:
        k = K // 2
        for chain in combinations(range(1, n), k):
            seq = chain + (n, n + 1)
            prod = 1
            for j in range(1, k):
                prod *= comb(seq[j + 1] - seq[j - 1] - 1, seq[j] - seq[j - 1])
            inner = sum(
                comb(seq[0] + seq[1] - 1, ell) for ell in range(seq[1] - seq[0])
            )
            total += prod * inner
    else:
        k = (K + 1) // 2
        for chain in combinations(range(1, n), k - 1):
            tail = chain + (n, n + 1)
            i2 = tail[0]
            for i1 in range(-i2 + 1, 1):
                seq = (i1,) + tail
                prod = 1
                for j in range(1, k):
                    prod *= comb(seq[j + 1] - seq[j - 1] - 1, seq[j] - seq[j - 1])
                total += prod * 2 ** (i1 + i2 - 1)
    return total


def gamma_qt(n: int) -> dict[tuple[int, int], int]:
    """(q,t)-analogue of the central binomial C(2n,n) for type C_n, as a
    map (q-degree, t-degree) -> positive coefficient: q marks the class,
    t the dimension.  The chain sum allows the first index to go
    nonpositive; those terms carry an odd q-power."""
    out: dict[tuple[int, int], int] = {(0, 0): 1}
    for k in range(1, n + 1):
        for chain in combinations(range(1, n), k - 1):
            tail = chain + (n, n + 1)
            i2 = tail[0]
            for i1 in range(-i2 + 1, i2):
                seq = (i1,) + tail
                q_deg = 2 * k - (1 if i1 <= 0 else 0)
                tp: poly.Poly = (1,)
                shift = 0
                for j in range(1, k):
                    shift += (seq[j] + n) * (seq[j + 2] - seq[j + 1])
                    tp = poly.mul(
                        tp, t_binomial(seq[j + 1] - seq[j - 1] - 1, seq[j] - seq[j - 1])
                    )
                    if not tp:
                        break
                if not tp:
                    continue
                base = (i1 + n) * (seq[2] - seq[1]) - comb(n - i2 + 1, 2)
                inner: dict[int, int] = {}
                for ell in range(i2 - i1):
                    for e, c in enumerate(t_binomial(i1 + i2 - 1, ell)):
                        if c:
                            exp = base + comb(ell + 1, 2) + e
                            inner[exp] = inner.get(exp, 0) + c
                for exp, c in inner.items():
                    for e, ct in enumerate(tp):
                        if ct:
                            key = (q_deg, exp + e + shift)
                            out[key] = out.get(key, 0) + c * ct
    if any(kt < 0 for (_, kt) in out):
        raise AssertionError("negative t-degree")
    return out


def odd_sum_product(i1: int, i2: int) -> tuple[poly.Poly, poly.Poly]:
    """Both sides of the collapse of the inner sum for i1 <= 0: the
    triangular-weighted Gaussian sum and the product (1+t)...(1+t^(i1+i2-1))."""
    lhs = poly.add(
        *(poly.mul(t_binomial(i1 + i2 - 1, ell), _t_monomial(comb(ell + 1, 2)))
          for ell in range(i2 - i1))
    )
    rhs = poly.mul((1,), *(poly.trim([1] + [0] * (r - 1) + [1]) for r in range(1, i1 + i2)))
    return lhs, rhs


def _t_monomial(e: int) -> poly.Poly:
    return tuple([0] * e + [1])


def c4_count(n: int, h: int) -> int:
    """Number of type-C_n ideals with class at most h, by the reflection
    formula: a signed double sum of binomials divided by 2n+1.

    The underlying path count is over the strip of height h+1 (class K
    pairs with path height K+1), so the strip period is h+3.
    """
    period = h + 3
    total = 0
    for s in range((h + 1) // 2 + 1):
        k = -((n + s + 1) // period) - 1
        while k * period <= n - s:
            low = n - s - k * period
            if 0 <= low <= 2 * n + 1:
                total += (1 + 2 * s + 2 * k * period) * comb(2 * n + 1, low)
            k += 1
    count, rem = divmod(total, 2 * n + 1)
    if rem:
        raise AssertionError("reflection sum not divisible")
    return count


def path_count_height(length: int, height: int, return_to_axis: bool = True) -> int:
    """Up/down paths from the origin, never below the axis, of the given
    length, whose maximum ordinate is exactly `height`; optionally
    required to end on the axis."""
    return _capped_paths(length, height, return_to_axis) - _capped_paths(
        length, height - 1, return_to_axis
    )


def _capped_paths(length: int, cap: int, return_to_axis: bool) -> int:
    if cap < 0:
        return 0
    dp = [1] + [0] * cap
    for _ in range(length):
        ndp = [0] * (cap + 1)
        for y, c in enumerate(dp):
            if c:
                if y + 1 <= cap:
                    ndp[y + 1] += c
                if y:
                    ndp[y - 1] += c
        dp = ndp
    return dp[0] if return_to_axis else sum(dp)


def fibonacci(m: int) -> int:
    """F_1 = 1, F_2 = 2, F_3 = 3, F_4 = 5: the convention that matches
    the small-class counts at ranks 1 and 2 (standard Fib(m+1))."""
    a, b = 1, 1
    for _ in range(m):
        a, b = b, a + b
    return a


def corollary_values(lie_type: LieType | str, n: int, h: int) -> int:
    """Closed form for the number of ideals with class at most h (h = 2
    or 3) in the classical families."""
    family = lie_type if isinstance(lie_type, str) else lie_type.family
    if h not in (2, 3):
        raise ValueError("closed forms exist only for h = 2 and h = 3")
    fib = fibonacci
    if family == "A":
        if n < 1:
            raise ValueError("rank must be at least 1")
        return fib(2 * n) if h == 2 else (3**n + 1) // 2
    if family == "B":
        if n < 1:
            raise ValueError("rank must be at least 1")
        if h == 2:
            return fib(2 * n) + fib(2 * n - 2) - 2 ** (n - 1)
        return (5 * 3 ** (n - 1) + 1) // 2 - fib(2 * n - 2)
    if family == "C":
        if n < 1:
            raise ValueError("rank must be at least 1")
        return fib(2 * n) if h == 2 else 2 * 3 ** (n - 1)
    if family == "D":
        if n < 2:
            raise ValueError("rank must be at least 2")
        if h == 2:
            return 5 * fib(2 * n - 3) - 2 ** (n - 2)
        return (13 * 3 ** (n - 2) - 3) // 2 + 4 * fib(2 * n) - 7 * fib(2 * n - 1)
    raise ValueError(f"no closed form for family {family!r}")
