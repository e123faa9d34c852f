"""Exact evaluation of the explicit counting formulas.

Chain multisums for the per-class counts in types A and C, their
bivariate (q,t) refinements by dimension, Gaussian binomials, the
reflection-principle count for bounded type-C classes, lattice-path
counts by height, and the small-class Fibonacci/power closed forms.

Everything is integer arithmetic; polynomials in t are the coefficient
tuples of adnil.poly.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb
import operator

from . import poly
from .rootsys import LieType


def t_binomial(m: int, n: int) -> poly.Poly:
    """Gaussian binomial in t: zero unless n=0 (then 1) or m >= n > 0,
    in which case prod (1-t^(m-n+i))/(1-t^i) over i=1..n."""
    return _t_binomials()(m, n)


def _t_binomials():
    """`t_binomial` read off one q-Pascal triangle, grown by rows as calls
    need them: [m, k] = [m-1, k-1] + t^k [m-1, k]."""
    rows: list[list[poly.Poly]] = [[(1,)]]

    def binom(m: int, n: int) -> poly.Poly:
        if n == 0:
            return (1,)
        if not 0 < n <= m:
            return ()
        while len(rows) <= m:
            prev = rows[-1]
            inner = [poly.add(prev[k - 1], (0,) * k + prev[k]) for k in range(1, len(prev))]
            rows.append([(1,), *inner, (1,)])
        return rows[m][n]

    return binom


def _chain_layers(top: int, depth: int, weight, one, add, mul, exact: bool = False) -> list[dict]:
    """Transfer DP over the tails (b, c, ..., top, top+1) of the chains
    whose entries before top increase from 1 (Stanley, EC1 4.7): layer m
    (m = 0..depth) maps each first pair (b, c) to the sum, over the tails
    with m entries before top, of the product of weight(a, b, c) over
    their consecutive triples.  `add` sums a list, `mul` multiplies two
    values.  With `exact` only the last layer is complete: a tail is
    dropped once its first entry leaves no room for the ones it lacks."""
    layers = [{(top, top + 1): one}]
    for m in range(depth):
        tails: dict[int, list] = {}
        for (b, c), v in layers[-1].items():
            tails.setdefault(b, []).append((c, v))
        layers.append({
            (a, b): add([mul(weight(a, b, c), v) for c, v in cv])
            for b, cv in tails.items()
            for a in range(depth - m if exact else 1, b)
        })
    return layers


def _weight(a: int, b: int, c: int) -> int:
    return comb(c - a - 1, b - a)


def _head(i1: int, i2: int) -> int:
    return sum(comb(i1 + i2 - 1, ell) for ell in range(i2 - i1))


def _t_weights(o: int):
    """_weight and _head in t, sharing one Gaussian-binomial memo: the
    triple weight t^((a+o)(c-b)) [c-a-1 choose b-a]_t, with o = 0 in type
    A and o = n in type C, and the sum over l < i2-i1 of [i1+i2-1 choose
    l]_t t^C(l+1, 2), whose factor t^(-C(n-i2+1, 2)) the caller adds."""
    binom = _t_binomials()

    def weight(a: int, b: int, c: int) -> poly.Poly:
        return (0,) * ((a + o) * (c - b)) + binom(c - a - 1, b - a)

    @lru_cache(maxsize=None)
    def head(i1: int, i2: int) -> poly.Poly:
        terms = [(0,) * comb(ell + 1, 2) + binom(i1 + i2 - 1, ell) for ell in range(i2 - i1)]
        return _poly_sum(terms)

    return weight, head


def _poly_sum(terms: list[poly.Poly]) -> poly.Poly:
    return poly.add(*terms)


def _emit(out: dict[tuple[int, int], int], q: int, p: poly.Poly, shift: int) -> None:
    for e, c in enumerate(p):
        if c:
            out[(q, e + shift)] = out.get((q, e + shift), 0) + c


def alpha_A(n: int, K: int) -> int:
    """Number of type-A_n ideals with class exactly K: the chain multisum
    over 0 < s_1 < ... < s_K < n+1 of the product of _weight over the
    consecutive triples of (0, s_1, ..., s_K, n+1, n+2)."""
    if K < 0:
        raise ValueError("class must be nonnegative")
    if K > n:
        return 0
    layer = _chain_layers(n + 1, K, _weight, 1, sum, operator.mul, exact=True)[K]
    return sum(v * _weight(0, b, c) for (b, c), v in layer.items())


def catalan_qt(n: int) -> dict[tuple[int, int], int]:
    """(q,t)-Catalan refinement for type A_n, as a map (q-degree,
    t-degree) -> coefficient: q marks the class, t the dimension.  Every
    coefficient is positive, and they sum to the (n+1)st Catalan number.
    The chains are alpha_A's; a chain of K entries has q-degree K."""
    weight, _ = _t_weights(0)
    out: dict[tuple[int, int], int] = {}
    for K, layer in enumerate(_chain_layers(n + 1, n, weight, (1,), _poly_sum, poly.mul)):
        _emit(out, K, _poly_sum([poly.mul(weight(0, b, c), v) for (b, c), v in layer.items()]), 0)
    return out


def gamma_C(n: int, K: int) -> int:
    """Number of type-C_n ideals with class exactly K: the chain multisum
    over (i_1, ..., i_k, n, n+1) with 0 < i_2 < ... < i_k < n and
    -i_2 < i_1 < i_2, where K = 2k - [i_1 <= 0], of _head(i_1, i_2) times
    the product of _weight over the consecutive triples.  For K even the
    tail's first pair is (i_1, i_2); for K odd i_1 comes before the tail."""
    if not 0 < K < 2 * n:
        return int(K == 0)
    m, odd = divmod(K, 2)
    layer = _chain_layers(n, m, _weight, 1, sum, operator.mul, exact=True)[m]
    return sum(
        v * (sum(_weight(a, b, c) * _head(a, b) for a in range(1 - b, 1)) if odd else _head(b, c))
        for (b, c), v in layer.items()
    )


def gamma_qt(n: int) -> dict[tuple[int, int], int]:
    """(q,t)-analogue of the central binomial C(2n,n) for type C_n, as a
    map (q-degree, t-degree) -> positive coefficient: q marks the class,
    t the dimension.  The chains are gamma_C's; the first entry may go
    nonpositive, and those terms carry an odd q-power."""
    weight, head = _t_weights(n)
    out: dict[tuple[int, int], int] = {}
    for m, layer in enumerate(_chain_layers(n, n - 1, weight, (1,), _poly_sum, poly.mul)):
        for (b, c), v in layer.items():
            _emit(out, 2 * m, poly.mul(head(b, c), v), -comb(n - c + 1, 2))
            odd = _poly_sum([poly.mul(weight(a, b, c), head(a, b)) for a in range(1 - b, 1)])
            _emit(out, 2 * m + 1, poly.mul(odd, v), -comb(n - b + 1, 2))
    if any(kt < 0 for (_, kt) in out):
        raise AssertionError("negative t-degree")
    return out


def odd_sum_product(i1: int, i2: int) -> tuple[poly.Poly, poly.Poly]:
    """Both sides of the collapse of the head sum for i1 <= 0: the
    triangular-weighted Gaussian sum and the product (1+t)...(1+t^(i1+i2-1))."""
    _, head = _t_weights(0)
    rhs = poly.mul((1,), *(poly.trim([1] + [0] * (r - 1) + [1]) for r in range(1, i1 + i2)))
    return head(i1, i2), rhs


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
