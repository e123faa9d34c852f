"""Exact evaluation of the explicit counting formulas.

Chain multisums for the per-class counts in types A and C, their
bivariate (q,t) refinements by dimension, Gaussian binomials, the
reflection-principle count for bounded type-C classes, lattice-path
counts by height, and the small-class Fibonacci/power closed forms.

Everything is integer arithmetic.  A polynomial in t is one int, its
value at t = 2^w: + and * act on ints, t^k is a shift by wk.  The class
counts take w = 0 (t = 1), the (q,t) sums the bit length of the t = 1
total, which no coefficient exceeds (all are nonnegative, and every
closing factor is at least 1).  Results unpack to adnil.poly tuples.
"""
from __future__ import annotations

from functools import cache
from math import comb, prod

from . import poly
from .rootsys import LieType


def t_binomial(m: int, n: int) -> poly.Poly:
    """Gaussian binomial in t: zero unless n=0 (then 1) or m >= n > 0,
    in which case prod (1-t^(m-n+i))/(1-t^i) over i=1..n."""
    if not 0 <= n <= m:
        return (1,) if n == 0 else ()
    w = comb(m, n).bit_length()
    return _unpack(_binomials(w, m)[m][n], w)


def _binomials(w: int, size: int) -> list[list[int]]:
    """Rows 0..size of the q-Pascal triangle at t = 2^w, [m, k] = [m-1,
    k-1] + t^k [m-1, k]: Pascal's triangle at w = 0."""
    rows = [[1]]
    for _ in range(size):
        prev = rows[-1]
        rows.append([1, *(prev[k - 1] + (prev[k] << w * k) for k in range(1, len(prev))), 1])
    return rows


def _unpack(p: int, w: int) -> poly.Poly:
    """The polynomial whose value at t = 2^w is p, when every coefficient
    lies in [0, 2^w)."""
    bits = format(p, "b")
    return poly.trim([int(bits[max(i - w, 0):i], 2) for i in range(len(bits), 0, -w)])


def _weights(w: int, o: int, size: int):
    """The triple weight t^((a+o)(c-b)) [c-a-1 choose b-a]_t, with o = 0
    in type A and o = n in type C, and the type-C head, the sum over l <
    i2-i1 of [i1+i2-1 choose l]_t t^C(l+1, 2), whose factor t^(-C(n-i2+1,
    2)) the closing adds; both at t = 2^w, binomials up to [size, *]."""
    binom = _binomials(w, size)

    def weight(a: int, b: int, c: int) -> int:
        return binom[c - a - 1][b - a] << w * (a + o) * (c - b)

    @cache
    def head(i1: int, i2: int) -> int:
        row = binom[max(i1 + i2 - 1, 0)]
        return sum(row[ell] << w * comb(ell + 1, 2) for ell in range(min(i2 - i1, len(row))))

    return weight, head


def _chain_layers(top: int, depth: int, weight, exact: bool = False) -> list[dict]:
    """Transfer DP over the tails (b, c, ..., top, top+1) of the chains
    whose entries before top increase from 1 (Stanley, EC1 4.7): layer m
    (m = 0..depth) maps each first pair (b, c) to the sum, over the tails
    with m entries before top, of the product of weight(a, b, c) over
    their consecutive triples.  With `exact` it returns the last layer
    alone, dropping each tail whose first entry leaves too little room."""
    layers = [{(top, top + 1): 1}]
    for m in range(depth):
        tails: dict[int, list] = {}
        for (b, c), v in layers[-1].items():
            tails.setdefault(b, []).append((c, v))
        layers.append({
            (a, b): sum(weight(a, b, c) * v for c, v in cv)
            for b, cv in tails.items()
            for a in range(depth - m if exact else 1, b)
        })
    return layers[-1:] if exact else layers


def _check_rank(n: int) -> None:
    """Refuse a negative rank; rank 0 is the empty chain."""
    if n < 0:
        raise ValueError(f"rank must be nonnegative, got {n}")


def _sums_A(n: int, w: int, depth: int, exact: bool = False) -> list[int]:
    """Each layer's type-A_n sum at t = 2^w: every tail closes with entry 0."""
    weight, _ = _weights(w, 0, n + 1)
    layers = _chain_layers(n + 1, depth, weight, exact)
    return [sum(v * weight(0, b, c) for (b, c), v in layer.items()) for layer in layers]


def alpha_A(n: int, K: int) -> int:
    """Number of type-A_n ideals with class exactly K: the chain multisum
    over 0 < s_1 < ... < s_K < n+1 of the product of the triple weight
    over the consecutive triples of (0, s_1, ..., s_K, n+1, n+2)."""
    _check_rank(n)
    if K < 0:
        raise ValueError("class must be nonnegative")
    return _sums_A(n, 0, K, exact=True)[0] if K <= n else 0


def catalan_qt(n: int) -> dict[tuple[int, int], int]:
    """(q,t)-Catalan refinement for type A_n, as a map (q-degree,
    t-degree) -> coefficient: q marks the class, t the dimension.  Every
    coefficient is positive, and they sum to the (n+1)st Catalan number.
    The chains are alpha_A's; a chain of K entries has q-degree K."""
    _check_rank(n)
    w = (comb(2 * n + 2, n + 1) // (n + 2)).bit_length()
    return _terms(_sums_A(n, w, n), w)


def _sums_C(n: int, w: int, depth: int, exact: bool = False) -> list[int]:
    """The type-C_n sums of classes 2m and 2m+1 of each layer m at t = 2^w:
    a tail (b, c, ...) closes with head(b, c), or with i_1 = a <= 0 before
    it.  The head's t^(-C(n-i2+1, 2)) drops w-bit slots that must be 0."""
    weight, head = _weights(w, n, 2 * n)
    odd_heads: dict[tuple[int, int], int] = {}

    def drop(p: int, i2: int) -> int:
        slots = w * comb(n - i2 + 1, 2)
        if p & ((1 << slots) - 1):
            raise AssertionError("negative t-degree")
        return p >> slots

    sums = []
    for layer in _chain_layers(n, depth, weight, exact):
        even = odd = 0
        for (b, c), v in layer.items():
            if (b, c) not in odd_heads:
                odd_heads[b, c] = sum(weight(a, b, c) * head(a, b) for a in range(1 - b, 1))
            even += drop(head(b, c) * v, c)
            odd += drop(odd_heads[b, c] * v, b)
        sums += even, odd
    return sums


def gamma_C(n: int, K: int) -> int:
    """Number of type-C_n ideals with class exactly K: the chain multisum
    over (i_1, ..., i_k, n, n+1) with 0 < i_2 < ... < i_k < n and -i_2 <
    i_1 < i_2, where K = 2k - [i_1 <= 0], of the head at (i_1, i_2) times
    the product of the triple weight over the consecutive triples: the
    tail's first pair is (i_1, i_2) for K even, (i_2, i_3) for K odd."""
    _check_rank(n)
    return _sums_C(n, 0, K // 2, exact=True)[K % 2] if 0 < K < 2 * n else int(K == 0)


def gamma_qt(n: int) -> dict[tuple[int, int], int]:
    """(q,t)-analogue of the central binomial C(2n,n) for type C_n, as a
    map (q-degree, t-degree) -> positive coefficient: q marks the class,
    t the dimension.  The chains are gamma_C's; the first entry may go
    nonpositive, and those terms carry an odd q-power."""
    _check_rank(n)
    w = comb(2 * n, n).bit_length()
    return _terms(_sums_C(n, w, n - 1), w)


def _terms(sums: list[int], w: int) -> dict[tuple[int, int], int]:
    """{(q, t-degree): coefficient} of the sums packed at w, by q."""
    return {(q, e): c for q, p in enumerate(sums) for e, c in enumerate(_unpack(p, w)) if c}


def odd_sum_product(i1: int, i2: int) -> tuple[poly.Poly, poly.Poly]:
    """Both sides of the collapse of the head sum for i1 <= 0: the
    triangular-weighted Gaussian sum and the product (1+t)...(1+t^(i1+i2-1))."""
    w = max(i1 + i2, 1)  # both sides are 2^(i1+i2-1) at t = 1
    rhs = prod(1 + (1 << w * r) for r in range(1, i1 + i2))
    return _unpack(_weights(w, 0, i1 + i2 - 1)[1](i1, i2), w), _unpack(rhs, w)


def c4_count(n: int, h: int) -> int:
    """Number of type-C_n ideals with class at most h, by the reflection
    formula: a signed double sum of binomials divided by 2n+1.

    The underlying path count is over the strip of height h+1 (class K
    pairs with path height K+1), so the strip period is h+3.
    """
    _check_rank(n)
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
