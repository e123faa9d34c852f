"""Integer polynomials in one variable, as coefficient tuples.

Index = exponent, no trailing zeros, zero polynomial = ().  Serves the
Gaussian binomials in t (closedform) and the Chebyshev polynomials in x
(genfun).
"""
from __future__ import annotations

Poly = tuple[int, ...]


def trim(coeffs: list[int]) -> Poly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def add(a: Poly, b: Poly) -> Poly:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return trim(out)


def mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return trim(out)


def scale(a: Poly, c: int) -> Poly:
    return trim([c * v for v in a])


def exact_div(a: Poly, b: Poly) -> Poly:
    """Long division a / b; raises AssertionError unless the remainder is
    zero and every quotient coefficient is an integer."""
    rem = list(a)
    out = [0] * (len(a) - len(b) + 1)
    lead = b[-1]
    for i in range(len(out) - 1, -1, -1):
        q, r = divmod(rem[i + len(b) - 1], lead)
        if r:
            raise AssertionError("inexact polynomial division")
        out[i] = q
        for j, cb in enumerate(b):
            rem[i + j] -= q * cb
    if any(rem):
        raise AssertionError("inexact polynomial division")
    return trim(out)
