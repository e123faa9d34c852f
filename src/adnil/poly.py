"""Integer polynomials in one variable, as coefficient tuples.

Index = exponent, no trailing zeros, zero polynomial = ().  The one
polynomial kernel: its arithmetic serves the Chebyshev polynomials and
counting series' numerators and denominators in t = 1/sqrt(x) (genfun).
closedform computes on ints at t = 2^w and only unpacks its results into
this tuple form.
"""
from __future__ import annotations

Poly = tuple[int, ...]


def trim(coeffs: list[int]) -> Poly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def add(*terms: Poly) -> Poly:
    out = [0] * max(map(len, terms), default=0)
    for a in terms:
        for i, c in enumerate(a):
            out[i] += c
    return trim(out)


def mul(a: Poly, *rest: Poly) -> Poly:
    for b in rest:
        if not a or not b:
            return ()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        a = trim(out)
    return a


def scale(a: Poly, c: int) -> Poly:
    return trim([c * v for v in a])
