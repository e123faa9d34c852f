"""Root systems in simple-root coordinates.

Every root is a tuple of integer coefficients with respect to the simple
roots.  Positive roots of the classical families are listed in the cell
order of their (shifted) staircase arrangements, so that ideal bitmasks
translate directly into diagrams; exceptional types are listed by height.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

Root = tuple[int, ...]

FAMILIES = "ABCDEFG"

# Rank-indexed constants.  Exponents determine the Coxeter number via
# h = e_n + 1 and the product formula for the number of ideals.
_EXCEPTIONAL_EXPONENTS = {
    ("E", 6): (1, 4, 5, 7, 8, 11),
    ("E", 7): (1, 5, 7, 9, 11, 13, 17),
    ("E", 8): (1, 7, 11, 13, 17, 19, 23, 29),
    ("F", 4): (1, 5, 7, 11),
    ("G", 2): (1, 5),
}


@dataclass(frozen=True)
class LieType:
    """A simple Lie type: family letter plus rank."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        n = self.rank
        ok = {
            "A": n >= 1,
            "B": n >= 2,
            "C": n >= 2,
            "D": n >= 2,  # D2 and D3 are reducible/repeated but allowed
            "E": n in (6, 7, 8),
            "F": n == 4,
            "G": n == 2,
        }[self.family]
        if not ok:
            raise ValueError(f"invalid rank {n} for family {self.family}")

    @classmethod
    def parse(cls, text: str) -> "LieType":
        """Parse a label such as 'A3', 'b4' or 'E8'."""
        text = text.strip()
        if len(text) < 2 or not text[1:].isdigit():
            raise ValueError(f"cannot parse Lie type {text!r}")
        return cls(text[0].upper(), int(text[1:]))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @property
    def is_classical(self) -> bool:
        return self.family in "ABCD"


def cartan_matrix(lt: LieType) -> list[list[int]]:
    """Cartan matrix a[i][j] = 2(alpha_i, alpha_j)/(alpha_i, alpha_i)."""
    n = lt.rank
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]

    def bond(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i][j] = aij
        a[j][i] = aji

    if lt.family == "A":
        for i in range(n - 1):
            bond(i, i + 1)
    elif lt.family == "B":
        # alpha_n is the short root
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, -1, -2)
    elif lt.family == "C":
        # alpha_n is the long root
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 2, n - 1, -2, -1)
    elif lt.family == "D":
        for i in range(n - 3):
            bond(i, i + 1)
        if n >= 3:
            bond(n - 3, n - 2)
            bond(n - 3, n - 1)
    elif lt.family == "E":
        # chain 1-3-4-5-6-7-8 with node 2 hanging off node 4
        chain = [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)]
        for i, j in chain:
            if j <= n:
                bond(i - 1, j - 1)
        bond(2 - 1, 4 - 1)
    elif lt.family == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)
        bond(2, 3)
    else:  # G
        bond(0, 1, -3, -1)
    return a


def _reflection_closure(a: list[list[int]]) -> set[Root]:
    """All positive roots, generated from the simple roots by simple
    reflections (discarding anything that leaves the positive cone)."""
    n = len(a)
    simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots: set[Root] = set(simples)
    frontier = list(simples)
    while frontier:
        nxt: list[Root] = []
        for beta in frontier:
            for i in range(n):
                t = sum(a[i][j] * beta[j] for j in range(n))
                ci = beta[i] - t
                if ci < 0:
                    continue
                img = beta[:i] + (ci,) + beta[i + 1 :]
                if any(img) and img not in roots:
                    roots.add(img)
                    nxt.append(img)
        frontier = nxt
    return roots


def positive_root_count(lt: LieType) -> int:
    n = lt.rank
    if lt.family == "A":
        return n * (n + 1) // 2
    if lt.family in "BC":
        return n * n
    if lt.family == "D":
        return n * (n - 1)
    return {("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6}[
        (lt.family, n)
    ]


def exponents(lt: LieType) -> tuple[int, ...]:
    n = lt.rank
    if lt.family == "A":
        return tuple(range(1, n + 1))
    if lt.family in "BC":
        return tuple(range(1, 2 * n, 2))
    if lt.family == "D":
        return tuple(sorted(list(range(1, 2 * n - 2, 2)) + [n - 1]))
    return _EXCEPTIONAL_EXPONENTS[(lt.family, n)]


def _interval_root(n: int, lo: int, hi: int) -> list[int]:
    """Coefficient vector of alpha_lo + ... + alpha_hi (1-based, empty if lo > hi)."""
    c = [0] * n
    for t in range(lo, hi + 1):
        c[t - 1] = 1
    return c


def _cells_a(n: int) -> list[tuple[tuple[int, int], Root]]:
    # cell (i, j) of the staircase carries alpha_i + ... + alpha_{n-j+1}
    out = []
    for i in range(1, n + 1):
        for j in range(1, n - i + 2):
            out.append(((i, j), tuple(_interval_root(n, i, n - j + 1))))
    return out


def _cells_b(n: int) -> list[tuple[tuple[int, int], Root]]:
    # shifted staircase rows i..2n-i; doubled tail starts after column j
    out = []
    for i in range(1, n + 1):
        for j in range(i, 2 * n - i + 1):
            if j <= n - 1:
                c = _interval_root(n, i, j)
                for t in range(j + 1, n + 1):
                    c[t - 1] = 2
            else:
                c = _interval_root(n, i, 2 * n - j)
            out.append(((i, j), tuple(c)))
    return out


def _cells_c(n: int) -> list[tuple[tuple[int, int], Root]]:
    out = []
    for i in range(1, n + 1):
        for j in range(i, 2 * n - i + 1):
            if j <= n - 1:
                c = _interval_root(n, i, j - 1)
                for t in range(j, n):
                    c[t - 1] = 2
                c[n - 1] = 1
            else:
                c = _interval_root(n, i, 2 * n - j)
            out.append(((i, j), tuple(c)))
    return out


def _cells_d(n: int) -> list[tuple[tuple[int, int], Root]]:
    out = []
    for i in range(1, n + 1):
        for j in range(i, 2 * n - i):
            if j <= n - 2:
                c = _interval_root(n, i, j)
                for t in range(j + 1, n - 1):
                    c[t - 1] = 2
                c[n - 2] += 1
                c[n - 1] += 1
            elif j == n - 1:
                c = _interval_root(n, i, n - 2)
                c[n - 1] = 1
            else:
                c = _interval_root(n, i, 2 * n - j - 1)
            out.append(((i, j), tuple(c)))
    return out


_CELL_BUILDERS = {"A": _cells_a, "B": _cells_b, "C": _cells_c, "D": _cells_d}


def root_leq(a: Root, b: Root) -> bool:
    """Dominance order: b - a has nonnegative coefficients."""
    return all(x <= y for x, y in zip(a, b))


class RootSystem:
    """Positive roots of a simple Lie type with precomputed sum and order
    tables, sized for exhaustive bit-mask work (at most 120 positive roots).
    """

    def __init__(self, lie_type: LieType):
        self.lie_type = lie_type
        n = lie_type.rank
        self.cartan = cartan_matrix(lie_type)
        closure = _reflection_closure(self.cartan)
        if len(closure) != positive_root_count(lie_type):
            raise AssertionError(
                f"{lie_type}: closure produced {len(closure)} positive roots"
            )

        self.simple_roots: list[Root] = [
            tuple(int(i == j) for j in range(n)) for i in range(n)
        ]
        self.cells: list[tuple[int, int]] | None = None
        self.rows: list[tuple[int, int, dict[int, int]]] | None = None
        self.fork_mask = 0
        if lie_type.is_classical:
            labelled = _CELL_BUILDERS[lie_type.family](n)
            if {r for _, r in labelled} != closure:
                raise AssertionError(f"{lie_type}: cell labels disagree with closure")
            self.cells = [cell for cell, _ in labelled]
            self.positive_roots: list[Root] = [r for _, r in labelled]
            # (first bit, width mask, {row pattern: length}) per row of the
            # (shifted) staircase, whose cells are consecutive bits.  Rows of
            # ideals are prefixes, or in type D hold fork column n without
            # n-1; `fork_mask` marks column n-1, and column n is the next bit.
            self.rows = []
            first = 0
            for i, width in Counter(i for i, _ in self.cells).items():
                lengths = {(1 << m) - 1: m for m in range(1, width + 1)}
                if lie_type.family == "D":  # row n is empty
                    lengths[((1 << (n - 1 - i)) - 1) | 1 << (n - i)] = n - i
                    self.fork_mask |= 1 << (first + n - 1 - i)
                self.rows.append((first, (1 << width) - 1, lengths))
                first += width
        else:
            self.positive_roots = sorted(closure, key=lambda r: (sum(r), r))
        self.index: dict[Root, int] = {
            r: k for k, r in enumerate(self.positive_roots)
        }

        maxima = [
            r
            for r in self.positive_roots
            if not any(root_leq(r, s) and r != s for s in self.positive_roots)
        ]
        # D2 = A1 x A1 is the one permitted type without a highest root
        self.highest_root: Root | None = maxima[0] if len(maxima) == 1 else None
        if self.highest_root is None and str(lie_type) != "D2":
            raise AssertionError(f"{lie_type}: no unique highest root")

        self.exponents = exponents(lie_type)
        self.coxeter_number = self.exponents[-1] + 1
        if self.coxeter_number * n != 2 * len(self.positive_roots):
            raise AssertionError(f"{lie_type}: h*n != 2*#positive roots")

        self._build_tables()

    def _build_tables(self) -> None:
        roots = self.positive_roots
        idx = self.index
        size = len(roots)
        # each unordered pair {i, j}, i <= j, of summands under its sum k
        pairs: list[list[tuple[int, int]]] = [[] for _ in range(size)]
        # (j, k) for every root j whose sum with root i is the root k
        self.partners: list[list[tuple[int, int]]] = [[] for _ in range(size)]
        # the roots each root covers: those a simple root below it
        self.covers: list[list[int]] = [[] for _ in range(size)]
        simple = {idx[r] for r in self.simple_roots}
        for i, ri in enumerate(roots):
            for j in range(i, size):
                k = idx.get(tuple(x + y for x, y in zip(ri, roots[j])))
                if k is not None:
                    pairs[k].append((i, j))
                    self.partners[i].append((j, k))
                    self.partners[j].append((i, k))
                    if i in simple:
                        self.covers[k].append(j)
                    if j in simple:
                        self.covers[k].append(i)
        # (k, 1 << k, pairs of k) for every root k in increasing height; the
        # classical cell order is not a height order, hence the index k
        self.decompositions: list[tuple[int, int, tuple[tuple[int, int], ...]]] = [
            (k, 1 << k, tuple(pairs[k]))
            for k in sorted(range(size), key=lambda k: sum(roots[k]))
        ]

        self.filter_masks: list[int] = [0] * size   # j >= i
        self.below_masks: list[int] = [0] * size    # j <= i, j != i
        for i, ri in enumerate(roots):
            up = 0
            down = 0
            for j, rj in enumerate(roots):
                if root_leq(ri, rj):
                    up |= 1 << j
                if root_leq(rj, ri) and i != j:
                    down |= 1 << j
            self.filter_masks[i] = up
            self.below_masks[i] = down
        self.comparable_masks: list[int] = [
            self.filter_masks[i] | self.below_masks[i] for i in range(size)
        ]
        self.highest_index: int | None = (
            idx[self.highest_root] if self.highest_root is not None else None
        )

    def __len__(self) -> int:
        return len(self.positive_roots)

    def __repr__(self) -> str:
        return f"RootSystem({self.lie_type})"


def build_root_system(lt: LieType | str) -> RootSystem:
    """Construct the root system, accepting either a LieType or a label."""
    if isinstance(lt, str):
        lt = LieType.parse(lt)
    return RootSystem(lt)


def total_count_formula(lt: LieType | RootSystem | str) -> int:
    """Number of ad-nilpotent ideals: prod (h + e_i + 1) / (e_i + 1), exactly."""
    if isinstance(lt, RootSystem):
        lt = lt.lie_type
    elif isinstance(lt, str):
        lt = LieType.parse(lt)
    exps = exponents(lt)
    h = exps[-1] + 1
    num = 1
    den = 1
    for e in exps:
        num *= h + e + 1
        den *= e + 1
    if num % den:
        raise AssertionError("ideal-count product is not an integer")
    return num // den
