"""Root systems in simple-root coordinates.

Every root is a tuple of integer coefficients with respect to the simple
roots.  Positive roots of the classical families are sorted into the cell
order of their (shifted) staircase arrangements (`_staircase_key`), so
that ideal bitmasks translate directly into diagrams; exceptional types
are listed by height.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

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
        if self.family not in tuple(FAMILIES):  # one letter, not a substring
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
        """Parse a label such as 'A3', 'b4' or 'E8': a letter, then ASCII
        digits only."""
        text = text.strip()
        if len(text) < 2 or not (text[1:].isascii() and text[1:].isdigit()):
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
    """All positive roots, generated from the simple roots by the simple
    reflections that raise the height: s_i(beta) = beta - t alpha_i with
    t = <beta, alpha_i^vee> < 0.  Every positive root that is not simple
    is the image of a lower one under such a reflection.

    Each new root carries its pairings <beta, alpha_j^vee> = sum_k a_jk
    beta_k, and s_i moves them by -t times column i of `a`, so only at
    that column's nonzero entries: the diagonal 2 and one per neighbour
    of i in the Dynkin diagram, at most four."""
    n = len(a)
    columns = [[(j, a[j][i]) for j in range(n) if a[j][i]] for i in range(n)]
    simples = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots: set[Root] = set(simples)
    frontier = [(alpha, [row[i] for row in a]) for i, alpha in enumerate(simples)]
    while frontier:
        nxt: list[tuple[Root, list[int]]] = []
        for beta, pairings in frontier:
            for i, t in enumerate(pairings):
                if t < 0:
                    img = beta[:i] + (beta[i] - t,) + beta[i + 1 :]
                    if img not in roots:
                        roots.add(img)
                        moved = pairings[:]
                        for j, x in columns[i]:
                            moved[j] -= t * x
                        nxt.append((img, moved))
        frontier = nxt
    return roots


def exponents(lt: LieType) -> tuple[int, ...]:
    n = lt.rank
    if lt.family == "A":
        return tuple(range(1, n + 1))
    if lt.family in "BC":
        return tuple(range(1, 2 * n, 2))
    if lt.family == "D":
        return tuple(sorted(list(range(1, 2 * n - 2, 2)) + [n - 1]))
    return _EXCEPTIONAL_EXPONENTS[(lt.family, n)]


def positive_root_count(lt: LieType) -> int:
    """Number of positive roots: the exponents of a simple type sum to it."""
    return sum(exponents(lt))


def _staircase_key(lt: LieType, root: Root) -> tuple[int, int, Root]:
    """Sort key placing a classical root in its staircase cell: row, then
    height falling, then the root.  The row is the least simple root with a
    nonzero coefficient, where in type D only alpha_1..alpha_{n-1} count
    (alpha_n alone sits in row n-1).  D's fork pair ties on height; the
    tuple puts the root holding alpha_n first."""
    counted = lt.rank - (lt.family == "D")
    row = next((i for i in range(counted) if root[i]), counted - 1)
    return row, -sum(root), root


def _staircase_widths(lt: LieType) -> list[int]:
    """Row widths: n, n-1, ..., 1 for A; 2n-1, 2n-3, ..., 1 for B and C;
    2n-2, 2n-4, ..., 2 for D."""
    n = lt.rank
    top = {"A": n, "B": 2 * n - 1, "C": 2 * n - 1, "D": 2 * n - 2}[lt.family]
    return list(range(top, 0, -1 if lt.family == "A" else -2))


def _packed_roots(roots: list[Root]) -> list[int]:
    """Each root as one int, coefficient i in bits 4i to 4i+3.  Every
    coefficient must be at most 7, or ValueError is raised: then the sum of
    two packed roots is the packed sum of their coefficients, since no
    field carries into the next."""
    if max(map(max, roots)) > 7:
        raise ValueError("a root coefficient exceeds 7 and does not fit in 4 bits")
    return [sum(c << 4 * i for i, c in enumerate(r)) for r in roots]


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
        closure = _reflection_closure(cartan_matrix(lie_type))
        if len(closure) != positive_root_count(lie_type):
            raise AssertionError(
                f"{lie_type}: closure produced {len(closure)} positive roots"
            )

        self.simple_roots: list[Root] = [
            tuple(int(i == j) for j in range(n)) for i in range(n)
        ]
        self.rows: list[tuple[int, int]] | None = None
        if lie_type.is_classical:
            keyed = sorted(_staircase_key(lie_type, r) for r in closure)
            self.positive_roots: list[Root] = [r for *_, r in keyed]
            # (first bit, width) per row of the (shifted) staircase, whose
            # cells are consecutive bits
            widths = list(Counter(row for row, *_ in keyed).values())
            if widths != _staircase_widths(lie_type):
                raise AssertionError(f"{lie_type}: rows {widths} are not the staircase widths")
            self.rows = list(zip(accumulate(widths, initial=0), widths))
        else:
            self.positive_roots = sorted(closure, key=lambda r: (sum(r), r))

        self.exponents = exponents(lie_type)
        self.coxeter_number = self.exponents[-1] + 1
        if self.coxeter_number * n != 2 * len(self.positive_roots):
            raise AssertionError(f"{lie_type}: h*n != 2*#positive roots")

        self._build_tables()
        # D2 = A1 x A1 is the one permitted type without a highest root
        if self.highest_index is None and str(lie_type) != "D2":
            raise AssertionError(f"{lie_type}: no unique highest root")

    def _build_tables(self) -> None:
        roots = self.positive_roots
        size = len(roots)
        # each root as one int (`_packed_roots`), so that a sum of two roots
        # is one int addition and one dict lookup
        packed = _packed_roots(roots)
        idx = {p: k for k, p in enumerate(packed)}.get
        # (j, k) for every root j whose sum with root i is the root k
        self.partners: list[list[tuple[int, int]]] = [
            [(j, k) for j, q in enumerate(packed) if (k := idx(p + q)) is not None]
            for p in packed
        ]

        # covers k -> k + alpha_i, one index lookup per simple root (a mask
        # is an ideal when it holds every cover of each root it holds);
        # filters are filled from the top height down, strict lower sets
        # bottom up
        simples = _packed_roots(self.simple_roots)
        self.covers: list[list[int]] = [
            [k for s in simples if (k := idx(p + s)) is not None] for p in packed
        ]
        by_height = sorted(range(size), key=lambda k: sum(roots[k]))
        self.filter_masks: list[int] = [1 << k for k in range(size)]   # j >= i
        self.below_masks: list[int] = [0] * size    # j <= i, j != i
        for k in reversed(by_height):
            for j in self.covers[k]:
                self.filter_masks[k] |= self.filter_masks[j]
        for k in by_height:
            for j in self.covers[k]:
                self.below_masks[j] |= self.below_masks[k] | 1 << k
        tops = [k for k in range(size) if self.filter_masks[k] == 1 << k]
        self.highest_index: int | None = tops[0] if len(tops) == 1 else None
        self.highest_root: Root | None = roots[tops[0]] if len(tops) == 1 else None

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
