"""Cross-verification suites tying the independent computation routes
together: diagram algorithms against the oracle, closed formulas
and generating functions against brute-force enumeration, path counts,
reference tables, and the series-engine consistency guards.

Each suite returns a list of CheckResult rows; a row compares two
numbers (or families of numbers) computed by entirely separate code
paths.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from . import closedform, genfun, poly
# enumerate_ideal_masks is unused here, but bench/tracing.py wraps this name
from .ideals import block_length, enumerate_ideal_masks, root_state, walk  # noqa: F401
from .nilpotence import (
    ROUTES,
    budget_deadline,
    class_distribution,
    classified_blocks,
    joint_histogram,
)
from .refdata import EXCEPTIONAL_CLASS_COUNTS
from .rootsys import LieType, build_root_system, total_count_formula

# the most ideals one run may enumerate: A14 (9694845 ideals) fits, A15
# does not; `table --type A14 --workers 1` takes 9-10 s on a 2-CPU
# machine, about 1 us per ideal with the walk
MAX_IDEALS = 10**7

# the types enumerated whole by the suites and the tests; E8 is left out,
# although its serial oracle histogram takes only about 0.1 s, because the
# tests run slower per-ideal references over these types; the `totals` and
# `table1` suites check E8 on their own
SMALL_TYPES = (
    tuple(f"A{n}" for n in range(1, 9))
    + tuple(f"{f}{n}" for f in "BCD" for n in range(2, 7))
    + ("G2", "F4", "E6", "E7")
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def distribution(label: str) -> dict[int, int]:
    """Serial oracle histogram {class: count} of a small type, the
    enumeration that the gf, paths and abelian suites check."""
    return class_distribution(build_root_system(label), workers=1)


def _distribution_to_row(dist: dict[int, int]) -> tuple[int, ...]:
    top = max(dist)
    return tuple(dist.get(k, 0) for k in range(top + 1))


def refuse_huge(what: str, types: Iterable[LieType]) -> None:
    """Refuse a run over the ideals of `types`, more than MAX_IDEALS in
    all, counted before anything is built.  A type has at least 2^rank
    ideals (those of class at most 1), so the first type of a rank with
    2^rank > MAX_IDEALS is refused at once: neither the product formula,
    whose count has thousands of digits by rank 20000, nor the types after
    it are reached."""
    limit = f"more than the {MAX_IDEALS} a run may enumerate"
    count = 0
    for lt in types:
        if lt.rank >= MAX_IDEALS.bit_length():
            raise ValueError(f"{what} has at least 2^{lt.rank} ideals, {limit}")
        count += total_count_formula(lt)
    if count > MAX_IDEALS:
        raise ValueError(f"{what} has {count} ideals, {limit}")


def suite_agreement(
    family: str | None = None, max_rank: int | None = None, budget: float | None = None
) -> list[CheckResult]:
    """Per-ideal agreement of every applicable class algorithm with the
    oracle, for one family or all four.  A run over more than MAX_IDEALS
    ideals in all is refused up front; `budget` caps wall time in
    seconds, checked every `BUDGET_BLOCK` ideals."""
    if max_rank is not None and max_rank < 1:
        raise ValueError(f"max rank must be at least 1, got {max_rank}")
    tops = {"A": 8, "B": 6, "C": 7, "D": 6}

    def types() -> Iterator[LieType]:
        for fam in family or "ABCD":
            top = tops[fam] if max_rank is None else max_rank
            yield from (LieType(fam, n) for n in range(1 if fam == "A" else 2, top + 1))

    refuse_huge("the agreement suite", types())
    deadline = budget_deadline(budget)
    results = []
    for lt in types():
        rs = build_root_system(lt)
        # every other route that applies, run on the oracle's blocks
        routes = [f for m, (fams, f) in ROUTES.items() if m != "oracle" and lt.family in fams]
        mismatches = count = 0
        for block, classes in classified_blocks(rs, "oracle", deadline):
            count += len(classes)
            got = [route(rs, block) for route in routes]
            if any(other != classes for other in got):
                mismatches += sum(len(set(row)) > 1 for row in zip(classes, *got))
        results.append(
            CheckResult(
                f"agreement {lt}",
                mismatches == 0,
                f"{len(routes) + 1} routes over {count} ideals, {mismatches} mismatches",
            )
        )
    return results


def suite_totals() -> list[CheckResult]:
    """Product formula totals against the enumeration count: the records
    of the walk's blocks, counted without reading a mask."""
    results = []
    for label in SMALL_TYPES + ("E8",):
        rs = build_root_system(label)
        want = total_count_formula(rs)
        got = sum(block_length(rs, block) for block in walk(rs, [root_state(rs)], 4096))
        results.append(
            CheckResult(f"total {label}", got == want, f"enumerated {got}, formula {want}")
        )
    return results


def suite_table1(workers: int | None = None, budget: float | None = None) -> list[CheckResult]:
    """Oracle distributions for the exceptional types against the
    reference rows."""
    results = []
    for label, want in EXCEPTIONAL_CLASS_COUNTS.items():
        rs = build_root_system(label)
        dist = class_distribution(rs, "oracle", workers=workers, budget=budget)
        got = _distribution_to_row(dist)
        results.append(
            CheckResult(
                f"table {label}",
                got == want,
                f"total {sum(got)}" if got == want else f"got {got}, want {want}",
            )
        )
    return results


def suite_formulas() -> list[CheckResult]:
    """Multisum and (q,t) formulas against brute-force histograms, one
    joint (dimension, class) histogram per type and its class marginal."""
    joint, hists = {}, {}
    for label in [f"A{n}" for n in range(1, 7)] + [f"C{n}" for n in range(2, 7)]:
        joint[label] = joint_histogram(build_root_system(label))
        hists[label] = hist = Counter()
        for (_, K), c in joint[label].items():
            hist[K] += c
    results = []
    for n in range(1, 7):
        hist = hists[f"A{n}"]
        ok = all(closedform.alpha_A(n, K) == hist[K] for K in range(n + 1))
        results.append(CheckResult(f"class multisum A{n}", ok, f"{hist.total()} ideals"))
    for n in range(2, 7):
        hist = hists[f"C{n}"]
        ok = all(closedform.gamma_C(n, K) == hist[K] for K in range(2 * n))
        results.append(CheckResult(f"class multisum C{n}", ok, f"{hist.total()} ideals"))
        ok2 = all(
            closedform.c4_count(n, h) == sum(c for K, c in hist.items() if K <= h)
            for h in range(2 * n + 1)
        )
        results.append(CheckResult(f"reflection count C{n}", ok2, f"h <= {2*n}"))
    for name, fam, qt in [("qt catalan", "A", closedform.catalan_qt),
                          ("qt central", "C", closedform.gamma_qt)]:
        for n in range(1, 6):
            pairs = joint[f"{fam}{n}" if n >= 2 else "A1"]  # C1 is A1
            want = {(K, h): c for (h, K), c in pairs.items()}
            results.append(CheckResult(f"{name} {fam}{n}", qt(n) == want, f"{len(want)} terms"))
    sides = (closedform.odd_sum_product(i1, i2) for i2 in range(1, 9) for i1 in range(-i2 + 1, 1))
    ok = all(lhs == rhs for lhs, rhs in sides)
    results.append(CheckResult("inner-sum collapse", ok, "|i1|, i2 <= 8"))
    for fam, lo in [("A", 1), ("B", 1), ("C", 1), ("D", 2)]:
        # a coefficient does not depend on the order: one series serves every rank
        top = genfun.x_power(fam, 8)
        series = {h: genfun.family_series(fam, h, top) for h in (2, 3)}
        ok = all(
            closedform.corollary_values(fam, n, h) == series[h][genfun.x_power(fam, n)]
            for n in range(lo, 9)
            for h in (2, 3)
        )
        results.append(CheckResult(f"small-class closed forms {fam}", ok, "n <= 8, h in {2,3}"))
    return results


def suite_gf() -> list[CheckResult]:
    """Generating-function coefficients against brute-force histograms."""
    results = []
    hists = {
        fam: {n: distribution(f"{fam}{n}") for n in range(1 if fam == "A" else 2, 7)}
        for fam in "ABCD"
    }
    order = 7  # one power past the largest rank, 6
    series = {(fam, h): genfun.family_series(fam, h, order) for h in range(13) for fam in hists}
    for h in range(13):
        ok = all(
            series[fam, h][genfun.x_power(fam, n)] == sum(c for K, c in hist.items() if K <= h)
            for fam, by_rank in hists.items()
            for n, hist in by_rank.items()
        )
        results.append(CheckResult(f"cumulative series h={h}", ok, "families A,B,C,D"))
    for K in range(13):
        ok = True
        for fam in "BD":
            exact = genfun.family_series(fam, K, order, exact=True)
            ok &= all(exact[n] == hist.get(K, 0) for n, hist in hists[fam].items())
        results.append(CheckResult(f"exact-class series K={K}", ok, "families B,D"))
    steps = (series["C", h] - series["C", h - 1] for h in range(1, 13))
    ok = all(c >= 0 for step in steps for c in step.coefficients)
    results.append(CheckResult("cumulative telescoping C", ok, "h <= 12"))
    return results


def suite_paths() -> list[CheckResult]:
    """Class histograms against bounded-height lattice path counts."""
    results = []
    for n in range(1, 8):
        hist = distribution(f"A{n}")
        ok = all(
            closedform.path_count_height(2 * n + 2, K + 1, True) == hist.get(K, 0)
            for K in range(n + 1)
        )
        results.append(CheckResult(f"closed paths A{n}", ok, f"length {2*n+2}"))
    for n in range(2, 7):
        hist = distribution(f"C{n}")
        ok = all(
            closedform.path_count_height(2 * n, K + 1, False) == hist.get(K, 0)
            for K in range(2 * n)
        )
        results.append(CheckResult(f"free paths C{n}", ok, f"length {2*n}"))
    return results


def suite_abelian() -> list[CheckResult]:
    """Ideals of class at most 1 number exactly 2^rank, every type."""
    results = []
    for label in SMALL_TYPES:
        hist = distribution(label)
        got = hist.get(0, 0) + hist.get(1, 0)
        rank = LieType.parse(label).rank
        results.append(CheckResult(f"abelian {label}", got == 2**rank, f"{got} = 2^{rank}"))
    row = EXCEPTIONAL_CLASS_COUNTS["E8"]
    results.append(
        CheckResult("abelian E8 (reference row)", row[0] + row[1] == 2**8, f"{row[0]}+{row[1]}")
    )
    return results


def suite_series() -> list[CheckResult]:
    """Series-engine guards: every counting series expands with no odd
    sqrt(x) residue and integer nonnegative coefficients (asserted
    internally), each continued fraction of depth <= 10 equals its
    Chebyshev ratio, and, once for each k <= 12 as they do not depend on
    the depth, U_k U_(k+1) = U_1 + U_3 + ... + U_(2k+1) and U_(k+1)^2 -
    U_k^2 = U_(2k+2)."""
    results = []
    ok = True
    detail = ""
    try:
        for h in range(11):
            for series in (genfun.gf_A_le, genfun.gf_C_le, genfun.gf_B_le,
                           genfun.gf_B_K, genfun.gf_D_le, genfun.gf_D_K):
                series(h, 12)
    except (ValueError, AssertionError) as exc:  # pragma: no cover - guard trip
        ok = False
        detail = str(exc)
    results.append(
        CheckResult(
            "series residue and integrality",
            ok,
            detail or "6 series families, parameter <= 10, order 12",
        )
    )
    u = genfun.u_tilde  # the image of U_k under x -> t/2
    ok = all(genfun.verify_cf_identity(h, 20) for h in range(11)) and all(
        poly.mul(u(k), u(k + 1)) == poly.add(*map(u, range(1, 2 * k + 2, 2)))
        and poly.add(poly.mul(u(k + 1), u(k + 1)), poly.scale(poly.mul(u(k), u(k)), -1))
        == u(2 * k + 2)
        for k in range(13)
    )
    results.append(CheckResult("continued fraction identity", ok, "depth <= 10"))
    return results


SUITES = {
    "agreement": suite_agreement,
    "totals": suite_totals,
    "table1": suite_table1,
    "formulas": suite_formulas,
    "gf": suite_gf,
    "paths": suite_paths,
    "abelian": suite_abelian,
    "series": suite_series,
}


def run_suite(
    name: str,
    family: str | None = None,
    max_rank: int | None = None,
    workers: int | None = None,
    budget: float | None = None,
) -> list[CheckResult]:
    """Run one suite; `family` and `max_rank` reach only the agreement
    suite, `workers` only table1, and `budget` both of them."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    if name == "agreement":
        return suite_agreement(family, max_rank, budget)
    if name == "table1":
        return suite_table1(workers, budget)
    return SUITES[name]()
