"""Acceptance gate: every release criterion, each printing one line.

All comparisons are exact integer equalities; there are no tolerances.
The E8 distribution is computed once per session and shared.
"""
from __future__ import annotations

import time

import pytest

from adnil import (
    alpha_A,
    build_root_system,
    class_distribution,
    corollary_values,
    gamma_C,
    path_count_height,
    total_count_formula,
)
from adnil.checks import distribution, run_suite
from adnil.genfun import family_series, x_power
from adnil.nilpotence import resolve_workers
from adnil.refdata import EXCEPTIONAL_CLASS_COUNTS


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {criterion}: {status} - {detail}")


def distribution_row(dist: dict[int, int]) -> tuple[int, ...]:
    return tuple(dist.get(k, 0) for k in range(max(dist) + 1))


@pytest.fixture(scope="session")
def e8_distribution() -> tuple[dict[int, int], float]:
    rs = build_root_system("E8")
    started = time.monotonic()
    dist = class_distribution(rs, workers=resolve_workers(None))
    return dist, time.monotonic() - started


def test_criterion_1_table_reproduction() -> None:
    mismatches = []
    for label in ("G2", "F4", "E6", "E7"):
        dist = class_distribution(build_root_system(label))
        if distribution_row(dist) != EXCEPTIONAL_CLASS_COUNTS[label]:
            mismatches.append(label)
    ok = not mismatches
    report(1, ok, "G2/F4/E6/E7 distributions match the reference table exactly")
    assert ok, mismatches


def test_criterion_2_e8_distribution(e8_distribution) -> None:
    dist, elapsed = e8_distribution
    ok = (
        distribution_row(dist) == EXCEPTIONAL_CLASS_COUNTS["E8"]
        and sum(dist.values()) == 25080
        and dist[2] == 2200
        and dist[29] == 1
        and dist.get(28, 0) == 0
        and elapsed < 300.0
    )
    report(2, ok, f"E8 matches reference exactly, total 25080, {elapsed:.1f}s")
    assert ok, (distribution_row(dist), elapsed)


def test_criterion_3_product_formula_totals(e8_distribution) -> None:
    bad = [r.name for r in run_suite("totals") if not r.passed]
    if sum(e8_distribution[0].values()) != total_count_formula("E8"):
        bad.append("E8 live")
    ok = not bad
    report(3, ok, "product-formula totals equal enumerated totals for all types")
    assert ok, bad


def test_criterion_4_algorithm_agreement() -> None:
    results = run_suite("agreement")
    failed = [r.name for r in results if not r.passed]
    ok = not failed
    report(4, ok, f"per-ideal agreement of all routes over {len(results)} type/rank runs")
    assert ok, failed


def test_criterion_5_formulas_match_enumeration() -> None:
    failed = [r.name for r in run_suite("formulas") if not r.passed]
    failed += [r.name for r in run_suite("gf") if not r.passed]
    ok = not failed
    report(5, ok, "closed formulas and all six series match brute force exactly")
    assert ok, failed


def test_criterion_6_corollaries_through_rank_8() -> None:
    bad = []
    for n in range(1, 9):
        for family in "ABCD" if n >= 2 else "ABC":
            for h in (2, 3):
                want = corollary_values(family, n, h)
                if want != family_series(family, h, 10)[x_power(family, n)]:
                    bad.append((family, n, h, "series"))
                if n <= 5 and (family == "A" or n >= 2):
                    dist = distribution(f"{family}{n}")
                    if want != sum(c for k, c in dist.items() if k <= h):
                        bad.append((family, n, h, "enumeration"))
    ok = not bad
    report(6, ok, "closed-form small-class counts hold through rank 8")
    assert ok, bad


def test_criterion_7_path_identities() -> None:
    bad = []
    for n in range(1, 8):
        for K in range(n + 1):
            if path_count_height(2 * n + 2, K + 1) != alpha_A(n, K):
                bad.append(("dyck", n, K))
    for n in range(1, 7):
        for K in range(2 * n):
            got = path_count_height(2 * n, K + 1, return_to_axis=False)
            if got != gamma_C(n, K):
                bad.append(("free", n, K))
    ok = not bad
    report(7, ok, "path height counts equal class counts (A: n<=7, C: n<=6)")
    assert ok, bad


def test_criterion_8_abelian_counts(e8_distribution) -> None:
    bad = [r.name for r in run_suite("abelian") if not r.passed]
    dist, _ = e8_distribution
    if dist[0] + dist[1] != 256:
        bad.append("E8 live")
    ok = not bad
    report(8, ok, "ideals of class at most 1 number 2^rank for every type")
    assert ok, bad


def test_criterion_9_series_engine_properties() -> None:
    failed = [r.name for r in run_suite("series") if not r.passed]
    ok = not failed
    report(9, ok, "series residue/integrality, continued fraction, product identities")
    assert ok, failed
