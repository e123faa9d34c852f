from __future__ import annotations

import concurrent.futures
import math
import multiprocessing
import os
import subprocess
import sys
import time
from collections import Counter
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from functools import cache
from itertools import product
from operator import add
from pathlib import Path

import pytest

import adnil
from adnil import (
    build_root_system,
    class_distribution,
    classify_ideal,
    joint_histogram,
    nilpotence_from_partition,
    nilpotence_oracle,
    nilpotence_via_completion,
    staircase_filling,
    symmetric_completion,
    two_ray_classify,
    upward_ray_bound,
    zigzag_class,
)
from adnil import nilpotence
from adnil.checks import SMALL_TYPES, suite_agreement
from adnil.cli import main
from adnil.ideals import enumerate_ideal_masks, partition_seeds, walk
from adnil.nilpotence import (
    BUDGET_BLOCK,
    ROUTES,
    _seed_histogram,
    block_columns,
    block_histogram,
    budget_blocks,
    budget_deadline,
    ideal_rows,
    resolve_workers,
)


def test_hand_counted_distributions() -> None:
    # small enough to enumerate by hand
    assert class_distribution(build_root_system("A1"), workers=1) == {0: 1, 1: 1}
    assert class_distribution(build_root_system("A2"), workers=1) == {0: 1, 1: 3, 2: 1}
    assert class_distribution(build_root_system("C2"), workers=1) == {
        0: 1, 1: 3, 2: 1, 3: 1,
    }
    assert class_distribution(build_root_system("D2"), workers=1) == {0: 1, 1: 3}


def test_low_rank_coincidences() -> None:
    # B2 = C2 and D3 = A3 as root systems, so the statistics must agree
    b2 = class_distribution(build_root_system("B2"), workers=1)
    c2 = class_distribution(build_root_system("C2"), workers=1)
    assert b2 == c2
    d3 = class_distribution(build_root_system("D3"), workers=1)
    a3 = class_distribution(build_root_system("A3"), workers=1)
    assert d3 == a3


def test_oracle_requires_ideal_through_highest_root() -> None:
    rs = build_root_system("A2")
    assert nilpotence_oracle(rs, 0) == 0
    assert nilpotence_oracle(rs, 7) == 2
    # bracketing the two simple roots reaches the highest root
    assert nilpotence_oracle(rs, 1) == 1


@cache
def _partners(roots: tuple[tuple[int, ...], ...]) -> list[dict[int, int]]:
    index = {r: k for k, r in enumerate(roots)}
    return [
        {d: index[s] for d, rd in enumerate(roots) if (s := tuple(map(add, rg, rd))) in index}
        for rg in roots
    ]


def bracket_class(roots: list[tuple[int, ...]], ideal: int) -> int:
    """Independent reference: iterate I^{k+1} = [I^k, I] on root sets, where
    [g, d] is nonzero exactly when g + d is a root, and count the stages."""
    partners = _partners(tuple(roots))
    members = {k for k in range(len(roots)) if ideal >> k & 1}
    stage, k = members, 0
    while stage:
        k += 1
        stage = {s for g in stage for d, s in partners[g].items() if d in members}
    return k


@pytest.mark.parametrize("label", SMALL_TYPES)
def test_oracle_matches_bracket_iteration(label: str) -> None:
    rs = build_root_system(label)
    for mask in enumerate_ideal_masks(rs):
        assert nilpotence_oracle(rs, mask) == bracket_class(rs.positive_roots, mask), mask


@pytest.mark.parametrize("label", SMALL_TYPES)
def test_block_oracle_matches_per_ideal_oracle(label: str) -> None:
    # every ideal of the type in one block, and every seed in its own
    rs = build_root_system(label)
    masks, antichains = zip(*walk(rs))
    want = Counter(nilpotence_oracle(rs, mask) for mask in masks)
    columns = block_columns(rs, list(antichains))
    assert columns == [
        sum(1 << b for b, mask in enumerate(masks) if mask >> k & 1) for k in range(len(rs))
    ]
    assert block_histogram(rs, columns, len(masks)) == want
    assert class_distribution(rs, workers=1) == dict(sorted(want.items()))


def test_root_seed_histogram_spans_two_blocks() -> None:
    rs = build_root_system("A8")  # 4862 ideals
    blocks = list(budget_blocks(walk(rs), math.inf))
    assert [len(block) for block in blocks] == [BUDGET_BLOCK, 4862 - BUDGET_BLOCK]
    want = Counter(nilpotence_oracle(rs, mask) for block in blocks for mask, _ in block)
    assert _seed_histogram(rs, "oracle", math.inf, (0, 0, 0)) == want


def test_oracle_guard_rejects_non_ideal() -> None:
    # the two simple roots of A2 without their sum, the highest root
    rs = build_root_system("A2")
    mask = sum(1 << rs.index[r] for r in rs.simple_roots)
    with pytest.raises(AssertionError, match="highest root"):
        nilpotence_oracle(rs, mask)


def _mask_columns(rs, mask: int) -> list[int]:
    """One ideal (or any root set) as a block of one: column k is bit k."""
    return [mask >> k & 1 for k in range(len(rs))]


def test_block_guard_rejects_non_ideal() -> None:
    rs = build_root_system("A2")
    mask = sum(1 << rs.index[r] for r in rs.simple_roots)
    with pytest.raises(AssertionError, match="highest root"):
        block_histogram(rs, _mask_columns(rs, mask), 1)
    # the same root set beside genuine ideals fails the whole block
    columns = block_columns(rs, [0, 1, 2])
    columns = [col | bit << 3 for col, bit in zip(columns, _mask_columns(rs, mask))]
    with pytest.raises(AssertionError, match="highest root"):
        block_histogram(rs, columns, 4)


def test_oracle_guard_survives_optimize() -> None:
    # a child under -O drops every bare assert; both guards must still raise
    src = str(Path(adnil.__file__).resolve().parents[1])
    code = (
        "from adnil import build_root_system, nilpotence_oracle\n"
        "from adnil.nilpotence import block_histogram\n"
        "rs = build_root_system('A2')\n"
        "mask = sum(1 << rs.index[r] for r in rs.simple_roots)\n"
        "columns = [mask >> k & 1 for k in range(len(rs))]\n"
        "for check in (lambda: nilpotence_oracle(rs, mask),\n"
        "              lambda: block_histogram(rs, columns, 1)):\n"
        "    try:\n"
        "        check()\n"
        "    except AssertionError:\n"
        "        print('raised')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "raised\nraised\n"


def test_staircase_partition_of_full_ideal() -> None:
    rs = build_root_system("A2")
    assert ideal_rows(rs, 0b111) == (2, 1)
    assert ideal_rows(rs, 0b101) == (1, 1)
    assert ideal_rows(rs, 0b001) == (1,)
    assert ideal_rows(rs, 0) == ()


@pytest.mark.parametrize("label", ["A4", "B3", "C3", "D3", "D4"])
def test_ideal_rows_accepts_exactly_the_ideals(label: str) -> None:
    rs = build_root_system(label)
    ideals = set(enumerate_ideal_masks(rs))
    for mask in range(1 << len(rs)):
        if mask in ideals:
            assert sum(ideal_rows(rs, mask)) == mask.bit_count()
        else:
            with pytest.raises(ValueError, match="not an ideal"):
                ideal_rows(rs, mask)


def test_diagram_routes_reject_non_ideal() -> None:
    # the simple roots alone, and every root of A3 but the highest
    cases = []
    for label in ("A2", "B3", "C3", "D4"):
        rs = build_root_system(label)
        cases.append((rs, sum(1 << rs.index[r] for r in rs.simple_roots)))
    rs = build_root_system("A3")
    cases.append((rs, (1 << len(rs)) - 1 ^ 1 << rs.highest_index))
    for rs, mask in cases:
        family = rs.lie_type.family
        methods = [m for m, (fams, _) in ROUTES.items() if m != "oracle" and family in fams]
        assert methods
        for method in methods:
            with pytest.raises(ValueError, match="not an ideal"):
                classify_ideal(rs, mask, method)


def filling_by_anti_diagonals(parts: tuple[int, ...], n: int) -> list[list[int]]:
    """Reference: the staircase filling as an anti-diagonal sweep over every
    staircase cell, skipping the cells outside the diagram."""
    lam = list(parts) + [0] * (n - len(parts))
    t = [[0] * (n - i + 1) for i in range(1, n + 1)]

    def lam_at(i: int) -> int:
        return lam[i - 1] if i <= n else 0

    for s in range(n + 1, 1, -1):
        for i in range(max(1, s - n), n + 1):
            j = s - i
            if j < 1 or j > n - i + 1:
                continue
            if j > lam_at(i):
                continue
            if lam_at(i) == j and lam_at(i + 1) < j:
                t[i - 1][j - 1] = 1
                continue
            best = 0
            for k in range(j + 1, n - i + 2):
                cand = t[i - 1][k - 1] + t[n - k + 2 - 1][j - 1]
                if cand > best:
                    best = cand
            t[i - 1][j - 1] = best
    return t


def test_staircase_filling_hand_example() -> None:
    # corners get 1, the inner cell adds the best hook split
    assert staircase_filling((2, 1), 2) == [[2, 1], [1]]
    assert staircase_filling((1,), 1) == [[1]]
    # the whole table, not just entry (1,1), on every ideal of A1..A7
    for n in range(1, 8):
        rs = build_root_system(f"A{n}")
        for mask in enumerate_ideal_masks(rs):
            parts = ideal_rows(rs, mask)
            assert staircase_filling(parts, n) == filling_by_anti_diagonals(parts, n), parts


def test_truncation_recursion_agrees_with_filling() -> None:
    for n in range(1, 6):
        rs = build_root_system(f"A{n}")
        for mask in enumerate_ideal_masks(rs):
            parts = ideal_rows(rs, mask)
            want = staircase_filling(parts, n)[0][0] if mask else 0
            assert nilpotence_from_partition(parts, n) == want


def test_zigzag_large_diagram() -> None:
    parts = (10, 10, 9, 6, 5, 4, 4, 3, 1, 1, 1, 1)
    assert zigzag_class(parts, 13) == 3
    assert nilpotence_from_partition(parts, 13) == 3


def test_zigzag_empty_and_full() -> None:
    assert zigzag_class((), 4) == 0
    assert zigzag_class((4, 3, 2, 1), 4) == 4


def test_type_a_methods_agree_with_oracle() -> None:
    for n in range(1, 6):
        rs = build_root_system(f"A{n}")
        for mask in enumerate_ideal_masks(rs):
            want = nilpotence_oracle(rs, mask)
            for method in ("filling", "recursion", "zigzag"):
                assert classify_ideal(rs, mask, method) == want, (n, mask, method)


def test_completion_agrees_with_oracle() -> None:
    for label in ["B2", "B3", "B4", "C2", "C3", "C4", "D3", "D4"]:
        rs = build_root_system(label)
        for mask in enumerate_ideal_masks(rs):
            want = nilpotence_oracle(rs, mask)
            assert nilpotence_via_completion(rs, mask) == want, (label, mask)


def test_ray_methods_agree_with_oracle() -> None:
    for label in ["C2", "C3", "C4", "C5"]:
        rs = build_root_system(label)
        for mask in enumerate_ideal_masks(rs):
            assert classify_ideal(rs, mask, "ray") == nilpotence_oracle(rs, mask)
    for label in ["B2", "B3", "B4", "D3", "D4", "D5"]:
        rs = build_root_system(label)
        for mask in enumerate_ideal_masks(rs):
            assert classify_ideal(rs, mask, "tworay") == nilpotence_oracle(rs, mask)


def test_two_ray_cases_are_total() -> None:
    seen = set()
    for label in ["B4", "D4", "B5", "D5"]:
        rs = build_root_system(label)
        n, family = rs.lie_type.rank, rs.lie_type.family
        for mask in enumerate_ideal_masks(rs):
            parts = ideal_rows(rs, mask)
            res = two_ray_classify(parts, n, family)
            seen.add(res.case_id)
            assert res.nilpotence >= 0
    assert seen == set(range(8))


def test_two_ray_small_diagrams() -> None:
    assert two_ray_classify((), 3, "D").nilpotence == 0
    assert two_ray_classify((4,), 3, "B").nilpotence == 1
    assert two_ray_classify((3, 1), 2, "B").nilpotence == 3


def test_symmetric_completion_type_c_mirrors() -> None:
    # type C completes by reflecting cells across the diagonal
    assert symmetric_completion((2,), "C", 2) == (2, 1)
    assert symmetric_completion((3,), "C", 2) == (3, 1, 1)
    assert symmetric_completion((3, 1), "C", 2) == (3, 2, 1)
    assert symmetric_completion((), "C", 3) == ()


def completion_by_cells(parts: tuple[int, ...], family: str, n: int) -> tuple[int, ...]:
    """Reference: the symmetric completion built as a set of cells."""
    cells = set()
    for i, a in enumerate(parts, start=1):
        for j in range(i, i + a):
            cells.add((i, j))
    if family == "C":
        cells |= {(j, i) for i, j in list(cells)}
    else:
        cells |= {(j + 1, i - 1) for i, j in list(cells) if i >= 2}
        cells |= {(i, i - 1) for i, a in enumerate(parts, start=1) if a and i >= 2}
    size = 2 * n - 1 if family in "BC" else 2 * n - 2
    lam = [0] * size
    for i, j in cells:
        lam[i - 1] += 1
    for i, j in cells:
        if j > lam[i - 1]:
            raise AssertionError("completion is not a Ferrers diagram")
    while lam and lam[-1] == 0:
        lam.pop()
    return tuple(lam)


@pytest.mark.parametrize("family", "BCD")
def test_symmetric_completion_matches_cell_sets(family: str) -> None:
    # every tuple of at most n rows, each no longer than its row of the
    # shifted staircase (2n-1, 2n-3, ... cells in B and C, 2n-2, ... in D)
    outcomes = set()
    for n in range(2, 5):
        size = 2 * n - 1 if family in "BC" else 2 * n - 2
        fits = [range(size - 2 * i + 1) for i in range(n)]
        for length in range(n + 1):
            for parts in product(*fits[:length]):
                try:
                    want = completion_by_cells(parts, family, n)
                except AssertionError:
                    outcomes.add("raised")
                    with pytest.raises(AssertionError, match="not a Ferrers diagram"):
                        symmetric_completion(parts, family, n)
                else:
                    outcomes.add("returned")
                    assert symmetric_completion(parts, family, n) == want, parts
    assert outcomes == {"raised", "returned"}
    for parts in [(1, 3), (0, 2), (1, 0, 1)]:
        with pytest.raises(AssertionError, match="not a Ferrers diagram"):
            symmetric_completion(parts, "C", 3)


@pytest.mark.parametrize(
    "parts, family, n",
    [((5,), "B", 2), ((9,), "D", 3), ((4,), "C", 2), ((1, 1, 1), "D", 2)],
)
def test_symmetric_completion_refuses_rows_outside_the_staircase(
    parts: tuple[int, ...], family: str, n: int
) -> None:
    # more than n rows, or a row r longer than 2n-2r+1 cells (B, C) or 2n-2r (D)
    with pytest.raises(ValueError, match="rows|does not fit"):
        symmetric_completion(parts, family, n)


def test_shifted_diagrams_exist_for_all_ideals() -> None:
    for label in ["B3", "C3", "D4", "D5"]:
        rs = build_root_system(label)
        n = rs.lie_type.rank
        forked = 0
        for mask in enumerate_ideal_masks(rs):
            parts = ideal_rows(rs, mask)
            assert sum(parts) == mask.bit_count()
            assert 0 not in parts and all(a > b for a, b in zip(parts, parts[1:]))
            # a type-D row holding fork column n without column n-1
            rows: dict[int, set[int]] = {}
            for k, (i, j) in enumerate(rs.cells):
                if mask >> k & 1:
                    rows.setdefault(i, set()).add(j)
            forked += any(n in cols and n - 1 not in cols for cols in rows.values())
        if rs.lie_type.family == "D":
            assert forked > 0, "some D ideal holds fork column n without n-1"


def test_upward_ray_is_class_rounded_up_to_even() -> None:
    for label in ["C2", "C3", "C4", "C5"]:
        rs = build_root_system(label)
        n = rs.lie_type.rank
        for mask in enumerate_ideal_masks(rs):
            parts = ideal_rows(rs, mask)
            k = nilpotence_oracle(rs, mask)
            assert upward_ray_bound(parts, n) == k + (k % 2)


def test_method_family_validation() -> None:
    rs = build_root_system("A2")
    with pytest.raises(ValueError):
        classify_ideal(rs, 0, "ray")
    with pytest.raises(ValueError):
        classify_ideal(rs, 0, "completion")
    with pytest.raises(ValueError):
        classify_ideal(build_root_system("C2"), 0, "tworay")
    with pytest.raises(ValueError):
        classify_ideal(rs, 0, "nonsense")


def test_parallel_distribution_matches_serial() -> None:
    # the pool takes the walk's first-level subtrees as seeds: cover
    # every classical family
    for label in ("C4", "A8", "B6", "C6", "D6"):
        rs = build_root_system(label)
        assert class_distribution(rs, workers=2) == class_distribution(rs, workers=1), label


def test_budget_timeout() -> None:
    rs = build_root_system("E6")
    with pytest.raises(TimeoutError):
        class_distribution(rs, workers=1, budget=1e-9)


@pytest.mark.parametrize("workers", [1, 2])
def test_budget_holds_inside_a_seed(workers: int) -> None:
    # A12 has 742900 ideals and takes over 1 s whole, serially
    rs = build_root_system("A12")
    started = time.monotonic()
    with pytest.raises(TimeoutError):
        class_distribution(rs, workers=workers, budget=0.05)
    assert time.monotonic() - started < 1.5


def test_budget_holds_inside_the_root_seed() -> None:
    # the whole walk as one seed: only a check between blocks can stop it
    rs = build_root_system("A12")
    started = time.monotonic()
    with pytest.raises(TimeoutError):
        _seed_histogram(rs, "oracle", started + 0.05, (0, 0, 0))
    assert time.monotonic() - started < 1.5


def test_budget_expiring_inside_a_block_stops_the_next(monkeypatch: pytest.MonkeyPatch) -> None:
    # the first block outlives the deadline; the clock check before the
    # second block raises, and no second block is classified
    rs = build_root_system("A8")  # two blocks
    deadline = time.monotonic() + 0.3
    classified = []

    def slow_block(rs, columns, count):
        classified.append(count)
        while time.monotonic() <= deadline:
            time.sleep(0.01)
        return block_histogram(rs, columns, count)

    monkeypatch.setattr(nilpotence, "block_histogram", slow_block)
    with pytest.raises(TimeoutError):
        _seed_histogram(rs, "oracle", deadline, (0, 0, 0))
    assert classified == [BUDGET_BLOCK]


def test_budget_must_be_positive() -> None:
    # a deadline of monotonic() + nan is never passed, so nan is refused
    # with the nonpositive budgets; inf is no cap, like None
    rs = build_root_system("A2")
    for budget in (math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="budget must be a positive number"):
            class_distribution(rs, workers=1, budget=budget)
        with pytest.raises(ValueError, match="budget must be a positive number"):
            suite_agreement("A", 2, budget=budget)
    assert budget_deadline(None) == budget_deadline(math.inf) == math.inf
    assert class_distribution(rs, workers=1, budget=math.inf) == {0: 1, 1: 3, 2: 1}
    assert all(row.passed for row in suite_agreement("A", 2, budget=math.inf))


def test_pool_is_capped_at_the_seed_count(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture
) -> None:
    # a stand-in executor that records its size and runs in this process,
    # so no request below starts a real process, however large
    requested = []

    class RecordingExecutor:
        def __init__(self, max_workers: int, initializer, initargs: tuple) -> None:
            requested.append(max_workers)
            initializer(*initargs)

        def submit(self, func, *args) -> Future:
            future: Future = Future()
            future.set_result(func(*args))
            return future

        def shutdown(self, cancel_futures: bool) -> None:
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(nilpotence, "_WORKER_STATE", None)
    rs = build_root_system("A1")
    assert len(partition_seeds(rs)) == 2
    assert class_distribution(rs, workers=10**9) == {0: 1, 1: 1}
    monkeypatch.setenv("ADNIL_WORKERS", str(10**9))
    assert class_distribution(rs) == {0: 1, 1: 1}
    assert main(["table", "--type", "A1", "--workers", str(10**9)]) == 0
    assert capsys.readouterr().out == "K,count\n0,1\n1,1\ntotal,2\n"
    assert requested == [2, 2, 2]
    # a cap of one runs serially, with no pool at all
    assert class_distribution(rs, workers=1) == {0: 1, 1: 1}
    assert requested == [2, 2, 2]


def _die(*initargs: object) -> None:
    os._exit(1)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a patched initializer reaches the workers only through fork",
)
def test_dead_worker_raises(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture
) -> None:
    # every worker exits during start-up: the run must fail, not wait
    monkeypatch.setattr(nilpotence, "_worker_init", _die)
    rs = build_root_system("A6")
    started = time.monotonic()
    with pytest.raises(BrokenProcessPool):
        class_distribution(rs, workers=2)
    assert time.monotonic() - started < 5
    assert main(["table", "--type", "A6", "--workers", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert time.monotonic() - started < 10


def test_resolve_workers(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setenv("ADNIL_WORKERS", "3")
    assert resolve_workers(None) == 3
    assert resolve_workers(2) == 2
    for bad in (0, -3):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(bad)
    for bad in ("abc", "0", "-2", "1.5"):
        monkeypatch.setenv("ADNIL_WORKERS", bad)
        with pytest.raises(ValueError, match="ADNIL_WORKERS"):
            resolve_workers(None)
    monkeypatch.delenv("ADNIL_WORKERS")
    assert resolve_workers(None) >= 1
    if hasattr(os, "sched_getaffinity"):
        assert resolve_workers(None) == len(os.sched_getaffinity(0))


def test_joint_histogram_marginals() -> None:
    rs = build_root_system("C3")
    joint = joint_histogram(rs)
    by_class: dict[int, int] = {}
    for (_, k), c in joint.items():
        by_class[k] = by_class.get(k, 0) + c
    assert by_class == class_distribution(rs, workers=1)
    assert sum(joint.values()) == 20
    # one full-dimensional ideal of maximal class, one empty of class 0
    assert joint[(0, 0)] == 1
    assert joint[(9, 5)] == 1
