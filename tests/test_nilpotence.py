from __future__ import annotations

import concurrent.futures
import math
import multiprocessing
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from functools import cache
from itertools import islice, product
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
    single_ray_class,
    staircase_filling,
    symmetric_completion,
    two_ray_classify,
    upward_ray_bound,
    zigzag_class,
)
from adnil import nilpotence
from adnil.checks import SMALL_TYPES, suite_agreement
from adnil.cli import main
from adnil.ideals import (
    block_length, block_masks, enumerate_ideal_masks, partition_seeds, record_width, root_state,
    walk,
)
from adnil.nilpotence import (
    BUDGET_BLOCK,
    POOL_GROUPS_PER_WORKER,
    POOL_MIN_IDEALS,
    ROUTES,
    block_classes,
    block_columns,
    block_lanes,
    budget_deadline,
    classified_blocks,
    ideal_rows,
    resolve_workers,
)
from adnil.refdata import EXCEPTIONAL_CLASS_COUNTS
from adnil.rootsys import total_count_formula


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
    assert classify_ideal(rs, 0) == 0
    assert classify_ideal(rs, 7) == 2
    # bracketing the two simple roots reaches the highest root
    assert classify_ideal(rs, 1) == 1
    assert list(block_classes(rs, [0, 7, 1])) == [0, 2, 1]
    assert block_classes(rs, []) == b""


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


def _walked(rs, seeds=None) -> list[int]:
    """Every ideal mask below `seeds`, by default of the type, in the
    walk's order."""
    blocks = walk(rs, seeds or [root_state(rs)], BUDGET_BLOCK)
    return [mask for block in blocks for mask in block_masks(rs, block)]


def _classified(rs, method: str = "oracle") -> tuple[list[int], list[int]]:
    """Every ideal mask of the type in the walk's order, and its class by
    `method`, from `classified_blocks`."""
    masks: list[int] = []
    classes: list[int] = []
    for block, part in classified_blocks(rs, method):
        masks += block_masks(rs, block)
        classes += part
    return masks, classes


@pytest.mark.parametrize("label", SMALL_TYPES)
def test_oracle_matches_bracket_iteration(label: str) -> None:
    # every ideal of the type in one block, every range of the pool's
    # split in its own, and every state of the split in its own
    rs = build_root_system(label)
    masks = _walked(rs)
    want = {mask: bracket_class(rs.positive_roots, mask) for mask in masks}
    assert list(block_classes(rs, masks)) == list(want.values())
    for group in partition_seeds(rs, 8):
        block = _walked(rs, group)
        assert list(block_classes(rs, block)) == [want[mask] for mask in block], group
        for seed in group:
            block = _walked(rs, [seed])
            assert list(block_classes(rs, block)) == [want[mask] for mask in block], seed
    assert class_distribution(rs, workers=1) == dict(sorted(Counter(want.values()).items()))


@pytest.mark.parametrize("label", SMALL_TYPES)
def test_block_oracle_matches_per_ideal_oracle(label: str) -> None:
    # an ideal alone in a block of one (`classify_ideal`) gets the class
    # it gets beside every other ideal of the type: no lane leaks
    rs = build_root_system(label)
    masks = _walked(rs)
    assert [classify_ideal(rs, mask) for mask in masks] == list(block_classes(rs, masks))


def test_root_seed_histogram_spans_two_blocks() -> None:
    rs = build_root_system("A8")  # 4862 ideals
    blocks = list(walk(rs, [root_state(rs)], BUDGET_BLOCK))
    assert [block_length(rs, block) for block in blocks] == [BUDGET_BLOCK, 4862 - BUDGET_BLOCK]
    assert [block for block, _ in classified_blocks(rs)] == blocks
    want = [bracket_class(rs.positive_roots, mask) for mask in _walked(rs)]
    assert _classified(rs) == (_walked(rs), want)
    parts = [Counter(classes) for _, classes in classified_blocks(rs, "oracle", math.inf)]
    assert [part.total() for part in parts] == [BUDGET_BLOCK, 4862 - BUDGET_BLOCK]
    assert sum(parts, Counter()) == Counter(want)


def _non_ideal(rs) -> int:
    """The simple roots alone: no ideal, since it misses the highest root."""
    return sum(1 << rs.positive_roots.index(r) for r in rs.simple_roots)


def test_oracle_guard_rejects_non_ideal() -> None:
    # the two simple roots of A2 without their sum, the highest root
    rs = build_root_system("A2")
    with pytest.raises(AssertionError, match="highest root"):
        classify_ideal(rs, _non_ideal(rs))


def test_block_guard_rejects_non_ideal() -> None:
    # the same root set beside genuine ideals fails the whole block
    rs = build_root_system("A2")
    assert list(block_classes(rs, [0, 1, 3])) == [0, 1, 1]
    with pytest.raises(AssertionError, match="highest root"):
        block_classes(rs, [0, 1, 3, _non_ideal(rs)])
    # a mask with a bit past the roots is no root set at all
    for mask in (-1, 1 << len(rs)):
        with pytest.raises(ValueError, match="no set of roots"):
            block_classes(rs, [0, mask])


def test_oracle_guard_survives_optimize() -> None:
    # a child under -O drops every bare assert; both guards must still raise
    src = str(Path(adnil.__file__).resolve().parents[1])
    code = (
        "from adnil import build_root_system, classify_ideal\n"
        "from adnil.nilpotence import block_classes\n"
        "rs = build_root_system('A2')\n"
        "mask = sum(1 << rs.positive_roots.index(r) for r in rs.simple_roots)\n"
        "for check in (lambda: classify_ideal(rs, mask),\n"
        "              lambda: block_classes(rs, [0, 1, 3, mask])):\n"
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


def rows_by_roots(rs, masks: list[int]) -> list[tuple[int, ...]]:
    """Reference: how many roots of each staircase row each mask holds, a
    root's row being its first simple root with a nonzero coefficient (in
    type D only alpha_1..alpha_{n-1} count, and alpha_n alone is in row n-1)."""
    last = rs.lie_type.rank - (rs.lie_type.family == "D")
    row_of = [next((i for i in range(last) if r[i]), last - 1) for r in rs.positive_roots]
    row_masks = [sum(1 << k for k, i in enumerate(row_of) if i == row) for row in range(last)]
    return [tuple((mask & row_mask).bit_count() for row_mask in row_masks) for mask in masks]


def shifted_cells(rs) -> list[tuple[int, int]]:
    """(row, column) of each bit of a shifted staircase (B, C, D), 1-based:
    row i holds columns i, i+1, ..."""
    return [(i, j) for i, (_, width) in enumerate(rs.rows, 1) for j in range(i, i + width)]


@pytest.mark.parametrize(
    "label", [label for label in SMALL_TYPES if label[0] in "ABCD"] + ["A10", "B8", "C8", "D8"]
)
def test_block_rows_count_the_cells_of_each_row(label: str) -> None:
    # every ideal of the type, in blocks of 4096: each row's length lanes,
    # the sums of its cells' lanes, and `ideal_rows` (a block of one) on a
    # spread of the ideals
    rs = build_root_system(label)
    masks = _walked(rs)
    want = rows_by_roots(rs, masks)
    got = []
    for block in walk(rs, [root_state(rs)], BUDGET_BLOCK):
        rows = [sum(cells) for cells in nilpotence._block_cells(rs, block)]
        got += zip(*[lanes.to_bytes(block_length(rs, block), "little") for lanes in rows])
    assert got == want
    step = max(1, len(masks) // 500)
    for mask, rows in zip(masks[::step], want[::step]):
        assert ideal_rows(rs, mask) == tuple(filter(None, rows)), mask


def _mixed_fork(rs) -> int:
    """A type-D mask whose rows 1 and 2 hold different fork columns: row 1
    columns 1..n-1, row 2 columns 2..n-2 and n.  Each row alone is the
    row of an ideal; together they are none, as root (2, n) lacks its
    cover (1, n)."""
    n = rs.lie_type.rank
    held = {(1, j) for j in range(1, n)} | {(2, j) for j in range(2, n - 1)} | {(2, n)}
    return sum(1 << k for k, cell in enumerate(shifted_cells(rs)) if cell in held)


def test_diagram_routes_reject_non_ideal() -> None:
    # the simple roots alone, every root of A3 but the highest, and D5
    # rows that disagree on their fork column
    cases = []
    for label in ("A2", "B3", "C3", "D4"):
        rs = build_root_system(label)
        cases.append((rs, _non_ideal(rs)))
    rs = build_root_system("A3")
    cases.append((rs, (1 << len(rs)) - 1 ^ 1 << rs.highest_index))
    rs = build_root_system("D5")
    cases.append((rs, _mixed_fork(rs)))
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


def test_filling_route_matches_oracle_in_blocks() -> None:
    # every ideal of A1..A9 in blocks of 4096; A8 and A9 end on a partial block
    filling = ROUTES["filling"][1]
    for n in range(1, 10):
        rs = build_root_system(f"A{n}")
        for block in walk(rs, [root_state(rs)], BUDGET_BLOCK):
            assert filling(rs, block) == block_classes(rs, block), (n, len(block))


@pytest.mark.parametrize(
    "method, label",
    [
        (method, label)
        for label in ("A8", "B6", "C6", "D6")
        for method, (families, _) in ROUTES.items()
        if method != "oracle" and label[0] in families
    ],
)
def test_diagram_routes_reject_non_ideal_mid_block(method: str, label: str) -> None:
    # one non-ideal among 4095 ideals fails the block, and is named; with a
    # second one later in the block, the first is named
    rs = build_root_system(label)
    ideals = _walked(rs)
    block = [ideals[b % len(ideals)] for b in range(BUDGET_BLOCK)]
    bads = [(1 << len(rs)) - 1 ^ 1 << rs.highest_index]  # every root but the highest
    if rs.lie_type.family == "D":
        bads.append(_mixed_fork(rs))
    for bad in bads:
        block[BUDGET_BLOCK // 2] = bad
        block[-1] = _non_ideal(rs)
        with pytest.raises(ValueError, match=f"^mask {bad} is not an ideal of {label}$"):
            ROUTES[method][1](rs, block)


def test_filling_route_accepts_exactly_the_ideals() -> None:
    # every mask of A4 alone in a block, and all of its ideals in one block
    rs = build_root_system("A4")
    ideals = set(enumerate_ideal_masks(rs))
    for mask in range(1 << len(rs)):
        if mask in ideals:
            assert classify_ideal(rs, mask, "filling") == block_classes(rs, [mask])[0]
        else:
            with pytest.raises(ValueError, match="not an ideal"):
                classify_ideal(rs, mask, "filling")
    assert ROUTES["filling"][1](rs, sorted(ideals)) == block_classes(rs, sorted(ideals))


@pytest.mark.parametrize("method", list(ROUTES))
def test_block_routes_refuse_masks_outside_the_roots(method: str) -> None:
    rs = build_root_system(f"{ROUTES[method][0][0]}3")  # rank 3 of its first family
    for mask in (-1, 1 << len(rs)):
        with pytest.raises(ValueError, match="no set of roots"):
            ROUTES[method][1](rs, [0, mask])


@pytest.mark.parametrize("count", [1, BUDGET_BLOCK - 1, BUDGET_BLOCK])
def test_block_columns_transpose_the_masks(count: int) -> None:
    # checked bit by bit, apart from the routes that read the columns: A1
    # has 1 root, D8 56 (its last mask byte is partial), B8 64 (exactly 8
    # bytes), E8 120 (15 bytes); the full ideal, last in every block and
    # alone in a block of one, sets the top root's bit
    for label in ("A1", "B8", "D8", "E8"):
        rs = build_root_system(label)
        full = (1 << len(rs)) - 1
        block = [*random.Random(count).choices(_walked(rs), k=count - 1), full]
        columns = block_columns(rs, block)
        assert len(columns) == len(rs)
        for k, column in enumerate(columns):
            assert column >> count == 0
            assert [column >> b & 1 for b in range(count)] == [mask >> k & 1 for mask in block]
        assert columns[-1] >> count - 1 == 1
        message = f"^a mask of the block is no set of roots of {label}$"
        for mask in (-1, 1 << len(rs)):
            with pytest.raises(ValueError, match=message):
                block_columns(rs, [*block, mask])


@pytest.mark.parametrize("label", ["A10", "B8", "E8"])
@pytest.mark.parametrize("count", [1, BUDGET_BLOCK - 1, BUDGET_BLOCK])
def test_block_lanes_transpose_the_masks(label: str, count: int) -> None:
    # checked byte by byte, apart from the routes that read the lanes: A10
    # has 55 roots (its last mask byte is partial), B8 64 (whole bytes), E8 120
    rs = build_root_system(label)
    block = random.Random(count).sample(_walked(rs), count)
    lanes = block_lanes(rs, block)
    assert len(lanes) == len(rs)
    for k, lane in enumerate(lanes):
        assert lane.to_bytes(count, "little") == bytes(mask >> k & 1 for mask in block)
    message = f"^a mask of the block is no set of roots of {label}$"
    for mask in (-1, 1 << len(rs)):
        with pytest.raises(ValueError, match=message):
            block_lanes(rs, [*block, mask])


def _records(masks, width: int) -> bytearray:
    return bytearray(b"".join(mask.to_bytes(width, "little") for mask in masks))


@pytest.mark.parametrize("label, masks", [
    ("A10", (1 << 55, 1 << 63, -1)),  # 55 roots in 7 bytes: bit 55 is in the record, past the roots
    ("B8", (1 << 64, -1)),  # 64 roots: the next bit needs a ninth byte
    ("A11", (1 << 66, 1 << 71, 1 << 72, -1)),  # 66 roots in 9 bytes: bits 66 to 71 lie in the last
])
def test_masks_past_the_roots_are_refused_in_lists_and_arrays(
    label: str, masks: tuple[int, ...],
) -> None:
    # a list of ints is refused by its range before it is packed, and a
    # bytearray of records by a byte past the roots in its last column;
    # records hold only the masks that fit their width
    rs = build_root_system(label)
    width = record_width(rs)
    ideals = _walked(rs)[:100]
    message = f"^a mask of the block is no set of roots of {label}$"
    for mask in masks:
        blocks = [[*ideals, mask]]
        if 0 <= mask < 1 << 8 * width:
            blocks.append(_records(blocks[0], width))
        for block in blocks:
            for transpose in (block_lanes, block_columns, block_classes):
                with pytest.raises(ValueError, match=message):
                    transpose(rs, block)
        with pytest.raises(ValueError, match=message):
            ROUTES["filling" if label[0] == "A" else "completion"][1](rs, [mask, *ideals])


@pytest.mark.parametrize("label", ["E7", "B8", "A11", "E8"])
def test_transpositions_of_a_list_and_an_array_block_agree(label: str) -> None:
    # a list of ints and the bytearray of its records, 8 bytes wide for E7
    # and B8 (63 and 64 roots), 9 for A11 and 15 for E8 (66 and 120 roots):
    # random root sets, and the walk's first blocks read back as lists
    rs = build_root_system(label)
    width = record_width(rs)
    rng = random.Random(len(rs))
    low = [0, *(rng.getrandbits(len(rs)) for _ in range(BUDGET_BLOCK - 2)), (1 << len(rs)) - 1]
    pairs = [(_records(masks, width), masks) for masks in (low[:1], low[:7], low)]
    pairs += [(block, block_masks(rs, block))
              for block in islice(walk(rs, [root_state(rs)], BUDGET_BLOCK), 3)]
    for block, masks in pairs:
        for transpose in (block_lanes, block_columns):
            assert transpose(rs, block) == transpose(rs, masks)


@pytest.mark.parametrize(
    "method, label",
    [
        (method, label)
        for label in ("A8", "B6", "C6", "D6")
        for method, (families, _) in ROUTES.items()
        if method != "oracle" and label[0] in families
    ],
)
@pytest.mark.parametrize("index", [1, BUDGET_BLOCK - 1])
def test_diagram_routes_name_a_lone_non_ideal(method: str, label: str, index: int) -> None:
    # the lowest bad bit lies in byte `index` of the lanes, so `>> 3` must
    # name the mask at `index`, both next to the first lane and in the last
    rs = build_root_system(label)
    ideals = _walked(rs)
    block = [ideals[b % len(ideals)] for b in range(BUDGET_BLOCK)]
    bad = _non_ideal(rs)
    block[index] = bad
    with pytest.raises(ValueError, match=f"^mask {bad} is not an ideal of {label}$"):
        ROUTES[method][1](rs, block)


def _truncations_by_rows(lam: tuple[int, ...], n: int) -> int:
    """Reference: truncation steps of one diagram, dropping rows in turn."""
    steps = 0
    while lam and lam[0]:
        lam = lam[n + 1 - lam[0] :]
        n = len(lam)
        steps += 1
    return steps


def _zigzag_by_rows(lam: tuple[int, ...], n: int) -> int:
    """Reference: diagonal touchings of one diagram's broken ray, step by step."""
    col, touches = (lam[0] if lam else 0), 0
    while col > 0:
        touches += 1
        col = lam[n + 1 - col] if col >= 2 else 0
    return touches


def staircase_partitions(n: int) -> list[tuple[int, ...]]:
    """Every partition inside the n-staircase, as its n row lengths."""
    parts = [()]
    for s in range(n):  # row s+1 is at most n-s and at most the row above
        parts = [p + (v,) for p in parts for v in range(min(n - s, p[-1] if p else n) + 1)]
    return parts


def test_lane_walks_match_the_walks_by_rows() -> None:
    # every partition of the 8-staircase (a Catalan number of them) in one block
    n = 8
    parts = staircase_partitions(n)
    assert len(parts) == math.comb(2 * n + 2, n + 1) // (n + 2)
    rows = [int.from_bytes(bytes(p[s] for p in parts), "little") for s in range(n)]
    truncations = nilpotence._block_truncations(rows, n, len(parts))
    touches = nilpotence._zigzag_classes(rows, n, len(parts))
    for lam, steps, touched in zip(parts, truncations, touches):
        assert steps == _truncations_by_rows(lam, n) == nilpotence_from_partition(lam, n), lam
        assert touched == _zigzag_by_rows(lam, n) == zigzag_class(lam, n), lam


def _single_ray_by_rows(parts: tuple[int, ...], n: int) -> int:
    """Reference: the class of a type-C diagram, its ray walked row by row."""
    if not parts or parts[0] == 0:
        return 0
    col = parts[0]
    k = 0
    while True:
        if col <= n:
            return 2 * k + 1
        k += 1
        row = 2 * n - col + 1
        a = parts[row - 1] if row <= len(parts) else 0
        if a == 0:
            return 2 * k
        col = 2 * n - col + a


def _bounce_ray_by_rows(parts: tuple[int, ...], col: int, mirror: int) -> tuple[bool, int, int]:
    """Reference: one ray off x+y=mirror walked row by row, stopping on the
    line x=y-1: whether it stops mid-drop, the stop's x, the touchings."""
    touches = 0
    while True:
        if 2 * col <= mirror - 1:
            return True, col, touches
        touches += 1
        row = mirror - col + 1
        a = parts[row - 1] if row <= len(parts) else 0
        if a == 0:
            return False, mirror - col - 1, touches
        col = mirror - col + a


def _two_rays_by_rows(parts: tuple[int, ...], mirror: int) -> tuple[int, int, int]:
    """Reference: (case, touch count, class) of the two rays, row by row."""
    if len(parts) < 2 or not parts[1]:  # at most one row: abelian
        return (0, 0, 1) if parts and parts[0] else (0, 0, 0)
    down1, t1, k1 = _bounce_ray_by_rows(parts, parts[0], mirror)
    down2, t2, k2 = _bounce_ray_by_rows(parts, parts[1] + 1, mirror)
    if not down2:
        if not down1 and t1 >= t2 and k1 == k2 + 1 or down1 and t1 > t2:
            return 1, k2, 2 * k2 + 1
        if down1 and t1 <= t2:
            return 2, k2, 2 * k2
        if not down1 and t1 <= t2 and k1 == k2:
            return 7, k2, 2 * k2
    else:
        if not down1 and t1 < t2:
            return 3, k1, 2 * k1
        if down1 and t1 <= t2 and k1 == k2 + 1:
            return 4, k1, 2 * k1
        if not down1 and t1 >= t2:
            return 5, k1, 2 * k1 - 1
        if down1 and t1 >= t2 and k1 == k2:
            return 6, k1, 2 * k1 + 1
    raise AssertionError(f"unclassifiable ray data {parts}")


def shifted_partitions(family: str, n: int) -> list[tuple[int, ...]]:
    """Every shifted diagram of the B, C or D n-staircase (row r at most
    size - 2r + 2 cells, strictly decreasing down to the empty rows), as
    its n row lengths."""
    size = 2 * n - 1 if family in "BC" else 2 * n - 2
    parts = [()]
    for s in range(n):  # row s+1 is at most size - 2s, and shorter than a nonempty row above
        parts = [
            p + (v,) for p in parts
            for v in range(min(size - 2 * s, max(p[-1] - 1, 0) if p else size) + 1)
        ]
    return parts


@pytest.mark.parametrize("family", "CBD")
def test_ray_lane_walks_match_the_walks_by_rows(family: str) -> None:
    # every shifted diagram of the rank-6 staircase in one block: C(12, 6)
    # in types B and C, C(11, 6) in type D; the two rays' cases and touch
    # counts too
    n = 6
    parts = shifted_partitions(family, n)
    assert len(parts) == math.comb(2 * n - (family == "D"), n)
    rows = [int.from_bytes(bytes(p[s] for p in parts), "little") for s in range(n)]
    if family == "C":
        classes = nilpotence._single_ray_classes(rows, n, len(parts))
        for lam, got in zip(parts, classes):
            assert got == _single_ray_by_rows(lam, n) == single_ray_class(lam, n), lam
        return
    mirror = 2 * n - (family == "D")
    results = nilpotence._two_ray_results(rows, n, len(parts), family)
    cases = set()
    for lam, got in zip(parts, results):
        assert got == _two_rays_by_rows(lam, mirror) == two_ray_classify(lam, n, family), lam
        cases.add(got[0])
    assert cases == set(range(8))


@pytest.mark.parametrize("lane_walk", ["_block_truncations", "_broken_ray"])
def test_lane_walks_refuse_rows_past_the_staircase(lane_walk: str) -> None:
    # two diagrams in the 3-staircase; the second one's row 2 has 3 cells,
    # one more than the staircase row.  Raised explicitly, so also under -O
    rows = [int.from_bytes(bytes(lengths), "little") for lengths in ((2, 3), (1, 3), (0, 0))]
    with pytest.raises(AssertionError, match="longer than row 2 of its staircase"):
        if lane_walk == "_block_truncations":
            nilpotence._block_truncations(rows, 3, 2)
        else:
            nilpotence._broken_ray(rows, 0, 4, 0, False, 2)
    if lane_walk == "_broken_ray":
        # shifted rows of 3 and 2 cells off x+y=4, where row 2 has 1 cell:
        # unchecked, the ray would bounce from column 3 back to column 3
        with pytest.raises(AssertionError, match="longer than row 2 of its staircase"):
            nilpotence._broken_ray([3, 2], 0, 4, 2, True, 1)


def test_lane_walks_refuse_staircases_wider_than_lanes() -> None:
    # row lengths up to n in byte lanes: n = 255 is the largest staircase
    for walk_one in (nilpotence_from_partition, zigzag_class):
        assert walk_one((), 255) == 0
        assert walk_one((255,), 255) == 1
        with pytest.raises(ValueError, match="do not fit in byte lanes"):
            walk_one((), 256)


@pytest.mark.parametrize(
    "method, label",
    [
        (method, label)
        for label in ("A7", "B5", "C5", "D5")
        for method in ("zigzag", "recursion", "filling", "completion", "ray", "tworay")
        if label[0] in ROUTES[method][0]
    ],
)
def test_lane_routes_agree_on_a_block_and_on_blocks_of_one(method: str, label: str) -> None:
    # every ideal of the type in one block, each alone, and each through
    # the per-diagram function on its rows; the completion's rows too
    rs = build_root_system(label)
    family, n = rs.lie_type.family, rs.lie_type.rank
    ideals = _walked(rs)
    route = ROUTES[method][1]
    classes = route(rs, ideals)
    assert list(classes) == [route(rs, [ideal])[0] for ideal in ideals]
    if method == "completion":
        cells = [cell for row in nilpotence._block_cells(rs, ideals) for cell in row]
        lanes = nilpotence._block_completion(cells, family, n)
        completed = zip(*[lane.to_bytes(len(ideals), "little") for lane in lanes])
    for ideal, got in zip(ideals, classes):
        rows = ideal_rows(rs, ideal)
        if method == "completion":
            size = 2 * n - 1 if family in "BC" else 2 * n - 2
            lam = symmetric_completion(rows, family, n)
            assert next(completed) == lam + (0,) * (size - len(lam)), rows
            want = nilpotence_from_partition(lam, size)
        elif method == "filling":
            want = staircase_filling(rows, n)[0][0]
        elif method == "recursion":
            want = nilpotence_from_partition(rows, n)
        elif method == "ray":
            want = single_ray_class(rows, n)
        elif method == "tworay":
            want = two_ray_classify(rows, n, family).nilpotence
        else:
            want = zigzag_class(rows, n)
        assert got == want, rows


def test_staircase_filling_refuses_entries_wider_than_lanes() -> None:
    # entries up to n in 7-bit lanes: n = 127 is the largest staircase
    with pytest.raises(ValueError, match="7-bit lanes"):
        staircase_filling((), 200)
    assert staircase_filling((), 127)[0][0] == 0


def test_type_a_methods_agree_with_oracle() -> None:
    for n in range(1, 6):
        rs = build_root_system(f"A{n}")
        masks = _walked(rs)
        want = list(block_classes(rs, masks))
        for method in ("filling", "recursion", "zigzag"):
            assert _classified(rs, method) == (masks, want), (n, method)


def test_completion_agrees_with_oracle() -> None:
    # every ideal of B/C/D 2-7, in blocks of 4096
    for family, n in product("BCD", range(2, 8)):
        rs = build_root_system(f"{family}{n}")
        masks, got = _classified(rs, "completion")
        assert got == list(block_classes(rs, masks)), rs


def test_completion_guard_survives_optimize() -> None:
    # a child under -O drops every bare assert; the Ferrers guard of the
    # completion must still raise
    src = str(Path(adnil.__file__).resolve().parents[1])
    code = (
        "from adnil import symmetric_completion\n"
        "try:\n"
        "    symmetric_completion((1, 3), 'C', 3)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "completion is not a Ferrers diagram\n"


def test_ray_methods_agree_with_oracle() -> None:
    for method, labels in [
        ("ray", ["C2", "C3", "C4", "C5"]),
        ("tworay", ["B2", "B3", "B4", "D3", "D4", "D5"]),
    ]:
        for label in labels:
            rs = build_root_system(label)
            masks, got = _classified(rs, method)
            assert got == list(block_classes(rs, masks)), label


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
    # empty rows past the last change nothing
    assert two_ray_classify((3, 1, 0), 2, "B") == two_ray_classify((3, 1), 2, "B") == (1, 1, 3)


@pytest.mark.parametrize(
    "parts, n, message",
    [
        ((3, 3), 4, "not strictly decreasing"),
        ((3, 0, 1), 4, "not strictly decreasing"),
        ((6,), 3, "does not fit"),  # 5 cells in types B and C, 4 in D
        ((5, 4), 3, "does not fit"),  # row 2: 3 cells in B and C, 2 in D
        ((2, 1, 0, 1), 3, "more than 3 rows"),
        ((), 129, "byte lanes"),  # columns up to 2n-1 in B and C, 2n-2 in D
    ],
    ids=["equal", "gap", "long-row-1", "long-row-2", "rows", "rank"],
)
def test_ray_walks_refuse_diagrams_outside_the_staircase(
    parts: tuple[int, ...], n: int, message: str
) -> None:
    for walk_one in (
        lambda: single_ray_class(parts, n),
        lambda: two_ray_classify(parts, n, "B"),
        lambda: two_ray_classify(parts, n, "D"),
    ):
        with pytest.raises(ValueError, match=message):
            walk_one()


def test_ray_walks_fit_rank_128_in_byte_lanes() -> None:
    # the largest rank whose columns, up to 2n-1, fit in a byte
    assert single_ray_class((), 128) == 0
    assert single_ray_class((255,), 128) == 2 == _single_ray_by_rows((255,), 128)
    for family in "BD":
        mirror = 256 - (family == "D")
        assert two_ray_classify((mirror - 1, 1), 128, family) == _two_rays_by_rows(
            (mirror - 1, 1), mirror
        )


def test_ray_guards_survive_optimize() -> None:
    # a child under -O drops every bare assert; the walks' refusals must
    # still raise, and the lane walk still refuses a row past its staircase
    src = str(Path(adnil.__file__).resolve().parents[1])
    code = (
        "from adnil import single_ray_class, two_ray_classify\n"
        "from adnil.nilpotence import _broken_ray\n"
        "for check in (lambda: single_ray_class((3, 3), 3),\n"
        "              lambda: two_ray_classify((6,), 3, 'D'),\n"
        "              lambda: two_ray_classify((), 129, 'B'),\n"
        "              lambda: _broken_ray([3, 2], 0, 4, 2, True, 1)):\n"
        "    try:\n"
        "        check()\n"
        "    except (ValueError, AssertionError) as exc:\n"
        "        print(type(exc).__name__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ValueError\nValueError\nValueError\nAssertionError\n"


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


def test_symmetric_completion_refuses_rows_wider_than_lanes() -> None:
    # completed rows of up to 2n-1 cells in byte lanes: n = 128 is the largest rank
    assert symmetric_completion((255,), "C", 128) == (255,) + (1,) * 254
    with pytest.raises(ValueError, match="byte lanes"):
        symmetric_completion((), "C", 129)


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
            for k, (i, j) in enumerate(shifted_cells(rs)):
                if mask >> k & 1:
                    rows.setdefault(i, set()).add(j)
            forked += any(n in cols and n - 1 not in cols for cols in rows.values())
        if rs.lie_type.family == "D":
            assert forked > 0, "some D ideal holds fork column n without n-1"


def test_upward_ray_is_class_rounded_up_to_even() -> None:
    for label in ["C2", "C3", "C4", "C5"]:
        rs = build_root_system(label)
        n = rs.lie_type.rank
        masks = enumerate_ideal_masks(rs)
        for mask, k in zip(masks, block_classes(rs, masks)):
            assert upward_ray_bound(ideal_rows(rs, mask), n) == k + (k % 2)


@pytest.mark.parametrize(
    "parts, n, message",
    [
        ((9,), 2, "does not fit"),
        ((3, 3), 2, "does not fit"),  # row 2 holds 1 cell in C2
        ((1, 0, 3), 2, "more than 2 rows"),  # not read as the diagram (1, 3)
        ((2, 2), 3, "not strictly decreasing"),
        ((1, 0, 1), 3, "not strictly decreasing"),
    ],
)
def test_upward_ray_refuses_what_the_single_ray_refuses(
    parts: tuple[int, ...], n: int, message: str
) -> None:
    for walk_one in (lambda: upward_ray_bound(parts, n), lambda: single_ray_class(parts, n)):
        with pytest.raises(ValueError, match=message):
            walk_one()


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
    # a family is one letter, not a substring of the letters a route takes
    for family in ("", "BD", "C"):
        with pytest.raises(ValueError, match="types B and D"):
            two_ray_classify((3, 1), 3, family)
    for family in ("", "BC", "A"):
        with pytest.raises(ValueError, match="no completion"):
            symmetric_completion((3, 1), family, 3)


def test_parallel_distribution_matches_serial() -> None:
    # the pool takes ranges of the walk's ascending order: cover
    # every classical family, on types of two full blocks or more, so
    # that a real pool of 2 runs
    for label in ("A9", "B8", "C8", "D8"):
        rs = build_root_system(label)
        assert resolve_workers(2, total_count_formula(rs)) == 2, label
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
        list(classified_blocks(rs, "oracle", started + 0.05))
    assert time.monotonic() - started < 1.5


def test_budget_expiring_inside_a_block_stops_the_next(monkeypatch: pytest.MonkeyPatch) -> None:
    # the first block outlives the deadline; the clock check before the
    # second block raises, and no second block is classified
    rs = build_root_system("A8")  # two blocks
    deadline = time.monotonic() + 0.3
    classified = []

    def slow_block(rs, ideals):
        classified.append(block_length(rs, ideals))
        while time.monotonic() <= deadline:
            time.sleep(0.01)
        return block_classes(rs, ideals)

    monkeypatch.setitem(nilpotence.ROUTES, "oracle", (nilpotence.FAMILIES, slow_block))
    with pytest.raises(TimeoutError):
        list(classified_blocks(rs, "oracle", deadline))
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


@pytest.fixture
def inline_pool(monkeypatch: pytest.MonkeyPatch) -> dict[str, list]:
    """A stand-in executor that runs each task in this process and records
    its size and its tasks, so no request starts a real process, however
    large."""
    record: dict[str, list] = {"sizes": [], "tasks": []}

    class InlineExecutor:
        def __init__(self, max_workers: int, initializer, initargs: tuple) -> None:
            record["sizes"].append(max_workers)
            initializer(*initargs)

        def submit(self, func, *args) -> Future:
            record["tasks"].append(args)
            future: Future = Future()
            future.set_result(func(*args))
            return future

        def shutdown(self, cancel_futures: bool) -> None:
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    monkeypatch.setattr(nilpotence, "_WORKER_STATE", None)
    return record


def test_pool_groups_are_capped_at_the_ideal_count(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture, inline_pool: dict
) -> None:
    # blocks of one ideal, so that A4's block cap is 42 processes; their
    # 4 x 42 ranges leave 42 non-empty, one ideal each, one per process
    monkeypatch.setattr(nilpotence, "BUDGET_BLOCK", 1)
    requested = inline_pool["sizes"]
    rs = build_root_system("A4")
    dist = {0: 1, 1: 15, 2: 18, 3: 7, 4: 1}
    assert resolve_workers(10**9, 42) == 42
    assert class_distribution(rs, workers=10**9) == dist
    monkeypatch.setenv("ADNIL_WORKERS", str(10**9))
    assert class_distribution(rs) == dist
    assert main(["table", "--type", "A4", "--workers", str(10**9)]) == 0
    assert capsys.readouterr().out == "K,count\n0,1\n1,15\n2,18\n3,7\n4,1\ntotal,42\n"
    assert requested == [42, 42, 42]
    groups = [group for group, in inline_pool["tasks"]]
    assert groups == 3 * partition_seeds(rs, 4 * 42)
    assert [len(_walked(rs, group)) for group in groups] == [1] * 3 * 42
    # a cap of one runs serially, with no pool at all
    assert class_distribution(rs, workers=1) == dist
    assert requested == [42, 42, 42]


def test_pool_starts_no_more_processes_than_full_blocks(
    monkeypatch: pytest.MonkeyPatch, inline_pool: dict
) -> None:
    # a process without a full block of 4096 ideals costs more to start
    # than it saves: every count is capped at the run's full blocks
    assert resolve_workers(2, 4095) == 1
    assert resolve_workers(2, 8192) == 2
    for label in ("E6", "E7"):  # 833 and 4160 ideals: serial at any count
        rs = build_root_system(label)
        serial = class_distribution(rs, workers=1)
        assert class_distribution(rs, workers=2) == serial
        assert class_distribution(rs, workers=10**9) == serial
        with monkeypatch.context() as env:
            env.setenv("ADNIL_WORKERS", "2")
            assert class_distribution(rs) == serial
    assert inline_pool["sizes"] == []
    for label, size in (("D8", 2), ("E8", 3)):  # 9438 and 25080 ideals: 2 and 6 blocks
        rs = build_root_system(label)
        inline_pool["sizes"].clear()
        assert class_distribution(rs, workers=3) == class_distribution(rs, workers=1)
        assert inline_pool["sizes"] == [size], label


def test_worker_runs_one_root_system_after_another(monkeypatch: pytest.MonkeyPatch) -> None:
    # one process runs a pool's groups for one root system, then for
    # others: no walk memo outlives its group, so each run gets its own
    # exact histogram
    monkeypatch.setattr(nilpotence, "_WORKER_STATE", None)
    for label in ("D8", "E6", "B8", "D8"):
        rs = build_root_system(label)
        nilpotence._worker_init(rs, "oracle", math.inf)
        hist = sum(map(nilpotence._worker_run, partition_seeds(rs, 3)), Counter())
        assert hist == Counter(class_distribution(rs, workers=1)), label


@pytest.mark.parametrize("workers", [1, 2])
def test_a_class_past_the_coxeter_number_is_not_dropped(
    monkeypatch: pytest.MonkeyPatch, inline_pool: dict, workers: int,
) -> None:
    # the histogram counts each class below the Coxeter number by
    # `bytes.count`; a route that returns one class at or past it (here the
    # last ideal of each block) leaves an ideal uncounted, which raises,
    # serially and in a pool's worker
    rs = build_root_system("D8")  # 9438 ideals, Coxeter number 14: 3 blocks, a pool of 2

    def past(rs, ideals):
        return block_classes(rs, ideals)[:-1] + bytes([rs.coxeter_number])

    monkeypatch.setitem(nilpotence.ROUTES, "oracle", (nilpotence.FAMILIES, past))
    message = "^the class counts of a block of D8 miss its size$"
    with pytest.raises(AssertionError, match=message):
        class_distribution(rs, workers=workers)
    assert inline_pool["sizes"] == ([2] if workers == 2 else [])


@pytest.mark.parametrize("label", ["A9", "B7", "C7", "D7", "E6", "A11"])
def test_every_route_returns_bytes_of_the_block_length(label: str) -> None:
    # random blocks of the walk's records (A11: 9-byte records), of
    # random lengths, and each block's classes agree with the oracle's
    rs = build_root_system(label)
    rng = random.Random(label)
    blocks = list(islice(walk(rs, [root_state(rs)], BUDGET_BLOCK), 4))
    for block in rng.sample(blocks, min(2, len(blocks))):
        count = block_length(rs, block)
        start = rng.randrange(count)
        width = record_width(rs)
        for part in (block, block[start * width:], block[start * width:(start + 1) * width]):
            want = block_classes(rs, part)
            assert type(want) is bytes and len(want) == block_length(rs, part)
            for method, (families, route) in ROUTES.items():
                if label[0] in families:
                    got = route(rs, part)
                    assert type(got) is bytes and got == want, method


def test_serial_run_classifies_full_blocks(monkeypatch: pytest.MonkeyPatch) -> None:
    # one chain over the whole walk: E8's 25080 ideals in 7 blocks, where
    # a block per seed made 122
    rs = build_root_system("E8")
    sizes = []

    def counted(rs, ideals):
        sizes.append(block_length(rs, ideals))
        return block_classes(rs, ideals)

    monkeypatch.setitem(nilpotence.ROUTES, "oracle", (nilpotence.FAMILIES, counted))
    assert sum(class_distribution(rs, workers=1).values()) == 25080
    assert sizes == [BUDGET_BLOCK] * 6 + [25080 - 6 * BUDGET_BLOCK]


def test_pool_takes_equal_range_groups(
    monkeypatch: pytest.MonkeyPatch, inline_pool: dict
) -> None:
    # 4 x workers tasks, the ranges of the ascending order with sizes
    # within one, on a pool of the capped worker count; A2 runs in blocks
    # of one ideal, so that its 5 ideals allow 3 processes and make 5
    # non-empty ranges of the 12, one ideal each
    for label, workers, k in (("E8", 2, 8), ("E8", 3, 12), ("A2", 3, 5)):
        if label == "A2":
            monkeypatch.setattr(nilpotence, "BUDGET_BLOCK", 1)
        rs = build_root_system(label)
        inline_pool["sizes"].clear()
        inline_pool["tasks"].clear()
        assert class_distribution(rs, workers=workers) == class_distribution(rs, workers=1)
        assert inline_pool["sizes"] == [workers]
        groups = [group for group, in inline_pool["tasks"]]
        assert groups == partition_seeds(rs, POOL_GROUPS_PER_WORKER * workers)
        walked = [_walked(rs, group) for group in groups]
        # the groups in order walk every ideal once, ascending
        assert [mask for masks in walked for mask in masks] == enumerate_ideal_masks(rs)
        sizes = [len(masks) for masks in walked]
        assert len(sizes) == k and max(sizes) - min(sizes) <= 1, (label, sizes)


@pytest.mark.parametrize("workers", [1, 2])
def test_progress_counts_ideals(workers: int) -> None:
    # serial parts are blocks, pooled parts are ranges; either way
    # the ideals done rise to the product formula's total.  E8 has 7
    # blocks, the last one partial, and pools at 2 workers
    rs = build_root_system("E8")
    calls = []
    class_distribution(rs, workers=workers, progress=lambda done, total: calls.append((done, total)))
    done = [d for d, _ in calls]
    assert all(a < b for a, b in zip(done, done[1:]))
    assert done[-1] == 25080 and {t for _, t in calls} == {25080}
    assert len(calls) == (7 if workers == 1 else POOL_GROUPS_PER_WORKER * workers)


def test_exceptional_rows_at_any_worker_count() -> None:
    # Table 1: the same rows at 1, 2 and 3 workers.  Only E8 (6 full
    # blocks) runs on real pools of 2 and 3; E6 and E7, under two blocks,
    # run serially at any count.  E8's 12 ranges at 3 workers hold 2090
    # ideals each
    for label in ("E6", "E7", "E8"):
        rs = build_root_system(label)
        want = EXCEPTIONAL_CLASS_COUNTS[label]
        for workers in (1, 2, 3):
            dist = class_distribution(rs, workers=workers)
            assert tuple(dist.get(k, 0) for k in range(max(dist) + 1)) == want, (label, workers)


def test_default_workers_stay_serial_below_the_pool_threshold(
    monkeypatch: pytest.MonkeyPatch, inline_pool: dict
) -> None:
    monkeypatch.delenv("ADNIL_WORKERS", raising=False)
    cores = resolve_workers(None)
    assert resolve_workers(None, POOL_MIN_IDEALS - 1) == 1
    assert resolve_workers(None, POOL_MIN_IDEALS) == min(cores, POOL_MIN_IDEALS // BUDGET_BLOCK)
    # an explicit count, or one from the environment, is an upper bound:
    # honoured up to the run's full blocks
    assert resolve_workers(2, 1) == 1
    assert resolve_workers(2, 2 * BUDGET_BLOCK) == 2
    rs = build_root_system("E8")  # 25080 ideals, 6 full blocks
    serial = class_distribution(rs, workers=1)
    assert class_distribution(rs) == serial
    assert inline_pool["sizes"] == []
    monkeypatch.setenv("ADNIL_WORKERS", "2")
    assert resolve_workers(None, 1) == 1
    assert resolve_workers(None, 25080) == 2
    assert class_distribution(rs) == serial
    assert inline_pool["sizes"] == [2]


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
    rs = build_root_system("D8")  # 2 full blocks: a pool of 2
    started = time.monotonic()
    with pytest.raises(BrokenProcessPool):
        class_distribution(rs, workers=2)
    assert time.monotonic() - started < 5
    assert main(["table", "--type", "D8", "--workers", "2"]) == 1
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


def test_joint_histogram_holds_one_block_at_a_time() -> None:
    # A10's 58786 masks, held at once, take about 2.3 MiB as a list of
    # ints; one block of them with its classes takes a small part of that
    rs = build_root_system("A10")
    tracemalloc.start()
    try:
        joint = joint_histogram(rs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(joint.values()) == 58786
    assert peak < 2 * 2**20, peak
