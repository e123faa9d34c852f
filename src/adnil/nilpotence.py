"""Class of nilpotence of an ad-nilpotent ideal, several ways.

The reference computation ("oracle", `block_classes`) follows the lower
central series of a whole block of ideals at once, bit-sliced: one int
per root holds one bit per ideal, and one sweep over the root sums
advances every ideal of the block by one stage.  The block goes in,
and its classes, counted in bit planes, come out through one 8x8
bit-matrix transpose by delta swaps (`_transpose8`).  Independent routes
recover the same number from diagram combinatorics: a staircase filling,
a truncation recursion, and broken-ray walks on (shifted) Ferrers
diagrams, which share one lane walk.  Types B, C and D are routed through
a symmetric completion of the shifted diagram.  Every route classifies a
block of ideals (`ROUTES`); `classify_ideal` asks for a block of one.
The diagram routes read a whole block in byte lanes (`block_lanes`: one
int per root, one byte per ideal), after one check over the root covers
that the block holds ideals only, and then run lane-wise on it.  A block
is the walk's records (`adnil.ideals`), or a list of masks, which the
oracle checks mask by mask; every route refuses a block holding a mask
that is no ideal, and returns its classes as one `bytes`, byte b the
class of ideal b.
"""
from __future__ import annotations

import math
import os
import time
from collections import Counter
from functools import cache, partial
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple

from .ideals import (
    BLOCK, Seed, block_bytes, block_length, block_masks, is_upward_closed, partition_seeds, walk,
)
from .rootsys import FAMILIES, RootSystem, total_count_formula

Partition = tuple[int, ...]

WORKER_ENV = "ADNIL_WORKERS"
BUDGET_MESSAGE = "class distribution exceeded its budget"
POOL_MIN_IDEALS = 100_000  # fewest ideals that the default worker count pools
POOL_GROUPS_PER_WORKER = 4  # pool tasks per worker, so that the workers finish close together


def _transpose8(xs: list[int], length: int) -> list[int]:
    """Transpose every 8x8 bit matrix of each int of `length` bytes (a
    multiple of 8), one matrix per 8-byte group, by three delta swaps
    (Warren, Hacker's Delight, 7-3): bit i of byte r goes to bit r of byte
    i.  The masks, built on each call, serve every int of the list.  The
    transpose is its own inverse."""
    groups = length >> 3
    masks = [(s, int.from_bytes(m.to_bytes(8, "little") * groups, "little"))
             for s, m in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
                          (28, 0x00000000F0F0F0F0))]
    out = []
    for x in xs:
        for s, m in masks:
            t = (x ^ x >> s) & m
            x ^= t ^ t << s
        out.append(x)
    return out


def block_columns(rs: RootSystem, ideals: bytes | list[int]) -> list[int]:
    """Transpose a block of ideal masks to one int per root: bit b of
    column k is set when ideal b holds root k.  Each mask-byte column is
    read once as an int, byte b from ideal b, and transposed in groups of
    8 ideals (`_transpose8`, a partial last group zero-padded); root k's
    column is then every eighth byte of its column's transpose, from byte
    k & 7.  A mask that is negative or wider than the roots raises
    ValueError."""
    data = block_bytes(rs, ideals)
    length = -(-len(data[0]) // 8) * 8
    columns = []
    for x in _transpose8([int.from_bytes(column, "big") for column in data], length):
        rows = x.to_bytes(length, "little")
        columns += [int.from_bytes(rows[i::8], "little") for i in range(8)]
    return columns[: len(rs)]


def block_lanes(rs: RootSystem, ideals: bytes | list[int]) -> list[int]:
    """Transpose a block of ideal masks to one int per root in byte
    lanes: byte b of lane k is 1 when ideal b holds root k, else 0.  Each
    mask byte column is read once as an int (big-endian, since the last
    ideal comes first), and lane k is column k >> 3 shifted by k & 7 and
    masked to the low bit of every byte.  A mask that is negative or wider
    than the roots raises ValueError."""
    data = block_bytes(rs, ideals)
    ones = int.from_bytes(b"\1" * len(data[0]), "big")
    columns = [int.from_bytes(column, "big") for column in data]
    return [columns[k >> 3] >> (k & 7) & ones for k in range(len(rs))]


def _plane_bytes(planes: list[int], count: int) -> bytes:
    """The `count` bytes held in up to 8 bit planes, bit p of byte b being
    bit b of `planes[p]`: plane p laid into byte p of every 8-byte group,
    and each group transposed (`_transpose8`)."""
    length = -(-count // 8) * 8
    groups = bytearray(length)
    for p, plane in enumerate(planes):
        groups[p::8] = plane.to_bytes(length >> 3, "little")
    [x] = _transpose8([int.from_bytes(groups, "little")], length)
    return x.to_bytes(length, "little")[:count]


def block_classes(rs: RootSystem, ideals: bytes | list[int]) -> bytes:
    """Class of nilpotence of each ideal of a block: the length of its
    lower central series I = I^1, I^{k+1} = [I^k, I], bit-sliced.

    The block is transposed to one int per root (`block_columns`).  Stage
    s holds per root the ideals whose I^s contains it; root k enters
    I^{s+1} when k = i + j with i in I^s and j in I, so one sweep over
    `rs.partners` advances the whole block one stage.  The union of stage
    s over the roots marks the ideals of class at least s, and these
    nested masks are added into a bit-sliced counter: plane p holds bit p
    of every ideal's class so far, the carry passed on by XOR and AND.  No
    class reaches the Coxeter number, at most 256, so 8 planes suffice;
    they are laid out as one byte per ideal at the end (`_plane_bytes`).
    That the highest root lies in every nonempty stage (it carries the
    largest depth) is checked at every stage, skipped for reducible D2,
    which has no highest root.  A list of masks is checked mask by mask
    (`ideals.is_upward_closed`) once it is transposed: one that is no ideal
    raises ValueError.  A block of the walk's records holds ideals only and
    is not checked."""
    if rs.coxeter_number > 256:  # no class exceeds the height of the highest root
        raise ValueError(f"classes of {rs.lie_type} do not fit in byte lanes")
    columns = block_columns(rs, ideals)
    if isinstance(ideals, list):
        for mask in ideals:
            if not is_upward_closed(rs, mask):
                raise ValueError(f"mask {mask} is not an ideal of {rs.lie_type}")
    size = len(rs)
    theta = rs.highest_index
    partners = rs.partners
    stage = columns
    planes: list[int] = []  # bit b of plane p is bit p of the class of ideal b so far
    while True:
        reached = 0
        for col in stage:
            reached |= col
        if not reached:
            return _plane_bytes(planes, block_length(rs, ideals))
        if theta is not None and reached & ~stage[theta]:
            raise AssertionError("the highest root does not carry the largest depth")
        carry = reached
        for p, plane in enumerate(planes):
            planes[p], carry = plane ^ carry, plane & carry
            if not carry:
                break
        else:
            planes.append(carry)
        nxt = [0] * size
        for i, deep in enumerate(stage):
            if deep:
                for j, k in partners[i]:
                    nxt[k] |= deep & columns[j]
        stage = nxt


# ---------------------------------------------------------------------------
# diagrams


def _block_cells(rs: RootSystem, ideals: bytes | list[int]) -> list[list[int]]:
    """The cells of each (shifted) staircase row of a block, one
    byte lane per cell (`block_lanes`), once the whole block is known to be
    ideals: a mask that holds a root without one of its covers raises
    ValueError naming the first such mask.  In type D the two fork cells of
    a row (columns n-1 and n, incomparable roots) are replaced by their OR
    and their AND, which turns each row of an ideal into a prefix (a lane
    holds only 0 or 1, so `&` and `|` act on it lane by lane)."""
    if rs.rows is None:
        raise ValueError("diagrams require type A, B, C or D")
    lanes = block_lanes(rs, ideals)
    bad = 0
    for lane, covers in zip(lanes, rs.covers):
        for up in covers:
            bad |= lane ^ (lane & lanes[up])  # lane & ~lanes[up], without a negative int
    if bad:
        mask = block_masks(rs, ideals)[(bad & -bad).bit_length() - 1 >> 3]
        raise ValueError(f"mask {mask} is not an ideal of {rs.lie_type}")
    rows = [lanes[first : first + width] for first, width in rs.rows]
    if rs.lie_type.family == "D":
        n = rs.lie_type.rank
        for i, cells in enumerate(rows, start=1):  # row i holds columns i..2n-i-1
            lo, hi = cells[n - 1 - i], cells[n - i]
            cells[n - 1 - i], cells[n - i] = lo | hi, lo & hi
    return rows


def ideal_rows(rs: RootSystem, ideal: int) -> Partition:
    """Row lengths of a classical ideal in its (shifted) staircase, empty
    rows dropped: the sums of its rows' cells (`_block_cells`) in a block
    of one.  A mask that is no ideal raises ValueError."""
    return tuple(length for length in map(sum, _block_cells(rs, [ideal])) if length)


# ---------------------------------------------------------------------------
# type A: staircase diagrams


def _pad(parts: tuple[int, ...] | list[int], n: int) -> list[int]:
    if any(parts[n:]):
        raise ValueError(f"partition {parts} has more than {n} parts")
    parts = list(parts[:n]) + [0] * (n - len(parts))
    for i in range(1, n):
        if parts[i] > parts[i - 1]:
            raise ValueError(f"{parts} is not weakly decreasing")
    for i, p in enumerate(parts, start=1):
        if p > n - i + 1:
            raise ValueError(f"{parts} does not fit inside the {n}-staircase")
    return parts


def _block_filling(n: int, rows: Iterable[list[int]], count: int) -> list[list[int]]:
    """Staircase fillings of a block of Ferrers diagrams, one byte lane per
    diagram, lane b of rows[i][j] being 1 when diagram b holds cell (i, j).
    An entry t[i][j] is at most n-i-j (a split sums to at most
    (n-i-k) + (k-j)), so 7 bits under a guard bit hold every lane."""
    if n > 127:
        raise ValueError(f"entries of the {n}-staircase do not fit in 7-bit lanes")
    inside = [[*cells, 0] for cells in rows] + [[0]]  # a 0 past each edge
    guard = int.from_bytes(b"\x80" * count, "little")
    t = [[0] * (n - i) for i in range(n)]
    # 0-based: t[i][j] reads row i right of j and column j below row i
    for i in range(n - 1, -1, -1):
        row, cells, below = t[i], inside[i], inside[i + 1]
        for j in range(n - i - 1, -1, -1):
            corner = cells[j] ^ (cells[j] & (cells[j + 1] | below[j]))
            # 0 from the splits of a corner, and of a cell outside the diagram
            best = 0
            for k in range(j + 1, n - i):
                a = row[k] + t[n - k][j]
                ge = ((a | guard) - best) & guard  # 0x80 in the lanes where a >= best
                best ^= (a ^ best) & (ge - (ge >> 7))
            row[j] = best | corner
    return t


def staircase_filling(parts: Partition, n: int) -> list[list[int]]:
    """Fill the n-staircase: cells outside the diagram get 0, outer corners
    get 1, and every other diagram cell takes the best split
    t[i][k] + t[n-k+2][j] over k > j.  Entry (1,1) is the class of
    nilpotence of the corresponding type-A ideal.  Filled as a block of one.
    """
    lam = _pad(parts, n)
    return _block_filling(n, ([int(j < a) for j in range(n - i)] for i, a in enumerate(lam)), 1)


def _filling_classes(rs: RootSystem, ideals: bytes | list[int]) -> bytes:
    """Entry (1,1) of the filling of each ideal of a type-A block, filled on
    the block's cells (`_block_cells`)."""
    count = block_length(rs, ideals)
    table = _block_filling(rs.lie_type.rank, _block_cells(rs, ideals), count)
    return table[0][0].to_bytes(count, "little")


def _staircase_bytes(rows: list[int], top: int, count: int, step: int = 1) -> list[bytes]:
    """The row-length lanes of a block of diagrams, as bytes, row s (0-based)
    holding at most top - step*s cells: the top-staircase for step 1, a
    shifted staircase for step 2.  A longer row raises AssertionError."""
    if top > 255:
        raise ValueError(f"rows of up to {top} cells do not fit in byte lanes")
    data = [lane.to_bytes(count, "little") for lane in rows]
    for s, row in enumerate(data):
        if row.translate(None, bytes(range(top - step * s + 1))):
            raise AssertionError(f"a row is longer than row {s + 1} of its staircase")
    return data


def _equal_lanes(data: bytes, top: int) -> Iterator[tuple[int, int]]:
    """Each value 0 < v <= top that a byte of `data` holds, with the lanes
    that hold it: 0xff in each byte equal to v, 0 in the others."""
    for v in range(1, top + 1):
        if v in data:
            yield v, int.from_bytes(data.translate(bytes(v) + b"\xff" + bytes(255 - v)), "little")


def _block_truncations(rows: list[int], n: int, count: int) -> bytes:
    """Truncation steps of a block of diagrams, the byte lanes of their n
    row lengths.  Truncating the rows from s on at first part v > 0 keeps
    the rows from n+1-v on: steps[s] = [v > 0](1 + steps[n+1-v]), evaluated
    bottom-up, each value v of row s on the lanes that hold it."""
    data = _staircase_bytes(rows, n, count)
    ones = int.from_bytes(b"\1" * count, "little")
    steps = [0] * (n + 1)
    for s in range(n - 1, -1, -1):
        for v, lanes in _equal_lanes(data[s], n - s):
            steps[s] |= (steps[n + 1 - v] + ones) & lanes
    return steps[0].to_bytes(count, "little")


def nilpotence_from_partition(parts: Partition, n: int) -> int:
    """Truncation recursion: drop the first n+1-p rows of a diagram with
    first part p, shrink the ambient staircase to p-1, and count steps.
    The rows kept fit the smaller staircase, so they are checked once."""
    return _block_truncations(_pad(parts, n), n, 1)[0]


# ---------------------------------------------------------------------------
# types B, C, D: shifted diagrams and symmetric completions


def _completion_size(family: str, n: int) -> int:
    """Staircase size of the completions of B, C or D ideals of rank n."""
    return 2 * n - 1 if family in "BC" else 2 * n - 2


def _shifted_rows(parts: Partition, family: str, n: int, strict: bool = False) -> list[int]:
    """The n rows of a shifted B, C or D diagram.  ValueError for more than
    n rows, a row r longer than its size - 2r + 2 staircase cells, and with
    `strict` for rows not strictly decreasing down to the empty ones."""
    if any(parts[n:]):
        raise ValueError(f"shifted diagram {parts} has more than {n} rows")
    rows = [*parts[:n]] + [0] * (n - len(parts))
    size = _completion_size(family, n)
    if any(a > size - 2 * i for i, a in enumerate(rows)):
        raise ValueError(f"{parts} does not fit inside the shifted {n}-staircase")
    if strict and any(b and b >= a for a, b in zip(rows, rows[1:])):
        raise ValueError(f"{parts} is not strictly decreasing down to its empty rows")
    return rows


def _block_completion(cells: list[int], family: str, n: int) -> list[int]:
    """Row lengths of the symmetric completions of a block of B, C or D
    shifted diagrams, one byte lane per row of the completed staircase.
    `cells` holds one byte lane per cell of the shifted n-staircase, row by
    row, each row a prefix.  Each completed cell reads one of them: the
    cell itself, its mirror, or in types B and D the first cell of row r
    for the off-diagonal cell (r, r-1).  Row lengths are the lane-wise
    sums; a completed cell held without its left neighbour raises
    AssertionError."""
    size = _completion_size(family, n)
    if size > 255:
        raise ValueError(f"completions of rank {n} do not fit in byte lanes")
    # first cell of each shifted row that has cells: rows of size, size-2, ...
    starts = list(accumulate(range(size, 0, -2), initial=0))
    lengths = []
    for r in range(1, size + 1):
        total = 0  # byte b is the length of completed row r in diagram b
        left = -1
        for c in range(1, size - r + 2):
            if c >= r:
                k = starts[r - 1] + c - r
            elif family == "C":
                k = starts[c - 1] + r - c  # the mirror (c, r)
            elif c == r - 1:
                if r >= len(starts):  # type D's row n is empty, and (n, n-1) ends its row
                    break
                k = starts[r - 1]
            else:
                k = starts[c] + r - c - 2  # the mirror (c+1, r-1)
            if cells[k] & left != cells[k]:
                raise AssertionError("completion is not a Ferrers diagram")
            left = cells[k]
            total += left
        lengths.append(total)
    return lengths


def symmetric_completion(parts: Partition, family: str, n: int) -> Partition:
    """Complete a shifted diagram to the ordinary diagram matching the
    mirror pairing of the staircase arrangement.

    Type C mirrors across the main diagonal.  Types B and D mirror cell
    (i, j) to (j+1, i-1) and add the off-diagonal cell (i, i-1) to every
    nonempty row below the first.  So row r of the completion has length
    a_r + #{i < r : i + a_i - 1 >= r} in type C, and in types B and D
    a_r + [a_r > 0 and r >= 2] + #{2 <= i < r : i + a_i >= r}.  Completed
    as a block of one.
    """
    if family not in ("B", "C", "D"):
        raise ValueError(f"no completion for family {family!r}")
    size = _completion_size(family, n)
    rows = _shifted_rows(parts, family, n)
    cells = [int(j < a) for i, a in enumerate(rows) for j in range(size - 2 * i)]
    lam = _block_completion(cells, family, n)
    while lam and lam[-1] == 0:
        lam.pop()
    return tuple(lam)


def _completion_classes(rs: RootSystem, ideals: bytes | list[int]) -> bytes:
    """Class of each ideal of a B, C or D block: the truncation recursion
    on its completed ordinary diagram."""
    family, n = rs.lie_type.family, rs.lie_type.rank
    cells = [cell for row in _block_cells(rs, ideals) for cell in row]
    rows = _block_completion(cells, family, n)
    return _block_truncations(rows, _completion_size(family, n), block_length(rs, ideals))


# ---------------------------------------------------------------------------
# broken rays: the zigzag (A), the single ray (C) and the two rays (B, D)


def _broken_ray(
    rows: list[int], first: int, mirror: int, stop: int, shifted: bool, count: int
) -> tuple[int, int, int]:
    """A broken ray on each diagram of a block of row-length lanes (row s at
    most mirror-1-s cells, mirror-1-2s if `shifted`), from the end of row
    `first` where it is held.  It drops down column v, stops mid-drop at
    x = v if v <= `stop`, else touches x+y=mirror and sweeps left to the end
    of row r = mirror-v, column lam[r] (r+lam[r] if shifted), or stops
    mid-sweep at x = r-1 if row r is empty.  Returns the lanes of the
    mid-drop stops (1, else 0), of the stops' x and of the touchings."""
    _staircase_bytes(rows, mirror - 1, count, 1 + shifted)
    ones = int.from_bytes(b"\1" * count, "little")
    low = 0x7f * ones
    pad = [0] * (mirror - len(rows))  # the rows past the last are empty
    # 1 where a row is held: bit 7 of (b & 0x7f) + 0x7f | b is set for each byte b > 0
    held = [((lane & low) + low | lane) >> 7 & ones for lane in rows] + pad
    ends = [r * shifted * on + lane for r, (lane, on) in enumerate(zip(rows + pad, held))]
    empty = [(r - 1) * (ones - on) for r, on in enumerate(held)]  # x = r-1 where row r is empty
    col, down, x, touches = ends[first], 0, 0, 0
    while col:
        moved = 0
        for v, lanes in _equal_lanes(col.to_bytes(count, "little"), mirror - 1):
            if v <= stop:
                down |= lanes & ones
                x |= lanes & v * ones
            else:
                r = mirror - v
                touches += lanes & ones
                moved |= lanes & ends[r]
                x |= lanes & empty[r]
        col = moved
    return down, x, touches


def _zigzag_classes(rows: list[int], n: int, count: int) -> bytes:
    """Diagonal touchings of the zigzag ray on a block of n-staircase
    diagrams: unshifted, off x+y=n+1, with no mid-drop stop."""
    return _broken_ray(rows, 0, n + 1, 0, False, count)[2].to_bytes(count, "little")


def zigzag_class(parts: Partition, n: int) -> int:
    """Broken-ray count on the staircase: drop from the right edge of the
    first row, bounce between the long diagonal x+y=n+1 and the vertical
    border of the diagram, and count the diagonal touchings."""
    return _zigzag_classes(_pad(parts, n), n, 1)[0]


def _single_ray_classes(rows: list[int], n: int, count: int) -> bytes:
    """`single_ray_class` on a block of shifted C diagrams."""
    down, _, touches = _broken_ray(rows, 0, 2 * n, n, True, count)
    return (2 * touches + down).to_bytes(count, "little")


def single_ray_class(parts: Partition, n: int) -> int:
    """Class of a type-C ideal read off its shifted diagram.

    A ray drops from the right edge of the first row, bouncing between
    the diagonal x+y=2n and the vertical diagram border.  Meeting x=y
    mid-drop gives class 2k+1, mid-sweep gives 2k, where k counts the
    x+y=2n touchings."""
    return _single_ray_classes(_shifted_rows(parts, "C", n, strict=True), n, 1)[0]


def upward_ray_bound(parts: Partition, n: int) -> int:
    """Least even upper bound for the class of a type-C ideal: shoot a ray
    right from the lowest diagonal point of the shifted diagram, bounce
    up off x+y=2n to the next blocking row, and double the touchings.
    ValueError for a diagram that `single_ray_class` refuses."""
    parts = [p for p in _shifted_rows(parts, "C", n, strict=True) if p]
    if not parts:
        return 0
    row = len(parts)
    touches = 0
    while True:
        touches += 1
        reach = 2 * n - row
        blocking = 0
        for i in range(row - 1, 0, -1):
            if i - 1 + parts[i - 1] > reach:
                blocking = i
                break
        if blocking == 0:
            return 2 * touches
        row = blocking


class TwoRayResult(NamedTuple):
    """Outcome of the two-ray walk: matched case (0 = handled directly),
    touch count of the deciding ray, and the class of nilpotence."""

    case_id: int
    touch_count: int
    nilpotence: int


def _two_ray_case(
    down1: int, x1: int, k1: int, down2: int, x2: int, k2: int
) -> tuple[int, int, int]:
    """(case, touch count, class) of `two_ray_classify` from whether each
    ray stops mid-drop, its stop's x and its touchings.  A ray from an empty
    row has neither: without ray 2 the diagram is abelian (case 0)."""
    if not (down2 or k2):
        return 0, 0, int(bool(down1 or k1))
    if not down2:
        if not down1 and x1 >= x2 and k1 == k2 + 1 or down1 and x1 > x2:
            return 1, k2, 2 * k2 + 1
        if down1 and x1 <= x2:
            return 2, k2, 2 * k2
        if not down1 and x1 <= x2 and k1 == k2:
            return 7, k2, 2 * k2
    else:
        if not down1 and x1 < x2:
            return 3, k1, 2 * k1
        if down1 and x1 <= x2 and k1 == k2 + 1:
            return 4, k1, 2 * k1
        if not down1 and x1 >= x2:
            return 5, k1, 2 * k1 - 1
        if down1 and x1 >= x2 and k1 == k2:
            return 6, k1, 2 * k1 + 1
    raise AssertionError(f"unclassifiable ray data {(down1, x1, k1)} vs {(down2, x2, k2)}")


def _two_ray_results(rows: list[int], n: int, count: int, family: str) -> list[tuple]:
    """`two_ray_classify` on a block of shifted B or D diagrams: both rays in
    lanes, then one decision per diagram, memoized for the block."""
    mirror = 2 * n - (family == "D")
    stop = (mirror - 1) // 2
    rays = [lanes for r in (0, 1) for lanes in _broken_ray(rows, r, mirror, stop, True, count)]
    return list(map(cache(_two_ray_case), *(lanes.to_bytes(count, "little") for lanes in rays)))


def two_ray_classify(parts: Partition, n: int, family: str) -> TwoRayResult:
    """Class of a B/D ideal from two rays on its shifted diagram.

    Ray 1 starts right of the first row, ray 2 right of the second; both
    bounce off x+y=2n (type B) or x+y=2n-1 (type D) and stop at x=y-1.
    The stop directions, relative positions and touch counts select one
    of seven cases, each with its own class formula.  Diagrams with fewer
    than two rows are abelian and handled directly (case_id 0)."""
    if family not in ("B", "D"):
        raise ValueError("two-ray classification applies to types B and D")
    rows = _shifted_rows(parts, family, n, strict=True)
    return TwoRayResult(*_two_ray_results(rows, n, 1, family)[0])


# ---------------------------------------------------------------------------
# distributions


def _on_lanes(rs: RootSystem, ideals: bytes | list[int], lane_walk):
    """A lane walk, which takes (row-length lanes, rank, block size), on
    the rows of `_block_cells`."""
    rows = [sum(cells) for cells in _block_cells(rs, ideals)]
    return lane_walk(rows, rs.lie_type.rank, block_length(rs, ideals))


def _tworay_classes(rs: RootSystem, ideals: bytes | list[int]) -> bytes:
    results = partial(_two_ray_results, family=rs.lie_type.family)
    return bytes([result[2] for result in _on_lanes(rs, ideals, results)])


# method -> (families it applies to, classes of a block of ideals); the
# oracle applies everywhere, every other route is checked against it
ROUTES = {
    "oracle": (FAMILIES, block_classes),
    "filling": ("A", _filling_classes),
    "recursion": ("A", partial(_on_lanes, lane_walk=_block_truncations)),
    "zigzag": ("A", partial(_on_lanes, lane_walk=_zigzag_classes)),
    "completion": ("BCD", _completion_classes),
    "ray": ("C", partial(_on_lanes, lane_walk=_single_ray_classes)),
    "tworay": ("BD", _tworay_classes),
}


def _class_function(rs: RootSystem, method: str):
    """The block function of `method` on `rs`."""
    if method not in ROUTES:
        raise ValueError(f"unknown method {method!r}")
    families, route = ROUTES[method]
    if rs.lie_type.family not in families:
        *head, last = families
        named = f"{', '.join(head)} or {last}" if head else last
        raise ValueError(f"method {method!r} requires type {named}")
    return partial(route, rs)


def classify_ideal(rs: RootSystem, ideal: int, method: str = "oracle") -> int:
    """Class of nilpotence of a single ideal by the chosen algorithm, as a
    block of one.  A mask that is no ideal raises ValueError, whatever the
    method: every route checks a list of masks."""
    return _class_function(rs, method)([ideal])[0]


_WORKER_STATE: tuple[RootSystem, str, float] | None = None


def _worker_init(rs: RootSystem, method: str, deadline: float) -> None:
    global _WORKER_STATE
    _WORKER_STATE = (rs, method, deadline)


def _worker_run(group: list[Seed]) -> Counter:
    """Histogram of a group of seeds, walked as one."""
    return sum(_histograms(*_WORKER_STATE, group), Counter())


def _histograms(
    rs: RootSystem, method: str, deadline: float, seeds: list[Seed] | None = None,
) -> Iterator[Counter]:
    """{class: count} of each block of `classified_blocks`, one `bytes.count`
    per class below the Coxeter number (no class reaches it).  Counts that
    do not add up to the block's ideals, as when a class is past that bound,
    raise AssertionError."""
    for block, classes in classified_blocks(rs, method, deadline, seeds):
        hist = Counter({k: n for k in range(rs.coxeter_number) if (n := classes.count(k))})
        if hist.total() != block_length(rs, block):
            raise AssertionError(f"the class counts of a block of {rs.lie_type} miss its size")
        yield hist


def classified_blocks(
    rs: RootSystem, method: str = "oracle", deadline: float = math.inf,
    seeds: list[Seed] | None = None,
) -> Iterator[tuple[bytes, bytes]]:
    """Each block of the walk below `seeds` (the root state when None), in
    full blocks of `BLOCK` ideals but the last, with the classes of
    its ideals by `method`.  The clock (`time.monotonic`, the same in every
    process) is read once per block, and a block drawn past `deadline`
    raises TimeoutError."""
    classify = _class_function(rs, method)
    for block in walk(rs, seeds):
        if time.monotonic() > deadline:
            raise TimeoutError(BUDGET_MESSAGE)
        yield block, classify(block)


def budget_deadline(budget: float | None) -> float:
    """`time.monotonic` deadline for a cap of `budget` seconds, inf for None
    or inf.  A cap that is not positive raises ValueError, nan included:
    no clock reading exceeds `monotonic() + nan`."""
    if budget is not None and not budget > 0:
        raise ValueError(f"budget must be a positive number of seconds, got {budget}")
    return math.inf if budget is None else time.monotonic() + budget


def resolve_workers(requested: int | None, ideals: int | None = None) -> int:
    """Worker count: explicit request, then the environment (a positive
    integer in ASCII digits), then one worker for a run of fewer than
    `POOL_MIN_IDEALS` ideals (where a pool costs more than it saves), then
    every core this process may run on.  For a run of `ideals` ideals, any
    of these is an upper bound: a run starts no more processes than it has
    full blocks of `BLOCK` ideals, since a process without one costs
    more to start than it saves (so a run of fewer than two blocks is
    serial)."""
    if requested is not None:
        if requested < 1:
            raise ValueError(f"workers must be a positive integer, got {requested}")
        count = requested
    elif env := os.environ.get(WORKER_ENV):
        # ASCII digits only, as the CLI's integer options: `int` also takes
        # any Unicode digit, a space or a '_'
        count = int(env) if env.isascii() and env.isdigit() else 0
        if count < 1:
            raise ValueError(f"{WORKER_ENV} must be a positive integer, got {env!r}")
    elif ideals is not None and ideals < POOL_MIN_IDEALS:
        return 1
    elif hasattr(os, "sched_getaffinity"):
        count = len(os.sched_getaffinity(0))
    else:
        count = os.cpu_count() or 1
    return count if ideals is None else min(count, max(1, ideals // BLOCK))


def _pooled(nworkers: int, initargs: tuple, groups: list[list[Seed]]) -> Iterator[Counter]:
    """Histograms of seed groups from a pool of `nworkers` processes, as
    they finish.  A worker that dies raises BrokenProcessPool; once
    anything raises, the groups not yet started are cancelled."""
    # imported on first use: the executor's modules take over 1 MiB of
    # memory that a serial run never needs
    from concurrent.futures import ProcessPoolExecutor, as_completed

    pool = ProcessPoolExecutor(nworkers, initializer=_worker_init, initargs=initargs)
    try:
        futures = [pool.submit(_worker_run, group) for group in groups]
        for future in as_completed(futures):
            yield future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def class_distribution(
    rs: RootSystem,
    method: str = "oracle",
    workers: int | None = None,
    budget: float | None = None,
    progress=None,
) -> dict[int, int]:
    """Histogram {class: count} over every ideal of the root system.

    One worker walks the root state in full blocks of `BLOCK` ideals.
    `workers` is an upper bound (`resolve_workers`): a run starts no more
    processes than it has full blocks, so a type of fewer than two blocks
    (E6, E7) is serial at any count.  More workers cut the ascending order
    into `POOL_GROUPS_PER_WORKER` ranges per worker of the capped count
    (`partition_seeds`), one pool task each, walked in the same block
    loop.  The parts (blocks or ranges) merge by addition, so the histogram
    is the same for any worker count.  `budget` caps wall time in seconds,
    checked in every process once per block; `progress` is called after
    each part with (done, total) ideal counts, total being the product
    formula's.  A pool worker that dies raises BrokenProcessPool.
    """
    _class_function(rs, method)  # refuse a bad method before any work
    deadline = budget_deadline(budget)
    total = total_count_formula(rs)
    nworkers = resolve_workers(workers, total)
    if nworkers > 1:
        # the split reads the order tables, and so builds all four (`rootsys._Table`)
        # before the pool starts: the workers inherit them or unpickle them
        groups = partition_seeds(rs, POOL_GROUPS_PER_WORKER * nworkers)
        parts = _pooled(nworkers, (rs, method, deadline), groups)
    else:
        parts = _histograms(rs, method, deadline)
    hist: Counter = Counter()
    done = 0
    for part in parts:
        hist.update(part)
        done += part.total()
        if progress:
            progress(done, total)
    return dict(sorted(hist.items()))


def joint_histogram(rs: RootSystem) -> dict[tuple[int, int], int]:
    """Histogram {(dimension, class): count} over every ideal, by the oracle."""
    hist: Counter = Counter()
    for block, classes in classified_blocks(rs):
        # one popcount lane: no enumerable type has 256 roots, so no lane carries
        dimensions = sum(block_lanes(rs, block)).to_bytes(len(classes), "little")
        hist.update(zip(dimensions, classes))
    return dict(hist)
