"""Class of nilpotence of an ad-nilpotent ideal, several ways.

The reference computation ("oracle") is a decomposition DP: one pass
over the roots of the ideal in increasing height gives each root its
depth in the lower central series, from the decomposition table of the
root system.  `class_distribution` computes the same depths bit-sliced,
stage by stage, for a whole block of ideals at once (`block_histogram`).
Independent routes recover the same number from diagram combinatorics:
a staircase filling, a truncation recursion, and broken-ray walks on
(shifted) Ferrers diagrams.  Types B, C and D are routed through a
symmetric completion of the shifted diagram.
"""
from __future__ import annotations

import math
import os
import time
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import Iterable, Iterator

from .ideals import Seed, partition_seeds, walk
from .rootsys import FAMILIES, RootSystem

Partition = tuple[int, ...]

WORKER_ENV = "ADNIL_WORKERS"
BUDGET_BLOCK = 4096  # ideals classified between two looks at the clock
BUDGET_MESSAGE = "class distribution exceeded its budget"


def nilpotence_oracle(rs: RootSystem, ideal: int) -> int:
    """Length of the lower central series I = I^1, I^{k+1} = [I^k, I].

    Every stage is upward closed, so the depth of a root beta of the
    ideal (the largest k with beta in I^k) is one more than the larger
    depth of gamma and delta over the decompositions beta = gamma + delta
    inside the ideal, and 1 when there is none.  One pass over
    `rs.decompositions`, in increasing height, fills in every depth; a
    root outside the ideal keeps depth 0, which rules out each pair it
    belongs to.  The class is the depth of the highest root; that it is
    the largest depth is checked as a guard (skipped for reducible D2,
    which has no highest root).
    """
    depth = [0] * len(rs)
    for k, bit, pairs in rs.decompositions:
        if ideal & bit:
            d = 0
            for i, j in pairs:
                x = depth[i]
                if x:
                    y = depth[j]
                    if y:
                        if y > x:
                            x = y
                        if x > d:
                            d = x
            depth[k] = d + 1
    top = max(depth)
    theta = rs.highest_index
    if theta is not None and depth[theta] != top:
        raise AssertionError("the highest root does not carry the largest depth")
    return top


# ---------------------------------------------------------------------------
# diagrams


def ideal_rows(rs: RootSystem, ideal: int) -> Partition:
    """Row lengths of a classical ideal in its (shifted) staircase, empty
    rows dropped, by one lookup per row in `rs.rows`: weakly decreasing in
    type A, strictly in B, C, D.  A mask that is no ideal raises ValueError."""
    if rs.rows is None:
        raise ValueError("diagrams require type A, B, C or D")
    # the type-D rows that hold one fork column must all hold the same one
    lo, hi = ideal & rs.fork_mask, ideal >> 1 & rs.fork_mask
    mixed = lo | hi not in (lo, hi)
    strict = rs.lie_type.family != "A"
    parts = []
    limit = len(rs)
    for first, width, lengths in rs.rows:
        rest = ideal >> first
        if not rest:
            break
        length = lengths.get(rest & width, 0)
        if mixed or not 0 < length <= limit:
            raise ValueError(f"mask {ideal} is not an ideal of {rs.lie_type}")
        parts.append(length)
        limit = length - strict
    return tuple(parts)


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


def staircase_filling(parts: Partition, n: int) -> list[list[int]]:
    """Fill the n-staircase: cells outside the diagram get 0, outer corners
    get 1, and every other diagram cell takes the best split
    t[i][k] + t[n-k+2][j] over k > j.  Entry (1,1) is the class of
    nilpotence of the corresponding type-A ideal.
    """
    lam = _pad(parts, n) + [0]
    t = [[0] * (n - i) for i in range(n)]
    # 0-based: t[i][j] reads row i right of j and column j below row i
    for i in range(n - 1, -1, -1):
        row = t[i]
        for j in range(lam[i] - 1, -1, -1):
            if j == lam[i] - 1 and lam[i + 1] <= j:
                row[j] = 1  # outer corner
                continue
            best = 0
            for k in range(j + 1, n - i):
                cand = row[k] + t[n - k][j]
                if cand > best:
                    best = cand
            row[j] = best
    return t


def nilpotence_from_partition(parts: Partition, n: int) -> int:
    """Truncation recursion: drop the first n+1-p rows of a diagram with
    first part p, shrink the ambient staircase to p-1, and count steps.
    The rows kept fit the smaller staircase, so they are checked once."""
    lam = _pad(parts, n)
    steps = 0
    while lam and lam[0]:
        lam = lam[n + 1 - lam[0] :]
        n = len(lam)
        steps += 1
    return steps


def zigzag_class(parts: Partition, n: int) -> int:
    """Broken-ray count on the staircase: drop from the right edge of the
    first row, bounce between the long diagonal x+y=n+1 and the vertical
    border of the diagram, and count the diagonal touchings."""
    lam = _pad(parts, n)
    col = lam[0] if lam else 0
    touches = 0
    while col > 0:
        touches += 1
        row = n + 2 - col
        col = lam[row - 1] if row <= n else 0
    return touches


# ---------------------------------------------------------------------------
# types B, C, D: shifted diagrams and symmetric completions


def _completion_size(family: str, n: int) -> int:
    """Staircase size of the completions of B, C or D ideals of rank n."""
    return 2 * n - 1 if family in "BC" else 2 * n - 2


def symmetric_completion(parts: Partition, family: str, n: int) -> Partition:
    """Complete a shifted diagram to the ordinary diagram matching the
    mirror pairing of the staircase arrangement.

    Type C mirrors across the main diagonal.  Types B and D mirror cell
    (i, j) to (j+1, i-1) and add the off-diagonal cell (i, i-1) to every
    nonempty row below the first.  So row r of the completion has length
    a_r + #{i < r : i + a_i - 1 >= r} in type C, and in types B and D
    a_r + [a_r > 0 and r >= 2] + #{2 <= i < r : i + a_i >= r}.
    """
    if family not in "BCD":
        raise ValueError(f"no completion for family {family!r}")
    shift = family != "C"  # B and D mirror row i to column i-1, row 1 to none
    size = _completion_size(family, n)
    if any(parts[n:]):
        raise ValueError(f"shifted diagram {parts} has more than {n} rows")
    # row r of the shifted staircase has size - 2r + 2 cells
    if any(a > size - 2 * i for i, a in enumerate(parts)):
        raise ValueError(f"{parts} does not fit inside the shifted {n}-staircase")
    rows = [*parts] + [0] * (size - len(parts))
    mirrored = [0] * (size + 1)  # difference array of the mirrored cells per row
    lam = rows[:shift]
    m = 0
    above = math.inf
    for r, a in enumerate(rows[shift:], start=1 + shift):
        m += mirrored[r - 1]
        a += shift and a > 0  # the off-diagonal cell (r, r-1)
        last = r + a - 1  # a nonempty row r mirrors into rows r+1..last
        if a:
            if last > above:  # a shorter reach above leaves a gap in row `last` or r
                raise AssertionError("completion is not a Ferrers diagram")
            mirrored[r] += 1
            mirrored[last] -= 1
        above = last
        lam.append(m + a)
    while lam and lam[-1] == 0:
        lam.pop()
    return tuple(lam)


def nilpotence_via_completion(rs: RootSystem, ideal: int) -> int:
    """Class of a B/C/D ideal through its completed ordinary diagram."""
    family = rs.lie_type.family
    n = rs.lie_type.rank
    lam = symmetric_completion(ideal_rows(rs, ideal), family, n)
    return nilpotence_from_partition(lam, _completion_size(family, n))


# ---------------------------------------------------------------------------
# type C: single broken ray


def single_ray_class(parts: Partition, n: int) -> int:
    """Class of a type-C ideal read off its shifted diagram.

    A ray drops from the right edge of the first row, bouncing between
    the diagonal x+y=2n and the vertical diagram border.  Meeting x=y
    mid-drop gives class 2k+1, mid-sweep gives 2k, where k counts the
    x+y=2n touchings."""
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


def upward_ray_bound(parts: Partition, n: int) -> int:
    """Least even upper bound for the class of a type-C ideal: shoot a ray
    right from the lowest diagonal point of the shifted diagram, bounce
    up off x+y=2n to the next blocking row, and double the touchings."""
    parts = tuple(p for p in parts if p)
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


# ---------------------------------------------------------------------------
# types B and D: two broken rays


@dataclass(frozen=True)
class TwoRayResult:
    """Outcome of the two-ray walk: matched case (0 = handled directly),
    touch count of the deciding ray, and the class of nilpotence."""

    case_id: int
    touch_count: int
    nilpotence: int


def _bounce_ray(parts: Partition, start_col: int, mirror: int) -> tuple[str, int, int]:
    """Walk one ray: drop along a column, bounce off x+y=mirror, sweep left
    to the diagram border, repeat; stop on the line x=y-1.  Returns the
    travel direction at the stop, the stop's x-coordinate, and the number
    of x+y=mirror touchings.  A drop that reaches x=y-1 on the mirror line
    itself counts as stopping mid-drop."""
    col = start_col
    touches = 0
    while True:
        if 2 * col <= mirror - 1:
            return "down", col, touches
        touches += 1
        row = mirror - col + 1
        a = parts[row - 1] if row <= len(parts) else 0
        if a == 0:
            return "left", mirror - col - 1, touches
        col = mirror - col + a


def two_ray_classify(parts: Partition, n: int, family: str) -> TwoRayResult:
    """Class of a B/D ideal from two rays on its shifted diagram.

    Ray 1 starts right of the first row, ray 2 right of the second; both
    bounce off x+y=2n (type B) or x+y=2n-1 (type D) and stop at x=y-1.
    The stop directions, relative positions and touch counts select one
    of seven cases, each with its own class formula.  Diagrams with fewer
    than two rows are abelian and handled directly (case_id 0)."""
    if family not in "BD":
        raise ValueError("two-ray classification applies to types B and D")
    parts = tuple(p for p in parts if p)
    if not parts:
        return TwoRayResult(0, 0, 0)
    if len(parts) == 1:
        return TwoRayResult(0, 0, 1)
    mirror = 2 * n if family == "B" else 2 * n - 1
    d1, t1, k1 = _bounce_ray(parts, parts[0], mirror)
    d2, t2, k2 = _bounce_ray(parts, parts[1] + 1, mirror)
    if d2 == "left":
        if d1 == "left" and t1 >= t2 and k1 == k2 + 1:
            return TwoRayResult(1, k2, 2 * k2 + 1)
        if d1 == "down" and t1 > t2:
            return TwoRayResult(1, k2, 2 * k2 + 1)
        if d1 == "down" and t1 <= t2:
            return TwoRayResult(2, k2, 2 * k2)
        if d1 == "left" and t1 <= t2 and k1 == k2:
            return TwoRayResult(7, k2, 2 * k2)
    else:
        if d1 == "left" and t1 < t2:
            return TwoRayResult(3, k1, 2 * k1)
        if d1 == "down" and t1 <= t2 and k1 == k2 + 1:
            return TwoRayResult(4, k1, 2 * k1)
        if d1 == "left" and t1 >= t2:
            return TwoRayResult(5, k1, 2 * k1 - 1)
        if d1 == "down" and t1 >= t2 and k1 == k2:
            return TwoRayResult(6, k1, 2 * k1 + 1)
    raise AssertionError(
        f"unclassifiable ray data {parts}: {(d1, t1, k1)} vs {(d2, t2, k2)}"
    )


# ---------------------------------------------------------------------------
# distributions


def _on_rows(diagram_class):
    """The route of a diagram algorithm, which takes (row lengths, rank)."""
    return lambda rs, ideal: diagram_class(ideal_rows(rs, ideal), rs.lie_type.rank)


def _tworay_class(rs: RootSystem, ideal: int) -> int:
    lt = rs.lie_type
    return two_ray_classify(ideal_rows(rs, ideal), lt.rank, lt.family).nilpotence


# method -> (families it applies to, class of one ideal); the oracle
# applies everywhere, every other route is checked against it
ROUTES = {
    "oracle": (FAMILIES, nilpotence_oracle),
    "filling": ("A", _on_rows(lambda parts, n: staircase_filling(parts, n)[0][0])),
    "recursion": ("A", _on_rows(nilpotence_from_partition)),
    "zigzag": ("A", _on_rows(zigzag_class)),
    "completion": ("BCD", nilpotence_via_completion),
    "ray": ("C", _on_rows(single_ray_class)),
    "tworay": ("BD", _tworay_class),
}


def _class_function(rs: RootSystem, method: str):
    if method not in ROUTES:
        raise ValueError(f"unknown method {method!r}")
    families, route = ROUTES[method]
    if rs.lie_type.family not in families:
        *head, last = families
        named = f"{', '.join(head)} or {last}" if head else last
        raise ValueError(f"method {method!r} requires type {named}")
    return partial(route, rs)


def classify_ideal(rs: RootSystem, ideal: int, method: str = "oracle") -> int:
    """Class of nilpotence of a single ideal by the chosen algorithm."""
    return _class_function(rs, method)(ideal)


_WORKER_STATE: tuple[RootSystem, str, float] | None = None


def _worker_init(rs: RootSystem, method: str, deadline: float) -> None:
    global _WORKER_STATE
    _WORKER_STATE = (rs, method, deadline)


def _worker_run(seed: Seed) -> Counter:
    return _seed_histogram(*_WORKER_STATE, seed)


def budget_blocks(ideals: Iterable[int], deadline: float) -> Iterator[list[int]]:
    """Cut an ideal iterator into blocks of `BUDGET_BLOCK`.  The clock
    (`time.monotonic`, the same in every process) is read once per block,
    and a block drawn past `deadline` raises TimeoutError."""
    ideals = iter(ideals)
    while block := list(islice(ideals, BUDGET_BLOCK)):
        if time.monotonic() > deadline:
            raise TimeoutError(BUDGET_MESSAGE)
        yield block


def budget_deadline(budget: float | None) -> float:
    """`time.monotonic` deadline for a cap of `budget` seconds, inf for None
    or inf.  A cap that is not positive raises ValueError, nan included:
    no clock reading exceeds `monotonic() + nan`."""
    if budget is not None and not budget > 0:
        raise ValueError(f"budget must be a positive number of seconds, got {budget}")
    return math.inf if budget is None else time.monotonic() + budget


def block_columns(rs: RootSystem, antichains: list[int]) -> list[int]:
    """A block of ideals, given by their antichains, transposed: bit b of
    column k is set when ideal b holds root k.  Root k is in the ideal when
    it is in the antichain or covers a root in the ideal, so the columns
    fill in increasing height from the antichain columns."""
    size = len(rs)
    # one row of `size` binary digits per antichain, the last ideal first,
    # formatted in one call: digit size-1-k of each row is root k, so
    # every size-th digit from there, read in binary, is a column
    text = (f"{{:0{size}b}}" * len(antichains)).format(*reversed(antichains))
    columns = [0] * size
    covers = rs.covers
    for k, _, _ in rs.decompositions:
        col = int(text[size - 1 - k :: size], 2)
        for j in covers[k]:
            col |= columns[j]
        columns[k] = col
    return columns


def block_histogram(rs: RootSystem, columns: list[int], count: int) -> Counter:
    """Histogram of a block of `count` ideals in column form, bit-sliced.

    `nilpotence_oracle` on every ideal of the block at once.  Stage s holds
    per root the ideals where that root has depth at least s; stage 1 is
    the columns, and a root gets depth s+1 in an ideal holding it and a
    decomposition whose one summand has depth s and the other lies in the
    ideal.  So one sweep over the roots of depth s somewhere advances the
    whole block one step down the lower central series.  The ideals of
    class at least s are those with some root of depth s; that the highest
    root is among them is the oracle's guard, checked at every stage."""
    hist: Counter = Counter()
    theta = rs.highest_index
    partners = rs.partners
    stage = columns
    above = (1 << count) - 1  # the ideals of class >= s, from s = 0
    s = 0
    while above:
        reached = 0
        for col in stage:
            reached |= col
        if theta is not None and reached & ~stage[theta]:
            raise AssertionError("the highest root does not carry the largest depth")
        if done := above.bit_count() - reached.bit_count():
            hist[s] = done
        above = reached
        s += 1
        nxt = [0] * len(stage)
        for i, deep in enumerate(stage):
            if deep:
                for j, k in partners[i]:
                    nxt[k] |= deep & columns[j]
        stage = [col & held for col, held in zip(nxt, columns)]
    return hist


def _seed_histogram(rs: RootSystem, method: str, deadline: float, seed: Seed) -> Counter:
    """Histogram of one search subtree, within the deadline.  The oracle
    classifies each block at once (`block_histogram`), every other route
    ideal by ideal."""
    hist: Counter = Counter()
    if method == "oracle":
        antichains = (anti for _, anti in walk(rs, seed))
        for block in budget_blocks(antichains, deadline):
            hist.update(block_histogram(rs, block_columns(rs, block), len(block)))
        return hist
    classify = _class_function(rs, method)
    for block in budget_blocks((ideal for ideal, _ in walk(rs, seed)), deadline):
        hist.update(map(classify, block))
    return hist


def resolve_workers(requested: int | None) -> int:
    """Worker count: explicit request, then the environment, then every
    core this process may run on."""
    if requested is not None:
        if requested < 1:
            raise ValueError(f"workers must be a positive integer, got {requested}")
        return requested
    env = os.environ.get(WORKER_ENV)
    if env:
        try:
            count = int(env)
        except ValueError:
            count = 0
        if count < 1:
            raise ValueError(f"{WORKER_ENV} must be a positive integer, got {env!r}")
        return count
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pooled(nworkers: int, initargs: tuple, seeds: list[Seed]) -> Iterator[Counter]:
    """Seed histograms from a pool of `nworkers` processes, as they finish.
    A worker that dies raises BrokenProcessPool; once anything raises, the
    seeds not yet started are cancelled."""
    # imported on first use: the executor's modules take over 1 MiB of
    # memory that a serial run never needs
    from concurrent.futures import ProcessPoolExecutor, as_completed

    pool = ProcessPoolExecutor(nworkers, initializer=_worker_init, initargs=initargs)
    try:
        futures = [pool.submit(_worker_run, seed) for seed in seeds]
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

    The walk's first-level subtrees (seeds) are classified one by one, or
    fanned out across a pool of processes; results merge by addition, so
    the histogram is deterministic for any worker count.  `budget` caps
    wall time in seconds, checked in every process each `BUDGET_BLOCK`
    ideals; `progress` is called with (done, total) seed counts.  A pool
    worker that dies raises BrokenProcessPool.
    """
    _class_function(rs, method)  # refuse a bad method before any work
    deadline = budget_deadline(budget)
    seeds = partition_seeds(rs)
    nworkers = min(resolve_workers(workers), len(seeds))  # a process idles without a seed
    if nworkers > 1:
        parts = _pooled(nworkers, (rs, method, deadline), seeds)
    else:
        parts = map(partial(_seed_histogram, rs, method, deadline), seeds)
    hist: Counter = Counter()
    for done, part in enumerate(parts, 1):
        hist.update(part)
        if progress:
            progress(done, len(seeds))
    return dict(sorted(hist.items()))


def joint_histogram(rs: RootSystem, method: str = "oracle") -> dict[tuple[int, int], int]:
    """Histogram {(dimension, class): count} over every ideal."""
    classify = _class_function(rs, method)
    return dict(Counter((mask.bit_count(), classify(mask)) for mask, _ in walk(rs)))
