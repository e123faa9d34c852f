"""The benchmark workloads and the exact checks on their results.

A workload is a fixed list of ops.  One pass runs every op once, in an
order the seed permutes.  Each op calls the library through its module
attributes (so a traced run sees the calls), checks every result exactly
through the ``Gate``, and returns the number of work items it produced:
ideals classified or suite rows.

Import this module only once ``adnil`` is importable.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from adnil import checks, cli, closedform, ideals, nilpotence, rootsys

class Gate:
    """Exact comparisons; each mismatch is charged to the op attempt
    running (or named), and an attempt with any mismatch has failed.

    With `corrupt_first`, the first expected value the gate sees is
    altered before comparing, to show that the gate catches a wrong row.
    Ops therefore check their reference row first.
    """

    def __init__(self, corrupt_first: bool = False):
        self.corrupt = corrupt_first
        self.attempted = 0
        self.failures: list[tuple[int, str, str]] = []  # (attempt, op, message)
        self._attempt_of: dict[str, int] = {}
        self._op = ""

    def begin(self, op: str) -> None:
        self.attempted += 1
        self._op = op
        self._attempt_of[op] = self.attempted

    @property
    def failed(self) -> int:
        return len({attempt for attempt, _, _ in self.failures})

    def expect(self, what: str, got, want) -> None:
        if self.corrupt:
            want = _corrupted(want)
            self.corrupt = False
        if got == want:
            return
        if isinstance(got, (tuple, list)) and isinstance(want, (tuple, list)):
            diff = [i for i, (g, w) in enumerate(zip(got, want)) if g != w][:3]
            if len(got) != len(want):
                self.fail(f"{what}: {len(got)} entries, want {len(want)}")
            else:
                self.fail(f"{what}: entries {diff} are {[got[i] for i in diff]}, "
                          f"want {[want[i] for i in diff]}")
        else:
            self.fail(f"{what}: got {_short(got)}, want {_short(want)}")

    def fail(self, message: str, op: str | None = None) -> None:
        """Record a failure of the running op, or of this pass's `op`."""
        op = op or self._op
        self.failures.append((self._attempt_of[op], op, message))


def _corrupted(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, dict):
        key = next(iter(value), 0)
        return {**value, key: value.get(key, 0) + 1}
    if isinstance(value, (tuple, list)):
        return type(value)([_corrupted(value[0]), *value[1:]] if value else ["corrupted"])
    raise TypeError(f"cannot corrupt {type(value).__name__}")


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 160 else text[:157] + "..."


@dataclass
class Context:
    """Inputs fixed at set-up: root systems, pool size, reference rows.

    `progress`, set only in a traced run, makes the `progress` callback
    for a pooled type."""

    rs: dict
    workers: int
    reference: dict
    progress: Callable | None = None
    pass_results: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable  # (gate, ctx) -> work items produced


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    item: str  # what one work item is, for items_per_s
    labels: tuple[str, ...]  # root systems built during set-up
    ops: tuple[Op, ...]
    finish: Callable | None = None  # (gate, ctx) cross-op checks after a pass
    pooled: bool = False  # its ops keep a pool of `Context.workers` processes busy
    walk_types: tuple[str, ...] = ()  # walks timed after the traced passes
    serial_probe: str | None = None  # pooled type also run serially when traced


def _row(dist: dict[int, int], length: int) -> tuple[int, ...]:
    return tuple(dist.get(k, 0) for k in range(max(length, max(dist) + 1)))


# ---------------------------------------------------------------------------
# exceptional-table: the paper's Table 1 through the worker pool


def _exceptional(label: str) -> Op:
    def run(gate: Gate, ctx: Context) -> int:
        progress = ctx.progress(label) if ctx.progress else None
        dist = nilpotence.class_distribution(
            ctx.rs[label], "oracle", workers=ctx.workers, progress=progress
        )
        text = cli.format_distribution(dist, "json", label)
        back = cli.parse_distribution(text, "json")
        want = ctx.reference[label]
        gate.expect(f"{label} class row", _row(back, len(want)), want)
        gate.expect(f"{label} JSON round trip", back, dist)
        gate.expect(f"{label} total", sum(back.values()), rootsys.total_count_formula(label))
        return sum(dist.values())

    return Op(label, run)


EXCEPTIONAL = Workload(
    name="exceptional-table",
    why=(
        "Table 1 for E6-E8 with the oracle on a pool of nproc workers plus a "
        "JSON round trip: oracle, pool and merge dominate"
    ),
    item="ideals",
    labels=("E6", "E7", "E8"),
    ops=tuple(_exceptional(label) for label in ("E6", "E7", "E8")),
    pooled=True,
    walk_types=("E8",),
    serial_probe="E8",
)


# ---------------------------------------------------------------------------
# classical-routes: every diagram route, serial, one walk per distribution

_ROUTES = {
    "A10": ("oracle", "zigzag", "recursion", "filling"),
    "B8": ("oracle", "completion", "tworay"),
    "C8": ("oracle", "completion", "ray"),
    "D8": ("oracle", "completion", "tworay"),
}


def _chain_sum_row(label: str) -> dict[int, int] | None:
    """Closed-form class row for the types that have one (A and C)."""
    n = int(label[1:])
    if label[0] == "A":
        counts = {K: closedform.alpha_A(n, K) for K in range(n + 1)}
    elif label[0] == "C":
        counts = {K: closedform.gamma_C(n, K) for K in range(2 * n)}
    else:
        return None
    return {K: c for K, c in counts.items() if c}


def _classical(label: str, method: str) -> Op:
    def run(gate: Gate, ctx: Context) -> int:
        dist = nilpotence.class_distribution(ctx.rs[label], method, workers=1)
        want = _chain_sum_row(label)
        if want is not None:
            gate.expect(f"{label} {method} chain-sum row", dist, want)
        gate.expect(
            f"{label} {method} total", sum(dist.values()), rootsys.total_count_formula(label)
        )
        ctx.pass_results[(label, method)] = dist
        return sum(dist.values())

    return Op(f"{label} {method}", run)


def _routes_agree(gate: Gate, ctx: Context) -> None:
    for label, methods in _ROUTES.items():
        oracle = ctx.pass_results.get((label, "oracle"))
        for method in methods[1:]:
            got = ctx.pass_results.get((label, method))
            if oracle is not None and got is not None and got != oracle:
                gate.fail(f"{label} {method} differs from the oracle", f"{label} {method}")
    ctx.pass_results.clear()


CLASSICAL = Workload(
    name="classical-routes",
    why=(
        "A10, B8, C8, D8 through every diagram route and the oracle, serial: "
        "per-ideal routes dominate, no pool runs"
    ),
    item="ideals",
    labels=tuple(_ROUTES),
    ops=tuple(_classical(label, m) for label, methods in _ROUTES.items() for m in methods),
    finish=_routes_agree,
    walk_types=tuple(_ROUTES),
)


# ---------------------------------------------------------------------------
# verify-suites: many small enumerations, rebuilt suite after suite

SUITE_NAMES = ("totals", "formulas", "gf", "paths", "abelian", "series", "agreement")


def _suite(name: str) -> Op:
    def run(gate: Gate, ctx: Context) -> int:
        rows = checks.run_suite(name, workers=1)
        gate.expect(f"suite {name} failed rows", [str(r) for r in rows if not r.passed], [])
        gate.expect(f"suite {name} row count > 0", bool(rows), True)
        return len(rows)

    return Op(name, run)


VERIFY = Workload(
    name="verify-suites",
    why=(
        "Seven verify suites with serial enumeration: many small types rebuilt "
        "and re-walked suite after suite"
    ),
    item="rows",
    labels=(),
    ops=tuple(_suite(name) for name in SUITE_NAMES),
)


def run_probes(workload: Workload, gate: Gate, ctx: Context) -> None:
    """Checked calls made after the traced passes: the walks whose time
    classify_us subtracts, and one serial run of the pooled type, whose
    time sets the pool efficiency."""
    for label in workload.walk_types:
        gate.begin(f"walk {label}")
        masks = ideals.enumerate_ideal_masks(ctx.rs[label])
        gate.expect(f"{label} ideal count", len(masks), rootsys.total_count_formula(label))
    if workload.serial_probe:
        label = workload.serial_probe
        gate.begin(f"{label} serial")
        dist = nilpotence.class_distribution(ctx.rs[label], "oracle", workers=1)
        want = ctx.reference[label]
        gate.expect(f"{label} serial class row", _row(dist, len(want)), want)


WORKLOADS = {w.name: w for w in (EXCEPTIONAL, CLASSICAL, VERIFY)}
