"""Command-line front end.

Subcommands: ``roots`` (positive-root listing), ``enumerate`` (one row per
ideal), ``table`` (class-of-nilpotence distribution), ``verify`` (the
cross-check suites), ``gf`` (series expansion) and ``qt`` (joint dimension
histograms).  Tables export as CSV or JSON; counts are serialized as
decimal strings so arbitrarily large values survive the round trip.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys

from .checks import SUITES, refuse_huge, run_suite
from .closedform import catalan_qt, gamma_qt
from .genfun import family_series
from .nilpotence import (
    BUDGET_BLOCK,
    POOL_MIN_IDEALS,
    ROUTES,
    WORKER_ENV,
    budget_deadline,
    class_distribution,
    classified_blocks,
    resolve_workers,
)
from .rootsys import LieType, RootSystem, build_root_system, positive_root_count

# `qt` runs one transfer DP over chain tails, on packed ints.  Type C is
# the slower family: end to end on a 2-CPU host, C36 took 7-9.5 s, C37
# 9-10 s and C38 11-15 s (A37 about 4 s); the cost grows about 1.2x per
# rank, so rank 37 is the last one run
MAX_QT_RANK = 37

# `gf` at class 500 and order 2000 takes about 4 s in its slowest family
# (B or D, exact class); the cost grows with the square of the class and
# of the order (class 1000 at order 2000 takes 15-18 s), so no more is run
MAX_GF_CLASS = 500
MAX_GF_ORDER = 2000

# `roots` builds the root sum tables, whose cost grows with the square of
# the number of positive roots: end to end on a 2-CPU host, A84 (3570
# roots; type A, of the highest rank for its count, is the slowest) took
# 1.5-1.7 s and B60 (3600) 1.3-1.5 s, so 3600 roots are the most listed
MAX_ROOTS = 3600


# ---------------------------------------------------------------------------
# distribution serialization


def _format(fmt: str, doc, header: list[str], rows) -> str:
    """The one CSV/JSON writer of the commands: ``doc()`` as indented
    JSON, or CSV, the header and then the rows.  Only one side is built."""
    if fmt == "json":
        return json.dumps(doc(), indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def format_distribution(dist: dict[int, int], fmt: str, label: str = "") -> str:
    """Render {class: count} as CSV (``K,count`` rows plus a total row) or
    JSON (counts as decimal strings)."""
    total = sum(dist.values())
    return _format(
        fmt,
        lambda: {
            "type": label,
            "counts": {str(k): str(dist[k]) for k in sorted(dist)},
            "total": str(total),
        },
        ["K", "count"],
        [*((k, dist[k]) for k in sorted(dist)), ("total", total)],
    )


def _decimal(text: object) -> int:
    """The integer spelled by a decimal string: ASCII digits with an
    optional minus sign, nothing else (no number, bool, space or '_')."""
    if not isinstance(text, str) or not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"expected a decimal string, got {text!r}")
    return int(text)


def parse_distribution(text: str, fmt: str) -> dict[int, int]:
    """Inverse of format_distribution; validates the embedded total.
    Malformed input of any shape raises ValueError."""
    dist: dict[int, int] = {}
    total = None
    try:
        if fmt == "json":
            doc = json.loads(text)
            dist = {_decimal(k): _decimal(v) for k, v in doc["counts"].items()}
            total = _decimal(doc["total"])
        else:
            rows = list(csv.reader(io.StringIO(text)))
            if not rows or rows[0] != ["K", "count"]:
                raise ValueError("missing K,count header")
            for row in rows[1:]:
                if total is not None:
                    raise ValueError(f"row {row} after the total row")
                if len(row) != 2:
                    raise ValueError(f"expected two fields, got {row}")
                if row[0] == "total":
                    total = _decimal(row[1])
                    continue
                k = _decimal(row[0])
                if k in dist:
                    raise ValueError(f"class {k} listed twice")
                dist[k] = _decimal(row[1])
    except (LookupError, TypeError, AttributeError, OverflowError, RecursionError,
            csv.Error) as exc:
        raise ValueError(f"malformed {fmt} distribution: {exc!r}") from exc
    if total is None:
        raise ValueError("missing total row")
    if total != sum(dist.values()):
        raise ValueError(f"total {total} != sum of counts {sum(dist.values())}")
    if any(v < 0 for v in dist.values()):  # so the total is nonnegative too
        raise ValueError("counts must be nonnegative")
    return dist


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands


def cmd_roots(args: argparse.Namespace) -> int:
    size = positive_root_count(args.lie_type)
    if size > MAX_ROOTS:
        raise ValueError(
            f"roots lists at most {MAX_ROOTS} positive roots, {args.lie_type} has {size}"
        )
    rs = build_root_system(args.lie_type)
    _emit(_format(
        args.format,
        lambda: {
            "type": str(rs.lie_type),
            "rank": rs.lie_type.rank,
            "positive_roots": [list(r) for r in rs.positive_roots],
            "highest_root": list(rs.highest_root) if rs.highest_root else None,
            "exponents": list(rs.exponents),
            "coxeter_number": rs.coxeter_number,
        },
        ["index", "height", "coefficients"],
        ((i, sum(r), " ".join(map(str, r))) for i, r in enumerate(rs.positive_roots)),
    ), args.output)
    return 0


def _enumerable(lt: LieType) -> RootSystem:
    """The root system of a type with at most MAX_IDEALS ideals, counted
    before anything is built (`refuse_huge`)."""
    refuse_huge(str(lt), [lt])
    return build_root_system(lt)


def cmd_enumerate(args: argparse.Namespace) -> int:
    rs = _enumerable(args.lie_type)
    blocks = classified_blocks(rs, args.method)
    rows = [(m, m.bit_count(), k) for block, ks in blocks for m, k in zip(block, ks)]
    _emit(_format(
        args.format,
        lambda: {
            "type": str(rs.lie_type),
            "method": args.method,
            "ideals": [
                {"mask": str(m), "dimension": d, "class": k} for m, d, k in rows
            ],
        },
        ["mask", "dimension", "class"],
        rows,
    ), args.output)
    return 0


def _stderr_progress(done: int, total: int) -> None:
    sys.stderr.write(f"\rideals {done}/{total}")
    sys.stderr.flush()
    if done == total:
        sys.stderr.write("\n")


def cmd_table(args: argparse.Namespace) -> int:
    rs = _enumerable(args.lie_type)
    progress = _stderr_progress if len(rs) >= 100 else None
    dist = class_distribution(
        rs, args.method, workers=args.workers, budget=args.budget, progress=progress
    )
    full = {k: dist.get(k, 0) for k in range(max(dist) + 1)}
    _emit(format_distribution(full, args.format, str(rs.lie_type)), args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite != "agreement" and (args.family or args.max_rank is not None):
        raise ValueError(f"--family and --max-rank apply to agreement only, not {args.suite}")
    if args.suite != "table1" and args.workers is not None:
        raise ValueError(f"--workers applies to table1 only, not {args.suite}")
    if args.suite not in ("agreement", "table1") and args.budget is not None:
        raise ValueError(f"--budget applies to agreement and table1 only, not {args.suite}")
    results = run_suite(
        args.suite,
        family=args.family,
        max_rank=args.max_rank,
        workers=args.workers,
        budget=args.budget,
    )
    if not results:
        raise ValueError(f"suite {args.suite} ran no checks")
    lines = []
    failed = 0
    for res in results:
        lines.append(str(res))
        if not res.passed:
            failed += 1
            if not args.keep_going:
                break
    shown = len(lines)
    lines.append(f"{shown - failed}/{shown} checks passed ({args.suite})")
    _emit("\n".join(lines) + "\n", args.output)
    return 1 if failed else 0


def cmd_gf(args: argparse.Namespace) -> int:
    kind, bound = ("exact", args.exact) if args.le is None else ("le", args.le)
    if bound < 0:
        raise ValueError("class bound must be nonnegative")
    if args.order < 1:
        raise ValueError("--order must be at least 1")
    if bound > MAX_GF_CLASS or args.order > MAX_GF_ORDER:
        raise ValueError(
            f"gf expands classes up to {MAX_GF_CLASS} and orders up to {MAX_GF_ORDER}, "
            f"got class {bound} and order {args.order}"
        )
    series = family_series(args.family, bound, args.order, exact=kind == "exact")
    coeffs = [series[n] for n in range(args.order + 1)]
    _emit(_format(
        args.format,
        lambda: {
            "family": args.family,
            kind: bound,
            "order": args.order,
            "coefficients": [str(c) for c in coeffs],
        },
        ["n", "coefficient"],
        enumerate(coeffs),
    ), args.output)
    return 0


def cmd_qt(args: argparse.Namespace) -> int:
    if args.lie_type.family not in "AC":
        raise ValueError("qt polynomials are defined for families A and C")
    n = args.lie_type.rank
    if n > MAX_QT_RANK:
        raise ValueError(f"qt refuses ranks above {MAX_QT_RANK}, got rank {n}")
    coeffs = catalan_qt(n) if args.lie_type.family == "A" else gamma_qt(n)
    terms = sorted(coeffs.items())
    _emit(_format(
        args.format,
        lambda: {
            "type": str(args.lie_type),
            "terms": [{"q": q, "t": t, "coeff": str(c)} for (q, t), c in terms],
        },
        ["q", "t", "coeff"],
        ((q, t, c) for (q, t), c in terms),
    ), args.output)
    return 0


COMMANDS = {
    "roots": cmd_roots,
    "enumerate": cmd_enumerate,
    "table": cmd_table,
    "verify": cmd_verify,
    "gf": cmd_gf,
    "qt": cmd_qt,
}


# ---------------------------------------------------------------------------
# argument parsing


def _add_type_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--type", help="Lie type label, e.g. B3 (or a family letter with --rank)")
    sub.add_argument("--family", choices=list("ABCDEFG"), help="family letter")
    sub.add_argument("--rank", type=int, help="rank, combined with a family letter")


def _add_output_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=["csv", "json"], default="csv")
    sub.add_argument("--output", help="write to this path instead of stdout")


def _resolve_type(args: argparse.Namespace) -> LieType:
    label = args.type
    family = args.family
    if label and len(label) == 1 and label.isalpha():
        family, label = label.upper(), None
    if label:
        return LieType.parse(label)
    if family and args.rank is not None:
        return LieType(family, args.rank)
    raise ValueError("specify --type LABEL or a family letter plus --rank")


class _Parser(argparse.ArgumentParser):
    """A parser, subcommands' too, whose refusal raises ValueError: `main`
    reports it in one `error:` line with status 2, not argparse's usage."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="adnil",
        description="Enumerate ad-nilpotent ideals and verify their statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="list the positive roots")
    _add_type_args(p)
    _add_output_args(p)

    p = sub.add_parser("enumerate", help="list every ideal with its class")
    _add_type_args(p)
    _add_output_args(p)
    p.add_argument("--method", choices=list(ROUTES), default="oracle")

    p = sub.add_parser("table", help="class-of-nilpotence distribution")
    _add_type_args(p)
    _add_output_args(p)
    p.add_argument("--method", choices=list(ROUTES), default="oracle")
    p.add_argument("--workers", type=int, help=f"largest process count (default: ${WORKER_ENV}, then "
                   f"one for a type under {POOL_MIN_IDEALS} ideals, else all cores); "
                   f"never more than the type's full blocks of {BUDGET_BLOCK} ideals")
    p.add_argument("--budget", type=float, help="wall-time cap in seconds")

    p = sub.add_parser("verify", help="run a cross-check suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--family", choices=list("ABCD"), help="restrict agreement suite")
    p.add_argument("--max-rank", type=int, dest="max_rank")
    p.add_argument("--keep-going", action="store_true", dest="keep_going",
                   help="report every failure instead of stopping at the first")
    p.add_argument("--workers", type=int)
    p.add_argument("--budget", type=float)
    # plain text only, so no --format
    p.add_argument("--output", help="write to this path instead of stdout")

    p = sub.add_parser("gf", help="expand a counting series")
    p.add_argument("--family", choices=list("ABCD"), required=True)
    bound = p.add_mutually_exclusive_group(required=True)
    bound.add_argument("--le", type=int, help="count ideals of class at most this")
    bound.add_argument("--exact", type=int, help="count ideals of exactly this class")
    p.add_argument("--order", type=int, default=12, help="highest power expanded")
    _add_output_args(p)

    p = sub.add_parser("qt", help="joint (dimension, class) polynomial for A or C")
    _add_type_args(p)
    _add_output_args(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command in ("roots", "enumerate", "table", "qt"):
            args.lie_type = _resolve_type(args)
        # refuse a bad count or budget for every command, also where unused
        if getattr(args, "workers", None) is not None:
            resolve_workers(args.workers)
        if getattr(args, "budget", None) is not None:
            budget_deadline(args.budget)
        return COMMANDS[args.command](args)
    except TimeoutError as exc:  # an OSError, so caught before the others
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # a pool whose worker died; imported only now, like the pool itself
        from concurrent.futures import BrokenExecutor

        if not isinstance(exc, BrokenExecutor):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
