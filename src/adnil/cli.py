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
from dataclasses import dataclass

from .checks import SUITES, refuse_huge, run_suite
from .closedform import catalan_qt, gamma_qt
from .genfun import family_series
from .ideals import enumerate_ideal_masks
from .nilpotence import (
    ROUTES,
    budget_deadline,
    class_distribution,
    classify_ideal,
    resolve_workers,
)
from .rootsys import LieType, RootSystem, build_root_system, total_count_formula

# `qt` sums over 2^rank chains: A16 takes about 12 s and each further rank
# doubles that, so rank 18 (about a minute for A18) is the last one run
MAX_QT_RANK = 18

# `gf` at class 500 and order 2000 takes about 4 s in its slowest family
# (B or D, exact class); the cost grows with the square of the class and
# of the order (class 1000 at order 2000 takes 15-18 s), so no more is run
MAX_GF_CLASS = 500
MAX_GF_ORDER = 2000


@dataclass(frozen=True)
class RunConfig:
    """Everything a command run depends on; output is a function of this."""

    command: str
    lie_type: LieType | None = None
    method: str = "oracle"
    order: int = 12
    format: str = "csv"
    workers: int | None = None
    output: str | None = None
    budget: float | None = None
    suite: str | None = None
    family: str | None = None
    max_rank: int | None = None
    keep_going: bool = False
    le: int | None = None
    exact: int | None = None


# ---------------------------------------------------------------------------
# distribution serialization


def format_distribution(dist: dict[int, int], fmt: str, label: str = "") -> str:
    """Render {class: count} as CSV (``K,count`` rows plus a total row) or
    JSON (counts as decimal strings)."""
    total = sum(dist.values())
    if fmt == "json":
        doc = {
            "type": label,
            "counts": {str(k): str(dist[k]) for k in sorted(dist)},
            "total": str(total),
        }
        return json.dumps(doc, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["K", "count"])
    for k in sorted(dist):
        writer.writerow([k, dist[k]])
    writer.writerow(["total", total])
    return buf.getvalue()


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


def cmd_roots(cfg: RunConfig) -> int:
    rs = build_root_system(cfg.lie_type)
    if cfg.format == "json":
        doc = {
            "type": str(rs.lie_type),
            "rank": rs.lie_type.rank,
            "positive_roots": [list(r) for r in rs.positive_roots],
            "highest_root": list(rs.highest_root) if rs.highest_root else None,
            "exponents": list(rs.exponents),
            "coxeter_number": rs.coxeter_number,
        }
        _emit(json.dumps(doc, indent=2) + "\n", cfg.output)
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "height", "coefficients"])
    for i, root in enumerate(rs.positive_roots):
        writer.writerow([i, sum(root), " ".join(map(str, root))])
    _emit(buf.getvalue(), cfg.output)
    return 0


def _enumerable(lt: LieType) -> RootSystem:
    """The root system of a type with at most MAX_IDEALS ideals, counted
    exactly by the product formula before anything is built."""
    refuse_huge(str(lt), total_count_formula(lt))
    return build_root_system(lt)


def cmd_enumerate(cfg: RunConfig) -> int:
    rs = _enumerable(cfg.lie_type)
    rows = [
        (mask, mask.bit_count(), classify_ideal(rs, mask, cfg.method))
        for mask in enumerate_ideal_masks(rs)
    ]
    if cfg.format == "json":
        doc = {
            "type": str(rs.lie_type),
            "method": cfg.method,
            "ideals": [
                {"mask": str(m), "dimension": d, "class": k} for m, d, k in rows
            ],
        }
        _emit(json.dumps(doc, indent=2) + "\n", cfg.output)
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["mask", "dimension", "class"])
    writer.writerows(rows)
    _emit(buf.getvalue(), cfg.output)
    return 0


def _stderr_progress(done: int, total: int) -> None:
    sys.stderr.write(f"\rseeds {done}/{total}")
    sys.stderr.flush()
    if done == total:
        sys.stderr.write("\n")


def cmd_table(cfg: RunConfig) -> int:
    rs = _enumerable(cfg.lie_type)
    progress = _stderr_progress if len(rs) >= 100 else None
    dist = class_distribution(
        rs, cfg.method, workers=cfg.workers, budget=cfg.budget, progress=progress
    )
    full = {k: dist.get(k, 0) for k in range(max(dist) + 1)}
    _emit(format_distribution(full, cfg.format, str(rs.lie_type)), cfg.output)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    results = run_suite(
        cfg.suite,
        family=cfg.family,
        max_rank=cfg.max_rank,
        workers=cfg.workers,
        budget=cfg.budget,
    )
    if not results:
        raise ValueError(f"suite {cfg.suite} ran no checks")
    lines = []
    failed = 0
    for res in results:
        lines.append(str(res))
        if not res.passed:
            failed += 1
            if not cfg.keep_going:
                break
    shown = len(lines)
    lines.append(f"{shown - failed}/{shown} checks passed ({cfg.suite})")
    _emit("\n".join(lines) + "\n", cfg.output)
    return 1 if failed else 0


def cmd_gf(cfg: RunConfig) -> int:
    kind, bound = ("exact", cfg.exact) if cfg.le is None else ("le", cfg.le)
    if bound > MAX_GF_CLASS or cfg.order > MAX_GF_ORDER:
        raise ValueError(
            f"gf expands classes up to {MAX_GF_CLASS} and orders up to {MAX_GF_ORDER}, "
            f"got class {bound} and order {cfg.order}"
        )
    series = family_series(cfg.family, bound, cfg.order, exact=kind == "exact")
    coeffs = [series[n] for n in range(cfg.order + 1)]
    if cfg.format == "json":
        doc = {
            "family": cfg.family,
            kind: bound,
            "order": cfg.order,
            "coefficients": [str(c) for c in coeffs],
        }
        _emit(json.dumps(doc, indent=2) + "\n", cfg.output)
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "coefficient"])
    for n, c in enumerate(coeffs):
        writer.writerow([n, c])
    _emit(buf.getvalue(), cfg.output)
    return 0


def cmd_qt(cfg: RunConfig) -> int:
    n = cfg.lie_type.rank
    if n > MAX_QT_RANK:
        raise ValueError(f"qt sums over 2^{n} chains; ranks above {MAX_QT_RANK} are refused")
    coeffs = catalan_qt(n) if cfg.lie_type.family == "A" else gamma_qt(n)
    terms = sorted(coeffs.items())
    if cfg.format == "json":
        doc = {
            "type": str(cfg.lie_type),
            "terms": [
                {"q": q, "t": t, "coeff": str(c)} for (q, t), c in terms
            ],
        }
        _emit(json.dumps(doc, indent=2) + "\n", cfg.output)
        return 0
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["q", "t", "coeff"])
    for (q, t), c in terms:
        writer.writerow([q, t, c])
    _emit(buf.getvalue(), cfg.output)
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


def _resolve_type(parser: argparse.ArgumentParser, args: argparse.Namespace) -> LieType:
    label = args.type
    family = args.family
    if label and len(label) == 1 and label.isalpha():
        family, label = label.upper(), None
    try:
        if label:
            return LieType.parse(label)
        if family and args.rank is not None:
            return LieType(family, args.rank)
    except ValueError as exc:
        parser.error(str(exc))
    parser.error("specify --type LABEL or a family letter plus --rank")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--workers", type=int, help="process count (default: env, then all cores)")
    p.add_argument("--budget", type=float, help="wall-time cap in seconds")

    p = sub.add_parser("verify", help="run a cross-check suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--family", choices=list("ABCD"), help="restrict agreement suite")
    p.add_argument("--max-rank", type=int, dest="max_rank")
    p.add_argument("--keep-going", action="store_true", dest="keep_going",
                   help="report every failure instead of stopping at the first")
    p.add_argument("--workers", type=int)
    p.add_argument("--budget", type=float)
    _add_output_args(p)

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


def parse_config(argv: list[str] | None = None) -> RunConfig:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = {"command": args.command, "format": getattr(args, "format", "csv")}
    for field in ("method", "order", "workers", "output", "budget", "suite",
                  "family", "max_rank", "keep_going", "le", "exact"):
        if getattr(args, field, None) is not None:
            cfg[field] = getattr(args, field)
    if args.command in ("roots", "enumerate", "table", "qt"):
        cfg["lie_type"] = _resolve_type(parser, args)
        if args.command == "qt" and cfg["lie_type"].family not in "AC":
            parser.error("qt polynomials are defined for families A and C")
    if args.command == "gf":
        if (args.le if args.le is not None else args.exact) < 0:
            parser.error("class bound must be nonnegative")
        if args.order < 1:
            parser.error("--order must be at least 1")
    return RunConfig(**cfg)


def main(argv: list[str] | None = None) -> int:
    cfg = parse_config(argv)
    try:
        # refuse a bad count or budget for every command, also where unused
        if cfg.workers is not None:
            resolve_workers(cfg.workers)
        if cfg.budget is not None:
            budget_deadline(cfg.budget)
        return COMMANDS[cfg.command](cfg)
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
