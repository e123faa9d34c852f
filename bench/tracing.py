"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each ``adnil`` layer in the
module namespaces that call them, records one span per call (name,
start, end, parent span, pass id, attributes) in memory, and restores
the original functions afterwards.  Nothing inside ``adnil`` is changed
on disk and nothing is recorded when tracing is off.

The harness adds one span ``bench.op`` around each op of a traced pass;
whatever that span's children do not cover is the harness's own time.

Functions that run once per ideal are deliberately not wrapped: a span
there would cost as much as the work it measures.  Their time is the
self time of the enclosing span (for example ``class_distribution``).
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from pathlib import Path

LAYERS = ("rootsys", "ideals", "nilpotence", "closedform", "genfun", "checks", "cli")


def _label(rs) -> str:
    return str(rs.lie_type)


def _mask_count(args, kwargs, result) -> dict:
    return {"type": _label(args[0]), "ideals": len(result)}


def _distribution(args, kwargs, result) -> dict:
    method = args[1] if len(args) > 1 else kwargs.get("method", "oracle")
    workers = kwargs.get("workers", args[2] if len(args) > 2 else None)
    return {
        "type": _label(args[0]),
        "method": method,
        "workers": workers,
        "ideals": sum(result.values()),
    }


def _joint(args, kwargs, result) -> dict:
    return {"type": _label(args[0]), "ideals": sum(result.values())}


def _build(args, kwargs, result) -> dict:
    return {"type": _label(result)}


def _series(args, kwargs, result) -> dict:
    return {"coeffs": len(result.coefficients)}


def _suite(args, kwargs, result) -> dict:
    return {"suite": args[0], "rows": len(result)}


# (module that calls the function, attribute, span name, attribute extractor)
# Each span name is "<layer>.<function>"; the layer is the module that
# defines the function, whichever namespace the call goes through.  The
# benchmark's own calls go through the defining modules; the library's
# calls go through the names `adnil.checks` and `adnil.nilpotence` import.
_WRAPPED = [
    ("adnil.rootsys", "build_root_system", "rootsys.build_root_system", _build),
    ("adnil.rootsys", "total_count_formula", "rootsys.total_count_formula", None),
    ("adnil.ideals", "enumerate_ideal_masks", "ideals.enumerate_ideal_masks", _mask_count),
    ("adnil.nilpotence", "class_distribution", "nilpotence.class_distribution", _distribution),
    ("adnil.checks", "run_suite", "checks.run_suite", _suite),
    ("adnil.cli", "format_distribution", "cli.format_distribution", None),
    ("adnil.cli", "parse_distribution", "cli.parse_distribution", None),
    ("adnil.checks", "build_root_system", "rootsys.build_root_system", _build),
    ("adnil.checks", "total_count_formula", "rootsys.total_count_formula", None),
    ("adnil.checks", "enumerate_ideal_masks", "ideals.enumerate_ideal_masks", _mask_count),
    ("adnil.checks", "class_distribution", "nilpotence.class_distribution", _distribution),
    ("adnil.checks", "joint_histogram", "nilpotence.joint_histogram", _joint),
    ("adnil.nilpotence", "partition_seeds", "ideals.partition_seeds", None),
    ("adnil.genfun", "series_of_ratio", "genfun.series_of_ratio", _series),
    ("adnil.genfun", "gf_A_le", "genfun.gf_A_le", None),
    ("adnil.genfun", "gf_B_le", "genfun.gf_B_le", None),
    ("adnil.genfun", "gf_C_le", "genfun.gf_C_le", None),
    ("adnil.genfun", "gf_D_le", "genfun.gf_D_le", None),
    ("adnil.genfun", "gf_B_K", "genfun.gf_B_K", None),
    ("adnil.genfun", "gf_D_K", "genfun.gf_D_K", None),
    ("adnil.genfun", "verify_cf_identity", "genfun.verify_cf_identity", None),
    ("adnil.closedform", "alpha_A", "closedform.alpha_A", None),
    ("adnil.closedform", "gamma_C", "closedform.gamma_C", None),
    ("adnil.closedform", "catalan_qt", "closedform.catalan_qt", None),
    ("adnil.closedform", "gamma_qt", "closedform.gamma_qt", None),
    ("adnil.closedform", "path_count_height", "closedform.path_count_height", None),
    ("adnil.closedform", "c4_count", "closedform.c4_count", None),
    ("adnil.closedform", "corollary_values", "closedform.corollary_values", None),
]


class Recorder:
    """In-memory spans: [name, start, end, parent index, pass id, attrs].

    The attrs of a span whose call raised stay empty."""

    def __init__(self):
        self.spans: list[list] = []
        self.progress_marks: dict[tuple, list[float]] = {}
        self.pass_id = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn, extract=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if extract is not None:
                    span[5] = extract(args, kwargs, result)
                return result

        return traced

    def pass_ids(self) -> list[int]:
        """Ids of the traced passes."""
        return sorted({s[4] for s in self.spans if isinstance(s[4], int)})

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around the block; yields its record."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.pass_id, {}]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def progress(self, label: str):
        marks = self.progress_marks.setdefault((self.pass_id, label), [])

        def record(done: int, total: int) -> None:
            marks.append(time.perf_counter())

        return record

    def install(self) -> None:
        """Replace each call target in `_WRAPPED` by a traced wrapper."""
        for module, attr, name, extract in _WRAPPED:
            mod = importlib.import_module(module)
            original = getattr(mod, attr)
            self._patched.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original, extract))

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["name", "start", "end", "parent", "pass", "attrs"],
            "spans": self.spans,
            "progress": [
                {"pass": p, "type": label, "marks": marks}
                for (p, label), marks in self.progress_marks.items()
            ],
        }
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own

