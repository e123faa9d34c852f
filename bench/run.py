"""Benchmark harness for the adnil package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S
    python3 bench/run.py --workload NAME --seed N --seconds S --self-check

It imports ``adnil`` from ``src/`` next to this directory and drives it
in-process from one client in a closed loop: each op starts when the
previous one ends.  Only `exceptional-table` makes the library start a
pool, with one worker per CPU this process may run on.  Every result is checked
exactly; an op that raises or mismatches counts as failed, and any
failure makes the exit status 1.

Times with a bound (`setup_s`, `pass_s`) are in reference seconds: wall
seconds scaled by how fast this host ran a fixed calibration kernel over
the same run (see `reference_scale`).  The report prints the wall
seconds beside them.

With ``--trace 0`` the run measures the end-to-end metrics.  With
``--trace 1`` it runs untraced passes, then traced passes that record a
span around each call into a library layer, and reports the per-layer
split; the spans are written to ``.bench_out/`` when the run ends.
``--self-check`` corrupts one expected value to show the gate catches
it, so that run exits 1.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import multiprocessing
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS, Recorder, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_BEFORE, SETUP_PER_PASS = 3, 2  # set-ups timed before the first pass and after each
CAL_REF_S = 0.006  # kernel time that defines one reference second
METHODS = ("oracle", "zigzag", "recursion", "filling", "completion", "ray", "tworay")


class SetupError(Exception):
    """The checkout does not hold the adnil sources."""


# ---------------------------------------------------------------------------
# set-up


def import_adnil():
    """Put `src/` first on the path, import adnil, and return the workloads."""
    if not (SRC / "adnil" / "__init__.py").is_file():
        raise SetupError(f"no adnil package under {SRC}")
    sys.path.insert(0, str(SRC))
    adnil = importlib.import_module("adnil")
    if Path(adnil.__file__).resolve().parent != (SRC / "adnil").resolve():
        raise SetupError(f"adnil imported from {adnil.__file__}, not from {SRC}")
    return importlib.import_module("workloads")


def _adnil_modules() -> list[str]:
    return [m for m in sys.modules if m == "adnil" or m.startswith("adnil.")]


def set_up(workload) -> float:
    """Seconds to import adnil afresh and build the workload's root systems.

    The fresh modules are dropped afterwards and the ones loaded first are
    put back, so the ops and the tracer keep one set of modules however
    often set-up is timed."""
    loaded = {m: sys.modules.pop(m) for m in _adnil_modules()}
    start = time.perf_counter()
    importlib.import_module("adnil")
    rootsys = importlib.import_module("adnil.rootsys")
    for label in workload.labels:
        rootsys.build_root_system(label)
    elapsed = time.perf_counter() - start
    for m in _adnil_modules():
        del sys.modules[m]
    sys.modules.update(loaded)
    return elapsed


# ---------------------------------------------------------------------------
# host speed


def _kernel() -> int:
    """Fixed pure-Python work: an integer loop, then small lists built and
    reduced, as in the library's per-ideal code."""
    total = 0
    for i in range(45_000):
        total += i * i
    for i in range(2_000):
        parts = [i & 7, i >> 3, i % 11]
        total += max(parts) + len(parts)
    return total


def _timed_kernel(_=None) -> float:
    """Median time of three runs of the calibration kernel."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class HostClock:
    """Calibration samples of one run.

    Each sample times the kernel at once on as many CPUs as the workload
    keeps busy, and keeps the mean: a pool's speed depends on every CPU it
    runs on, and one CPU can be slowed while the other is not.  The
    kernel's pool is forked, like the library's: a spawned pool would
    also start multiprocessing's resource tracker, a process that outlives
    `close` and ends only after the harness has exited."""

    def __init__(self, cpus: int):
        self.samples: list[float] = []
        self.cpus = cpus
        fork = multiprocessing.get_context("fork")
        self._pool = fork.Pool(cpus) if cpus > 1 else None

    def sample(self) -> float:
        if self._pool is None:
            times = [_timed_kernel()]
        else:
            times = self._pool.map(_timed_kernel, range(self.cpus), chunksize=1)
        self.samples.append(statistics.mean(times))
        return self.samples[-1]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()


def reference_scale(samples: list[float]) -> float:
    """Factor from wall seconds to reference seconds for one run.

    On a shared 2-CPU virtual machine the host's speed was seen to drift
    by up to 1.8x, switching within seconds and staying slow or fast for
    minutes, and wall times follow it.  The kernel, timed between ops all
    through the run, follows much of the same drift, so a time divided by
    the kernel's mean time over the run varies less.  A reference second
    is the time in which the kernel would take `CAL_REF_S`."""
    return CAL_REF_S / statistics.mean(samples)


# ---------------------------------------------------------------------------
# passes


def run_pass(workload, gate, ctx, rng: random.Random, clock: HostClock,
             recorder: Recorder | None = None) -> tuple[float, int]:
    """Run each op once, in an order drawn from `rng`, timing the host
    before each.  Returns the pass's wall seconds (its ops only) and the
    items made.  With a recorder, each op is a span `bench.op`."""
    order = list(workload.ops)
    rng.shuffle(order)
    wall, items = 0.0, 0
    for op in order:
        clock.sample()
        gate.begin(op.name)
        start = time.perf_counter()
        try:
            with recorder.span("bench.op") if recorder else contextlib.nullcontext():
                items += op.run(gate, ctx)
        except Exception as exc:  # an op that raises counts as failed
            gate.fail(f"raised {type(exc).__name__}: {exc}")
        wall += time.perf_counter() - start
    if workload.finish is not None:
        workload.finish(gate, ctx)
    return wall, items


def run_passes(workload, gate, ctx, rng, budget, clock, between=None,
               recorder=None) -> list[tuple[float, int]]:
    """Closed loop of passes for about `budget` seconds, at least one.

    A new pass starts only if, taking the median pass so far, it would end
    less than half a pass after the budget, so the run ends within half a
    pass of `budget`, on either side.  `between` runs after each pass.
    Returns (wall seconds, items) per pass.  With a recorder, the spans of
    pass i carry pass id i."""
    results = []
    started = time.perf_counter()
    while True:
        if recorder is not None:
            recorder.pass_id = len(results)
        results.append(run_pass(workload, gate, ctx, rng, clock, recorder))
        if between is not None:
            between()
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(r[0] for r in results) / 2 > budget:
            return results


# ---------------------------------------------------------------------------
# metrics


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    return (100 * (n - 10)) // n, sorted(values)[n - 11]


def rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(setups: list[tuple[float, float]], passes, cal: list[float]) -> dict:
    """Set-up is the median of the run's set-ups, each scaled by a one-CPU
    kernel time taken just before it; the pass time is the mean over the
    run's passes, scaled by the run's calibration samples.  Both are in
    reference seconds."""
    return {
        "setup_s": (statistics.median(wall * CAL_REF_S / c for wall, c in setups), "s"),
        "pass_s": (statistics.mean(wall for wall, _ in passes) * reference_scale(cal), "s"),
        "peak_rss_mib": (rss_mib(resource.RUSAGE_SELF), "MiB"),
    }


def per_layer_units(suites) -> dict[str, str]:
    """Every per-layer metric and its unit."""
    return {
        "rootsys.build_s": "s",
        "rootsys.builds": "count",
        "ideals.walk_s": "s",
        "ideals.walk_ns_per_ideal": "ns",
        "ideals.enumerations": "count",
        **{f"nilpotence.classify_us.{m}": "us" for m in METHODS},
        "nilpotence.distribution_s": "s",
        "nilpotence.pool.workers": "count",
        "nilpotence.pool.seeds": "count",
        "nilpotence.pool.first_seed_s": "s",
        "nilpotence.pool.last_seed_gap_s": "s",
        "nilpotence.pool.efficiency": "ratio",
        "closedform.chain_sum_s": "s",
        "closedform.path_row_s": "s",
        "closedform.qt_s": "s",
        "genfun.divide_s": "s",
        "genfun.numerator_s": "s",
        "genfun.coeffs": "count",
        **{f"checks.suite_s.{name}": "s" for name in suites},
        "checks.rows": "count",
        "checks.reuse_ratio": "ratio",
        "cli.roundtrip_s": "s",
        **{f"{layer}.self_s": "s" for layer in LAYERS},
        "trace.other_s": "s",
        "trace.pass_s": "s",
        "trace.overhead_ratio": "ratio",
        "nproc": "count",
        "peak_rss_children_mib": "MiB",
    }


ALWAYS_MEASURED = {"trace.other_s", "trace.pass_s", "trace.overhead_ratio", "nproc"}

# span name -> per-pass metric that adds up the span's self time
SELF_SUMS = {
    "rootsys.build_root_system": "rootsys.build_s",
    "ideals.enumerate_ideal_masks": "ideals.walk_s",
    "ideals.partition_seeds": "ideals.walk_s",
    "nilpotence.class_distribution": "nilpotence.distribution_s",
    "closedform.alpha_A": "closedform.chain_sum_s",
    "closedform.gamma_C": "closedform.chain_sum_s",
    "closedform.path_count_height": "closedform.path_row_s",
    "closedform.catalan_qt": "closedform.qt_s",
    "closedform.gamma_qt": "closedform.qt_s",
    "genfun.series_of_ratio": "genfun.divide_s",
    **{f"genfun.gf_{f}": "genfun.numerator_s" for f in
       ("A_le", "B_le", "C_le", "D_le", "B_K", "D_K")},
    "cli.format_distribution": "cli.roundtrip_s",
    "cli.parse_distribution": "cli.roundtrip_s",
}
ENUMERATIONS = {"ideals.enumerate_ideal_masks", "nilpotence.class_distribution",
                "nilpotence.joint_histogram"}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def pass_quantities(spans, own, pass_id) -> dict[str, float]:
    """Self times per layer and per metric, and counts, for one traced pass.

    A span whose call raised has no attrs; its op has already failed, and
    only its time is counted."""
    q = dict.fromkeys([f"{layer}.self_s" for layer in LAYERS], 0.0)
    q.update(dict.fromkeys(set(SELF_SUMS.values()), 0.0))
    q.update({"trace.pass_s": 0.0, "rootsys.builds": 0, "genfun.coeffs": 0, "checks.rows": 0})
    enumerated = []
    for (name, start, end, _, p, attrs), self_s in zip(spans, own):
        if p != pass_id:
            continue
        if name == "bench.op":
            q["trace.pass_s"] += end - start
            continue
        q[name.split(".", 1)[0] + ".self_s"] += self_s  # span names are "<layer>.<function>"
        if name in SELF_SUMS:
            q[SELF_SUMS[name]] += self_s
        if name == "rootsys.build_root_system":
            q["rootsys.builds"] += 1
        if not attrs:
            continue
        if name in ENUMERATIONS:
            enumerated.append(attrs["type"])
        if name == "genfun.series_of_ratio":
            q["genfun.coeffs"] += attrs["coeffs"]
        elif name == "checks.run_suite":
            q[f"checks.suite_s.{attrs['suite']}"] = end - start
            q["checks.rows"] += attrs["rows"]
    q["ideals.enumerations"] = len(enumerated)
    if enumerated:
        q["checks.reuse_ratio"] = len(set(enumerated)) / len(enumerated)
    # what no layer span covers: the harness's own checks inside the ops
    q["trace.other_s"] = q["trace.pass_s"] - sum(q[f"{layer}.self_s"] for layer in LAYERS)
    return q


def per_layer(workload, suites, ctx, recorder: Recorder, untraced,
              traced_scale: float) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians over the traced passes of each pass
    quantity, plus costs derived from the probes after them.  `untraced`
    is the untraced passes with their reference scale.  Also returns the
    names this workload does not exercise."""
    spans = recorder.spans
    own = self_times(spans)
    per_pass: dict[str, list[float]] = {}
    for p in recorder.pass_ids():
        for key, value in pass_quantities(spans, own, p).items():
            per_pass.setdefault(key, []).append(value)
    out = {key: _median(values) for key, values in per_pass.items()}

    setup_builds = [s for s in spans if s[4] == "setup" and s[0] == "rootsys.build_root_system"]
    out["rootsys.build_s"] += sum(end - start for _, start, end, *_ in setup_builds)
    out["rootsys.builds"] += len(setup_builds)

    walks = [s for s in spans if s[0] == "ideals.enumerate_ideal_masks" and s[5]]
    walked = sum(s[5]["ideals"] for s in walks)
    if walked:
        out["ideals.walk_ns_per_ideal"] = 1e9 * sum(s[2] - s[1] for s in walks) / walked

    # classification: serial distribution self time minus the probe walk of
    # the same type, per ideal; the walk inside class_distribution is the
    # same antichain search, so this isolates the per-ideal class function
    walk_s: dict[str, list[float]] = {}
    for s in walks:
        if s[4] == "probe":
            walk_s.setdefault(s[5]["type"], []).append(s[2] - s[1])
    serial: dict[tuple[str, str], list[float]] = {}
    ideals_of: dict[str, int] = {}
    for s, self_s in zip(spans, own):
        if s[0] == "nilpotence.class_distribution" and s[5].get("workers") == 1 \
                and s[5]["type"] in walk_s:
            serial.setdefault((s[5]["type"], s[5]["method"]), []).append(self_s)
            ideals_of[s[5]["type"]] = s[5]["ideals"]
    for method in METHODS:
        keys = [k for k in serial if k[1] == method]
        count = sum(ideals_of[label] for label, _ in keys)
        if count:
            busy = sum(_median(serial[k]) - _median(walk_s[k[0]]) for k in keys)
            out[f"nilpotence.classify_us.{method}"] = 1e6 * busy / count

    # pool, from the timestamps of the public progress callback
    label = workload.serial_probe
    if label:
        pooled, seeds, firsts, gaps = [], [], [], []
        for name, start, end, _, p, attrs in spans:
            if name == "nilpotence.class_distribution" and attrs.get("type") == label \
                    and p != "probe":
                marks = recorder.progress_marks.get((p, label), [])
                pooled.append(end - start)
                seeds.append(len(marks))
                if marks:
                    firsts.append(marks[0] - start)
                if len(marks) > 1:
                    gaps.append(marks[-1] - marks[-2])
        serial_s = [s[2] - s[1] for s in spans if s[4] == "probe"
                    and s[0] == "nilpotence.class_distribution" and s[5].get("type") == label]
        out.update({
            "nilpotence.pool.workers": ctx.workers,
            "nilpotence.pool.seeds": _median(seeds),
            "nilpotence.pool.first_seed_s": _median(firsts),
            "nilpotence.pool.last_seed_gap_s": _median(gaps),
            "nilpotence.pool.efficiency": _median(serial_s) / (ctx.workers * _median(pooled)),
        })

    # both halves in reference seconds, so drift between them cancels
    untraced_s, untraced_scale = untraced
    out["trace.overhead_ratio"] = (out["trace.pass_s"] * traced_scale) / (
        _median(wall for wall, _ in untraced_s) * untraced_scale)
    out["nproc"] = ctx.workers
    out["peak_rss_children_mib"] = rss_mib(resource.RUSAGE_CHILDREN)

    metrics = {name: (out.get(name, 0), unit) for name, unit in per_layer_units(suites).items()}
    absent = [name for name, (value, _) in metrics.items()
              if value == 0 and name not in ALWAYS_MEASURED]
    return metrics, absent


# ---------------------------------------------------------------------------
# entry point


def measure(args, workloads) -> tuple[dict, object, list, list[str]]:
    """Run one workload; return its metrics, gate, passes and report notes."""
    workload = workloads.WORKLOADS[args.workload]
    workers = len(os.sched_getaffinity(0))
    clock = HostClock(workers if workload.pooled else 1)
    try:
        return _measure(args, workloads, workload, workers, clock)
    finally:
        clock.close()


def _measure(args, workloads, workload, workers, clock):
    setups: list[tuple[float, float]] = []  # (wall seconds, one-CPU kernel time just before)

    def time_set_ups(count: int) -> None:
        for _ in range(count):
            before = _timed_kernel()  # set-up runs on one CPU, so one CPU's speed scales it
            setups.append((set_up(workload), before))

    time_set_ups(SETUP_BEFORE)
    rootsys = importlib.import_module("adnil.rootsys")
    refdata = importlib.import_module("adnil.refdata")
    ctx = workloads.Context(
        rs={label: rootsys.build_root_system(label) for label in workload.labels},
        workers=workers,
        reference=dict(refdata.EXCEPTIONAL_CLASS_COUNTS),
    )
    gate = workloads.Gate(corrupt_first=args.self_check)
    rng = random.Random(args.seed)
    if not args.trace:
        # set-ups between the passes too, so their median spans the run
        passes = run_passes(workload, gate, ctx, rng, args.seconds, clock,
                            lambda: time_set_ups(SETUP_PER_PASS))
        metrics = end_to_end(setups, passes, clock.samples)
        notes = [f"setup_s: median of {len(setups)} set-ups, "
                 f"wall {statistics.median(w for w, _ in setups):.4f} s", host_line(clock)]
        return metrics, gate, passes, notes
    untraced = run_passes(workload, gate, ctx, rng, args.seconds / 2, clock)
    untraced_scale = reference_scale(clock.samples)
    untraced_samples, clock.samples = clock.samples, []
    recorder = Recorder()
    ctx.progress = recorder.progress
    recorder.install()
    try:
        recorder.pass_id = "setup"
        for label in workload.labels:
            rootsys.build_root_system(label)
        traced = run_passes(workload, gate, ctx, rng, args.seconds / 2, clock, recorder=recorder)
        recorder.pass_id = "probe"
        try:
            workloads.run_probes(workload, gate, ctx)
        except Exception as exc:  # a probe that raises counts as failed
            gate.fail(f"raised {type(exc).__name__}: {exc}")
    finally:
        recorder.uninstall()
        recorder.write(Path(".bench_out") / f"trace-{workload.name}-seed{args.seed}.json")
    metrics, absent = per_layer(workload, workloads.SUITE_NAMES, ctx, recorder,
                                (untraced, untraced_scale), reference_scale(clock.samples))
    notes = [f"not exercised by this workload: {', '.join(absent)}"] if absent else []
    clock.samples = untraced_samples + clock.samples
    return metrics, gate, untraced + traced, notes + [host_line(clock)]


def host_line(clock: HostClock) -> str:
    cal = clock.samples
    return (f"host: calibration kernel on {clock.cpus} CPU(s), "
            f"{1e3 * statistics.mean(cal):.3f} ms mean over {len(cal)} samples, "
            f"{1e3 * min(cal):.3f}-{1e3 * max(cal):.3f} ms; "
            f"1 wall s = {reference_scale(cal):.4f} reference s")


def report(args, workload, metrics, gate, passes, notes) -> dict:
    """Print every metric by name with its unit; return the result object."""
    print(f"workload {workload.name}: {workload.why}")
    print(f"seed {args.seed}  nproc {len(os.sched_getaffinity(0))}  "
          f"python {platform.python_version()}  closed loop, 1 client  "
          f"trace {args.trace}  passes {len(passes)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:<14.6g} {unit}")
    walls = [wall for wall, _ in passes]
    t = tail(walls)
    print(f"  pass wall: mean {statistics.mean(walls):.4f} s, "
          f"median {statistics.median(walls):.4f} s, "
          + (f"p{t[0]} {t[1]:.4f} s" if t else "no percentile has 10 passes beyond it")
          + f", over {len(walls)} passes")
    items = sum(n for _, n in passes)
    print(f"  {'items_per_s':36s} {items / sum(walls):<14.6g} 1/s    "
          f"{workload.item} per wall second, = {items // len(passes)} / mean pass wall")
    if not args.trace:
        print(f"  {'peak_rss_children_mib':36s} {rss_mib(resource.RUSAGE_CHILDREN):<14.6g} MiB")
    print(f"  {'failed_ratio':36s} {gate.failed / gate.attempted:<14.6g} ratio  "
          f"{gate.failed} of {gate.attempted} ops")
    for line in notes:
        print(f"  {line}")
    for _, op, message in gate.failures:
        print(f"FAIL {op}: {message}")
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args, names) -> int:
    """Each workload in its own process, one after the other."""
    status = 0
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
            + (["--self-check"] if args.self_check else []),
            capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="corrupt one expected value; the run must then fail")
    args = parser.parse_args(argv)
    try:
        workloads = import_adnil()
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)} or all")
    metrics, gate, passes, notes = measure(args, workloads)
    result = report(args, workloads.WORKLOADS[args.workload], metrics, gate, passes, notes)
    if args.self_check:
        caught = not result["correct"]
        print(f"self-check: the gate {'caught' if caught else 'MISSED'} the corrupted value")
    print(json.dumps(result))
    if args.self_check:
        return 1 if caught else 3
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
