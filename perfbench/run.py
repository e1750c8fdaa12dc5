#!/usr/bin/env python3
"""looptoda benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload matrix-march --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  Before each pass the
run sets up anew (it builds the inputs from the seed and runs a small
warm-up pass), timed apart from the pass, and it runs passes until the
next one would end after ``--seconds``.  Every timed step (the import,
each set-up, each operation) is reported in seconds at the nominal speed
of a fixed reference kernel, sampled on a timer while the step runs
(``refclock.py``), so the host's swings in speed cancel out.  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` it
alternates untraced and traced passes and reports per-layer metrics
from the spans of the traced ones.  Report lines go to stdout first; the
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  A result file, and with tracing a span
file, are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

WORKLOAD_NAMES = ("scalar-simulate", "matrix-march", "gradation-census")
#: BLAS threads; the kernels work on 2x2 to 8x8 stacks, where threads only add noise
BLAS_THREADS = "1"

KERNELS = ("lie_core.expm", "lie_core.sqrtm_near_identity", "lie_core.logm_near_identity",
           "numpy.linalg.inv")
RHS_CLASSES = ("general_linear", "even_fold", "odd_fold", "double_fixed_fold", "simplest")
#: set-ups run before the first pass on top of the one before each pass,
#: so that setup_s is the median of several even when a run has few passes
EXTRA_SETUPS = 4
GRADATION_FUNCS = ("grading_component", "apply_automorphism", "validate_spec", "enumerate_specs",
                   "block_index_table")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description="looptoda benchmark (one workload, one run)")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git_commit(root: str) -> str | None:
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy
    from importlib import metadata

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
    }


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def op_samples(passes, raw: bool = False) -> dict[str, list[float]]:
    """Normalised (or raw) seconds of each operation, one sample per pass."""
    samples: dict[str, list[float]] = {}
    for ops in passes:
        for op in ops:
            samples.setdefault(op.name, []).append(op.seconds if raw else op.norm_seconds)
    return samples


def op_medians(passes, raw: bool = False) -> dict[str, float]:
    return {name: statistics.median(v) for name, v in op_samples(passes, raw).items()}


def wall_s(passes, raw: bool = False) -> float:
    """Time of one pass: each operation's median latency, summed over the set."""
    return sum(op_medians(passes, raw).values())


def set_up(workload, seed: int, workdir: str, spans: list):
    """Build the inputs and warm up; appends (start, seconds) to ``spans``."""
    t = time.perf_counter()
    inputs = workload.build(seed, workdir)
    workload.warm_up(inputs)
    spans.append((t, time.perf_counter() - t))
    return inputs


def workload_report(name: str, passes) -> list[tuple[str, float, str]]:
    """Workload-specific end-to-end figures, printed but not bounded."""
    wall = wall_s(passes)
    work = Counter()
    for op in passes[0]:
        work.update(op.work)
    values = [op.values for ops in passes for op in ops]
    rows = [("wall_raw_s", wall_s(passes, raw=True), "s")]
    if "cells" in work:
        rows.append(("cells_per_s", work["cells"] / wall, "cells/s"))
    if "csv_lines" in work:
        rows.append(("csv_lines_per_s", work["csv_lines"] / wall, "lines/s"))
    for key, unit in (("kink_linf_error", "rad"), ("rel_error_vs_linearized", "1"),
                      ("max_residual", "1"), ("compact_drift", "1"), ("constraint_residual", "1")):
        found = [v[key] for v in values if v.get(key) is not None]
        if found:
            rows.append((key, max(found), unit))
    if name == "gradation-census":
        import workloads

        lat = op_medians(passes)
        enum_s = lat.pop(workloads.ENUM_OP)
        checks = sum(lat.values())
        rows += [
            ("check_specs_per_s", len(lat) / checks, "specs/s"),
            ("check_p50_ms", 1e3 * percentile(lat.values(), 50), "ms"),
            ("check_p90_ms", 1e3 * percentile(lat.values(), 90), "ms"),
            ("enum_specs_per_s", work["enumerated_specs"] / enum_s, "specs/s"),
        ]
    return rows


def layer_metrics(tally: dict) -> dict[str, float]:
    def get(span, key):
        return tally.get(span, {}).get(key, 0)

    m: dict[str, float] = {}
    for k in KERNELS:
        m[f"{k}.calls"] = get(k, "calls")
        m[f"{k}.matrices"] = get(k, "matrices")
        m[f"{k}.self_s"] = get(k, "self_ns") / 1e9
    rhs_in_integrate = 0
    for cls in RHS_CLASSES:
        span = f"toda.rhs_dispatch.{cls}"
        m[f"{span}.calls"] = get(span, "calls")
        m[f"{span}.self_s"] = get(span, "self_ns") / 1e9
        rhs_in_integrate += get(span, "rhs_in_integrate")
    rows = get("solver.integrate", "rows")
    m["solver.integrate.rows"] = rows
    m["solver.integrate.self_s"] = get("solver.integrate", "self_ns") / 1e9
    m["solver.rhs_per_row"] = rhs_in_integrate / rows if rows else 0.0
    csv = "solver.write_history_csv"
    m[f"{csv}.lines"] = get(csv, "lines")
    m[f"{csv}.bytes"] = get(csv, "bytes")
    m[f"{csv}.self_s"] = get(csv, "self_ns") / 1e9
    for fn in GRADATION_FUNCS:
        m[f"gradation.{fn}.calls"] = get(f"gradation.{fn}", "calls")
        m[f"gradation.{fn}.self_s"] = get(f"gradation.{fn}", "self_ns") / 1e9
    m["toda.build_system.self_s"] = get("toda.build_system", "self_ns") / 1e9
    m["toda.rhs_blocks_vs_full.self_s"] = get("toda.rhs_blocks_vs_full", "self_ns") / 1e9
    m["folding.verify_fold_invariance.calls"] = get("folding.verify_fold_invariance", "calls")
    m["folding.verify_fold_invariance.self_s"] = get("folding.verify_fold_invariance", "self_ns") / 1e9
    m["cli.main.self_s"] = get("cli.main", "self_ns") / 1e9
    return m


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name == "solver.rhs_per_row":
        return "count/row"
    if name == "trace.overhead_frac":
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "looptoda", "__init__.py")):
        print(f"no looptoda sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401  (after the thread pins; not timed, the clock needs it)

    import refclock

    clock = refclock.RefClock()
    clock.start()
    try:
        return run(args, clock)
    finally:
        clock.stop()


def run(args, clock) -> int:
    t0 = time.perf_counter()
    import looptoda
    import_raw_s = time.perf_counter() - t0
    if not os.path.abspath(looptoda.__file__).startswith(SRC + os.sep):
        print(f"looptoda imported from {looptoda.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import refclock
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    setup_spans, untraced, traced, tallies = [], [], [], []
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{args.workload}-") as workdir:
        start = time.perf_counter()
        for _ in range(EXTRA_SETUPS):
            set_up(workload, args.seed, workdir, setup_spans)
        while True:
            # every pass starts from freshly built inputs; that set-up is timed apart
            t = time.perf_counter()
            tasks = workload.tasks(set_up(workload, args.seed, workdir, setup_spans))
            if tracer is not None and len(traced) < len(untraced):
                tracer.install()
                try:
                    traced.append([task() for task in tasks])
                finally:
                    tracer.uninstall()
                tallies.append(tracer.take_tally())
            else:
                untraced.append([task() for task in tasks])
            last = time.perf_counter() - t
            want_traced = tracer is not None and not traced
            if not want_traced and time.perf_counter() - start + last > args.seconds:
                break
        measured_s = time.perf_counter() - start
    # every sample of the run is in now: scale each timed step to the nominal speed
    import_s = clock.normalise(t0, import_raw_s)
    setup_times = [clock.normalise(t, seconds) for t, seconds in setup_spans]
    setup_s = import_s + statistics.median(setup_times)

    passes = untraced + traced
    for ops in passes:
        for op in ops:
            op.norm_seconds = clock.normalise(op.start, op.seconds)
    attempted = sum(len(ops) for ops in passes)
    failures = [f"{op.name}:{gate}" for ops in passes for op in ops for gate in op.failed]
    failed_ops = sum(1 for ops in passes for op in ops if op.failed)

    if tracer is None:
        metrics = {
            "wall_s": (wall_s(untraced), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (setup_s, "s"),
        }
    else:
        # tracing must observe, not perturb: every traced op reproduces the untraced values
        reference = {op.name: op.values for op in untraced[0]}
        for ops in traced:
            for op in ops:
                if op.values != reference[op.name]:
                    failures.append(f"{op.name}:trace_identical")
                    if not op.failed:
                        failed_ops += 1
        per_pass = [layer_metrics(t) for t in tallies]
        metrics = {name: (statistics.median(p[name] for p in per_pass), layer_unit(name))
                   for name in per_pass[0]}
        metrics["trace.overhead_frac"] = (wall_s(traced) / wall_s(untraced) - 1.0, "ratio")

    metric_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report = workload_report(args.workload, untraced)
    env = environment()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    span_file = None
    if tracer is not None:
        span_file = os.path.join(OUT, f"{stem}-spans.jsonl.gz")
        span_count = tracer.write(span_file)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": workload.seed_used,
        "seconds": args.seconds,
        "measured_s": measured_s,
        "environment": env,
        "setup_samples_s": setup_times,
        "setup_raw_samples_s": [seconds for _, seconds in setup_spans],
        "import_s": import_s,
        "import_raw_s": import_raw_s,
        "ref_kernel_samples_s": clock.kernel_s,
        "ref_kernel_nominal_s": refclock.NOMINAL_S,
        "op_samples_s": op_samples(untraced),
        "op_raw_samples_s": op_samples(untraced, raw=True),
        "traced_op_samples_s": op_samples(traced),
        "metrics": metric_json,
        "report": {k: {"value": v, "unit": u} for k, v, u in report},
        "ops_attempted": attempted,
        "ops_failed": failed_ops,
        "failures": failures,
        "span_file": span_file,
    }
    with open(os.path.join(OUT, f"{stem}.json"), "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    print(f"# environment {json.dumps(env, sort_keys=True)}")
    seed_note = "" if workload.seed_used else " (seed unused: the presets are fixed data)"
    print(f"# workload {args.workload} seed {args.seed}{seed_note}; "
          f"{len(untraced)} untraced and {len(traced)} traced passes in {measured_s:.1f} s")
    if tracer is not None:
        print(f"# {span_count} spans written to {os.path.relpath(span_file, ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, value, unit in report:
        print(f"{name} = {value:.6g} {unit}")
    print(f"ops_attempted = {attempted} count")
    print(f"ops_failed = {failed_ops} count")
    for failure in failures:
        print(f"# FAILED {failure}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed_ops,
                      "metrics": metric_json}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
