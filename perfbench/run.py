"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: sudoku_batch, sudoku_hard_solve, graph_walks_large,
simple_paths_sweep (see BENCHMARK.json for why each exists).  Each run is
one single-threaded process.  With ``--trace 0`` the run times whole passes
of ops for about ``--seconds`` seconds of op time and reports the
end-to-end metrics, medians over the passes; with
``--trace 1`` it wraps the program's layers (see ``tracer.py``), reports
the per-layer metrics, and runs every op a second time untraced to report the
tracing overhead.  Every op's answer is checked against the golden answers
in ``data/``; any failure makes the exit code 1.

The human-readable report goes to standard output, followed by one JSON
line with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record, stamped with the environment, goes to ``results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from itertools import count
from time import perf_counter
from typing import NamedTuple

import hostspeed
from common import BENCH_DIR, RESULTS, ROOT, SRC, MissingProgram, use_checkout_source

SETUP_REPEATS = 3


def setup_seconds(name: str, seed: int) -> tuple[float, float]:
    """Wall and scaled (see ``hostspeed``) time to import the program and set
    the workload up in a fresh interpreter, so every repeat pays the cold
    cost of imports, first calls and anything the program caches."""
    code = (
        f"import sys, time; sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]; "
        "import hostspeed; hostspeed.reference_seconds(); "
        "before = hostspeed.reference_seconds(); "
        f"from workloads import WORKLOADS; workload = WORKLOADS[{name!r}]({seed}); "
        "t = time.perf_counter(); import nonrep, nonrep.cli, nonrep.sudoku; "
        "workload.setup(); t = time.perf_counter() - t; "
        "print(t, hostspeed.scaled(t, before, hostspeed.reference_seconds()))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    wall, scaled = map(float, done.stdout.split())
    return wall, scaled


def environment() -> dict:
    """What the numbers depend on; runs on different kernel paths do not compare."""
    from importlib import metadata, util

    import numpy
    from nonrep import _kernels

    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "numba_importable": util.find_spec("numba") is not None,
        "use_numba": bool(_kernels.USE_NUMBA),
        "kernel_path": "numba" if _kernels.USE_NUMBA else "pure",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


class Op(NamedTuple):
    spec: object
    seconds: float  # wall time of the op
    scaled: float  # the same at reference host speed (see ``hostspeed``)
    failure: str | None


def run_op(workload, execute, spec) -> Op:
    """Time one op and check its answer; ``scaled`` is left at wall time."""
    start = perf_counter()
    try:
        result = execute(spec)
    except Exception as exc:  # an op that raises is a failed op; keep measuring
        elapsed = perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return Op(spec, elapsed, elapsed, f"{type(exc).__name__}: {exc}")
    elapsed = perf_counter() - start
    return Op(spec, elapsed, elapsed, workload.check(spec, result))


def pass_seconds(ops, field: str = "seconds") -> float:
    return sum(getattr(op, field) for op in ops)


def measure(workload, seconds: float, run_pass):
    """Run whole passes until their op time is nearest ``seconds``: stop when
    one more pass, as long as the median pass so far, would end further from
    ``seconds`` than stopping now.  Op time is counted at reference host speed,
    so a run makes the same number of passes however fast the host is at the
    moment.  Returns one list of ops per pass."""
    passes: list[list[Op]] = []
    scaled: list[float] = []
    while not passes or sum(scaled) + statistics.median(scaled) / 2 < seconds:
        passes.append(run_pass(workload.pass_specs))
        scaled.append(pass_seconds(passes[-1], "scaled"))
    return passes


def untraced_pass(workload):
    """Run each op between two readings of the reference loop and scale its
    time by the host speed they show; an op shares a reading with its
    neighbour.  The reading follows the check of the op's answer, so it also
    separates the op from the check's garbage."""

    def run_pass(specs):
        before = hostspeed.reference_seconds()
        ops = []
        for spec in specs:
            op = run_op(workload, workload.execute, spec)
            after = hostspeed.reference_seconds()
            ops.append(op._replace(scaled=hostspeed.scaled(op.seconds, before, after)))
            before = after
        return ops

    return run_pass


def traced_pass(workload, tracer, untraced: list):
    """Run each op traced and, right beside it, untraced (alternating which
    goes first), so the two sums differ by the tracing overhead and not by
    machine noise.  Returns the traced ops; the others go to ``untraced``."""
    traced_execute = tracer.span("op", workload.execute)
    numbers = count()

    def run_pass(specs):
        ops = []
        for spec in specs:
            i = next(numbers)
            for with_trace in (True, False) if i % 2 == 0 else (False, True):
                if not with_trace:
                    untraced.append(run_op(workload, workload.execute, spec))
                    continue
                tracer.op = i
                try:
                    tracer.install()
                    ops.append(run_op(workload, traced_execute, spec))
                finally:
                    tracer.restore()
        return ops

    return run_pass


def harrell_davis_median(values) -> float:
    """The Harrell-Davis estimate of the median: a mean of all order
    statistics weighted by the Beta((n+1)/2, (n+1)/2) density over each one's
    share of [0, 1].  Unlike the sample median it does not jump when the
    middle of the sample falls into a gap between clusters of op costs (small
    graphs come in sizes, so their op times do)."""
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2

    def density(x):  # up to a constant factor, which the division removes
        return math.exp((a - 1) * (math.log(x) + math.log1p(-x))) if 0 < x < 1 else 0.0

    weights = []
    for i in range(n):  # Simpson's rule, 8 panels per order statistic
        h = 1 / (8 * n)
        ends = density(i / n) + density((i + 1) / n)
        inner = sum((4 if j % 2 else 2) * density(i / n + j * h) for j in range(1, 8))
        weights.append((ends + inner) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def pass_medians(passes, field: str) -> tuple[float, float]:
    """(ops per second, median op seconds) of ``field`` times: the median
    pass's ops per second, and the Harrell-Davis median, over the places in a
    pass, of each place's median time across passes."""
    rate = statistics.median(len(p) / pass_seconds(p, field) for p in passes)
    places = range(len(passes[0]))
    per_place = [statistics.median(getattr(p[j], field) for p in passes) for j in places]
    return rate, harrell_davis_median(per_place)


def end_to_end(passes, setups) -> tuple[dict, dict]:
    """The declared metrics, at reference host speed, and their wall-time
    counterparts, which are reported but not declared."""
    rate, p50 = pass_medians(passes, "scaled")
    wall_rate, wall_p50 = pass_medians(passes, "seconds")
    metrics = {
        "ops_per_s": (rate, "1/s"),
        "op_p50_ms": (1e3 * p50, "ms"),
        "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    wall = {
        "wall_ops_per_s": (wall_rate, "1/s"),
        "wall_op_p50_ms": (1e3 * wall_p50, "ms"),
        "wall_setup_s": (statistics.median(wall for wall, _ in setups), "s"),
    }
    return metrics, wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        use_checkout_source()
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (MissingProgram, OSError) as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    import tracer as tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment()
    workload = WORKLOADS[args.workload](args.seed)
    workload.setup()

    if args.trace:
        tracer = tracing.Tracer()
        origin = perf_counter()
        untraced: list = []
        passes = measure(workload, args.seconds, traced_pass(workload, tracer, untraced))
        records = [op for p in passes for op in p]
        from nonrep.sudoku import rules

        metrics = tracing.layer_metrics(tracer, list(rules._RULE_FUNCTIONS))
        traced_s = pass_seconds(records)
        untraced_s = pass_seconds(untraced)
        metrics["trace.traced_wall_s"] = (traced_s, "s")
        metrics["trace.untraced_wall_s"] = (untraced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
        records += untraced
        spans_path = RESULTS / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.write_spans(spans_path, origin)
        wanted = [m["name"] for m in declared["per_layer"]]
        extra = {}
    else:
        setups = [setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
        passes = measure(workload, args.seconds, untraced_pass(workload))
        records = [op for p in passes for op in p]
        metrics, extra = end_to_end(passes, setups)
        wanted = [m["name"] for m in declared["end_to_end"]]

    failures = [op.failure for op in records if op.failure]
    attempted = len(records)
    failed = len(failures)
    times = [op.scaled for op in records]
    extra |= {
        "fail_frac": (failed / attempted, "ratio"),
        "op_p90_ms": (
            1e3 * statistics.quantiles(times, n=10)[8] if attempted >= 100 else None,
            "ms",
        ),
        "op_samples": (attempted, "count"),
        "passes": (len(passes), "count"),
    }
    if set(metrics) != set(wanted):
        print(
            "metric names differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(wanted))}",
            file=sys.stderr,
        )
        return 2

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"kernel path {env['kernel_path']}  python {env['python']}  numpy {env['numpy']}")
    for name, (value, unit) in {**metrics, **extra}.items():
        shown = "null" if value is None else f"{value:.6g}"
        print(f"  {name:<44} {shown:>14} {unit}")
    for failure in failures[:10]:
        print(f"  FAILED: {failure}")

    correct = not failures
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:100],
        "op_seconds": [op.seconds for op in records],
        "op_scaled_seconds": times,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in {**metrics, **extra}.items()},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
