#!/usr/bin/env python3
"""Benchmark of the riccati-capacity library on four seeded workloads.

One workload, as a single process:

    python3 bench/run.py --workload steady_state --seed 1 --seconds 10 --trace 0

All four, one process each, printing every metric with its unit:

    python3 bench/run.py --seed 1

The library is imported from ``src/`` next to this directory and driven
through its public API (and, for ``monte_carlo``, its command-line
entry point). Every operation is scored once against an independent
oracle. Failures of a known kind (``workloads.KnownDefect``: a solve that
reports its own non-convergence, and a converged verdict whose error the
solver's stopping rule admits) are printed and counted as ``known_defects``; every
other failure counts in ``failed`` and makes the run incorrect. With
``--trace 0`` the run reports the end-to-end metrics; call timings are
scaled by a reference kernel timed around each call (see
``workloads.reference_seconds``), set-up time and calls seconds long by
the mean of the run's reference timings. With ``--trace 1``
it wraps the library's public functions (see ``tracing.py``) and reports
per-layer counts and times for one cycle of passes, next to the tracing
overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it
that start with ``#`` are for people. A record of the run, including the
environment and, when traced, every span, is written to ``.bench_out/``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("steady_state", "horizon", "optimize", "monte_carlo")

# one process per workload and one BLAS thread each, so the load stays
# within two cores
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 3
# import time is measured in fresh interpreters, so every set-up repeat pays it
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import riccati_capacity, riccati_capacity.cli; print(time.perf_counter() - t)")
# stop starting passes past this point, whatever the minimum, so a run
# that meets many budget-exhausting solves still ends in time
PASS_DEADLINE_S = 100.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# metrics that belong to one workload only; printed and recorded, not
# reported on the result line, which carries only metrics every workload has
NAMED = {
    "solve_p50_ms": "ms", "solve_p90_ms": "ms", "solve_samples": "count",
    "draws_s": "s", "hard_cases_s": "s", "budget_bound_draws": "count",
    "steps_per_s": "1/s", "schedule_steps_per_s": "1/s",
    "path_steps_per_s": "1/s", "rows_over_3se": "count",
}

PER_LAYER = (
    ("riccati.are_solve.calls", "count"), ("riccati.are_solve.s", "s"),
    ("riccati.are_solve.iterations", "count"), ("riccati.are_solve.unconverged", "count"),
    ("riccati.are_solve.budget_exhausted", "count"), ("riccati.solve_spd.calls", "count"),
    ("capacity.finite_n_rate.self_s", "s"),
    ("linalg.block_diag.calls", "count"), ("linalg.block_diag.s", "s"),
    ("models.NoiseModel.s", "s"),
    ("lyapunov.lyap_solve.calls", "count"), ("lyapunov.lyap_solve.s", "s"),
    ("lyapunov.lyap_solve.direct", "count"), ("lyapunov.lyap_solve.fixed_point", "count"),
    ("systests.feasibility_report.calls", "count"), ("systests.feasibility_report.s", "s"),
    ("systests.pbh_test.calls", "count"),
    ("capacity.asymptotic_power.calls", "count"), ("capacity.lbfgs.runs", "count"),
    ("capacity.lbfgs.nfev", "count"), ("capacity.asymptotic_rate.calls", "count"),
    ("simulate.sample_paths.s", "s"), ("simulate.kalman_run.calls", "count"),
    ("simulate.kalman_run.s", "s"), ("simulate.empirical_report.s", "s"),
    ("simulate.rows_over_3se", "count"), ("cli.main.self_s", "s"),
    ("models.self_s", "s"), ("linalg.self_s", "s"), ("riccati.self_s", "s"),
    ("lyapunov.self_s", "s"), ("systests.self_s", "s"), ("capacity.self_s", "s"),
    ("simulate.self_s", "s"), ("cli.self_s", "s"),
    ("trace.overhead_s", "s"), ("trace.zero_call_spans", "count"),
)

# which end-to-end metric each layer's numbers should move, and where
LAYER_TARGETS = {
    "riccati.are_solve": "wall_s, solve_p90_ms, failed_ratio on steady_state; wall_s on "
                         "optimize; about zero on horizon and monte_carlo",
    "riccati.solve_spd.calls": "steps_per_s and schedule_steps_per_s on horizon, with "
                               "capacity.finite_n_rate.self_s (about one call per DRE step)",
    "linalg.block_diag": "schedule_steps_per_s on horizon; not steps_per_s, since the "
                         "constant path builds its blocks once",
    "models.NoiseModel.s": "schedule_steps_per_s on horizon (timed in the schedule callback)",
    "lyapunov.lyap_solve": "solve_p50_ms on steady_state; wall_s on optimize (1x1 solves)",
    "systests.feasibility_report": "solve_p50_ms on steady_state; wall_s on optimize",
    "systests.pbh_test.calls": "solve_p50_ms on steady_state; wall_s on optimize",
    "capacity.asymptotic_power.calls": "wall_s on optimize (evaluations reaching the "
                                       "budget projection)",
    "capacity.lbfgs": "wall_s on optimize",
    "capacity.asymptotic_rate.calls": "wall_s on optimize",
    "simulate.sample_paths.s": "path_steps_per_s and peak_rss_mb on monte_carlo",
    "simulate.kalman_run": "path_steps_per_s and peak_rss_mb on monte_carlo "
                           "(two runs per simulate --trace call)",
    "simulate.empirical_report.s": "path_steps_per_s on monte_carlo",
    "cli.main.self_s": "path_steps_per_s on monte_carlo",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time per run; passes continue until it is spent")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_environment():
    """Single-threaded BLAS and the library's own thread pool off; returns the record."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    threads = os.environ.pop("RICCATI_CAPACITY_THREADS", None)
    return {
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "RICCATI_CAPACITY_THREADS": "unset" if threads is None else f"was {threads!r}; removed",
    }


# ---------------------------------------------------------------- running


def import_seconds():
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                           capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout)


def run_ops(workload, ops, reference=None):
    """Time each (label, call) in turn and return its ``Call`` records.

    With a ``reference`` timer the reference kernel is timed before each
    call and after the last, and each call carries the mean of the two
    timings around it.
    """
    from workloads import Call

    refs = [reference()] if reference else []
    timed = []
    for label, call in ops:
        start = time.perf_counter()
        try:
            value, error = call(), None
        except Exception as exc:  # a raising call is a failed operation, not a crash
            value, error = None, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if reference:
            refs.append(reference())
        if error is None:
            value = workload.collect(label, value)
        timed.append((label, seconds, value, error))
    return [Call(*t, ref=(refs[i] + refs[i + 1]) / 2.0 if refs else None)
            for i, t in enumerate(timed)]


def measure(workload, seconds):
    """Passes until the time is spent, with two rounds of the fixed operations among them.

    The fixed operations run after the first and the second cycle of passes
    that covers every operation, so the reference timings of the passes on
    either side bracket them in time.
    """
    from workloads import reference_seconds

    start = time.perf_counter()
    fixed, passes = [], []
    while len(passes) < workload.max_passes:
        passes.append(run_ops(workload, workload.pass_ops(len(passes)), reference_seconds))
        if len(passes) in (workload.cover, 2 * workload.cover):
            fixed += run_ops(workload, workload.fixed_ops(), reference_seconds)
        elapsed = time.perf_counter() - start
        if len(passes) < workload.cover:
            continue  # every operation runs at least once, whatever the clock
        if elapsed >= PASS_DEADLINE_S or (
                len(passes) >= workload.min_passes and elapsed >= seconds):
            break
    return fixed, passes


def score(workload, records):
    """(attempted, failures, known defects) over timed calls.

    Each label is scored once, on its first call; later calls of the same
    operation only add timings, so the counts depend on the seed and not
    on how many passes the clock allowed. A call may hold several
    operations.
    """
    from workloads import KnownDefect

    attempted, failures, known, seen = 0, [], [], set()
    for label, _, value, error, _ in records:
        if label in seen:
            continue
        seen.add(label)
        if error is None:
            try:
                verdicts = workload.outcomes(label, value)
            except Exception:  # malformed output fails its operation
                verdicts = ["check raised " + traceback.format_exc(limit=2).strip()]
        else:
            verdicts = [error]
        attempted += len(verdicts)
        for v in verdicts:
            if v:
                (known if isinstance(v, KnownDefect) else failures).append(f"{label}: {v}")
    return attempted, failures, known


def traced_pass(workload, package):
    """One cycle of passes untraced, with spans, and untraced again.

    Only the traced cycle runs the fixed operations: they are budget-bound
    and seconds long, and their own run-to-run noise would drown the
    tracing overhead, which is taken from the passes alone.
    """
    from tracing import Tracer

    def passes():
        return [run_ops(workload, workload.pass_ops(i)) for i in range(workload.cycle)]

    before = passes()
    tracer = Tracer()
    tracer.install(package)
    workload.tracer = tracer
    try:
        traced = (run_ops(workload, workload.fixed_ops()), passes())
    finally:
        workload.tracer = None
        tracer.remove()
    return before, traced, passes(), tracer


def pass_seconds(passes):
    return sum(c.seconds for p in passes for c in p)


def layer_metrics(workload, before, traced, after, tracer):
    totals, layers = tracer.totals()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}

    def value(name):
        if name in tracer.counters:
            return tracer.counters[name]
        prefix, _, field = name.rpartition(".")
        if field == "self_s" and prefix in layers:
            return layers[prefix]
        span = totals.get(prefix, empty)
        return span["calls"] if field == "runs" else span.get(field, 0)

    values = {name: value(name) for name, _ in PER_LAYER}
    values["simulate.rows_over_3se"] = sum(getattr(workload, "lib_flagged", {}).values())
    # the untraced cycles either side cancel a steady drift of the host's speed
    values["trace.overhead_s"] = (pass_seconds(traced[1])
                                  - (pass_seconds(before) + pass_seconds(after)) / 2.0)
    missing = [n for n in workload.expected_spans if totals.get(n, empty)["calls"] == 0]
    values["trace.zero_call_spans"] = len(missing)
    return values, missing, totals, layers


# ---------------------------------------------------------------- one workload


def run_workload(args, env):
    import numpy as np
    import scipy

    import riccati_capacity as package
    import riccati_capacity.cli  # noqa: F401  (attribute package.cli)

    from workloads import WORKLOADS, run_scale

    env.update({
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    })
    workdir = OUT / f"{args.workload}-seed{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](package, args.seed, workdir)

    import_times, setup_times = [], []
    for _ in range(SETUP_REPEATS):
        import_times.append(import_seconds())
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - t0)
    setup_raw_s = statistics.median(i + s for i, s in zip(import_times, setup_times))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "why": workload.why, "env": env,
              "setup": {"import_s": import_times, "build_s": setup_times}}
    if args.trace:
        before, traced, after, tracer = traced_pass(workload, package)
        # the traced outputs come first, so they are the ones scored
        records = traced[0] + [c for p in traced[1] + before + after for c in p]
        attempted, failures, known = score(workload, records)
        metrics, missing, totals, layers = layer_metrics(workload, before, traced, after,
                                                         tracer)
        units = dict(PER_LAYER)
        record.update({"spans_total": totals, "layer_self_s": layers,
                       "zero_call_spans": missing, "layer_targets": LAYER_TARGETS,
                       "spans": tracer.span_records(),
                       "leaf_calls": {k: list(v) for k, v in tracer.leaf.items()}})
        for name in missing:
            print(f"# WARNING: span {name} recorded zero calls on {args.workload}",
                  file=sys.stderr)
    else:
        fixed, passes = measure(workload, args.seconds)
        attempted, failures, known = score(workload, fixed + [c for p in passes for c in p])
        named = workload.metrics(fixed, passes)
        record["setup"]["median_raw_s"] = setup_raw_s
        metrics = {
            # set-up takes seconds and comes before any reference timing
            "setup_s": setup_raw_s * run_scale(fixed, passes),
            "wall_s": named.pop("wall_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END, **NAMED)
        record["named"] = named
        record["fixed"] = [[c.label, c.seconds, c.ref] for c in fixed]
        record["calls"] = [[[c.label, c.seconds, c.ref] for c in p] for p in passes]
        for name, value in named.items():
            print(f"# {name} = {value:.6g} {units[name]}")
    failed = len(failures)
    print(f"# failed_ratio = {(failed + len(known)) / attempted:.6g} "
          f"({failed + len(known)} of {attempted} ops: {len(known)} known defects, "
          f"{failed} other failures)")
    print(f"# known_defects = {len(known)} count")
    for line in known:
        print(f"# KNOWN DEFECT {line}")
    for line in failures[:20]:
        print(f"# FAILED {line}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print("# env " + json.dumps(env, sort_keys=True))
    record.update({"metrics": metrics, "attempted": attempted, "failures": failures,
                   "known_defects": known})
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / suffix).write_text(json.dumps(record, indent=1, default=float))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(args):
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print(f"## {name} (exit {proc.returncode})")
        for line in lines[:-1]:
            print(line)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "riccati_capacity" / "__init__.py").is_file():
        print(f"error: library source not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    env = pin_environment()
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    result = run_workload(args, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
