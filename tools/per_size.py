"""Per-size timings of the library's layers, and a comparison of two sides' timings.

    python tools/per_size.py run --label L [--sizes 2 4 8 20 40 80]
    python tools/per_size.py compare --a A.json [A.json ...] --b B.json [B.json ...]

``run`` times ten calls of the ``riccati_capacity`` in this tree's
``src`` at each joint state size m (even, default 2, 4, 8, 20, 40 and
80), on ``random_models(np.random.default_rng(m // 2), n_s=m // 2,
n_xi=m // 2, n_y=2, n_z=2, rho_A=1.2)`` from ``tests/conftest.py``, with
H = I and kappa = 1:

- ``are_solve`` on the built joint system;
- ``objective``: one objective and gradient of the input search on the
  built joint system, ``are_solve`` at the search's tolerance
  (``capacity._SEARCH_TOL``) and the adjoint gradient
  (``capacity._logdet_gradient``);
- ``lyap_solve`` of the input (F, G, K_Z);
- ``feasibility_report`` given the built joint system;
- ``asymptotic_rate`` from the models, building its own system;
- ``NoiseModel`` and ``InputModel``: building each model from its own
  fields, as keywords;
- ``finite_n_rate`` over ``HORIZON`` (2,000) steps of the constant pair;
- ``finite_n_rate_drift``: the same on a drifting schedule, whose noise
  callback builds a new ``NoiseModel`` at every step t, with A scaled by
  1 + 2^-t, and whose input is the pair's;
- ``empirical_report``: the Monte Carlo report of ``MC_PATHS`` (1,000)
  paths over ``MC_STEPS`` (50) steps on the built joint system, against
  the pair's ``asymptotic_rate`` computed once beforehand: path sampling
  and both predictors' passes, with their schedules.

BLAS is pinned to one thread before numpy loads. Each call is first run
in doubling batches until one batch takes ``MIN_BATCH_S``, which also
warms it up; ``REPEATS`` batches of that size are then timed. Co-tenant
load on a shared host slows such work by up to about 2x, in phases of
seconds, so a reference kernel of small dense solves (best of 3, numpy
only) is timed before and after each batch, and the batch's per-call
time is rescaled by ``REF_NOMINAL_S`` over the mean of the two, as the
benchmark does. The per-call median and quartiles
(``statistics.quantiles``, inclusive) of the rescaled times are kept in
milliseconds, next to the median of the raw ones. The result goes to
``BENCH_per_size_<L>.json`` in the working directory, with the core
count, the BLAS thread settings, the numpy and Python versions and the
git revision of this tree ("-dirty" if tracked files differ from it,
"unknown" outside a checkout). The default grid takes 50 to 60 s on a
2-core x86-64 host, most of it in the two ``finite_n_rate`` calls at m
of 20 and more, where a joint state of 9 or more goes by plain steps.

``compare`` takes one or more runs of each side, A and B, and pools each
(call, m) cell that every run has: the median of the runs' medians, and
the range from the least first quartile to the greatest third quartile.
It prints, for every cell of both sides, the pooled medians (in us below
1 ms, else in ms, each with three decimals and its unit), their ratio
B / A and whether the two pooled ranges overlap. One run's quartiles are
narrower than the spread between runs: on a shared 2-core host, two runs
of the same code still differ by up to about 10% in a cell after the
rescaling, and one run a side reads such cells "apart". Three runs a
side, alternating, give the overlap test that spread.
"""

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SIZES = (2, 4, 8, 20, 40, 80)
HORIZON = 2000
MC_PATHS, MC_STEPS = 1000, 50
REPEATS = 9
MIN_BATCH_S = 0.02
# seconds the reference kernel takes on an idle core of a 2-vCPU x86-64 VM; only a scale
REF_NOMINAL_S = 0.0020


def _revision():
    git = ["git", "-C", str(ROOT)]
    try:
        rev = subprocess.run(git + ["rev-parse", "--short=7", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
        dirty = subprocess.run(git + ["diff-index", "--quiet", "HEAD", "--"]).returncode
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return rev + ("-dirty" if dirty else "")


def _reference_s(np):
    M = np.arange(36.0).reshape(6, 6) / 36.0
    S = M @ M.T + 6.0 * np.eye(6)
    best = float("inf")
    for _ in range(3):
        P = np.eye(6)
        start = time.perf_counter()
        for _ in range(100):
            P = 0.5 * (M @ P @ M.T / 40.0 + S)
            L = np.linalg.cholesky(P)
            P = np.linalg.solve(L.T, np.linalg.solve(L, S))
        best = min(best, time.perf_counter() - start)
    return best


def _time(call, reference):
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            call()
        if time.perf_counter() - start >= MIN_BATCH_S:
            break
        number *= 2
    raw_ms, per_call_ms = [], []
    for _ in range(REPEATS):
        before = reference()
        start = time.perf_counter()
        for _ in range(number):
            call()
        raw_ms.append(1e3 * (time.perf_counter() - start) / number)
        per_call_ms.append(raw_ms[-1] * 2.0 * REF_NOMINAL_S / (before + reference()))
    q1, median, q3 = statistics.quantiles(per_call_ms, n=4, method="inclusive")
    return {"median_ms": median, "q1_ms": q1, "q3_ms": q3,
            "raw_median_ms": statistics.median(raw_ms), "calls_per_batch": number}


def run(label, sizes):
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import numpy as np

    import riccati_capacity as rc
    from conftest import random_models

    cells = {}
    for m in sizes:
        noise, inp = random_models(np.random.default_rng(m // 2), n_s=m // 2, n_xi=m // 2,
                                   n_y=2, n_z=2, rho_A=1.2)
        channel = rc.Channel(H=np.eye(2), kappa=1.0)
        system = rc.build_augmented(noise, inp, channel)
        noise_fields, input_fields = (
            {field.name: getattr(model, field.name) for field in dataclasses.fields(model)}
            for model in (noise, inp))
        drifting = rc.CoefficientSchedule(
            noise_at=lambda t: rc.NoiseModel(**{**noise_fields, "A": noise.A * (1.0 + 2.0 ** -t)}),
            input_at=lambda t: inp, noise_limit=noise, input_limit=inp)
        analytic = rc.asymptotic_rate(noise, inp, channel)
        calls = {"are_solve": lambda: rc.are_solve(system),
                 "objective": lambda: rc.capacity._logdet_gradient(
                     system, rc.are_solve(system, tol=rc.capacity._SEARCH_TOL)),
                 "lyap_solve": lambda: rc.lyap_solve(inp.F, inp.G, inp.K_Z),
                 "feasibility_report": lambda: rc.feasibility_report(noise, inp, system),
                 "asymptotic_rate": lambda: rc.asymptotic_rate(noise, inp, channel),
                 "NoiseModel": lambda: rc.NoiseModel(**noise_fields),
                 "InputModel": lambda: rc.InputModel(**input_fields),
                 "finite_n_rate": lambda: rc.finite_n_rate((noise, inp), channel, HORIZON),
                 "finite_n_rate_drift": lambda: rc.finite_n_rate(drifting, channel, HORIZON),
                 "empirical_report": lambda: rc.empirical_report(system, MC_STEPS, MC_PATHS, 0,
                                                                 analytic)}
        for name, call in calls.items():
            cells.setdefault(name, {})[str(m)] = cell = _time(call, lambda: _reference_s(np))
            print(f"# {name:<20} m = {m:<3} {cell['median_ms']:9.3f} ms", flush=True)
    record = {"label": label, "revision": _revision(), "cores": os.cpu_count(),
              "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
              "numpy": np.__version__, "python": platform.python_version(),
              "repeats": REPEATS, "min_batch_s": MIN_BATCH_S, "ref_nominal_s": REF_NOMINAL_S,
              "cells": cells}
    path = Path(f"BENCH_per_size_{label}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"# wrote {path}")


def _pooled(paths):
    # (median of the medians, least q1, greatest q3) of each cell every run has
    runs = [json.loads(Path(p).read_text())["cells"] for p in paths]
    return {(name, m): (statistics.median(run[name][m]["median_ms"] for run in runs),
                        min(run[name][m]["q1_ms"] for run in runs),
                        max(run[name][m]["q3_ms"] for run in runs))
            for name, sizes in runs[0].items() for m in sizes
            if all(m in run.get(name, {}) for run in runs)}


def _duration(ms):
    # a pooled median with its unit, microseconds below a millisecond, so a cell of a few
    # microseconds keeps three digits
    return f"{ms * 1e3:9.3f} us" if ms < 1.0 else f"{ms:9.3f} ms"


def compare(paths_a, paths_b):
    a, b = _pooled(paths_a), _pooled(paths_b)
    print(f"{'call':<20} {'m':>3} {'A':>12} {'B':>12} {'B/A':>6}  quartiles")
    for (name, m), (x, x1, x3) in a.items():
        if (name, m) not in b:
            continue
        y, y1, y3 = b[name, m]
        print(f"{name:<20} {m:>3} {_duration(x)} {_duration(y)} {y / x:6.3f}  "
              f"{'overlap' if y1 <= x3 and x1 <= y3 else 'apart'}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    timing = commands.add_parser("run", help="time every call at every size")
    timing.add_argument("--label", required=True)
    timing.add_argument("--sizes", type=int, nargs="+", default=SIZES)
    diff = commands.add_parser("compare", help="ratios of two sides' pooled timing files")
    diff.add_argument("--a", nargs="+", required=True, metavar="A.json")
    diff.add_argument("--b", nargs="+", required=True, metavar="B.json")
    args = parser.parse_args(argv)
    if args.command == "compare":
        compare(args.a, args.b)
    elif any(m < 2 or m % 2 for m in args.sizes):
        parser.error(f"--sizes takes even joint state sizes of 2 or more, got {args.sizes}")
    else:
        run(args.label, args.sizes)


if __name__ == "__main__":
    main()
