"""Record a fixed set of library outputs for one source tree, and diff two recordings.

    python tools/compare_outputs.py record TREE OUT.pkl
    python tools/compare_outputs.py diff A.pkl B.pkl

``record`` runs the output set in a fresh interpreter whose path holds
TREE/src and TREE/tests (for ``conftest.random_models``), with one BLAS
thread, and pickles a flat {name: value} dict. ``diff`` lists every name
whose value differs, or that only one recording has; arrays and floats
compare with ``np.array_equal(..., equal_nan=True)``, so "no difference"
means bit-identical up to the sign of zero. It exits 1 if anything
differs. ``collect OUT.pkl`` is the step ``record`` runs in the child: it
records from whatever ``riccati_capacity`` the path resolves.

The output set:

- 300 draws of ``random_models(np.random.default_rng(123), n_s=1+i%6,
  n_xi=1+i%4, n_y=1+i%2, rho_A=0.3+1.1*(i%12)/11)``, each with H = I and
  kappa = 1, through ``asymptotic_rate``: every ``CapacityResult`` field,
  its diagnostics and its feasibility report's verdicts, warnings and
  witness arrays;
- every tenth draw also through ``sample_paths`` (horizon 20, 300 paths,
  seed i), ``empirical_report`` and ``finite_n_rate`` at n = 40;
- the benchmark's sweep (scalar noise a = 1.5, kappa 0.5, 1, 2, dims
  (1, 1), three starts, seed 0, 15 iterations) and its two-mode
  water-filling case;
- the input search's noise-gate message for A = 1.5, B = [1, 0], C = 0,
  N = [0, 1], K_W = I.
"""

import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

DRAWS = 300


def _flatten(prefix, obj, out):
    # leaves are arrays, numbers, strings, None; containers and dataclasses
    # (models, results, reports) recurse; other objects record their type
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            _flatten(f"{prefix}.{f.name}", getattr(obj, f.name), out)
    elif isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(f"{prefix}.{key}", value, out)
    elif isinstance(obj, (tuple, list)):
        for i, value in enumerate(obj):
            _flatten(f"{prefix}[{i}]", value, out)
    elif obj is None or isinstance(obj, (str, bool, int, float, complex, np.ndarray, np.generic)):
        out[prefix] = obj
    else:
        out[prefix] = f"<{type(obj).__name__}>"


def _record(out, name, call):
    # a raised error is an output too
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001
        out[name] = f"raised {type(exc).__name__}: {exc}"
        return None
    _flatten(name, result, out)
    return result


def collect(path):
    import riccati_capacity as rc
    from conftest import random_models

    out = {}
    rng = np.random.default_rng(123)
    for i in range(DRAWS):
        noise, inp = random_models(rng, n_s=1 + i % 6, n_xi=1 + i % 4, n_y=1 + i % 2,
                                   rho_A=0.3 + 1.1 * (i % 12) / 11)
        channel = rc.Channel(H=np.eye(noise.n_y), kappa=1.0)
        result = _record(out, f"draw{i}.asymptotic_rate",
                         lambda: rc.asymptotic_rate(noise, inp, channel))
        if i % 10:
            continue
        batch = _record(out, f"draw{i}.sample_paths",
                        lambda: rc.sample_paths(noise, inp, channel, 20, 300, i))
        if batch is not None and result is not None:
            _record(out, f"draw{i}.empirical_report", lambda: rc.empirical_report(batch, result))
        _record(out, f"draw{i}.finite_n_rate",
                lambda: rc.finite_n_rate((noise, inp), channel, 40))

    config = rc.OptimizerConfig(starts=3, seed=0, maxiter=15)
    scalar = rc.NoiseModel(A=1.5, B=1.0, C=1.0, N=1.0, K_W=1.0, K_S1=0.0)
    unit = rc.Channel(H=[[1.0]], kappa=1.0)
    _record(out, "sweep", lambda: rc.sweep_kappa(scalar, unit, (0.5, 1.0, 2.0), (1, 1), config))
    _record(out, "waterfill",
            lambda: rc.optimize_input(rc.memoryless_noise(np.eye(2)),
                                      rc.Channel(H=np.diag([1.0, 2.0]), kappa=1.0), (0, 2),
                                      config))
    gate = rc.NoiseModel(A=1.5, B=[[1.0, 0.0]], C=0.0, N=[[0.0, 1.0]], K_W=np.eye(2))
    _record(out, "noise_gate", lambda: rc.optimize_input(gate, unit, (1, 1), config))

    with open(path, "wb") as fh:
        pickle.dump(out, fh)
    print(f"{len(out)} outputs written to {path}")


def record(tree, path):
    tree = Path(tree).resolve()
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(tree / "src"), str(tree / "tests")]))
    return subprocess.run([sys.executable, str(Path(__file__).resolve()), "collect",
                           str(Path(path).resolve())], env=env, cwd=tree).returncode


def _same(a, b):
    if isinstance(a, (np.ndarray, np.generic, float, complex)) or isinstance(
            b, (np.ndarray, np.generic, float, complex)):
        try:
            return np.array_equal(a, b, equal_nan=True)
        except TypeError:  # a non-numeric value on one side
            return False
    return type(a) is type(b) and a == b


def diff(path_a, path_b):
    with open(path_a, "rb") as fh:
        a = pickle.load(fh)
    with open(path_b, "rb") as fh:
        b = pickle.load(fh)
    differing = [name for name in a if name in b and not _same(a[name], b[name])]
    for name in differing:
        print(f"differs: {name}")
    for name in sorted(a.keys() - b.keys()):
        print(f"only in {path_a}: {name}")
    for name in sorted(b.keys() - a.keys()):
        print(f"only in {path_b}: {name}")
    same = len(a.keys() & b.keys()) - len(differing)
    print(f"{same} of {len(a.keys() | b.keys())} outputs identical")
    return int(same != len(a.keys() | b.keys()))


if __name__ == "__main__":
    commands = {"record": (record, 2), "diff": (diff, 2), "collect": (collect, 1)}
    if len(sys.argv) < 2 or sys.argv[1] not in commands or len(sys.argv) != 2 + commands[
            sys.argv[1]][1]:
        sys.exit(__doc__)
    sys.exit(commands[sys.argv[1]][0](*sys.argv[2:]))
