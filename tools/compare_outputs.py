"""Record a fixed set of library outputs for one source tree, and diff two recordings.

    python tools/compare_outputs.py record TREE OUT.pkl
    python tools/compare_outputs.py diff A.pkl B.pkl

``record`` runs the output set in a fresh interpreter whose path holds
TREE/src and TREE/tests (for ``conftest.random_models``), with one BLAS
thread, and pickles a flat {name: value} dict. ``diff`` lists every name
whose value differs, or that only one recording has; arrays and floats
compare with ``np.array_equal(..., equal_nan=True)``, so "no difference"
means bit-identical up to the sign of zero. A numeric output that differs
is listed with its largest relative difference, the largest entrywise
|a - b| over the largest finite |b|. A ``CheckRow``'s ``deviation``,
``rel_deviation`` and ``se_ratio`` are differences of near-equal numbers
(and the lag row's analytic value is 0), so each is also listed with how
far the row's empirical - analytic moved, over the row's scale
max(sup|analytic|, sup|empirical|) in either recording. It exits 1 if
anything differs.
``collect OUT.pkl`` is the step ``record`` runs in the child: it
records from whatever ``riccati_capacity`` the path resolves. It gives
``sample_paths`` and ``empirical_report`` the models' ``JointSystem``, one
system per set of models (``sampler``, ``reporter``).

The output set:

- 300 draws of ``random_models(np.random.default_rng(123), n_s=1+i%6,
  n_xi=1+i%4, n_y=1+i%2, rho_A=0.3+1.1*(i%12)/11)``, each with H = I and
  kappa = 1, through ``asymptotic_rate``: every ``CapacityResult`` field,
  its diagnostics and its feasibility report's verdicts, warnings and
  witness arrays;
- every tenth draw also through ``sample_paths`` (horizon 20, 300 paths,
  seed i), ``empirical_report`` and ``finite_n_rate`` at n = 40;
- draw 10's path 7 sampled alone, as a block of one path, next to row 7 of
  its 300-path batch, which it should equal bit for bit;
- 40 non-minimal draws of ``hidden_mode_models(np.random.default_rng(125),
  i)`` (a mode of A and one of F hidden from B or C and from G or Gamma,
  rho(A) from 0.6 to 1.3), each with H = I and kappa = 1, through
  ``feasibility_report`` and ``asymptotic_rate``, so that every one records
  minimality warnings, which a report computes on their first read;
- the derived blocks ``Bhat``, ``Dhat``, ``Khat``, ``mu_Theta1`` and
  ``K_Theta1`` of four systems over ``random_models(default_rng(17), n_s=2,
  n_xi=2, n_y=2, n_z=2)`` with nonzero initial means, through a 2 x 2 H: the
  joint system with its input states, the one with a memoryless input
  (``iid_input(I)``), that system's ``noise_quad`` and ``to_quadruple`` of
  the noise;
- ``finite_n_rate`` at n = 2000 on the drifting schedule A_t = 0.5 + 2^-t
  (scalar noise B = C = N = K_W = 1, a unit i.i.d. input);
- one draw with a joint state of 12, above the size from which
  ``finite_n_rate`` takes plain steps (``random_models(default_rng(7),
  n_s=6, n_xi=6, n_y=2, rho_A=1.2)``), through ``asymptotic_rate`` and
  ``finite_n_rate`` at n = 300;
- ``finite_n_rate`` at the prefix scan's tree edges: n = 1, 2, 3, 511, 512,
  513 and 1025 on a constant scalar pair (a one-state noise and a one-state
  input, joint state 2, whose chunks were 512 steps), and n = 63, 64, 65 and
  129 on a draw with a joint state of 8 (``random_models(default_rng(13),
  n_s=4, n_xi=4)``, whose chunks were 64 steps); and at the step cap, where
  every chunk ends: n = 2047, 2048, 2049 and 4097 on the scalar pair (2,048
  steps) and n = 255, 256 and 257 on the draw (256);
- ``kalman_run``'s three schedules (``Pi_seq``, ``K_I_seq``, ``gains``) and
  an ``empirical_report`` of 50 paths (seed 5) at the same tree edges, which
  the Monte Carlo's schedules and analytic power now cross: n = 1, 2, 511,
  512 and 513 on a joint state of 1 (a scalar noise, A = 0.999, that a
  unit i.i.d. input leaves without input state), n = 63, 64 and 65 on the
  draw with a joint state of 8, and n = 30 on the draw of 12, which takes
  plain steps;
- ``finite_n_rate`` on schedules that move every block of both models at
  every step (``drifting``), so no two steps share a pair: a joint state
  of 4 (``random_models(default_rng(11), n_s=2, n_xi=2, n_y=2)``) over 600
  steps, within one 1,024-step chunk, and the draw of 12 above over 100
  steps;
- the two "step t:" messages of ``finite_n_rate`` on one chunk where K_Ihat
  fails at step 7 and the noise changes shape at step 9, with and without
  the failing step, and the two where a schedule callback then raises
  TypeError (at step 10 after the shape change, at step 9 after the failing
  step);
- the "step t:" message of a noise that changes shape (two states to one,
  n_w = n_y = 1, so the scalar blocks would broadcast into the slots) at
  step 65 of a joint state of 8 (a second distinct pair within the chunk,
  whose stack is ragged) and step 2 of a joint state of 12 (plain steps),
  and at step 257, the first after the step cap of a joint state of 8;
- the "step t:" message of a schedule whose noise (A) or input (F) turns
  all NaN at step t alone, over 700 steps of ``random_models(default_rng(3),
  n_s=1, n_y=1)``: t = 3 and 600 at n_xi = 1 (a joint state of 2, one
  chunk) and t = 3 at n_xi = 8 (a joint state of 9, plain steps);
- the "step t:" message of a schedule whose noise_at returns an ``ndarray``
  and of one whose input_at returns a ``list`` at step 3, over 40 steps of
  ``random_models(default_rng(3), n_s=1, n_xi=1, n_y=1)``;
- ``finite_n_rate`` over 1,030 steps of a joint state of 0 (a memoryless
  noise, K_V = 0.5, and a unit i.i.d. input), within one chunk;
- models built from scalars, 1-D rows and Fortran-ordered arrays, and
  (``COERCED``) each of ``NoiseModel``, ``InputModel`` and ``Channel`` from
  integers, bools, integer and bool arrays, with their initial laws left
  out, and through one ``dataclasses.replace``: each field's values,
  shape, ``writeable`` and ``c_contiguous`` flags, and whether it shares
  memory with the caller's array (a ``kappa``, its value and type name);
- every construction error by field (``construction_errors``): a ragged
  list, a three-dimensional array, a two-dimensional initial mean, and a
  complex array, Python complex scalar and list of complex entries, each
  recorded as its message (or the model's ``repr`` if none is raised);
- the benchmark's sweep (scalar noise a = 1.5, kappa 0.5, 1, 2, dims
  (1, 1), three starts, seed 0, 15 iterations) and its two-mode
  water-filling case;
- ``optimize_input`` with the sweep's config on a mixed A (eigenvalues 0.5
  and 1.4) through a 2 x 2 H, dims (2, 2), at kappa = 40, where water-filling
  has full support and the closed-form input is taken, and at kappa = 8,
  where it has not and the search runs;
- ``capacity._waterfilling_input`` on 60 draws of
  ``random_models(np.random.default_rng(800 + i), n_s=1+i%3, n_xi=1,
  n_y=n_z=1+i%3, rho_A=(0.6, 0.95, 1.3, 1.6)[i%4])``, each through
  H = I + 0.3 N, N drawn next from the same generator, at kappa = 0.3, 3,
  30 and 300: the factor's F, G, Gamma, D and K_Z, or None where it
  declines;
- ``capacity._waterfill_powers`` on ``waterfill_gains(default_rng(321))``:
  seven edge cases (no gains, zero gains only, kappa = 0, a tie, a level far
  above kappa, gains of 1e9 and 1e-9 at kappa 1e6 and 1e-6) and 200 seeded
  descending gain vectors, gains from 1e-9 to 1e9 and kappa from 1e-6 to 1e6;
- ``waterfilling_oracle`` on ``waterfill_channels(default_rng(322))``: 200
  seeded (H, R, kappa) draws up to 4 x 4, every third H rank-deficient (a
  zero H where it has one row or column);
- the input search's noise-gate message for A = 1.5, B = [1, 0], C = 0,
  N = [0, 1], K_W = I;
- an ``empirical_report`` of 60 paths x 80 steps of the sweep's noise
  (a unit i.i.d. input, seed 31) read in six blocks of 10 paths, which pass
  the overflow guard at steps 69, 68, 70, 69, 69 and 67, so the first block
  is drawn again twice; the same at seed 6, whose blocks pass it at steps
  67, 68, 69, 70, 68 and 69, so the first block truncates the report, the
  later ones are cut and none is drawn again;
- six CLI commands (``CLI_COMMANDS``: ``check-system``, ``solve-are``,
  ``capacity-asym``, ``capacity-n``, ``simulate`` and ``optimize``) run
  in-process on one two-state unstable-noise model file (``CLI_MODEL``),
  and three more ``simulate --trace`` runs that sample in several blocks of
  paths: 7,000 paths x 50 steps on ``CLI_MODEL`` (three blocks), 2,996
  paths x 50 steps on ``CLI_MODEL`` (2,995 paths and a last block of one),
  and 12,000 paths x 80 steps on scalar noise A = 1.5
  (``SATURATING_MODEL``, six blocks), where a later block passes the
  overflow guard a step before the first, and three ``--kappa`` runs on
  ``CLI_MODEL``: ``capacity-n --kappa 1`` (a usage error), ``sweep-kappa``
  without ``--kappa`` (its grid is required) and ``optimize --kappa 0.5
  --starts 3 --max-iter 10 --dims 1,1``: each command's exit code and the
  bytes of its ``--out`` file (None when it writes none) and its
  ``--trace`` file;
- every subcommand's parsed flags when only ``--model`` is given (its
  handler left out), so a CLI default that drifts from the library's shows.
"""

import dataclasses
import functools
import json
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

DRAWS = 300
HIDDEN_DRAWS = 40
WATERFILL_DRAWS = 200
CLOSED_FORM_DRAWS = 60
# a feasibility report's six verdicts, its witness arrays and its warnings
REPORT_OUTPUTS = ("noise_detectable", "noise_stabilizable", "augmented_detectable",
                  "augmented_stabilizable", "input_F_stable", "unit_circle_controllable",
                  "witness_arrays", "warnings")

# the CLI's model file: unstable noise (eigenvalues 1.2 and 0.6), a
# one-state input and a scalar channel
CLI_MODEL = {
    "noise": {"A": [[1.2, 0.3], [0.0, 0.6]], "B": [[1.0, 0.0], [0.4, 0.0]],
              "C": [[1.0, 0.5]], "N": [[0.0, 1.0]], "K_W": [[1.0, 0.0], [0.0, 1.0]]},
    "input": {"F": [[0.3]], "G": [[1.0]], "Gamma": [[0.5]], "D": [[1.0]], "K_Z": [[1.0]]},
    "channel": {"H": [[1.0]], "kappa": 1.0},
}

# scalar noise growing by 1.5 a step: sampled states pass the overflow guard
# near step 67, in some blocks of paths a step before others
SATURATING_MODEL = dict(CLI_MODEL, noise={"A": [[1.5]], "B": [[1.0]], "C": [[1.0]],
                                          "N": [[1.0]], "K_W": [[1.0]]})

# (name, model file, subcommand and its flags); each also gets --model and
# --out, and a TRACE flag value names a file whose bytes are recorded too
CLI_COMMANDS = (
    ("check-system", CLI_MODEL, ["check-system"]),
    ("solve-are", CLI_MODEL, ["solve-are"]),
    ("capacity-asym", CLI_MODEL, ["capacity-asym"]),
    ("capacity-n", CLI_MODEL, ["capacity-n", "--n", "50"]),
    ("simulate", CLI_MODEL, ["simulate", "--n", "20", "--paths", "500", "--seed", "3"]),
    ("optimize", CLI_MODEL, ["optimize", "--starts", "3", "--max-iter", "10", "--dims", "1,1"]),
    # --kappa: a usage error where no budget is read, the grid sweep-kappa
    # requires, and optimize's budget in place of the model file's
    ("capacity-n.kappa", CLI_MODEL, ["capacity-n", "--kappa", "1"]),
    ("sweep-kappa.no_grid", CLI_MODEL, ["sweep-kappa"]),
    ("optimize.kappa", CLI_MODEL,
     ["optimize", "--kappa", "0.5", "--starts", "3", "--max-iter", "10", "--dims", "1,1"]),
    # three blocks of paths
    ("simulate.blocks", CLI_MODEL,
     ["simulate", "--n", "50", "--paths", "7000", "--seed", "3", "--trace", "TRACE"]),
    # a last block of one path
    ("simulate.one_path_block", CLI_MODEL,
     ["simulate", "--n", "50", "--paths", "2996", "--seed", "3", "--trace", "TRACE"]),
    # six blocks; the fifth passes the guard at step 66, the others at 67
    ("simulate.saturating", SATURATING_MODEL,
     ["simulate", "--n", "80", "--paths", "12000", "--seed", "4", "--trace", "TRACE"]),
)


# (model class, fields) built from integers, bools, and integer and bool arrays, and
# with the initial law left out; the names follow coerced.scalars, .rows and .fortran
COERCED = {
    "noise_ints": ("NoiseModel", dict(A=[[1, 0], [0, 0]], B=np.array([[1], [2]]), C=[[1, 1]],
                                      N=1, K_W=2, mu_S1=[1, 2], K_S1=np.eye(2, dtype=int))),
    "noise_bools": ("NoiseModel", dict(A=False, B=True, C=np.array([[True]]), N=True,
                                       K_W=True, mu_S1=np.array([True]), K_S1=False)),
    "noise_default_law": ("NoiseModel", dict(A=np.eye(3) / 2, B=np.ones((3, 1)),
                                             C=np.ones((2, 3)), N=np.ones((2, 1)), K_W=1.0)),
    "memoryless_default_law": ("NoiseModel", dict(A=np.zeros((0, 0)), B=np.zeros((0, 1)),
                                                  C=np.zeros((1, 0)), N=1.0, K_W=0.5)),
    "input_scalars": ("InputModel", dict(F=0.5, G=1.0, Gamma=0.7, D=1.0, K_Z=2.0, mu_Xi1=0.1,
                                         K_Xi1=3.0)),
    "input_rows": ("InputModel", dict(F=np.ones(1), G=np.ones(2), Gamma=np.ones(1),
                                      D=np.ones(2), K_Z=np.eye(2), mu_Xi1=np.ones(1),
                                      K_Xi1=np.ones(1))),
    "input_fortran": ("InputModel", {name: np.asfortranarray(value) for name, value in (
        ("F", [[0.5, 0.1], [0.2, 0.3]]), ("G", [[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]),
        ("Gamma", [[1.0, 0.5]]), ("D", [[0.0, 1.0, 1.0]]), ("K_Z", np.eye(3)),
        ("mu_Xi1", [1.0, 2.0]), ("K_Xi1", [[1.0, 0.5], [0.5, 1.0]]))}),
    "input_ints": ("InputModel", dict(F=[[0]], G=[[1, 2]], Gamma=np.array([[3]]), D=[[1, 0]],
                                      K_Z=np.eye(2, dtype=int), mu_Xi1=[4], K_Xi1=5)),
    "input_bools": ("InputModel", dict(F=True, G=np.array([[False, True]]), Gamma=False,
                                       D=[[True, True]], K_Z=np.eye(2, dtype=bool))),
    "input_default_law": ("InputModel", dict(F=np.eye(2) / 4, G=np.ones((2, 1)),
                                             Gamma=np.ones((1, 2)), D=1.0, K_Z=1.0)),
    "iid_default_law": ("InputModel", dict(F=np.zeros((0, 0)), G=np.zeros((0, 2)),
                                           Gamma=np.zeros((2, 0)), D=np.eye(2), K_Z=np.eye(2))),
    "channel_scalars": ("Channel", dict(H=2.0, kappa=1.5)),
    "channel_row": ("Channel", dict(H=np.ones(3), kappa=1)),
    "channel_fortran": ("Channel", dict(H=np.asfortranarray([[1.0, 2.0], [3.0, 4.0]]),
                                        kappa=np.float32(0.5))),
    "channel_ints": ("Channel", dict(H=[[1, 2]], kappa=True)),
    "channel_bools": ("Channel", dict(H=np.array([[True, False]]))),
}
# (model class, fields, changes) for dataclasses.replace, which converts each changed field
REPLACED = {
    "replaced_noise": ("NoiseModel", COERCED["noise_default_law"][1],
                       dict(A=np.asfortranarray(np.eye(3) / 3), K_S1=2)),
    "replaced_input": ("InputModel", COERCED["input_scalars"][1], dict(K_Z=[[4]], mu_Xi1=1)),
    "replaced_channel": ("Channel", COERCED["channel_row"][1], dict(H=[[1, 2, 3]], kappa=2)),
}


def construction_errors():
    """(class, field, value label, fields) for every field of each model and each bad value."""
    valid = {"NoiseModel": dict(A=0.5, B=1.0, C=1.0, N=1.0, K_W=1.0, mu_S1=0.0, K_S1=0.0),
             "InputModel": dict(F=0.5, G=1.0, Gamma=1.0, D=1.0, K_Z=1.0, mu_Xi1=0.0,
                                K_Xi1=0.0),
             "Channel": dict(H=1.0)}
    bad = {"ragged": [[1.0, 2.0], [3.0]], "three_dimensional": np.zeros((1, 1, 1)),
           "two_dimensional": [[0.0]], "complex_array": np.array([[1.0 + 2.0j]]),
           "complex_scalar": 1.0 + 2.0j, "complex_list": [[1.0, 2.0j]]}
    for cls, arrays in valid.items():
        for name in arrays:
            for label, value in bad.items():
                if label != "two_dimensional" or name.startswith("mu_"):
                    yield cls, name, label, {**arrays, name: value}


def _coerced(out, name, model, given):
    # each field of a built model, and whether it shares memory with the value given for it
    for field in dataclasses.fields(model):
        key = field.name
        own = getattr(model, key)
        if not isinstance(own, np.ndarray):
            out[f"coerced.{name}.{key}"] = (own, type(own).__name__)
            continue
        out[f"coerced.{name}.{key}"] = own
        out[f"coerced.{name}.{key}.shape"] = own.shape
        out[f"coerced.{name}.{key}.flags"] = (own.flags.writeable, own.flags.c_contiguous,
                                              bool(np.shares_memory(own, given.get(key))))


def _flatten(prefix, obj, out):
    # leaves are arrays, numbers, strings, None; containers and dataclasses
    # (models, results, reports) recurse through their public fields; other
    # objects record their type. A feasibility report's joint verdicts,
    # witness arrays and warnings may be computed on first read, not fields,
    # so REPORT_OUTPUTS are read and recorded by name, from either tree
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        names = [f.name for f in dataclasses.fields(obj) if not f.name.startswith("_")]
        if type(obj).__name__ == "TrajectoryBatch":
            names = [name for name in names if name not in ("noise", "input", "channel")]
        if type(obj).__name__ == "FeasibilityReport":
            names += [name for name in REPORT_OUTPUTS if name not in names]
        for name in names:
            _flatten(f"{prefix}.{name}", getattr(obj, name), out)
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


def sampler(rc, noise, inp, channel):
    """``sample_paths`` on the models' ``JointSystem``, less its first argument.

    The system is built on the first call and shared by every later one.
    """
    system = functools.cache(lambda: rc.build_augmented(noise, inp, channel))
    return lambda *args: rc.sample_paths(system(), *args)


def _ranges(paths, length):
    # consecutive blocks of ``length`` path indices, ``paths`` in all
    return [range(lo, min(lo + length, paths)) for lo in range(0, paths, length)]


def reporter(rc, noise, inp, channel):
    """``empirical_report`` on the models' system, as (horizon, paths, seed, analytic, length).

    ``length`` paths a block, or None for the report's own blocks; where
    it is given, ``simulate._path_blocks`` is replaced for the call. The
    system is built on the first call and shared by every later one.
    """
    system = functools.cache(lambda: rc.build_augmented(noise, inp, channel))

    def report(horizon, paths, seed, analytic, length=None):
        blocks = rc.simulate._path_blocks
        if length is not None:
            rc.simulate._path_blocks = lambda system, horizon, paths: _ranges(paths, length)
        try:
            return rc.empirical_report(system(), horizon, paths, seed, analytic)
        finally:
            rc.simulate._path_blocks = blocks
    return report


def drifting(rc, noise, inp):
    """A schedule around the pair whose every block moves at every step."""

    def noise_at(t):
        c, s = np.cos(t), np.sin(t)
        return rc.NoiseModel(A=noise.A * (1.0 + 0.2 * c), B=noise.B + 0.3 * s,
                             C=noise.C * (1.0 + 0.1 * s), N=noise.N + 0.2 * c,
                             K_W=noise.K_W * (1.0 + 0.5 * s * s), K_S1=noise.K_S1)

    def input_at(t):
        c, s = np.cos(0.7 * t), np.sin(0.7 * t)
        return rc.InputModel(F=inp.F * (1.0 + 0.3 * c), G=inp.G + 0.4 * s,
                             Gamma=inp.Gamma * (1.0 - 0.2 * s), D=inp.D + 0.3 * c,
                             K_Z=inp.K_Z * (1.0 + 0.5 * c * c), K_Xi1=inp.K_Xi1)

    return rc.CoefficientSchedule(noise_at=noise_at, input_at=input_at, noise_limit=noise,
                                  input_limit=inp)


def waterfill_gains(rng):
    """(gains, kappa) pairs for the water-filling kernel, gains in decreasing order.

    The seven edge cases of the module docstring, then WATERFILL_DRAWS draws
    of 1 to 11 modes: half with log-normal gains (sigma 3) and kappa (sigma
    2), half with gains log-uniform over 1e-9 to 1e9 and kappa over 1e-6 to
    1e6; a tenth of the drawn gains are zero.
    """
    cases = [(np.zeros(0), 1.0), (np.zeros(3), 1.0), (np.array([2.0, 1.0]), 0.0),
             (np.array([1.0, 1.0, 0.5]), 0.5), (np.array([1.1e-9, 1.05e-9, 0.0]), 1e-6),
             (np.array([1e9, 1e-9]), 1e6), (np.array([1e9, 1e-9]), 1e-6)]
    for i in range(WATERFILL_DRAWS):
        n = int(rng.integers(1, 12))
        if i % 2:
            gains, kappa = 10.0 ** rng.uniform(-9.0, 9.0, n), 10.0 ** rng.uniform(-6.0, 6.0)
        else:
            gains, kappa = np.exp(rng.normal(0.0, 3.0, n)), np.exp(rng.normal(0.0, 2.0))
        gains[rng.random(n) < 0.1] = 0.0
        cases.append((np.sort(gains)[::-1], float(kappa)))
    return cases


def waterfill_channels(rng):
    """WATERFILL_DRAWS (H, R, kappa) draws for ``waterfilling_oracle``.

    H is n_y x n_x with both from 1 to 4, of rank min(n_y, n_x) - 1 on every
    third draw (H = 0 where that rank is 0); R = A A^T + n_y I with A
    standard normal; kappa is log-uniform over 1e-2 to 1e2.
    """
    cases = []
    for i in range(WATERFILL_DRAWS):
        n_y, n_x = (int(n) for n in rng.integers(1, 5, size=2))
        rank = min(n_y, n_x) - (i % 3 == 0)
        H = rng.normal(size=(n_y, rank)) @ rng.normal(size=(rank, n_x))
        A = rng.normal(size=(n_y, n_y))
        cases.append((H, A @ A.T + n_y * np.eye(n_y), float(10.0 ** rng.uniform(-2.0, 2.0))))
    return cases


def _factor(rc, noise, channel):
    # the closed-form input's five arrays, or None where it declines
    model = rc.capacity._waterfilling_input(noise, channel)
    return None if model is None else (model.F, model.G, model.Gamma, model.D, model.K_Z)


def collect(path):
    import riccati_capacity as rc
    from conftest import hidden_mode_models, random_models

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
        sample = sampler(rc, noise, inp, channel)
        batch = _record(out, f"draw{i}.sample_paths", lambda: sample(20, 300, i))
        if batch is not None and result is not None:
            report = reporter(rc, noise, inp, channel)
            _record(out, f"draw{i}.empirical_report", lambda: report(20, 300, i, result))
        if i == 10 and batch is not None:
            _record(out, "draw10.one_path_block",
                    lambda: sample(20, range(7, 8), i))
            _flatten("draw10.batch_row7", {name: getattr(batch, name)[7:8]
                                          for name in ("S", "V", "Xi", "X", "Y")}, out)
        _record(out, f"draw{i}.finite_n_rate",
                lambda: rc.finite_n_rate((noise, inp), channel, 40))

    rng = np.random.default_rng(125)
    for i in range(HIDDEN_DRAWS):
        noise, inp = hidden_mode_models(rng, i)
        channel = rc.Channel(H=np.eye(noise.n_y), kappa=1.0)
        _record(out, f"hidden{i}.feasibility_report",
                lambda: rc.feasibility_report(noise, inp, channel))
        _record(out, f"hidden{i}.asymptotic_rate", lambda: rc.asymptotic_rate(noise, inp, channel))

    # the derived blocks of a joint system with input states, of one with a memoryless
    # input, of that system's noise_quad and of to_quadruple(noise)
    noise, inp = random_models(np.random.default_rng(17), n_s=2, n_xi=2, n_y=2, n_z=2)
    noise = dataclasses.replace(noise, mu_S1=[0.5, -1.0])
    inp = dataclasses.replace(inp, mu_Xi1=[2.0, 0.25])
    channel = rc.Channel(H=[[1.0, 0.3], [0.2, 0.9]], kappa=1.0)
    systems = {"input_states": rc.build_augmented(noise, inp, channel),
               "memoryless_input": rc.build_augmented(noise, rc.iid_input(np.eye(2)), channel)}
    systems["noise_quad"] = systems["memoryless_input"].noise_quad
    systems["to_quadruple"] = rc.to_quadruple(noise)
    for name, system in systems.items():
        _flatten(f"derived_blocks.{name}", {key: getattr(system, key) for key in (
            "Bhat", "Dhat", "Khat", "mu_Theta1", "K_Theta1")}, out)

    unit_input = rc.iid_input([[1.0]])
    drifting_scalar = rc.CoefficientSchedule(
        noise_at=lambda t: rc.NoiseModel(A=0.5 + 2.0 ** -t, B=1.0, C=1.0, N=1.0, K_W=1.0),
        input_at=lambda t: unit_input, noise_limit=rc.NoiseModel(A=0.5, B=1.0, C=1.0, N=1.0,
                                                                 K_W=1.0),
        input_limit=unit_input)
    _record(out, "drifting.finite_n_rate",
            lambda: rc.finite_n_rate(drifting_scalar, rc.Channel(H=[[1.0]], kappa=1.0), 2000))
    noise, inp = random_models(np.random.default_rng(7), n_s=6, n_xi=6, n_y=2, rho_A=1.2)
    channel = rc.Channel(H=np.eye(2), kappa=1.0)
    _record(out, "large.asymptotic_rate", lambda: rc.asymptotic_rate(noise, inp, channel))
    _record(out, "large.finite_n_rate", lambda: rc.finite_n_rate((noise, inp), channel, 300))
    _record(out, "large.drifting.finite_n_rate",
            lambda: rc.finite_n_rate(drifting(rc, noise, inp), channel, 100))
    scalar_pair = (rc.NoiseModel(A=0.9, B=1.0, C=1.0, N=1.0, K_W=1.0, K_S1=0.5),
                   rc.InputModel(F=0.6, G=1.0, Gamma=1.0, D=1.0, K_Z=1.0, K_Xi1=0.3))
    for n in (1, 2, 3, 511, 512, 513, 1025, 2047, 2048, 2049, 4097):
        _record(out, f"scan_edges.scalar.n{n}.finite_n_rate",
                lambda: rc.finite_n_rate(scalar_pair, rc.Channel(H=[[1.0]], kappa=1.0), n))
    pair8 = random_models(np.random.default_rng(13), n_s=4, n_xi=4)
    for n in (63, 64, 65, 129, 255, 256, 257):
        _record(out, f"scan_edges.m8.n{n}.finite_n_rate",
                lambda: rc.finite_n_rate(pair8, rc.Channel(H=[[1.0]], kappa=1.0), n))
    slow = (rc.NoiseModel(A=0.999, B=[[0.1, 0.0]], C=0.1, N=[[0.0, 1.0]], K_W=np.eye(2)),
            unit_input)
    for name, models, horizons in (("m1", slow, (1, 2, 511, 512, 513)),
                                   ("m8", pair8, (63, 64, 65)), ("m12", (noise, inp), (30,))):
        ch = rc.Channel(H=np.eye(models[0].n_y), kappa=1.0)
        analytic = rc.asymptotic_rate(*models, ch)
        report = reporter(rc, *models, ch)
        for n in horizons:
            batch = sampler(rc, *models, ch)(n, 50, 5)
            _record(out, f"schedule_edges.{name}.n{n}.kalman_run",
                    lambda: {key: getattr(rc.kalman_run(batch), key)
                             for key in ("Pi_seq", "K_I_seq", "gains")})
            _record(out, f"schedule_edges.{name}.n{n}.empirical_report",
                    lambda: report(n, 50, 5, analytic))
    pair = random_models(np.random.default_rng(11), n_s=2, n_xi=2, n_y=2)
    _record(out, "drifting4.finite_n_rate",
            lambda: rc.finite_n_rate(drifting(rc, *pair), channel, 600))
    noise, inp = random_models(np.random.default_rng(3), n_s=1, n_xi=1, n_y=1)
    silent = dataclasses.replace(noise, C=[[0.0]], N=np.zeros((1, 2)))
    wider = rc.NoiseModel(A=np.eye(2) * 0.5, B=np.eye(2), C=[[1.0, 0.0]], N=[[0.0, 1.0]],
                          K_W=np.eye(2))

    def raising_at(step, noise_at):
        def raising(t):
            if t == step:
                raise TypeError("no model")
            return noise_at(t)
        return raising

    failing_K = lambda t: silent if t == 7 else wider if t >= 9 else noise  # noqa: E731
    shape_change = lambda t: wider if t >= 9 else noise  # noqa: E731
    for name, noise_at in (
            ("failing_K", failing_K), ("shape_change", shape_change),
            ("type_error_after_shape_change", raising_at(10, shape_change)),
            ("type_error_after_failing_K", raising_at(9, failing_K))):
        schedule = rc.CoefficientSchedule(noise_at=noise_at, input_at=lambda t: inp,
                                          noise_limit=noise, input_limit=inp)
        _record(out, f"step_message.{name}",
                lambda: rc.finite_n_rate(schedule, rc.Channel(H=[[1.0]], kappa=1.0), 40))
    two_state = rc.NoiseModel(A=np.diag([0.5, 0.3]), B=[[1.0], [0.5]], C=[[1.0, 1.0]],
                              N=[[1.0]], K_W=[[1.0]])
    one_state = rc.NoiseModel(A=0.5, B=1.0, C=1.0, N=1.0, K_W=1.0)
    # literals, so that the schedules do not depend on the chunk rule: the shape changes
    # within a chunk at a joint state of 8 (step 65), in plain steps at 12 (step 2), and
    # at 257, the first step after the step cap of a joint state of 8
    for name, n_xi, switch in (("chunk_start", 6, 65), ("chunk_start", 10, 2),
                               ("step_cap", 6, 257)):
        inp = rc.InputModel(F=0.5 * np.eye(n_xi), G=np.ones((n_xi, 1)),
                            Gamma=np.ones((1, n_xi)) / n_xi, D=1.0, K_Z=1.0)
        schedule = rc.CoefficientSchedule(
            noise_at=lambda t: two_state if t < switch else one_state, input_at=lambda t: inp,
            noise_limit=two_state, input_limit=inp)
        _record(out, f"step_message.{name}.m{n_xi + 2}",
                lambda: rc.finite_n_rate(schedule, rc.Channel(H=[[1.0]], kappa=1.0), switch + 4))

    for n_xi, steps in ((1, (3, 600)), (8, (3,))):
        pair = dict(zip(("noise", "input"), random_models(np.random.default_rng(3), n_s=1,
                                                          n_xi=n_xi, n_y=1)))
        for side, t in ((side, t) for side in pair for t in steps):
            good = pair[side]
            name = good._ARRAYS[0][0]
            bad = dataclasses.replace(good, **{name: np.full_like(getattr(good, name), np.nan)})
            at = {key: (lambda s, model=model: model) for key, model in pair.items()}
            at[side] = lambda s, t=t, bad=bad, good=good: bad if s == t else good
            schedule = rc.CoefficientSchedule(noise_at=at["noise"], input_at=at["input"],
                                              noise_limit=pair["noise"], input_limit=pair["input"])
            _record(out, f"step_message.non_finite.{side}.m{n_xi + 1}.t{t}",
                    lambda: rc.finite_n_rate(schedule, rc.Channel(H=[[1.0]], kappa=1.0), 700))
    # a schedule callback that returns an unhashable non-model at step 3
    noise, inp = random_models(np.random.default_rng(3), n_s=1, n_xi=1, n_y=1)
    for side, returned in (("noise", np.eye(1)), ("input", [[1.0]])):
        at = {"noise": lambda s: noise, "input": lambda s: inp}
        at[side] = lambda s, good=at[side], returned=returned: returned if s == 3 else good(s)
        schedule = rc.CoefficientSchedule(noise_at=at["noise"], input_at=at["input"],
                                          noise_limit=noise, input_limit=inp)
        _record(out, f"step_message.not_a_model.{side}.{type(returned).__name__}",
                lambda: rc.finite_n_rate(schedule, rc.Channel(H=[[1.0]], kappa=1.0), 40))
    _record(out, "memoryless.finite_n_rate",
            lambda: rc.finite_n_rate((rc.memoryless_noise([[0.5]]), unit_input),
                                     rc.Channel(H=[[1.0]], kappa=1.0), 1030))

    rows = dict(A=np.ones(1), B=np.ones(2), C=np.ones(1), N=np.ones(2), K_W=np.eye(2),
                mu_S1=np.ones(1), K_S1=np.ones(1))
    fortran = {name: np.asfortranarray(value) for name, value in (
        ("A", [[0.5, 0.1], [0.2, 0.3]]), ("B", [[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]),
        ("C", [[1.0, 0.5]]), ("N", [[0.0, 1.0, 1.0]]), ("K_W", np.eye(3)),
        ("mu_S1", [1.0, 2.0]), ("K_S1", [[1.0, 0.5], [0.5, 1.0]]))}
    models = {"NoiseModel": rc.NoiseModel, "InputModel": rc.InputModel, "Channel": rc.Channel}
    for name, arrays in (("scalars", dict(A=0.5, B=1.0, C=1.0, N=1.0, K_W=2.0, mu_S1=1.0,
                                          K_S1=3.0)),
                         ("rows", rows), ("fortran", fortran)):
        _coerced(out, name, rc.NoiseModel(**arrays), arrays)
    for name, (cls, arrays) in COERCED.items():
        _coerced(out, name, models[cls](**arrays), arrays)
    for name, (cls, arrays, changes) in REPLACED.items():
        _coerced(out, name, dataclasses.replace(models[cls](**arrays), **changes), changes)
    for cls, name, value, arrays in construction_errors():
        _record(out, f"construction_error.{cls}.{name}.{value}",
                lambda: repr(models[cls](**arrays)))

    config = rc.OptimizerConfig(starts=3, seed=0, maxiter=15)
    scalar = rc.NoiseModel(A=1.5, B=1.0, C=1.0, N=1.0, K_W=1.0, K_S1=0.0)
    unit = rc.Channel(H=[[1.0]], kappa=1.0)
    _record(out, "sweep", lambda: rc.sweep_kappa(scalar, unit, (0.5, 1.0, 2.0), (1, 1), config))
    _record(out, "waterfill",
            lambda: rc.optimize_input(rc.memoryless_noise(np.eye(2)),
                                      rc.Channel(H=np.diag([1.0, 2.0]), kappa=1.0), (0, 2),
                                      config))
    # a mixed A (eigenvalues 0.5 and 1.4) seen through a 2 x 2 H; full water-filling
    # support starts near kappa = 29.8, so 40 takes the closed-form input and 8 searches
    mixed = rc.NoiseModel(A=[[0.5, 0.3], [0.0, 1.4]], B=[[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]],
                          C=[[1.0, 0.5], [0.3, 1.0]], N=[[1.0, 0.0, 0.2], [0.0, 1.0, 0.3]],
                          K_W=np.eye(3))
    for support, kappa in (("full", 40.0), ("partial", 8.0)):
        _record(out, f"mixed_2x2.{support}",
                lambda: rc.optimize_input(mixed, rc.Channel(H=[[1.0, 0.2], [0.1, 0.8]],
                                                            kappa=kappa), (2, 2), config))
    for i in range(CLOSED_FORM_DRAWS):
        rng = np.random.default_rng(800 + i)
        noise, _ = random_models(rng, n_s=1 + i % 3, n_xi=1, n_y=1 + i % 3, n_z=1 + i % 3,
                                 rho_A=(0.6, 0.95, 1.3, 1.6)[i % 4])
        H = np.eye(noise.n_y) + 0.3 * rng.normal(size=(noise.n_y, noise.n_y))
        for kappa in (0.3, 3.0, 30.0, 300.0):
            _record(out, f"closed_form{i}.kappa{kappa:g}",
                    lambda: _factor(rc, noise, rc.Channel(H=H, kappa=kappa)))
    for i, (gains, kappa) in enumerate(waterfill_gains(np.random.default_rng(321))):
        _record(out, f"waterfill_powers{i}", lambda: rc.capacity._waterfill_powers(gains, kappa))
    for i, (H, R, kappa) in enumerate(waterfill_channels(np.random.default_rng(322))):
        _record(out, f"waterfilling_oracle{i}", lambda: rc.waterfilling_oracle(H, R, kappa))
    gate = rc.NoiseModel(A=1.5, B=[[1.0, 0.0]], C=0.0, N=[[0.0, 1.0]], K_W=np.eye(2))
    _record(out, "noise_gate", lambda: rc.optimize_input(gate, unit, (1, 1), config))
    # the reports of a saturating batch in blocks: one of which truncates it,
    # drawing earlier blocks again; and one whose first block does, so none is
    scalar_rate = rc.asymptotic_rate(scalar, unit_input, unit)
    report = reporter(rc, scalar, unit_input, unit)
    for name, seed in (("blocks.saturating", 31), ("blocks.first_saturating", 6)):
        _record(out, f"{name}.empirical_report", lambda: report(80, 60, seed, scalar_rate, 10))

    import riccati_capacity.cli
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc, argv in CLI_COMMANDS:
            model, result, trace = (Path(tmp, name + suffix) for suffix in (".json", ".out", ".csv"))
            model.write_text(json.dumps(doc))
            argv = [str(trace) if arg == "TRACE" else arg for arg in argv]
            out[f"cli.{name}.exit"] = riccati_capacity.cli.main(
                [*argv, "--model", str(model), "--out", str(result)])
            out[f"cli.{name}.out"] = result.read_bytes() if result.exists() else None
            if str(trace) in argv:
                out[f"cli.{name}.trace"] = trace.read_bytes() if trace.exists() else None
    for name, *_ in riccati_capacity.cli._SUBCOMMANDS:
        args = vars(riccati_capacity.cli.build_parser().parse_args([name, "--model", "m.json"]))
        del args["handler"]
        _flatten(f"cli.{name}.defaults", args, out)

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


def _relative(a, b):
    # largest entrywise |a - b| over the largest finite |b|, for numbers or
    # numeric arrays of one shape; None for anything else
    a, b = np.asarray(a), np.asarray(b)
    if (a.shape != b.shape or a.size == 0 or a.dtype == bool or b.dtype == bool
            or not (np.issubdtype(a.dtype, np.number) and np.issubdtype(b.dtype, np.number))):
        return None
    with np.errstate(invalid="ignore", over="ignore"):
        gap = np.where((a == b) | (np.isnan(a) & np.isnan(b)), 0.0, np.abs(a - b))
    scale = np.max(np.abs(b[np.isfinite(b)]), initial=0.0)
    return float(np.max(gap) / scale) if scale > 0 else float(np.max(gap))


def _row_move(a, b, name):
    # for a CheckRow's deviation, rel_deviation or se_ratio in recordings a and b: the
    # largest move of the row's empirical - analytic over max(sup|analytic|, sup|empirical|)
    # in either recording; None for any other name
    row, _, field = name.rpartition(".")
    keys = (f"{row}.analytic", f"{row}.empirical")
    if field not in ("deviation", "rel_deviation", "se_ratio") or not all(
            key in a and key in b for key in keys):
        return None
    (an_a, emp_a), (an_b, emp_b) = ([np.asarray(rec[key], dtype=np.float64) for key in keys]
                                    for rec in (a, b))
    if not an_a.shape == emp_a.shape == an_b.shape == emp_b.shape:
        return None
    move = np.max(np.abs((emp_b - an_b) - (emp_a - an_a)), initial=0.0)
    scale = max(np.max(np.abs(x), initial=0.0) for x in (an_a, emp_a, an_b, emp_b))
    return float(move / scale) if scale > 0 else float(move)


def diff(path_a, path_b):
    with open(path_a, "rb") as fh:
        a = pickle.load(fh)
    with open(path_b, "rb") as fh:
        b = pickle.load(fh)
    differing = [name for name in a if name in b and not _same(a[name], b[name])]
    for name in differing:
        relative, moved = _relative(a[name], b[name]), _row_move(a, b, name)
        notes = ([] if relative is None else [f"largest relative difference {relative:.3g}"]) + (
            [] if moved is None else [f"empirical - analytic moved {moved:.3g} of the row's scale"])
        print(f"differs: {name}" + (f" ({'; '.join(notes)})" if notes else ""))
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
