"""Batch front end: parse a model file, dispatch one subcommand, emit results.

The parsed argument namespace is the whole run configuration. ``main``
parses the flags, loads the JSON model document and hands both to the
subcommand's handler. Every handler has the same shape: it parses the
model sections it needs, makes its one library operation, writes its
document through ``_emit`` and returns a soft-failure message (solver
non-convergence, an infeasible budget, a failed check) or None; ``main``
turns that message into exit 3 under --strict. The keys of each model
section are the fields of its model class, so any CLI result can be
reproduced from the library with the parsed inputs. Each subcommand
declares only the flags its handler reads, so a flag it would ignore is
a usage error. The power budget bounds only the input search, so only
``optimize`` (one budget in place of the model file's ``channel.kappa``)
and ``sweep-kappa`` (the comma-separated grid) take ``--kappa``. Results
are JSON (CSV for traces and sweeps) with numbers at 17 significant
digits.

Exit codes: 0 success; 2 configuration or validation error (bad file,
malformed matrix, violated invariant); 3 solver failure, or a soft
failure when --strict is set.
"""

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .capacity import (
    OptimizerConfig,
    TRACE_COLUMNS,
    asymptotic_rate,
    finite_n_rate,
    optimize_input,
    sweep_kappa,
)
from .lyapunov import DEFAULT_TOL, MAX_DOUBLINGS
from .models import Channel, InputModel, NoiseModel, build_augmented, require_valid, to_quadruple
# stays importable here because bench/tracing.py patches it at this name
from .models import validate  # noqa: F401
from .riccati import are_solve
from . import simulate
from .simulate import empirical_report, sample_paths
from .systests import VERDICTS, feasibility_report

__all__ = ["main"]

_NOT_CONVERGED = "solver did not converge"


# ---------------------------------------------------------------- output


def _format_float(x):
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _dumps(obj, indent=0):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {_dumps(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        return _dumps(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(isinstance(v, (int, float, np.integer, np.floating)) for v in obj)
        if flat:
            return "[" + ", ".join(_dumps(v, indent + 1) for v in obj) + "]"
        parts = [f"{inner}{_dumps(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    return json.dumps(str(obj))


def _csv_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    return str(v) if isinstance(v, int) else format(v, ".17g")


def _csv(header, rows):
    """CSV text: ints as written, booleans as true/false, floats at 17 digits."""
    lines = [",".join(header)] + [",".join(map(_csv_cell, row)) for row in rows]
    return "\n".join(lines)


def _emit(doc, path):
    """Write a document (CSV text, or anything ``_dumps`` takes) to path, or stdout."""
    text = (doc if isinstance(doc, str) else _dumps(doc)) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------- parsing


def _parse(doc, name, cls, **given):
    """The ``cls`` model in section ``name``, validated by the library call it goes to.

    The section's keys are the dataclass fields of ``cls``: a field
    without a default is a required key, other keys are ignored, and a
    null value counts as an absent key. ``given`` values that are not
    None override the section's.
    """
    section = doc.get(name)
    if section is None:
        raise ValueError(f"model file has no {name} section")
    if not isinstance(section, dict):
        raise ValueError(f"{name} section must be a JSON object")
    kwargs = {}
    for field in dataclasses.fields(cls):
        if section.get(field.name) is not None:
            kwargs[field.name] = section[field.name]
        elif field.default is dataclasses.MISSING:
            raise ValueError(f"{name} section missing key {field.name}")
    kwargs.update((k, v) for k, v in given.items() if v is not None)
    return cls(**kwargs)


def _parse_models(doc):
    return (_parse(doc, "noise", NoiseModel), _parse(doc, "input", InputModel),
            _parse(doc, "channel", Channel))


def _parse_kappa_grid(text):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"cannot parse kappa grid '{text}'") from None
    if not values:
        raise ValueError(f"cannot parse kappa grid '{text}'")
    return values


def _parse_dims(args, doc):
    if args.dims:
        try:
            n_xi, n_z = (int(tok) for tok in args.dims.split(","))
        except ValueError:
            raise ValueError(f"--dims expects 'n_xi,n_z', got '{args.dims}'") from None
        return n_xi, n_z
    if isinstance(doc.get("input"), dict):
        # only its dimensions are read, so no library call validates it
        model = _parse(doc, "input", InputModel)
        require_valid(model)
        return model.n_xi, model.n_z
    return 1, 1


def _optimizer_config(args):
    return OptimizerConfig(starts=args.starts, seed=args.seed, maxiter=args.max_iter)


# ---------------------------------------------------------------- documents


def _fields(obj):
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _feasibility_doc(report):
    return {**{name: getattr(report, name) for name in VERDICTS},
            "member_of_P_infinity": report.member_of_P_infinity, "warnings": report.warnings,
            "witnesses": report.witnesses}


def _capacity_doc(result, units):
    doc = {"rate_nats": result.rate_nats}
    if units == "bits":
        doc["rate_bits"] = result.rate_nats / math.log(2.0)
    doc.update({
        "power": result.power,
        "K_I": result.K_I,
        "K_Ihat": result.K_Ihat,
        "Sigma_star": result.Sigma_star,
        "Pi_star": result.Pi_star,
        "P_star": result.P_star,
    })
    if result.feasibility is not None:
        doc["feasibility"] = _feasibility_doc(result.feasibility)
    doc["diagnostics"] = result.diagnostics
    return doc


def _solver_failure(result):
    diag = result.diagnostics
    return None if diag["sigma_converged"] and diag["pi_converged"] else _NOT_CONVERGED


# ---------------------------------------------------------------- handlers
# each takes (args, doc) and returns a soft-failure message or None


def _cmd_check_system(args, doc):
    _emit(_feasibility_doc(feasibility_report(*_parse_models(doc))), args.out)


def _cmd_solve_are(args, doc):
    noise = _parse(doc, "noise", NoiseModel)
    if isinstance(doc.get("input"), dict) and isinstance(doc.get("channel"), dict):
        # the joint system carries the noise's own problem, so no second one is built
        system = build_augmented(noise, _parse(doc, "input", InputModel),
                                 _parse(doc, "channel", Channel))
        problems = (system.noise_quad, system)
    else:
        problems = (to_quadruple(noise),)
    sols = [are_solve(quad, tol=args.tol, max_iter=args.max_iter) for quad in problems]
    out_doc = _fields(sols[0])
    if len(sols) > 1:
        out_doc["augmented"] = _fields(sols[1])
    _emit(out_doc, args.out)
    return None if all(sol.converged for sol in sols) else _NOT_CONVERGED


def _cmd_capacity_n(args, doc):
    noise, input_model, channel = _parse_models(doc)
    result = finite_n_rate((noise, input_model), channel, args.n)
    _emit({"n": args.n, **_capacity_doc(result, args.units)}, args.out)
    if args.trace:
        rows = ([int(row[0]), *row[1:]] for row in result.trace)
        _emit(_csv(TRACE_COLUMNS, rows), args.trace)


def _cmd_capacity_asym(args, doc):
    result = asymptotic_rate(*_parse_models(doc), tol=args.tol, max_iter=args.max_iter)
    _emit(_capacity_doc(result, args.units), args.out)
    return _solver_failure(result)


def _cmd_optimize(args, doc):
    noise = _parse(doc, "noise", NoiseModel)
    channel = _parse(doc, "channel", Channel, kappa=args.kappa)
    dims = _parse_dims(args, doc)
    model, result = optimize_input(noise, channel, dims, _optimizer_config(args))
    out_doc = {"kappa": channel.kappa, "dims": dims, **_capacity_doc(result, args.units)}
    out_doc["input"] = {name: getattr(model, name) for name, _, _ in InputModel._ARRAYS}
    _emit(out_doc, args.out)
    return _solver_failure(result)


def _cmd_sweep_kappa(args, doc):
    noise = _parse(doc, "noise", NoiseModel)
    channel = _parse(doc, "channel", Channel)
    if not args.kappa:
        raise ValueError("sweep-kappa requires --kappa with a comma-separated grid")
    grid = _parse_kappa_grid(args.kappa)
    dims = _parse_dims(args, doc)
    points = sweep_kappa(noise, channel, grid, dims, _optimizer_config(args))
    _emit(_csv(("kappa", "rate_nats", "power", "feasible"),
               ((p.kappa, p.rate_nats, p.power, p.feasible) for p in points)), args.out)
    if not all(p.feasible for p in points):
        return "some budgets produced no feasible input"
    return None


def _cmd_simulate(args, doc):
    noise, input_model, channel = _parse_models(doc)
    analytic = asymptotic_rate(noise, input_model, channel)
    system = build_augmented(noise, input_model, channel)
    report = empirical_report(system, args.n, args.paths, args.seed, analytic)
    _emit({
        "paths": report.paths,
        "horizon": report.horizon,
        "master_seed": args.seed,
        # a block stores the steps before the one that passed the guard, so
        # the report stops one step short of the earliest such step
        "saturated_at": report.horizon + 1 if report.horizon < args.n else None,
        "ok": report.ok,
        "checks": [_fields(row) for row in report.rows],
    }, args.out)
    if args.trace:
        # path 0, one column per component, up to the report's horizon;
        # sampled alone, it holds the rows it has in the report's batch
        batch = sample_paths(system, report.horizon, 1, args.seed)
        columns = {label: getattr(batch, label)[0] for label in ("S", "V", "Xi", "X", "Y")}
        # through the module, where the benchmark's tracer wraps it
        columns["I"] = simulate.kalman_run(batch).innovations[0]
        header = ["t"] + [f"{label}{j}" for label, arr in columns.items()
                          for j in range(arr.shape[1])]
        path = np.concatenate(list(columns.values()), axis=1)
        _emit(_csv(header, ([t + 1, *row] for t, row in enumerate(path))), args.trace)
    return None if report.ok else "empirical statistics outside tolerance"


# ---------------------------------------------------------------- wiring


# each optional flag by its meaning; --kappa, --n, --trace and --max-iter
# mean different things to different subcommands, so each has two entries
_FLAGS = {
    "budget": ("--kappa", dict(type=float, default=None,
                               help="power budget, in place of the model file's")),
    "grid": ("--kappa", dict(default=None, help="comma-separated grid of power budgets")),
    "units": ("--units", dict(choices=("nats", "bits"), default="nats")),
    "strict": ("--strict", dict(action="store_true", help="exit 3 on a soft failure: "
               "solver non-convergence, an infeasible budget or a failed check")),
    "tol": ("--tol", dict(type=float, default=DEFAULT_TOL,
                          help="relative stopping tolerance of the steady-state solvers")),
    "doublings": ("--max-iter", dict(type=int, default=MAX_DOUBLINGS, help="Riccati "
                  "doubling budget (doubling k reaches DRE step 2^k), at most 64")),
    "iterations": ("--max-iter", dict(type=int, default=OptimizerConfig.maxiter,
                                      help="L-BFGS iterations of each start")),
    "seed": ("--seed", dict(type=int, default=0)),
    "starts": ("--starts", dict(type=int, default=OptimizerConfig.starts)),
    "dims": ("--dims", dict(default=None, help="input dims as 'n_xi,n_z'")),
    "block": ("--n", dict(type=int, default=100, help="block length")),
    "horizon": ("--n", dict(type=int, default=50, help="horizon")),
    "paths": ("--paths", dict(type=int, default=10_000)),
    "step_trace": ("--trace", dict(default=None, help="per-step CSV path")),
    "path_trace": ("--trace", dict(default=None, help="first-path CSV trace")),
}

# (subcommand, help, handler, the optional flags its handler reads)
_SUBCOMMANDS = (
    ("check-system", "feasibility report as JSON", _cmd_check_system, ()),
    ("solve-are", "steady-state Riccati solution", _cmd_solve_are,
     ("strict", "tol", "doublings")),
    ("capacity-n", "finite-block average rate", _cmd_capacity_n,
     ("units", "block", "step_trace")),
    ("capacity-asym", "asymptotic rate", _cmd_capacity_asym,
     ("units", "strict", "tol", "doublings")),
    ("optimize", "search input realizations", _cmd_optimize,
     ("budget", "units", "strict", "seed", "iterations", "starts", "dims")),
    ("sweep-kappa", "optimized rate per power budget", _cmd_sweep_kappa,
     ("grid", "strict", "seed", "iterations", "starts", "dims")),
    ("simulate", "Monte Carlo comparison report", _cmd_simulate,
     ("strict", "seed", "horizon", "paths", "path_trace")),
)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="riccati-capacity",
        description="Finite-block and asymptotic rates of Gaussian channels "
                    "with state-space noise",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, summary, handler, flags in _SUBCOMMANDS:
        sub = subs.add_parser(name, help=summary)
        sub.add_argument("--model", required=True, help="JSON model document")
        sub.add_argument("--out", default=None, help="output path (stdout when absent)")
        for flag in flags:
            option, kwargs = _FLAGS[flag]
            sub.add_argument(option, **kwargs)
        sub.set_defaults(handler=handler)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        with open(args.model) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("model file must be a JSON object")
        failure = args.handler(args, doc)
    except (np.linalg.LinAlgError, RuntimeError) as exc:  # ahead of ValueError, its base
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if failure and getattr(args, "strict", False):
        print(failure, file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
