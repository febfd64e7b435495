"""Batch front end: parse a model file, dispatch one subcommand, emit results.

The parsed argument namespace is the whole run configuration; every
subcommand reads the same JSON model document and forwards to exactly
one library operation, so any CLI result can be reproduced from the
library with the parsed inputs. Each subcommand declares only the flags
its handler reads, so a flag it would ignore is a usage error. Results
are JSON (CSV for traces and sweeps) with numbers at 17 significant
digits.

Exit codes: 0 success; 2 configuration or validation error (bad file,
malformed matrix, violated invariant); 3 solver failure, or
non-convergence when --strict is set.
"""

import argparse
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
from .lyapunov import MAX_DOUBLINGS
from .models import Channel, InputModel, NoiseModel, joint_system, require_valid, to_quadruple
# stays importable here because bench/tracing.py patches it at this name
from .models import validate  # noqa: F401
from .riccati import are_solve
from .simulate import empirical_report, sample_paths
from .systests import feasibility_report

__all__ = ["main"]


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


def _write_output(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# ---------------------------------------------------------------- parsing


def _load_document(path):
    with open(path) as fh:
        return json.load(fh)


def _require_section(doc, name):
    section = doc.get(name)
    if section is None:
        raise ValueError(f"model file has no {name} section")
    if not isinstance(section, dict):
        raise ValueError(f"{name} section must be a JSON object")
    return section


def _section_get(section, section_name, key):
    if key not in section:
        raise ValueError(f"{section_name} section missing key {key}")
    return section[key]


def _checked(model):
    require_valid(model)
    return model


def _parse_noise(doc):
    s = _require_section(doc, "noise")
    return _checked(NoiseModel(
        A=_section_get(s, "noise", "A"),
        B=_section_get(s, "noise", "B"),
        C=_section_get(s, "noise", "C"),
        N=_section_get(s, "noise", "N"),
        K_W=_section_get(s, "noise", "K_W"),
        mu_S1=s.get("mu_S1"),
        K_S1=s.get("K_S1"),
    ))


def _parse_input(doc):
    s = _require_section(doc, "input")
    return _checked(InputModel(
        F=_section_get(s, "input", "F"),
        G=_section_get(s, "input", "G"),
        Gamma=_section_get(s, "input", "Gamma"),
        D=_section_get(s, "input", "D"),
        K_Z=_section_get(s, "input", "K_Z"),
        mu_Xi1=s.get("mu_Xi1"),
        K_Xi1=s.get("K_Xi1"),
    ))


def _parse_channel(doc, kappa_override=None):
    s = _require_section(doc, "channel")
    kappa = s.get("kappa", 0.0)
    if kappa_override is not None:
        kappa = kappa_override
    return _checked(Channel(H=_section_get(s, "channel", "H"), kappa=kappa))


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
        toks = args.dims.split(",")
        if len(toks) != 2:
            raise ValueError(f"--dims expects 'n_xi,n_z', got '{args.dims}'")
        return int(toks[0]), int(toks[1])
    if isinstance(doc.get("input"), dict):
        model = _parse_input(doc)
        return model.n_xi, model.n_z
    return 1, 1


# ---------------------------------------------------------------- documents


def _riccati_doc(sol):
    return {
        "P_star": sol.P_star,
        "gain": sol.gain,
        "closed_loop": sol.closed_loop,
        "spectral_radius": sol.spectral_radius,
        "residual": sol.residual,
        "iterations": sol.iterations,
        "converged": sol.converged,
    }


def _feasibility_doc(report):
    return {
        "noise_detectable": report.noise_detectable,
        "noise_stabilizable": report.noise_stabilizable,
        "augmented_detectable": report.augmented_detectable,
        "augmented_stabilizable": report.augmented_stabilizable,
        "input_F_stable": report.input_F_stable,
        "unit_circle_controllable": report.unit_circle_controllable,
        "member_of_P_infinity": report.member_of_P_infinity,
        "warnings": list(report.warnings),
        "witnesses": {k: [dict(w) for w in v] for k, v in report.witnesses.items()},
    }


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
    if result.diagnostics is not None:
        doc["diagnostics"] = dict(result.diagnostics)
    return doc


def _input_doc(model):
    return {
        "F": model.F, "G": model.G, "Gamma": model.Gamma,
        "D": model.D, "K_Z": model.K_Z,
    }


def _write_trace_csv(trace, path):
    lines = [",".join(TRACE_COLUMNS)]
    for row in trace:
        cells = [str(int(row[0]))] + [format(v, ".17g") for v in row[1:]]
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _solver_converged(result):
    diag = result.diagnostics or {}
    return bool(diag.get("sigma_converged", True) and diag.get("pi_converged", True))


# ---------------------------------------------------------------- handlers


def _cmd_check_system(args):
    doc = _load_document(args.model)
    noise = _parse_noise(doc)
    input_model = _parse_input(doc)
    channel = _parse_channel(doc, args.kappa_value)
    report = feasibility_report(noise, input_model, channel)
    _write_output(_dumps(_feasibility_doc(report)), args.out)
    return 0


def _cmd_solve_are(args):
    doc = _load_document(args.model)
    noise = _parse_noise(doc)
    quad = to_quadruple(noise)
    sol = are_solve(quad, tol=args.tol, max_iter=args.max_iter)
    out_doc = _riccati_doc(sol)
    converged = sol.converged
    if isinstance(doc.get("input"), dict) and isinstance(doc.get("channel"), dict):
        input_model = _parse_input(doc)
        channel = _parse_channel(doc, args.kappa_value)
        aug_sol = are_solve(joint_system(noise, input_model, channel),
                            tol=args.tol, max_iter=args.max_iter)
        out_doc["augmented"] = _riccati_doc(aug_sol)
        converged = converged and aug_sol.converged
    _write_output(_dumps(out_doc), args.out)
    if args.strict and not converged:
        print("solver did not converge", file=sys.stderr)
        return 3
    return 0


def _cmd_capacity_n(args):
    doc = _load_document(args.model)
    noise = _parse_noise(doc)
    input_model = _parse_input(doc)
    channel = _parse_channel(doc, args.kappa_value)
    result = finite_n_rate((noise, input_model), channel, args.n)
    out_doc = {"n": args.n}
    out_doc.update(_capacity_doc(result, args.units))
    _write_output(_dumps(out_doc), args.out)
    if args.trace:
        _write_trace_csv(result.trace, args.trace)
    return 0


def _cmd_capacity_asym(args):
    doc = _load_document(args.model)
    noise = _parse_noise(doc)
    input_model = _parse_input(doc)
    channel = _parse_channel(doc, args.kappa_value)
    result = asymptotic_rate(noise, input_model, channel,
                             tol=args.tol, max_iter=args.max_iter)
    _write_output(_dumps(_capacity_doc(result, args.units)), args.out)
    if args.strict and not _solver_converged(result):
        print("solver did not converge", file=sys.stderr)
        return 3
    return 0


def _cmd_optimize(args):
    doc = _load_document(args.model)
    noise = _parse_noise(doc)
    channel = _parse_channel(doc, args.kappa_value)
    dims = _parse_dims(args, doc)
    cfg = OptimizerConfig(starts=args.starts, seed=args.seed,
                          maxiter=args.max_iter)
    model, result = optimize_input(noise, channel, dims, cfg)
    out_doc = {
        "kappa": channel.kappa,
        "dims": list(dims),
    }
    out_doc.update(_capacity_doc(result, args.units))
    out_doc["input"] = _input_doc(model)
    _write_output(_dumps(out_doc), args.out)
    if args.strict and not _solver_converged(result):
        print("solver did not converge", file=sys.stderr)
        return 3
    return 0


def _cmd_sweep_kappa(args):
    doc = _load_document(args.model)
    noise = _parse_noise(doc)
    channel = _parse_channel(doc)
    if not args.kappa:
        raise ValueError("sweep-kappa requires --kappa with a comma-separated grid")
    grid = _parse_kappa_grid(args.kappa)
    dims = _parse_dims(args, doc)
    cfg = OptimizerConfig(starts=args.starts, seed=args.seed,
                          maxiter=args.max_iter)
    points = sweep_kappa(noise, channel, grid, dims, cfg)
    lines = ["kappa,rate_nats,power,feasible"]
    for p in points:
        lines.append(",".join([
            format(p.kappa, ".17g"),
            format(p.rate_nats, ".17g"),
            format(p.power, ".17g"),
            "true" if p.feasible else "false",
        ]))
    _write_output("\n".join(lines), args.out)
    if args.strict and not all(p.feasible for p in points):
        print("some budgets produced no feasible input", file=sys.stderr)
        return 3
    return 0


def _simulate_trace_csv(batch, innovations, path):
    names = ["t"]
    blocks = []
    for label, arr in (("S", batch.S), ("V", batch.V), ("Xi", batch.Xi),
                       ("X", batch.X), ("Y", batch.Y), ("I", innovations)):
        for j in range(arr.shape[2]):
            names.append(f"{label}{j}")
        blocks.append(arr[0])
    lines = [",".join(names)]
    for t in range(batch.horizon):
        cells = [str(t + 1)]
        for block in blocks:
            cells += [format(v, ".17g") for v in block[t]]
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _cmd_simulate(args):
    doc = _load_document(args.model)
    noise = _parse_noise(doc)
    input_model = _parse_input(doc)
    channel = _parse_channel(doc, args.kappa_value)
    analytic = asymptotic_rate(noise, input_model, channel)
    batch = sample_paths(noise, input_model, channel,
                         horizon=args.n, paths=args.paths,
                         master_seed=args.seed)
    report = empirical_report(batch, analytic)
    rows = []
    for row in report.rows:
        rows.append({
            "name": row.name,
            "analytic": row.analytic,
            "empirical": row.empirical,
            "deviation": row.deviation,
            "rel_deviation": row.rel_deviation,
            "se": row.se,
            "se_ratio": row.se_ratio,
            "tol_se": row.tol_se,
            "ok": row.ok,
        })
    out_doc = {
        "paths": report.paths,
        "horizon": report.horizon,
        "master_seed": batch.master_seed,
        "saturated_at": batch.saturated_at,
        "ok": report.ok,
        "checks": rows,
    }
    _write_output(_dumps(out_doc), args.out)
    if args.trace:
        _simulate_trace_csv(batch, report.innovations, args.trace)
    if args.strict and not report.ok:
        print("empirical statistics outside tolerance", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------- wiring


# each optional flag by its meaning; --n, --trace and --max-iter mean
# different things to different subcommands, so each has two entries
_FLAGS = {
    "units": ("--units", dict(choices=("nats", "bits"), default="nats")),
    "strict": ("--strict", dict(action="store_true", help="exit 3 on a soft failure: "
               "solver non-convergence, an infeasible budget or a failed check")),
    "tol": ("--tol", dict(type=float, default=1e-11,
                          help="relative stopping tolerance of the steady-state solvers")),
    "doublings": ("--max-iter", dict(type=int, default=MAX_DOUBLINGS, help="Riccati "
                  "doubling budget (doubling k reaches DRE step 2^k), at most 64")),
    "iterations": ("--max-iter", dict(type=int, default=120,
                                      help="L-BFGS iterations of each start")),
    "seed": ("--seed", dict(type=int, default=0)),
    "starts": ("--starts", dict(type=int, default=32)),
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
     ("units", "strict", "seed", "iterations", "starts", "dims")),
    ("sweep-kappa", "optimized rate per power budget", _cmd_sweep_kappa,
     ("strict", "seed", "iterations", "starts", "dims")),
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
        sub.add_argument("--kappa", default=None,
                         help="power budget override, or comma grid for sweep-kappa")
        for flag in flags:
            option, kwargs = _FLAGS[flag]
            sub.add_argument(option, **kwargs)
        sub.set_defaults(handler=handler)
    return parser


def _single_kappa(args):
    # --kappa doubles as a grid for sweep-kappa; everywhere else it must
    # be one number
    if args.kappa is None or args.command == "sweep-kappa":
        return None
    try:
        return float(args.kappa)
    except ValueError:
        raise ValueError(f"cannot parse --kappa value '{args.kappa}'") from None


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 2 if code not in (0,) else 0
    try:
        args.kappa_value = _single_kappa(args)
        return args.handler(args)
    except (ValueError, KeyError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
