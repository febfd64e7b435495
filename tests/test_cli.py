import argparse
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import riccati_capacity as rc
import riccati_capacity.cli as cli
import riccati_capacity.simulate as simulate
from riccati_capacity.cli import main

from conftest import random_models, scalar_noise
from oracles import HALF_LN2, HALF_LN2_5


COLORED = {
    "noise": {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "N": [[1.0]],
              "K_W": [[1.0]]},
    "input": {"F": [[0.0]], "G": [[0.0]], "Gamma": [[0.0]], "D": [[1.0]],
              "K_Z": [[1.0]]},
    "channel": {"H": [[1.0]], "kappa": 1.0},
}

AWGN = {
    "noise": {"A": [[0.0]], "B": [[0.0]], "C": [[0.0]], "N": [[1.0]],
              "K_W": [[1.0]]},
    "input": {"F": [[0.0]], "G": [[0.0]], "Gamma": [[0.0]], "D": [[1.0]],
              "K_Z": [[1.0]]},
    "channel": {"H": [[1.0]], "kappa": 1.0},
}


def write_model(tmp_path, doc, name="model.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_solve_are_scalar_family(tmp_path):
    model = write_model(tmp_path, COLORED)
    out = str(tmp_path / "out.json")
    assert main(["solve-are", "--model", model, "--out", out]) == 0
    doc = read_json(out)
    assert abs(doc["P_star"][0][0]) <= 1e-10
    assert doc["residual"] <= 1e-10
    assert doc["converged"] is True
    assert abs(doc["augmented"]["P_star"][1][1] - 0.5) < 1e-9
    # K = Rhat + Chat P Chat^T and its log det: 1 for the noise, 2.5 jointly
    assert doc["innovations"] == [[pytest.approx(1.0, abs=1e-10)]]
    assert doc["logdet"] == pytest.approx(0.0, abs=1e-10)
    assert doc["augmented"]["innovations"] == [[pytest.approx(2.5, abs=1e-9)]]
    assert doc["augmented"]["logdet"] == pytest.approx(2.0 * HALF_LN2_5, abs=1e-9)


def test_solve_are_validates_each_model_no_more_than_check_system(tmp_path, monkeypatch):
    # the library call validates each model once: build_augmented's three, or
    # to_quadruple's noise alone; the noise problem is the joint system's own
    calls = []
    validate = rc.models.validate
    monkeypatch.setattr(rc.models, "validate", lambda m: calls.append(m) or validate(m))
    full = write_model(tmp_path, COLORED)
    noise_only = write_model(tmp_path, {"noise": COLORED["noise"]}, "noise.json")
    for command, model, count in (("check-system", full, 3), ("solve-are", full, 3),
                                  ("solve-are", noise_only, 1)):
        calls.clear()
        assert main([command, "--model", model, "--out", str(tmp_path / "out.json")]) == 0
        assert len(calls) == count, command


def test_solve_are_noise_solution_does_not_depend_on_the_other_sections(tmp_path):
    outs = []
    for doc in (COLORED, {"noise": COLORED["noise"]}):
        outs.append(str(tmp_path / f"out{len(outs)}.json"))
        assert main(["solve-are", "--model", write_model(tmp_path, doc),
                     "--out", outs[-1]]) == 0
    full, noise_only = (read_json(p) for p in outs)
    full.pop("augmented")
    assert full == noise_only


def test_capacity_asym_awgn(tmp_path):
    model = write_model(tmp_path, AWGN)
    out = str(tmp_path / "out.json")
    assert main(["capacity-asym", "--model", model, "--out", out]) == 0
    doc = read_json(out)
    assert abs(doc["rate_nats"] - HALF_LN2) < 1e-10
    assert "rate_bits" not in doc


def test_units_bits_adds_converted_rate(tmp_path):
    model = write_model(tmp_path, AWGN)
    out = str(tmp_path / "out.json")
    assert main(["capacity-asym", "--model", model, "--units", "bits",
                 "--out", out]) == 0
    doc = read_json(out)
    assert abs(doc["rate_bits"] - 0.5) < 1e-10
    assert abs(doc["rate_nats"] - HALF_LN2) < 1e-10


def test_json_floats_round_trip_exactly(tmp_path):
    model = write_model(tmp_path, COLORED)
    out = str(tmp_path / "out.json")
    assert main(["capacity-asym", "--model", model, "--out", out]) == 0
    doc = read_json(out)
    noise = rc.NoiseModel(**{k: v for k, v in COLORED["noise"].items()})
    inp = rc.InputModel(**{k: v for k, v in COLORED["input"].items()})
    res = rc.asymptotic_rate(noise, inp, rc.Channel(H=[[1.0]], kappa=1.0))
    assert doc["rate_nats"] == res.rate_nats


def test_ragged_matrix_exits_2(tmp_path, capsys):
    doc = {"noise": {"A": [[0.5, 1.0], [0.3]], "B": [[1.0]], "C": [[1.0]],
                     "N": [[1.0]], "K_W": [[1.0]]},
           "input": COLORED["input"], "channel": COLORED["channel"]}
    model = write_model(tmp_path, doc)
    assert main(["check-system", "--model", model]) == 2
    assert "A is not rectangular" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path):
    assert main(["solve-are", "--model", str(tmp_path / "nope.json")]) == 2


def test_malformed_json_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["solve-are", "--model", str(p)]) == 2


def test_missing_section_exits_2(tmp_path, capsys):
    model = write_model(tmp_path, {"noise": COLORED["noise"]})
    assert main(["capacity-asym", "--model", model]) == 2
    assert "input section" in capsys.readouterr().err


def test_missing_key_exits_2(tmp_path, capsys):
    doc = {"noise": {"A": [[0.5]]}, "input": COLORED["input"],
           "channel": COLORED["channel"]}
    model = write_model(tmp_path, doc)
    assert main(["solve-are", "--model", model]) == 2
    assert "noise section missing key B" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [[1, 2, 3], 3, "x", None])
def test_model_file_that_is_not_an_object_exits_2(tmp_path, capsys, doc):
    model = write_model(tmp_path, doc)
    assert main(["check-system", "--model", model]) == 2
    assert capsys.readouterr().err == "error: model file must be a JSON object\n"


@pytest.mark.parametrize("section", ["noise", "input", "channel"])
def test_section_that_is_not_an_object_exits_2(tmp_path, capsys, section):
    doc = dict(COLORED, **{section: [[1.0]]})
    assert main(["capacity-asym", "--model", write_model(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == f"error: {section} section must be a JSON object\n"


def test_null_required_key_is_a_missing_key(tmp_path, capsys):
    doc = {"noise": dict(COLORED["noise"], A=None), "input": COLORED["input"],
           "channel": COLORED["channel"]}
    assert main(["capacity-asym", "--model", write_model(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == "error: noise section missing key A\n"


def test_null_kappa_is_the_default_budget(tmp_path, capsys):
    doc = dict(COLORED, channel={"H": [[1.0]], "kappa": None})
    assert cli._parse(doc, "channel", rc.Channel).kappa == 0.0
    assert main(["check-system", "--model", write_model(tmp_path, doc)]) == 0
    assert json.loads(capsys.readouterr().out)["member_of_P_infinity"] is True


def test_invalid_model_value_exits_2(tmp_path, capsys):
    doc = {"noise": dict(COLORED["noise"], K_W=[[0.0]]),
           "input": COLORED["input"], "channel": COLORED["channel"]}
    model = write_model(tmp_path, doc)
    assert main(["check-system", "--model", model]) == 2
    assert "K_W not positive definite" in capsys.readouterr().err


def test_bad_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_bad_kappa_exits_2(tmp_path, capsys):
    model = write_model(tmp_path, COLORED)
    assert main(["optimize", "--model", model, "--kappa", "zap"]) == 2
    assert "argument --kappa: invalid float value: 'zap'" in capsys.readouterr().err


def test_capacity_n_trace_header(tmp_path):
    model = write_model(tmp_path, COLORED)
    out = str(tmp_path / "out.json")
    trace = str(tmp_path / "trace.csv")
    assert main(["capacity-n", "--model", model, "--n", "7",
                 "--out", out, "--trace", trace]) == 0
    lines = open(trace).read().splitlines()
    assert lines[0] == "t,logdet_KI,logdet_KIhat,rate_partial,power_partial"
    assert len(lines) == 8
    assert lines[1].startswith("1,")
    doc = read_json(out)
    assert doc["n"] == 7
    last = [float(v) for v in lines[-1].split(",")]
    assert abs(last[3] - doc["rate_nats"]) < 1e-15


def test_strict_promotes_nonconvergence_to_3(tmp_path, capsys):
    doc = {"noise": {"A": [[2.0]], "B": [[1.0]], "C": [[1.0]], "N": [[1.0]],
                     "K_W": [[1.0]]},
           "input": COLORED["input"], "channel": COLORED["channel"]}
    model = write_model(tmp_path, doc)
    out = str(tmp_path / "out.json")
    assert main(["solve-are", "--model", model, "--max-iter", "3",
                 "--out", out]) == 0
    assert main(["solve-are", "--model", model, "--max-iter", "3",
                 "--strict", "--out", out]) == 3
    capsys.readouterr()


def test_check_system_reports_membership(tmp_path):
    model = write_model(tmp_path, COLORED)
    out = str(tmp_path / "out.json")
    assert main(["check-system", "--model", model, "--out", out]) == 0
    doc = read_json(out)
    assert doc["member_of_P_infinity"] is True
    assert set(doc["witnesses"]) >= {"noise_detectable", "noise_stabilizable"}


def test_optimize_improves_on_iid(tmp_path):
    model = write_model(tmp_path, COLORED)
    out = str(tmp_path / "out.json")
    assert main(["optimize", "--model", model, "--starts", "4",
                 "--max-iter", "25", "--out", out]) == 0
    doc = read_json(out)
    assert doc["rate_nats"] >= HALF_LN2_5 - 1e-3
    assert doc["power"] <= 1.0 + 1e-9
    assert "F" in doc["input"]
    # the search record, one entry per start
    assert [r["kind"] for r in doc["diagnostics"]["search"]] == ["structured"] * 2 + ["random"] * 2


def test_sweep_kappa_csv(tmp_path):
    model = write_model(tmp_path, COLORED)
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep-kappa", "--model", model, "--kappa", "0.5,1.0,2.0",
                 "--starts", "3", "--max-iter", "20", "--out", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "kappa,rate_nats,power,feasible"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3
    rates = [float(r[1]) for r in rows]
    for lo, hi in zip(rates, rates[1:]):
        assert hi >= lo - 1e-9
    assert all(r[3] == "true" for r in rows)


def test_max_iter_reaches_the_optimizer_as_typed(tmp_path, monkeypatch, capsys):
    # optimize and sweep-kappa default to 120 L-BFGS iterations per start,
    # and an explicit --max-iter reaches OptimizerConfig.maxiter unchanged
    seen = []

    def capture(*args):
        seen.append(args[-1].maxiter)
        raise RuntimeError("stop once the config is seen")

    monkeypatch.setattr(cli, "optimize_input", capture)
    monkeypatch.setattr(cli, "sweep_kappa", capture)
    model = write_model(tmp_path, COLORED)
    for command in (["optimize"], ["sweep-kappa", "--kappa", "1.0"]):
        for extra in ([], ["--max-iter", "1000000"]):
            assert main(command + ["--model", model] + extra) == 3
    assert seen == [120, 1_000_000, 120, 1_000_000]
    capsys.readouterr()


def capture_dims(monkeypatch):
    seen = []

    def capture(noise, channel, dims, config):
        seen.append(dims)
        raise RuntimeError("stop once the dims are seen")

    monkeypatch.setattr(cli, "optimize_input", capture)
    return seen


def test_dims_flag_reaches_the_optimizer(tmp_path, monkeypatch, capsys):
    seen = capture_dims(monkeypatch)
    assert main(["optimize", "--model", write_model(tmp_path, COLORED), "--dims", "2,1"]) == 3
    assert seen == [(2, 1)]
    capsys.readouterr()


@pytest.mark.parametrize("dims", ["1,2,3", "1", "a,1", "1.5,1"])
def test_malformed_dims_exit_2_naming_the_flag(tmp_path, monkeypatch, capsys, dims):
    seen = capture_dims(monkeypatch)
    assert main(["optimize", "--model", write_model(tmp_path, COLORED), "--dims", dims]) == 2
    assert f"--dims expects 'n_xi,n_z', got '{dims}'" in capsys.readouterr().err
    assert seen == []


def test_negative_dims_exit_2(tmp_path, capsys):
    assert main(["optimize", "--model", write_model(tmp_path, COLORED), "--dims=-1,1"]) == 2
    assert "dims must be >= 0" in capsys.readouterr().err


def test_dims_default_to_the_input_section_or_one_one(tmp_path, monkeypatch, capsys):
    seen = capture_dims(monkeypatch)
    wide = {**COLORED, "input": {"F": np.zeros((2, 2)).tolist(), "G": [[1.0], [0.0]],
                                 "Gamma": [[0.0, 0.0]], "D": [[1.0]], "K_Z": [[1.0]]}}
    no_input = {key: COLORED[key] for key in ("noise", "channel")}
    for doc in (wide, no_input):
        assert main(["optimize", "--model", write_model(tmp_path, doc)]) == 3
    assert seen == [(2, 1), (1, 1)]
    capsys.readouterr()


def test_channel_in_other_units_passes_its_checks(tmp_path, capsys):
    # K_W, K_Z and kappa 1e8 times those of a unit-scale channel
    doc = {"noise": {"A": [[0.5]], "B": [[1.0, 1.0]], "C": [[1.0]], "N": [[1.0, 1.0]],
                     "K_W": [[2e8, 0.0], [0.0, 3e8]]},
           "input": {**COLORED["input"], "K_Z": [[1e8]]},
           "channel": {"H": [[1.0]], "kappa": 1e8}}
    model, out = write_model(tmp_path, doc), str(tmp_path / "out.json")
    assert main(["check-system", "--model", model, "--out", out]) == 0
    assert read_json(out)["member_of_P_infinity"] is True
    assert main(["capacity-asym", "--model", model, "--out", out]) == 0
    assert read_json(out)["rate_nats"] == pytest.approx(0.16264384571678, rel=1e-12)
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["capacity-n", "--tol", "1e-3"],
    ["check-system", "--strict"],
    ["simulate", "--max-iter", "5"],
])
def test_flags_a_subcommand_would_ignore_are_usage_errors(tmp_path, capsys, argv):
    model = write_model(tmp_path, COLORED)
    assert main(argv[:1] + ["--model", model] + argv[1:]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("name", ["check-system", "solve-are", "capacity-n", "capacity-asym",
                                  "simulate"])
def test_kappa_is_a_usage_error_where_no_budget_is_read(tmp_path, capsys, name):
    # only the input search reads a budget; these read the model file's alone
    model = write_model(tmp_path, COLORED)
    assert main([name, "--model", model, "--kappa", "1"]) == 2
    assert "unrecognized arguments: --kappa 1" in capsys.readouterr().err


def test_kappa_flag_is_the_budget_of_the_optimizer(tmp_path, monkeypatch, capsys):
    seen = []

    def capture(noise, channel, dims, config):
        seen.append(channel.kappa)
        raise RuntimeError("stop once the budget is seen")

    monkeypatch.setattr(cli, "optimize_input", capture)
    model = write_model(tmp_path, COLORED)
    for extra in ([], ["--kappa", "0.5"]):
        assert main(["optimize", "--model", model] + extra) == 3
    assert seen == [1.0, 0.5]
    capsys.readouterr()


@pytest.mark.parametrize("kappa, flags, violation", [
    (-1.0, [], "kappa negative (-1.0)"), (1.0, ["--kappa", "nan"], "kappa not finite")],
    ids=["model-file", "flag"])
def test_optimize_names_an_invalid_budget(tmp_path, capsys, recwarn, kappa, flags, violation):
    model = write_model(tmp_path, dict(COLORED, channel={"H": [[1.0]], "kappa": kappa}))
    assert main(["optimize", "--model", model, "--starts", "1", "--max-iter", "2", *flags]) == 2
    assert capsys.readouterr().err == f"error: channel model invalid: {violation}\n"
    assert [str(w.message) for w in recwarn] == []


def test_readme_table_lists_the_flags_each_subcommand_declares():
    # a row's backticked --flags are its further flags, "none" when it has none
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("\n| subcommand ", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for row in re.findall(r"^\| `([a-z-]+)` *\| ([^|]*) \|", table, flags=re.MULTILINE):
        name, cell = row
        flags = set(re.findall(r"`(--[a-z-]+)`", cell))
        assert flags or cell == "none", row
        listed[name] = flags
    parser = cli.build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    declared = {name: {option for action in sub._actions for option in action.option_strings
                       if option.startswith("--")} - {"--help", "--model", "--out"}
                for name, sub in subparsers.choices.items()}
    assert listed == declared


def test_max_iter_defaults_count_doublings_or_lbfgs_iterations():
    parser = cli.build_parser()
    assert parser.parse_args(["solve-are", "--model", "m.json"]).max_iter == 64
    assert parser.parse_args(["capacity-asym", "--model", "m.json"]).max_iter == 64
    assert parser.parse_args(["optimize", "--model", "m.json"]).max_iter == 120


def test_flag_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    tols = {inspect.signature(solver).parameters["tol"].default
            for solver in (rc.are_solve, rc.asymptotic_rate, rc.lyap_solve)}
    for name in ("solve-are", "capacity-asym"):
        assert {parser.parse_args([name, "--model", "m.json"]).tol} == tols
    config = rc.OptimizerConfig()
    for name in ("optimize", "sweep-kappa"):
        args = parser.parse_args([name, "--model", "m.json"])
        assert (args.starts, args.max_iter) == (config.starts, config.maxiter)


def test_check_system_keys_are_the_report_verdicts_then_the_rest(tmp_path):
    out = tmp_path / "feas.json"
    assert main(["check-system", "--model", write_model(tmp_path, COLORED),
                 "--out", str(out)]) == 0
    verdicts = [f.name for f in dataclasses.fields(rc.FeasibilityReport) if f.type is bool]
    assert list(read_json(out)) == verdicts + ["member_of_P_infinity", "warnings", "witnesses"]


@pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan"), float("inf")])
def test_tol_outside_zero_to_inf_is_rejected(tmp_path, capsys, tol):
    with pytest.raises(ValueError, match="tol"):
        rc.lyap_solve([[0.5]], [[1.0]], [[1.0]], tol=tol)
    with pytest.raises(ValueError, match="tol"):
        rc.are_solve(rc.to_quadruple(scalar_noise(0.5)), tol=tol)
    model = write_model(tmp_path, COLORED)
    assert main(["capacity-asym", "--model", model, "--tol", repr(tol)]) == 2
    assert "tol" in capsys.readouterr().err


def test_sweep_kappa_requires_grid(tmp_path, capsys):
    model = write_model(tmp_path, COLORED)
    assert main(["sweep-kappa", "--model", model]) == 2
    assert capsys.readouterr().err == (
        "error: sweep-kappa requires --kappa with a comma-separated grid\n")


@pytest.mark.parametrize("grid", ["0.5,zap", ",", " , "])
def test_unparsable_or_empty_kappa_grid_exits_2(tmp_path, capsys, grid):
    model = write_model(tmp_path, COLORED)
    assert main(["sweep-kappa", "--model", model, "--kappa", grid]) == 2
    assert capsys.readouterr().err == f"error: cannot parse kappa grid '{grid}'\n"


def test_nonfinite_numbers_are_written_as_strings(tmp_path):
    # a diverging noise solve (A = 1.5, C = 0, Q_s = 1) has an infinite residual
    # and radius and a NaN gain; JSON has no literal for them
    doc = {"noise": {"A": [[1.5]], "B": [[1.0, 0.0]], "C": [[0.0]], "N": [[0.0, 1.0]],
                     "K_W": np.eye(2).tolist()}}
    out = tmp_path / "out.json"
    assert main(["solve-are", "--model", write_model(tmp_path, doc), "--out", str(out)]) == 0
    result = read_json(out)
    assert (result["residual"], result["spectral_radius"]) == ("inf", "inf")
    assert result["gain"] == [["nan"]] and result["converged"] is False
    assert cli._dumps([-np.inf, np.nan, 1.5]) == '["-inf", "nan", 1.5]'


def test_simulate_report(tmp_path):
    model = write_model(tmp_path, COLORED)
    out = str(tmp_path / "report.json")
    trace = str(tmp_path / "path.csv")
    assert main(["simulate", "--model", model, "--n", "12", "--paths", "800",
                 "--seed", "21", "--out", out, "--trace", trace]) == 0
    doc = read_json(out)
    assert doc["paths"] == 800
    assert doc["ok"] is True
    names = {row["name"] for row in doc["checks"]}
    assert "average power" in names
    # each row's deviation over its own magnitude; the lag row's analytic value is 0
    assert all(row["rel_deviation"] <= 2.0 for row in doc["checks"])
    lag = next(row for row in doc["checks"] if row["name"] == "lag-1 innovations cross-covariance")
    assert lag["rel_deviation"] == 1.0
    lines = open(trace).read().splitlines()
    assert lines[0].startswith("t,")
    assert len(lines) == 13


def test_simulate_saturated_at_step_one_exits_2(tmp_path, capsys):
    doc = {**COLORED, "noise": dict(COLORED["noise"], mu_S1=[1e13])}
    model = write_model(tmp_path, doc)
    assert main(["simulate", "--model", model, "--n", "5", "--paths", "10"]) == 2
    assert capsys.readouterr().err == ("error: no step to filter: a sampled state passed "
                                       "the overflow guard 1e+12 at step 1\n")


def test_simulate_trace_runs_the_kalman_pass_once(tmp_path, monkeypatch):
    # once over the report's paths, and once over path 0 sampled alone for the trace
    calls = []
    original = simulate.kalman_run

    def counting(batch):
        calls.append(batch.paths)
        return original(batch)

    monkeypatch.setattr(simulate, "kalman_run", counting)
    monkeypatch.setattr(cli, "kalman_run", counting)
    model = write_model(tmp_path, COLORED)
    trace = str(tmp_path / "path.csv")
    assert main(["simulate", "--model", model, "--n", "6", "--paths", "50",
                 "--out", str(tmp_path / "report.json"), "--trace", trace]) == 0
    assert calls == [50, 1]
    header = open(trace).read().splitlines()[0].split(",")
    assert header[-1] == "I0"


@pytest.mark.parametrize("blocks", [1, 3, 6])
def test_simulate_builds_two_systems_at_any_block_count(tmp_path, monkeypatch, blocks):
    # one system for the analytic side and one that every block is sampled
    # from, each of the three models validated once
    counts = {"built": 0, "validate": 0, "sampled": 0}

    def counting(name, original):
        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return counted

    monkeypatch.setattr(rc.models.JointSystem, "__init__",
                        counting("built", rc.models.JointSystem.__init__))
    # at every name a library module may call it by
    for module in (rc.models, rc.capacity, rc.systests, rc.simulate, cli):
        if hasattr(module, "validate"):
            monkeypatch.setattr(module, "validate", counting("validate", module.validate))
    monkeypatch.setattr(simulate, "sample_paths", counting("sampled", simulate.sample_paths))
    # these scalar models fill 11 floats a path and step: blocks of 60 // blocks paths
    monkeypatch.setattr(simulate, "_BLOCK_BYTES", 60 // blocks * 8 * 12 * 11)
    model = write_model(tmp_path, COLORED)
    assert main(["simulate", "--model", model, "--n", "12", "--paths", "60",
                 "--out", str(tmp_path / "report.json")]) == 0
    assert counts == {"built": 2, "validate": 6, "sampled": blocks}


# an initial noise state of mean 9.8e11 and deviation 1e10 passes the
# overflow guard 1e12 at step 1 on about one path in 44
HOT_START = dict(COLORED, noise=dict(COLORED["noise"], mu_S1=[9.8e11], K_S1=[[1e20]]))


@pytest.mark.parametrize("doc, n, seed, saturated, redrawn", [
    (COLORED, 12, 21, [None] * 6, {}),
    # each block after the first is drawn at the report's horizon so far: the
    # first block is drawn again at 68 steps, then the first two at 66, and the
    # last three, drawn at 66, stop short of the steps 68, 68 and 70 where
    # they pass the guard at 80
    (dict(COLORED, noise=dict(COLORED["noise"], A=[[1.5]])), 80, 14,
     [70, 69, 67, None, None, None], {1: [0], 2: [0, 1]}),
    # only the sixth block has a path past the guard at step 1
    (HOT_START, 5, 2, [None] * 5 + [1], {}),
], ids=["stable", "saturating", "later-block-at-step-1"])
def test_simulate_in_blocks_writes_the_whole_batch_bytes(tmp_path, monkeypatch, capsys,
                                                         doc, n, seed, saturated, redrawn):
    model = write_model(tmp_path, doc)
    drawn = []
    original = simulate.sample_paths

    def recording(system, horizon, paths, master_seed):
        batch = original(system, horizon, paths, master_seed)
        drawn.append((paths, batch.saturated_at))
        return batch

    monkeypatch.setattr(simulate, "sample_paths", recording)
    outputs, runs = [], []
    # the default budget holds all 60 paths in one block, the whole batch;
    # these scalar models fill 11 floats a path and step, so the second
    # budget holds 10 paths
    for budget in (simulate._BLOCK_BYTES, 10 * 8 * n * 11):
        monkeypatch.setattr(simulate, "_BLOCK_BYTES", budget)
        out, trace = tmp_path / f"{budget}.json", tmp_path / f"{budget}.csv"
        drawn.clear()
        code = main(["simulate", "--model", model, "--n", str(n), "--paths", "60",
                     "--seed", str(seed), "--out", str(out), "--trace", str(trace)])
        outputs.append([code, capsys.readouterr().err] + [p.read_bytes() for p in (out, trace)
                                                          if p.exists()])
        runs.append(list(drawn))
    # block k, then the earlier blocks it makes the report draw again, none
    # of which passes the guard within the shorter horizon
    blocked = []
    for k, s in enumerate(saturated):
        blocked += [(range(10 * k, 10 * k + 10), s),
                    *((range(10 * j, 10 * j + 10), None) for j in redrawn.get(k, ()))]
    assert runs == [[(range(60), min(filter(None, saturated), default=None))], blocked]
    assert outputs[1] == outputs[0]
    if saturated[-1] == 1:
        assert outputs[0] == [2, "error: no step to filter: a sampled state passed the "
                                 "overflow guard 1e+12 at step 1\n"]
    else:
        assert outputs[0][0] == 0 and len(outputs[0]) == 4
        # the report stops a step short of the earliest guard step: null
        # when stable, 67 = 66 + 1 when saturating
        for _, _, out, _ in outputs:
            report = json.loads(out)
            assert report["saturated_at"] == min(filter(None, saturated), default=None)
            assert report["saturated_at"] == (None if report["horizon"] == n
                                              else report["horizon"] + 1)


def test_simulate_memory_holds_one_block_of_paths(tmp_path):
    # 20,000 paths x 50 steps of a model the size of the benchmark's (n_s = 2,
    # n_xi = 1): sampling the whole batch at once peaked at 98 MB of traced
    # allocations, blocks of paths at 17 MB
    noise, inp = random_models(np.random.default_rng(5), n_s=2, n_xi=1)
    doc = {"noise": {"A": noise.A, "B": noise.B, "C": noise.C, "N": noise.N, "K_W": noise.K_W,
                     "K_S1": noise.K_S1},
           "input": {"F": inp.F, "G": inp.G, "Gamma": inp.Gamma, "D": inp.D, "K_Z": inp.K_Z,
                     "K_Xi1": inp.K_Xi1},
           "channel": {"H": [[1.0]], "kappa": 1.0}}
    model = write_model(tmp_path, {name: {key: np.asarray(value).tolist()
                                          for key, value in section.items()}
                                   for name, section in doc.items()})
    tracemalloc.start()
    try:
        assert main(["simulate", "--model", model, "--n", "50", "--paths", "20000",
                     "--seed", "3", "--out", str(tmp_path / "report.json"),
                     "--trace", str(tmp_path / "path.csv")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_output_defaults_to_stdout(tmp_path, capsys):
    model = write_model(tmp_path, AWGN)
    assert main(["capacity-asym", "--model", model]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["rate_nats"] - HALF_LN2) < 1e-10


UNSTABLE = dict(COLORED, noise=dict(COLORED["noise"], A=[[2.0]]))


@pytest.mark.parametrize("argv, message", [
    (["capacity-asym", "--max-iter", "2"], "solver did not converge"),
    (["sweep-kappa", "--kappa", "1", "--starts", "2", "--max-iter", "5"],
     "some budgets produced no feasible input"),
])
def test_strict_turns_a_soft_failure_into_exit_3(tmp_path, capsys, argv, message):
    doc = UNSTABLE
    if argv[0] == "sweep-kappa":
        # with C = 0 the unstable noise state is not detectable from V
        doc = dict(UNSTABLE, noise=dict(UNSTABLE["noise"], C=[[0.0]]))
    model = write_model(tmp_path, doc)
    out = str(tmp_path / "out")
    assert main(argv[:1] + ["--model", model, "--out", out] + argv[1:]) == 0
    assert capsys.readouterr().err == ""
    assert main(argv[:1] + ["--model", model, "--out", out, "--strict"] + argv[1:]) == 3
    assert capsys.readouterr().err == message + "\n"


def test_strict_simulate_exits_3_when_a_check_fails(tmp_path, monkeypatch, capsys):
    original = cli.empirical_report

    def failing(*args):
        return dataclasses.replace(original(*args), ok=False)

    monkeypatch.setattr(cli, "empirical_report", failing)
    model = write_model(tmp_path, COLORED)
    out = str(tmp_path / "report.json")
    argv = ["simulate", "--model", model, "--n", "4", "--paths", "40", "--out", out]
    assert main(argv) == 0
    assert read_json(out)["ok"] is False
    assert capsys.readouterr().err == ""
    assert main(argv + ["--strict"]) == 3
    assert capsys.readouterr().err == "empirical statistics outside tolerance\n"


@pytest.mark.parametrize("command, function", [("capacity-n", "finite_n_rate"),
                                               ("capacity-asym", "asymptotic_rate")])
def test_a_library_linalg_error_exits_3_and_an_invalid_model_exits_2(tmp_path, monkeypatch,
                                                                      capsys, command, function):
    # LinAlgError is a ValueError, which exits 2; a solver failure exits 3
    flags = ["--n", "10"] if command == "capacity-n" else []
    invalid = dict(COLORED, noise=dict(COLORED["noise"], K_W=[[0.0]]))
    assert main([command, "--model", write_model(tmp_path, invalid, "invalid.json")] + flags) == 2
    assert capsys.readouterr().err.startswith("error: noise model invalid: K_W not positive")

    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("step 7: K_I is not positive definite")

    monkeypatch.setattr(cli, function, failing)
    assert main([command, "--model", write_model(tmp_path, COLORED)] + flags) == 3
    assert capsys.readouterr().err == "solver error: step 7: K_I is not positive definite\n"


def test_simulate_trace_is_the_first_sampled_path(tmp_path):
    doc = {"noise": {"A": [[0.6, 0.2], [0.0, -0.3]], "B": [[1.0], [0.5]],
                     "C": [[1.0, 0.4]], "N": [[1.0]], "K_W": [[1.0]]},
           "input": {"F": [[0.3]], "G": [[1.0]], "Gamma": [[0.5]], "D": [[1.0]],
                     "K_Z": [[0.8]]},
           "channel": {"H": [[1.0]], "kappa": 1.0}}
    model = write_model(tmp_path, doc)
    trace = str(tmp_path / "path.csv")
    assert main(["simulate", "--model", model, "--n", "6", "--paths", "30",
                 "--seed", "11", "--out", str(tmp_path / "report.json"),
                 "--trace", trace]) == 0
    lines = open(trace).read().splitlines()
    assert lines[0] == "t,S0,S1,V0,Xi0,X0,Y0,I0"
    cells = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    noise = rc.NoiseModel(**doc["noise"])
    inp = rc.InputModel(**doc["input"])
    channel = rc.Channel(**doc["channel"])
    batch = rc.sample_paths(rc.build_augmented(noise, inp, channel), horizon=6, paths=30,
                            master_seed=11)
    innovations = rc.kalman_run(batch).innovations
    expected = np.hstack([np.arange(1.0, 7.0)[:, None], batch.S[0], batch.V[0],
                          batch.Xi[0], batch.X[0], batch.Y[0], innovations[0]])
    assert np.array_equal(cells, expected)


def test_simulate_trace_is_path_0_of_a_saturating_batch_in_blocks(tmp_path, monkeypatch):
    # six blocks of 10 paths pass the guard at steps 70, 69, 67, 68, 68 and
    # 70: the trace is path 0 of the whole batch, up to its 66 steps
    doc = dict(COLORED, noise=dict(COLORED["noise"], A=[[1.5]]))
    model = write_model(tmp_path, doc)
    # these scalar models fill 11 floats a path and step
    monkeypatch.setattr(simulate, "_BLOCK_BYTES", 10 * 8 * 80 * 11)
    out, trace = tmp_path / "report.json", tmp_path / "path.csv"
    assert main(["simulate", "--model", model, "--n", "80", "--paths", "60", "--seed", "14",
                 "--out", str(out), "--trace", str(trace)]) == 0
    assert read_json(out)["horizon"] == 66
    cells = np.array([[float(v) for v in line.split(",")]
                      for line in trace.read_text().splitlines()[1:]])
    system = rc.build_augmented(*(cli._parse_models(doc)))
    batch = rc.sample_paths(system, 66, 60, 14)
    assert batch.saturated_at is None
    expected = np.hstack([np.arange(1.0, 67.0)[:, None], batch.S[0], batch.V[0], batch.Xi[0],
                          batch.X[0], batch.Y[0], rc.kalman_run(batch).innovations[0]])
    assert np.array_equal(cells, expected)


def test_section_keys_are_the_model_fields():
    noise = dict(COLORED["noise"], K_S1=[[0.5]])
    extended = dict(noise, mu_S1=None, colour="pink")
    parsed = [cli._parse({"noise": s}, "noise", rc.NoiseModel) for s in (noise, extended)]
    for field in dataclasses.fields(rc.NoiseModel):
        assert np.array_equal(getattr(parsed[0], field.name),
                              getattr(parsed[1], field.name)), field.name
    inp = cli._parse({"input": dict(COLORED["input"], K_Xi1=None, note=1)},
                     "input", rc.InputModel)
    assert np.array_equal(inp.K_Xi1, np.zeros((1, 1)))
    assert cli._parse({"channel": {"H": [[1.0]]}}, "channel", rc.Channel).kappa == 0.0


def test_module_entry_point_passes_exit_codes_through(tmp_path):
    src = Path(rc.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))

    def run(model):
        return subprocess.run(
            [sys.executable, "-m", "riccati_capacity.cli", "check-system",
             "--model", model], capture_output=True, text=True, env=env, timeout=120)

    ok = run(write_model(tmp_path, COLORED))
    assert ok.returncode == 0, ok.stderr
    assert json.loads(ok.stdout)["member_of_P_infinity"] is True
    bad = run(write_model(tmp_path, {"noise": {"A": [[0.5]]}}, "bad.json"))
    assert bad.returncode == 2
    assert bad.stderr == "error: noise section missing key B\n"
