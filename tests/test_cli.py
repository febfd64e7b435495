import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riccati_capacity as rc
import riccati_capacity.cli as cli
import riccati_capacity.simulate as simulate
from riccati_capacity.cli import main

from conftest import scalar_noise
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
    assert main(["capacity-asym", "--model", model, "--kappa", "zap"]) == 2
    capsys.readouterr()


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


@pytest.mark.parametrize("argv", [
    ["capacity-n", "--tol", "1e-3"],
    ["check-system", "--strict"],
    ["simulate", "--max-iter", "5"],
])
def test_flags_a_subcommand_would_ignore_are_usage_errors(tmp_path, capsys, argv):
    model = write_model(tmp_path, COLORED)
    assert main(argv[:1] + ["--model", model] + argv[1:]) == 2
    capsys.readouterr()


def test_max_iter_defaults_count_doublings_or_lbfgs_iterations():
    parser = cli.build_parser()
    assert parser.parse_args(["solve-are", "--model", "m.json"]).max_iter == 64
    assert parser.parse_args(["capacity-asym", "--model", "m.json"]).max_iter == 64
    assert parser.parse_args(["optimize", "--model", "m.json"]).max_iter == 120


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
    capsys.readouterr()


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
    lines = open(trace).read().splitlines()
    assert lines[0].startswith("t,")
    assert len(lines) == 13


def test_simulate_trace_runs_the_kalman_pass_once(tmp_path, monkeypatch):
    calls = []
    original = simulate.kalman_run

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(simulate, "kalman_run", counting)
    model = write_model(tmp_path, COLORED)
    trace = str(tmp_path / "path.csv")
    assert main(["simulate", "--model", model, "--n", "6", "--paths", "50",
                 "--out", str(tmp_path / "report.json"), "--trace", trace]) == 0
    assert len(calls) == 1
    header = open(trace).read().splitlines()[0].split(",")
    assert header[-1] == "I0"


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

    def failing(batch, analytic):
        return dataclasses.replace(original(batch, analytic), ok=False)

    monkeypatch.setattr(cli, "empirical_report", failing)
    model = write_model(tmp_path, COLORED)
    out = str(tmp_path / "report.json")
    argv = ["simulate", "--model", model, "--n", "4", "--paths", "40", "--out", out]
    assert main(argv) == 0
    assert read_json(out)["ok"] is False
    assert capsys.readouterr().err == ""
    assert main(argv + ["--strict"]) == 3
    assert capsys.readouterr().err == "empirical statistics outside tolerance\n"


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
    batch = rc.sample_paths(noise, inp, channel, horizon=6, paths=30, master_seed=11)
    innovations = rc.empirical_report(
        batch, rc.asymptotic_rate(noise, inp, channel)).innovations
    expected = np.hstack([np.arange(1.0, 7.0)[:, None], batch.S[0], batch.V[0],
                          batch.Xi[0], batch.X[0], batch.Y[0], innovations[0]])
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
