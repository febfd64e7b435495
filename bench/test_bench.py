"""Self-tests of the benchmark: its checks and its seeded inputs.

Run with ``python -m pytest bench/test_bench.py`` from the repository root.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import riccati_capacity as rc  # noqa: E402
import riccati_capacity.cli  # noqa: E402,F401

import references  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def make(name, seed, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](rc, seed, workdir)
    workload.setup()
    return workload


def steady_result(ref, **changes):
    """A CapacityResult-shaped answer equal to the oracle, with optional edits."""
    fields = dict(Sigma_star=ref["Sigma"], Pi_star=ref["Pi"], P_star=ref["P"],
                  rate_nats=ref["rate"], power=ref["power"],
                  feasibility=SimpleNamespace(member_of_P_infinity=True),
                  diagnostics={"sigma_converged": True, "pi_converged": True,
                               "sigma_iterations": 10, "pi_iterations": 10})
    fields.update(changes)
    return SimpleNamespace(**fields)


@pytest.fixture(scope="module")
def steady(tmp_path_factory):
    return make("steady_state", 3, tmp_path_factory.mktemp("steady"))


def oracle(steady, label):
    noise, input, channel = steady.triple(label)
    return references.steady_state(noise, input, channel.H)


def test_steady_state_check_accepts_the_scipy_answer(steady):
    label = "draw0.4"
    ref = oracle(steady, label)
    assert steady.check(label, steady_result(ref)) is None


def test_steady_state_check_accepts_a_converged_library_answer(steady):
    label = "draw0.0"
    result = rc.asymptotic_rate(*steady.triple(label), max_iter=workloads.ITER_CAP)
    assert result.diagnostics["pi_converged"]
    assert steady.check(label, result) is None


def test_steady_state_check_rejects_a_perturbed_P(steady):
    label = "draw0.4"
    ref = oracle(steady, label)
    bumped = ref["Pi"] + 1e-4 * np.max(np.abs(ref["Pi"])) * np.eye(ref["Pi"].shape[0])
    verdict = steady.check(label, steady_result(ref, Pi_star=bumped))
    assert verdict is not None and "Pi converged=True but" in verdict


def test_steady_state_check_rejects_a_wrong_rate(steady):
    label = "draw0.4"
    ref = oracle(steady, label)
    verdict = steady.check(label, steady_result(ref, rate_nats=ref["rate"] + 1e-3))
    assert verdict is not None and "rate" in verdict


def test_steady_state_check_counts_an_unconverged_answer_as_a_known_defect(steady):
    label = "draw0.4"
    ref = oracle(steady, label)
    diagnostics = {"sigma_converged": True, "pi_converged": False,
                   "sigma_iterations": 10, "pi_iterations": workloads.ITER_CAP}
    verdict = steady.check(label, steady_result(ref, diagnostics=diagnostics))
    assert isinstance(verdict, workloads.KnownDefect) and "unconverged" in verdict


def test_steady_state_check_gates_a_false_converged_verdict_beyond_the_stopping_rule(steady):
    ref = oracle(steady, "draw0.4")
    bound = workloads.stop_error_bound(ref["Sigma_rho"])
    scale = np.max(np.abs(ref["Sigma"]))
    # off by more than the successive-difference stop admits: a failure
    step = 10.0 * max(bound, references.P_RTOL * scale)
    bumped = ref["Sigma"] + step * np.eye(ref["Sigma"].shape[0])
    verdict = steady.check("draw0.4", steady_result(ref, Sigma_star=bumped))
    assert verdict and not isinstance(verdict, workloads.KnownDefect)
    # near_marginal's loop radius is 0.9999, so its 5e-4 error is admitted and known
    ref = oracle(steady, "near_marginal")
    verdict = steady.check("near_marginal", steady_result(ref, Sigma_star=ref["Sigma"] * 1.001))
    assert isinstance(verdict, workloads.KnownDefect) and "converged=True" in verdict
    # a wrong feasibility verdict is never a known defect
    verdict = steady.check("near_marginal", steady_result(
        ref, Sigma_star=ref["Sigma"] * 1.001,
        feasibility=SimpleNamespace(member_of_P_infinity=False)))
    assert verdict and not isinstance(verdict, workloads.KnownDefect)


def test_scores_depend_on_the_operations_not_on_the_number_of_passes(tmp_path):
    horizon = make("horizon", 2, tmp_path)
    result = rc.finite_n_rate(horizon.pair, horizon.channel, workloads.HORIZON)
    wrong = SimpleNamespace(trace=result.trace, rate_nats=result.rate_nats + 0.01,
                            power=result.power)
    good = workloads.Call("constant", 1.0, result, None, 1.0)
    bad = workloads.Call("constant", 1.0, wrong, None, 1.0)
    raised = workloads.Call("schedule", 1.0, None, "raised ValueError: x", 1.0)
    once = run.score(horizon, [bad, raised])
    attempted, failures, known = once
    assert attempted == 2 and len(failures) == 2 and not known
    # repeats of an operation only add timings, whatever they return
    assert run.score(horizon, [bad, raised, good, raised, bad, good]) == once


def test_horizon_check_rejects_a_wrong_rate(tmp_path):
    horizon = make("horizon", 2, tmp_path)
    result = rc.finite_n_rate(horizon.pair, horizon.channel, workloads.HORIZON)
    assert horizon.check("constant", result) is None
    wrong = SimpleNamespace(trace=result.trace, rate_nats=result.rate_nats + 0.01,
                            power=result.power)
    assert "rate_nats" in horizon.check("constant", wrong)
    shifted = result.trace.copy()
    shifted[0, 1] += 1e-6
    wrong = SimpleNamespace(trace=shifted, rate_nats=result.rate_nats, power=result.power)
    assert "ld_joint" in horizon.check("constant", wrong)


def test_waterfilling_reference_matches_the_closed_form():
    # H = diag(1, 2), R = I, kappa = 1: water level 1.125, 0.5 ln(5.0625)
    assert abs(references.waterfilling_rate([1.0, 4.0], 1.0) - 0.8109302162163288) < 1e-15


def test_monte_carlo_check_scores_at_five_standard_errors(tmp_path):
    mc = make("monte_carlo", 1, tmp_path)
    analytic = references.steady_state(rc.NoiseModel(**mc.doc["noise"]),
                                       rc.InputModel(**mc.doc["input"]), np.eye(1))["K_I"]
    rows = ["t,S0"] + [f"{t},0.5" for t in range(1, workloads.MC_STEPS + 1)]

    def doc(se_ratio):
        checks = [{"name": "steady-state innovations covariance", "analytic": analytic.tolist(),
                   "se_ratio": se_ratio, "ok": se_ratio <= 3.0}]
        return {"saturated_at": None, "paths": workloads.MC_PATHS,
                "horizon": workloads.MC_STEPS, "checks": checks}

    assert mc.check("sim0", (0, doc(3.5), rows)) is None
    assert mc.lib_flagged["sim0"] == 1
    assert "SE" in mc.check("sim0", (0, doc(5.5), rows))
    assert mc.check("sim0", (3, None, None)) == "exit code 3"


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_inputs_are_bit_identical_for_one_seed(name, tmp_path):
    first = make(name, 11, tmp_path / "a").inputs_fingerprint()
    second = make(name, 11, tmp_path / "b").inputs_fingerprint()
    assert len(first) == len(second)
    for x, y in zip(first, second):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    if name != "optimize":  # its inputs are fixed
        other = make(name, 12, tmp_path / "c").inputs_fingerprint()
        assert any(x.tobytes() != y.tobytes() for x, y in zip(first, other))


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [w["why"] for w in spec["workloads"]] == [
        workloads.WORKLOADS[n].why for n in run.WORKLOAD_NAMES]
