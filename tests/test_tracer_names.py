"""The traced benchmark run patches library names; each must still resolve."""

import ast
import importlib.util
import json
from pathlib import Path

import riccati_capacity
import riccati_capacity.cli  # noqa: F401  (attribute riccati_capacity.cli)
from conftest import scalar_noise, unit_channel, unit_iid_input

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def load_bench_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_bench_module("bench_tracing", TRACING)


def test_every_traced_name_resolves_on_the_package():
    missing = [f"{module}.{attr}" for module, attr, _, _ in load_tracing().WRAPS
               if not hasattr(getattr(riccati_capacity, module, None), attr)]
    assert missing == []


def test_tracer_only_imports_are_the_traced_names():
    # a name imported on a "# noqa: F401" line of the package is there for
    # the tracer alone, so some WRAPS entry must look it up on that module
    traced = {(module, attr) for module, attr, _, _ in load_tracing().WRAPS}
    imported = set()
    for path in Path(riccati_capacity.__file__).parent.glob("*.py"):
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.ImportFrom) and any(
                    "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                imported |= {(path.stem, alias.asname or alias.name) for alias in node.names}
    assert ("simulate", "build_augmented") in imported
    assert sorted(imported - traced) == []


def test_traced_spans_record_calls():
    # the spans the benchmark expects on horizon and steady_state must see
    # the library's calls, not only resolve as names
    rc = riccati_capacity
    pair = (scalar_noise(0.5), unit_iid_input())
    schedule = rc.CoefficientSchedule(
        noise_at=lambda t: scalar_noise(0.5 + 2.0 ** (-t)), input_at=lambda t: pair[1],
        noise_limit=pair[0], input_limit=pair[1])
    tracer = load_tracing().Tracer()
    tracer.install(rc)
    try:
        counts = []
        for n in (5, 50):
            before = tracer.leaf["riccati.solve_spd"][0]
            for models in (pair, schedule):
                rc.capacity.finite_n_rate(models, unit_channel(), n)
            counts.append(tracer.leaf["riccati.solve_spd"][0] - before)
        # a horizon within one chunk factors in batches, not once per DRE step:
        # per call, each DRE's Rhat stack for its step triples and its K_t
        # stack, all through riccati.solve_spd: 8 per constant/drifting pair
        assert counts == [8, 8], counts
        rc.capacity.asymptotic_rate(*pair, unit_channel())
    finally:
        tracer.remove()
    totals, _ = tracer.totals()
    calls = {name: totals.get(name, {"calls": 0})["calls"] for name in (
        "riccati.solve_spd", "capacity.finite_n_rate", "linalg.block_diag",
        "riccati.are_solve", "lyapunov.lyap_solve", "systests.feasibility_report")}
    assert all(calls.values()), calls


def test_traced_lbfgs_sees_the_minimize_optimize_input_imports():
    # optimize_input imports scipy.optimize when it runs and looks minimize up
    # per start, so the tracer's patch on scipy.optimize still records L-BFGS
    rc = riccati_capacity
    tracer = load_tracing().Tracer()
    tracer.install(rc)
    try:
        rc.capacity.optimize_input(rc.memoryless_noise([[1.0]]), unit_channel(), (1, 1),
                                   rc.OptimizerConfig(starts=2, seed=0, maxiter=5))
    finally:
        tracer.remove()
    totals, _ = tracer.totals()
    assert totals["capacity.lbfgs"]["calls"] >= 1
    assert tracer.counters["capacity.lbfgs.nfev"] > 0


def test_optimize_workload_spans_record_calls(monkeypatch):
    # every span the benchmark expects on optimize must see a call from a
    # small sweep; systests.pbh_test is known to record none, since
    # feasibility_report no longer goes through the public pbh_test
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports its references
    workloads = load_bench_module("bench_workloads", BENCH / "workloads.py")
    expected = set(workloads.Optimize.expected_spans) - {"systests.pbh_test"}
    rc = riccati_capacity
    tracer = load_tracing().Tracer()
    tracer.install(rc)
    try:
        rc.capacity.sweep_kappa(scalar_noise(1.5), unit_channel(), (0.5, 1.0), (1, 1),
                                rc.OptimizerConfig(starts=1, seed=0, maxiter=3))
    finally:
        tracer.remove()
    totals, _ = tracer.totals()
    silent = sorted(name for name in expected if totals.get(name, {"calls": 0})["calls"] == 0)
    assert silent == []


def test_monte_carlo_workload_spans_record_calls(monkeypatch, tmp_path):
    # every span the benchmark expects on monte_carlo must see a call from a
    # small in-process simulate run
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports its references
    workloads = load_bench_module("bench_workloads", BENCH / "workloads.py")
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "noise": {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "N": [[1.0]], "K_W": [[1.0]]},
        "input": {"F": [[0.3]], "G": [[1.0]], "Gamma": [[0.5]], "D": [[1.0]], "K_Z": [[1.0]]},
        "channel": {"H": [[1.0]], "kappa": 1.0},
    }))
    rc = riccati_capacity
    tracer = load_tracing().Tracer()
    tracer.install(rc)
    try:
        code = rc.cli.main(["simulate", "--model", str(model), "--n", "5", "--paths", "200",
                            "--seed", "1", "--out", str(tmp_path / "out.json"),
                            "--trace", str(tmp_path / "trace.csv")])
    finally:
        tracer.remove()
    assert code == 0
    totals, _ = tracer.totals()
    silent = sorted(name for name in workloads.MonteCarlo.expected_spans
                    if totals.get(name, {"calls": 0})["calls"] == 0)
    assert silent == []
