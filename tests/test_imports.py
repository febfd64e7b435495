"""The package's imports: its numpy-only commands load no scipy, and its layers hold.

Each scipy case runs in a fresh interpreter, since this test process has
scipy loaded already (the oracles use it).
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from oracles import HALF_LN2

SRC = Path(__file__).resolve().parents[1] / "src"

MODEL = {
    "noise": {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "N": [[1.0]], "K_W": [[1.0]]},
    "input": {"F": [[0.0]], "G": [[0.0]], "Gamma": [[0.0]], "D": [[1.0]], "K_Z": [[1.0]]},
    "channel": {"H": [[1.0]], "kappa": 1.0},
}


def run_fresh(script, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_commands_run_without_scipy(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(MODEL))
    script = """
import sys
import riccati_capacity
import riccati_capacity.cli as cli
assert "scipy" not in sys.modules, "import loaded scipy"
model, out = sys.argv[1], sys.argv[2]
for argv in (["solve-are"], ["check-system"], ["capacity-asym"], ["capacity-n", "--n", "20"],
             ["simulate", "--n", "5", "--paths", "200"]):
    assert cli.main(argv + ["--model", model, "--out", out]) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    assert run_fresh(script, str(model), str(tmp_path / "out.json")).strip() == "[]"


def test_optimize_input_loads_scipy_when_it_runs():
    script = """
import sys
import riccati_capacity as rc
assert "scipy" not in sys.modules
noise = rc.memoryless_noise([[1.0]])
_, result = rc.optimize_input(noise, rc.Channel(H=[[1.0]], kappa=1.0), (0, 1),
                              rc.OptimizerConfig(starts=2, seed=0, maxiter=10))
print(result.rate_nats, "scipy.optimize" in sys.modules)
"""
    rate, loaded = run_fresh(script).split()
    assert abs(float(rate) - HALF_LN2) < 1e-9
    assert loaded == "True"


# the modules whose private names other modules may import: the numerical kernels
KERNELS = {"linalg", "lyapunov", "riccati"}


def test_private_names_are_imported_only_from_the_kernel_modules():
    # one module owns each decision; a private name reached across the others
    # means two modules know it
    crossings = []
    for path in sorted((SRC / "riccati_capacity").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module not in KERNELS:
                crossings += [f"{path.stem}: {node.module}.{alias.name}" for alias in node.names
                              if alias.name.startswith("_")]
    assert not crossings
