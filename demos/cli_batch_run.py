"""
Driving the batch interface from a script.

Model files are plain JSON with noise / input / channel sections; the
command line front end reads one and emits JSON or CSV, which makes it
easy to wire into sweeps and plotting pipelines without touching Python.
This script writes a model file for the scalar colored-noise example and
exercises the main subcommands.
"""
import json
import subprocess
import sys
import tempfile
from pathlib import Path

MODEL = {
    "noise": {
        "A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "N": [[1.0]],
        "K_W": [[1.0]],
    },
    "input": {
        "F": [[0.0]], "G": [[0.0]], "Gamma": [[0.0]], "D": [[1.0]],
        "K_Z": [[1.0]],
    },
    "channel": {"H": [[1.0]], "kappa": 1.0},
}


def run(*args):
    cmd = [sys.executable, "-m", "riccati_capacity.cli", *args]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError("exit %d: %s" % (out.returncode, out.stderr.strip()))
    return out.stdout


with tempfile.TemporaryDirectory(prefix="rc_demo_") as tmp:
    workdir = Path(tmp)
    model_path = workdir / "scalar.json"
    model_path.write_text(json.dumps(MODEL, indent=2))
    print("model file:", model_path)
    print()

    # Admissibility first; everything downstream assumes it.
    doc = json.loads(run("check-system", "--model", str(model_path)))
    print("check-system: member_of_P_infinity =", doc["member_of_P_infinity"])

    # Steady states of the prediction problems. The augmented state is
    # (Xi, S), so the S-block error sits at the last diagonal entry.
    doc = json.loads(run("solve-are", "--model", str(model_path)))
    print("solve-are: noise Sigma* = %g, augmented S-block Pi* = %g"
          % (doc["P_star"][0][0], doc["augmented"]["P_star"][1][1]))

    # Asymptotic rate, in nats and in bits.
    doc = json.loads(run("capacity-asym", "--model", str(model_path), "--units", "bits"))
    print("capacity-asym: %.10f nats = %.10f bits, power %.4f"
          % (doc["rate_nats"], doc["rate_bits"], doc["power"]))

    # Finite blocklength with a per-step trace written as CSV.
    trace_path = workdir / "trace.csv"
    doc = json.loads(run("capacity-n", "--model", str(model_path),
                         "--n", "25", "--trace", str(trace_path)))
    lines = trace_path.read_text().strip().splitlines()
    print("capacity-n: n = %d, avg rate = %.10f; trace has %d rows, header:"
          % (doc["n"], doc["rate_nats"], len(lines) - 1))
    print("  ", lines[0])
    print("  ", lines[-1])

    # A power sweep goes straight to CSV.
    sweep = run("sweep-kappa", "--model", str(model_path),
                "--kappa", "0.5,1.0,2.0", "--starts", "4", "--dims", "1,1")
    print("sweep-kappa:")
    for line in sweep.strip().splitlines():
        print("  ", line)

    # Monte Carlo cross-check of the analytic values.
    doc = json.loads(run("simulate", "--model", str(model_path),
                         "--n", "30", "--paths", "4000", "--seed", "11"))
    print("simulate: ok =", doc["ok"], " checks:",
          ", ".join(row["name"] for row in doc["checks"]))
