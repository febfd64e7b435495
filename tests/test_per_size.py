import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "per_size.py"
CALLS = ("are_solve", "lyap_solve", "feasibility_report", "asymptotic_rate", "NoiseModel",
         "InputModel", "finite_n_rate", "finite_n_rate_drift")


def test_per_size_writes_every_cell_and_compares_two_files(tmp_path):
    # a fresh interpreter, since the tool pins BLAS before numpy loads
    subprocess.run([sys.executable, str(TOOL), "run", "--label", "smoke", "--sizes", "2"],
                   cwd=tmp_path, check=True, capture_output=True)
    record = json.loads((tmp_path / "BENCH_per_size_smoke.json").read_text())
    assert {"label", "revision", "cores", "blas_threads", "numpy", "repeats",
            "cells"} <= set(record)
    assert record["label"] == "smoke" and record["repeats"] >= 7
    assert set(record["blas_threads"].values()) == {"1"}
    assert set(record["cells"]) == set(CALLS)
    for sizes in record["cells"].values():
        cell = sizes["2"]
        assert 0 < cell["q1_ms"] <= cell["median_ms"] <= cell["q3_ms"]
        assert cell["calls_per_batch"] >= 1
    path = str(tmp_path / "BENCH_per_size_smoke.json")
    table = _compare([path], [path])
    assert len(table) == 1 + len(CALLS)
    assert all(line.split()[-2:] == ["1.000", "overlap"] for line in table[1:])


def _compare(a, b):
    return subprocess.run([sys.executable, str(TOOL), "compare", "--a", *map(str, a),
                           "--b", *map(str, b)], check=True, capture_output=True,
                          text=True).stdout.splitlines()


def test_compare_pools_the_runs_of_each_side(tmp_path):
    # each run (median, q1, q3) in ms; the second cell is in the first run only
    def runs(side, cells):
        paths = []
        for i, (median, q1, q3) in enumerate(cells):
            record = {"cells": {"are_solve": {"2": {"median_ms": median, "q1_ms": q1,
                                                    "q3_ms": q3}}}}
            if i == 0:
                record["cells"]["are_solve"]["4"] = record["cells"]["are_solve"]["2"]
            paths.append(tmp_path / f"{side}{i}.json")
            paths[-1].write_text(json.dumps(record))
        return paths

    a = runs("a", [(1.00, 0.99, 1.01), (1.10, 1.09, 1.11), (1.04, 1.03, 1.05)])
    b = runs("b", [(1.08, 1.07, 1.09), (1.02, 1.015, 1.025), (1.12, 1.11, 1.13)])
    # one run a side: the runs' spread puts unchanged code "apart"
    assert _compare(a[:1], b[:1])[1].split() == ["are_solve", "2", "1.000", "1.080", "1.080",
                                                 "apart"]
    # three: the median of the medians, over the widest quartile range
    assert _compare(a, b)[1:] == [
        f"{'are_solve':<20} {'2':>3} {1.04:9.3f} {1.08:9.3f} {1.08 / 1.04:6.3f}  overlap"]
