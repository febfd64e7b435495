import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "per_size.py"
CALLS = ("are_solve", "lyap_solve", "feasibility_report", "asymptotic_rate")


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
    table = subprocess.run([sys.executable, str(TOOL), "compare", path, path], check=True,
                           capture_output=True, text=True).stdout.splitlines()
    assert len(table) == 1 + len(CALLS)
    assert all(line.split()[-2:] == ["1.000", "overlap"] for line in table[1:])
