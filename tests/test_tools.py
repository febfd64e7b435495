import importlib.util
import pickle
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


line_counts, compare_outputs = _load("line_counts"), _load("compare_outputs")

# 19 lines, of which 8 hold code: the import (its comment does not make it a
# comment line), both headers, the two lines of the split assignment, the
# return and the two lines of the class attribute, a string but no docstring
MODULE = '''"""Module docstring
over two lines."""

import os  # a trailing comment

# a comment line


def f(x):
    """Function docstring."""
    y = (x +
         1)
    return y


class C:
    """Class docstring."""
    z = """not a
docstring"""
'''


def test_line_counts_keep_only_lines_that_hold_code():
    assert line_counts.counts(MODULE) == (19, 8)
    assert line_counts.counts(MODULE.replace("\n\n", "\n")) == (15, 8)


def _diff(tmp_path, a, b):
    paths = [tmp_path / "a.pkl", tmp_path / "b.pkl"]
    for path, out in zip(paths, (a, b)):
        path.write_bytes(pickle.dumps(out))
    return paths, compare_outputs.diff(*paths)


def test_diff_of_identical_recordings_exits_0(tmp_path, capsys):
    out = {"rate": 0.5, "nan": float("nan"), "array": np.array([[1.0, np.nan], [0.0, -2.0]]),
           "text": "raised ValueError: no", "none": None, "flags": (True, False)}
    _, code = _diff(tmp_path, out, dict(out, array=out["array"].copy()))
    assert code == 0
    assert capsys.readouterr().out.splitlines() == ["6 of 6 outputs identical"]


@pytest.mark.parametrize("moved", [
    np.nextafter(0.5, 1.0), np.array([np.nan, np.nextafter(2.0, 3.0)])], ids=["float", "array"])
def test_diff_lists_a_one_ulp_move_and_one_sided_names(tmp_path, capsys, moved):
    a = {"kept": "same", "moved": 0.5 if np.isscalar(moved) else np.array([np.nan, 2.0]),
         "gone": 1}
    (path_a, path_b), code = _diff(tmp_path, a, {"kept": "same", "moved": moved, "new": 2})
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("differs: moved (largest relative difference ")
    assert lines[1:] == [f"only in {path_a}: gone", f"only in {path_b}: new",
                         "1 of 4 outputs identical"]



def test_a_report_is_recorded_with_its_witness_arrays_and_warnings():
    # these, and the joint verdicts, are computed on first read, not fields, and are
    # recorded all the same, each verdict by name
    import riccati_capacity as rc
    noise = rc.NoiseModel(A=np.diag([1.5, 0.3]), B=[[1.0], [0.0]], C=[[1.0, 1.0]], N=[[1.0]],
                          K_W=[[1.0]])
    inp = rc.InputModel(F=[[0.5]], G=[[1.0]], Gamma=[[1.0]], D=[[1.0]], K_Z=[[1.0]])
    out = {}
    compare_outputs._flatten("rep", rc.feasibility_report(noise, inp, rc.Channel(H=1.0)), out)
    labels = [f"{side}_{test}" for side in ("noise", "augmented")
              for test in ("detectable", "stabilizable")]
    labels += ["unit_circle_noise", "unit_circle_augmented"]
    for label in labels:  # each Witnesses' four arrays
        assert [out[f"rep.witness_arrays.{label}[{i}]"].size for i in range(4)] == \
            [3 if "augmented" in label else 2] * 4
    assert out["rep.warnings[0]"] == ("noise realization not controllable at eigenvalue 0.3; "
                                      "it may not be minimal")
    assert {name: out[f"rep.{name}"] for name in rc.systests.VERDICTS} == {
        "noise_detectable": True, "noise_stabilizable": True, "augmented_detectable": True,
        "augmented_stabilizable": True, "input_F_stable": True, "unit_circle_controllable": True}
