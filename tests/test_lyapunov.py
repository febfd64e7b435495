import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import riccati_capacity as rc
from oracles import lyap_steady_state


def test_step_with_F_zero():
    out = rc.lyap_step([[0.0]], [[1.0]], [[2.0]], [[7.0]])
    assert np.allclose(out, [[2.0]])


def test_step_scalar_fixed_point():
    out = rc.lyap_step([[0.5]], [[1.0]], [[3.0]], [[4.0]])
    assert np.allclose(out, [[4.0]])


def test_step_zero_drive():
    out = rc.lyap_step([[0.0]], [[5.0]], [[0.0]], [[9.0]])
    assert np.allclose(out, [[0.0]])


def test_solve_scalar_geometric_series():
    sol = rc.lyap_solve([[0.5]], [[1.0]], [[3.0]])
    assert abs(sol.P_star[0, 0] - 4.0) < 1e-10
    assert sol.residual < 1e-10
    assert sol.method == "doubling"


def test_solve_F_zero_returns_drive_covariance():
    G = np.array([[1.0, 0.0], [2.0, 1.0]])
    K = np.array([[2.0, 0.5], [0.5, 1.0]])
    sol = rc.lyap_solve(np.zeros((2, 2)), G, K)
    assert np.allclose(sol.P_star, G @ K @ G.T)


def test_solve_rejects_unit_circle():
    with pytest.raises(ValueError, match="not exponentially stable"):
        rc.lyap_solve([[1.0]], [[1.0]], [[1.0]])


def test_solve_rejects_marginally_unstable():
    with pytest.raises(ValueError, match="not exponentially stable"):
        rc.lyap_solve([[1.0 - 1e-12]], [[1.0]], [[1.0]])


@pytest.mark.parametrize("F, G, K_Z, message", [
    ([[0.5]], [[1.0]], [[-1.0]], "K_Z is not positive semidefinite"),
    ([[0.5]], [[1.0]], [[np.nan]], "K_Z contains non-finite entries"),
    ([[np.nan]], [[1.0]], [[1.0]], "F contains non-finite entries"),
    ([[0.5]], [[np.inf]], [[1.0]], "G contains non-finite entries"),
    ([[0.5, 0.0], [0.0, 0.5]], np.eye(2), [[1.0, 1.0], [0.0, 1.0]], "K_Z is not symmetric"),
    ([[0.5, 0.0]], [[1.0]], [[1.0]], r"F not square \(shape \(1, 2\)\)"),
    (0.5 * np.eye(2), [[1.0]], [[1.0]], "G has 1 rows, expected 2"),
], ids=["indefinite-K_Z", "nan-K_Z", "nan-F", "inf-G", "asymmetric-K_Z", "non-square-F",
        "G-rows"])
def test_solve_and_step_reject_malformed_inputs(F, G, K_Z, message):
    with pytest.raises(ValueError, match=message):
        rc.lyap_solve(F, G, K_Z)
    with pytest.raises(ValueError, match=message):
        rc.lyap_step(F, G, K_Z, np.zeros(np.shape(F)))


def test_step_names_a_nonfinite_state():
    with pytest.raises(ValueError, match="P_t contains non-finite entries"):
        rc.lyap_step([[0.5]], [[1.0]], [[1.0]], [[np.inf]])


def test_solve_matches_scipy_random(rng):
    for _ in range(15):
        n = int(rng.integers(1, 5))
        F = rng.normal(size=(n, n))
        r = max(np.max(np.abs(np.linalg.eigvals(F))), 1e-12)
        F = F * (rng.uniform(0.2, 0.9) / r)
        G = rng.normal(size=(n, n))
        L = rng.normal(size=(n, n)) * 0.5
        K_Z = L @ L.T + 0.1 * np.eye(n)
        sol = rc.lyap_solve(F, G, K_Z)
        ref = lyap_steady_state(F, G, K_Z)
        assert np.max(np.abs(sol.P_star - ref)) < 1e-9


def test_large_dimension_uses_doubling(rng):
    n = 40
    F = rng.normal(size=(n, n))
    F = F * (0.6 / np.max(np.abs(np.linalg.eigvals(F))))
    G = rng.normal(size=(n, n))
    K_Z = np.eye(n)
    sol = rc.lyap_solve(F, G, K_Z, tol=1e-12)
    assert sol.method == "doubling"
    ref = lyap_steady_state(F, G, K_Z)
    assert np.max(np.abs(sol.P_star - ref)) < 1e-7


def test_solution_solves_equation(rng):
    F = rng.normal(size=(3, 3)) * 0.2
    G = rng.normal(size=(3, 2))
    K_Z = np.eye(2)
    sol = rc.lyap_solve(F, G, K_Z)
    lhs = F @ sol.P_star @ F.T + G @ K_Z @ G.T
    assert np.max(np.abs(lhs - sol.P_star)) < 1e-11


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), rho=st.floats(0.0, 0.999))
def test_solve_matches_scipy_property(seed, n, rho):
    rng = np.random.default_rng(seed)
    F = rng.normal(size=(n, n))
    F = F * (rho / max(np.max(np.abs(np.linalg.eigvals(F))), 1e-12))
    G = rng.normal(size=(n, 2))
    sol = rc.lyap_solve(F, G, np.eye(2))
    ref = lyap_steady_state(F, G, np.eye(2))
    assert np.max(np.abs(sol.P_star - ref)) <= 1e-9 * np.max(np.abs(ref))
