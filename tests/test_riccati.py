import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import riccati_capacity as rc
from conftest import random_models, scalar_noise, unit_channel, unit_iid_input
from oracles import DRE_THIRD, dare_steady_state


def family_quad(a):
    return rc.to_quadruple(scalar_noise(a))


# ------------------------------------------------------------- single step


def test_step_with_all_state_terms_zero():
    quad = rc.to_quadruple(rc.NoiseModel(A=0.0, B=0.0, C=1.0, N=1.0, K_W=1.0))
    out = rc.dre_step(quad, [[5.0]])
    assert np.allclose(out, [[0.0]])


def test_step_scalar_hand_value():
    # 0.25 + 1 - 2.25/2
    out = rc.dre_step(family_quad(0.5), [[1.0]])
    assert np.allclose(out, [[0.125]])


def test_step_fixed_point_at_zero_unstable():
    out = rc.dre_step(family_quad(1.5), [[0.0]])
    assert np.allclose(out, [[0.0]])


def test_step_rejects_asymmetric_P():
    with pytest.raises(ValueError, match="symmetric"):
        rc.dre_step(rc.to_quadruple(random_models(
            np.random.default_rng(0))[0]), [[1.0, 2.0], [0.0, 1.0]])


def test_step_rejects_indefinite_P():
    with pytest.raises(ValueError, match="positive semidefinite"):
        rc.dre_step(family_quad(0.5), [[-1.0]])


def test_step_preserves_psd_random(rng):
    for _ in range(20):
        noise, _ = random_models(rng, rho_A=1.3)
        quad = rc.to_quadruple(noise)
        L = rng.normal(size=(noise.n_s, noise.n_s))
        P = L @ L.T
        out = rc.dre_step(quad, P)
        assert np.allclose(out, out.T)
        assert np.min(np.linalg.eigvalsh(out)) >= -1e-10


# ---------------------------------------------------------------- dre_run


def test_run_single_horizon_returns_initial():
    seq = rc.dre_run(family_quad(0.5), [[1.0]], 1)
    assert len(seq) == 1
    assert np.allclose(seq[0], [[1.0]])


def test_run_three_steps_frozen_values():
    seq = rc.dre_run(family_quad(0.5), [[1.0]], 3)
    assert np.allclose(seq[0], [[1.0]])
    assert np.allclose(seq[1], [[0.125]])
    # 0.25*0.125 + 1 - 1.0625**2/1.125 = 1/36
    assert abs(seq[2][0, 0] - DRE_THIRD) < 1e-15


def test_run_absorbing_zero():
    quad = rc.to_quadruple(rc.NoiseModel(A=[[0.0]], B=[[1.0]], C=[[1.0]],
                                         N=[[1.0]], K_W=[[1.0]]))
    seq = rc.dre_run(quad, [[0.0]], 2)
    assert np.allclose(seq[0], [[0.0]])
    assert np.allclose(seq[1], [[0.0]])


# ------------------------------------------------------- gain / closed loop


def test_gain_scalar_family_at_zero():
    gain, cl = rc.gain_and_closed_loop(family_quad(0.5), [[0.0]])
    assert np.allclose(gain, [[1.0]])
    assert np.allclose(cl, [[-0.5]])


def test_gain_unstable_family_at_zero():
    gain, cl = rc.gain_and_closed_loop(family_quad(1.5), [[0.0]])
    assert np.allclose(gain, [[1.0]])
    assert np.allclose(cl, [[0.5]])


def test_gain_driven_by_cross_term_when_C_zero():
    quad = rc.to_quadruple(rc.NoiseModel(A=[[0.9]], B=[[1.0]], C=[[0.0]],
                                         N=[[1.0]], K_W=[[1.0]]))
    gain, cl = rc.gain_and_closed_loop(quad, [[0.0]])
    assert np.allclose(gain, [[1.0]])
    assert np.allclose(cl, [[0.9]])


# ---------------------------------------------------------------- are_solve


@pytest.mark.parametrize("a", [0.3, 0.5, 0.9, 1.2, 1.5, 1.9])
def test_family_steady_state_is_zero(a):
    sol = rc.are_solve(family_quad(a))
    assert sol.converged
    assert abs(sol.P_star[0, 0]) <= 1e-9
    assert np.allclose(sol.closed_loop, [[a - 1.0]], atol=1e-8)
    assert abs(sol.spectral_radius - abs(a - 1.0)) < 1e-8
    assert sol.spectral_radius < 1.0


def test_unstable_family_from_large_init():
    sol = rc.are_solve(family_quad(1.5), init=[[10.0]])
    assert sol.converged
    assert abs(sol.P_star[0, 0]) <= 1e-9
    assert np.allclose(sol.closed_loop, [[0.5]], atol=1e-8)


def test_augmented_scalar_blocks():
    # memoryless input written with an explicit (inert) state so the
    # augmented matrices are the 2x2 block forms
    inp = rc.InputModel(F=[[0.0]], G=[[0.0]], Gamma=[[0.0]], D=[[1.0]],
                        K_Z=[[1.0]])
    aug = rc.build_augmented(scalar_noise(0.5), inp, unit_channel())
    sol = rc.are_solve(aug)
    assert sol.converged
    # positive root of pi^2 + 1.5 pi - 1 = 0
    assert abs(sol.P_star[1, 1] - 0.5) < 1e-10
    K_I = aug.Chat @ sol.P_star @ aug.Chat.T + aug.Rhat
    assert abs(K_I[0, 0] - 2.5) < 1e-9


def test_iteration_budget_flags_nonconvergence():
    sol = rc.are_solve(family_quad(1.9), init=[[10.0]], max_iter=2)
    assert not sol.converged
    assert sol.iterations == 2


def test_residual_reported_at_fixed_point():
    sol = rc.are_solve(family_quad(0.5))
    assert sol.residual <= 1e-10


@pytest.mark.parametrize("seed", range(8))
def test_steady_state_matches_schur_dual(seed):
    rng = np.random.default_rng(seed)
    noise, _ = random_models(rng, rho_A=1.2 if seed % 2 else 0.8)
    quad = rc.to_quadruple(noise)
    sol = rc.are_solve(quad, tol=1e-13)
    assert sol.converged
    ref = dare_steady_state(quad)
    assert np.max(np.abs(sol.P_star - ref)) < 1e-8


@pytest.mark.parametrize("a", [0.5, 1.5])
def test_initial_condition_insensitivity(a):
    quad = family_quad(a)
    sols = [rc.are_solve(quad, init=i, tol=1e-13)
            for i in (None, [[1.0]], [[10.0]])]
    for s in sols[1:]:
        assert np.max(np.abs(s.P_star - sols[0].P_star)) < 1e-8


def test_divergent_recursion_reported():
    # detectability fails: unstable mode invisible, P grows without bound
    quad = rc.to_quadruple(rc.NoiseModel(A=[[1.5]], B=[[1.0]], C=[[0.0]],
                                         N=[[1.0]], K_W=[[1.0]]))
    sol = rc.are_solve(quad, init=[[1.0]], max_iter=10_000)
    assert not sol.converged
    assert not np.isfinite(sol.residual)


def test_critical_decay_stops_without_claiming_convergence():
    # P+ = P / (1 + P) from 1 decays like 1/t to 0 with the closed loop on
    # the unit circle: the doubling never contracts relative to P
    quad = rc.to_quadruple(rc.NoiseModel(A=[[1.0]], B=[[0.0]], C=[[1.0]],
                                         N=[[1.0]], K_W=[[1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = rc.are_solve(quad, init=[[1.0]])
    assert not sol.converged
    assert sol.iterations <= 64
    assert np.all(np.isfinite(sol.P_star)) and 0.0 <= sol.P_star[0, 0] < 1e-15


# ------------------------------------------------ doubling against the oracle


def relative_error(P, ref):
    return np.max(np.abs(P - ref)) / np.max(np.abs(ref))


def near_marginal_quad(b):
    # predictor loop radius about 1 - b
    return rc.to_quadruple(rc.NoiseModel(A=[[1.0]], B=[[0.0, b]], C=[[1.0]],
                                         N=[[1.0, 0.0]], K_W=np.eye(2)))


@given(seed=st.integers(0, 2**32 - 1), n_s=st.integers(1, 6), n_xi=st.integers(1, 4),
       rho_A=st.floats(0.3, 1.3))
def test_are_solve_matches_schur_oracle_on_random_models(seed, n_s, n_xi, rho_A):
    noise, inp = random_models(np.random.default_rng(seed), n_s=n_s, n_xi=n_xi, rho_A=rho_A)
    for quad in (rc.to_quadruple(noise),
                 rc.build_augmented(noise, inp, unit_channel())):
        sol = rc.are_solve(quad)
        assert sol.converged
        assert relative_error(sol.P_star, dare_steady_state(quad)) <= 1e-9


@given(exponent=st.floats(1.0, 5.0))
def test_are_solve_matches_schur_oracle_near_the_unit_circle(exponent):
    quad = near_marginal_quad(10.0 ** -exponent)
    sol = rc.are_solve(quad)
    assert sol.converged
    assert relative_error(sol.P_star, dare_steady_state(quad)) <= 1e-9


def test_near_marginal_converges_in_few_doublings():
    quad = near_marginal_quad(1e-4)
    sol = rc.are_solve(quad)
    assert sol.converged and sol.iterations <= 40
    assert sol.spectral_radius > 0.9999
    assert relative_error(sol.P_star, dare_steady_state(quad)) <= 1e-10


def test_unstable_joint_system_of_size_80_converges(monkeypatch):
    rng = np.random.default_rng(0)
    for _ in range(3):
        noise, inp = random_models(rng, n_s=40, n_xi=40, n_y=2, n_z=2, rho_A=1.3, rho_F=0.9)
    quad = rc.build_augmented(noise, inp, rc.Channel(H=np.eye(2), kappa=1.0))
    ref = dare_steady_state(quad)
    sol = rc.are_solve(quad)
    assert sol.converged and sol.spectral_radius < 1.0
    assert relative_error(sol.P_star, ref) <= 1e-9
    # doubling alone leaves a residual about 1e-11 of |P| here; at tol 1e-13
    # the Newton steps, each one Stein solve, bring it within tolerance
    stein_solves = []
    smith = rc.riccati._smith
    monkeypatch.setattr(rc.riccati, "_smith",
                        lambda *args: stein_solves.append(1) or smith(*args))
    sol = rc.are_solve(quad, tol=1e-13)
    assert sol.converged and 1 <= len(stein_solves) <= 3
    assert sol.residual <= 1e-12 * np.max(np.abs(sol.P_star))
    assert relative_error(sol.P_star, ref) <= 1e-9
