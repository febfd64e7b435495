import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import riccati_capacity as rc
from conftest import (diverging_noise, random_models, scalar_noise, unit_channel,
                      unit_iid_input)
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


@pytest.mark.parametrize("call", [
    lambda quad, P: rc.dre_step(quad, P),
    lambda quad, P: rc.dre_run(quad, P, 2),
    lambda quad, P: rc.gain_and_closed_loop(quad, P),
], ids=["dre_step", "dre_run", "gain_and_closed_loop"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_nonfinite_P_is_named_without_a_warning(call, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="P contains non-finite entries"):
            call(family_quad(0.5), [[bad]])


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


@pytest.mark.parametrize("horizon", [2.5, np.nan, "2"])
def test_run_rejects_a_horizon_that_is_not_an_integer(horizon):
    with pytest.raises(ValueError, match="horizon must be an integer"):
        rc.dre_run(family_quad(0.5), [[1.0]], horizon)


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
    # the DRE from 10 reaches the stabilizing solution are_solve finds from zero
    quad = family_quad(1.5)
    assert rc.are_solve(quad).converged
    P = rc.dre_run(quad, [[10.0]], 300)[-1]
    assert abs(P[0, 0]) <= 1e-9
    assert np.allclose(rc.gain_and_closed_loop(quad, P)[1], [[0.5]], atol=1e-8)


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
    quad = near_marginal_quad(1e-4)
    sol = rc.are_solve(quad, max_iter=2)
    assert not sol.converged
    assert sol.iterations == 2
    assert rc.are_solve(quad).converged


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
    # the DRE from 0, 1 and 10 ends where are_solve's doubling from zero does
    quad = family_quad(a)
    P_star = rc.are_solve(quad, tol=1e-13).P_star
    for P_1 in ([[0.0]], [[1.0]], [[10.0]]):
        assert np.max(np.abs(rc.dre_run(quad, P_1, 300)[-1] - P_star)) < 1e-8


def unobserved_quad(a):
    # C = 0 hides the state, which unit process noise drives: P+ = a^2 P + 1
    return rc.to_quadruple(rc.NoiseModel(A=[[a]], B=[[1.0, 0.0]], C=[[0.0]],
                                         N=[[0.0, 1.0]], K_W=np.eye(2)))


def test_divergent_recursion_reported():
    # detectability fails: unstable mode invisible, P grows without bound
    sol = rc.are_solve(unobserved_quad(1.5), max_iter=10_000)
    assert not sol.converged
    assert not np.isfinite(sol.residual)


def test_critical_decay_stops_without_claiming_convergence():
    # P+ = P + 1 grows like t with the closed loop on the unit circle: the
    # doubling never contracts relative to P and stops at step 2^64
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = rc.are_solve(unobserved_quad(1.0))
    assert not sol.converged
    assert sol.iterations == 64
    assert np.all(np.isfinite(sol.P_star)) and sol.P_star[0, 0] == 2.0 ** 64


@pytest.mark.parametrize("b, steps", [(1.0, 1), (1e-150, 2)])
def test_overflowing_doubling_ends_at_the_last_finite_dre_step(b, steps):
    # A = 1e160 with C = 0: P is DRE step 2^k from zero until A^2 P overflows.
    # With Q_s = 1 the first doubling overflows P; with Q_s = 1e-300 it
    # overflows A first and P, at DRE step 2 = 1e20, only at the next one
    quad = rc.to_quadruple(rc.NoiseModel(A=1e160, B=[[b, 0.0]], C=0.0, N=[[0.0, 1.0]],
                                         K_W=np.eye(2)))
    with np.errstate(over="ignore", invalid="ignore"):
        sol = rc.are_solve(quad)
        steps_from_zero = rc.dre_run(quad, np.zeros((1, 1)), steps + 1)
    assert sol.P_star == steps_from_zero[steps] and np.isfinite(sol.P_star).all()
    assert sol.iterations == steps and not sol.converged


def test_converged_requires_a_stable_closed_loop(monkeypatch):
    # A = 1.5, C = 0 hides the unstable mode: the doubling stops at P = 0 with
    # residual 0, and the closed loop is A itself
    radii = []

    def counted(M, _f=rc.riccati.spectral_radius):
        radii.append(_f(M))
        return radii[-1]
    monkeypatch.setattr(rc.riccati, "spectral_radius", counted)
    sol = rc.are_solve(rc.to_quadruple(rc.NoiseModel(A=1.5, B=1.0, C=0.0, N=1.0, K_W=1.0)))
    assert np.all(sol.P_star == 0.0) and sol.residual == 0.0
    assert sol.spectral_radius == pytest.approx(1.5, abs=1e-12) and not sol.converged
    assert radii == [sol.spectral_radius]  # one radius serves the field and the verdict
    # the stall at P = 2^64: the residual rounds to 0 and the closed loop is A = 1
    sol = rc.are_solve(unobserved_quad(1.0))
    assert (sol.residual, sol.spectral_radius, sol.converged) == (0.0, 1.0, False)
    # the same hidden state, stable: its fixed point P = 4/3 is the stabilizing one
    sol = rc.are_solve(unobserved_quad(0.5))
    assert sol.converged and sol.spectral_radius == pytest.approx(0.5, abs=1e-12)
    assert sol.P_star[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-12)


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


# ------------------------------------------------- innovations at the solution


def innovations_at(quad, P):
    K = quad.Rhat + quad.Chat @ P @ quad.Chat.T
    return 0.5 * (K + K.T)


@pytest.mark.parametrize("seed", range(6))
def test_solution_carries_the_innovations_covariance_and_its_log_det(seed):
    noise, inp = random_models(np.random.default_rng(seed), n_s=1 + seed % 4, n_xi=1 + seed % 3,
                               n_y=1 + seed % 2, rho_A=0.6 + 0.15 * seed)
    for quad in (rc.to_quadruple(noise),
                 rc.build_augmented(noise, inp, rc.Channel(H=np.eye(noise.n_y), kappa=1.0))):
        sol = rc.are_solve(quad)
        assert sol.converged
        np.testing.assert_array_equal(sol.innovations, innovations_at(quad, sol.P_star))
        sign, logdet = np.linalg.slogdet(sol.innovations)
        assert sign == 1.0 and sol.logdet == pytest.approx(logdet, rel=1e-12)


def test_diverged_run_whose_innovations_do_not_factor_returns():
    quad = rc.to_quadruple(diverging_noise(1e60, 1.0))
    with np.errstate(over="ignore", invalid="ignore"):
        sol = rc.are_solve(quad)
        K = innovations_at(quad, sol.P_star)
    assert not sol.converged and sol.residual == np.inf
    assert np.isfinite(sol.P_star).all() and np.max(np.abs(sol.P_star)) > 1e100
    # the K its last finite P gives has no Cholesky factor, so both fields are NaN
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(K)
    assert np.isnan(sol.innovations).all() and sol.innovations.shape == (1, 1)
    assert np.isnan(sol.logdet)
