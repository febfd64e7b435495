"""End-to-end acceptance checks.

Each test prints one PASS or FAIL line so the suite reads as a
checklist; the assertions carry the actual tolerances.
"""

from contextlib import contextmanager

import numpy as np
import pytest

import riccati_capacity as rc
from conftest import random_models, scalar_noise, unit_channel, unit_iid_input
from oracles import (
    HALF_LN2,
    HALF_LN2_5,
    WF_TWO_MODE,
    joint_output_covariance,
    logdet_pd,
)

FAMILY = (0.3, 0.5, 0.9, 1.2, 1.5, 1.9)


@contextmanager
def criterion(tag):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE FAIL: {tag}")
        raise
    print(f"ACCEPTANCE PASS: {tag}")


def test_01_scalar_family_steady_states():
    with criterion("scalar Riccati family solves to zero with stable filters"):
        for a in FAMILY:
            sol = rc.are_solve(rc.to_quadruple(scalar_noise(a)))
            assert sol.converged, f"a={a} did not converge"
            assert abs(sol.P_star[0, 0]) <= 1e-9, f"a={a}"
            assert np.allclose(sol.closed_loop, [[a - 1.0]], atol=1e-8)
            assert abs(sol.spectral_radius - abs(a - 1.0)) < 1e-8
            assert sol.spectral_radius < 1.0


def test_02_initial_condition_uniformity():
    with criterion("steady states do not depend on the initial covariance"):
        inits_1 = (None, np.eye(1), 10.0 * np.eye(1))
        for a in FAMILY:
            quad = rc.to_quadruple(scalar_noise(a))
            sols = [rc.are_solve(quad, init=i, tol=1e-12) for i in inits_1]
            for s in sols:
                assert s.converged
            for s in sols[1:]:
                assert np.max(np.abs(s.P_star - sols[0].P_star)) <= 1e-8
            aug = rc.build_augmented(scalar_noise(a), unit_iid_input(),
                                     unit_channel())
            aq = aug
            m = aq.Ahat.shape[0]
            sols = [rc.are_solve(aq, init=i, tol=1e-12)
                    for i in (None, np.eye(m), 10.0 * np.eye(m))]
            for s in sols:
                assert s.converged
            for s in sols[1:]:
                assert np.max(np.abs(s.P_star - sols[0].P_star)) <= 1e-8


def test_03_chain_rule_of_entropies():
    with criterion("per-step innovations entropies sum to the joint one"):
        rng = np.random.default_rng(7)
        done = 0
        while done < 50:
            n_s = int(rng.integers(1, 3))
            n_xi = int(rng.integers(0, 3))
            if n_s + n_xi > 4:
                continue
            rho_A = float(rng.uniform(0.3, 1.2))
            noise, inp = random_models(rng, n_s=n_s, n_xi=max(n_xi, 1),
                                       rho_A=rho_A,
                                       rho_F=float(rng.uniform(0.2, 0.8)))
            if n_xi == 0:
                inp = rc.iid_input(inp.K_Z, n_x=1)
            ch = unit_channel()
            n = int(rng.integers(2, 21))
            res = rc.finite_n_rate((noise, inp), ch, n)
            aug = rc.build_augmented(noise, inp, ch)
            K_Y = joint_output_covariance(aug.Ahat, aug.Bhat, aug.Chat, aug.Dhat,
                                          aug.K_Theta1, aug.Khat, n)
            K_V = joint_output_covariance(noise.A, noise.B, noise.C,
                                          noise.N, noise.K_S1, noise.K_W, n)
            ld_Y, ld_V = logdet_pd(K_Y), logdet_pd(K_V)
            assert abs(np.sum(res.trace[:, 1]) - ld_Y) <= 1e-8 * max(1.0, abs(ld_Y))
            assert abs(np.sum(res.trace[:, 2]) - ld_V) <= 1e-8 * max(1.0, abs(ld_V))
            done += 1


def test_04_memoryless_reduction_to_waterfilling():
    with criterion("memoryless channels reproduce the water-filling optimum"):
        noise2 = rc.memoryless_noise(np.eye(2))
        ch2 = rc.Channel(H=np.diag([1.0, 2.0]), kappa=1.0)
        cfg = rc.OptimizerConfig(starts=4, seed=0, maxiter=30)
        _, res = rc.optimize_input(noise2, ch2, (0, 2), cfg)
        oracle, _ = rc.waterfilling_oracle(np.diag([1.0, 2.0]), np.eye(2), 1.0)
        assert abs(oracle - WF_TWO_MODE) < 1e-12
        assert abs(res.rate_nats - oracle) <= 1e-3
        assert res.power <= 1.0 + 1e-9

        noise1 = rc.memoryless_noise([[1.0]])
        _, res1 = rc.optimize_input(noise1, unit_channel(1.0), (0, 1), cfg)
        assert abs(res1.rate_nats - HALF_LN2) <= 1e-4
        assert res1.power <= 1.0 + 1e-9


def test_05_colored_noise_closed_form_point():
    with criterion("colored scalar noise with IID input hits 0.5*ln(2.5)"):
        noise, inp, ch = scalar_noise(0.5), unit_iid_input(), unit_channel()
        res = rc.asymptotic_rate(noise, inp, ch)
        assert abs(res.rate_nats - HALF_LN2_5) <= 1e-10
        cfg = rc.OptimizerConfig(starts=6, seed=1, maxiter=40)
        _, opt = rc.optimize_input(noise, ch, (1, 1), cfg)
        assert opt.rate_nats >= HALF_LN2_5 - 1e-3
        assert opt.power <= 1.0 + 1e-9


def test_06_lyapunov_closed_form_and_rejection():
    with criterion("Lyapunov solver matches the geometric series and "
                   "rejects unit roots"):
        sol = rc.lyap_solve([[0.5]], [[1.0]], [[3.0]])
        assert abs(sol.P_star[0, 0] - 4.0) <= 1e-10
        with pytest.raises(ValueError):
            rc.lyap_solve([[1.0]], [[1.0]], [[1.0]])


def test_07_monte_carlo_validates_analytic_covariances():
    with criterion("sampled innovations match K_I = 2.5 within Monte Carlo "
                   "tolerance"):
        noise, inp, ch = scalar_noise(0.5), unit_iid_input(), unit_channel()
        analytic = rc.asymptotic_rate(noise, inp, ch)
        paths, horizon = 100_000, 30
        batch = rc.sample_paths(noise, inp, ch, horizon=horizon, paths=paths,
                                master_seed=1234)
        run = rc.kalman_run(batch)
        innov = run.innovations[:, -1, 0]
        var_emp = float(np.var(innov))
        assert abs(var_emp - 2.5) <= 0.03 * 2.5
        prev = run.innovations[:, -2, 0]
        lag = float(np.mean(innov * prev) - np.mean(innov) * np.mean(prev))
        se_lag = 2.5 / np.sqrt(paths)
        assert abs(lag) <= 3.0 * se_lag
        per_path_power = np.mean(np.sum(batch.X ** 2, axis=2), axis=1)
        power_emp = float(np.mean(per_path_power))
        assert abs(power_emp - analytic.power) <= 0.02 * analytic.power


def test_08_drifting_coefficients_share_the_limit():
    with criterion("geometrically settling coefficients converge to the "
                   "time-invariant rate"):
        inp = unit_iid_input()
        sched = rc.CoefficientSchedule(
            noise_at=lambda t: scalar_noise(0.5 + 2.0 ** (-t)),
            input_at=lambda t: inp,
            noise_limit=scalar_noise(0.5),
            input_limit=inp,
        )
        trace = rc.case2_rate(sched, unit_channel(), 10_000)
        assert abs(trace.limit_rate - HALF_LN2_5) < 1e-10
        devs = trace.points[:, 2]
        assert devs[-1] <= 1e-3
        assert np.all(np.diff(devs[-4:]) <= 0.0)


def test_09_rate_grows_with_the_power_budget():
    with criterion("optimized rates are nondecreasing in kappa"):
        grid = [0.25, 0.5, 1.0, 2.0, 4.0]
        cfg = rc.OptimizerConfig(starts=6, seed=0, maxiter=30)
        for a in (0.5, 1.5):
            points = rc.sweep_kappa(scalar_noise(a), unit_channel(), grid,
                                    (1, 1), cfg)
            for p in points:
                assert p.feasible, f"a={a}, kappa={p.kappa}"
                assert p.power <= p.kappa + 1e-9
            rates = [p.rate_nats for p in points]
            for lo, hi in zip(rates, rates[1:]):
                assert hi >= lo - 1e-3, f"a={a}: {rates}"


def test_10_rate_invariant_under_state_similarity():
    with criterion("input state similarity transforms leave the rate alone"):
        rng = np.random.default_rng(42)
        ch = unit_channel()
        for _ in range(20):
            noise, inp = random_models(rng, n_s=2, n_xi=2,
                                       rho_A=float(rng.uniform(0.4, 0.9)),
                                       rho_F=float(rng.uniform(0.3, 0.8)))
            base = rc.asymptotic_rate(noise, inp, ch, tol=1e-13)
            while True:
                T = rng.normal(size=(2, 2))
                if np.linalg.cond(T) < 20.0:
                    break
            Tinv = np.linalg.inv(T)
            moved = rc.InputModel(
                F=T @ inp.F @ Tinv, G=T @ inp.G, Gamma=inp.Gamma @ Tinv,
                D=inp.D, K_Z=inp.K_Z,
                mu_Xi1=T @ inp.mu_Xi1, K_Xi1=T @ inp.K_Xi1 @ T.T,
            )
            other = rc.asymptotic_rate(noise, moved, ch, tol=1e-13)
            assert abs(base.rate_nats - other.rate_nats) <= 1e-10


def test_11_finite_block_rate_converges_uniformly_over_initial_laws():
    with criterion("the finite-block rate converges uniformly over the "
                   "initial laws of (S_1, Xi_1)"):
        ch = unit_channel()
        laws = [(k_s1, k_xi1) for k_s1 in (0.0, 1.0, 10.0) for k_xi1 in (0.0, 4.0)]
        for a in (0.5, 1.5):
            def models(k_s1, k_xi1):
                inp = rc.InputModel(F=[[0.5]], G=[[1.0]], Gamma=[[1.0]], D=[[1.0]],
                                    K_Z=[[1.0]], K_Xi1=[[k_xi1]])
                return scalar_noise(a, k_s1=k_s1), inp

            limit = rc.asymptotic_rate(*models(0.0, 0.0), ch).rate_nats
            scaled = []
            for n in (100, 400):
                rates = np.array([rc.finite_n_rate(models(*law), ch, n).rate_nats
                                  for law in laws])
                # the laws matter at finite n ...
                assert np.ptp(rates) > 1e-3, f"a={a}, n={n}: {rates}"
                scaled.append(n * np.max(np.abs(rates - limit)))
            # ... but the worst of them is O(1/n) from the limit
            assert scaled[1] <= 1.001 * scaled[0], f"a={a}: {scaled}"
