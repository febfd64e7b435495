import numpy as np
import pytest

import riccati_capacity as rc
from conftest import random_models, scalar_noise, unit_channel, unit_iid_input
from oracles import (
    HALF_LN2,
    HALF_LN2_5,
    WF_TWO_MODE,
    joint_output_covariance,
    joint_output_covariance_tv,
    logdet_pd,
)
from scipy.linalg import block_diag


def colored_setup():
    return scalar_noise(0.5), unit_iid_input(), unit_channel()


# ------------------------------------------------------------ finite_n_rate


def test_zero_input_rate_is_zero():
    noise = scalar_noise(0.5)
    inp = rc.InputModel(F=[[0.5]], G=[[0.0]], Gamma=[[0.0]], D=[[0.0]],
                        K_Z=[[1.0]])
    for n in (1, 3, 10):
        res = rc.finite_n_rate((noise, inp), unit_channel(), n)
        assert 0.0 <= res.rate_nats <= 1e-12
        assert np.all(res.trace[:, 3] >= 0.0)
        assert res.power == 0.0


def test_single_letter_awgn():
    noise = rc.memoryless_noise([[1.0]])
    res = rc.finite_n_rate((noise, unit_iid_input()), unit_channel(), 1)
    assert abs(res.rate_nats - HALF_LN2) < 1e-14
    assert abs(res.power - 1.0) < 1e-14


def test_trace_layout_and_running_averages():
    noise, inp, ch = colored_setup()
    res = rc.finite_n_rate((noise, inp), ch, 6)
    t = res.trace
    assert t.shape == (6, 5)
    assert np.array_equal(t[:, 0], np.arange(1, 7))
    # running averages recompute from the per-step columns
    diffs = np.maximum(0.0, t[:, 1] - t[:, 2])
    for k in range(6):
        avg = 0.5 * np.sum(diffs[: k + 1]) / (k + 1)
        assert abs(t[k, 3] - avg) < 1e-13
    assert abs(res.rate_nats - t[-1, 3]) < 1e-15


def test_finite_block_matches_joint_covariance_oracle():
    noise, inp, ch = colored_setup()
    n = 100
    res = rc.finite_n_rate((noise, inp), ch, n)
    aug = rc.build_augmented(noise, inp, ch)
    K_Y = joint_output_covariance(aug.bA, aug.bB, aug.bC, aug.bD,
                                  aug.K_Theta1, aug.K_Wbar, n)
    K_V = joint_output_covariance(noise.A, noise.B, noise.C, noise.N,
                                  noise.K_S1, noise.K_W, n)
    sum_ld_I = float(np.sum(res.trace[:, 1]))
    sum_ld_Ihat = float(np.sum(res.trace[:, 2]))
    assert abs(sum_ld_I - logdet_pd(K_Y)) < 1e-8 * abs(logdet_pd(K_Y))
    assert abs(sum_ld_Ihat - logdet_pd(K_V)) < 1e-8 * max(1.0, abs(logdet_pd(K_V)))
    oracle_rate = (logdet_pd(K_Y) - logdet_pd(K_V)) / (2.0 * n)
    assert abs(res.rate_nats - oracle_rate) < 1e-10


@pytest.mark.parametrize("seed", range(6))
def test_chain_rule_on_random_systems(seed):
    rng = np.random.default_rng(100 + seed)
    noise, inp = random_models(rng, n_s=2, n_xi=2,
                               rho_A=1.1 if seed % 2 else 0.7)
    ch = unit_channel()
    n = int(rng.integers(2, 13))
    res = rc.finite_n_rate((noise, inp), ch, n)
    aug = rc.build_augmented(noise, inp, ch)
    K_Y = joint_output_covariance(aug.bA, aug.bB, aug.bC, aug.bD,
                                  aug.K_Theta1, aug.K_Wbar, n)
    K_V = joint_output_covariance(noise.A, noise.B, noise.C, noise.N,
                                  noise.K_S1, noise.K_W, n)
    ld_Y = logdet_pd(K_Y)
    ld_V = logdet_pd(K_V)
    assert abs(np.sum(res.trace[:, 1]) - ld_Y) < 1e-8 * max(1.0, abs(ld_Y))
    assert abs(np.sum(res.trace[:, 2]) - ld_V) < 1e-8 * max(1.0, abs(ld_V))


def drifting_state_schedule():
    """Noise with n_s = 2 and an input with n_xi = 1, every block moving with t."""
    noise_0, inp_0 = random_models(np.random.default_rng(7), n_s=2, n_xi=1,
                                   rho_A=0.9, rho_F=0.6)

    def noise_at(t):
        c, s = np.cos(t), np.sin(t)
        return rc.NoiseModel(
            A=noise_0.A * (1.0 + 0.2 * c), B=noise_0.B + 0.3 * s,
            C=noise_0.C * (1.0 + 0.1 * s), N=noise_0.N + 0.2 * c,
            K_W=noise_0.K_W * (1.0 + 0.5 * s * s), K_S1=noise_0.K_S1,
        )

    def input_at(t):
        c, s = np.cos(0.7 * t), np.sin(0.7 * t)
        return rc.InputModel(
            F=inp_0.F * (1.0 + 0.3 * c), G=inp_0.G + 0.4 * s,
            Gamma=inp_0.Gamma * (1.0 - 0.2 * s), D=inp_0.D + 0.3 * c,
            K_Z=inp_0.K_Z * (1.0 + 0.5 * c * c), K_Xi1=inp_0.K_Xi1,
        )

    return rc.CoefficientSchedule(noise_at=noise_at, input_at=input_at,
                                  noise_limit=noise_0, input_limit=inp_0)


def test_drifting_noise_and_input_state_match_time_varying_oracle():
    sched = drifting_state_schedule()
    ch = unit_channel()
    n = 20
    res = rc.finite_n_rate(sched, ch, n)
    noises = [sched.noise_at(t) for t in range(1, n + 1)]
    inputs = [sched.input_at(t) for t in range(1, n + 1)]
    H = ch.H
    K_Y = joint_output_covariance_tv(
        [block_diag(i.F, m.A) for m, i in zip(noises, inputs)],
        [block_diag(i.G, m.B) for m, i in zip(noises, inputs)],
        [np.hstack([H @ i.Gamma, m.C]) for m, i in zip(noises, inputs)],
        [np.hstack([H @ i.D, m.N]) for m, i in zip(noises, inputs)],
        block_diag(inputs[0].K_Xi1, noises[0].K_S1),
        [block_diag(i.K_Z, m.K_W) for m, i in zip(noises, inputs)],
    )
    K_V = joint_output_covariance_tv(
        [m.A for m in noises], [m.B for m in noises], [m.C for m in noises],
        [m.N for m in noises], noises[0].K_S1, [m.K_W for m in noises],
    )
    ld_Y = logdet_pd(K_Y)
    ld_V = logdet_pd(K_V)
    assert abs(np.sum(res.trace[:, 1]) - ld_Y) < 1e-8 * max(1.0, abs(ld_Y))
    assert abs(np.sum(res.trace[:, 2]) - ld_V) < 1e-8 * max(1.0, abs(ld_V))


def test_explicit_schedule_of_fixed_models_reproduces_the_pair():
    sched = drifting_state_schedule()
    noise, inp = sched.noise_at(1), sched.input_at(1)
    fixed = rc.CoefficientSchedule(noise_at=lambda t: noise, input_at=lambda t: inp,
                                   noise_limit=noise, input_limit=inp)
    pair = rc.finite_n_rate((noise, inp), unit_channel(), 20)
    explicit = rc.finite_n_rate(fixed, unit_channel(), 20)
    assert np.array_equal(explicit.trace, pair.trace)


def test_schedule_rejects_a_block_that_changes_shape():
    noise, inp, ch = colored_setup()
    wider = rc.NoiseModel(A=[[0.5]], B=[[1.0, 0.0]], C=[[1.0]],
                          N=[[1.0, 0.0]], K_W=np.eye(2))
    sched = rc.CoefficientSchedule(
        noise_at=lambda t: noise if t < 3 else wider, input_at=lambda t: inp,
        noise_limit=noise, input_limit=inp,
    )
    with pytest.raises(ValueError, match="step 3: model dimensions changed"):
        rc.finite_n_rate(sched, ch, 5)


def test_explicit_initial_covariances_enter_step_one():
    noise, inp, ch = colored_setup()
    # iid input has no xi state, so the augmented state is S alone:
    # K_I_1 = Pi_1 + 2 and K_Ihat_1 = Sigma_1 + 1 for this model
    res = rc.finite_n_rate((noise, inp), ch, 1,
                           Sigma_1=[[2.0]], Pi_1=[[2.0]])
    assert abs(res.trace[0, 1] - np.log(4.0)) < 1e-14
    assert abs(res.trace[0, 2] - np.log(3.0)) < 1e-14
    assert abs(res.rate_nats - 0.5 * np.log(4.0 / 3.0)) < 1e-14


def test_bad_horizon_rejected():
    noise, inp, ch = colored_setup()
    with pytest.raises(ValueError):
        rc.finite_n_rate((noise, inp), ch, 0)


# ----------------------------------------------------------- asymptotic_rate


def test_memoryless_reduces_to_shannon_formula():
    for kappa in (0.25, 1.0, 4.0):
        noise = rc.memoryless_noise([[1.0]])
        inp = rc.iid_input([[kappa]])
        res = rc.asymptotic_rate(noise, inp, unit_channel(kappa))
        assert abs(res.rate_nats - 0.5 * np.log1p(kappa)) < 1e-12
        assert abs(res.power - kappa) < 1e-12


def test_colored_noise_closed_form_point():
    noise, inp, ch = colored_setup()
    res = rc.asymptotic_rate(noise, inp, ch)
    assert abs(res.rate_nats - HALF_LN2_5) < 1e-10
    assert abs(res.K_I[0, 0] - 2.5) < 1e-10
    assert abs(res.K_Ihat[0, 0] - 1.0) < 1e-10
    assert abs(res.power - 1.0) < 1e-12
    assert res.feasibility.member_of_P_infinity


def test_zero_input_asymptotic_rate_zero():
    noise = scalar_noise(0.5)
    inp = rc.InputModel(F=[[0.5]], G=[[0.0]], Gamma=[[0.0]], D=[[0.0]],
                        K_Z=[[1.0]])
    res = rc.asymptotic_rate(noise, inp, unit_channel())
    assert res.rate_nats <= 1e-12
    assert res.power == 0.0


def test_unstable_input_state_rejected():
    noise = scalar_noise(0.5)
    inp = rc.InputModel(F=[[1.0]], G=[[1.0]], Gamma=[[1.0]], D=[[0.0]],
                        K_Z=[[1.0]])
    with pytest.raises(ValueError, match="not exponentially stable"):
        rc.asymptotic_rate(noise, inp, unit_channel())


def test_warm_starts_do_not_change_the_limit():
    noise, inp, ch = colored_setup()
    base = rc.asymptotic_rate(noise, inp, ch, tol=1e-13)
    warm = rc.asymptotic_rate(noise, inp, ch, tol=1e-13,
                              Sigma_init=[[5.0]], Pi_init=[[10.0]])
    assert abs(base.rate_nats - warm.rate_nats) < 1e-9


def test_finite_horizon_approaches_asymptote():
    noise, inp, ch = colored_setup()
    limit = rc.asymptotic_rate(noise, inp, ch).rate_nats
    r100 = rc.finite_n_rate((noise, inp), ch, 100).rate_nats
    r1000 = rc.finite_n_rate((noise, inp), ch, 1000).rate_nats
    assert abs(r1000 - limit) < abs(r100 - limit)
    assert abs(r1000 - limit) < 1e-3


# ---------------------------------------------------------- asymptotic_power


def test_power_from_lyapunov_fixed_point():
    inp = rc.InputModel(F=[[0.5]], G=[[1.0]], Gamma=[[1.0]], D=[[0.0]],
                        K_Z=[[3.0]])
    assert abs(rc.asymptotic_power(inp) - 4.0) < 1e-10


def test_power_of_iid_input():
    for kappa in (0.5, 2.0):
        assert abs(rc.asymptotic_power(rc.iid_input([[kappa]])) - kappa) < 1e-12


def test_power_zero_when_nothing_drives_X():
    inp = rc.InputModel(F=[[0.5]], G=[[0.0]], Gamma=[[1.0]], D=[[0.0]],
                        K_Z=[[1.0]])
    assert rc.asymptotic_power(inp) == 0.0


# ------------------------------------------------------- waterfilling_oracle


def test_waterfilling_scalar():
    rate, powers = rc.waterfilling_oracle([[1.0]], [[1.0]], 1.0)
    assert abs(rate - HALF_LN2) < 1e-12
    assert np.allclose(powers, [1.0])


def test_waterfilling_zero_budget():
    rate, powers = rc.waterfilling_oracle([[1.0]], [[1.0]], 0.0)
    assert rate == 0.0
    assert np.allclose(powers, [0.0])


def test_waterfilling_two_modes():
    rate, powers = rc.waterfilling_oracle(np.diag([1.0, 2.0]), np.eye(2), 1.0)
    assert abs(rate - WF_TWO_MODE) < 1e-12
    # water level 1.125: strong mode gets 0.875, weak mode 0.125
    assert np.allclose(powers, [0.875, 0.125], atol=1e-10)


def test_waterfilling_starves_weak_mode():
    rate, powers = rc.waterfilling_oracle(np.diag([1.0, 10.0]), np.eye(2), 0.1)
    assert powers[1] == 0.0
    assert abs(np.sum(powers) - 0.1) < 1e-12
    assert rate > 0.0


def test_waterfilling_rejects_bad_R():
    with pytest.raises(ValueError, match="R not positive definite"):
        rc.waterfilling_oracle([[1.0]], [[0.0]], 1.0)
    with pytest.raises(ValueError, match="kappa negative"):
        rc.waterfilling_oracle([[1.0]], [[1.0]], -1.0)


# ------------------------------------------------------------ optimize_input


def test_optimize_scalar_awgn_reaches_waterfilling():
    noise = rc.memoryless_noise([[1.0]])
    cfg = rc.OptimizerConfig(starts=4, seed=0, maxiter=30)
    model, res = rc.optimize_input(noise, unit_channel(1.0), (0, 1), cfg)
    assert abs(res.rate_nats - HALF_LN2) < 1e-4
    assert res.power <= 1.0 + 1e-9
    assert rc.validate(model).ok


def test_optimize_two_mode_matches_waterfilling():
    noise = rc.memoryless_noise(np.eye(2))
    ch = rc.Channel(H=np.diag([1.0, 2.0]), kappa=1.0)
    cfg = rc.OptimizerConfig(starts=4, seed=0, maxiter=30)
    _, res = rc.optimize_input(noise, ch, (0, 2), cfg)
    assert abs(res.rate_nats - WF_TWO_MODE) < 1e-3
    assert res.power <= 1.0 + 1e-9


def test_optimize_colored_noise_beats_iid():
    noise, inp, ch = colored_setup()
    iid_rate = rc.asymptotic_rate(noise, inp, ch).rate_nats
    cfg = rc.OptimizerConfig(starts=6, seed=1, maxiter=40)
    _, res = rc.optimize_input(noise, ch, (1, 1), cfg)
    assert res.rate_nats >= iid_rate - 1e-3
    assert res.power <= 1.0 + 1e-9
    assert res.feasibility.member_of_P_infinity


def test_optimize_respects_warm_start_witness():
    noise, inp, ch = colored_setup()
    cfg = rc.OptimizerConfig(starts=2, seed=3, maxiter=10,
                             warm_starts=(inp,))
    _, res = rc.optimize_input(noise, ch, (1, 1), cfg)
    # the warm start is evaluated as-is, so its rate is a floor
    assert res.rate_nats >= HALF_LN2_5 - 1e-9


def test_candidate_evaluations_are_not_validated_again(monkeypatch):
    # the models are checked once on entry (noise, input, channel) and in
    # each final evaluation (asymptotic_power once, asymptotic_rate three
    # times), never per L-BFGS objective evaluation
    calls = dict.fromkeys(("validate", "asymptotic_rate", "are_solve"), 0)
    for module, name in ((rc.models, "validate"), (rc.capacity, "asymptotic_rate"),
                         (rc.capacity, "are_solve")):
        def counted(*args, _f=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    cfg = rc.OptimizerConfig(starts=2, seed=0, maxiter=10)
    _, res = rc.optimize_input(rc.memoryless_noise([[1.0]]), unit_channel(1.0), (1, 1), cfg)
    assert calls["are_solve"] > 1 + 2 * calls["asymptotic_rate"]
    assert calls["validate"] == 3 + 4 * calls["asymptotic_rate"]
    assert abs(res.rate_nats - HALF_LN2) < 1e-12
    assert res.power <= 1.0 + 1e-9


def test_optimize_infeasible_noise_raises():
    noise = rc.NoiseModel(A=[[1.5]], B=[[1.0]], C=[[0.0]], N=[[1.0]],
                          K_W=[[1.0]])
    cfg = rc.OptimizerConfig(starts=2, seed=0, maxiter=5)
    with pytest.raises(RuntimeError, match="feasible set not reached"):
        rc.optimize_input(noise, unit_channel(), (1, 1), cfg)


# -------------------------------------------------------------- sweep_kappa


def test_sweep_is_monotone_and_on_budget():
    noise = scalar_noise(0.5)
    cfg = rc.OptimizerConfig(starts=3, seed=0, maxiter=25)
    points = rc.sweep_kappa(noise, unit_channel(), [0.25, 1.0, 4.0],
                            (1, 1), cfg)
    rates = [p.rate_nats for p in points]
    for lo, hi in zip(rates, rates[1:]):
        assert hi >= lo - 1e-3
    for p in points:
        assert p.feasible
        assert p.power <= p.kappa + 1e-9


# --------------------------------------------------------------- case2_rate


def geometric_schedule():
    inp = unit_iid_input()
    return rc.CoefficientSchedule(
        noise_at=lambda t: scalar_noise(0.5 + 2.0 ** (-t)),
        input_at=lambda t: inp,
        noise_limit=scalar_noise(0.5),
        input_limit=inp,
    )


def test_case2_constant_schedule_degenerates():
    noise, inp, ch = colored_setup()
    trace = rc.case2_rate(rc.constant_schedule(noise, inp), ch, 256)
    assert abs(trace.limit_rate - HALF_LN2_5) < 1e-10
    # deviation is pure Case 1 transient decay
    devs = trace.points[:, 2]
    assert devs[-1] < 1e-3
    assert devs[-1] <= devs[0]


def test_case2_convergent_schedule():
    trace = rc.case2_rate(geometric_schedule(), unit_channel(), 512)
    devs = trace.points[:, 2]
    assert devs[-1] < 1e-2
    # tail decreases once the schedule settles
    assert np.all(np.diff(devs[-4:]) <= 0.0)
    assert abs(trace.limit_rate - HALF_LN2_5) < 1e-10


def test_case2_unstable_limit_rejected():
    inp_bad = rc.InputModel(F=[[1.0]], G=[[1.0]], Gamma=[[1.0]], D=[[0.0]],
                            K_Z=[[1.0]])
    sched = rc.CoefficientSchedule(
        noise_at=lambda t: scalar_noise(0.5),
        input_at=lambda t: inp_bad,
        noise_limit=scalar_noise(0.5),
        input_limit=inp_bad,
    )
    with pytest.raises(ValueError, match="not exponentially stable"):
        rc.case2_rate(sched, unit_channel(), 64)


# ------------------------------------------------------ similarity invariance


def random_transform(rng, n):
    while True:
        T = rng.normal(size=(n, n))
        if np.linalg.cond(T) < 20.0:
            return T


@pytest.mark.parametrize("seed", range(5))
def test_rate_invariant_under_input_state_similarity(seed):
    rng = np.random.default_rng(300 + seed)
    noise, inp = random_models(rng, n_s=2, n_xi=2, rho_A=0.8, rho_F=0.6)
    ch = unit_channel()
    base = rc.asymptotic_rate(noise, inp, ch, tol=1e-13,
                              with_feasibility=False)
    T = random_transform(rng, inp.n_xi)
    Tinv = np.linalg.inv(T)
    transformed = rc.InputModel(
        F=T @ inp.F @ Tinv, G=T @ inp.G, Gamma=inp.Gamma @ Tinv,
        D=inp.D, K_Z=inp.K_Z,
        mu_Xi1=T @ inp.mu_Xi1, K_Xi1=T @ inp.K_Xi1 @ T.T,
    )
    other = rc.asymptotic_rate(noise, transformed, ch, tol=1e-13,
                               with_feasibility=False)
    assert abs(base.rate_nats - other.rate_nats) < 1e-10
    assert abs(base.power - other.power) < 1e-9
