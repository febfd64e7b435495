import re
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import riccati_capacity as rc
from conftest import (diverging_noise, random_models, scalar_noise, unit_channel,
                      unit_iid_input)
from oracles import (
    HALF_LN2,
    HALF_LN2_5,
    WF_TWO_MODE,
    joint_output_covariance,
    joint_output_covariance_tv,
    innovations_covariances,
    logdet_pd,
    noise_modes,
    spectral_capacity,
    spectral_logdets,
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
    # with no input the two predictors agree up to round-off; the negative
    # terms it leaves (55 of 100 steps here) are clamped to 0 and counted
    noise, _ = random_models(np.random.default_rng(4), n_s=2, n_xi=1, n_y=1)
    silent = rc.InputModel(F=[[0.5]], G=[[1.0]], Gamma=[[1.0]], D=[[1.0]], K_Z=[[0.0]])
    res = rc.finite_n_rate((noise, silent), unit_channel(), 100)
    assert res.diagnostics["clamped_steps"] == np.count_nonzero(res.trace[:, 1] < res.trace[:, 2])
    assert 0.0 <= res.rate_nats <= 1e-12


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
    K_Y = joint_output_covariance(aug.Ahat, aug.Bhat, aug.Chat, aug.Dhat,
                                  aug.K_Theta1, aug.Khat, n)
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
    K_Y = joint_output_covariance(aug.Ahat, aug.Bhat, aug.Chat, aug.Dhat,
                                  aug.K_Theta1, aug.Khat, n)
    K_V = joint_output_covariance(noise.A, noise.B, noise.C, noise.N,
                                  noise.K_S1, noise.K_W, n)
    ld_Y = logdet_pd(K_Y)
    ld_V = logdet_pd(K_V)
    assert abs(np.sum(res.trace[:, 1]) - ld_Y) < 1e-8 * max(1.0, abs(ld_Y))
    assert abs(np.sum(res.trace[:, 2]) - ld_V) < 1e-8 * max(1.0, abs(ld_V))


def assert_close_rel(got, want, rtol=1e-9):
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("seed", range(8))
def test_each_innovations_covariance_is_a_schur_complement(seed):
    # pins each K to its step: K_{I_t} and K_{Ihat_t} are the Schur
    # complements of the past outputs in the joint output covariance
    rng = np.random.default_rng(300 + seed)
    noise, inp = random_models(rng, n_s=3, n_xi=2, n_y=2, n_z=2,
                               rho_A=float(rng.uniform(1.05, 1.4) if seed % 2
                                           else rng.uniform(0.3, 0.95)))
    ch = rc.Channel(H=np.eye(2) + 0.3 * rng.normal(size=(2, 2)), kappa=1.0)
    n = int(rng.integers(2, 13))
    H = ch.H
    K_Y = joint_output_covariance(
        block_diag(inp.F, noise.A), block_diag(inp.G, noise.B),
        np.hstack([H @ inp.Gamma, noise.C]), np.hstack([H @ inp.D, noise.N]),
        block_diag(inp.K_Xi1, noise.K_S1), block_diag(inp.K_Z, noise.K_W), n)
    K_V = joint_output_covariance(noise.A, noise.B, noise.C, noise.N,
                                  noise.K_S1, noise.K_W, n)
    schur_Y = innovations_covariances(K_Y, 2)
    schur_V = innovations_covariances(K_V, 2)

    res = rc.finite_n_rate((noise, inp), ch, n)
    assert_close_rel(res.K_I, schur_Y[-1])
    assert_close_rel(res.K_Ihat, schur_V[-1])
    for t in range(n):
        assert abs(res.trace[t, 1] - logdet_pd(schur_Y[t])) <= 1e-9
        assert abs(res.trace[t, 2] - logdet_pd(schur_V[t])) <= 1e-9

    batch = rc.sample_paths(rc.build_augmented(noise, inp, ch), horizon=n, paths=2,
                            master_seed=seed)
    K_I_seq = rc.kalman_run(batch).K_I_seq
    assert len(K_I_seq) == n
    for t in range(n):
        assert_close_rel(K_I_seq[t], schur_Y[t])


def drifting_state_schedule():
    """Noise with n_s = 2 and an input with n_xi = 1, every block moving with t."""
    return drifting_schedule(*random_models(np.random.default_rng(7), n_s=2, n_xi=1,
                                            rho_A=0.9, rho_F=0.6))


def drifting_schedule(noise_0, inp_0):
    """The pair with every block of both models moving at every step."""

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


def stepped_reference(schedule, channel, n):
    """finite_n_rate's trace columns and per-step matrices by a loop of public one-step calls.

    Each step writes its models into the joint system and moves Sigma, Pi
    and P by ``dre_step`` and ``lyap_step``; K and the power are formed here.
    Returns the (n, 5) trace and, per step, (Sigma, Pi, P, K_I, K_Ihat)
    entering it.
    """
    noise, inp = schedule.noise_at(1), schedule.input_at(1)
    system = rc.build_augmented(noise, inp, channel)
    Sigma, Pi, P = noise.K_S1, system.K_Theta1, inp.K_Xi1
    columns, matrices = [], []
    for t in range(1, n + 1):
        noise, inp = schedule.noise_at(t), schedule.input_at(t)
        system._update(noise, inp)
        K_Ihat = noise.R + noise.C @ Sigma @ noise.C.T
        K_I = system.Rhat + system.Chat @ Pi @ system.Chat.T
        power = np.trace(inp.Gamma @ P @ inp.Gamma.T) + np.trace(inp.D @ inp.K_Z @ inp.D.T)
        columns.append((logdet_pd(K_I), logdet_pd(K_Ihat), power))
        matrices.append((Sigma, Pi, P, K_I, K_Ihat))
        Sigma, Pi = rc.dre_step(system.noise_quad, Sigma), rc.dre_step(system, Pi)
        P = rc.lyap_step(inp.F, inp.G, inp.K_Z, P)
    ld_I, ld_hat, power = np.array(columns).T
    t = np.arange(1, n + 1)
    trace = np.column_stack([t, ld_I, ld_hat,
                             np.cumsum(np.maximum(0.0, ld_I - ld_hat)) / (2 * t),
                             np.cumsum(power) / t])
    return trace, matrices


def switching_schedule(noise, inp, start):
    """The pair, with the noise changed at steps start to start+2 and the input one step later."""
    other_noise, other_inp = replace(noise, A=0.5 * noise.A), replace(inp, D=2.0 * inp.D)
    return rc.CoefficientSchedule(
        noise_at=lambda t: other_noise if start <= t < start + 3 else noise,
        input_at=lambda t: other_inp if start < t <= start + 3 else inp,
        noise_limit=noise, input_limit=inp)


def schedule_of(kind, noise, inp, start):
    """The constant pair, the pair switching at ``start`` or the pair drifting at every step."""
    if kind == "switching":
        return switching_schedule(noise, inp, start)
    return drifting_schedule(noise, inp) if kind == "drifting" else rc.constant_schedule(noise, inp)


def assert_rel(got, want, rtol=1e-12):
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


# joint state sizes on both sides of the chunk rule; stable and unstable noise
@pytest.mark.parametrize("n_s, n_xi, rho_A", [(1, 1, 0.7), (1, 1, 1.4), (2, 2, 1.4), (3, 3, 0.9),
                                              (6, 6, 1.4)])
@pytest.mark.parametrize("kind", ["pair", "switching", "drifting"])
def test_chunked_horizon_matches_a_loop_of_dre_steps(n_s, n_xi, rho_A, kind):
    noise, inp = random_models(np.random.default_rng(n_s * 10 + int(10 * rho_A)), n_s=n_s,
                               n_xi=n_xi, n_y=2, n_z=2, rho_A=rho_A)
    channel = rc.Channel(H=[[1.0, 0.3], [-0.2, 0.8]], kappa=1.0)
    # the step cap, where every chunk ends whether its pairs repeat or drift,
    # and a horizon of three chunks
    cap = rc.riccati._chunk_steps(n_s + n_xi)
    horizons = sorted({max(1, cap - 1), cap, cap + 1, 2 * cap + 5})
    schedule = schedule_of(kind, noise, inp, cap // 2 + 1)
    trace, matrices = stepped_reference(schedule, channel, horizons[-1])
    for n in horizons:
        res = rc.finite_n_rate(schedule, channel, n)
        for column in range(5):
            assert_rel(res.trace[:, column], trace[:n, column])
        for got, want in zip((res.Sigma_star, res.Pi_star, res.P_star, res.K_I, res.K_Ihat),
                             matrices[n - 1]):
            assert_rel(got, want)
    if kind != "pair":
        return
    system = rc.build_augmented(noise, inp, channel)
    for quad, index in ((system.noise_quad, 0), (system, 1)):
        for n in horizons:
            run = rc.dre_run(quad, matrices[0][index], n)
            assert len(run) == n
            for got, step in zip(run, matrices):
                assert_rel(got, step[index])


def test_a_step_whose_K_does_not_factor_is_named():
    # at step 7 the noise is C = 0, N = 0: R = 0 and K_Ihat = 0; every
    # chunked step before it computes
    noise, inp = random_models(np.random.default_rng(3), n_s=1, n_xi=1, n_y=1)
    silent = replace(noise, C=[[0.0]], N=np.zeros((1, 2)))
    schedule = rc.CoefficientSchedule(noise_at=lambda t: silent if t == 7 else noise,
                                      input_at=lambda t: inp, noise_limit=noise,
                                      input_limit=inp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError,
                           match="^step 7: K_Ihat is not positive definite$"):
            rc.finite_n_rate(schedule, unit_channel(), 40)


@pytest.mark.parametrize("kind", ["pair", "switching", "drifting"])
def test_finite_chunks_are_scanned_without_plain_steps(monkeypatch, kind):
    # a scan that fails falls back to plain steps with the same numbers, so
    # only a count of the plain steps shows that the chunks were scanned;
    # fresh arrays are zero-filled, so a slot left unwritten has an Rhat
    # without a Cholesky factor and would fail its chunk's scan
    noise, inp = random_models(np.random.default_rng(4), n_s=1, n_xi=1, n_y=1)
    schedule = schedule_of(kind, noise, inp, 5)
    calls = []
    monkeypatch.setattr(rc.riccati, "_predict", lambda *a, **k: calls.append(a))
    empty = np.empty

    def zero_empty(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.fill(0)
        return out

    monkeypatch.setattr(np, "empty", zero_empty)
    # past the step cap, so a repeated pair opens a second chunk too
    n = rc.riccati._chunk_steps(2) + 5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = rc.finite_n_rate(schedule, unit_channel(), n)
    assert not calls and np.isfinite(res.trace).all()


def test_each_callback_runs_once_per_step_and_a_chunk_frees_its_models(monkeypatch):
    # a joint state of 8 ends a chunk at 256 steps, whatever its pairs: the
    # noise is new at each of steps 2 to 300 and the step-1 noise after them,
    # so chunks end at steps 256 and 512, each carrying its 257th pair,
    # already fetched, into the next
    noise, inp = random_models(np.random.default_rng(8), n_s=4, n_xi=4)
    cap = rc.riccati._chunk_steps(8)
    n = 2 * cap + 10
    calls, made, alive = {"noise": [], "input": []}, [], []

    def noise_at(t):
        calls["noise"].append(t)
        # the models made for later steps still alive; the step-1 pair is the system's own
        alive.append(sum(ref() is not None for ref in made))
        if not 1 < t <= 300:
            return noise
        model = replace(noise, A=noise.A * (1.0 + 0.2 * np.cos(t)))
        made.append(weakref.ref(model))
        return model

    def input_at(t):
        calls["input"].append(t)
        return inp

    chunks, run_chunk = [], rc.riccati._run_chunk

    def recording(system, pairs, index, covs, first, gains):
        chunks.append((first, len(index)))
        return run_chunk(system, pairs, index, covs, first, gains)

    monkeypatch.setattr(rc.riccati, "_run_chunk", recording)
    schedule = rc.CoefficientSchedule(noise_at=noise_at, input_at=input_at, noise_limit=noise,
                                      input_limit=inp)
    res = rc.finite_n_rate(schedule, unit_channel(), n)
    assert np.isfinite(res.trace).all()
    assert calls == {"noise": list(range(1, n + 1)), "input": list(range(1, n + 1))}
    assert chunks == [(1, cap), (cap + 1, cap), (2 * cap + 1, 10)]
    # the first chunk holds the models of steps 2 to 256 until it ends; when
    # step 258 is fetched only step 257's, the second chunk's first, is alive
    assert max(alive) == alive[cap] == cap - 1 and alive[cap + 1] == 1


def test_a_drifting_schedule_is_stacked_as_one_chunk(monkeypatch):
    # every step of A_t = 0.5 + 2^-t is a new pair; at a joint state of 1 a
    # chunk runs 2,048 steps, so 2,000 steps are one stacked chunk
    stacks, stacked = [], rc.models.JointSystem._stacked

    def counting(self, pairs):
        stacks.append(len(pairs))
        return stacked(self, pairs)

    monkeypatch.setattr(rc.models.JointSystem, "_stacked", counting)
    res = rc.finite_n_rate(geometric_schedule(), unit_channel(), 2000)
    assert np.isfinite(res.trace).all()
    assert stacks == [2000]


def test_a_failing_step_is_named_before_a_later_shape_change():
    # K_Ihat fails at step 7 and the noise changes shape at step 9, both
    # within one chunk: the earlier step is named
    noise, inp = random_models(np.random.default_rng(3), n_s=1, n_xi=1, n_y=1)
    silent = replace(noise, C=[[0.0]], N=np.zeros((1, 2)))
    wider = rc.NoiseModel(A=np.eye(2) * 0.5, B=np.eye(2), C=[[1.0, 0.0]], N=[[0.0, 1.0]],
                          K_W=np.eye(2))
    schedule = rc.CoefficientSchedule(
        noise_at=lambda t: silent if t == 7 else wider if t >= 9 else noise,
        input_at=lambda t: inp, noise_limit=noise, input_limit=inp)
    with pytest.raises(np.linalg.LinAlgError,
                       match="^step 7: K_Ihat is not positive definite$"):
        rc.finite_n_rate(schedule, unit_channel(), 40)
    # without the failing step, the shape change is named
    shape_change = replace(schedule, noise_at=lambda t: wider if t >= 9 else noise)
    with pytest.raises(ValueError, match="^step 9: model dimensions changed"):
        rc.finite_n_rate(shape_change, unit_channel(), 40)

    # a callback that raises any error runs the steps before it first
    def raising_at(step, schedule):
        def noise_at(t):
            if t == step:
                raise TypeError("no model")
            return schedule.noise_at(t)
        return replace(schedule, noise_at=noise_at)

    with pytest.raises(ValueError, match="^step 9: model dimensions changed"):
        rc.finite_n_rate(raising_at(10, shape_change), unit_channel(), 40)
    with pytest.raises(np.linalg.LinAlgError,
                       match="^step 7: K_Ihat is not positive definite$"):
        rc.finite_n_rate(raising_at(9, schedule), unit_channel(), 40)
    # with no failure before it, the callback's error passes through unchanged
    with pytest.raises(TypeError, match="^no model$"):
        rc.finite_n_rate(raising_at(9, shape_change), unit_channel(), 40)

    # a callback's ValueError is named by its step, after the steps before it
    def ragged_at(step, schedule):
        def noise_at(t):
            if t == step:
                return rc.NoiseModel(A=[[0.5, 0.0], [0.5]], B=1.0, C=1.0, N=1.0, K_W=1.0)
            return schedule.noise_at(t)
        return replace(schedule, noise_at=noise_at)

    with pytest.raises(ValueError, match="^step 9: A is not rectangular$"):
        rc.finite_n_rate(ragged_at(9, shape_change), unit_channel(), 40)
    with pytest.raises(np.linalg.LinAlgError,
                       match="^step 7: K_Ihat is not positive definite$"):
        rc.finite_n_rate(ragged_at(9, schedule), unit_channel(), 40)

    # a non-finite model is named by its step, after the steps before it
    nan_at_9 = non_finite(noise)
    for named, noise_at in ((7, lambda t: silent if t == 7 else nan_at_9 if t == 9 else noise),
                            (9, lambda t: nan_at_9 if t == 9 else noise)):
        error = np.linalg.LinAlgError if named == 7 else ValueError
        with pytest.raises(error, match=f"^step {named}: "):
            rc.finite_n_rate(replace(schedule, noise_at=noise_at), unit_channel(), 40)


def test_steps_whose_log_dets_are_nan_add_nothing_to_the_rate():
    # an unstable mode that the noise drives and the output does not see:
    # Sigma's unseen block overflows and 0 * inf makes both log dets NaN from
    # step 53 on; each such step's rate term is clamped to 0, as a per-step
    # max(0.0, nan) does
    noise = rc.NoiseModel(A=np.diag([1e3, 0.5]), B=np.hstack([np.eye(2), np.zeros((2, 1))]),
                          C=[[0.0, 1.0]], N=[[0.0, 0.0, 1.0]], K_W=np.eye(3), K_S1=np.eye(2))
    with np.errstate(all="ignore"):
        res = rc.finite_n_rate((noise, unit_iid_input()), unit_channel(), 200)
    log_dets = res.trace[:, 1:3]
    assert np.isfinite(log_dets[:52]).all() and np.isnan(log_dets[52:]).all()
    terms = np.maximum(0.0, log_dets[:52, 0] - log_dets[:52, 1])
    assert res.rate_nats == pytest.approx(terms.sum() / 400, rel=1e-12)
    assert res.rate_nats == pytest.approx(0.05218266241296324, rel=1e-12)
    assert res.diagnostics["nan_steps"] == 148
    assert res.diagnostics["clamped_steps"] == np.count_nonzero(log_dets[:52, 0] < log_dets[:52, 1])


def test_a_step_whose_Rhat_does_not_factor_is_taken_as_a_plain_step():
    # at step 5 the noise has N = 0, so R = 0 has no Cholesky factor and its
    # step has no cross-term-free form; K = C Sigma C^T is positive definite,
    # and the chunk goes by plain prediction steps
    noise, inp = random_models(np.random.default_rng(5), n_s=2, n_xi=1, n_y=1)
    noiseless = replace(noise, N=np.zeros((1, 2)))
    schedule = rc.CoefficientSchedule(noise_at=lambda t: noiseless if t == 5 else noise,
                                      input_at=lambda t: inp, noise_limit=noise,
                                      input_limit=inp)
    trace, _ = stepped_reference(schedule, unit_channel(), 30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = rc.finite_n_rate(schedule, unit_channel(), 30)
    for column in range(5):
        assert_rel(res.trace[:, column], trace[:, column])


def test_a_chunk_whose_scan_overflows_is_taken_by_plain_steps():
    # an unstable mode that no noise drives but the output sees: the chunk's
    # composed maps grow like a^(2L) and overflow for a = 1e3, while each
    # step's Sigma stays finite
    noise = rc.NoiseModel(A=np.diag([1e3, 0.5]), B=[[0.0, 0.0], [1.0, 0.0]],
                          C=[[1.0, 1.0]], N=[[0.0, 1.0]], K_W=np.eye(2), K_S1=np.eye(2))
    schedule = rc.constant_schedule(noise, unit_iid_input())
    trace, matrices = stepped_reference(schedule, unit_channel(), 300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = rc.finite_n_rate(schedule, unit_channel(), 300)
    for column in range(5):
        assert_rel(res.trace[:, column], trace[:, column], rtol=1e-9)
    assert_rel(res.Sigma_star, matrices[-1][0], rtol=1e-9)


def two_state_noise():
    # n_w = n_y = 1, so scalar blocks broadcast into its slots
    return rc.NoiseModel(A=np.diag([0.5, 0.3]), B=[[1.0], [0.5]], C=[[1.0, 1.0]], N=[[1.0]],
                         K_W=[[1.0]])


def stateful_input(n_xi):
    return rc.InputModel(F=0.5 * np.eye(n_xi), G=np.ones((n_xi, 1)),
                         Gamma=np.ones((1, n_xi)) / n_xi, D=[[1.0]], K_Z=[[1.0]])


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


@pytest.mark.parametrize("n_xi", [6, 8], ids=["scanned", "plain"])
@pytest.mark.parametrize("shrinks", [True, False], ids=["shrinks", "grows"])
def test_schedule_rejects_a_shape_change_at_a_chunk_start(n_xi, shrinks):
    # the noise changes shape at the first step of a chunk, so every pair of
    # that chunk shares the new shapes; scalar blocks would broadcast into the
    # two-state slots, so only a check against the system's shapes sees them
    before, after = (two_state_noise(), scalar_noise(0.5))[::1 if shrinks else -1]
    inp = stateful_input(n_xi)
    switch = rc.riccati._chunk_steps(n_xi + before.n_s) + 1
    sched = rc.CoefficientSchedule(
        noise_at=lambda t: before if t < switch else after, input_at=lambda t: inp,
        noise_limit=before, input_limit=inp)
    with pytest.raises(ValueError, match=f"^step {switch}: model dimensions changed"):
        rc.finite_n_rate(sched, unit_channel(), switch + 4)


def non_finite(model, name=None):
    # the model with its declared array ``name`` (by default the first, A or F) all NaN
    name = name or model._ARRAYS[0][0]
    return replace(model, **{name: np.full_like(getattr(model, name), np.nan)})


# (side, step, what the callback returns there: a str, an ndarray or a list
# (unhashable, so named before the pair is grouped), or the model with
# that declared array all NaN, the input's state size): a joint state of 2
# holds a repeated pair for up to 2,048 steps, so step 600 is the second
# distinct pair of the first chunk and step 2100 is in the second chunk, and
# one of 9 takes plain steps
SIDES = (("noise", rc.NoiseModel), ("input", rc.InputModel))
NO_MODEL_STEPS = (3, 600, 2100)
NOT_MODELS = {"str": "x", "ndarray": np.eye(1), "list": [[1.0]]}
NO_MODEL_CASES = [
    *(pytest.param(side, t, "str", 1, id=f"{side}-{t}") for side, _ in SIDES
      for t in NO_MODEL_STEPS),
    *(pytest.param(side, t, returned, 1, id=f"{side}-{t}-{returned}") for side, _ in SIDES
      for t in NO_MODEL_STEPS for returned in ("ndarray", "list")),
    *(pytest.param(side, t, name, 1, id=f"{side}-{t}-non-finite" + (f"-{name}" if i else ""))
      for side, kind in SIDES for i, (name, _, _) in enumerate(kind._ARRAYS)
      for t in NO_MODEL_STEPS),
    *(pytest.param(side, 3, kind._ARRAYS[0][0], 8, id=f"{side}-3-non-finite-plain")
      for side, kind in SIDES),
]


@pytest.mark.parametrize("side, t, returned, n_xi", NO_MODEL_CASES)
def test_a_callback_that_returns_no_model_is_named(side, t, returned, n_xi):
    # only the step-1 models are validated, so each later pair is checked to
    # be models where it first enters its chunk; a non-finite entry in any
    # declared array makes a scanned chunk's results non-finite, and the plain
    # step that first writes its model names it
    noise, inp = random_models(np.random.default_rng(3), n_s=1, n_xi=n_xi, n_y=1)
    models = {"noise": noise, "input": inp}
    bad = NOT_MODELS[returned] if returned in NOT_MODELS else non_finite(models[side], returned)
    at = {name: (lambda s, model=model: model) for name, model in models.items()}
    at[side] = lambda s: bad if s == t else models[side]
    sched = rc.CoefficientSchedule(noise_at=at["noise"], input_at=at["input"],
                                   noise_limit=noise, input_limit=inp)
    if returned in NOT_MODELS:
        kind = {"noise": "a NoiseModel", "input": "an InputModel"}[side]
        error, message = TypeError, f"^step {t}: {side}_at returned {returned}, not {kind}$"
    else:
        error = ValueError
        message = f"^step {t}: {side}_at returned a model with non-finite entries$"
    with pytest.raises(error, match=message):
        rc.finite_n_rate(sched, unit_channel(), max(700, t + 100))


def test_explicit_initial_covariances_enter_step_one():
    _, inp, ch = colored_setup()
    # iid input has no xi state, so the augmented state is S alone:
    # K_I_1 = K_S1 + 2 and K_Ihat_1 = K_S1 + 1 for this model
    res = rc.finite_n_rate((scalar_noise(0.5, k_s1=2.0), inp), ch, 1)
    assert abs(res.trace[0, 1] - np.log(4.0)) < 1e-14
    assert abs(res.trace[0, 2] - np.log(3.0)) < 1e-14
    assert abs(res.rate_nats - 0.5 * np.log(4.0 / 3.0)) < 1e-14


@pytest.mark.parametrize("rho_A", [0.7, 1.2, 1.4])
def test_a_wider_initial_noise_law_does_not_raise_the_rate(rho_A):
    # S_1 ~ N(0, K_S1 + G G^T) is S_1 ~ N(0, K_S1) plus an independent
    # N(0, G G^T) that reaches Y^n only through the noise, so by data
    # processing I(X^n; Y^n), the unclamped sum of the log-det
    # differences, cannot rise; the rate's uniformity over the initial
    # laws leans on it
    def unclamped(noise, inp):
        trace = rc.finite_n_rate((noise, inp), rc.Channel(H=np.eye(2)), 50).trace
        return (trace[:, 1] - trace[:, 2]).sum() / (2.0 * 50)

    for seed in range(10):
        rng = np.random.default_rng(seed)
        noise, inp = random_models(rng, n_s=3, n_xi=2, n_y=2, n_z=2, rho_A=rho_A)
        G = rng.standard_normal((3, 3))
        rate = unclamped(noise, inp)
        wider = unclamped(replace(noise, K_S1=noise.K_S1 + G @ G.T), inp)
        assert wider <= rate + 1e-12 * max(1.0, abs(rate)), (seed, rate, wider)


@pytest.mark.parametrize("k_s1, k_xi1, message", [
    (-0.5, None, "not positive semidefinite"),
    (0.0, [[1.0, 0.5], [0.0, 1.0]], "not symmetric"),
    (-5.0, None, "not positive semidefinite"),
], ids=["negative", "asymmetric", "far_negative"])
def test_initial_covariances_must_be_symmetric_psd(k_s1, k_xi1, message):
    _, inp, ch = colored_setup()
    if k_xi1 is not None:
        # an inert 2-state input carries the 2 x 2 initial law
        inp = rc.InputModel(F=np.zeros((2, 2)), G=np.zeros((2, 1)),
                            Gamma=np.zeros((1, 2)), D=[[1.0]], K_Z=[[1.0]],
                            K_Xi1=k_xi1)
    with pytest.raises(ValueError, match=message):
        rc.finite_n_rate((scalar_noise(0.5, k_s1=k_s1), inp), ch, 3)


def test_bad_horizon_rejected():
    noise, inp, ch = colored_setup()
    with pytest.raises(ValueError):
        rc.finite_n_rate((noise, inp), ch, 0)


@pytest.mark.parametrize("name, call", [
    ("n", lambda noise, inp, ch: rc.finite_n_rate((noise, inp), ch, 2.7)),
    ("n_max", lambda noise, inp, ch: rc.case2_rate(rc.constant_schedule(noise, inp), ch, 4.5)),
    ("dims", lambda noise, inp, ch: rc.optimize_input(noise, ch, (1.5, 1))),
    ("dims", lambda noise, inp, ch: rc.optimize_input(noise, ch, (1, np.nan))),
], ids=["n", "n_max", "dims-n_xi", "dims-n_z"])
def test_counts_that_are_not_integers_are_named(name, call):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        call(*colored_setup())


@pytest.mark.parametrize("call, message", [
    (lambda noise, inp, ch: rc.finite_n_rate((noise, noise), ch, 3),
     "models must be a CoefficientSchedule or a (NoiseModel, InputModel) pair"),
    (lambda noise, inp, ch: rc.finite_n_rate(noise, ch, 3),
     "models must be a CoefficientSchedule or a (NoiseModel, InputModel) pair"),
    (lambda noise, inp, ch: rc.case2_rate((noise, inp), ch, 4),
     "schedule must be a CoefficientSchedule"),
], ids=["finite-n-pair-of-noises", "finite-n-lone-noise", "case2-pair"])
def test_models_of_the_wrong_type_raise_type_error(call, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call(*colored_setup())


def test_a_channel_without_outputs_carries_nothing_at_every_horizon():
    # n_y = 0: every innovations covariance is 0 x 0, with log det 0, a
    # stack of them in a scanned chunk; the input still spends its power
    noise = rc.NoiseModel(A=0.5, B=1.0, C=np.zeros((0, 1)), N=np.zeros((0, 1)), K_W=1.0)
    inp, ch = unit_iid_input(), rc.Channel(H=np.zeros((0, 1)), kappa=1.0)
    assert rc.asymptotic_rate(noise, inp, ch).rate_nats == 0.0
    for n in (1, 5):
        res = rc.finite_n_rate((noise, inp), ch, n)
        assert (res.rate_nats, res.power) == (0.0, 1.0)
        assert res.K_I.shape == res.K_Ihat.shape == (0, 0)


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


def assert_matches_the_spectra(noise, inp, ch):
    res = rc.asymptotic_rate(noise, inp, ch)
    assert res.feasibility.member_of_P_infinity
    *want, _ = spectral_logdets(noise, inp, ch)
    got = (logdet_pd(res.K_I), logdet_pd(res.K_Ihat), res.rate_nats)
    for name, value, reference in zip(("log det K_I", "log det K_Ihat", "rate"), got, want):
        assert abs(value - reference) <= 1e-12 * max(1.0, abs(reference)), name


@pytest.mark.parametrize("a", [0.5, 1.5, 0.999, 1.001])
def test_scalar_rates_match_the_spectral_integrals(a):
    assert_matches_the_spectra(scalar_noise(a), unit_iid_input(), unit_channel())


@pytest.mark.parametrize("rho_A", [0.999, 1.001])
@pytest.mark.parametrize("seed", range(6))
def test_near_marginal_rates_match_the_spectral_integrals(seed, rho_A):
    # a noise pole 1e-3 inside or outside the unit circle, where the Riccati
    # solve converges slowest and the oracle needs its finest grid
    noise, inp = random_models(np.random.default_rng(seed), n_s=1 + seed % 4, n_xi=1 + seed % 3,
                               n_y=1 + seed % 2, n_z=1 + seed % 2, rho_A=rho_A)
    assert_matches_the_spectra(noise, inp, rc.Channel(H=np.eye(1 + seed % 2), kappa=1.0))


@given(seed=st.integers(0, 2**32 - 1), n_s=st.integers(1, 4), n_xi=st.integers(1, 3),
       n_y=st.integers(1, 2), n_z=st.integers(1, 2), rho_A=st.sampled_from([0.6, 0.9, 1.2, 1.5]))
def test_asymptotic_rates_match_the_spectral_integrals(seed, n_s, n_xi, n_y, n_z, rho_A):
    # stable and unstable MIMO noise, against Kolmogorov-Szego and the unstable-pole term
    noise, inp = random_models(np.random.default_rng(seed), n_s=n_s, n_xi=n_xi, n_y=n_y,
                               n_z=n_z, rho_A=rho_A)
    assert_matches_the_spectra(noise, inp, rc.Channel(H=np.eye(n_y), kappa=1.0))


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


def test_converged_at_a_nonstabilizing_fixed_point_is_visible():
    # C = 0 hides the unstable mode: the doubling stops at the fixed point
    # P = 0, whose closed loop is A itself; the verdict, the radius and the
    # feasibility flags all show it
    noise = rc.NoiseModel(A=1.5, B=1.0, C=0.0, N=1.0, K_W=1.0)
    sol = rc.are_solve(rc.to_quadruple(noise))
    assert sol.spectral_radius == pytest.approx(1.5, abs=1e-12)
    assert not sol.converged
    res = rc.asymptotic_rate(noise, unit_iid_input(), unit_channel())
    assert res.diagnostics["sigma_spectral_radius"] == pytest.approx(1.5, abs=1e-12)
    assert res.diagnostics["sigma_converged"] is False
    assert res.feasibility.noise_detectable is False
    assert not res.feasibility.member_of_P_infinity


def test_waterfilling_rejects_bad_R():
    with pytest.raises(ValueError, match="R not positive definite"):
        rc.waterfilling_oracle([[1.0]], [[0.0]], 1.0)
    with pytest.raises(ValueError, match="kappa negative"):
        rc.waterfilling_oracle([[1.0]], [[1.0]], -1.0)
    # each malformed matrix is named, before any factorization
    with pytest.raises(ValueError, match="H has 3 rows, expected 2"):
        rc.waterfilling_oracle(np.ones((3, 1)), np.eye(2), 1.0)
    with pytest.raises(ValueError, match=r"R not square \(shape \(1, 2\)\)"):
        rc.waterfilling_oracle([[1.0]], [[1.0, 0.0]], 1.0)
    with pytest.raises(ValueError, match="H contains non-finite entries"):
        rc.waterfilling_oracle([[np.inf]], [[1.0]], 1.0)
    with pytest.raises(ValueError, match="R contains non-finite entries"):
        rc.waterfilling_oracle([[1.0]], [[np.nan]], 1.0)
    # a non-symmetric R is named, not symmetrized into another channel's R
    with pytest.raises(ValueError, match="^R not symmetric$"):
        rc.waterfilling_oracle(np.eye(2), [[2.0, 0.5], [0.0, 2.0]], 1.0)


@pytest.mark.parametrize("kappa", [np.nan, np.inf])
def test_waterfilling_rejects_nonfinite_kappa(kappa):
    with pytest.raises(ValueError, match="kappa not finite"):
        rc.waterfilling_oracle([[1.0]], [[1.0]], kappa)


# ------------------------------------------------------------ optimize_input


@pytest.mark.parametrize("kappa, violation", [(-1.0, r"kappa negative \(-1\.0\)"),
                                              (np.nan, "kappa not finite")])
def test_optimize_names_an_invalid_budget_before_the_search(recwarn, kappa, violation):
    # the search space takes the square root of the budget, so the noise and
    # then the channel are checked before it, in build_augmented's order
    cfg = rc.OptimizerConfig(starts=1, seed=0, maxiter=2)
    with pytest.raises(ValueError, match=f"^channel model invalid: {violation}$"):
        rc.optimize_input(scalar_noise(1.5), unit_channel(kappa), (1, 1), cfg)
    bad_noise = rc.NoiseModel(A=1.5, B=1.0, C=1.0, N=1.0, K_W=0.0)
    with pytest.raises(ValueError, match="^noise model invalid: K_W not positive definite"):
        rc.optimize_input(bad_noise, unit_channel(kappa), (1, 1), cfg)
    assert [str(w.message) for w in recwarn] == []


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


def test_optimize_respects_warm_start_witness(monkeypatch):
    noise, inp, ch = colored_setup()
    cfg = rc.OptimizerConfig(starts=2, seed=3, maxiter=10,
                             warm_starts=(inp,))
    _, res = rc.optimize_input(noise, ch, (1, 1), cfg)
    # the warm start is evaluated as-is, so its rate is a floor
    assert res.rate_nats >= HALF_LN2_5 - 1e-9
    # a witness of the search's own dims with a rank-deficient K_Z is
    # converted by Lyapunov balancing (its K_Z factor absorbed into G and
    # D) and searched from, and stays a floor
    calls = count_minimize(monkeypatch)
    witness = rc.InputModel(F=[[0.5]], G=[[1.0, 0.0]], Gamma=[[0.3]],
                            D=[[1.0, 0.0]], K_Z=np.diag([0.8, 0.0]))
    floor = rc.asymptotic_rate(noise, witness, ch)
    assert floor.power <= 1.0
    _, res = rc.optimize_input(noise, ch, (1, 2), replace(cfg, warm_starts=(witness,)))
    # the witness and one structured start: with n_x = 1 the two structured starts coincide
    assert calls["minimize"] == 2
    assert res.rate_nats >= floor.rate_nats - 1e-9


def same_input(a, b):
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("F", "G", "Gamma", "D", "K_Z"))


def test_optimize_is_deterministic_for_a_fixed_config(monkeypatch):
    search_only(monkeypatch)
    cfg = rc.OptimizerConfig(starts=3, seed=0, maxiter=15)
    (m1, r1), (m2, r2) = (rc.optimize_input(scalar_noise(1.5), unit_channel(), (1, 1), cfg)
                          for _ in range(2))
    assert same_input(m1, m2)
    assert (r1.rate_nats, r1.power) == (r2.rate_nats, r2.power)
    first, second = (rc.sweep_kappa(scalar_noise(1.5), unit_channel(), [0.5, 1.0], (1, 1), cfg)
                     for _ in range(2))
    for p, q in zip(first, second, strict=True):
        assert (p.kappa, p.rate_nats, p.power, p.feasible) == (q.kappa, q.rate_nats, q.power,
                                                               q.feasible)
        assert same_input(p.input, q.input)


def test_candidate_evaluations_are_not_validated_again(monkeypatch):
    # the models are checked on entry (noise, the zero input and channel as
    # the system is built, before the search space) and in each final
    # evaluation (asymptotic_power once, asymptotic_rate three times), never
    # per L-BFGS objective evaluation
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


def search_only(monkeypatch):
    # the closed-form input patched out, so a full-support subject is searched as before it
    monkeypatch.setattr(rc.capacity, "_waterfilling_input", lambda *a: None)


def count_minimize(monkeypatch):
    # optimize_input looks scipy.optimize.minimize up at each start
    import scipy.optimize
    calls = {"minimize": 0}

    def counted(*args, _f=scipy.optimize.minimize, **kwargs):
        calls["minimize"] += 1
        return _f(*args, **kwargs)
    monkeypatch.setattr(scipy.optimize, "minimize", counted)
    return calls


def test_optimize_infeasible_noise_raises(monkeypatch):
    # an undetectable noise pair is decided before any start is searched
    calls = count_minimize(monkeypatch)
    noise = rc.NoiseModel(A=[[1.5]], B=[[1.0]], C=[[0.0]], N=[[1.0]],
                          K_W=[[1.0]])
    cfg = rc.OptimizerConfig(starts=2, seed=0, maxiter=5)
    with pytest.raises(RuntimeError, match="feasible set not reached: .*not detectable"):
        rc.optimize_input(noise, unit_channel(), (1, 1), cfg)
    assert calls["minimize"] == 0


def gate_population():
    """Noise models on both sides of the noise-only conditions of P-infinity."""
    rng = np.random.default_rng(20261018)
    out = [(scalar_noise(a), unit_channel()) for a in (0.5, 1.5, 2.0, 3.0)]
    out.append((rc.NoiseModel(A=[[1.5]], B=[[1.0]], C=[[0.0]], N=[[1.0]], K_W=[[1.0]]),
                unit_channel()))
    for i, rho in enumerate(np.linspace(0.3, 1.4, 12)):
        n_y = 1 + i % 2
        noise, _ = random_models(rng, n_s=2 + i % 2, n_y=n_y, rho_A=rho)
        channel = rc.Channel(H=np.eye(n_y), kappa=1.0)
        out.append((noise, channel))
        # the same draw unobserved: detectable only while A is stable
        out.append((replace(noise, C=np.zeros_like(noise.C)), channel))
    return out


def test_noise_gate_fires_exactly_when_the_noise_side_fails(monkeypatch):
    calls = count_minimize(monkeypatch)
    cfg = rc.OptimizerConfig(starts=1, seed=0, maxiter=1)
    fired = []
    for noise, channel in gate_population():
        n_y = channel.n_x
        ref = rc.asymptotic_rate(noise, rc.iid_input(np.eye(n_y)), channel)
        noise_fails = not (ref.feasibility.noise_detectable
                           and ref.feasibility.noise_stabilizable
                           and ref.diagnostics["sigma_converged"])
        calls["minimize"] = 0
        try:
            rc.optimize_input(noise, channel, (0, n_y), cfg)
            gated = False
        except RuntimeError as exc:
            gated = calls["minimize"] == 0
            assert str(exc).startswith("feasible set not reached")
        assert gated == noise_fails
        fired.append(gated)
    # the population covers both verdicts
    assert 0 < sum(fired) < len(fired)


def test_sweep_on_noise_no_input_repairs_searches_nothing(monkeypatch):
    calls = count_minimize(monkeypatch)
    points = rc.sweep_kappa(scalar_noise(3.0), unit_channel(), [0.5, 1.0, 2.0], (1, 1))
    assert [p.feasible for p in points] == [False] * 3
    assert all(np.isnan(p.rate_nats) for p in points)
    assert calls["minimize"] == 0


def test_optimize_edge_dims():
    # with no innovations nothing reaches the state, so every input of those
    # dims is the zero signal; with no state either, no start has anything
    # to search and no candidate is found
    cfg = rc.OptimizerConfig(starts=2, seed=0, maxiter=5)
    for dims in ((1, 0), (2, 0)):
        model, res = rc.optimize_input(scalar_noise(1.5), unit_channel(), dims, cfg)
        assert res.rate_nats == pytest.approx(0.0, abs=1e-12) and res.power == 0.0
        assert np.all(model.F == 0.0)
    with pytest.raises(RuntimeError, match="feasible set not reached: 0 of 0"):
        rc.optimize_input(scalar_noise(1.5), unit_channel(), (0, 0), cfg)


def test_an_unreachable_warm_start_is_evaluated_not_searched(monkeypatch):
    calls = count_minimize(monkeypatch)
    noise, _, ch = colored_setup()
    # G = 0: the state is unreachable, and the input is IID with power 1
    unreachable = rc.InputModel(F=[[0.5]], G=[[0.0]], Gamma=[[0.0]], D=[[1.0]], K_Z=[[1.0]])
    cfg = rc.OptimizerConfig(starts=3, seed=0, maxiter=10, warm_starts=(unreachable,))
    _, res = rc.optimize_input(noise, ch, (1, 1), cfg)
    assert calls["minimize"] == 1  # the structured start, which n_x = 1 makes one start twice
    warm = res.diagnostics["search"][2]
    assert (warm["kind"], warm["nit"], warm["status"]) == ("warm", None, None)
    assert [c["rejected"] for c in warm["candidates"]] == [None]
    assert warm["candidates"][0]["rate"] == pytest.approx(HALF_LN2_5, abs=1e-10)


def test_a_warm_start_that_raises_is_recorded_and_skipped(monkeypatch):
    # F = 1.5: the model is valid but not stable, so theta() gives None and the start
    # is not searched; its own evaluation raises, which the record keeps as the reason
    calls = count_minimize(monkeypatch)
    noise, _, ch = colored_setup()
    unstable = rc.InputModel(F=[[1.5]], G=[[1.0]], Gamma=[[1.0]], D=[[1.0]], K_Z=[[1.0]])
    assert rc.validate(unstable).ok
    cfg = rc.OptimizerConfig(starts=4, seed=0, maxiter=10, warm_starts=(unstable,))
    _, res = rc.optimize_input(noise, ch, (1, 1), cfg)
    records = res.diagnostics["search"]
    warm = records[2]
    assert (warm["kind"], warm["nit"]) == ("warm", None)
    # structured, structured, warm, random: the second structured start repeats the
    # first (n_x = 1) and the warm one is not searched, so two distinct starts are
    assert [r["repeats"] for r in records] == [None, 0, None, None]
    assert calls["minimize"] == 2
    [candidate] = warm["candidates"]
    assert candidate["rate"] is None
    assert candidate["rejected"].startswith("raised: F is not exponentially stable")
    others = [c["rate"] for r in records if r is not warm for c in r["candidates"]
              if c["rejected"] is None]
    assert res.rate_nats == max(others)


def test_a_start_that_repeats_an_earlier_one_is_searched_once(monkeypatch):
    # the bench sweep's searched budget: with n_x = 1 the flat and water-filling
    # shift-register starts are one theta0, searched once, its record copied
    calls = count_minimize(monkeypatch)
    cfg = rc.OptimizerConfig(starts=3, seed=0, maxiter=15)
    _, res = rc.optimize_input(scalar_noise(1.5), unit_channel(0.5), (1, 1), cfg)
    records = res.diagnostics["search"]
    assert calls["minimize"] == 2
    assert [r["kind"] for r in records] == ["structured", "structured", "random"]
    assert records[1] == {**records[0], "kind": "structured", "repeats": 0}
    assert records[1]["candidates"][0] is not records[0]["candidates"][0]
    assert [r["repeats"] for r in records] == [None, 0, None]
    # H = diag(1, 2) gives the two structured starts different D: all three are searched
    calls["minimize"] = 0
    _, res = rc.optimize_input(rc.memoryless_noise(np.eye(2)),
                               rc.Channel(H=np.diag([1.0, 2.0]), kappa=1.0), (1, 2), cfg)
    assert calls["minimize"] == 3
    assert [r["repeats"] for r in res.diagnostics["search"]] == [None] * 3
    # dims (1, 0) has one coordinate (Gamma), so its random starts differ and are searched;
    # dims (0, 0) has none, so nothing is searched or keyed, though every theta0 is empty
    calls["minimize"] = 0
    _, res = rc.optimize_input(scalar_noise(1.5), unit_channel(), (1, 0), cfg)
    assert calls["minimize"] == 3
    assert [r["repeats"] for r in res.diagnostics["search"]] == [None] * 3
    calls["minimize"] = 0
    zero = rc.InputModel(F=np.zeros((0, 0)), G=np.zeros((0, 0)), Gamma=np.zeros((1, 0)),
                         D=np.zeros((1, 0)), K_Z=np.zeros((0, 0)))
    _, res = rc.optimize_input(scalar_noise(1.5), unit_channel(), (0, 0),
                               replace(cfg, warm_starts=(zero,)))
    assert calls["minimize"] == 0
    assert [(r["kind"], r["repeats"], len(r["candidates"])) for r in res.diagnostics["search"]] \
        == [("warm", None, 1), ("random", None, 0), ("random", None, 0)]


def test_one_input_structured_starts_are_one_start_at_every_budget(monkeypatch):
    # with n_x = 1 the water-filling D is sqrt(kappa) itself, so at a budget where
    # the level minus the floor, (kappa + 1) - 1, rounds off kappa the two
    # shift-register starts are still byte-equal and the second repeats the first
    calls = count_minimize(monkeypatch)
    cfg = rc.OptimizerConfig(starts=3, seed=0, maxiter=15)
    assert (0.46 + 1.0) - 1.0 != 0.46
    _, res = rc.optimize_input(scalar_noise(1.5), unit_channel(0.46), (1, 1), cfg)
    records = res.diagnostics["search"]
    assert [r["kind"] for r in records] == ["structured", "structured", "random"]
    assert [r["repeats"] for r in records] == [None, 0, None]
    assert calls["minimize"] == 2


def noise_in_units(c):
    # K_W, K_Z and kappa scaled together by c describe the same channel in other units
    return rc.NoiseModel(A=0.5, B=[[1.0, 1.0]], C=1.0, N=[[1.0, 1.0]],
                         K_W=c * np.diag([2.0, 3.0]))


def test_rate_of_a_channel_in_other_units():
    # white input through the noise spectrum S_V = 5 |(z + 0.5)/(z - 0.5)|^2
    z = np.exp(2j * np.pi * (np.arange(100_000) + 0.5) / 100_000)
    spectral = 0.5 * np.mean(np.log1p(1.0 / (5.0 * np.abs((z + 0.5) / (z - 0.5)) ** 2)))
    assert spectral == pytest.approx(0.16264384571678, rel=1e-12)
    for c in (1.0, 1e8):
        result = rc.asymptotic_rate(noise_in_units(c), rc.iid_input(c), rc.Channel(H=1.0, kappa=c))
        assert result.rate_nats == pytest.approx(0.16264384571678, rel=1e-12)


def test_input_search_in_other_units():
    cfg = rc.OptimizerConfig(starts=2, seed=0, maxiter=20)
    rates = [rc.optimize_input(noise_in_units(c), rc.Channel(H=1.0, kappa=c), (1, 1), cfg)[1]
             .rate_nats for c in (1.0, 1e8)]
    assert rates[1] == pytest.approx(rates[0], rel=1e-9)


class _Captured(Exception):
    pass


def search_objective(monkeypatch, noise, channel, dims):
    """The objective optimize_input hands to L-BFGS, caught at the first start."""
    import scipy.optimize
    seen = {}

    def capture(fun, x0, **kwargs):
        seen.update(fun=fun, size=len(x0))
        raise _Captured
    monkeypatch.setattr(scipy.optimize, "minimize", capture)
    with pytest.raises(_Captured):
        rc.optimize_input(noise, channel, dims, rc.OptimizerConfig(starts=1, seed=0, maxiter=1))
    return seen["fun"], seen["size"]


@pytest.mark.parametrize("seed, n_y, rho_A", [(0, 1, 0.7), (1, 1, 1.3), (2, 2, 0.7),
                                              (3, 2, 1.3)])
def test_search_gradient_matches_central_differences(monkeypatch, seed, n_y, rho_A):
    # the adjoint gradient of -rate in input-normal coordinates, at a random
    # point, against central differences of the objective's own values
    rng = np.random.default_rng(seed)
    noise, _ = random_models(rng, n_s=2, n_y=n_y, rho_A=rho_A)
    channel = rc.Channel(H=np.eye(n_y), kappa=1.0)
    h = 1e-5
    for dims in ((0, n_y), (1, 1), (2, 1), (1, 2)):
        fun, size = search_objective(monkeypatch, noise, channel, dims)
        theta = rng.standard_normal(size)
        value, grad = fun(theta)
        assert value < 0.0  # a positive rate: the guard did not fire
        central = np.array([(fun(theta + h * e)[0] - fun(theta - h * e)[0]) / (2.0 * h)
                            for e in np.eye(size)])
        assert np.max(np.abs(central - grad)) <= 1e-6 * np.max(np.abs(grad)), dims


def search_population():
    """43 seeded problems: scalar noise at three poles, then random noise and dims."""
    out = [(scalar_noise(a), unit_channel(), (1, 1)) for a in (0.5, 1.2, 1.5)]
    for s in range(40):
        n_y = 1 + s % 2
        noise, _ = random_models(np.random.default_rng(s), n_s=2, n_xi=1, n_y=n_y,
                                 rho_A=(0.6, 1.2, 1.4)[s % 3])
        out.append((noise, rc.Channel(H=np.eye(n_y), kappa=(0.5, 1.0, 2.0)[s % 3]),
                    ((1, 1), (2, 1), (0, n_y), (1, n_y))[s % 4]))
    return out


def test_no_search_start_ends_abnormal_at_iteration_zero(monkeypatch):
    # a line search that fails at nit 0 (status 2) returns its start
    # unchanged; with finite-difference gradients 5 of the population's 172
    # runs did. The bench's sweep and two-mode case, then the population.
    search_only(monkeypatch)
    cfg = rc.OptimizerConfig(starts=3, seed=0, maxiter=15)
    results = [p.result for p in rc.sweep_kappa(scalar_noise(1.5), unit_channel(),
                                                (0.5, 1.0, 2.0), (1, 1), cfg)]
    results.append(rc.optimize_input(rc.memoryless_noise(np.eye(2)),
                                     rc.Channel(H=np.diag([1.0, 2.0]), kappa=1.0), (0, 2), cfg)[1])
    cfg = rc.OptimizerConfig(starts=4, seed=0, maxiter=30)
    results += [rc.optimize_input(noise, channel, dims, cfg)[1]
                for noise, channel, dims in search_population()]
    records = [record for res in results for record in res.diagnostics["search"]]
    kinds = [r["kind"] for r in results[2].diagnostics["search"]]
    assert kinds == ["structured"] * 2 + ["warm"] * 2
    assert len(records) == 3 + 3 + 4 + 3 + 4 * 43
    assert all(r["nit"] is not None for r in records)
    assert [r for r in records if r["status"] == 2 and r["nit"] == 0] == []
    for res in results:
        # the returned rate is the best accepted candidate of the record
        accepted = [c["rate"] for r in res.diagnostics["search"] for c in r["candidates"]
                    if c["rejected"] is None]
        assert max(accepted) == res.rate_nats


# ----------------------------------------------------- the closed-form input

# midpoints of the half circle for the water-filling oracle; the draws' poles keep
# at least 0.1 from the unit circle, so a full-support rate converges far below 1e-9
WF_GRID = 4096


def waterfilling_draw(seed, n_y, kind):
    """A noise, an invertible n_y x n_y H and the oracle's full-support threshold.

    ``kind`` is "memoryless" (n_s = 0), "stable" or "antistable" (n_s = n_y, every
    eigenvalue of A of modulus 0.2 to 0.9, or 1.15 to 1.6) or "mixed" (n_s = 2, one
    of each); each eigenvalue has a random sign, and A is similar to their diagonal.
    The threshold is the smallest budget at which the oracle's water level clears
    every noise mode: n_y max lambda - mean_w tr(H^-1 S_V H^-T).
    """
    rng = np.random.default_rng(seed)
    inside, outside = rng.uniform(0.2, 0.9, n_y), rng.uniform(1.15, 1.6, n_y)
    moduli = {"memoryless": [], "stable": inside, "antistable": outside,
              "mixed": [inside[0], outside[0]]}[kind]
    n_s, n_w = len(moduli), n_y + 1
    S = np.eye(n_s) + 0.3 * rng.normal(size=(n_s, n_s))
    A = S @ np.diag(moduli * rng.choice([-1.0, 1.0], n_s)) @ np.linalg.inv(S)
    L = 0.4 * rng.normal(size=(n_w, n_w))
    noise = rc.NoiseModel(A=A.reshape(n_s, n_s), B=rng.normal(size=(n_s, n_w)),
                          C=rng.normal(size=(n_y, n_s)),
                          N=rng.normal(size=(n_y, n_w)) + np.eye(n_y, n_w),
                          K_W=L @ L.T + np.eye(n_w))
    H = np.eye(n_y) + 0.3 * rng.normal(size=(n_y, n_y))
    modes = noise_modes(noise, H, WF_GRID)
    threshold = n_y * modes.max() - modes.sum(axis=1).mean()
    # scalar white noise has none: every positive budget has full support
    return noise, H, threshold if threshold > 1e-12 * modes.max() else 0.0


@given(seed=st.integers(0, 2**32 - 1), n_y=st.integers(1, 2),
       kind=st.sampled_from(["memoryless", "stable", "mixed", "antistable"]),
       factor=st.sampled_from([0.5, 0.8, 1.25, 2.0]))
def test_closed_form_input_reaches_the_spectral_capacity(seed, n_y, kind, factor):
    # budgets 20% or more off the threshold, where the grid's verdict is safe
    noise, H, threshold = waterfilling_draw(seed, n_y, kind)
    kappa = factor * threshold if threshold > 0.0 else factor
    channel = rc.Channel(H=H, kappa=kappa)
    rate, _, full = spectral_capacity(noise, H, kappa, WF_GRID)
    model = rc.capacity._waterfilling_input(noise, channel)
    assert (model is not None) == full
    if model is not None:
        assert (model.n_xi, model.n_z) == (noise.n_s, n_y)
        res = rc.asymptotic_rate(noise, model, channel)
        assert res.feasibility.member_of_P_infinity
        assert res.power <= kappa * (1.0 + 1e-9)
        assert abs(res.rate_nats - rate) <= 1e-9 * rate


def test_scalar_full_support_starts_above_its_threshold():
    # S_V = |z - 0.5|^2 / |z - 1.5|^2 peaks at 1 (w = 0) and averages 7/15, so the
    # water level kappa + 7/15 clears it from kappa = 1 - 7/15 = 0.5333 on
    noise, H = scalar_noise(1.5), np.eye(1)
    modes = noise_modes(noise, H, WF_GRID)
    assert modes.max() - modes.mean() == pytest.approx(1.0 - 7.0 / 15.0, abs=1e-6)
    for kappa, full in ((0.5, False), (0.6, True)):
        assert spectral_capacity(noise, H, kappa, WF_GRID)[2] is full
        model = rc.capacity._waterfilling_input(noise, unit_channel(kappa))
        assert (model is not None) is full


def test_full_support_inputs_skip_the_search(monkeypatch):
    # the bench's sweep searches only below the threshold, and its two-mode case not at all
    calls = count_minimize(monkeypatch)
    optimize, per_call = rc.capacity.optimize_input, []

    def counted(*args):
        before = calls["minimize"]
        out = optimize(*args)
        per_call.append(calls["minimize"] - before)
        return out
    monkeypatch.setattr(rc.capacity, "optimize_input", counted)
    cfg = rc.OptimizerConfig(starts=3, seed=0, maxiter=15)
    points = rc.sweep_kappa(scalar_noise(1.5), unit_channel(), (0.5, 1.0, 2.0), (1, 1), cfg)
    _, two_mode = rc.capacity.optimize_input(rc.memoryless_noise(np.eye(2)),
                                             rc.Channel(H=np.diag([1.0, 2.0]), kappa=1.0),
                                             (0, 2), cfg)
    # 2 at kappa = 0.5: of its three starts, the two structured ones coincide (n_x = 1)
    assert per_call == [2, 0, 0, 0]
    for res in [p.result for p in points[1:]] + [two_mode]:
        assert res.diagnostics["search"] == [
            dict(kind="waterfilling", nit=None, nfev=None, status=None, message=None,
                 guard_hits=0, repeats=None,
                 candidates=[{"rate": res.rate_nats, "rejected": None}])]
    # a non-square H, or dims other than (n_s, n_x), searches as before
    per_call.clear()
    rc.capacity.optimize_input(rc.memoryless_noise(np.eye(2)),
                               rc.Channel(H=[[1.0], [2.0]], kappa=1.0), (0, 1), cfg)
    for dims in ((2, 1), (1, 2), (0, 1)):
        rc.capacity.optimize_input(scalar_noise(1.5), unit_channel(), dims, cfg)
    # every case here has n_x = 1, so its two structured starts are searched once
    assert per_call == [2] * 4


@pytest.mark.parametrize("noise, channel, dims", [
    (scalar_noise(1.5), unit_channel(1.0), (1, 1)),
    (scalar_noise(1.5), unit_channel(2.0), (1, 1)),
    (rc.memoryless_noise(np.eye(2)), rc.Channel(H=np.diag([1.0, 2.0]), kappa=1.0), (0, 2))])
def test_closed_form_rates_equal_the_searched_ones(monkeypatch, noise, channel, dims):
    # the bench's full-support problems: the closed form against the search it replaces
    cfg = rc.OptimizerConfig(starts=3, seed=0, maxiter=15)
    _, closed = rc.optimize_input(noise, channel, dims, cfg)
    search_only(monkeypatch)
    _, searched = rc.optimize_input(noise, channel, dims, cfg)
    rate, _, full = spectral_capacity(noise, channel.H, channel.kappa, WF_GRID)
    assert full and closed.diagnostics["search"][0]["kind"] == "waterfilling"
    assert abs(closed.rate_nats - searched.rate_nats) <= 1e-9
    assert abs(closed.rate_nats - rate) <= 1e-9
    assert closed.power <= channel.kappa + 1e-9


def spy_are_solve(monkeypatch):
    # each capacity.are_solve call's tol and solution (None where it raised)
    calls, solve = [], rc.capacity.are_solve

    def spied(quad, **kwargs):
        calls.append([kwargs.get("tol"), None])
        calls[-1][1] = solve(quad, **kwargs)
        return calls[-1][1]
    monkeypatch.setattr(rc.capacity, "are_solve", spied)
    return calls


def test_closed_form_input_solves_its_dare_by_are_solve(monkeypatch):
    # the bench's sweep budgets at a = 1.5 (0.5 declined, 1 and 2 taken) and its
    # two-mode case: one are_solve call each, whose gain and innovations are G and K_Z
    calls = spy_are_solve(monkeypatch)
    problems = [(scalar_noise(1.5), unit_channel(kappa)) for kappa in (0.5, 1.0, 2.0)]
    problems.append((rc.memoryless_noise(np.eye(2)), rc.Channel(H=np.diag([1.0, 2.0]),
                                                                 kappa=1.0)))
    for (noise, channel), accepted in zip(problems, (False, True, True, True)):
        calls.clear()
        model = rc.capacity._waterfilling_input(noise, channel)
        assert len(calls) == 1 and calls[0][0] == rc.capacity._SEARCH_TOL
        sol = calls[0][1]
        assert sol.converged is accepted and (model is not None) is accepted
        if accepted:
            assert np.array_equal(model.G, sol.gain)
            assert np.array_equal(model.K_Z, sol.innovations)


@pytest.mark.parametrize("noise, channel, solves", [
    (rc.memoryless_noise(np.eye(2)), rc.Channel(H=[[1.0, 2.0], [0.5, 1.0]], kappa=1.0), 0),
    (scalar_noise(1.0 + 5e-10), unit_channel(1.0), 0),
    # nu = 5.1 leaves R = diag(-4.9, 5) without a Cholesky factor, inside are_solve
    (rc.memoryless_noise(np.diag([10.0, 0.1])), rc.Channel(H=np.eye(2), kappa=0.1), 1)],
    ids=["singular H", "pole near the unit circle", "R not positive definite"])
def test_closed_form_input_declines_without_raising(monkeypatch, noise, channel, solves):
    calls = spy_are_solve(monkeypatch)
    assert rc.capacity._waterfilling_input(noise, channel) is None
    assert [sol for _, sol in calls] == [None] * solves


# -------------------------------------------------------------- sweep_kappa


def test_sweep_names_a_negative_budget(recwarn):
    cfg = rc.OptimizerConfig(starts=1, seed=0, maxiter=2)
    with pytest.raises(ValueError, match=r"^channel model invalid: kappa negative \(-2\.0\)$"):
        rc.sweep_kappa(scalar_noise(1.5), unit_channel(), (1.0, -2.0), (1, 1), cfg)
    assert [str(w.message) for w in recwarn] == []


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


def test_random_starts_fill_up_to_starts_and_warm_starts_always_run(monkeypatch):
    # two structured starts; each earlier budget's solution is a warm start
    search_only(monkeypatch)
    cfg = rc.OptimizerConfig(starts=3, seed=0, maxiter=15)
    points = rc.sweep_kappa(scalar_noise(1.5), rc.Channel(H=[[1.0]]), (0.5, 1, 2, 4),
                            (1, 1), cfg)
    s, r, w = "structured", "random", "warm"
    assert [[rec["kind"] for rec in p.result.diagnostics["search"]] for p in points] == [
        [s, s, r], [s, s, w], [s, s, w, w], [s, s, w, w, w]]


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
    base = rc.asymptotic_rate(noise, inp, ch, tol=1e-13)
    T = random_transform(rng, inp.n_xi)
    Tinv = np.linalg.inv(T)
    transformed = rc.InputModel(
        F=T @ inp.F @ Tinv, G=T @ inp.G, Gamma=inp.Gamma @ Tinv,
        D=inp.D, K_Z=inp.K_Z,
        mu_Xi1=T @ inp.mu_Xi1, K_Xi1=T @ inp.K_Xi1 @ T.T,
    )
    other = rc.asymptotic_rate(noise, transformed, ch, tol=1e-13)
    assert abs(base.rate_nats - other.rate_nats) < 1e-10
    assert abs(base.power - other.power) < 1e-9


def test_diverged_joint_run_carries_its_innovations_at_the_last_finite_P():
    # the joint problem of test_converged_at_a_nonstabilizing_fixed_point_is_visible's
    # model: Q_s = 1/2 > 0 with the unstable mode unseen, so the doubling diverges
    # and stops at its last finite P
    noise = rc.NoiseModel(A=1.5, B=1.0, C=0.0, N=1.0, K_W=1.0)
    system = rc.build_augmented(noise, unit_iid_input(), unit_channel())
    sol = rc.are_solve(system)
    assert sol.residual == np.inf and not sol.converged
    assert np.isfinite(sol.P_star).all() and np.max(np.abs(sol.P_star)) > 1e100
    K = system.Rhat + system.Chat @ sol.P_star @ system.Chat.T
    np.testing.assert_array_equal(sol.innovations, 0.5 * (K + K.T))
    assert sol.logdet == pytest.approx(np.linalg.slogdet(K)[1], rel=1e-12)
    res = rc.asymptotic_rate(noise, unit_iid_input(), unit_channel())
    np.testing.assert_array_equal(res.K_I, sol.innovations)
    assert res.diagnostics["pi_converged"] is False


def test_diverged_noise_run_without_a_log_det_raises_in_asymptotic_rate():
    # the noise solve returns NaN innovations and log det here; asymptotic_rate
    # raises, naming the matrix without a Cholesky factor
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(np.linalg.LinAlgError, match="K_Ihat is not positive definite"):
            rc.asymptotic_rate(diverging_noise(1e60, 1.0), unit_iid_input(), unit_channel())


def test_solves_that_round_off_leaves_indefinite_return_unconverged():
    # the unseen unstable mode makes the doubling's P indefinite: the noise
    # problem's last prediction step then has no positive definite K, and the
    # joint problem's I + G P is singular; both solves return unconverged
    # with NaN K, so the input search and the sweep see an unreachable noise side
    noise = diverging_noise(1e10, 0.3)
    joint = rc.build_augmented(diverging_noise(1e10, 1.0), unit_iid_input(), unit_channel())
    config = rc.OptimizerConfig(starts=2, seed=0, maxiter=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for quad in (rc.to_quadruple(noise), joint):
            sol = rc.are_solve(quad)
            assert not sol.converged and sol.residual == np.inf
            assert np.isnan(sol.logdet) and np.isnan(sol.innovations).all()
        with pytest.raises(RuntimeError, match="^feasible set not reached"):
            rc.optimize_input(noise, unit_channel(), (1, 1), config)
        [point] = rc.sweep_kappa(noise, unit_channel(), (1.0,), (1, 1), config)
    assert not point.feasible and np.isnan(point.rate_nats)


def test_rates_read_the_log_dets_of_the_riccati_solutions(monkeypatch):
    # asymptotic_rate and the input search take K and log det K from are_solve;
    # a chol_logdet that raises changes none of their numbers
    search_only(monkeypatch)
    noise, channel = scalar_noise(1.5), unit_channel()
    noise2, inp2 = random_models(np.random.default_rng(4), n_s=3, n_xi=2, n_y=2, rho_A=1.2)
    config = rc.OptimizerConfig(starts=2, seed=0, maxiter=5)

    def run():
        rate = rc.asymptotic_rate(noise2, inp2, rc.Channel(H=np.eye(2), kappa=1.0))
        _, best = rc.optimize_input(noise, channel, (1, 1), config)
        sweep = rc.sweep_kappa(noise, channel, (0.5, 2.0), (1, 1), config)
        return ([rate.rate_nats, rate.K_I, rate.K_Ihat, best.rate_nats, best.K_I]
                + [p.rate_nats for p in sweep] + [p.power for p in sweep])

    before = run()

    def refuse(*args, **kwargs):
        raise AssertionError("chol_logdet called")

    monkeypatch.setattr(rc.capacity, "chol_logdet", refuse)
    monkeypatch.setattr(rc.linalg, "chol_logdet", refuse)
    for old, new in zip(before, run()):
        np.testing.assert_array_equal(old, new)
