import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

import riccati_capacity as rc
from conftest import random_models, scalar_noise, unit_channel, unit_iid_input
from oracles import joint_output_covariance, prediction_error
from riccati_capacity.linalg import substream
from riccati_capacity.simulate import OVERFLOW_GUARD
from riccati_capacity.systests import psd_sqrt


def colored_setup():
    return scalar_noise(0.5), unit_iid_input(), unit_channel()


def test_same_seed_reproduces_batch_exactly():
    noise, inp, ch = colored_setup()
    b1 = rc.sample_paths(rc.build_augmented(noise, inp, ch), horizon=12, paths=50, master_seed=9)
    b2 = rc.sample_paths(rc.build_augmented(noise, inp, ch), horizon=12, paths=50, master_seed=9)
    for name in ("S", "V", "Xi", "X", "Y"):
        assert np.array_equal(getattr(b1, name), getattr(b2, name))


def test_sample_paths_takes_the_joint_system():
    noise, inp, ch = colored_setup()
    system = rc.build_augmented(noise, inp, ch)
    assert rc.sample_paths(system, 3, 5, 0).system is system
    # the batch keeps its system, not copies of the models it holds
    assert not {"noise", "input", "channel"} & {f.name for f in fields(rc.TrajectoryBatch)}
    for first in (noise, (noise, inp, ch)):
        with pytest.raises(TypeError, match="^sample_paths takes a JointSystem, "
                                            "got (NoiseModel|tuple)$"):
            rc.sample_paths(first, 3, 5, 0)
    # the earlier form, the three models first
    with pytest.raises(TypeError):
        rc.sample_paths(noise, inp, ch, 3, 5, 0)


def test_different_seeds_differ():
    noise, inp, ch = colored_setup()
    b1 = rc.sample_paths(rc.build_augmented(noise, inp, ch), horizon=5, paths=10, master_seed=1)
    b2 = rc.sample_paths(rc.build_augmented(noise, inp, ch), horizon=5, paths=10, master_seed=2)
    assert not np.allclose(b1.V, b2.V)


def test_paths_use_independent_substreams():
    noise, inp, ch = colored_setup()
    b = rc.sample_paths(rc.build_augmented(noise, inp, ch), horizon=5, paths=3, master_seed=0)
    assert not np.allclose(b.V[0], b.V[1])
    assert not np.allclose(b.V[1], b.V[2])


def mimo_setup():
    # n_s = n_xi = n_y = n_x = n_z = 2, n_w = 3, every covariance root non-identity
    noise, inp = random_models(np.random.default_rng(41), n_s=2, n_xi=2, n_y=2, n_z=2)
    noise = replace(noise, mu_S1=[0.3, -1.2])
    inp = replace(inp, mu_Xi1=[0.5, 0.7])
    return noise, inp, rc.Channel(H=[[1.0, 0.4], [-0.2, 0.8]], kappa=1.0)


def test_each_path_reads_its_own_substream_in_the_documented_order():
    noise, inp, ch = mimo_setup()
    horizon, seed = 4, 77
    b = rc.sample_paths(rc.build_augmented(noise, inp, ch), horizon=horizon, paths=6,
                        master_seed=seed)
    n_s, n_xi, n_w, n_z = noise.n_s, inp.n_xi, noise.n_w, inp.n_z
    per_path = n_s + n_xi + horizon * (n_w + n_z)
    for i in (0, 3, 5):
        eps = substream(seed, i).standard_normal(per_path)
        S_1 = noise.mu_S1 + psd_sqrt(noise.K_S1) @ eps[:n_s]
        Xi_1 = inp.mu_Xi1 + psd_sqrt(inp.K_Xi1) @ eps[n_s:n_s + n_xi]
        # (W_1, Z_1) is the first step block
        W_1 = psd_sqrt(noise.K_W) @ eps[n_s + n_xi:n_s + n_xi + n_w]
        Z_1 = psd_sqrt(inp.K_Z) @ eps[n_s + n_xi + n_w:n_s + n_xi + n_w + n_z]
        V_1 = noise.C @ S_1 + noise.N @ W_1
        X_1 = inp.Gamma @ Xi_1 + inp.D @ Z_1
        Y_1 = ch.H @ X_1 + V_1
        for name, want in (("S", S_1), ("Xi", Xi_1), ("V", V_1), ("X", X_1), ("Y", Y_1)):
            assert np.allclose(getattr(b, name)[i, 0], want, rtol=1e-13, atol=1e-13), name


def test_batch_rows_do_not_depend_on_the_path_count():
    noise, inp, ch = mimo_setup()
    system = rc.build_augmented(noise, inp, ch)
    small = rc.sample_paths(system, horizon=9, paths=7, master_seed=21)
    large = rc.sample_paths(system, horizon=9, paths=50, master_seed=21)
    for name in ("S", "V", "Xi", "X", "Y"):
        assert np.array_equal(getattr(small, name), getattr(large, name)[:7])
    # blocks of 16 paths, the last one of 2
    for lo in range(0, 50, 16):
        hi = min(lo + 16, 50)
        block = rc.sample_paths(system, horizon=9, paths=range(lo, hi), master_seed=21)
        assert (block.first_path, block.paths, block.horizon) == (lo, hi - lo, 9)
        for name in ("S", "V", "Xi", "X", "Y"):
            assert np.array_equal(getattr(block, name), getattr(large, name)[lo:hi]), (lo, name)


def unstable_setup():
    # rho(A) = 1.25: over 36 steps the states grow about 3,000-fold, far below the guard
    noise, inp = random_models(np.random.default_rng(43), n_s=3, n_xi=2, n_y=2, n_z=2,
                               rho_A=1.25)
    noise = replace(noise, mu_S1=[1.0, -0.5, 2.0])
    return noise, inp, rc.Channel(H=[[0.7, 0.2], [0.1, -1.1]], kappa=1.0)


def path_by_plain_loop(noise, inp, ch, horizon, seed, i):
    """Path i rebuilt from ``substream(seed, i)`` one model equation at a time."""
    n_s, n_xi, n_w, n_z = noise.n_s, inp.n_xi, noise.n_w, inp.n_z
    eps = substream(seed, i).standard_normal(n_s + n_xi + horizon * (n_w + n_z))
    S = noise.mu_S1 + psd_sqrt(noise.K_S1) @ eps[:n_s]
    Xi = inp.mu_Xi1 + psd_sqrt(inp.K_Xi1) @ eps[n_s:n_s + n_xi]
    path = {name: [] for name in ("S", "V", "Xi", "X", "Y")}
    for draws in eps[n_s + n_xi:].reshape(horizon, n_w + n_z):
        W = psd_sqrt(noise.K_W) @ draws[:n_w]
        Z = psd_sqrt(inp.K_Z) @ draws[n_w:]
        V = noise.C @ S + noise.N @ W
        X = inp.Gamma @ Xi + inp.D @ Z
        for name, value in (("S", S), ("V", V), ("Xi", Xi), ("X", X), ("Y", ch.H @ X + V)):
            path[name].append(value)
        S, Xi = noise.A @ S + noise.B @ W, inp.F @ Xi + inp.G @ Z
    return {name: np.array(values) for name, values in path.items()}


@pytest.mark.parametrize("setup, horizon", [(mimo_setup, 12), (unstable_setup, 36)])
def test_every_step_of_a_path_follows_the_model_equations(setup, horizon):
    noise, inp, ch = setup()
    b = rc.sample_paths(rc.build_augmented(noise, inp, ch), horizon=horizon, paths=7,
                        master_seed=19)
    assert b.horizon == horizon
    for i in (0, 4, 6):
        want = path_by_plain_loop(noise, inp, ch, horizon, 19, i)
        # each step against the largest entry of its five vectors
        scale = np.max([np.abs(value).max(axis=1) for value in want.values()], axis=0)
        for name, value in want.items():
            gap = np.abs(getattr(b, name)[i] - value).max(axis=1)
            assert np.all(gap <= 1e-12 * scale), (i, name, np.max(gap / scale))


def test_a_one_path_block_is_its_row_of_the_batch():
    noise, inp, ch = mimo_setup()
    system = rc.build_augmented(noise, inp, ch)
    large = rc.sample_paths(system, horizon=9, paths=50, master_seed=21)
    run = rc.kalman_run(large)
    for i in (0, 17, 49):
        block = rc.sample_paths(system, horizon=9, paths=range(i, i + 1), master_seed=21)
        for name in ("S", "V", "Xi", "X", "Y"):
            assert np.array_equal(getattr(block, name), getattr(large, name)[i:i + 1]), (i, name)
        one = rc.kalman_run(block)
        assert np.array_equal(one.innovations, run.innovations[i:i + 1]), i
        assert np.array_equal(one.state_errors, run.state_errors[i:i + 1]), i


@pytest.mark.parametrize("n_s, n_xi, n_y, n_z, paths, blocks", [
    # the layout before paths went innermost gave other last bits here
    (12, 1, 1, 1, 64, [(0, 37), (3, 50), (50, 64)]),
    # a joint state of 10: without whole tiles of 16 paths, BLAS rounds the
    # last paths of these blocks otherwise than in the batch
    (6, 4, 2, 3, 256, [(0, 253), (0, 251), (5, 256)]),
])
def test_blocks_of_wider_models_are_rows_of_the_batch(n_s, n_xi, n_y, n_z, paths, blocks):
    noise, inp = random_models(np.random.default_rng(7), n_s=n_s, n_xi=n_xi, n_y=n_y, n_z=n_z)
    ch = rc.Channel(H=np.eye(n_y), kappa=1.0)
    system = rc.build_augmented(noise, inp, ch)
    large = rc.sample_paths(system, horizon=3, paths=paths, master_seed=1)
    run = rc.kalman_run(large)
    for lo, hi in blocks:
        block = rc.sample_paths(system, horizon=3, paths=range(lo, hi), master_seed=1)
        for name in ("S", "V", "Xi", "X", "Y"):
            assert np.array_equal(getattr(block, name), getattr(large, name)[lo:hi]), (lo, name)
        one = rc.kalman_run(block)
        assert np.array_equal(one.innovations, run.innovations[lo:hi]), lo
        assert np.array_equal(one.state_errors, run.state_errors[lo:hi]), lo


@pytest.mark.parametrize("paths", [range(0), range(3, 1), range(0, 6, 2), range(-1, 4)])
def test_a_block_of_paths_is_a_nonempty_range_with_step_one(paths):
    with pytest.raises(ValueError, match="^paths must be a nonempty range of path indices"):
        rc.sample_paths(rc.build_augmented(*colored_setup()), horizon=3, paths=paths, master_seed=0)


def test_shorter_horizon_is_the_prefix_of_a_saturating_batch():
    noise, inp, ch = scalar_noise(1.5), unit_iid_input(), unit_channel()
    system = rc.build_augmented(noise, inp, ch)
    short = rc.sample_paths(system, horizon=67, paths=30, master_seed=5)
    long = rc.sample_paths(system, horizon=80, paths=30, master_seed=5)
    assert short.saturated_at is None and long.saturated_at == 68
    for name in ("S", "V", "Xi", "X", "Y"):
        assert np.array_equal(getattr(short, name), getattr(long, name))


def test_one_batch_builds_at_most_one_generator(monkeypatch):
    built = []
    original = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    noise, inp, ch = colored_setup()
    rc.sample_paths(rc.build_augmented(noise, inp, ch), horizon=3, paths=500, master_seed=8)
    assert len(built) <= 1


@pytest.mark.parametrize("horizon, paths, name", [(3.9, 2, "horizon"), (3, 2.5, "paths")])
def test_counts_that_are_not_integers_are_named(horizon, paths, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        rc.sample_paths(rc.build_augmented(*colored_setup()), horizon=horizon, paths=paths,
                        master_seed=0)


def test_zero_input_sends_noise_only():
    noise = scalar_noise(0.5)
    inp = rc.InputModel(F=[[0.5]], G=[[0.0]], Gamma=[[0.0]], D=[[0.0]],
                        K_Z=[[1.0]])
    b = rc.sample_paths(rc.build_augmented(noise, inp, unit_channel()), horizon=10, paths=20,
                        master_seed=3)
    assert np.array_equal(b.Y, b.V)
    assert np.all(b.X == 0.0)


def test_memoryless_mean_within_clt_bound():
    noise = rc.memoryless_noise([[1.0]])
    b = rc.sample_paths(rc.build_augmented(noise, unit_iid_input(), unit_channel()),
                        horizon=3, paths=20_000, master_seed=11)
    mean_V = np.mean(b.V[:, 1, 0])
    assert abs(mean_V) <= 4.0 * np.sqrt(1.0 / 20_000)


def test_overflow_guard_truncates():
    noise = scalar_noise(1.5)
    b = rc.sample_paths(rc.build_augmented(noise, unit_iid_input(), unit_channel()),
                        horizon=80, paths=30, master_seed=5)
    assert b.saturated_at == 68
    assert b.horizon == 67
    assert b.S.shape[1] == b.horizon
    assert np.all(np.abs(b.S) <= OVERFLOW_GUARD)


def test_batch_saturated_at_step_one_has_nothing_to_filter():
    noise = rc.NoiseModel(A=[[0.5]], B=[[1.0]], C=[[1.0]], N=[[1.0]], K_W=[[1.0]],
                          mu_S1=[1e13])
    inp, ch = unit_iid_input(), unit_channel()
    b = rc.sample_paths(rc.build_augmented(noise, inp, ch), horizon=5, paths=10, master_seed=0)
    assert (b.saturated_at, b.horizon) == (1, 0)
    with pytest.raises(ValueError, match=r"passed the overflow guard 1e\+12 at step 1"):
        rc.kalman_run(b)


# ---------------------------------------------------------------- kalman_run


def test_a_channel_without_outputs_has_empty_innovations():
    noise = rc.NoiseModel(A=0.5, B=1.0, C=np.zeros((0, 1)), N=np.zeros((0, 1)), K_W=1.0)
    inp, ch = unit_iid_input(), rc.Channel(H=np.zeros((0, 1)), kappa=1.0)
    b = rc.sample_paths(rc.build_augmented(noise, inp, ch), horizon=4, paths=5, master_seed=0)
    run = rc.kalman_run(b)
    assert run.innovations.shape == (5, 4, 0) and run.K_I_seq.shape == (4, 0, 0)
    # with no output to read, every prediction of the noise state is its mean, 0
    assert np.array_equal(run.state_errors, b.S)
    assert rc.empirical_report(b.system, 4, 5, 0, rc.asymptotic_rate(noise, inp, ch)).paths == 5


def test_memoryless_innovations_are_centered_outputs():
    noise = rc.memoryless_noise([[1.0]])
    inp = unit_iid_input()
    ch = unit_channel()
    b = rc.sample_paths(rc.build_augmented(noise, inp, ch), horizon=6, paths=40, master_seed=2)
    run = rc.kalman_run(b)
    assert np.allclose(run.innovations, b.Y)


SCHEDULE_MODELS = {
    # the colored scalar noise, whose predictor is deadbeat
    "deadbeat": lambda: (scalar_noise(0.5), unit_iid_input()),
    # a joint state of 1 whose predictor still moves at step 512 (closed loop 0.99)
    "m1": lambda: (rc.NoiseModel(A=0.999, B=[[0.1, 0.0]], C=0.1, N=[[0.0, 1.0]], K_W=np.eye(2)),
                   unit_iid_input()),
    # modes at 0.99, so both DREs and the input's Lyapunov recursion still
    # move at every 64-step edge and at the 256-step cap
    "m8": lambda: random_models(np.random.default_rng(8), n_s=4, n_xi=4, rho_A=0.99, rho_F=0.99),
    "m10": lambda: random_models(np.random.default_rng(10), n_s=5, n_xi=5),
}


def dre_schedule(quad, horizon):
    # (P_t, K_t, L_t, log det K_t) of the one-step predictor of quad by a loop of DRE steps
    P, rows = quad.K_Theta1, []
    for _ in range(horizon):
        K = quad.Rhat + quad.Chat @ P @ quad.Chat.T
        rows.append((P, K, np.linalg.solve(K, (quad.Ahat @ P @ quad.Chat.T + quad.Shat).T).T,
                     np.linalg.slogdet(K)[1]))
        P = rc.dre_step(quad, P)
    return [np.array(column) for column in zip(*rows)]


# horizons on both sides of the scan's step cap, where every chunk ends
# (2,048 steps at m = 1, 256 at m = 8), and of the scan's tree edges below
# it, and a joint state of 10, which takes plain steps
SCHEDULE_CASES = [("deadbeat", 8), ("m1", 511), ("m1", 512), ("m1", 513), ("m1", 2047),
                  ("m1", 2048), ("m1", 2049), ("m8", 63), ("m8", 64), ("m8", 65), ("m8", 129),
                  ("m8", 255), ("m8", 256), ("m8", 257), ("m10", 12)]


@pytest.mark.parametrize("models, horizon", SCHEDULE_CASES,
                         ids=[f"{models}-n{horizon}" for models, horizon in SCHEDULE_CASES])
def test_innovation_covariance_sequence_matches_dre(monkeypatch, models, horizon):
    noise, inp = SCHEDULE_MODELS[models]()
    ch = unit_channel()
    b = rc.sample_paths(rc.build_augmented(noise, inp, ch), horizon=horizon, paths=2, master_seed=4)
    # the schedules the report reads, joint (through kalman_run) then noise
    schedules, engine_run = [], rc.simulate._run

    def recording(system, horizon, *names):
        runs = engine_run(system, horizon, *names)
        schedules.append(runs[0])
        return runs

    monkeypatch.setattr(rc.simulate, "_run", recording)
    report = rc.empirical_report(b.system, horizon, 2, 4, rc.asymptotic_rate(noise, inp, ch))
    run = rc.kalman_run(b)
    quad = rc.build_augmented(noise, inp, ch)
    joint, noise_only = dre_schedule(quad, horizon), dre_schedule(quad.noise_quad, horizon)
    assert len(schedules[0]) == len(schedules[1]) == 4
    for got, want in [*zip((run.Pi_seq, run.K_I_seq, run.gains), joint),
                      *zip(schedules[0], joint), *zip(schedules[1], noise_only)]:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # the exact average power over the horizon, by a loop of Lyapunov steps
    P, powers = inp.K_Xi1, []
    for _ in range(horizon):
        powers.append(np.trace(inp.Gamma @ P @ inp.Gamma.T + inp.D @ inp.K_Z @ inp.D.T))
        P = rc.lyap_step(inp.F, inp.G, inp.K_Z, P) if inp.n_xi else P
    power = next(r for r in report.rows if r.name == "average power").analytic
    assert abs(power.item() - np.mean(powers)) <= 1e-12 * np.mean(powers)
    if models == "deadbeat":
        # the covariance settles to 2.5 after two steps
        assert abs(run.K_I_seq[-1][0, 0] - 2.5) < 1e-12


# 512 steps by one scan and a last step by a plain step; a joint state of 10,
# which takes plain steps only
@pytest.mark.parametrize("models, horizon", [("m1", 513), ("m10", 12)])
def test_a_report_factors_each_innovations_covariance_once(monkeypatch, models, horizon):
    # each K_t of both predictors is factored once, where the engine forms it,
    # for its log det and its gain; every solve_spd binding of the package is
    # counted, by the matrices it factors
    noise, inp = SCHEDULE_MODELS[models]()
    ch = unit_channel()
    system = rc.build_augmented(noise, inp, ch)
    analytic = rc.asymptotic_rate(noise, inp, ch)
    factored = {}

    def counting(solve):
        def solve_spd(S, B, context="matrix", logdet=False):
            factored[context] = factored.get(context, 0) + int(np.prod(S.shape[:-2]))
            return solve(S, B, context, logdet)
        return solve_spd

    for module in vars(rc).values():
        if hasattr(module, "solve_spd"):
            monkeypatch.setattr(module, "solve_spd", counting(module.solve_spd))
    rc.empirical_report(system, horizon, 2, 4, analytic)
    # the cross-term-free form of a scanned chunk's steps factors its Rhat
    factored.pop("Rhat", None)
    assert factored == {"K_I": horizon, "K_Ihat": horizon}


@pytest.mark.parametrize("setup, horizon", [(mimo_setup, 10), (unstable_setup, 12)])
def test_innovations_are_the_outputs_less_their_best_linear_prediction(setup, horizon):
    # z_t = [Y_t; Xi_t; S_t] is the output of x+ = blockdiag(F, A) x + [0 G; B 0] w,
    # z = [H Gamma, C; I] x + [N, H D; 0] w, x = (Xi, S), w = (W, Z)
    noise, inp, ch = setup()
    n_xi, n_s, n_w, n_z, q = inp.n_xi, noise.n_s, noise.n_w, inp.n_z, noise.n_y
    m = n_xi + n_s
    A = np.block([[inp.F, np.zeros((n_xi, n_s))], [np.zeros((n_s, n_xi)), noise.A]])
    B = np.block([[np.zeros((n_xi, n_w)), inp.G], [noise.B, np.zeros((n_s, n_z))]])
    C = np.block([[ch.H @ inp.Gamma, noise.C], [np.eye(m)]])
    D = np.block([[noise.N, ch.H @ inp.D], [np.zeros((m, n_w + n_z))]])
    K_1 = np.block([[inp.K_Xi1, np.zeros((n_xi, n_s))], [np.zeros((n_s, n_xi)), noise.K_S1]])
    K_drive = np.block([[noise.K_W, np.zeros((n_w, n_z))], [np.zeros((n_z, n_w)), inp.K_Z]])
    K = joint_output_covariance(A, B, C, D, K_1, K_drive, horizon)
    means, mean = [], np.concatenate([inp.mu_Xi1, noise.mu_S1])
    for _ in range(horizon):
        means.append(C @ mean)
        mean = A @ mean
    b = rc.sample_paths(rc.build_augmented(noise, inp, ch), horizon=horizon, paths=6, master_seed=5)
    run = rc.kalman_run(b)
    width = q + m
    for i in (0, 3, 5):
        z = np.concatenate([b.Y[i], b.Xi[i], b.S[i]], axis=1) - np.array(means)
        centered = z.ravel()
        want = np.array([prediction_error(K, centered, list(range(t * width, t * width + q)),
                                          [t_ * width + j for t_ in range(t) for j in range(q)])
                         for t in range(horizon)])
        got = run.innovations[i]
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max(), i
        last = horizon - 1
        error = prediction_error(K, centered, list(range(last * width + q, (last + 1) * width)),
                                 [t_ * width + j for t_ in range(last) for j in range(q)])
        assert np.abs(run.state_errors[i, last] - error).max() <= 1e-10 * np.abs(error).max(), i


# ----------------------------------------------------------- empirical_report


def test_report_builds_one_joint_system_and_no_quadruple(monkeypatch):
    noise, inp, ch = colored_setup()
    analytic = rc.asymptotic_rate(noise, inp, ch)
    # systems are built by build_augmented or to_quadruple, at every name
    # a library module calls them by: the one the report samples from, and
    # none in the report
    built = []

    def counting(name, original):
        return lambda *args: built.append(name) or original(*args)

    for module in (rc.models, rc.capacity, rc.systests, rc.simulate):
        for name in ("build_augmented", "to_quadruple"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    rc.empirical_report(rc.models.build_augmented(noise, inp, ch), 3, 20, 1, analytic)
    assert built == ["build_augmented"]


@pytest.mark.parametrize("blocks", [1, 7, "truncating"])
def test_a_report_runs_each_recursion_once(monkeypatch, blocks):
    # both predictors' DREs and the input's Lyapunov recursion run once per
    # report, however many blocks it reads; the truncating report draws its
    # earlier blocks again at a shorter horizon
    if blocks == "truncating":
        noise, inp, ch = scalar_noise(1.5), unit_iid_input(), unit_channel()
        horizon, paths, seed, length = 80, 60, 31, 10
    else:
        noise, inp, ch = mimo_setup()
        horizon, paths, seed, length = 12, 70, 3, 70 // blocks
    system = rc.build_augmented(noise, inp, ch)
    in_blocks(monkeypatch, system, horizon, paths, length)
    analytic = rc.asymptotic_rate(noise, inp, ch)
    names, runs = [], rc.simulate._runs

    def counting_runs(system, schedule, n, picked):
        names.extend(picked)
        return runs(system, schedule, n, picked)

    monkeypatch.setattr(rc.simulate, "_runs", counting_runs)
    rc.empirical_report(system, horizon, paths, seed, analytic)
    assert sorted(names) == ["P", "Pi", "Sigma"]


def test_report_does_not_depend_on_the_batch_layout():
    # kalman_run takes a caller's batch, so its values must not depend on its layout
    noise, inp, ch = mimo_setup()
    system = rc.build_augmented(noise, inp, ch)
    b = rc.sample_paths(system, horizon=40, paths=3000, master_seed=3)
    dense = replace(b, **{name: np.ascontiguousarray(getattr(b, name))
                          for name in ("S", "V", "Xi", "X", "Y")})
    assert dense.Y.flags.c_contiguous != b.Y.flags.c_contiguous
    values = []
    for batch in (b, dense):
        run = rc.kalman_run(batch)
        values.append((run.innovations, run.state_errors))
    for i, (got, want) in enumerate(zip(*values)):
        assert np.array_equal(got, want), i


def assert_same_report(report, whole):
    assert (report.paths, report.horizon, report.ok) == (whole.paths, whole.horizon, whole.ok)
    assert [r.name for r in report.rows] == [r.name for r in whole.rows]
    for r, w in zip(report.rows, whole.rows):
        assert np.array_equal(r.analytic, w.analytic), r.name
        assert np.array_equal(r.empirical, w.empirical), r.name
        assert (r.deviation, r.se, r.se_ratio, r.ok) == (w.deviation, w.se, w.se_ratio, w.ok)


def in_blocks(monkeypatch, system, horizon, paths, length):
    # a block budget of ``length`` paths of ``horizon`` steps: each path and
    # step of a block fills this many floats (``simulate._path_blocks``)
    width = system.n_w + system.n_z + 2 * system.m + system.input.n_x + 4 * system.q
    monkeypatch.setattr(rc.simulate, "_BLOCK_BYTES", length * 8 * horizon * width)
    assert rc.simulate._path_blocks(system, horizon, paths) == [
        range(lo, min(lo + length, paths)) for lo in range(0, paths, length)]


def test_report_over_blocks_is_the_whole_batch_report(monkeypatch):
    noise, inp, ch = mimo_setup()
    system = rc.build_augmented(noise, inp, ch)
    analytic = rc.asymptotic_rate(noise, inp, ch)
    # the default budget holds all 100 paths in one block, the whole batch
    whole = rc.empirical_report(system, 12, 100, 3, analytic)
    in_blocks(monkeypatch, system, 12, 100, 30)
    assert_same_report(rc.empirical_report(system, 12, 100, 3, analytic), whole)


@pytest.mark.parametrize("case", ["mimo-blocks", "truncating"])
def test_report_rows_are_the_statistics_of_the_whole_batch(monkeypatch, case):
    # the report reduces each block in one pass of its own; its rows must be
    # the statistics of the whole batch, built here from sample_paths,
    # kalman_run and a plain loop of the noise predictor over batch.V
    if case == "truncating":
        # blocks of 10 paths that pass the guard at steps 69, 68, 70, 69, 69 and 67
        noise, inp, ch = scalar_noise(1.5), unit_iid_input(), unit_channel()
        horizon, paths, seed, length = 80, 60, 31, 10
    else:
        noise, inp, ch = mimo_setup()
        horizon, paths, seed, length = 12, 100, 3, 30
    system = rc.build_augmented(noise, inp, ch)
    in_blocks(monkeypatch, system, horizon, paths, length)
    report = rc.empirical_report(system, horizon, paths, seed, rc.asymptotic_rate(noise, inp, ch))
    batch = rc.sample_paths(system, horizon, paths, seed)
    run, h = rc.kalman_run(batch), batch.horizon
    assert report.horizon == h == (66 if case == "truncating" else horizon)
    _, K_hat_seq, gains, _ = rc.simulate._run(system, h, "Sigma")[0]
    # the noise predictor in closed-loop form, s+ = (A - L_t C) s + L_t v: the
    # truncating paths' last outputs are near 7e11, so another form of the same
    # predictor, A s + L_t (v - C s), moves their innovations by about 6e-5
    s = np.tile(noise.mu_S1, (paths, 1))
    for t in range(h):
        noise_innovation = batch.V[:, t] - s @ noise.C.T
        s = s @ (noise.A - gains[t] @ noise.C).T + batch.V[:, t] @ gains[t].T

    def cov(a, b):
        return (a - a.mean(axis=0)).T @ (b - b.mean(axis=0)) / (len(a) - 1)

    last, earlier = run.innovations[:, -1], run.innovations[:, -2]
    errors = run.state_errors[:, -1]
    want = {"innovations covariance": (run.K_I_seq[-1], cov(last, last)),
            "steady-state innovations covariance": (None, cov(last, last)),
            "noise innovations covariance": (K_hat_seq[-1],
                                             cov(noise_innovation, noise_innovation)),
            "state-error covariance": (run.Pi_seq[-1], cov(errors, errors)),
            "lag-1 innovations cross-covariance": (None, cov(last, earlier)),
            "average power": (None, np.mean(np.sum(batch.X ** 2, axis=(1, 2)) / h))}
    rows = {row.name: row for row in report.rows}
    assert set(rows) == set(want)
    for name, (analytic, empirical) in want.items():
        for got, value in ((rows[name].analytic, analytic), (rows[name].empirical, empirical)):
            if value is not None:
                assert np.abs(got - value).max() <= 1e-12 * np.abs(value).max(), name


@pytest.mark.parametrize("seed", range(6))
def test_a_report_whose_last_block_holds_one_path_is_the_whole_batch_report(monkeypatch, seed):
    noise, inp, ch = mimo_setup()
    system = rc.build_augmented(noise, inp, ch)
    analytic = rc.asymptotic_rate(noise, inp, ch)
    whole = rc.empirical_report(system, 12, 61, seed, analytic)
    in_blocks(monkeypatch, system, 12, 61, 60)
    assert_same_report(rc.empirical_report(system, 12, 61, seed, analytic), whole)


def test_a_block_that_stops_earlier_truncates_the_whole_report(monkeypatch):
    # seed 31, blocks of 10 paths: they pass the guard at steps 69, 68, 70,
    # 69, 69 and 67. Each block after the first is drawn at the report's
    # horizon so far, so the second at 68 steps, which makes the first be
    # drawn again at 67, the third to sixth at 67, and the sixth makes all
    # five earlier blocks be drawn again at 66 steps
    noise, inp, ch = scalar_noise(1.5), unit_iid_input(), unit_channel()
    system = rc.build_augmented(noise, inp, ch)
    analytic = rc.asymptotic_rate(noise, inp, ch)
    blocks = [range(lo, lo + 10) for lo in range(0, 60, 10)]
    assert [rc.sample_paths(system, 80, b, 31).saturated_at for b in blocks] == [
        69, 68, 70, 69, 69, 67]
    batch = rc.sample_paths(system, 80, 60, 31)
    assert (batch.saturated_at, batch.horizon) == (67, 66)
    # the default budget holds all 60 paths in one block, the whole batch
    whole = rc.empirical_report(system, 80, 60, 31, analytic)
    drawn, block_values = [], rc.simulate._block_values

    def recording(system, plan, horizon, indices, master_seed):
        drawn.append((indices, horizon))
        return block_values(system, plan, horizon, indices, master_seed)

    monkeypatch.setattr(rc.simulate, "_block_values", recording)
    in_blocks(monkeypatch, system, 80, 60, 10)
    assert_same_report(rc.empirical_report(system, 80, 60, 31, analytic), whole)
    assert drawn == [(blocks[0], 80), (blocks[1], 68), (blocks[0], 67),
                     *((b, 67) for b in blocks[2:]), *((b, 66) for b in blocks[:5])]


def test_a_report_holds_less_than_half_a_stored_block(monkeypatch):
    # the block budget counts what a stored block fills: per path and step,
    # 23 floats of this model's draws, sampled entries, state predictions and
    # innovations. A report stores none of it but the 7 of the draws and X_t,
    # so over three blocks its traced peak is 0.42 of one block's budget,
    # where sampling and filtering each block whole peaked at 0.96
    noise, inp, ch = mimo_setup()
    analytic = rc.asymptotic_rate(noise, inp, ch)
    system = rc.build_augmented(noise, inp, ch)
    in_blocks(monkeypatch, system, 40, 1500, 500)
    tracemalloc.start()
    try:
        report = rc.empirical_report(system, 40, 1500, 3, analytic)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.paths == 1500 and report.horizon == 40
    assert peak < rc.simulate._BLOCK_BYTES / 2, peak / rc.simulate._BLOCK_BYTES


def test_report_checks_its_arguments_before_it_samples(monkeypatch):
    noise, inp, ch = colored_setup()
    system = rc.build_augmented(noise, inp, ch)
    analytic = rc.asymptotic_rate(noise, inp, ch)
    batch = rc.sample_paths(system, 3, 5, 0)
    sampled = []
    monkeypatch.setattr(rc.simulate, "_block_values", lambda *args: sampled.append(args))
    # the analytic side first, then the system, then the counts
    with pytest.raises(TypeError, match="^analytic must be a CapacityResult$"):
        rc.empirical_report(noise, 0, 0, 0, analytic.rate_nats)
    for first in (noise, (noise, inp, ch), batch):
        with pytest.raises(TypeError, match="^empirical_report takes a JointSystem, "
                                            "got (NoiseModel|tuple|TrajectoryBatch)$"):
            rc.empirical_report(first, 3, 5, 0, analytic)
    # the earlier form, a batch and the analytic result
    with pytest.raises(TypeError):
        rc.empirical_report(batch, analytic)
    for horizon, paths, message in ((0, 5, "^horizon must be >= 1, got 0$"),
                                    (2.5, 5, r"^horizon must be an integer, got 2\.5$"),
                                    (3, 0, "^paths must be >= 1, got 0$"),
                                    (3, range(5), r"^paths must be an integer, got range\(0, 5\)$")):
        with pytest.raises(ValueError, match=message):
            rc.empirical_report(system, horizon, paths, 0, analytic)
    assert sampled == []
    # the report keeps no paths of its own
    assert [f.name for f in fields(rc.ComparisonReport)] == ["rows", "paths", "horizon", "ok"]


def test_report_accepts_matched_statistics():
    noise, inp, ch = colored_setup()
    analytic = rc.asymptotic_rate(noise, inp, ch)
    rep = rc.empirical_report(rc.build_augmented(noise, inp, ch), 25, 20_000, 6, analytic)
    assert rep.ok
    names = [r.name for r in rep.rows]
    assert "innovations covariance" in names
    assert "steady-state innovations covariance" in names
    assert "average power" in names
    assert "lag-1 innovations cross-covariance" in names


def test_a_rows_relative_deviation_is_over_the_rows_own_magnitude():
    # the lag row's analytic value is 0, so its deviation is its empirical
    # value and its relative deviation 1, not that over 1e-300
    noise, inp, ch = mimo_setup()
    analytic = rc.asymptotic_rate(noise, inp, ch)
    rep = rc.empirical_report(rc.build_augmented(noise, inp, ch), 12, 400, 8, analytic)
    for r in rep.rows:
        scale = max(np.abs(r.analytic).max(), np.abs(r.empirical).max())
        assert r.rel_deviation == r.deviation / scale <= 2.0, r.name
    lag = next(r for r in rep.rows if r.name == "lag-1 innovations cross-covariance")
    assert not lag.analytic.any() and lag.rel_deviation == 1.0
    assert rc.simulate._row("zero", 0.0, 0.0, 1.0).rel_deviation == 0.0


def test_report_rejects_wrong_analytic_value():
    noise, inp, ch = colored_setup()
    zero_inp = rc.InputModel(F=[[0.5]], G=[[0.0]], Gamma=[[0.0]], D=[[0.0]],
                             K_Z=[[1.0]])
    wrong = rc.asymptotic_rate(noise, zero_inp, ch)
    rep = rc.empirical_report(rc.build_augmented(noise, inp, ch), 25, 20_000, 6, wrong)
    assert not rep.ok
    bad = {r.name for r in rep.rows if not r.ok}
    assert "steady-state innovations covariance" in bad


def test_report_requires_a_capacity_result():
    noise, inp, ch = colored_setup()
    system = rc.build_augmented(noise, inp, ch)
    with pytest.raises(TypeError, match="^analytic must be a CapacityResult$"):
        rc.empirical_report(system, 2, 3, 0, rc.asymptotic_rate(noise, inp, ch).rate_nats)


def test_one_step_batch_cannot_pass_a_wrong_steady_state():
    # one stored step says nothing about how far the filter is from its
    # limit, so a claimed K_I 100 times too large must not come out ok
    noise = scalar_noise(0.9)
    inp = unit_iid_input()
    ch = unit_channel()
    analytic = rc.asymptotic_rate(noise, inp, ch)
    wrong = replace(analytic, K_I=100.0 * analytic.K_I)
    rep = rc.empirical_report(rc.build_augmented(noise, inp, ch), 1, 20_000, 2, wrong)
    assert not any(r.ok for r in rep.rows
                   if r.name == "steady-state innovations covariance")


def test_unstable_noise_error_covariance_tracks_dre():
    noise = scalar_noise(1.5)
    inp = unit_iid_input()
    ch = unit_channel()
    analytic = rc.asymptotic_rate(noise, inp, ch)
    b = rc.sample_paths(rc.build_augmented(noise, inp, ch), horizon=30, paths=8000,
                        master_seed=13)
    assert b.saturated_at is None
    rep = rc.empirical_report(b.system, 30, 8000, 13, analytic)
    by_name = {r.name: r for r in rep.rows}
    # the filter keeps up with the exploding state: errors stay bounded
    assert by_name["state-error covariance"].ok
    assert by_name["innovations covariance"].ok


def test_zero_input_power_is_exactly_zero():
    noise = scalar_noise(0.5)
    zero_inp = rc.InputModel(F=[[0.5]], G=[[0.0]], Gamma=[[0.0]], D=[[0.0]],
                             K_Z=[[1.0]])
    ch = unit_channel()
    analytic = rc.asymptotic_rate(noise, zero_inp, ch)
    rep = rc.empirical_report(rc.build_augmented(noise, zero_inp, ch), 10, 200, 1, analytic)
    power_row = next(r for r in rep.rows if r.name == "average power")
    assert power_row.empirical == 0.0
    assert power_row.ok


def test_a_validated_degenerate_initial_covariance_is_sampled_on_its_support():
    # K_S1's eigenvalue -5e-10 is within PSD_SLACK of its scale, so validate accepts it,
    # and the root counts it as zero: S_1 has no component along the second state
    noise = rc.NoiseModel(A=0.5 * np.eye(2), B=np.eye(2), C=[[1.0, 0.0]], N=[[1.0, 0.0]],
                          K_W=np.eye(2), K_S1=np.diag([10.0, -5e-10]))
    assert rc.validate(noise).ok
    batch = rc.sample_paths(rc.build_augmented(noise, unit_iid_input(), unit_channel()),
                            horizon=2, paths=50, master_seed=3)
    assert np.all(batch.S[:, 0, 1] == 0.0)
    assert np.all(batch.S[:, 0, 0] != 0.0)
