from dataclasses import replace

import numpy as np
import pytest

import riccati_capacity as rc
from conftest import random_models, scalar_noise, unit_channel, unit_iid_input
from riccati_capacity.linalg import substream
from riccati_capacity.simulate import OVERFLOW_GUARD
from riccati_capacity.systests import psd_sqrt


def colored_setup():
    return scalar_noise(0.5), unit_iid_input(), unit_channel()


def test_same_seed_reproduces_batch_exactly():
    noise, inp, ch = colored_setup()
    b1 = rc.sample_paths(noise, inp, ch, horizon=12, paths=50, master_seed=9)
    b2 = rc.sample_paths(noise, inp, ch, horizon=12, paths=50, master_seed=9)
    for name in ("S", "V", "Xi", "X", "Y"):
        assert np.array_equal(getattr(b1, name), getattr(b2, name))


def test_different_seeds_differ():
    noise, inp, ch = colored_setup()
    b1 = rc.sample_paths(noise, inp, ch, horizon=5, paths=10, master_seed=1)
    b2 = rc.sample_paths(noise, inp, ch, horizon=5, paths=10, master_seed=2)
    assert not np.allclose(b1.V, b2.V)


def test_paths_use_independent_substreams():
    noise, inp, ch = colored_setup()
    b = rc.sample_paths(noise, inp, ch, horizon=5, paths=3, master_seed=0)
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
    b = rc.sample_paths(noise, inp, ch, horizon=horizon, paths=6, master_seed=seed)
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
    small = rc.sample_paths(noise, inp, ch, horizon=9, paths=7, master_seed=21)
    large = rc.sample_paths(noise, inp, ch, horizon=9, paths=50, master_seed=21)
    for name in ("S", "V", "Xi", "X", "Y"):
        assert np.array_equal(getattr(small, name), getattr(large, name)[:7])


def test_shorter_horizon_is_the_prefix_of_a_saturating_batch():
    noise, inp, ch = scalar_noise(1.5), unit_iid_input(), unit_channel()
    short = rc.sample_paths(noise, inp, ch, horizon=67, paths=30, master_seed=5)
    long = rc.sample_paths(noise, inp, ch, horizon=80, paths=30, master_seed=5)
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
    rc.sample_paths(noise, inp, ch, horizon=3, paths=500, master_seed=8)
    assert len(built) <= 1


@pytest.mark.parametrize("horizon, paths, name", [(3.9, 2, "horizon"), (3, 2.5, "paths")])
def test_counts_that_are_not_integers_are_named(horizon, paths, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        rc.sample_paths(*colored_setup(), horizon=horizon, paths=paths, master_seed=0)


def test_zero_input_sends_noise_only():
    noise = scalar_noise(0.5)
    inp = rc.InputModel(F=[[0.5]], G=[[0.0]], Gamma=[[0.0]], D=[[0.0]],
                        K_Z=[[1.0]])
    b = rc.sample_paths(noise, inp, unit_channel(), horizon=10, paths=20,
                        master_seed=3)
    assert np.array_equal(b.Y, b.V)
    assert np.all(b.X == 0.0)


def test_memoryless_mean_within_clt_bound():
    noise = rc.memoryless_noise([[1.0]])
    b = rc.sample_paths(noise, unit_iid_input(), unit_channel(),
                        horizon=3, paths=20_000, master_seed=11)
    mean_V = np.mean(b.V[:, 1, 0])
    assert abs(mean_V) <= 4.0 * np.sqrt(1.0 / 20_000)


def test_overflow_guard_truncates():
    noise = scalar_noise(1.5)
    b = rc.sample_paths(noise, unit_iid_input(), unit_channel(),
                        horizon=80, paths=30, master_seed=5)
    assert b.saturated_at == 68
    assert b.horizon == 67
    assert b.S.shape[1] == b.horizon
    assert np.all(np.abs(b.S) <= OVERFLOW_GUARD)


def test_batch_saturated_at_step_one_has_nothing_to_filter():
    noise = rc.NoiseModel(A=[[0.5]], B=[[1.0]], C=[[1.0]], N=[[1.0]], K_W=[[1.0]],
                          mu_S1=[1e13])
    inp, ch = unit_iid_input(), unit_channel()
    b = rc.sample_paths(noise, inp, ch, horizon=5, paths=10, master_seed=0)
    assert (b.saturated_at, b.horizon) == (1, 0)
    with pytest.raises(ValueError, match=r"passed the overflow guard 1e\+12 at step 1"):
        rc.kalman_run(b)


# ---------------------------------------------------------------- kalman_run


def test_memoryless_innovations_are_centered_outputs():
    noise = rc.memoryless_noise([[1.0]])
    inp = unit_iid_input()
    ch = unit_channel()
    b = rc.sample_paths(noise, inp, ch, horizon=6, paths=40, master_seed=2)
    run = rc.kalman_run(b)
    assert np.allclose(run.innovations, b.Y)


def test_innovation_covariance_sequence_matches_dre():
    noise, inp, ch = colored_setup()
    b = rc.sample_paths(noise, inp, ch, horizon=8, paths=10, master_seed=4)
    run = rc.kalman_run(b)
    quad = rc.build_augmented(noise, inp, ch)
    Pi = quad.K_Theta1.copy()
    for t in range(8):
        K_I = quad.Rhat + quad.Chat @ Pi @ quad.Chat.T
        assert np.allclose(run.K_I_seq[t], K_I)
        Pi = rc.dre_step(quad, Pi)
    # deadbeat filter: the covariance settles to 2.5 after two steps
    assert abs(run.K_I_seq[-1][0, 0] - 2.5) < 1e-12


# ----------------------------------------------------------- empirical_report


def test_report_builds_one_joint_system_and_no_quadruple(monkeypatch):
    noise, inp, ch = colored_setup()
    analytic = rc.asymptotic_rate(noise, inp, ch)
    # systems are built by build_augmented or to_quadruple, at every name
    # a library module calls them by
    built = []

    def counting(name, original):
        return lambda *args: built.append(name) or original(*args)

    for module in (rc.models, rc.capacity, rc.systests, rc.simulate):
        for name in ("build_augmented", "to_quadruple"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    b = rc.sample_paths(noise, inp, ch, horizon=3, paths=20, master_seed=1)
    rc.empirical_report(b, analytic)
    assert built == ["build_augmented"]


def test_report_does_not_depend_on_the_batch_layout():
    noise, inp, ch = mimo_setup()
    analytic = rc.asymptotic_rate(noise, inp, ch)
    b = rc.sample_paths(noise, inp, ch, horizon=40, paths=3000, master_seed=3)
    dense = replace(b, **{name: np.ascontiguousarray(getattr(b, name))
                          for name in ("S", "V", "Xi", "X", "Y")})
    assert dense.Y.flags.c_contiguous != b.Y.flags.c_contiguous
    rows, dense_rows = rc.empirical_report(b, analytic).rows, rc.empirical_report(dense, analytic).rows
    assert [r.name for r in rows] == [r.name for r in dense_rows]
    for r, d in zip(rows, dense_rows):
        assert np.array_equal(r.analytic, d.analytic), r.name
        assert np.array_equal(r.empirical, d.empirical), r.name
        assert (r.deviation, r.se, r.se_ratio, r.ok) == (d.deviation, d.se, d.se_ratio, d.ok)


def test_report_accepts_matched_statistics():
    noise, inp, ch = colored_setup()
    analytic = rc.asymptotic_rate(noise, inp, ch)
    b = rc.sample_paths(noise, inp, ch, horizon=25, paths=20_000,
                        master_seed=6)
    rep = rc.empirical_report(b, analytic)
    assert rep.ok
    names = [r.name for r in rep.rows]
    assert "innovations covariance" in names
    assert "steady-state innovations covariance" in names
    assert "average power" in names
    assert "lag-1 innovations cross-covariance" in names


def test_report_rejects_wrong_analytic_value():
    noise, inp, ch = colored_setup()
    zero_inp = rc.InputModel(F=[[0.5]], G=[[0.0]], Gamma=[[0.0]], D=[[0.0]],
                             K_Z=[[1.0]])
    wrong = rc.asymptotic_rate(noise, zero_inp, ch)
    b = rc.sample_paths(noise, inp, ch, horizon=25, paths=20_000,
                        master_seed=6)
    rep = rc.empirical_report(b, wrong)
    assert not rep.ok
    bad = {r.name for r in rep.rows if not r.ok}
    assert "steady-state innovations covariance" in bad


def test_one_step_batch_cannot_pass_a_wrong_steady_state():
    # one stored step says nothing about how far the filter is from its
    # limit, so a claimed K_I 100 times too large must not come out ok
    noise = scalar_noise(0.9)
    inp = unit_iid_input()
    ch = unit_channel()
    analytic = rc.asymptotic_rate(noise, inp, ch)
    wrong = replace(analytic, K_I=100.0 * analytic.K_I)
    b = rc.sample_paths(noise, inp, ch, horizon=1, paths=20_000, master_seed=2)
    rep = rc.empirical_report(b, wrong)
    assert not any(r.ok for r in rep.rows
                   if r.name == "steady-state innovations covariance")


def test_unstable_noise_error_covariance_tracks_dre():
    noise = scalar_noise(1.5)
    inp = unit_iid_input()
    ch = unit_channel()
    analytic = rc.asymptotic_rate(noise, inp, ch)
    b = rc.sample_paths(noise, inp, ch, horizon=30, paths=8000,
                        master_seed=13)
    assert b.saturated_at is None
    rep = rc.empirical_report(b, analytic)
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
    b = rc.sample_paths(noise, zero_inp, ch, horizon=10, paths=200,
                        master_seed=1)
    rep = rc.empirical_report(b, analytic)
    power_row = next(r for r in rep.rows if r.name == "average power")
    assert power_row.empirical == 0.0
    assert power_row.ok


def test_a_validated_degenerate_initial_covariance_is_sampled_on_its_support():
    # K_S1's eigenvalue -5e-10 is within PSD_SLACK of its scale, so validate accepts it,
    # and the root counts it as zero: S_1 has no component along the second state
    noise = rc.NoiseModel(A=0.5 * np.eye(2), B=np.eye(2), C=[[1.0, 0.0]], N=[[1.0, 0.0]],
                          K_W=np.eye(2), K_S1=np.diag([10.0, -5e-10]))
    assert rc.validate(noise).ok
    batch = rc.sample_paths(noise, unit_iid_input(), unit_channel(), horizon=2, paths=50,
                            master_seed=3)
    assert np.all(batch.S[:, 0, 1] == 0.0)
    assert np.all(batch.S[:, 0, 0] != 0.0)
