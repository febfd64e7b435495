from dataclasses import replace

import numpy as np
import pytest

import riccati_capacity as rc
from conftest import scalar_noise, unit_channel, unit_iid_input


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
                        horizon=80, paths=30, master_seed=5,
                        overflow_guard=1e3)
    assert b.saturated_at is not None
    assert b.horizon < 80
    assert b.S.shape[1] == b.horizon
    assert np.all(np.abs(b.S) <= 1e3)


# ---------------------------------------------------------------- kalman_run


def test_memoryless_innovations_are_centered_outputs():
    noise = rc.memoryless_noise([[1.0]])
    inp = unit_iid_input()
    ch = unit_channel()
    b = rc.sample_paths(noise, inp, ch, horizon=6, paths=40, master_seed=2)
    run = rc.kalman_run(rc.build_augmented(noise, inp, ch), b)
    assert np.allclose(run.innovations, b.Y)


def test_innovation_covariance_sequence_matches_dre():
    noise, inp, ch = colored_setup()
    b = rc.sample_paths(noise, inp, ch, horizon=8, paths=10, master_seed=4)
    run = rc.kalman_run(rc.build_augmented(noise, inp, ch), b)
    aug = rc.build_augmented(noise, inp, ch)
    quad = rc.to_quadruple(aug)
    Pi = aug.K_Theta1.copy()
    for t in range(8):
        K_I = quad.Rhat + quad.Chat @ Pi @ quad.Chat.T
        assert np.allclose(run.K_I_seq[t], K_I)
        Pi = rc.dre_step(quad, Pi)
    # deadbeat filter: the covariance settles to 2.5 after two steps
    assert abs(run.K_I_seq[-1][0, 0] - 2.5) < 1e-12


def test_kalman_run_dimension_mismatch():
    noise, inp, ch = colored_setup()
    b = rc.sample_paths(noise, inp, ch, horizon=4, paths=5, master_seed=0)
    other = rc.build_augmented(scalar_noise(0.5),
                               rc.InputModel(F=[[0.5]], G=[[1.0]],
                                             Gamma=[[1.0]], D=[[0.0]],
                                             K_Z=[[1.0]]),
                               ch)
    with pytest.raises(ValueError):
        rc.kalman_run(other, b)


# ----------------------------------------------------------- empirical_report


def test_report_builds_one_joint_system_and_no_quadruple(monkeypatch):
    noise, inp, ch = colored_setup()
    analytic = rc.asymptotic_rate(noise, inp, ch)
    built = {"joint": 0, "quadruple": 0}
    joint_init = rc.JointSystem.__init__
    quad_post_init = rc.SystemQuadruple.__post_init__

    def count_joint(self, *args):
        built["joint"] += 1
        joint_init(self, *args)

    def count_quadruple(self):
        built["quadruple"] += 1
        quad_post_init(self)

    monkeypatch.setattr(rc.JointSystem, "__init__", count_joint)
    monkeypatch.setattr(rc.SystemQuadruple, "__post_init__", count_quadruple)
    b = rc.sample_paths(noise, inp, ch, horizon=3, paths=20, master_seed=1)
    rc.empirical_report(b, analytic)
    assert built == {"joint": 1, "quadruple": 0}


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
