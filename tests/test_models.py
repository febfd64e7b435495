import numpy as np
import pytest

import riccati_capacity as rc
from conftest import random_models, scalar_noise, unit_channel, unit_iid_input


def test_scalar_noise_validates_clean():
    report = rc.validate(scalar_noise(0.5))
    assert report.ok
    assert report.violations == ()
    assert bool(report)


def test_zero_K_W_flagged():
    m = rc.NoiseModel(A=[[0.5]], B=[[1.0]], C=[[1.0]], N=[[1.0]], K_W=[[0.0]])
    report = rc.validate(m)
    assert not report.ok
    assert "K_W not positive definite" in report.violations


def test_zero_N_breaks_R():
    m = rc.NoiseModel(A=[[0.5]], B=[[1.0]], C=[[1.0]], N=[[0.0]], K_W=[[1.0]])
    report = rc.validate(m)
    assert "R not positive definite" in report.violations


def test_ragged_matrix_rejected_at_construction():
    with pytest.raises(ValueError, match="A is not rectangular"):
        rc.NoiseModel(A=[[0.5, 1.0], [0.3]], B=[[1.0]], C=[[1.0]],
                      N=[[1.0]], K_W=[[1.0]])


def test_shape_mismatch_reported_by_name():
    m = rc.NoiseModel(A=np.eye(2), B=np.ones((2, 1)), C=[[1.0, 0.0]],
                      N=[[1.0, 1.0]], K_W=[[1.0]])
    report = rc.validate(m)
    assert any(v.startswith("N has") for v in report.violations)


def test_nonfinite_entries_reported():
    m = rc.NoiseModel(A=[[np.nan]], B=[[1.0]], C=[[1.0]], N=[[1.0]],
                      K_W=[[1.0]])
    report = rc.validate(m)
    assert any("non-finite" in v for v in report.violations)


def test_negative_kappa_flagged():
    report = rc.validate(rc.Channel(H=[[1.0]], kappa=-1.0))
    assert any("kappa negative" in v for v in report.violations)


def test_K_Z_may_be_singular():
    m = rc.InputModel(F=[[0.0]], G=[[0.0]], Gamma=[[0.0]], D=[[1.0]],
                      K_Z=[[0.0]])
    assert rc.validate(m).ok


def test_model_arrays_are_frozen():
    m = scalar_noise(0.5)
    with pytest.raises(ValueError):
        m.A[0, 0] = 2.0


def test_default_initial_moments_are_zero():
    m = rc.NoiseModel(A=[[0.5]], B=[[1.0]], C=[[1.0]], N=[[1.0]], K_W=[[1.0]])
    assert np.array_equal(m.mu_S1, np.zeros(1))
    assert np.array_equal(m.K_S1, np.zeros((1, 1)))


# ------------------------------------------------------- augmented assembly


def test_augmented_blocks_scalar():
    inp = rc.InputModel(F=[[0.5]], G=[[1.0]], Gamma=[[0.7]], D=[[1.0]],
                        K_Z=[[2.0]])
    noise = rc.NoiseModel(A=[[1.2]], B=[[1.0]], C=[[1.0]], N=[[1.0]],
                          K_W=[[3.0]])
    aug = rc.build_augmented(noise, inp, unit_channel())
    assert np.allclose(aug.Ahat, [[0.5, 0.0], [0.0, 1.2]])
    assert np.allclose(aug.Chat, [[0.7, 1.0]])
    assert np.allclose(aug.Dhat, [[1.0, 1.0]])
    assert np.allclose(aug.Khat, np.diag([2.0, 3.0]))
    assert aug.m == 2


def test_build_augmented_returns_the_joint_system():
    aug = rc.build_augmented(scalar_noise(0.5), unit_iid_input(), unit_channel())
    assert isinstance(aug, rc.JointSystem)
    assert rc.to_quadruple(aug) is aug


def test_augmented_initial_covariance_is_block_diagonal():
    noise = scalar_noise(0.5, k_s1=0.25)
    inp = rc.InputModel(F=[[0.5]], G=[[1.0]], Gamma=[[1.0]], D=[[0.0]],
                        K_Z=[[1.0]], K_Xi1=[[4.0]])
    aug = rc.build_augmented(noise, inp, unit_channel())
    assert np.allclose(aug.K_Theta1, np.diag([4.0, 0.25]))


def test_H_dimension_mismatch_message():
    with pytest.raises(ValueError, match="H has 2 columns but input n_x = 1"):
        rc.build_augmented(scalar_noise(0.5), unit_iid_input(),
                           rc.Channel(H=[[1.0, 0.0]], kappa=1.0))


# ------------------------------------------------------- quadruple forms


def test_noise_quadruple_measurement_covariance():
    quad = rc.to_quadruple(scalar_noise(0.5))
    assert np.allclose(quad.Dhat @ quad.Khat @ quad.Dhat.T, [[1.0]])
    assert np.allclose(quad.Qhat, [[1.0]])
    assert np.allclose(quad.Shat, [[1.0]])


def test_noise_quadruple_is_the_joint_system_with_no_input(rng):
    noise, _ = random_models(rng, n_s=3, n_y=2)
    quad = rc.to_quadruple(noise)
    assert isinstance(quad, rc.JointSystem)
    assert (quad.n_xi, quad.n_z, quad.m, quad.q) == (0, 0, 3, 2)
    B, N, K_W = noise.B, noise.N, noise.K_W
    assert np.allclose(quad.Qhat, B @ K_W @ B.T, rtol=1e-12, atol=1e-12)
    assert np.allclose(quad.Shat, B @ K_W @ N.T, rtol=1e-12, atol=1e-12)
    assert np.allclose(quad.Rhat, N @ K_W @ N.T, rtol=1e-12, atol=1e-12)
    assert np.array_equal(quad.K_Theta1, noise.K_S1)
    assert np.array_equal(quad.mu_Theta1, noise.mu_S1)


def test_noise_quadruple_validates_the_noise():
    singular = rc.NoiseModel(A=[[0.5]], B=[[1.0]], C=[[1.0]], N=[[0.0]], K_W=[[1.0]])
    with pytest.raises(ValueError, match="noise model invalid: R not positive definite"):
        rc.to_quadruple(singular)
    with pytest.raises(TypeError, match="cannot build a quadruple from InputModel"):
        rc.to_quadruple(unit_iid_input())


def test_noise_quadruple_validates_only_the_noise(monkeypatch):
    calls = []
    validate = rc.models.validate
    monkeypatch.setattr(rc.models, "validate", lambda m: calls.append(m) or validate(m))
    noise = scalar_noise(0.5)
    rc.to_quadruple(noise)
    assert calls == [noise]


def test_augmented_quadruple_measurement_covariance():
    aug = rc.build_augmented(scalar_noise(0.5), unit_iid_input(),
                             unit_channel())
    quad = rc.to_quadruple(aug)
    assert np.allclose(quad.Dhat @ quad.Khat @ quad.Dhat.T, [[2.0]])


def test_degenerate_input_keeps_R():
    inp = rc.InputModel(F=[[0.0]], G=[[0.0]], Gamma=[[0.0]], D=[[1.0]],
                        K_Z=[[0.0]])
    aug = rc.build_augmented(scalar_noise(0.5), inp, unit_channel())
    quad = rc.to_quadruple(aug)
    assert np.allclose(quad.Dhat @ quad.Khat @ quad.Dhat.T, [[1.0]])


def test_memoryless_noise_factory():
    m = rc.memoryless_noise([[2.0]])
    assert m.n_s == 0
    assert np.allclose(m.R, [[2.0]])
    assert rc.validate(m).ok


def test_iid_input_factory_shapes():
    m = rc.iid_input(np.eye(2))
    assert m.n_xi == 0
    assert m.n_z == 2
    assert np.allclose(m.D, np.eye(2))
    assert rc.validate(m).ok
