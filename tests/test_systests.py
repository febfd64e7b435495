import numpy as np
import pytest

import riccati_capacity as rc
from conftest import scalar_noise, unit_channel, unit_iid_input


# ---------------------------------------------------------------- psd_sqrt


def test_sqrt_identity():
    assert np.allclose(rc.psd_sqrt(np.eye(3)), np.eye(3))


def test_sqrt_diagonal():
    assert np.allclose(rc.psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_sqrt_projector_is_itself():
    P = np.array([[0.5, -0.5], [-0.5, 0.5]])
    assert np.allclose(rc.psd_sqrt(P), P)


def test_sqrt_squares_back(rng):
    L = rng.normal(size=(4, 4))
    M = L @ L.T
    S = rc.psd_sqrt(M)
    assert np.allclose(S @ S, M)


def test_sqrt_small_negative_eigenvalue_clamped():
    assert np.allclose(rc.psd_sqrt([[-1e-12]]), [[0.0]])


def test_sqrt_rejects_indefinite():
    with pytest.raises(ValueError, match="not PSD"):
        rc.psd_sqrt([[-1.0]])


# ----------------------------------------------------------- starred system


def test_starred_scalar_family():
    star = rc.starred_system(rc.to_quadruple(scalar_noise(1.5)))
    assert np.allclose(star.A_star, [[0.5]])
    assert np.allclose(star.B_star, [[0.0]], atol=1e-14)


def test_starred_C_zero_keeps_A():
    quad = rc.to_quadruple(rc.NoiseModel(A=[[0.7]], B=[[1.0]], C=[[0.0]],
                                         N=[[1.0]], K_W=[[1.0]]))
    star = rc.starred_system(quad)
    assert np.allclose(star.A_star, [[0.7]])
    assert np.allclose(star.B_star, [[0.0]], atol=1e-14)


def test_starred_wide_N_projects():
    quad = rc.to_quadruple(rc.NoiseModel(A=[[0.5]], B=[[1.0, 0.0]],
                                         C=[[1.0]], N=[[1.0, 0.0]],
                                         K_W=np.eye(2)))
    star = rc.starred_system(quad)
    assert np.allclose(star.B_star, np.diag([0.0, 1.0]), atol=1e-12)


# ---------------------------------------------------------------- pbh_test


def test_pbh_detectable_scalar_unstable():
    ok, wit = rc.pbh_test([[1.5]], [[1.0]], mode="detectable")
    assert ok
    assert wit[0]["tested"]
    assert wit[0]["rank"] == 1


def test_pbh_undetectable_scalar():
    ok, wit = rc.pbh_test([[1.5]], [[0.0]], mode="detectable")
    assert not ok
    assert not wit[0]["ok"]


def test_pbh_stable_matrix_vacuous():
    ok, wit = rc.pbh_test([[0.5]], [[0.0]], mode="stabilizable")
    assert ok
    assert not wit[0]["tested"]


def test_pbh_unit_circle_mode_only_tests_modulus_one():
    A = np.diag([1.0, 1.5])
    V = np.array([[1.0], [0.0]])
    ok, wit = rc.pbh_test(A, V, mode="unit_circle_controllable")
    # the eigenvalue at 1.5 is off the unit circle, so only the unit
    # root matters and it is reachable
    assert ok
    tested = [w for w in wit if w["tested"]]
    assert len(tested) == 1


def test_pbh_witnesses_are_json_friendly():
    import json
    _, wit = rc.pbh_test([[1.2]], [[1.0]], mode="detectable")
    json.dumps([dict(w) for w in wit])


def test_pbh_empty_state():
    ok, wit = rc.pbh_test(np.zeros((0, 0)), np.zeros((1, 0)),
                          mode="detectable")
    assert ok
    assert wit == ()


# ------------------------------------------------------- feasibility report


def test_unstable_noise_memoryless_input_is_member():
    inp = rc.InputModel(F=[[0.0]], G=[[0.0]], Gamma=[[0.0]], D=[[1.0]],
                        K_Z=[[1.0]])
    rep = rc.feasibility_report(scalar_noise(1.5), inp, unit_channel())
    assert rep.noise_detectable
    assert rep.noise_stabilizable
    assert rep.augmented_detectable
    assert rep.augmented_stabilizable
    assert rep.input_F_stable
    assert rep.member_of_P_infinity


def test_unit_root_input_state_not_member():
    inp = rc.InputModel(F=[[1.0]], G=[[1.0]], Gamma=[[1.0]], D=[[0.0]],
                        K_Z=[[1.0]])
    rep = rc.feasibility_report(scalar_noise(0.5), inp, unit_channel())
    assert not rep.input_F_stable
    assert not rep.member_of_P_infinity


def test_undetectable_noise_not_member():
    noise = rc.NoiseModel(A=[[1.5]], B=[[1.0]], C=[[0.0]], N=[[1.0]],
                          K_W=[[1.0]])
    rep = rc.feasibility_report(noise, unit_iid_input(), unit_channel())
    assert not rep.noise_detectable
    assert not rep.member_of_P_infinity


def test_report_carries_witnesses_for_all_tests():
    rep = rc.feasibility_report(scalar_noise(1.2), unit_iid_input(),
                                unit_channel())
    for key in ("noise_detectable", "noise_stabilizable",
                "augmented_detectable", "augmented_stabilizable",
                "unit_circle_noise", "unit_circle_augmented"):
        assert key in rep.witnesses


def test_invalid_model_raises():
    bad = rc.NoiseModel(A=[[0.5]], B=[[1.0]], C=[[1.0]], N=[[0.0]],
                        K_W=[[1.0]])
    with pytest.raises(ValueError, match="R not positive definite"):
        rc.feasibility_report(bad, unit_iid_input(), unit_channel())


def test_stable_dynamics_make_detectability_vacuous(rng):
    from conftest import random_models
    for _ in range(10):
        noise, inp = random_models(rng, rho_A=0.8, rho_F=0.6)
        rep = rc.feasibility_report(noise, inp, unit_channel())
        # A and blkdiag(F, A) have no modes outside the unit disc, so
        # the detectability rank conditions never engage; the starred
        # matrices can still be unstable, so stabilizability is left alone
        assert rep.noise_detectable
        assert rep.augmented_detectable
        assert rep.input_F_stable


NOISE_UNCONTROLLABLE_AT_03 = rc.NoiseModel(A=np.diag([0.5, 0.3]), B=[[1.0], [0.0]],
                                           C=[[1.0, 1.0]], N=[[1.0]], K_W=[[1.0]])
INPUT_UNOBSERVABLE_AT_02 = rc.InputModel(F=np.diag([0.5, 0.2]), G=[[1.0], [1.0]],
                                         Gamma=[[1.0, 0.0]], D=[[0.0]], K_Z=[[1.0]])


@pytest.mark.parametrize("noise, inp, expected", [
    (NOISE_UNCONTROLLABLE_AT_03, unit_iid_input(),
     ("noise realization not controllable at eigenvalue 0.3; it may not be minimal",)),
    (scalar_noise(0.5), INPUT_UNOBSERVABLE_AT_02,
     ("input realization not observable at eigenvalue 0.2; it may not be minimal",)),
    (scalar_noise(0.5), unit_iid_input(), ()),
])
def test_minimality_warnings_name_the_first_failing_eigenvalue(noise, inp, expected):
    rep = rc.feasibility_report(noise, inp, unit_channel())
    assert rep.warnings == expected
