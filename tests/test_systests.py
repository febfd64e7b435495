import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import riccati_capacity as rc
from conftest import random_models, scalar_noise, unit_channel, unit_iid_input
from oracles import pbh_rank, pbh_verdict

MODES = ("detectable", "stabilizable", "unit_circle_controllable")


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


def _in_region(lam, mode):
    if mode == "unit_circle_controllable":
        return abs(abs(lam) - 1.0) <= rc.systests.RANK_TOL
    return abs(lam) >= 1.0 - rc.systests.RANK_TOL


def _planted_pair(rng, m, n_u, p, rho_A):
    """(A, V) whose uncontrollable part has n_u distinct planted eigenvalues.

    The controllable block has spectral radius rho_A; the planted
    eigenvalues are real or complex pairs with modulus in [0.3, 1.3] or on
    the unit circle. A random orthogonal similarity hides the split.
    """
    planted, blocks = [], []
    while len(planted) < n_u:
        radius = 1.0 if rng.uniform() < 0.4 else rng.uniform(0.3, 1.3)
        if n_u - len(planted) >= 2 and rng.uniform() < 0.4:
            theta = rng.uniform(0.2, 3.0)
            c, s = radius * np.cos(theta), radius * np.sin(theta)
            blocks.append(np.array([[c, -s], [s, c]]))
            planted += [complex(c, s), complex(c, -s)]
        else:
            lam = radius * rng.choice([-1.0, 1.0])
            if any(abs(lam - mu) < 1e-3 for mu in planted):
                continue
            blocks.append(np.array([[lam]]))
            planted.append(lam)
    A11 = rng.normal(size=(m - n_u, m - n_u))
    if m > n_u:
        A11 *= rho_A / np.max(np.abs(np.linalg.eigvals(A11)))
    A = np.zeros((m, m))
    A[:m - n_u, :m - n_u] = A11
    A[:m - n_u, m - n_u:] = rng.normal(size=(m - n_u, n_u))
    k = m - n_u
    for block in blocks:
        end = k + len(block)
        A[k:end, k:end] = block
        A[k:end, end:] = 0.3 * rng.normal(size=(len(block), m - end))
        k = end
    V = np.zeros((m, p))
    V[:m - n_u] = rng.normal(size=(m - n_u, p))
    Q = np.linalg.qr(rng.normal(size=(m, m)))[0]
    return Q @ A @ Q.T, Q @ V, planted


@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 40), n_u=st.integers(0, 4),
       p=st.integers(1, 3), rho_A=st.floats(0.3, 1.3))
def test_pbh_test_matches_the_svd_oracle(seed, m, n_u, p, rho_A):
    rng = np.random.default_rng(seed)
    A, V, planted = _planted_pair(rng, m, min(n_u, m), p, rho_A)
    for mode in MODES:
        args = (A.T, V.T) if mode == "detectable" else (A, V)
        ok, wit = rc.pbh_test(*args, mode=mode)
        assert ok == pbh_verdict(*args, mode)
        assert len(wit) == m
        # only planted eigenvalues in the region fail, and each one that is simple does;
        # one the controllable part shares splits by round-off and can pass
        lams = np.linalg.eigvals(args[0])
        near = [lam for lam in lams
                if _in_region(lam, mode) and any(abs(lam - mu) < 1e-6 for mu in planted)]
        simple = [lam for lam in near if sum(abs(lam - mu) < 1e-6 for mu in lams) == 1]
        failing = [w for w in wit if not w["ok"]]
        assert len(simple) <= len(failing) <= len(near)
        for w in failing:
            lam = complex(w["eigenvalue_re"], w["eigenvalue_im"])
            assert w["tested"] and w["rank"] == pbh_rank(*args, lam, mode) < m


@pytest.mark.parametrize("mu, stabilizable, on_circle", [
    (0.7, True, True), (1.0, False, False), (-1.0, False, False), (1.3, False, True),
])
def test_decoupled_uncontrollable_mode(mu, stabilizable, on_circle):
    A = np.diag([0.5, mu])
    V = np.array([[1.0], [0.0]])
    expected = {"detectable": stabilizable, "stabilizable": stabilizable,
                "unit_circle_controllable": on_circle}
    for mode in MODES:
        args = (A.T, V.T) if mode == "detectable" else (A, V)
        ok, wit = rc.pbh_test(*args, mode=mode)
        assert ok == expected[mode] == pbh_verdict(*args, mode)
        assert sum(not w["ok"] for w in wit) == (not ok)


def test_uncontrollable_rotation_on_the_unit_circle():
    c, s = np.cos(0.9), np.sin(0.9)
    A = np.array([[0.4, 1.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    V = np.array([[1.0], [0.0], [0.0]])
    for mode in ("stabilizable", "unit_circle_controllable"):
        ok, wit = rc.pbh_test(A, V, mode=mode)
        assert not ok and not pbh_verdict(A, V, mode)
        assert sorted(round(w["modulus"], 9) for w in wit if not w["ok"]) == [1.0, 1.0]


def test_repeated_eigenvalue_is_partly_controllable():
    ok, wit = rc.pbh_test(np.eye(2), [[1.0], [0.0]], mode="stabilizable")
    assert not ok and not pbh_verdict(np.eye(2), [[1.0], [0.0]], "stabilizable")
    # one input reaches one direction of the eigenspace of 1: rank 1 of 2
    # at either copy, so both witnesses fail
    assert [(w["eigenvalue_re"], w["rank"], w["required"], w["ok"]) for w in wit] == [
        (1.0, 1, 2, False), (1.0, 1, 2, False)]


@pytest.mark.parametrize("lam", [1.2, 1.0])
@pytest.mark.parametrize("state, reached", [(2, True), (1, False), (0, False)])
def test_jordan_block_is_reached_only_through_its_last_state(lam, state, reached):
    J = lam * np.eye(3) + np.eye(3, k=1)
    V = np.eye(3)[:, [state]]
    ok, wit = rc.pbh_test(J, V, mode="stabilizable")
    assert ok == reached == pbh_verdict(J, V, "stabilizable")
    assert [w["rank"] for w in wit] == [3 if reached else 2] * 3
    on_circle = reached or lam != 1.0
    assert rc.pbh_test(J, V, mode="unit_circle_controllable")[0] == on_circle
    assert pbh_verdict(J, V, "unit_circle_controllable") == on_circle
    # its dual: the output must read the first state
    C = V.T[:, ::-1]
    assert rc.pbh_test(J, C, mode="detectable")[0] == reached == pbh_verdict(J, C, "detectable")


def test_zero_input_leaves_every_unstable_mode_uncontrollable():
    A = np.diag([1.2, 0.5, -1.0])
    ok, wit = rc.pbh_test(A, np.zeros((3, 2)), mode="stabilizable")
    assert not ok and not pbh_verdict(A, np.zeros((3, 2)), "stabilizable")
    # nothing is controllable, so the witnesses follow eigvals(A)
    assert [w["eigenvalue_re"] for w in wit] == list(np.linalg.eigvals(A).real)
    assert [(w["tested"], w["ok"], w["rank"]) for w in wit] == [
        (True, False, 2), (False, True, None), (True, False, 2)]


@pytest.mark.parametrize("mode", MODES)
def test_empty_state_passes_every_mode(mode):
    V = np.zeros((2, 0)) if mode == "detectable" else np.zeros((0, 2))
    assert rc.pbh_test(np.zeros((0, 0)), V, mode=mode) == (True, ())


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


PARTLY_OBSERVED_INPUT = rc.InputModel(F=[[0.5]], G=[[1.0]], Gamma=[[0.0]], D=[[1.0]],
                                      K_Z=[[1.0]])


def _report_cases():
    rng = np.random.default_rng(7)
    yield scalar_noise(1.5), PARTLY_OBSERVED_INPUT, unit_channel()
    yield (rc.NoiseModel(A=[[1.5]], B=[[1.0]], C=[[0.0]], N=[[1.0]], K_W=[[1.0]]),
           unit_iid_input(), unit_channel())
    for rho_A in (0.8, 1.2):
        noise, inp = random_models(rng, n_s=3, n_xi=2, rho_A=rho_A)
        yield noise, inp, unit_channel()


@pytest.mark.parametrize("noise, inp, channel", list(_report_cases()))
def test_report_witnesses_are_those_of_pbh_test(noise, inp, channel):
    rep = rc.feasibility_report(noise, inp, channel)
    system = rc.build_augmented(noise, inp, channel)
    for label, quad in (("noise", system.noise_quad), ("augmented", system)):
        star = rc.starred_system(quad)
        ctrl = star.G_mat @ star.B_star_sqrt
        expected = {
            label + "_detectable": rc.pbh_test(quad.Ahat, quad.Chat, "detectable"),
            label + "_stabilizable": rc.pbh_test(star.A_star, ctrl, "stabilizable"),
            "unit_circle_" + label: rc.pbh_test(star.A_star, ctrl, "unit_circle_controllable"),
        }
        for key, (ok, wit) in expected.items():
            assert rep.witnesses[key] == wit
            assert all(w["ok"] for w in wit) == ok
        assert getattr(rep, label + "_detectable") == expected[label + "_detectable"][0]
        assert getattr(rep, label + "_stabilizable") == expected[label + "_stabilizable"][0]
    assert rep.witnesses is rep.witnesses


def test_passing_report_takes_no_svd(monkeypatch):
    # the Cholesky certificate settles every rank; an SVD runs only where
    # the certificate fails, next to a failing verdict or warning
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    noise, inp = random_models(np.random.default_rng(3), n_s=6, n_xi=4, rho_A=1.2)
    rep = rc.feasibility_report(noise, inp, unit_channel())
    assert rep.member_of_P_infinity and rep.warnings == ()
    assert calls == []
    bad = rc.NoiseModel(A=[[1.5]], B=[[1.0]], C=[[0.0]], N=[[1.0]], K_W=[[1.0]])
    assert not rc.feasibility_report(bad, inp, unit_channel()).noise_detectable
    assert calls
