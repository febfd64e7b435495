"""The numpy kernels of ``linalg`` against scipy's, used here only as oracles."""

import numpy as np
import pytest
import scipy.linalg

import riccati_capacity as rc
from riccati_capacity.capacity import _waterfill
from riccati_capacity.linalg import block_diag, solve_spd
from conftest import random_models


def random_spd(rng, m):
    A = rng.normal(size=(m, m))
    return A @ A.T + m * np.eye(m)


# ---------------------------------------------------------------- solve_spd


@pytest.mark.parametrize("m", [1, 2, 5, 20, 80])
@pytest.mark.parametrize("rhs", [(), (1,), (7,)], ids=["vector", "one-column", "seven-columns"])
def test_solve_spd_matches_cholesky_oracle(rng, m, rhs):
    S = random_spd(rng, m)
    B = rng.normal(size=(m, *rhs))
    X, logdet = solve_spd(S, B, logdet=True)
    expected = scipy.linalg.cho_solve(scipy.linalg.cho_factor(S, lower=True), B)
    assert X.shape == B.shape
    assert np.allclose(X, expected, rtol=1e-10, atol=1e-12 * np.max(np.abs(expected)))
    assert np.allclose(S @ X, B, rtol=1e-10, atol=1e-10 * np.max(np.abs(B)))
    sign, expected_logdet = np.linalg.slogdet(S)
    assert sign == 1.0
    assert abs(logdet - expected_logdet) <= 1e-12 * max(1.0, abs(expected_logdet))
    assert np.array_equal(solve_spd(S, B), X)


def test_solve_spd_reads_only_the_symmetric_part(rng):
    S = random_spd(rng, 5)
    skew = rng.normal(size=(5, 5)) * 1e-13
    B = rng.normal(size=(5, 2))
    assert np.allclose(solve_spd(S + skew - skew.T, B), solve_spd(S, B), rtol=1e-12)


@pytest.mark.parametrize("S", [[[0.0]], [[1.0, 2.0], [2.0, 1.0]], [[-1.0]]])
def test_solve_spd_names_the_matrix_that_is_not_pd(S):
    with pytest.raises(np.linalg.LinAlgError, match="^Rhat is not positive definite$"):
        solve_spd(np.array(S), np.ones((len(S), 1)), context="Rhat")


def test_solve_spd_of_an_empty_matrix():
    X, logdet = solve_spd(np.zeros((0, 0)), np.zeros((0, 3)), logdet=True)
    assert X.shape == (0, 3) and logdet == 0.0


# ---------------------------------------------------------------- block_diag


BLOCK_CASES = {
    "square": ([[1.0, 2.0], [3.0, 4.0]], [[5.0]]),
    "rectangular": ([[1.0, 2.0, 3.0]], [[4.0], [5.0]]),
    "empty (0,0)": (np.zeros((0, 0)), [[1.0]], np.zeros((0, 0))),
    "empty (2,0)": ([[1.0]], np.zeros((2, 0)), [[2.0, 3.0]]),
    "empty (0,3)": (np.zeros((0, 3)), [[1.0]]),
    "only empty": (np.zeros((0, 0)), np.zeros((2, 0)), np.zeros((0, 3))),
    "scalar and vector": (1.0, [2.0, 3.0], [[4.0, 5.0], [6.0, 7.0]]),
    "integers": (np.array([[1, 2]], dtype=np.int32), np.array([[3]], dtype=np.int64)),
    "mixed dtypes": (np.array([[1]], dtype=np.int32), [[2.5]]),
    "one block": ([[1.0, 2.0], [3.0, 4.0]],),
    "no block": (),
}


@pytest.mark.parametrize("blocks", BLOCK_CASES.values(), ids=BLOCK_CASES.keys())
def test_block_diag_matches_scipy(blocks):
    got, expected = block_diag(*blocks), scipy.linalg.block_diag(*blocks)
    assert got.shape == expected.shape
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("n_xi", [0, 1, 3])
def test_joint_initial_covariance_matches_scipy(rng, n_xi):
    noise, input_model = random_models(rng, n_s=2, n_xi=max(n_xi, 1))
    if n_xi == 0:
        input_model = rc.iid_input(input_model.K_Z)
    system = rc.build_augmented(noise, input_model, rc.Channel(H=np.eye(1)))
    assert np.array_equal(system.K_Theta1,
                          scipy.linalg.block_diag(input_model.K_Xi1, noise.K_S1))
    assert np.array_equal(rc.to_quadruple(noise).K_Theta1, noise.K_S1)


# ---------------------------------------------------------------- water-filling


def closed_form_waterfilling(gains, kappa):
    # the largest active set k whose water level mu = (kappa + sum_{i<k} 1/g_i) / k
    # lies above 1/g_k; gains in decreasing order
    for k in range(len(gains), 0, -1):
        mu = (kappa + np.sum(1.0 / gains[:k])) / k
        if mu > 1.0 / gains[k - 1]:
            return np.concatenate([mu - 1.0 / gains[:k], np.zeros(len(gains) - k)])
    return np.zeros(len(gains))


@pytest.mark.parametrize("seed", range(6))
def test_waterfilling_matches_whitening_oracle(seed):
    rng = np.random.default_rng(seed)
    n_y, n_x = rng.integers(1, 5, size=2)
    H = rng.normal(size=(n_y, n_x))
    R = random_spd(rng, n_y)
    kappa = float(rng.uniform(0.1, 5.0))
    L = np.linalg.cholesky(R)
    gains = np.linalg.svd(scipy.linalg.solve_triangular(L, H, lower=True),
                          compute_uv=False) ** 2
    powers = closed_form_waterfilling(gains, kappa)
    expected = 0.5 * float(np.sum(np.log1p(gains * powers)))
    rate, alloc = rc.waterfilling_oracle(H, R, kappa)
    assert abs(rate - expected) <= 1e-12 * expected
    assert np.allclose(alloc, powers, rtol=1e-12, atol=1e-12 * kappa)
    assert np.allclose(_waterfill(H, R, kappa)[0], gains, rtol=1e-12)
