"""The numpy kernels of ``linalg`` against scipy's, used here only as oracles."""

import numpy as np
import pytest
import scipy.linalg

import riccati_capacity as rc
from riccati_capacity.capacity import _waterfill, _waterfill_powers
from riccati_capacity.linalg import block_diag, chol_logdet, solve_spd
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
    with pytest.raises(np.linalg.LinAlgError, match="^K_I is not positive definite$"):
        chol_logdet(np.array(S), context="K_I")


@pytest.mark.parametrize("stack, m", [((5,), 1), ((5,), 3), ((), 3)])
def test_log_dets_alone_are_those_of_a_solve(rng, stack, m):
    # a right-hand side without columns skips the solve, not the factor
    S = np.array([random_spd(rng, m) for _ in range(int(np.prod(stack)))]).reshape(stack + (m, m))
    B = rng.normal(size=S.shape[:-1] + (2,))
    X, logdets = solve_spd(S, B[..., :0], logdet=True)
    assert X.shape == B[..., :0].shape
    assert np.array_equal(logdets, solve_spd(S, B, logdet=True)[1])


def test_solve_spd_of_an_empty_matrix():
    X, logdet = solve_spd(np.zeros((0, 0)), np.zeros((0, 3)), logdet=True)
    assert X.shape == (0, 3) and logdet == 0.0
    assert chol_logdet(np.zeros((0, 0))) == 0.0


def test_solve_spd_of_a_stack_of_empty_matrices():
    # one log det per matrix of the stack, as for any other size
    X, logdets = solve_spd(np.zeros((4, 0, 0)), np.zeros((4, 0, 2)), logdet=True)
    assert X.shape == (4, 0, 2)
    assert logdets.shape == (4,) and not logdets.any()
    assert solve_spd(np.zeros((4, 0, 0)), np.zeros((4, 0, 0))).shape == (4, 0, 0)


def test_chol_logdet_is_the_log_det_of_the_cholesky_factor(rng):
    # twice the log of the factor's diagonal, read from the symmetric part
    for m in (1, 2, 5):
        X = rng.normal(size=(m, m))
        S = X @ X.T + np.eye(m)
        skew = 1e-13 * rng.normal(size=(m, m))
        expected = 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(S)))))
        assert chol_logdet(S + skew - skew.T) == pytest.approx(expected, rel=1e-12)
        assert chol_logdet(S) == pytest.approx(np.linalg.slogdet(S)[1], rel=1e-12)


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


def assert_waterfilling_optimal(gains, kappa, powers, rtol=1e-15):
    # the optimality conditions, to rtol: the powers sum to kappa, p_i + 1/g_i is
    # one level mu on the modes with power, and no floor 1/g_i of a mode without
    # power lies below mu; a zero gain, no budget or no positive gain gets no power
    assert np.all(powers >= 0.0) and np.all(powers[gains == 0.0] == 0.0)
    if kappa == 0.0 or not np.any(gains > 0.0):
        assert np.all(powers == 0.0)
        return
    assert abs(np.sum(powers) - kappa) <= rtol * kappa
    active = powers > 0.0
    levels = powers[active] + 1.0 / gains[active]
    mu = np.max(levels)
    assert mu - np.min(levels) <= rtol * mu
    assert np.all(1.0 / gains[(gains > 0.0) & ~active] >= mu * (1.0 - rtol))


@pytest.mark.parametrize("seed", range(4))
def test_waterfill_kernel_meets_the_optimality_conditions(seed):
    # 1 to 11 gains in decreasing order, as the kernel takes them, a tenth of them
    # zero: log-normal gains and budgets, and gains log-uniform over 1e-9 to 1e9
    # with kappa over 1e-6 to 1e6
    rng = np.random.default_rng(seed)
    for i in range(1000):
        n = int(rng.integers(1, 12))
        if i % 2:
            gains, kappa = 10.0 ** rng.uniform(-9.0, 9.0, n), 10.0 ** rng.uniform(-6.0, 6.0)
        else:
            gains, kappa = np.exp(rng.normal(0.0, 3.0, n)), np.exp(rng.normal(0.0, 2.0))
        gains[rng.random(n) < 0.1] = 0.0
        gains = np.sort(gains)[::-1]
        assert_waterfilling_optimal(gains, kappa, _waterfill_powers(gains, kappa))


@pytest.mark.parametrize("gains, kappa, expected", [
    ([], 1.0, []),
    ([2.0, 1.0], 0.0, [0.0, 0.0]),
    ([0.0, 0.0], 1.0, [0.0, 0.0]),
    ([4.0, 1.0, 0.0], 1.0, [0.875, 0.125, 0.0]),  # level 1.125
    ([4.0, 0.5], 1.0, [1.0, 0.0]),  # level 1.25 stays below the floor 2
    # levels near 1e9 and 1e6 that dwarf kappa: the level minus each floor
    # misses the budget by 5e-2 and 3e-8 until it is rescaled onto kappa
    ([1.1e-9, 1.05e-9, 0.0], 1e-6, None),
    ([1e-6, 1e-6 * (1.0 - 1e-9), 1e-6 * (1.0 - 2e-9)], 1e-2, None),
    # kappa below half an ulp of the floor 1e9 leaves the level on it; the budget
    # still goes to the strongest mode
    ([1e-9], 1e-8, [1e-8]),
    ([1e-9, 1e-12], 1e-8, [1e-8, 0.0]),
])
def test_waterfill_kernel_edges(gains, kappa, expected):
    gains = np.array(gains, dtype=float)
    powers = _waterfill_powers(gains, kappa)
    assert powers.shape == gains.shape
    if expected is not None:
        assert np.array_equal(powers, expected)
    assert_waterfilling_optimal(gains, kappa, powers)


def test_one_active_mode_takes_the_budget_exactly():
    # one mode's level minus its floor, (kappa + 1/g) - 1/g, is off kappa by round-off
    # on some draws; the mode takes kappa itself, so sqrt(p) is sqrt(kappa) to the bit
    rng = np.random.default_rng(0)
    for kappa, g in rng.uniform(0.01, 10.0, size=(10_000, 2)):
        assert _waterfill_powers(np.array([g]), kappa)[0] == kappa
        assert np.array_equal(_waterfill_powers(np.array([g, 1e-12]), kappa), [kappa, 0.0])


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
    rate, alloc = rc.waterfilling_oracle(H, R, kappa)
    assert np.allclose(_waterfill(H, R, kappa)[0], gains, rtol=1e-12)
    assert_waterfilling_optimal(gains, kappa, alloc, rtol=1e-12)
    expected = 0.5 * float(np.sum(np.log1p(gains * alloc)))
    assert abs(rate - expected) <= 1e-12 * expected
