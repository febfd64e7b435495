"""Independent reference computations the tests compare against.

Everything here deliberately avoids the library's own recursions: the
steady states come from scipy's generalized Schur solvers, and the
block-covariance assembly reconstructs output statistics directly from
the impulse response, so agreement is evidence rather than tautology.
"""

import numpy as np
import scipy.linalg

# hand-checked constants, frozen
HALF_LN2 = 0.34657359027997264          # 0.5 * ln 2
HALF_LN2_5 = 0.45814536593707755        # 0.5 * ln 2.5
WF_TWO_MODE = 0.8109302162163288        # H=diag(1,2), R=I, kappa=1:
                                        # water level 1.125, powers 0.875/0.125,
                                        # 0.5*ln(1.125) + 0.5*ln(4.5) = 0.5*ln(5.0625)
DRE_THIRD = 1.0 / 36.0                  # third iterate of the a=0.5 scalar
                                        # family from P=1: 0.25*0.125 + 1
                                        # - 1.0625**2/1.125


def dare_steady_state(quad):
    """Stabilizing solution of the filter Riccati equation.

    Uses the control-form dual: the filter equation in (Ahat, Chat)
    with weights (Qhat, Rhat, Shat) is scipy's solve_discrete_are on
    (Ahat^T, Chat^T, Qhat, Rhat, s=Shat).
    """
    X = scipy.linalg.solve_discrete_are(
        quad.Ahat.T, quad.Chat.T, quad.Qhat, quad.Rhat, s=quad.Shat
    )
    return 0.5 * (X + X.T)


def lyap_steady_state(F, G, K_Z):
    F = np.atleast_2d(np.asarray(F, dtype=float))
    G = np.atleast_2d(np.asarray(G, dtype=float))
    K_Z = np.atleast_2d(np.asarray(K_Z, dtype=float))
    P = scipy.linalg.solve_discrete_lyapunov(F, G @ K_Z @ G.T)
    return 0.5 * (P + P.T)


def _spectrum(A, B, C, D, K, z):
    # T(z) K T(z)^H at each z, with T(z) = C (zI - A)^-1 B + D
    T = C @ np.linalg.solve(z[:, None, None] * np.eye(len(A)) - A, B) + D
    return T @ K @ T.conj().swapaxes(-1, -2)


def _unstable_poles(A):
    # 2 sum log|lam| over the eigenvalues of A outside the unit circle
    moduli = np.abs(np.linalg.eigvals(A))
    if np.any(np.abs(moduli - 1.0) < 1e-6):
        raise ValueError("an eigenvalue lies within 1e-6 of the unit circle")
    return 2.0 * float(np.sum(np.log(moduli[moduli > 1.0])))


def spectral_logdets(noise, input, channel):
    """log det K_I, log det K_Ihat and the asymptotic rate from the spectra alone.

    With T_V(z) = C (zI - A)^-1 B + N and S_V = T_V K_W T_V^H on the unit
    circle, S_X the same for the input and S_Y = S_V + H S_X H^T
    (Kolmogorov-Szego, with the unstable-pole term that the innovations of
    an unstable model carry):

        log det K_Ihat = (1/2pi) int log det S_V dw + 2 sum_{|lam(A)| > 1} log|lam|
        log det K_I    = (1/2pi) int log det S_Y dw + 2 sum_{|lam(A)|, |lam(F)| > 1} log|lam|
        rate           = (log det K_I - log det K_Ihat) / 2,

    so with F stable, rate = (1/4pi) int [log det S_Y - log det S_V] dw. No
    Riccati or Lyapunov equation is solved; only the models' arrays are
    read. Each integral is a midpoint sum over [0, pi], since log det S(-w)
    = log det S(w), on a grid doubled from 64 points until no value moves
    by 1e-14 of max(1, |value|). Returns (log det K_I, log det K_Ihat,
    rate, points of the last grid). Raises ValueError for an A or F with
    an eigenvalue within 1e-6 of the unit circle.
    """
    H = channel.H
    poles_A, poles_F = _unstable_poles(noise.A), _unstable_poles(input.F)

    def values(points):
        z = np.exp(1j * np.pi * (np.arange(points) + 0.5) / points)
        S_V = _spectrum(noise.A, noise.B, noise.C, noise.N, noise.K_W, z)
        S_X = _spectrum(input.F, input.G, input.Gamma, input.D, input.K_Z, z)
        ld_V = np.linalg.slogdet(S_V)[1]
        ld_Y = np.linalg.slogdet(S_V + H @ S_X @ H.T)[1]
        return np.array([ld_Y.mean() + poles_A + poles_F, ld_V.mean() + poles_A,
                         0.5 * ((ld_Y - ld_V).mean() + poles_F)])

    points, before = 64, values(64)
    while points < 2**20:
        points *= 2
        now = values(points)
        if np.all(np.abs(now - before) < 1e-14 * np.maximum(1.0, np.abs(now))):
            return (*map(float, now), points)
        before = now
    raise RuntimeError(f"the spectral integrals did not settle on {points} points")


def noise_modes(noise, H, grid):
    """Eigenvalues of H^-1 S_V H^-T at the midpoints of ``grid`` cells of [0, pi], ascending.

    S_V = T_V K_W T_V^H on the unit circle, as in ``spectral_logdets``; the
    noise as the input sees it through the square, invertible H. Returns a
    (grid, n_x) array; S_V(-w) is the conjugate of S_V(w), with the same
    eigenvalues, so the half circle covers the whole.
    """
    z = np.exp(1j * np.pi * (np.arange(grid) + 0.5) / grid)
    H_inv = np.linalg.inv(H)
    S_V = _spectrum(noise.A, noise.B, noise.C, noise.N, noise.K_W, z)
    return np.linalg.eigvalsh(H_inv @ S_V @ H_inv.T)


def spectral_capacity(noise, H, kappa, grid):
    """Nonfeedback capacity by water-filling over frequency and the noise's eigenmodes.

    Pours the budget kappa over the ``noise_modes`` lambda_i(w) of the grid,
    each cell weighing 1 / grid: the level nu solves mean_w sum_i (nu -
    lambda_i(w))_+ = kappa, and the rate is mean_w sum_i (1/2) log(nu /
    lambda_i(w))_+ (Brandenburg & Wyner, 1974; Cover & Thomas, 9.5). No
    Riccati or Lyapunov equation is solved. Returns (rate, nu, full), full
    being the support verdict: nu above every lambda_i(w) on the grid, the
    case in which the optimal input spectrum nu I - H^-1 S_V H^-T is
    positive at every frequency.
    """
    modes = np.sort(noise_modes(noise, H, grid).ravel())
    # with the k smallest modes active the level is (grid kappa + their sum) / k;
    # the active count is the largest k whose level lies above its k-th mode
    levels = (grid * kappa + np.cumsum(modes)) / np.arange(1, modes.size + 1)
    k = int(np.flatnonzero(levels > modes)[-1]) + 1
    nu = float(levels[k - 1])
    rate = 0.5 * float(np.sum(np.log(nu / modes[:k]))) / grid
    return rate, nu, k == modes.size


def joint_output_covariance(A, B, C, D, K_1, K_drive, n):
    """Covariance of the stacked outputs of a linear Gaussian system.

    The model is x_{t+1} = A x_t + B w_t, y_t = C x_t + D w_t with
    x_1 ~ (0, K_1) independent of the i.i.d. w_t ~ (0, K_drive); the
    same w_t appears in both equations. Returns the n*ny x n*ny
    covariance of (y_1, ..., y_n) assembled from the impulse response.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    K_1 = np.atleast_2d(np.asarray(K_1, dtype=float))
    K_drive = np.atleast_2d(np.asarray(K_drive, dtype=float))
    ns = A.shape[0]
    ny = C.shape[0]
    nw = D.shape[1]
    powers = [np.eye(ns)]
    for _ in range(n - 1):
        powers.append(A @ powers[-1])
    M = np.zeros((n * ny, ns + n * nw))
    for t in range(1, n + 1):
        rows = slice((t - 1) * ny, t * ny)
        M[rows, :ns] = C @ powers[t - 1]
        for j in range(1, t):
            cols = slice(ns + (j - 1) * nw, ns + j * nw)
            M[rows, cols] = C @ powers[t - 1 - j] @ B
        cols = slice(ns + (t - 1) * nw, ns + t * nw)
        M[rows, cols] = D
    blocks = [K_1] + [K_drive] * n
    K = M @ scipy.linalg.block_diag(*blocks) @ M.T
    return 0.5 * (K + K.T)


def joint_output_covariance_tv(A, B, C, D, K_1, K_drive):
    """Covariance of the stacked outputs of a time-varying linear Gaussian system.

    The model is x_{t+1} = A_t x_t + B_t w_t, y_t = C_t x_t + D_t w_t
    with x_1 ~ (0, K_1) independent of the independent w_t ~ (0, K_t).
    A, B, C, D and K_drive are lists of per-step matrices, entry t - 1
    holding step t; every w_t has the same size. Row block t of the
    impulse response holds C_t A_{t-1} ... A_1 against x_1,
    C_t A_{t-1} ... A_{j+1} B_j against w_j for j < t, and D_t against
    w_t.
    """
    n = len(C)
    ns = K_1.shape[0]
    ny, nw = D[0].shape
    M = np.zeros((n * ny, ns + n * nw))

    def cols(j):
        return slice(ns + j * nw, ns + (j + 1) * nw)

    for t in range(n):
        rows = slice(t * ny, (t + 1) * ny)
        M[rows, cols(t)] = D[t]
        Phi = np.eye(ns)
        for j in range(t - 1, -1, -1):
            M[rows, cols(j)] = C[t] @ Phi @ B[j]
            Phi = Phi @ A[j]
        M[rows, :ns] = C[t] @ Phi
    K = M @ scipy.linalg.block_diag(K_1, *K_drive) @ M.T
    return 0.5 * (K + K.T)


def innovations_covariances(K, ny):
    """Per-step innovations covariances of stacked outputs with covariance K.

    Entry t - 1 is the Schur complement of the leading (t - 1) ny rows
    and columns in the leading t ny ones: the covariance of y_t minus its
    best linear prediction from y_1, ..., y_{t-1}.
    """
    out = []
    for t in range(K.shape[0] // ny):
        past, now = slice(0, t * ny), slice(t * ny, (t + 1) * ny)
        S = K[now, now]
        if t:
            S = S - K[now, past] @ np.linalg.solve(K[past, past], K[past, now])
        out.append(0.5 * (S + S.T))
    return out


def logdet_pd(K):
    sign, ld = np.linalg.slogdet(K)
    if sign <= 0:
        raise ValueError("matrix is not positive definite")
    return float(ld)


def pbh_rank(A, V, lam, mode):
    """Numerical rank of the PBH matrix of (A, V) at lam.

    The matrix is [A - lam I; V] in mode "detectable" (V with A's columns)
    and [A - lam I, V] otherwise; the rank counts singular values above
    sigma_max * max(dims) * 1e-12, the library's SV_RTOL.
    """
    shifted = A - lam * np.eye(A.shape[0])
    M = np.vstack([shifted, V]) if mode == "detectable" else np.hstack([shifted, V])
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > s[0] * max(M.shape) * 1e-12))


def pbh_verdict(A, V, mode):
    """PBH verdict from one SVD per tested eigenvalue of A.

    Tested are the eigenvalues with |lam| >= 1 - 1e-9, or with
    ||lam| - 1| <= 1e-9 in mode "unit_circle_controllable" (1e-9 is the
    library's STABILITY_MARGIN); the verdict holds iff the PBH rank is full at each.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    V = np.atleast_2d(np.asarray(V, dtype=float))
    for lam in np.linalg.eigvals(A):
        if mode == "unit_circle_controllable":
            tested = abs(abs(lam) - 1.0) <= 1e-9
        else:
            tested = abs(lam) >= 1.0 - 1e-9
        if tested and pbh_rank(A, V, lam, mode) < A.shape[0]:
            return False
    return True


def prediction_error(K, centered, now, past):
    """Entries ``now`` of a centered sample minus their best linear prediction from ``past``.

    K is the covariance of the stacked vector whose sample, its mean
    removed, is ``centered``; ``now`` and ``past`` are index lists. The
    prediction is K[now, past] K[past, past]^-1 centered[past], the
    regression whose error covariance is the Schur complement of
    ``innovations_covariances``.
    """
    if not len(past):
        return centered[now]
    return centered[now] - K[np.ix_(now, past)] @ np.linalg.solve(K[np.ix_(past, past)],
                                                                   centered[past])
