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
    library's RANK_TOL); the verdict holds iff the PBH rank is full at each.
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
