"""Independent references the benchmark scores the library against.

Nothing here calls the library's own recursions. Steady states come from
scipy's Schur-based DARE and Lyapunov solvers, finite-block log-dets
from the stacked output covariance built out of the impulse response,
and the memoryless optimum from closed-form water-filling. Model objects
are read only as plain arrays.
"""

import numpy as np
import scipy.linalg as sla

# Tolerances, fixed before any run. A steady-state matrix passes when its
# sup-norm error is within P_RTOL of the oracle's sup-norm; a rate or power
# passes within RATE_ATOL absolute or relative, whichever is looser.
P_RTOL = 1e-6
RATE_ATOL = 1e-6


def _sym(M):
    return 0.5 * (M + M.T)


def _logdet(K):
    sign, value = np.linalg.slogdet(K)
    if sign <= 0:
        raise np.linalg.LinAlgError("covariance is not positive definite")
    return float(value)


def noise_system(noise):
    """(A, B, C, D, K) of the noise prediction problem."""
    return noise.A, noise.B, noise.C, noise.N, noise.K_W


def joint_system(noise, input, H):
    """(A, B, C, D, K) of the stacked (input, noise) state driving Y."""
    A = sla.block_diag(input.F, noise.A)
    B = sla.block_diag(input.G, noise.B)
    C = np.hstack([H @ input.Gamma, noise.C])
    D = np.hstack([H @ input.D, noise.N])
    K = sla.block_diag(input.K_Z, noise.K_W)
    return A, B, C, D, K


def dare(system):
    """Stabilizing solution of the filter Riccati equation of a system.

    The filter equation in (A, C) with weights Q = B K B^T, R = D K D^T
    and S = B K D^T is scipy's control-form DARE on (A^T, C^T).
    """
    A, B, C, D, K = system
    if A.shape[0] == 0:
        return np.zeros((0, 0))
    X = sla.solve_discrete_are(A.T, C.T, B @ K @ B.T, D @ K @ D.T, s=B @ K @ D.T)
    return _sym(X)


def innovations_cov(system, P):
    A, B, C, D, K = system
    return _sym(D @ K @ D.T + C @ P @ C.T)


def closed_loop_radius(system, P):
    """Spectral radius of the predictor loop A - L C at a filter Riccati solution P."""
    A, B, C, D, K = system
    if A.shape[0] == 0:
        return 0.0
    L = (A @ P @ C.T + B @ K @ D.T) @ np.linalg.inv(innovations_cov(system, P))
    return float(np.max(np.abs(np.linalg.eigvals(A - L @ C))))


def lyapunov(F, G, K_Z):
    if F.shape[0] == 0:
        return np.zeros((0, 0))
    return _sym(sla.solve_discrete_lyapunov(F, G @ K_Z @ G.T))


def steady_state(noise, input, H):
    """Oracle steady states, rate and power of a (noise, input, H) triple."""
    ns, js = noise_system(noise), joint_system(noise, input, H)
    Sigma, Pi = dare(ns), dare(js)
    P = lyapunov(input.F, input.G, input.K_Z)
    gap = _logdet(innovations_cov(js, Pi)) - _logdet(innovations_cov(ns, Sigma))
    power = float(np.trace(input.Gamma @ P @ input.Gamma.T)
                  + np.trace(input.D @ input.K_Z @ input.D.T))
    return {
        "Sigma": Sigma, "Pi": Pi, "P": P,
        "Sigma_rho": closed_loop_radius(ns, Sigma), "Pi_rho": closed_loop_radius(js, Pi),
        "rate": 0.5 * max(0.0, gap), "power": power,
        "K_I": innovations_cov(js, Pi),
    }


def rel_error(X, ref):
    """Sup-norm error of X relative to the sup-norm of the reference."""
    X = np.asarray(X, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if ref.size == 0:
        return 0.0
    if X.shape != ref.shape or not np.all(np.isfinite(X)):
        return np.inf
    return float(np.max(np.abs(X - ref)) / max(float(np.max(np.abs(ref))), 1e-300))


def matrix_ok(X, ref, rtol=P_RTOL):
    return rel_error(X, ref) <= rtol


def value_ok(value, ref, atol=RATE_ATOL):
    value = float(value)
    return np.isfinite(value) and abs(value - ref) <= atol * max(1.0, abs(ref))


def output_logdet(systems, K_1):
    """log det of the covariance of (Y_1, ..., Y_n) of a time-varying system.

    ``systems`` lists (A_t, B_t, C_t, D_t, K_t) for t = 1..n with
    x_{t+1} = A_t x_t + B_t w_t, Y_t = C_t x_t + D_t w_t, x_1 ~ (0, K_1)
    and independent w_t ~ (0, K_t). The stacked outputs are a linear map
    of (x_1, w_1, ..., w_n), assembled column block by column block.
    """
    m = K_1.shape[0]
    widths = [s[4].shape[0] for s in systems]
    total = m + sum(widths)
    q = systems[0][2].shape[0]
    M = np.zeros((len(systems) * q, total))
    state = np.zeros((m, total))
    state[:, :m] = np.eye(m)
    col = m
    for t, (A, B, C, D, K) in enumerate(systems):
        drive = np.zeros((K.shape[0], total))
        drive[:, col:col + K.shape[0]] = np.eye(K.shape[0])
        M[t * q:(t + 1) * q] = C @ state + D @ drive
        state = A @ state + B @ drive
        col += K.shape[0]
    cov = M @ sla.block_diag(K_1, *[s[4] for s in systems]) @ M.T
    return _logdet(_sym(cov))


def waterfilling_rate(gains, kappa):
    """Closed-form water-filling rate over parallel channels with these gains.

    Modes are activated strongest first; the water level is the one at
    which the active set spends exactly kappa.
    """
    inv = np.sort(1.0 / np.asarray(gains, dtype=float))
    for k in range(len(inv), 0, -1):
        level = (kappa + float(np.sum(inv[:k]))) / k
        if level > inv[k - 1]:
            return 0.5 * float(np.sum(np.log(level / inv[:k])))
    return 0.0
