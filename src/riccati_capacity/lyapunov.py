"""Discrete Lyapunov recursion for the input-state covariance.

P_{t+1} = F P_t F^T + G K_Z G^T propagates cov(Xi_t); when F is
exponentially stable the iterates converge to the unique PSD fixed
point. ``input_power`` turns a state covariance into the average power
tr(Gamma P Gamma^T + D K_Z D^T), at one step or in the steady state.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, is_psd, is_symmetric, spectral_radius, symmetrize

__all__ = ["LyapunovSolution", "lyap_step", "lyap_solve", "input_power"]

# F counts as exponentially stable only if its spectral radius clears the
# unit circle by this margin, otherwise the Kronecker system is
# near-singular and the series diverges anyway; shared package-wide
STABILITY_MARGIN = 1e-9

# above this state dimension the n^2 x n^2 Kronecker solve stops being cheap
_DIRECT_LIMIT = 32

_FIXED_POINT_MAX_ITER = 1_000_000


@dataclass(frozen=True, eq=False)
class LyapunovSolution:
    """Steady-state covariance with its defect and the method used.

    ``method`` is "direct-vectorized" for the Kronecker linear solve and
    "fixed-point" for plain iteration.
    """

    P_star: np.ndarray
    residual: float
    method: str


def _coerce(F, G, K_Z):
    F = as_matrix(F, "F")
    G = as_matrix(G, "G")
    K_Z = as_matrix(K_Z, "K_Z")
    if F.shape[0] != F.shape[1]:
        raise ValueError(f"F not square (shape {F.shape})")
    if G.shape[0] != F.shape[0]:
        raise ValueError(f"G has {G.shape[0]} rows, expected {F.shape[0]}")
    if K_Z.shape != (G.shape[1], G.shape[1]):
        raise ValueError(
            f"K_Z has shape {K_Z.shape}, expected ({G.shape[1]}, {G.shape[1]})"
        )
    return F, G, K_Z


def lyap_step(F, G, K_Z, P_t):
    """One step of the covariance recursion, symmetrized.

    Returns F P_t F^T + G K_Z G^T.
    """
    F, G, K_Z = _coerce(F, G, K_Z)
    P = as_matrix(P_t, "P_t")
    if P.shape != F.shape:
        raise ValueError(f"P_t has shape {P.shape}, expected {F.shape}")
    if not is_symmetric(P):
        raise ValueError("P_t is not symmetric")
    if not is_psd(P):
        raise ValueError("P_t is not positive semidefinite")
    return _step(F, G, K_Z, P)


def _step(F, G, K_Z, P):
    # core update; callers guarantee P is symmetric PSD
    return symmetrize(F @ P @ F.T + G @ K_Z @ G.T)


def input_power(input, P):
    """Average power tr(Gamma P Gamma^T + D K_Z D^T) of an input whose state has covariance P."""
    return float(np.trace(input.Gamma @ P @ input.Gamma.T)
                 + np.trace(input.D @ input.K_Z @ input.D.T))


def _residual(F, Q, P):
    if P.size == 0:
        return 0.0
    return float(np.max(np.abs(F @ P @ F.T + Q - P)))


def lyap_solve(F, G, K_Z, tol=1e-11):
    """Unique PSD fixed point of the covariance recursion.

    Parameters
    ----------
    F : array_like
        State matrix, spectral radius strictly inside the unit circle.
    G, K_Z : array_like
        Noise gain and PSD noise covariance.
    tol : float
        Acceptable sup-norm of the fixed-point defect.

    Returns
    -------
    LyapunovSolution

    Raises
    ------
    ValueError
        If F is not exponentially stable; the message carries the
        offending eigenvalue.

    Notes
    -----
    For state dimension up to 32 the equation is solved directly by
    vectorization: (I - F kron F) vec(P) = vec(G K_Z G^T). Beyond that
    the fixed point is reached by iteration, whose error contracts at
    the squared spectral radius of F.
    """
    F, G, K_Z = _coerce(F, G, K_Z)
    n = F.shape[0]
    if n == 0:
        return LyapunovSolution(P_star=np.zeros((0, 0)), residual=0.0,
                                method="direct-vectorized")
    eigs = np.linalg.eigvals(F)
    rho = float(np.max(np.abs(eigs)))
    if rho > 1.0 - STABILITY_MARGIN:
        worst = eigs[int(np.argmax(np.abs(eigs)))]
        raise ValueError(
            f"F is not exponentially stable: spectral radius {rho:.12g} "
            f"from eigenvalue {worst:.12g}"
        )
    Q = symmetrize(G @ K_Z @ G.T)
    if n <= _DIRECT_LIMIT:
        lhs = np.eye(n * n) - np.kron(F, F)
        P = np.linalg.solve(lhs, Q.ravel()).reshape(n, n)
        P = symmetrize(P)
        return LyapunovSolution(P_star=P, residual=_residual(F, Q, P),
                                method="direct-vectorized")
    P = Q.copy()
    for _ in range(_FIXED_POINT_MAX_ITER):
        P_next = symmetrize(F @ P @ F.T + Q)
        if float(np.max(np.abs(P_next - P))) <= tol:
            P = P_next
            break
        P = P_next
    else:
        raise RuntimeError(
            f"Lyapunov fixed-point iteration did not reach tol={tol} "
            f"within {_FIXED_POINT_MAX_ITER} steps (spectral radius {rho:.6g})"
        )
    return LyapunovSolution(P_star=P, residual=_residual(F, Q, P),
                            method="fixed-point")
