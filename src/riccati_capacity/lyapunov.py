"""Discrete Lyapunov recursion for the input-state covariance.

P_{t+1} = F P_t F^T + G K_Z G^T propagates cov(Xi_t); when F is
exponentially stable the iterates converge to the unique PSD fixed
point, which ``lyap_solve`` reaches by Smith doubling, the kernel that
also solves the Riccati solver's Newton steps. ``input_power`` turns a
state covariance into the power tr(Gamma P Gamma^T + D K_Z D^T).
"""

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, is_psd, is_symmetric, sup_norm, symmetrize

__all__ = ["LyapunovSolution", "lyap_step", "lyap_solve", "input_power"]

# F counts as exponentially stable only if its spectral radius clears the
# unit circle by this margin; shared package-wide
STABILITY_MARGIN = 1e-9

# k doublings make 2^k steps; a run unconverged after 2^64 has stopped contracting
MAX_DOUBLINGS = 64


@dataclass(frozen=True, eq=False)
class LyapunovSolution:
    """Steady-state covariance with its defect and the method used.

    ``residual`` is the sup-norm of F P F^T + G K_Z G^T - P at P_star;
    ``method`` is "doubling" (Smith doubling, the only method).
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


def _smith(F, Q, tol):
    # X = F X F^T + Q: X_{k+1} = X_k + F_k X_k F_k^T, F_{k+1} = F_k^2, until an
    # increment is within tol of the sum; callers guarantee rho(F) < 1
    X = symmetrize(Q)
    for _ in range(MAX_DOUBLINGS):
        inc = F @ X @ F.T
        X = symmetrize(X + inc)
        if sup_norm(inc) <= tol * sup_norm(X):
            break
        F = F @ F
    return X


def lyap_solve(F, G, K_Z, tol=1e-11):
    """Unique PSD fixed point of the covariance recursion, by Smith doubling.

    k doublings sum 2^k terms of sum_j F^j G K_Z G^T (F^T)^j, so even
    rho(F) = 1 - 1e-9 takes under forty doublings of O(n^3) work.

    Parameters
    ----------
    F : array_like
        State matrix, spectral radius strictly inside the unit circle.
    G, K_Z : array_like
        Noise gain and PSD noise covariance.
    tol : float
        Relative stopping tolerance: doubling stops once an increment's
        sup-norm is at most ``tol`` times that of the partial sum.

    Returns
    -------
    LyapunovSolution

    Raises
    ------
    ValueError
        If F is not exponentially stable; the message carries the
        offending eigenvalue.
    """
    F, G, K_Z = _coerce(F, G, K_Z)
    eigs = np.linalg.eigvals(F)
    if eigs.size and np.max(np.abs(eigs)) > 1.0 - STABILITY_MARGIN:
        worst = eigs[int(np.argmax(np.abs(eigs)))]
        raise ValueError(
            f"F is not exponentially stable: spectral radius {abs(worst):.12g} "
            f"from eigenvalue {worst:.12g}"
        )
    Q = symmetrize(G @ K_Z @ G.T)
    P = _smith(F, Q, float(tol))
    return LyapunovSolution(P_star=P, residual=sup_norm(F @ P @ F.T + Q - P), method="doubling")
