"""Discrete Lyapunov recursion for the input-state covariance.

P_{t+1} = F P_t F^T + G K_Z G^T propagates cov(Xi_t); when F is
exponentially stable the iterates converge to the unique PSD fixed
point, which ``lyap_solve`` reaches by Smith doubling, the kernel that
also solves the Riccati solver's Newton steps. ``input_power`` turns a
state covariance into the power tr(Gamma P Gamma^T + D K_Z D^T).
"""

from dataclasses import dataclass

import numpy as np

from .linalg import as_covariance, as_finite, sup_norm, symmetrize

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
    F = as_finite(F, "F")
    G = as_finite(G, "G")
    if F.shape[0] != F.shape[1]:
        raise ValueError(f"F not square (shape {F.shape})")
    if G.shape[0] != F.shape[0]:
        raise ValueError(f"G has {G.shape[0]} rows, expected {F.shape[0]}")
    return F, G, as_covariance(K_Z, G.shape[1], "K_Z")


def lyap_step(F, G, K_Z, P_t):
    """One step of the covariance recursion, symmetrized.

    Returns F P_t F^T + G K_Z G^T. F and G must be finite, K_Z and P_t
    finite, symmetric and PSD, else ValueError.
    """
    F, G, K_Z = _coerce(F, G, K_Z)
    return _step(F, G, K_Z, as_covariance(P_t, F.shape[0], "P_t"))


def _step(F, G, K_Z, P):
    # core update; callers guarantee P is symmetric PSD
    return symmetrize(F @ P @ F.T + G @ K_Z @ G.T)


def input_power(input, P):
    """Average power tr(Gamma P Gamma^T + D K_Z D^T) of an input whose state has covariance P.

    Stacked slots and covariances, (..., k, k), give the power of each.
    """
    Gamma, D = input.Gamma, input.D
    power = (np.trace(Gamma @ P @ Gamma.swapaxes(-1, -2), axis1=-2, axis2=-1)
             + np.trace(D @ input.K_Z @ D.swapaxes(-1, -2), axis1=-2, axis2=-1))
    return float(power) if power.ndim == 0 else power


def _check_tol(tol):
    # one rule for every steady-state solver: a relative tolerance in (0, inf)
    tol = float(tol)
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    return tol


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
        Noise gain and noise covariance; all three finite, K_Z
        symmetric PSD.
    tol : float
        Relative stopping tolerance: doubling stops once an increment's
        sup-norm is at most ``tol`` times that of the partial sum;
        0 < tol < inf, else ValueError.

    Returns
    -------
    LyapunovSolution

    Raises
    ------
    ValueError
        If an input is malformed, or F is not exponentially stable; the
        message then carries the offending eigenvalue.
    """
    tol = _check_tol(tol)
    F, G, K_Z = _coerce(F, G, K_Z)
    eigs = np.linalg.eigvals(F)
    if eigs.size and np.max(np.abs(eigs)) > 1.0 - STABILITY_MARGIN:
        worst = eigs[int(np.argmax(np.abs(eigs)))]
        raise ValueError(
            f"F is not exponentially stable: spectral radius {abs(worst):.12g} "
            f"from eigenvalue {worst:.12g}"
        )
    Q = symmetrize(G @ K_Z @ G.T)
    P = _smith(F, Q, tol)
    return LyapunovSolution(P_star=P, residual=sup_norm(F @ P @ F.T + Q - P), method="doubling")
