"""Generalized Riccati engine shared by the noise and joint predictors.

One template serves both one-step prediction problems. Writing
Qhat = Bhat Khat Bhat^T, Shat = Bhat Khat Dhat^T, Rhat = Dhat Khat Dhat^T,
the difference equation is

    P+ = Ahat P Ahat^T + Qhat
         - (Ahat P Chat^T + Shat)(Rhat + Chat P Chat^T)^{-1}
           (Ahat P Chat^T + Shat)^T

and the steady state is found by iterating it, which mirrors the
convergence theory the quantities come from. The gain and closed loop
are

    gain(P) = (Ahat P Chat^T + Shat)(Rhat + Chat P Chat^T)^{-1}
    closed_loop(P) = Ahat - gain(P) Chat,

where Rhat + Chat P Chat^T (``innovations_covariance``) is the
covariance of the output's one-step prediction error.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import is_psd, is_symmetric, solve_spd, spectral_radius, symmetrize

__all__ = [
    "RiccatiSolution",
    "dre_step",
    "dre_run",
    "are_solve",
    "gain_and_closed_loop",
    "innovations_covariance",
]

# iterates past this magnitude are declared divergent rather than left to overflow
_DIVERGENCE_BOUND = 1e100


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """Steady-state output of ``are_solve``.

    Attributes
    ----------
    P_star : ndarray
        Fixed-point covariance, symmetric and numerically PSD.
    gain : ndarray
        Predictor gain evaluated at P_star.
    closed_loop : ndarray
        Ahat - gain Chat.
    spectral_radius : float
        Largest eigenvalue magnitude of the closed loop. Strictly below
        one means P_star is the stabilizing solution; values on the unit
        circle are reported, not rejected.
    residual : float
        Sup-norm of the fixed-point defect at P_star.
    iterations : int
        Number of difference-equation steps taken.
    converged : bool
        True iff the step-to-step difference met the tolerance and the
        residual is within ten times the tolerance.
    """

    P_star: np.ndarray
    gain: np.ndarray
    closed_loop: np.ndarray
    spectral_radius: float
    residual: float
    iterations: int
    converged: bool


def innovations_covariance(quad, P):
    """Rhat + Chat P Chat^T: the innovations covariance at prediction-error covariance P."""
    return quad.Rhat + quad.Chat @ P @ quad.Chat.T


def _gain_terms(quad, P):
    # (Ahat P Chat^T + Shat, gain^T); callers guarantee P is symmetric PSD
    APC = quad.Ahat @ P @ quad.Chat.T + quad.Shat
    return APC, solve_spd(innovations_covariance(quad, P), APC.T,
                          context="Riccati denominator")


def _step(quad, P):
    # core update; callers guarantee P is symmetric PSD
    APC, gain_T = _gain_terms(quad, P)
    return symmetrize(quad.Ahat @ P @ quad.Ahat.T + quad.Qhat - APC @ gain_T)


def _check_state(quad, P, who):
    P = np.asarray(P, dtype=np.float64)
    if P.ndim == 0:
        P = P.reshape(1, 1)
    if P.shape != (quad.m, quad.m):
        raise ValueError(f"{who}: P has shape {P.shape}, expected ({quad.m}, {quad.m})")
    if not is_symmetric(P):
        raise ValueError(f"{who}: P is not symmetric")
    if not is_psd(P):
        raise ValueError(f"{who}: P is not positive semidefinite")
    return symmetrize(P)


def dre_step(quad, P_t):
    """One step of the generalized difference Riccati equation.

    Parameters
    ----------
    quad : SystemQuadruple
    P_t : array_like
        Current covariance, symmetric PSD, m x m.

    Returns
    -------
    ndarray
        P_{t+1}, symmetrized.
    """
    P = _check_state(quad, P_t, "dre_step")
    return _step(quad, P)


def dre_run(quad, P_1, horizon):
    """Iterate the DRE for a finite horizon.

    Returns a list of length ``horizon`` whose first element is P_1
    itself, so element t is the covariance entering step t.
    """
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    P = _check_state(quad, P_1, "dre_run")
    out = [P.copy()]
    for _ in range(horizon - 1):
        P = _step(quad, P)
        out.append(P)
    return out


def gain_and_closed_loop(quad, P):
    """Predictor gain and closed-loop matrix at a given covariance.

    gain = (Ahat P Chat^T + Shat)(Rhat + Chat P Chat^T)^{-1} and
    closed_loop = Ahat - gain Chat. The denominator is inverted through
    its Cholesky factorization; it is positive definite whenever the
    model invariants hold.
    """
    P = _check_state(quad, P, "gain_and_closed_loop")
    gain = _gain_terms(quad, P)[1].T
    closed_loop = quad.Ahat - gain @ quad.Chat
    return gain, closed_loop


def are_solve(quad, init=None, tol=1e-11, max_iter=1_000_000):
    """Steady state of the generalized Riccati equation.

    Fixed-point iteration of the DRE until the sup-norm of successive
    differences drops to ``tol`` or ``max_iter`` steps have been taken.
    Slowly converging cases (closed-loop eigenvalues on the unit circle
    decay like 1/t) come back with ``converged=False`` and diagnostics
    instead of raising, as do diverging iterations.

    Parameters
    ----------
    quad : SystemQuadruple or JointSystem
        A JointSystem's ``noise_quad`` serves as well.
    init : array_like, optional
        Starting covariance; zero when omitted. Under the detectability
        and stabilizability conditions the limit does not depend on it,
        which makes warm starting safe.
    tol : float
        Successive-difference stopping tolerance.
    max_iter : int
        Iteration budget.

    Returns
    -------
    RiccatiSolution
    """
    tol = float(tol)
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    max_iter = int(max_iter)
    if init is None:
        P = np.zeros((quad.m, quad.m))
    else:
        P = _check_state(quad, init, "are_solve")
    diff = np.inf
    iterations = 0
    diverged = False
    while iterations < max_iter:
        P_next = _step(quad, P)
        iterations += 1
        diff = float(np.max(np.abs(P_next - P))) if P.size else 0.0
        P = P_next
        if diff <= tol:
            break
        if P.size and (not np.all(np.isfinite(P)) or np.max(np.abs(P)) > _DIVERGENCE_BOUND):
            diverged = True
            break
    if diverged:
        residual = np.inf
        gain = np.full((quad.m, quad.q), np.nan)
        closed_loop = np.full((quad.m, quad.m), np.nan)
        rho = np.inf
    else:
        residual = float(np.max(np.abs(_step(quad, P) - P))) if P.size else 0.0
        gain, closed_loop = gain_and_closed_loop(quad, P)
        rho = spectral_radius(closed_loop)
    converged = (not diverged) and diff <= tol and residual <= 10.0 * tol
    return RiccatiSolution(
        P_star=P,
        gain=gain,
        closed_loop=closed_loop,
        spectral_radius=rho,
        residual=residual,
        iterations=iterations,
        converged=converged,
    )
