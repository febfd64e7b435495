"""Generalized Riccati engine shared by the noise and joint predictors.

One template serves both one-step prediction problems. Writing
Qhat = Bhat Khat Bhat^T, Shat = Bhat Khat Dhat^T, Rhat = Dhat Khat Dhat^T,
the difference equation is

    P+ = Ahat P Ahat^T + Qhat
         - (Ahat P Chat^T + Shat)(Rhat + Chat P Chat^T)^{-1}
           (Ahat P Chat^T + Shat)^T

and ``are_solve`` reaches the steady state by structure-preserving
doubling with a Newton polish. The gain and closed loop are

    gain(P) = (Ahat P Chat^T + Shat)(Rhat + Chat P Chat^T)^{-1}
    closed_loop(P) = Ahat - gain(P) Chat,

where Rhat + Chat P Chat^T (``innovations_covariance``) is the
covariance of the output's one-step prediction error.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import is_psd, is_symmetric, solve_spd, spectral_radius, sup_norm, symmetrize
from .lyapunov import MAX_DOUBLINGS, _smith

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

_NEWTON_STEPS = 3  # at most, after doubling, while the residual exceeds tol


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
        Sup-norm of dre_step(P_star) - P_star; infinite after divergence.
    iterations : int
        Doublings (doubling k reaches DRE step 2^k) plus Newton steps.
    converged : bool
        True iff the change between doublings met ``tol`` and the residual
        is within 10 ``tol``, both relative to max(|P_star|, |Qhat|).
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


def _compose(H, A, G, P0):
    # DRE step 2^k from P0 through the doubling triple (A_k, G_k, H_k)
    if P0 is None:
        return H
    return symmetrize(H + A.T @ P0 @ np.linalg.solve(np.eye(len(P0)) + G @ P0, A))


def are_solve(quad, init=None, tol=1e-11, max_iter=MAX_DOUBLINGS):
    """Steady state of the generalized Riccati equation.

    Structure-preserving doubling (Chu, Fan, Lin & Wang, 2004) on the DRE
    without its cross term, P+ = A_s P (I + G P)^{-1} A_s^T + Q_s, where
    A_s = Ahat - Shat Rhat^{-1} Chat, Q_s = Qhat - Shat Rhat^{-1} Shat^T and
    G = Chat^T Rhat^{-1} Chat. Doubling k reaches DRE step 2^k from
    ``init``, converging quadratically, or at rate 1/2 in the critical
    case (Lin & Xu, 2006). While the residual exceeds ``tol``, up to three
    Newton steps follow, each solving D = A_cl D A_cl^T + dre_step(P) - P.
    A run that stops contracting (A = 1, B = 0 decays like 1/t) ends within
    ``max_iter`` doublings at its last finite iterate; it and a diverging
    run return ``converged=False`` instead of raising.

    Parameters
    ----------
    quad : SystemQuadruple or JointSystem
        A JointSystem's ``noise_quad`` serves as well.
    init : array_like, optional
        Starting covariance; zero when omitted. Under the detectability
        and stabilizability conditions the limit does not depend on it,
        which makes warm starting safe.
    tol : float
        Relative stopping tolerance, against max(|P|, |Qhat|) in
        sup-norm, so solutions P* = 0 are reached too.
    max_iter : int
        Budget of doublings, not of DRE steps: doubling k reaches step
        2^k. Larger values are capped at MAX_DOUBLINGS = 64.

    Returns
    -------
    RiccatiSolution
    """
    tol = float(tol)
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    m = quad.m
    P0 = None if init is None else _check_state(quad, init, "are_solve")
    RinvCS = solve_spd(quad.Rhat, np.hstack([quad.Chat, quad.Shat.T]), context="Rhat")
    # the doubling triple in control form: A_0 = A_s^T, G_0 = G, H_0 = Q_s
    A = (quad.Ahat - quad.Shat @ RinvCS[:, :m]).T
    G = symmetrize(quad.Chat.T @ RinvCS[:, :m])
    H = symmetrize(quad.Qhat - quad.Shat @ RinvCS[:, m:])
    P = _compose(H, A, G, P0)
    q_scale = sup_norm(quad.Qhat)
    diff, iterations = np.inf, 0
    # a run that stops contracting keeps its last finite iterate, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        while iterations < min(int(max_iter), MAX_DOUBLINGS) and sup_norm(P) <= _DIVERGENCE_BOUND:
            WiAG = np.linalg.solve(np.eye(m) + G @ H, np.hstack([A, G]))
            A_next = A @ WiAG[:, :m]
            G_next = symmetrize(G + A @ WiAG[:, m:] @ A.T)
            H_next = symmetrize(H + A.T @ H @ WiAG[:, :m])
            P_next = _compose(H_next, A_next, G_next, P0)
            iterations += 1
            if not all(np.all(np.isfinite(M)) for M in (A_next, G_next, P_next)):
                break
            diff = sup_norm(P_next - P)
            A, G, H, P = A_next, G_next, H_next, P_next
            if diff <= tol * max(sup_norm(P), q_scale):
                break
    scale = max(sup_norm(P), q_scale)
    if scale > _DIVERGENCE_BOUND:
        nan = np.full((m, quad.q + m), np.nan)
        return RiccatiSolution(P, nan[:, :quad.q], nan[:, quad.q:], np.inf, np.inf,
                               iterations, False)
    met = diff <= tol * scale
    defect = _step(quad, P) - P
    gain, closed_loop = gain_and_closed_loop(quad, P)
    for _ in range(_NEWTON_STEPS if met else 0):
        if sup_norm(defect) <= tol * scale or spectral_radius(closed_loop) >= 1.0:
            break
        P = symmetrize(P + _smith(closed_loop, defect, tol))
        defect = _step(quad, P) - P
        gain, closed_loop = gain_and_closed_loop(quad, P)
        scale = max(sup_norm(P), q_scale)
        iterations += 1
    residual = sup_norm(defect)
    return RiccatiSolution(
        P_star=P,
        gain=gain,
        closed_loop=closed_loop,
        spectral_radius=spectral_radius(closed_loop),
        residual=residual,
        iterations=iterations,
        converged=met and residual <= 10.0 * tol * scale,
    )
