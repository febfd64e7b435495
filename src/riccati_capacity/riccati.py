"""Generalized Riccati engine shared by the noise and joint predictors.

One template serves both one-step prediction problems, and both are a
``models.JointSystem``: the joint one from ``build_augmented``, the
noise-only one its ``noise_quad``, the joint system with no input, which
``to_quadruple(noise)`` also builds. Writing
Qhat = Bhat Khat Bhat^T, Shat = Bhat Khat Dhat^T, Rhat = Dhat Khat Dhat^T
and K = Rhat + Chat P Chat^T, the covariance of the output's one-step
prediction error (the innovations covariance), one prediction step is

    gain(P) = (Ahat P Chat^T + Shat) K^{-1},  closed_loop(P) = Ahat - gain(P) Chat,
    P+ = Ahat P Ahat^T + Qhat - gain(P) (Ahat P Chat^T + Shat)^T.

``_predict`` forms and factors K once and returns (P+, K, log det K,
gain^T). It is the only place a DRE step is built and the only place K
is formed: ``dre_step``, ``dre_run``, ``gain_and_closed_loop``,
``are_solve``'s Newton polish and its last step, both DREs of
``capacity.finite_n_rate`` and ``simulate``'s Kalman pass call it.
``are_solve`` reaches the steady state from zero by structure-preserving
doubling, and its solution keeps K and log det K at P_star.
"""

import math
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .linalg import as_count, as_covariance, solve_spd, spectral_radius, sup_norm, symmetrize
from .lyapunov import MAX_DOUBLINGS, _check_tol, _smith

__all__ = [
    "RiccatiSolution",
    "dre_step",
    "dre_run",
    "are_solve",
    "gain_and_closed_loop",
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
        one means P_star is the stabilizing solution; ``converged`` is
        False otherwise.
    residual : float
        Sup-norm of dre_step(P_star) - P_star; infinite after divergence.
    iterations : int
        Doublings (doubling k reaches DRE step 2^k from zero) plus Newton
        steps.
    converged : bool
        True iff the change between doublings met ``tol``, the residual is
        within 10 ``tol``, both relative to max(|P_star|, |Qhat|), and
        ``spectral_radius`` is below one: P_star is the stabilizing
        solution within tolerance. A fixed point whose closed loop is not
        stable (an undetectable unstable mode: A = 1.5, C = 0 stops at
        P_star = 0 with radius 1.5) is reported with converged=False.
    innovations : ndarray
        The innovations covariance K = Rhat + Chat P_star Chat^T, symmetrized.
    logdet : float
        log det K, from its Cholesky factor.

    A diverged run (infinite ``residual``) has NaN ``gain`` and
    ``closed_loop`` and carries K and log det K at its last finite P_star,
    both NaN where round-off has left that K without a Cholesky factor.
    """

    P_star: np.ndarray
    gain: np.ndarray
    closed_loop: np.ndarray
    spectral_radius: float
    residual: float
    iterations: int
    converged: bool
    innovations: np.ndarray
    logdet: float


def _predict(quad, P, context="Riccati denominator"):
    # (P+, K, log det K, gain^T) from one factorization of K; callers
    # guarantee P is symmetric PSD
    AP = quad.Ahat @ P
    APC = AP @ quad.Chat.T + quad.Shat
    K = quad.Rhat + quad.Chat @ P @ quad.Chat.T
    gain_T, logdet = solve_spd(K, APC.T, context=context, logdet=True)
    return symmetrize(AP @ quad.Ahat.T + quad.Qhat - APC @ gain_T), K, logdet, gain_T


def dre_step(quad, P_t):
    """One step of the generalized difference Riccati equation.

    Parameters
    ----------
    quad : JointSystem
        The joint problem, or the noise-only one (its ``noise_quad``).
    P_t : array_like
        Current covariance, symmetric PSD, m x m.

    Returns
    -------
    ndarray
        P_{t+1}, symmetrized.
    """
    return _predict(quad, as_covariance(P_t, quad.m, "dre_step: P"))[0]


def dre_run(quad, P_1, horizon):
    """Iterate the DRE for a finite horizon.

    Returns a list of length ``horizon`` whose first element is P_1
    itself, so element t is the covariance entering step t.
    """
    horizon = as_count(horizon, "horizon")
    out = [as_covariance(P_1, quad.m, "dre_run: P")]
    for _ in range(horizon - 1):
        out.append(_predict(quad, out[-1])[0])
    return out


def gain_and_closed_loop(quad, P):
    """Predictor gain and closed-loop matrix at a given covariance.

    gain = (Ahat P Chat^T + Shat)(Rhat + Chat P Chat^T)^{-1} and
    closed_loop = Ahat - gain Chat. The denominator is inverted through
    its Cholesky factorization; it is positive definite whenever the
    model invariants hold.
    """
    gain = _predict(quad, as_covariance(P, quad.m, "gain_and_closed_loop: P"))[3].T
    return gain, quad.Ahat - gain @ quad.Chat


def are_solve(quad, *, tol=1e-11, max_iter=MAX_DOUBLINGS):
    """Steady state of the generalized Riccati equation.

    Structure-preserving doubling (Chu, Fan, Lin & Wang, 2004) on the DRE
    without its cross term, P+ = A_s P (I + G P)^{-1} A_s^T + Q_s, where
    A_s = Ahat - Shat Rhat^{-1} Chat, Q_s = Qhat - Shat Rhat^{-1} Shat^T and
    G = Chat^T Rhat^{-1} Chat. The equation has no initial condition:
    doubling k is DRE step 2^k from zero, converging quadratically, or at
    rate 1/2 in the critical case (Lin & Xu, 2006). Under the
    detectability and stabilizability conditions the DRE reaches the same
    limit from every initial covariance; ``dre_run`` iterates from a given
    one. While the residual exceeds ``tol``, up to three Newton steps
    follow, each solving D = A_cl D A_cl^T + dre_step(P) - P. A run that
    stops contracting (A = 1, B = [1, 0], C = 0, N = [0, 1], K_W = I: the
    DRE is P+ = P + 1, so doubling k gives P = 2^k) ends within
    ``max_iter`` doublings at its last finite iterate; it and a diverging
    run return ``converged=False`` instead of raising.

    Parameters
    ----------
    quad : JointSystem
        The joint problem, or the noise-only one (its ``noise_quad``).
    tol : float
        Relative stopping tolerance, against max(|P|, |Qhat|) in
        sup-norm, so solutions P* = 0 are reached too; 0 < tol < inf,
        else ValueError.
    max_iter : int
        Budget of doublings, not of DRE steps: doubling k reaches step
        2^k. Larger values are capped at MAX_DOUBLINGS = 64.

    Returns
    -------
    RiccatiSolution
    """
    tol = _check_tol(tol)
    m = quad.m
    RinvCS = solve_spd(quad.Rhat, np.hstack([quad.Chat, quad.Shat.T]), context="Rhat")
    # the doubling triple (A_k, G_k, P_k) in control form: A_0 = A_s^T,
    # G_0 = G, P_0 = Q_s; P_k is DRE step 2^k from zero
    A = (quad.Ahat - quad.Shat @ RinvCS[:, :m]).T
    G = symmetrize(quad.Chat.T @ RinvCS[:, :m])
    P = symmetrize(quad.Qhat - quad.Shat @ RinvCS[:, m:])
    q_scale = sup_norm(quad.Qhat)
    diff, iterations = np.inf, 0
    # a run that stops contracting keeps its last finite iterate, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        while iterations < min(int(max_iter), MAX_DOUBLINGS) and sup_norm(P) <= _DIVERGENCE_BOUND:
            WiAG = np.linalg.solve(np.eye(m) + G @ P, np.hstack([A, G]))
            A_next = A @ WiAG[:, :m]
            G_next = symmetrize(G + A @ WiAG[:, m:] @ A.T)
            P_next = symmetrize(P + A.T @ P @ WiAG[:, :m])
            iterations += 1
            diff = sup_norm(P_next - P)
            # only P leaves the loop; a non-finite A or G makes the next P non-finite
            if not math.isfinite(diff):
                break
            A, G, P = A_next, G_next, P_next
            if diff <= tol * max(sup_norm(P), q_scale):
                break
    scale = max(sup_norm(P), q_scale)
    if scale > _DIVERGENCE_BOUND:
        # K at the last finite P, NaN if round-off has left it indefinite; the
        # next covariance may overflow and is dropped
        nan = np.full((m + quad.q, m + quad.q), np.nan)
        K, logdet = nan[m:, m:], np.nan
        with np.errstate(over="ignore", invalid="ignore"), suppress(np.linalg.LinAlgError):
            K, logdet = _predict(quad, P)[1:3]
            K = symmetrize(K)
        return RiccatiSolution(P, nan[:m, m:], nan[:m, :m], np.inf, np.inf, iterations, False,
                               K, logdet)
    met = diff <= tol * scale
    for newton_left in range(_NEWTON_STEPS if met else 0, -1, -1):
        # one prediction step gives the defect, the gain, the closed loop and K
        P_next, K, logdet, gain_T = _predict(quad, P)
        defect, gain = P_next - P, gain_T.T
        closed_loop = quad.Ahat - gain @ quad.Chat
        radius = spectral_radius(closed_loop)
        if not newton_left or sup_norm(defect) <= tol * scale or radius >= 1.0:
            break
        P = symmetrize(P + _smith(closed_loop, defect, tol))
        scale = max(sup_norm(P), q_scale)
        iterations += 1
    residual = sup_norm(defect)
    return RiccatiSolution(
        P_star=P,
        gain=gain,
        closed_loop=closed_loop,
        spectral_radius=radius,
        residual=residual,
        iterations=iterations,
        converged=met and residual <= 10.0 * tol * scale and radius < 1.0,
        innovations=symmetrize(K),
        logdet=logdet,
    )
