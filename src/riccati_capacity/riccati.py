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
gain^T): ``dre_step``, ``dre_run``, ``gain_and_closed_loop``,
``are_solve``'s Newton polish and its last step and ``simulate``'s Kalman
pass call it, and ``capacity.finite_n_rate`` takes it where it does not
scan. ``_sda_form`` writes
the step without its cross term as a triple (A, G, Q), the map
P -> Q + A^T P (I + G P)^{-1} A, and ``_compose`` composes two such maps
into one. Composition is associative: ``are_solve`` reaches the steady
state from zero by structure-preserving doubling, a triple composed with
itself, and ``_propagate`` runs a finite horizon as a prefix scan of its
step triples, which both DREs of ``capacity.finite_n_rate`` use in chunks
of ``_chunk_length(m)`` steps. K is formed in ``_predict``
and, for every step of a scanned chunk at once, in ``_dre_chunk``. The
solution of ``are_solve`` keeps K and log det K at P_star.
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
        Sup-norm of dre_step(P_star) - P_star; infinite after divergence
        or where P_star has no prediction step.
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
    So does a run that round-off has left with an indefinite P_star: a
    doubling whose I + G P is singular stops at its last iterate, and a
    P_star whose K has no Cholesky factor has no prediction step.
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


def _sda_form(quad):
    """The triple (A_s^T, G, Q_s) of ``are_solve``, the DRE step without its cross term.

    ``quad`` has the slots Ahat, Chat, Shat, Qhat and Rhat, of one system or
    as (..., m, m) stacks, which give stacked triples.
    """
    m = quad.Ahat.shape[-1]
    RinvCS = solve_spd(quad.Rhat, np.concatenate([quad.Chat, quad.Shat.swapaxes(-1, -2)], axis=-1),
                       context="Rhat")
    A = (quad.Ahat - quad.Shat @ RinvCS[..., :m]).swapaxes(-1, -2)
    G = symmetrize(quad.Chat.swapaxes(-1, -2) @ RinvCS[..., :m])
    Q = symmetrize(quad.Qhat - quad.Shat @ RinvCS[..., m:])
    return A, G, Q


def _compose(first, second):
    """The triple of ``first``'s map followed by ``second``'s, on (..., m, m) stacks.

    A triple (A, G, Q) is the map P -> Q + A^T P (I + G P)^{-1} A, so
    (0, 0, P) is the constant P, a DRE step is its ``_sda_form`` and a
    Lyapunov step P -> F P F^T + Q is (F^T, 0, Q). Composition is
    associative, and composing a triple with itself is one structure-
    preserving doubling.
    """
    A1, G1, Q1 = first
    A2, G2, Q2 = second
    m = A2.shape[-1]
    W = np.linalg.solve(np.eye(m) + G2 @ Q1, np.concatenate([A2, G2], axis=-1))
    A = A1 @ W[..., :m]
    G = symmetrize(G1 + A1 @ W[..., m:] @ A1.swapaxes(-1, -2))
    Q = symmetrize(Q2 + A2.swapaxes(-1, -2) @ Q1 @ W[..., :m])
    return A, G, Q


def _propagate(steps, P):
    """The covariances after each step of a run from P, as an (L, m, m) stack.

    The run's per-step triples, (L, m, m) stacks, are overwritten by their
    prefix compositions in ceil(log2 L) batched compositions (Hillis-Steele;
    the temporal parallelization of Sarkka & Garcia-Fernandez, 2021), and
    each prefix is applied to P.
    """
    A, G, Q = steps
    k = 1
    while k < len(A):
        A[k:], G[k:], Q[k:] = _compose((A[:-k], G[:-k], Q[:-k]), (A[k:], G[k:], Q[k:]))
        k *= 2
    zero = np.zeros_like(P)
    return _compose((zero, zero, P), (A, G, Q))[2]


def _dre_chunk(slots, index, P, context):
    """A run of DRE steps from P by one prefix scan, with one batched factorization of its K_t.

    ``slots`` holds (V, ...) stacks of the slots of V systems, and system
    ``index[j]`` is in force at step j. Returns the covariances entering
    each step, their innovations covariances K_t = Rhat + Chat P_t Chat^T
    and log dets, and the covariance after the last step; raises
    LinAlgError if a Rhat or a K_t is not positive definite.
    """
    after = _propagate([a[index] for a in _sda_form(slots)], P)
    entering = np.concatenate([P[None], after[:-1]])
    C = slots.Chat[index]
    K = slots.Rhat[index] + C @ entering @ C.swapaxes(-1, -2)
    return entering, K, solve_spd(K, K[..., :0], context=context, logdet=True)[1], after[-1]


def _chunk_length(m):
    """Steps per prefix scan for state size m, a power of two; 1 where scanning does not pay.

    A chunk of L steps costs about log2(L) + 1 batched compositions of
    O(L m^3) work against L prediction steps of O(m^3) work and a fixed
    cost per call each, so the chunk shrinks as m grows. Memory is
    O(L m^2). Timed with one BLAS thread over 2000 steps, scans of 512
    steps paid best up to m = 2 and of 64 at m = 8; at m = 10 the best
    scan only matched plain steps, and at m = 12 it lost. Sizes 3 to 7
    take the halving rule's lengths untuned; each timed faster than plain
    steps there.
    """
    return 2 ** (9 - (m - 1) // 2) if m <= 8 else 1


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


def _unfinished(quad, P, iterations):
    # a diverged run, or one whose last P has no prediction step: K and log
    # det K at P, NaN where round-off has left K indefinite; the next
    # covariance may overflow and is dropped
    m = quad.m
    nan = np.full((m + quad.q, m + quad.q), np.nan)
    K, logdet = nan[m:, m:], np.nan
    with np.errstate(over="ignore", invalid="ignore"), suppress(np.linalg.LinAlgError):
        K, logdet = _predict(quad, P)[1:3]
        K = symmetrize(K)
    return RiccatiSolution(P, nan[:m, m:], nan[:m, :m], np.inf, np.inf, iterations, False,
                           K, logdet)


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
    ``max_iter`` doublings at its last finite iterate; it, a diverging run
    and one that round-off leaves with an indefinite P (an unstable mode
    the output does not see) return ``converged=False`` instead of raising.

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
    # the doubling triple (A_k, G_k, P_k): P_k is DRE step 2^k from zero
    A, G, P = _sda_form(quad)
    q_scale = sup_norm(quad.Qhat)
    diff, iterations = np.inf, 0
    # a run that stops contracting keeps its last finite iterate, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        while iterations < min(int(max_iter), MAX_DOUBLINGS) and sup_norm(P) <= _DIVERGENCE_BOUND:
            try:
                A_next, G_next, P_next = _compose((A, G, P), (A, G, P))
            except np.linalg.LinAlgError:  # I + G P singular: round-off has made P indefinite
                break  # after a change that missed the stop rule, so P is not converged
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
        return _unfinished(quad, P, iterations)
    met = diff <= tol * scale
    for newton_left in range(_NEWTON_STEPS if met else 0, -1, -1):
        # one prediction step gives the defect, the gain, the closed loop and K
        try:
            P_next, K, logdet, gain_T = _predict(quad, P)
        except np.linalg.LinAlgError:  # round-off has left P without a positive definite K
            return _unfinished(quad, P, iterations)
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
