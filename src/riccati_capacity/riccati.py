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
gain^T): ``dre_step``, ``dre_run`` (the plain-step reference),
``gain_and_closed_loop`` and ``are_solve``'s Newton polish and its last
step call it, and so does the finite-horizon engine where it does not
scan, keeping all four. ``_sda_form`` writes the step without its cross
term as a triple (A, G, Q), the map P -> Q + A^T P (I + G P)^{-1} A, and
``_compose`` composes two such maps into one. Composition is
associative: ``are_solve`` reaches the steady state from zero by
structure-preserving doubling, a triple composed with itself, and
``_propagate`` runs a finite horizon as a work-efficient (Brent-Kung)
prefix scan of its step triples, fewer than 2L compositions for L steps.

The finite-horizon engine, ``_runs``, lives here too: it runs both DREs
and the input's Lyapunov recursion (a Riccati map with G = 0) over a
schedule's steps, in chunks of ``_chunk_steps(m)`` steps (``_run_chunk``),
each read from one stacked joint system (``JointSystem._stacked``) and
scanned by ``_propagate``, or taken by plain steps (``_advance``) that name
the step that fails ("step t: ..."). A scanned chunk's gains and log dets
come from one batched factorization of its K_t, as a plain step's do from
``_predict``'s, and where no caller reads the gains its K_t are factored
for their log dets alone. The solution of ``are_solve`` keeps K and log
det K at P_star, and the doubling's last G iterate, the dual DARE's
solution, from which ``_adjoint`` forms the adjoint that the input
search's gradient reads (``capacity._logdet_gradient``).
"""

import math
from contextlib import suppress
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .linalg import as_count, as_covariance, solve_spd, spectral_radius, sup_norm, symmetrize
from .lyapunov import (DEFAULT_TOL, MAX_DOUBLINGS, _check_tol, _smith, _step as _lyap_core,
                       input_power)
from .models import InputModel, NoiseModel

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
    dual : ndarray
        The doubling's last G iterate: within the solve's tolerance, the
        stabilizing solution Y of the dual DARE (see ``are_solve``), from
        which ``_adjoint`` reads the adjoint of the closed loop.

    A diverged run (infinite ``residual``) has NaN ``gain``,
    ``closed_loop`` and ``dual`` and carries K and log det K at its last
    finite P_star, both NaN where round-off has left that K without a
    Cholesky factor.
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
    dual: np.ndarray


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
    """The run of L steps from P, as an (L + 1, m, m) stack.

    Row j is the covariance entering step j, so row 0 is P and row L the one
    after the last step. The run's per-step triples, (L, m, m) stacks, are
    overwritten by their prefix compositions in place by a Brent-Kung scan
    (Blelloch, 1990; the temporal parallelization of Sarkka &
    Garcia-Fernandez, 2021): an up-sweep, for strides k = 1, 2, 4, ... up
    to L / 2, makes rows 2k - 1, 4k - 1, ... the compositions of rows
    row - k and row, and a down-sweep, for k halving back to 1, does the
    same for rows 3k - 1, 5k - 1, .... That is fewer than 2L composed
    triples in at most 2 log2(L) batched compositions (1,013 in 17 at
    L = 512), and each prefix is then applied to P in one more. An empty
    state (m = 0, the Lyapunov recursion of a memoryless input) returns at
    once.
    """
    A, G, Q = steps
    L = len(A)
    if P.size == 0:
        return np.empty((L + 1, 0, 0))
    strides = [2 ** i for i in range(L.bit_length() - 1)]  # every k with 2k <= L
    # the up-sweep's rows 2k - 1, 4k - 1, ..., then the down-sweep's 3k - 1, 5k - 1, ...
    for k, start in [(k, 2 * k - 1) for k in strides] + [
            (k, 3 * k - 1) for k in strides[::-1] if 3 * k <= L]:
        rows, before = slice(start, None, 2 * k), slice(start - k, L - k, 2 * k)
        A[rows], G[rows], Q[rows] = _compose((A[before], G[before], Q[before]),
                                             (A[rows], G[rows], Q[rows]))
    zero = np.zeros_like(P)
    return np.concatenate([P[None], _compose((zero, zero, P), (A, G, Q))[2]])


def _chunk_steps(m):
    """Steps per prefix scan at joint state size m; 1 (plain steps) where scans do not pay.

    A chunk of L steps costs about 2 log2(L) batched compositions of
    about 3L triples in all, O(L m^3) work, against L prediction steps of
    O(m^3) work and a fixed cost per call each, so the chunk shrinks as m
    grows: 2,048 steps up to m = 2, halving every two states to 256 at
    m = 8. Memory is O(L m^2), plus the models a chunk's callbacks build,
    one per distinct (noise, input) pair, which the chunk holds until it
    ends. Timed at one BLAS thread over 2,000 steps, the best chunk is
    1,024 to 2,048 steps up to m = 8, and 512-step scans beat plain steps
    up to m = 12 (CHANGES.md); the plain steps from m = 9 are not retuned
    yet.
    """
    # m = 0 (a memoryless noise with a memoryless input) is clamped to m = 1
    return 2 ** (11 - max(m - 1, 0) // 2) if m <= 8 else 1


# the two sides of a schedule's pair, in its order, with their model types
_SIDES = (("noise", NoiseModel, "a"), ("input", InputModel, "an"))


def _runs(system, schedule, n, names, gains=True):
    """The finite-horizon engine: the recursions ``names`` picks, over steps 1 to n.

    The names are "Sigma" (the noise predictor's DRE), "Pi" (the joint
    predictor's) and "P" (the input state's Lyapunov recursion), each
    started from the initial law of ``system``, the joint system of the pair
    in force at step 1; ``schedule``'s pairs follow it. Yields, per chunk,
    its first step and a dict keyed by ``names``: a DRE's predictor schedule
    (P_t, K_t, L_t, log det K_t), K_t symmetrized, its gain L_t = (Ahat P_t
    Chat^T + Shat) K_t^{-1} and log det from its one factorization (L_t None
    where ``gains`` is false), or the Lyapunov recursion's (P_t, power_t),
    one row per step, P_t entering step t. A chunk ends at
    ``_chunk_steps(m)`` steps, so each callback runs once per step, in step
    order, and a chunk holds the models of its distinct pairs (by identity)
    until it ends, with the next chunk's first pair while it runs. Each
    step's pair must be a NoiseModel and an InputModel ("step t: noise_at
    returned ndarray, not a NoiseModel", TypeError). The callbacks run to a
    chunk's end or to their first raise or wrong type, after which the
    steps before it run first. A chunk's distinct pairs are stacked into one
    joint system, its shape check, and each recursion runs the chunk by one
    prefix scan (``_propagate``; a Lyapunov step is a Riccati map with
    G = 0). A chunk of one step, or whose pairs do not stack, or whose scan
    fails or is not finite, goes by plain steps (``_predict``,
    ``lyapunov._step``), which need no Rhat^{-1} and name the first step
    that fails; a non-finite entry of a later model makes the results of
    every recursion it enters non-finite, so its step is named there.
    """
    first_laws = {"Sigma": system.noise.K_S1, "Pi": system.K_Theta1, "P": system.input.K_Xi1}
    covs = {name: symmetrize(first_laws[name]) for name in names}
    pair_1 = (system.noise, system.input)
    cap = _chunk_steps(system.m)
    # the chunk's distinct pairs in order, and the pair in force at each of its steps
    pairs, index, first = {}, [], 1
    for t in range(1, n + 1):
        try:
            pair = (schedule.noise_at(t), schedule.input_at(t)) if t > 1 else pair_1
            # checked before it is hashed, so an unhashable return is named too
            if not (isinstance(pair[0], NoiseModel) and isinstance(pair[1], InputModel)):
                for got, (side, kind, article) in zip(pair, _SIDES):
                    if not isinstance(got, kind):
                        raise TypeError(f"step {t}: {side}_at returned {type(got).__name__}, "
                                        f"not {article} {kind.__name__}")
        except Exception as exc:
            if index:
                _run_chunk(system, [*pairs], index, covs, first, gains)
            if isinstance(exc, ValueError):
                raise ValueError(f"step {t}: {exc}") from None
            raise
        if len(index) == cap:
            yield first, _run_chunk(system, [*pairs], index, covs, first, gains)
            pairs, index, first = {}, [], t
        index.append(pairs.setdefault(pair, len(pairs)))
    yield first, _run_chunk(system, [*pairs], index, covs, first, gains)


def _run_chunk(system, pairs, index, covs, first, gains):
    # the runs from step first, pairs[index[j]] in force at step first + j; moves covs past them
    if len(index) > 1:
        # pairs that do not stack (the chunk's shape check) or a K that does not factor
        with np.errstate(all="ignore"), suppress(ValueError):  # LinAlgError included
            stacked, steps = system._stacked(pairs), np.asarray(index)
            scans = {name: _advance(stacked, name, cov, gains, steps)
                     for name, cov in covs.items()}
            # a run's last stack holds its log dets or powers. Only the step-1 models are
            # validated; a non-finite entry of a later one makes these non-finite, and the
            # plain steps name it
            if all(np.isfinite(after).all() and np.isfinite(run[-1]).all()
                   for after, run in scans.values()):
                covs.update((name, after) for name, (after, _) in scans.items())
                return {name: run for name, (_, run) in scans.items()}
    # plain steps on the system itself, which raise at the first step that fails
    rows = {name: [] for name in covs}
    for j, i in enumerate(index):
        try:
            for model, (side, *_) in zip(pairs[i], _SIDES):
                # a model not yet written is not yet checked
                if model is not getattr(system, side) and not all(
                        np.isfinite(getattr(model, name)).all() for name, _, _ in model._ARRAYS):
                    raise ValueError(f"{side}_at returned a model with non-finite entries")
            system._update(*pairs[i])
            for name, cov in covs.items():
                covs[name], row = _advance(system, name, cov, gains)
                rows[name].append(row)
        except ValueError as exc:  # a block that changed shape, or a K that does not factor
            raise type(exc)(f"step {first + j}: {exc}") from None
    return {name: tuple(None if column[0] is None else np.array(column)
                        for column in zip(*rows[name])) for name in covs}


def _advance(system, name, cov, gains, index=None):
    # recursion ``name`` from ``cov``: a plain step on the models last written or, given
    # ``index``, a prefix scan over a stacked chunk; the covariance after it, and its run,
    # whose gains are None unless ``gains``
    inp = system.input
    if name != "P":
        quad, context = (system.noise_quad, "K_Ihat") if name == "Sigma" else (system, "K_I")
        if index is None:
            after, K, logdet, gain_T = _predict(quad, cov, context=context)
            return after, (cov, symmetrize(K), gain_T.T if gains else None, logdet)
        run = _propagate([a[index] for a in _sda_form(quad)], cov)
        Ps, C_T = run[:-1], quad.Chat[index].swapaxes(-1, -2)
        K = symmetrize(quad.Rhat[index] + quad.Chat[index] @ Ps @ C_T)
        # the gains solve against (Ahat P_t Chat^T + Shat)^T, log dets alone against nothing
        APC = quad.Ahat[index] @ Ps @ C_T + quad.Shat[index] if gains else K[..., :0, :]
        gain_T, logdet = solve_spd(K, APC.swapaxes(-1, -2), context=context, logdet=True)
        return run[-1], (Ps, K, gain_T.swapaxes(-1, -2) if gains else None, logdet)
    if index is None:
        return _lyap_core(inp.F, inp.G, inp.K_Z, cov), (cov, input_power(inp, cov))
    # the input state's Lyapunov step P -> F P F^T + G K_Z G^T is the Riccati
    # map (F^T, 0, G K_Z G^T)
    inp = SimpleNamespace(**{key: stack[index] for key, stack in vars(inp).items()})
    F_T = inp.F.swapaxes(-1, -2)
    Ps = _propagate([F_T, np.zeros_like(F_T), inp.G @ inp.K_Z @ inp.G.swapaxes(-1, -2)], cov)
    return Ps[-1], (Ps[:-1], input_power(inp, Ps[:-1]))



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
    """Iterate the DRE for a finite horizon, one prediction step at a time.

    Returns a list of length ``horizon`` whose first element is P_1
    itself, so element t is the covariance entering step t. It is the
    plain-step reference that the scanned finite-horizon engine
    (``_runs``) is tested against.
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
                           K, logdet, nan[:m, :m])


def are_solve(quad, *, tol=DEFAULT_TOL, max_iter=MAX_DOUBLINGS):
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

    The doubling's G iterate converges, at the rate of its P iterate, to
    the stabilizing solution Y of the dual DARE
    Y = A_s^T Y (I + Q_s Y)^{-1} A_s + G (Chu, Fan, Lin & Wang, 2004; Lin &
    Xu, 2006), and the solution keeps the last one as ``dual``, at no cost.
    W = (I + Y P_star)^{-1} Y then solves the adjoint Stein equation
    W = A_cl^T W A_cl + Chat^T K^{-1} Chat of the closed loop A_cl, whose
    solution is unique since A_cl is stable, so ``_adjoint`` gives W by one
    m x m solve where a Stein solver would run a second doubling loop.

    Parameters
    ----------
    quad : JointSystem
        The joint problem, or the noise-only one (its ``noise_quad``). Only
        the slots Ahat, Chat, Qhat, Shat, Rhat, m and q are read, so any
        object with them will do: ``capacity._waterfilling_input`` passes
        its spectral-factor DARE as one.
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
    # p_norm is sup_norm(P) of the current iterate, computed once per doubling
    p_norm, diff, iterations = sup_norm(P), np.inf, 0
    # a run that stops contracting keeps its last finite iterate, unwarned
    with np.errstate(over="ignore", invalid="ignore"):
        while iterations < min(int(max_iter), MAX_DOUBLINGS) and p_norm <= _DIVERGENCE_BOUND:
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
            p_norm = sup_norm(P)
            if diff <= tol * max(p_norm, q_scale):
                break
    scale = max(p_norm, q_scale)
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
        dual=G,
    )


def _adjoint(sol):
    """The adjoint W = A_cl^T W A_cl + Chat^T K^-1 Chat of a solution, from its dual iterate.

    W = (I + Y P_star)^-1 Y, Y the solution's ``dual``: one m x m solve. It
    is within the solve's tolerance of the Stein equation's solution
    wherever the solve converged, and NaN where its run was unfinished.
    """
    Y = sol.dual
    return symmetrize(np.linalg.solve(np.eye(len(Y)) + Y @ sol.P_star, Y))
