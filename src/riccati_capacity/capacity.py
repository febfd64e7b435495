"""Rate and power computations for the Gaussian channel with state noise.

Everything reduces to innovations covariances of two one-step prediction
problems. Predicting the channel output Y through the joint (input,
noise) state gives K_I; predicting the noise V alone gives K_Ihat. The
finite-block rate averages the clamped per-step log-det differences

    (1/2n) sum_t max(0, logdet K_{I_t} - logdet K_{Ihat_t})

and the asymptotic rate replaces both recursions by their steady states.
Average input power follows the companion Lyapunov recursion. Over a
finite block, all three recursions run on the finite-horizon engine of
``riccati`` (``riccati._runs``), which reads a ``CoefficientSchedule``.
Where water-filling over frequency has full support, the optimizer builds
the capacity-achieving input in closed form, as the stable spectral factor
of the water-filling input spectrum; elsewhere it searches over input
realizations in input-normal form, where the power budget holds by
construction, with adjoint gradients. A classical water-filling solver
is kept alongside as an independent reference for the memoryless
special case.
"""

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .linalg import (as_count, as_finite, is_psd, is_symmetric, solve_spd, spectral_radius,
                     substream, symmetrize)
from .lyapunov import (DEFAULT_TOL, MAX_DOUBLINGS, STABILITY_MARGIN, _smith, input_power,
                       lyap_solve)
from .models import Channel, InputModel, NoiseModel, build_augmented, require_valid
from .riccati import _adjoint, _runs, are_solve
from .systests import feasibility_report
# block_diag, chol_logdet, to_quadruple and validate stay importable here
# because bench/tracing.py patches them at these names
from .linalg import block_diag, chol_logdet  # noqa: F401
from .models import to_quadruple, validate  # noqa: F401

__all__ = [
    "CapacityResult",
    "CoefficientSchedule",
    "Case2Trace",
    "OptimizerConfig",
    "SweepPoint",
    "TRACE_COLUMNS",
    "constant_schedule",
    "finite_n_rate",
    "asymptotic_rate",
    "asymptotic_power",
    "optimize_input",
    "waterfilling_oracle",
    "case2_rate",
    "sweep_kappa",
]

# column order of the per-step trace array produced by finite_n_rate;
# rate_partial and power_partial are running averages over steps 1..t
TRACE_COLUMNS = ("t", "logdet_KI", "logdet_KIhat", "rate_partial", "power_partial")


@dataclass(frozen=True, eq=False)
class CapacityResult:
    """Rate, power, and the matrices they came from.

    For asymptotic computations the matrix fields hold steady states;
    for finite-horizon runs they hold the final-step values, and
    ``trace`` carries the whole history in TRACE_COLUMNS order.
    ``diagnostics`` is a dict of solver convergence data; ``optimize_input``
    adds its search record under "search".
    """

    rate_nats: float
    power: float
    Sigma_star: np.ndarray
    Pi_star: np.ndarray
    P_star: np.ndarray
    K_I: np.ndarray
    K_Ihat: np.ndarray
    feasibility: object = None
    trace: np.ndarray = None
    diagnostics: dict = None


@dataclass(frozen=True, eq=False)
class CoefficientSchedule:
    """Time-varying coefficients with declared limits.

    ``noise_at(t)`` and ``input_at(t)`` return the models in force at
    step t (1-based); the limits are what they converge to. Supplying
    callbacks rather than stored arrays keeps long horizons cheap.

    The finite-horizon engine (``riccati._runs``) groups steps by model
    identity, not by value: a callback that returns the same model object
    over a stretch of constant coefficients gets one long scan for it,
    while a new object, even one with equal arrays, is a new pair. A new
    model per step costs one construction: about 6 us for a scalar
    ``NoiseModel``, next to about 4 us of engine work per step of a scalar
    drifting schedule, whose 2,000 steps are one scan (models prebuilt, one
    BLAS thread, 2-core x86-64 VM).
    """

    noise_at: object
    input_at: object
    noise_limit: NoiseModel
    input_limit: InputModel


def constant_schedule(noise, input):
    """Schedule that is already at its limit at every step."""
    return CoefficientSchedule(
        noise_at=lambda t: noise,
        input_at=lambda t: input,
        noise_limit=noise,
        input_limit=input,
    )


@dataclass(frozen=True, eq=False)
class Case2Trace:
    """Finite-horizon averages of a convergent schedule against the limit rate.

    ``points`` has rows (n, average rate over n steps, absolute deviation
    from the limit rate) on a geometric grid of horizons.
    """

    points: np.ndarray
    limit_rate: float
    limit_result: CapacityResult


def _unpack_models(models):
    if isinstance(models, CoefficientSchedule):
        return models
    if isinstance(models, (tuple, list)) and len(models) == 2:
        noise, input = models
        if isinstance(noise, NoiseModel) and isinstance(input, InputModel):
            return constant_schedule(noise, input)
    raise TypeError(
        "models must be a CoefficientSchedule or a (NoiseModel, InputModel) pair"
    )


def finite_n_rate(models, channel, n):
    """Average rate and power over a finite block of n channel uses.

    Parameters
    ----------
    models : CoefficientSchedule or (NoiseModel, InputModel)
        Constant pairs are wrapped into a constant schedule.
    channel : Channel
    n : int
        Block length, >= 1.

    Returns
    -------
    CapacityResult
        With the per-step trace attached. Matrix fields hold the values
        in force at the final step. ``diagnostics`` holds ``horizon`` (n),
        ``nan_steps``, the count of steps whose log-det difference is NaN
        (a covariance overflowed) and so adds 0 to the rate, and
        ``clamped_steps``, the count whose difference is negative, clamped to 0.

    Raises
    ------
    ValueError
        "step t: model dimensions changed mid-schedule", "step t: noise_at
        returned a model with non-finite entries" (or input_at), t > 1, both
        after the steps before t have run, "step t: ..." for a schedule's
        ValueError at step t (its other errors pass unchanged), or an invalid
        step-1 model.
    TypeError
        "step t: noise_at returned ndarray, not a NoiseModel", naming the
        type returned (or input_at, "not an InputModel"), t > 1, after the
        steps before t have run.
    LinAlgError
        "step t: K_I is not positive definite" (or K_Ihat) at the first
        step whose innovations covariance has no Cholesky factor.

    Notes
    -----
    The noise-only and joint predictors start from the step-1 models'
    initial laws, K_S1 and blockdiag(K_Xi1, K_S1), so both describe one
    channel; when the feasibility tests pass, the rate converges to the
    asymptotic one uniformly over these laws. Both DREs and the input's
    Lyapunov recursion run on the finite-horizon engine, ``riccati._runs``,
    by chunked prefix scans or plain steps, asking it for no gains. The
    scan's round-off differs from the plain steps' in the last digits: at
    most 9e-14 of each trace column's scale over 40 seeded draws (m = 2 to
    8, rho(A) 0.5 to 1.4, 2,100 steps, so a scan runs to the 2,048-step cap
    at m = 2), and at most 1.3e-14 on the same draws with every block of
    both models moving at every step. Each per-step rate term is clamped at
    zero individually, so a transient with the noise predictor ahead of the
    joint one cannot push the average negative; a NaN term counts as 0.
    """
    n = as_count(n, "n")
    schedule = _unpack_models(models)
    # validation plus dimension cross-checks happen once, on the step-1 models
    system = build_augmented(schedule.noise_at(1), schedule.input_at(1), channel)
    # log det K_I, log det K_Ihat and the power at each step
    columns = np.empty((3, n))
    for first, run in _runs(system, schedule, n, ("Sigma", "Pi", "P"), gains=False):
        (Sigmas, K_Ihat, _, logdet_hat), (Pis, K_I, _, logdet), (Ps, power) = run.values()
        columns[:, first - 1:first - 1 + len(power)] = logdet, logdet_hat, power
    t = np.arange(1.0, n + 1.0)
    terms = columns[0] - columns[1]
    # fmax clamps a NaN term to 0 as well, as Python's max(0.0, nan) does
    trace = np.column_stack([t, columns[0], columns[1], np.cumsum(np.fmax(0.0, terms)) / (2.0 * t),
                             np.cumsum(columns[2]) / t])
    return CapacityResult(
        rate_nats=float(trace[-1, 3]),
        power=float(trace[-1, 4]),
        # copies, so a result keeps no stack of the last chunk alive
        Sigma_star=Sigmas[-1].copy(),
        Pi_star=Pis[-1].copy(),
        P_star=Ps[-1].copy(),
        K_I=K_I[-1].copy(),
        K_Ihat=K_Ihat[-1].copy(),
        feasibility=None,
        trace=trace,
        diagnostics={"horizon": n, "nan_steps": int(np.isnan(terms).sum()),
                     "clamped_steps": int((terms < 0.0).sum())},
    )


def asymptotic_rate(noise, input, channel, tol=DEFAULT_TOL, max_iter=MAX_DOUBLINGS):
    """Steady-state rate and power for fixed models.

    Solves the steady states of both prediction problems, each from zero,
    and the input Lyapunov equation, runs the feasibility tests, then
    evaluates

        rate = (1/2) max(0, logdet K_I - logdet K_Ihat)
        power = tr(Gamma P Gamma^T + D K_Z D^T),

    with K_I, K_Ihat and their log dets as each Riccati solution carries
    them (``RiccatiSolution.innovations`` and ``logdet``); a diverged solve
    carries them at its last finite iterate.

    Parameters
    ----------
    noise, input, channel : models
    tol : float
        Relative stopping tolerance of the Lyapunov and both Riccati
        solves.
    max_iter : int
        Doubling budget of each Riccati solve (see ``are_solve``), not a
        count of DRE steps; capped at MAX_DOUBLINGS = 64.

    Returns
    -------
    CapacityResult
        With the FeasibilityReport attached, whose minimality warnings
        are computed on the first read of ``warnings`` (its verdicts
        here). Its diagnostics' ``sigma_converged`` and ``pi_converged``
        say that each Riccati solve stopped within tolerance of its
        stabilizing solution (a fixed point whose closed loop is stable);
        ``sigma_spectral_radius`` and ``pi_spectral_radius`` give those
        closed loops' radii.

    Raises
    ------
    ValueError
        If a model is invalid or F is not exponentially stable (the
        average power has no limit in that case).
    LinAlgError
        "K_I is not positive definite" (or K_Ihat): a diverged solve whose
        K at the last finite iterate has no Cholesky factor.
    """
    system = build_augmented(noise, input, channel)
    # first, so an F that is not exponentially stable raises before any other work
    p_sol = lyap_solve(input.F, input.G, input.K_Z, tol=tol)
    feas = feasibility_report(noise, input, system)
    nq = system.noise_quad
    sigma_sol = are_solve(nq, tol=tol, max_iter=max_iter)
    pi_sol = are_solve(system, tol=tol, max_iter=max_iter)
    for name, sol in (("K_I", pi_sol), ("K_Ihat", sigma_sol)):
        if math.isnan(sol.logdet):  # a diverged solve whose K has no Cholesky factor
            raise np.linalg.LinAlgError(f"{name} is not positive definite")
    rate = 0.5 * max(0.0, pi_sol.logdet - sigma_sol.logdet)
    power = input_power(input, p_sol.P_star)
    diagnostics = {f"{label}_{key}": getattr(sol, key)
                   for label, sol in (("sigma", sigma_sol), ("pi", pi_sol))
                   for key in ("converged", "iterations", "residual", "spectral_radius")}
    diagnostics.update(lyapunov_residual=p_sol.residual, lyapunov_method=p_sol.method)
    if not feas.member_of_P_infinity:
        # limits may exist but depend on the initial condition in this regime
        diagnostics["initial_condition_dependent"] = True
    return CapacityResult(rate_nats=rate, power=power, Sigma_star=sigma_sol.P_star,
                          Pi_star=pi_sol.P_star, P_star=p_sol.P_star, K_I=pi_sol.innovations,
                          K_Ihat=sigma_sol.innovations, feasibility=feas,
                          diagnostics=diagnostics)


def asymptotic_power(input):
    """Steady-state average power of an input realization.

    tr(Gamma P Gamma^T + D K_Z D^T) with P the Lyapunov fixed point,
    solved at ``lyap_solve``'s default tolerance. Raises ValueError when
    F is not exponentially stable.
    """
    require_valid(input)
    return input_power(input, lyap_solve(input.F, input.G, input.K_Z).P_star)


def _waterfill_powers(gains, kappa):
    # gains in decreasing order, as np.linalg.svd returns them, so the floors 1/g of the
    # positive ones increase; the level of the k strongest is (kappa + sum_{i<=k} 1/g_i) / k,
    # and the k strongest are active for the largest k whose level lies above the k-th floor
    p = np.zeros_like(gains)
    inv = 1.0 / gains[gains > 0.0]
    if kappa <= 0.0 or inv.size == 0:
        return p
    levels = (kappa + np.cumsum(inv)) / np.arange(1.0, inv.size + 1.0)
    k = 1 + int(np.max(np.flatnonzero(levels > inv), initial=0))
    alloc = levels[k - 1] - inv[:k]
    # a level far above kappa puts the sum off the budget, and one mode takes kappa itself
    # (its alloc is off kappa by round-off, or 0 if the level rounds kappa away); with
    # k > 1 the k-th level lies above the k-th floor, so every alloc is positive
    p[:k] = alloc * (kappa / float(np.sum(alloc))) if k > 1 else kappa
    return p


def _waterfill(H, R, kappa):
    """Whiten H by the Cholesky factor of R and water-fill kappa over its modes.

    Returns (gains, powers, Vt): the squared singular values of the
    whitened channel in decreasing order, the power on each, and the
    right singular vectors as rows. Raises LinAlgError when R is not
    positive definite.
    """
    L = np.linalg.cholesky(symmetrize(R))
    H_eff = np.linalg.solve(L, H)
    _, s, Vt = np.linalg.svd(H_eff, full_matrices=False)
    gains = s * s
    return gains, _waterfill_powers(gains, kappa), Vt


def waterfilling_oracle(H, R, kappa):
    """Memoryless Gaussian capacity by water-filling, as a reference point.

    Parameters
    ----------
    H : array_like
        Channel matrix, n_y x n_x.
    R : array_like
        Noise covariance, n_y x n_y, symmetric positive definite.
    kappa : float
        Power budget, >= 0.

    Returns
    -------
    (float, ndarray)
        Rate in nats per use and the per-mode power allocation, ordered
        by decreasing channel gain.

    Raises
    ------
    ValueError
        If H, R or kappa is not finite, R is not square, symmetric or positive
        definite, H's row count is not R's size, or kappa is negative.

    Notes
    -----
    The channel is whitened by the Cholesky factor of R; the water level
    over the squared singular values is solved for in closed form and the
    allocation rescaled onto the budget. Valid only for memoryless noise,
    which is exactly what makes it an independent check on the
    state-space machinery.
    """
    H = as_finite(H, "H")
    R = as_finite(R, "R")
    if R.shape[0] != R.shape[1]:
        raise ValueError(f"R not square (shape {R.shape})")
    if H.shape[0] != R.shape[0]:
        raise ValueError(f"H has {H.shape[0]} rows, expected {R.shape[0]} (the size of R)")
    kappa = float(kappa)
    if not np.isfinite(kappa):
        raise ValueError("kappa not finite")
    if kappa < 0:
        raise ValueError(f"kappa negative ({kappa})")
    if not is_symmetric(R):
        raise ValueError("R not symmetric")
    try:
        gains, p, _ = _waterfill(H, R, kappa)
    except np.linalg.LinAlgError:
        raise ValueError("R not positive definite") from None
    rate = 0.5 * float(np.sum(np.log1p(gains * p)))
    return rate, p


# the search's and the closed form's solves stop at this relative tolerance
_SEARCH_TOL = 1e-12
# X X^T counts as singular when X's smallest singular value is below _EPS times its largest
_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True, eq=False)
class OptimizerConfig:
    """Settings for the input-realization search.

    Whenever the search runs, the structured and warm starts run, and
    seeded random starts fill it up to ``starts`` local searches, so a
    search with ``starts`` or more of the others runs no random one.
    ``seed`` keys the random starts. ``maxiter`` caps the L-BFGS
    iterations of each start. ``warm_starts`` passes known-good input
    models (used by the kappa sweep to chain solutions). A start counts
    towards ``starts`` even when it repeats an earlier one and is not
    searched again, as the second shift-register start does whenever the
    channel has one input. None of these
    applies where ``optimize_input`` takes the closed-form input, which
    runs no start.
    """

    starts: int = 32
    seed: int = 0
    maxiter: int = 120
    warm_starts: tuple = ()


@dataclass(frozen=True, eq=False)
class SweepPoint:
    """One row of a power sweep."""

    kappa: float
    rate_nats: float
    power: float
    feasible: bool
    input: InputModel = None
    result: CapacityResult = None


class _InputNormal:
    """The L-BFGS vector theta of an input in input-normal form (Mullis & Roberts, 1976).

    theta holds X, n_xi x (n_xi + n_z), then Y, n_x x (n_xi + n_z). [F G]
    is the polar factor (X X^T)^-1/2 X, so F F^T + G G^T = I: with K_Z = I
    the Lyapunov solution is P = I, and rho(F) <= 1 with equality iff
    (F, G) is not reachable. [Gamma D] is Y scaled onto
    |Gamma|_F^2 + |D|_F^2 = kappa, which is then the power. With no
    innovations (n_z = 0) no state is reachable: X is empty and F = 0.
    """

    def __init__(self, n_xi, n_z, n_x, kappa):
        self.n_xi, self.n_z, self.n_x, self.kappa = n_xi, n_z, n_x, kappa
        self.X_shape = (n_xi, n_xi + n_z if n_z else 0)
        self.split = n_xi * self.X_shape[1]
        self.size = self.split + n_x * (n_xi + n_z)

    def model(self, theta):
        """The input of theta, and the factors ``gradient`` reuses (None if X X^T is singular)."""
        n = self.n_xi
        X = theta[:self.split].reshape(self.X_shape)
        Y = theta[self.split:].reshape(self.n_x, n + self.n_z)
        w, U = np.linalg.eigh(X @ X.T)
        r = np.sqrt(np.maximum(w, 0.0))
        norm = float(np.linalg.norm(Y)) or 1.0  # the all-zero theta gives Gamma = D = 0
        if r.size == 0 or r[0] > _EPS * r[-1]:
            S_isqrt = (U / r) @ U.T
            FG, factors = S_isqrt @ X, (X, U, r, S_isqrt, Y, norm)
        else:  # always so when n_z = 0
            FG, factors = np.zeros((n, n + self.n_z)), None
        GD = Y * (np.sqrt(self.kappa) / norm)
        return InputModel(F=FG[:, :n], G=FG[:, n:], Gamma=GD[:, :n], D=GD[:, n:],
                          K_Z=np.eye(self.n_z)), factors

    def gradient(self, factors, g_F, g_G, g_Gamma, g_D):
        """d/dtheta from the gradients with respect to F, G, Gamma and D."""
        X, U, r, S_isqrt, Y, norm = factors
        # the sphere scaling: its Jacobian projects out the radial direction
        g_GD = np.hstack([g_Gamma, g_D])
        u = Y / norm
        g_Y = np.sqrt(self.kappa) / norm * (g_GD - u * np.sum(u * g_GD))
        # the polar map; d (X X^T)^-1/2 by Daleckii-Krein on X X^T = U diag(r^2) U^T,
        # whose divided differences of w^-1/2 are -1 / (r_i r_j (r_i + r_j))
        g_FG = np.hstack([g_F, g_G])
        divided = -1.0 / (np.outer(r, r) * (r[:, None] + r[None, :]))
        C = U @ (divided * (U.T @ g_FG @ X.T @ U)) @ U.T
        g_X = S_isqrt @ g_FG + (C + C.T) @ X
        return np.concatenate([g_X.ravel(), g_Y.ravel()])

    def theta(self, model):
        """theta of a reachable input with these dims, None for any other input.

        K_Z = L L^T is absorbed into G and D, and the state change T = R^-1,
        with P = R R^T the Lyapunov solution, takes it to input-normal form.
        """
        if (model.n_xi, model.n_z, model.n_x) != (self.n_xi, self.n_z, self.n_x):
            return None
        w, V = np.linalg.eigh(model.K_Z)
        L = V * np.sqrt(np.maximum(w, 0.0))
        G = model.G @ L
        try:
            R = np.linalg.cholesky(lyap_solve(model.F, G, np.eye(self.n_z)).P_star)
        except (ValueError, np.linalg.LinAlgError):  # F not stable, or (F, G) not reachable
            return None
        X = np.linalg.solve(R, np.hstack([model.F @ R, G]))
        return np.concatenate([X.ravel(), np.hstack([model.Gamma @ R, model.D @ L]).ravel()])


def _logdet_gradient(system, sol):
    """Gradient of log det K_I at the joint ARE solution in the input's F, G, Gamma, D (K_Z = I).

    With gain L and closed loop A_cl at the solution P, the adjoint W
    solves W = A_cl^T W A_cl + Chat^T K^-1 Chat; ``riccati._adjoint`` reads
    it from the solution's dual iterate, so no Stein equation is iterated.
    The Riccati map is stationary in the gain, so d log det K is
    tr(K^-1 dK) at fixed P plus tr(W dM), dM the map's change at fixed P
    and L. Per joint block:
    Ahat 2 W A_cl P, Chat 2 (K^-1 Chat - L^T W A_cl) P, Qhat W, Shat -2 W L
    and Rhat K^-1 + L^T W L, chained through F, H Gamma, G G^T, G D^T H^T
    and H D D^T H^T.
    """
    x = system.n_xi
    P, L, A_cl, C = sol.P_star, sol.gain, sol.closed_loop, system.Chat
    K_inv = solve_spd(sol.innovations, np.eye(system.q), context="K_I")
    W = _adjoint(sol)
    WAP = W @ A_cl @ P
    g_C = 2.0 * (K_inv @ C @ P - L.T @ WAP)
    g_S = -2.0 * W[:x] @ L
    g_R = K_inv + L.T @ W @ L
    G, HD = system.input.G, system.H @ system.input.D
    return (2.0 * WAP[:x, :x], 2.0 * W[:x, :x] @ G + g_S @ HD, system.H.T @ g_C[:, :x],
            system.H.T @ (g_S.T @ G + 2.0 * g_R @ HD))


def _structured_starts(channel, space, K_pred):
    """Shift-register [F G] (orthonormal rows, reachable), Gamma = 0, a flat or water-filling D.

    ``K_pred`` is the noise predictor's steady innovations covariance.
    """
    n_xi, n_z, n_x, kappa = space.n_xi, space.n_z, space.n_x, space.kappa
    if n_z == 0 or kappa <= 0:
        return []
    X = np.eye(n_xi, n_xi + n_z, -1)
    if n_xi:
        X[0, n_xi] = 1.0
    D0 = np.eye(n_x, n_z) * np.sqrt(kappa / max(1, min(n_x, n_z)))
    # allocate against the steady prediction-error covariance of the noise
    gains, p, Vt = _waterfill(channel.H, K_pred, kappa)
    depth = min(len(gains), n_z)
    D_wf = np.zeros((n_x, n_z))
    D_wf[:, :depth] = Vt[:depth].T * np.sqrt(p[:depth])
    return [np.concatenate([X.ravel(), np.hstack([np.zeros((n_x, n_xi)), D]).ravel()])
            for D in (D0, D_wf)]


def _rejection(result, kappa):
    # why a candidate's full evaluation fails the search's acceptance, or None;
    # its noise solve is the one the noise gate passed
    checks = (("not in P-infinity", result.feasibility.member_of_P_infinity),
              ("power over budget", result.power <= kappa * (1.0 + 1e-9) + 1e-12),
              ("joint Riccati solve not converged", result.diagnostics["pi_converged"]))
    return next((why for why, ok in checks if not ok), None)


def _evaluate(model, noise, channel):
    # (model, result, rejection reason or None) of a candidate: power is linear in K_Z,
    # so an overshoot is scaled onto the budget, then the candidate is evaluated
    # independently at full tolerance
    kappa = channel.kappa
    try:
        power = asymptotic_power(model)
        if power > kappa:
            model = replace(model, K_Z=symmetrize(model.K_Z * (kappa / power)))
        result = asymptotic_rate(noise, model, channel)
        return model, result, _rejection(result, kappa)
    except (ValueError, np.linalg.LinAlgError, RuntimeError) as exc:
        return model, None, f"raised: {exc}"


def _noise_spectrum(noise):
    """(R0, Az, Mz, Cz) with S_V(z) = R0 + Cz (zI - Az)^-1 Mz + (.)^* and Az stable.

    An ordered real Schur form and one Sylvester solve split A into a
    stable block A1 and an antistable one A2, whose part of the transfer
    function, C2 (zI - A2)^-1 B2, is anticausal in At = A2^-1: with
    bt = At B2 and t0 = N - C2 bt, the noise is t0 W_t plus a causal sum
    over A1 and an anticausal one over At. R0 is its lag-0 covariance, from
    the Lyapunov solutions Pi1 of (A1, B1 K_W B1^T) and Pit of (At, bt K_W
    bt^T) less bt K_W bt^T, and the positive lags are Cz Az^(k-1) Mz. Callers
    keep every eigenvalue of A off the unit circle.
    """
    import scipy.linalg

    K = noise.K_W
    T, Z, n1 = scipy.linalg.schur(noise.A, output="real", sort="iuc")
    T12 = T[:n1, n1:]
    Y = scipy.linalg.solve_sylvester(T[:n1, :n1], -T[n1:, n1:], -T12) if T12.size else T12
    # the state change V = Z [[I, Y], [0, I]] makes A block diagonal
    B = Z.T @ noise.B
    B[:n1] -= Y @ B[n1:]
    C = noise.C @ Z
    C[:, n1:] += C[:, :n1] @ Y
    A1, B1, C1, C2 = T[:n1, :n1], B[:n1], C[:, :n1], C[:, n1:]
    At = np.linalg.inv(T[n1:, n1:])
    bt = At @ B[n1:]
    t0 = noise.N - C2 @ bt
    bKb = bt @ K @ bt.T
    Pi1, Pit = _smith(A1, B1 @ K @ B1.T, _SEARCH_TOL), _smith(At, bKb, _SEARCH_TOL) - bKb
    R0 = t0 @ K @ t0.T + C1 @ Pi1 @ C1.T + C2 @ Pit @ C2.T
    KbA = K @ bt.T @ At.T
    Az = np.block([[A1, -B1 @ KbA], [np.zeros((len(At), n1)), At.T]])
    Mz = np.vstack([A1 @ Pi1 @ C1.T + B1 @ K @ t0.T, C2.T])
    Cz = np.hstack([C1, C2 @ Pit @ At.T - t0 @ KbA])
    return symmetrize(R0), Az, Mz, Cz


def _waterfilling_input(noise, channel):
    """The capacity-achieving input when water-filling has full support, else None.

    Applies to a square, invertible H with at least one input and a noise
    whose A has no eigenvalue within STABILITY_MARGIN of the unit circle. The
    water-filling input spectrum Phi_X = nu I - (H^T S_V^-1 H)^-1 is
    H^-1 Psi H^-T with Psi = nu H H^T - S_V, at the level nu = (kappa + tr(H^-1 R0 H^-T)) / n_x that spends kappa
    when Phi_X is positive at every frequency ("full support"). With
    Psi(z) = R + Cz (zI - Az)^-1 M + (.)^*, R = nu H H^T - R0 and M = -Mz
    (``_noise_spectrum``), its stable spectral factor solves the Faurre DARE
    P = Az P Az^T + (M - Az P Cz^T)(R - Cz P Cz^T)^-1 (.)^T from P = 0
    (Anderson & Moore, Optimal Filtering, ch. 9). In X = -P it is the
    filtering DARE of ``are_solve`` with Ahat = Az, Chat = Cz, Qhat = 0,
    Shat = M and Rhat = R, whose gain is L = (M - Az P Cz^T) K^-1 and whose
    innovations covariance is K = R - Cz P Cz^T. Full support is certified
    when that solve converges (its stop rule, a Cholesky factor of K and a
    stable Az - L Cz) and P is PSD. The input is then F = Az, G = L,
    Gamma = H^-1 Cz, D = H^-1 and K_Z = K, with n_s states; a memoryless
    noise gives D = H^-1 and K_Z = R. Any other outcome, partial support
    included, returns None. Before the DARE, the whitened noise spectrum
    Phi = H^-1 S_V H^-T is evaluated at w = 0 and pi (z = 1 and -1, where
    Cz (zI - Az)^-1 Mz is real): support is partial, and None is returned
    without the DARE, if an eigenvalue of Phi there reaches nu. That test
    is exact for a memoryless noise, whose Phi is constant; a spectrum that
    peaks inside (0, pi) is still declined by the DARE, which runs its
    whole doubling budget.
    """
    H = channel.H
    if H.shape[0] != H.shape[1] or not H.size or np.any(
            np.abs(np.abs(np.linalg.eigvals(noise.A)) - 1.0) <= STABILITY_MARGIN):
        return None
    try:
        H_inv = np.linalg.inv(H)
        R0, Az, Mz, Cz = _noise_spectrum(noise)
        nu = (channel.kappa + np.trace(H_inv @ R0 @ H_inv.T)) / channel.n_x
        m, q = Cz.shape[1], len(H)
        # partial support shows without the DARE where the whitened spectrum reaches nu
        # at w = 0 or pi, z = 1 or -1, where it is real
        T = Cz @ np.linalg.solve(np.array([np.eye(m) - Az, -np.eye(m) - Az]), Mz)
        if np.linalg.eigvalsh(H_inv @ (R0 + T + T.swapaxes(1, 2)) @ H_inv.T).max() >= nu:
            return None
        sol = are_solve(SimpleNamespace(Ahat=Az, Chat=Cz, Qhat=np.zeros((m, m)), Shat=-Mz,
                                        Rhat=nu * (H @ H.T) - R0, m=m, q=q), tol=_SEARCH_TOL)
    except np.linalg.LinAlgError:  # a singular H or A2, an R without a Cholesky factor
        return None
    if not (sol.converged and is_psd(-sol.P_star)):
        return None
    return InputModel(F=Az, G=sol.gain, Gamma=H_inv @ Cz, D=H_inv, K_Z=sol.innovations)


def optimize_input(noise, channel, dims, config=None):
    """The capacity-achieving input in closed form, or a search for a high-rate one.

    Parameters
    ----------
    noise : NoiseModel
    channel : Channel
        Its ``kappa`` field is the power budget.
    dims : (int, int)
        State and innovation dimensions (n_xi, n_z) of the candidate
        inputs; n_xi = 0 means a memoryless input.
    config : OptimizerConfig, optional

    Returns
    -------
    (InputModel, CapacityResult)
        The best power-feasible candidate found and its independently
        re-evaluated rate. Deterministic for a fixed config. The result's
        ``diagnostics["search"]`` holds one record per start: its kind
        ("structured", "warm" or "random"), the L-BFGS ``nit``, ``nfev``,
        ``status`` and ``message`` (None when it was not searched from),
        ``guard_hits``, ``repeats`` (the index of the earlier record whose
        search and candidates it copies, or None) and its ``candidates``,
        each with its ``rate`` and the ``rejected`` reason (None when
        accepted). A closed-form input has one record of kind
        "waterfilling", with ``nit``, ``nfev``, ``status``, ``message`` and
        ``repeats`` None, no guard hits and its one accepted candidate.

    Raises
    ------
    ValueError
        If the noise or the channel fails validation.
    RuntimeError
        "feasible set not reached": before any search when the noise
        side fails (its Riccati solve does not converge, or the noise
        pair is not detectable or not stabilizable), naming each failure;
        after it when no candidate passes the feasibility tests.

    Notes
    -----
    The noise-side conditions, which no input can repair, are tested
    once before the search. Then, if ``dims`` is exactly (n_s, n_x), the
    closed-form input is tried (``_waterfilling_input``: a square,
    invertible H, no eigenvalue of A within STABILITY_MARGIN of the unit circle,
    and full water-filling support, which it certifies). A factor it
    returns is projected onto the budget and evaluated in full like any
    candidate, and if accepted it is returned, capacity itself, with no
    start run. Otherwise, a declined or rejected factor included, the
    search runs. Multi-start L-BFGS runs in input-normal
    coordinates (``_InputNormal``), where every point is on budget and
    rho(F) <= 1. The objective, -rate at the joint ARE solution solved
    from zero at _SEARCH_TOL, gets its exact gradient from one adjoint
    Stein equation (``_logdet_gradient``), whose solution the joint
    solve's dual iterate gives by one solve (``riccati._adjoint``), so an
    evaluation runs one doubling loop. Its one guard gives rate 0
    and a zero gradient where rho(F) >= 1 - STABILITY_MARGIN, X X^T is
    singular or the joint solve does not converge. Warm starts (each
    also a candidate as given; searched from when reachable and of the
    search's dims) and shift-register starts with flat and water-filling
    D always run in a search; seeded random starts follow, up to
    ``config.starts`` starts in all. With one channel input (n_x = 1)
    the two shift-register starts coincide: the whitened channel's one
    mode takes all of kappa, so the water-filling D is the flat one. A
    start without a model of its own whose theta an earlier start had is
    not searched again; its record copies that start's, with ``repeats``
    naming it. Each candidate is projected onto the
    budget and evaluated in full by ``asymptotic_rate``. The problem is
    not convex, so a searched result is a certified lower bound rather
    than a proven optimum.
    """
    cfg = config if config is not None else OptimizerConfig()
    n_xi, n_z = (as_count(d, "dims", minimum=0) for d in dims)
    n_x, kappa = channel.n_x, channel.kappa
    # every candidate input is written into this one system, starting from
    # the all-zero input (``space.model``'s at theta = 0); building it
    # validates the noise and the channel before the space takes the
    # budget's square root
    system = build_augmented(noise, InputModel(
        F=np.zeros((n_xi, n_xi)), G=np.zeros((n_xi, n_z)), Gamma=np.zeros((n_x, n_xi)),
        D=np.zeros((n_x, n_z)), K_Z=np.eye(n_z)), channel)
    space = _InputNormal(n_xi, n_z, n_x, kappa)

    nq = system.noise_quad
    sigma_sol = are_solve(nq)
    # no input repairs the noise side of P-infinity, so it is decided once,
    # on the noise-only problem, before any start is built
    feas = feasibility_report(noise, nq.input, nq)
    failed = [f"noise pair not {name}" for name in ("detectable", "stabilizable")
              if not getattr(feas, "noise_" + name)]
    if not sigma_sol.converged:
        failed.append("noise Riccati solve not converged")
    if failed:
        raise RuntimeError(f"feasible set not reached: {', '.join(failed)}; "
                           "no input can repair the noise side")
    # with full water-filling support the capacity-achieving input has n_s states and
    # n_x innovations, and is built in closed form where exactly those dims are asked
    if (n_xi, n_z) == (noise.n_s, n_x):
        model = _waterfilling_input(noise, channel)
        if model is not None:
            model, result, reason = _evaluate(model, noise, channel)
            if reason is None:
                record = dict(kind="waterfilling", nit=None, nfev=None, status=None, message=None,
                              guard_hits=0, repeats=None,
                              candidates=[{"rate": result.rate_nats, "rejected": None}])
                return model, replace(result, diagnostics={**result.diagnostics,
                                                           "search": [record]})
    # scipy.optimize costs several times the rest of the package to import, so
    # only a search loads it; minimize is looked up at each call
    import scipy.optimize

    def objective(theta):
        # (-rate, its gradient); the guard gives rate 0 and a zero gradient and
        # counts in the record of the start being searched
        model, factors = space.model(theta)
        sol = None
        if factors is not None and spectral_radius(model.F) < 1.0 - STABILITY_MARGIN:
            system._update(noise, model)
            sol = are_solve(system, tol=_SEARCH_TOL)
        if sol is None or not sol.converged:
            record["guard_hits"] += 1
            return 0.0, np.zeros(space.size)
        grads = _logdet_gradient(system, sol)
        return -0.5 * (sol.logdet - sigma_sol.logdet), -0.5 * space.gradient(factors, *grads)

    # (kind, theta, model) per start: structured, warm, then seeded random
    # fills; a warm start's own model is a candidate too
    starts = [("structured", theta, None)
              for theta in _structured_starts(channel, space, sigma_sol.innovations)]
    starts += [("warm", space.theta(model), model) for model in cfg.warm_starts]
    while len(starts) < cfg.starts:
        starts.append(("random", substream(cfg.seed, len(starts)).standard_normal(space.size),
                       None))

    # the search is a deterministic function of theta0, so a start without a model
    # of its own whose theta0 an earlier one had (the flat and water-filling
    # shift-register starts coincide when n_x = 1) takes that start's record
    # instead of being searched and evaluated again; ``best`` moves only on a
    # strictly higher rate, so the result is the same
    best, records, searched = None, [], {}
    for i, (kind, theta0, model0) in enumerate(starts):
        record = dict(kind=kind, nit=None, nfev=None, status=None, message=None, guard_hits=0,
                      repeats=None, candidates=[])
        records.append(record)
        if model0 is None and space.size > 0:
            first = searched.setdefault(theta0.tobytes(), i)
            if first != i:
                record.update(records[first], kind=kind, repeats=first,
                              candidates=[dict(c) for c in records[first]["candidates"]])
                continue
        candidates = [] if model0 is None else [model0]
        if theta0 is not None and space.size > 0:
            res = scipy.optimize.minimize(
                objective, theta0, jac=True, method="L-BFGS-B",
                options={"maxiter": cfg.maxiter, "ftol": 1e-12, "gtol": 1e-7},
            )
            record.update(nit=int(res.nit), nfev=int(res.nfev), status=int(res.status),
                          message=str(res.message))
            candidates.append(space.model(res.x)[0])
        for model in candidates:
            model, result, reason = _evaluate(model, noise, channel)
            record["candidates"].append({"rate": getattr(result, "rate_nats", None),
                                         "rejected": reason})
            if reason is None and (best is None or result.rate_nats > best[1].rate_nats):
                best = (model, result)
    if best is None:
        total = sum(c["rate"] is not None for r in records for c in r["candidates"])
        raise RuntimeError(
            f"feasible set not reached: 0 of {total} evaluated candidates "
            "passed the feasibility tests; widen dims or relax kappa"
        )
    model, result = best
    return model, replace(result, diagnostics={**result.diagnostics, "search": records})


def sweep_kappa(noise, channel, kappas, dims, config=None):
    """Optimize the input at each power budget, chaining warm starts.

    Earlier solutions are handed to later budgets as warm starts, which
    keeps the optimized rate monotone in kappa up to solver tolerance.
    Every warm start runs in a search, so at later budgets warm starts
    first replace the random ones and then add to ``config.starts``. A
    budget at which ``optimize_input`` takes the closed-form input (full
    water-filling support, dims (n_s, n_x)) runs no start, warm ones
    included; its input still warm-starts the later budgets that search.
    Returns one SweepPoint per budget, in the order given.
    """
    cfg = config if config is not None else OptimizerConfig()
    points = []
    warm = list(cfg.warm_starts)
    for kappa in kappas:
        chan = Channel(H=channel.H, kappa=float(kappa))
        cfg_k = replace(cfg, warm_starts=tuple(warm))
        try:
            model, result = optimize_input(noise, chan, dims, cfg_k)
        except RuntimeError:
            points.append(SweepPoint(kappa=float(kappa), rate_nats=float("nan"),
                                     power=float("nan"), feasible=False))
            continue
        warm.append(model)
        points.append(SweepPoint(kappa=float(kappa), rate_nats=result.rate_nats,
                                 power=result.power, feasible=True, input=model, result=result))
    return points


def case2_rate(schedule, channel, n_max):
    """Convergence of finite-horizon averages for a drifting schedule.

    Runs the finite-horizon computation once out to ``n_max`` and reads
    the running average at a geometric grid of horizons, comparing each
    against the steady-state rate of the limit models.

    Raises
    ------
    ValueError
        If the limit models are invalid or the limit F is not
        exponentially stable (the schedule then has no meaningful
        limit rate).
    """
    n_max = as_count(n_max, "n_max")
    if not isinstance(schedule, CoefficientSchedule):
        raise TypeError("schedule must be a CoefficientSchedule")
    limit_result = asymptotic_rate(schedule.noise_limit, schedule.input_limit, channel)
    rates = finite_n_rate(schedule, channel, n_max).trace[:, 3]
    # the powers of two below n_max, then n_max
    grid = [2 ** k for k in range((n_max - 1).bit_length())] + [n_max]
    rows = [(n, rates[n - 1], abs(rates[n - 1] - limit_result.rate_nats)) for n in grid]
    return Case2Trace(points=np.asarray(rows, dtype=np.float64),
                      limit_rate=limit_result.rate_nats, limit_result=limit_result)
