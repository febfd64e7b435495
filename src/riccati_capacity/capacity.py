"""Rate and power computations for the Gaussian channel with state noise.

Everything reduces to innovations covariances of two one-step prediction
problems. Predicting the channel output Y through the joint (input,
noise) state gives K_I; predicting the noise V alone gives K_Ihat. The
finite-block rate averages the clamped per-step log-det differences

    (1/2n) sum_t max(0, logdet K_{I_t} - logdet K_{Ihat_t})

and the asymptotic rate replaces both recursions by their steady states.
Average input power follows the companion Lyapunov recursion. The
optimizer searches over input realizations (F, G, Gamma, D, K_Z) under
the power budget; a classical water-filling solver is kept alongside as
an independent reference for the memoryless special case.
"""

from dataclasses import dataclass, replace

import numpy as np

from .linalg import as_count, as_finite, chol_logdet, spectral_radius, substream, symmetrize
from .lyapunov import MAX_DOUBLINGS, STABILITY_MARGIN, _smith, input_power, lyap_solve
from .lyapunov import _step as _lyap_core
from .models import Channel, InputModel, NoiseModel, build_augmented, require_valid
from .riccati import _predict, are_solve, innovations_covariance
from .systests import feasibility_report
# block_diag, to_quadruple and validate stay importable here because
# bench/tracing.py patches them at these names
from .linalg import block_diag  # noqa: F401
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
    ``diagnostics`` is a flat dict of solver convergence data.
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
        in force at the final step.

    Notes
    -----
    The noise-only and joint predictors start from the step-1 models'
    initial laws, K_S1 and blockdiag(K_Xi1, K_S1), so both describe one
    channel; when the feasibility tests pass, the rate converges to the
    asymptotic one uniformly over these laws.
    Each step runs one Riccati prediction step (``riccati._predict``) per
    DRE, which gives K_{Ihat_t} or K_{I_t}, its log-det and the next
    covariance from one factorization. Each per-step rate term is clamped
    at zero individually, so a transient with the noise predictor ahead
    of the joint one cannot push the average negative.
    """
    n = as_count(n, "n")
    schedule = _unpack_models(models)
    noise_1 = schedule.noise_at(1)
    input_1 = schedule.input_at(1)
    # validation plus dimension cross-checks happen once, on the step-1 models
    system = build_augmented(noise_1, input_1, channel)
    nq = system.noise_quad
    Sigma, Pi = symmetrize(noise_1.K_S1), symmetrize(system.K_Theta1)
    P = symmetrize(input_1.K_Xi1)

    trace = np.empty((n, 5))
    rate_sum = 0.0
    power_sum = 0.0
    for t in range(1, n + 1):
        if t > 1:
            # rewrites only the blocks of a model that changed, so a
            # constant pair costs no assembly after step 1
            try:
                system.update(schedule.noise_at(t), schedule.input_at(t))
            except ValueError as exc:
                raise ValueError(f"step {t}: {exc}") from None
        try:
            Sigma_next, K_Ihat, ld_hat, _ = _predict(nq, Sigma, context="K_Ihat")
            Pi_next, K_I, ld, _ = _predict(system, Pi, context="K_I")
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(f"step {t}: {exc}") from None
        rate_sum += max(0.0, ld - ld_hat)
        input_t = system.input
        power_sum += input_power(input_t, P)
        trace[t - 1] = (t, ld, ld_hat, rate_sum / (2.0 * t), power_sum / t)
        if t < n:
            Sigma, Pi = Sigma_next, Pi_next
            P = _lyap_core(input_t.F, input_t.G, input_t.K_Z, P)
    return CapacityResult(
        rate_nats=rate_sum / (2.0 * n),
        power=power_sum / n,
        Sigma_star=Sigma,
        Pi_star=Pi,
        P_star=P,
        K_I=symmetrize(K_I),
        K_Ihat=symmetrize(K_Ihat),
        feasibility=None,
        trace=trace,
        diagnostics={"horizon": n},
    )


def asymptotic_rate(noise, input, channel, tol=1e-11, max_iter=MAX_DOUBLINGS):
    """Steady-state rate and power for fixed models.

    Solves the steady states of both prediction problems, each from zero,
    and the input Lyapunov equation, runs the feasibility tests, then
    evaluates

        rate = (1/2) max(0, logdet K_I - logdet K_Ihat)
        power = tr(Gamma P Gamma^T + D K_Z D^T).

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
        With the FeasibilityReport attached. Its diagnostics'
        ``sigma_converged`` and ``pi_converged`` say that each Riccati
        solve stopped within tolerance of a fixed point, not that the
        fixed point is the stabilizing one; ``sigma_spectral_radius``,
        ``pi_spectral_radius`` and the feasibility report say that.

    Raises
    ------
    ValueError
        If a model is invalid or F is not exponentially stable (the
        average power has no limit in that case).
    """
    system = build_augmented(noise, input, channel)
    # first, so an F that is not exponentially stable raises before any other work
    p_sol = lyap_solve(input.F, input.G, input.K_Z, tol=tol)
    feas = feasibility_report(noise, input, system)
    nq = system.noise_quad
    sigma_sol = are_solve(nq, tol=tol, max_iter=max_iter)
    pi_sol = are_solve(system, tol=tol, max_iter=max_iter)
    K_I = symmetrize(innovations_covariance(system, pi_sol.P_star))
    K_Ihat = symmetrize(innovations_covariance(nq, sigma_sol.P_star))
    ld = chol_logdet(K_I, context="K_I")
    ld_hat = chol_logdet(K_Ihat, context="K_Ihat")
    rate = 0.5 * max(0.0, ld - ld_hat)
    power = input_power(input, p_sol.P_star)
    diagnostics = {
        "sigma_converged": sigma_sol.converged,
        "sigma_iterations": sigma_sol.iterations,
        "sigma_residual": sigma_sol.residual,
        "sigma_spectral_radius": sigma_sol.spectral_radius,
        "pi_converged": pi_sol.converged,
        "pi_iterations": pi_sol.iterations,
        "pi_residual": pi_sol.residual,
        "pi_spectral_radius": pi_sol.spectral_radius,
        "lyapunov_residual": p_sol.residual,
        "lyapunov_method": p_sol.method,
    }
    if not feas.member_of_P_infinity:
        # limits may exist but depend on the initial condition in this regime
        diagnostics["initial_condition_dependent"] = True
    return CapacityResult(
        rate_nats=rate,
        power=power,
        Sigma_star=sigma_sol.P_star,
        Pi_star=pi_sol.P_star,
        P_star=p_sol.P_star,
        K_I=K_I,
        K_Ihat=K_Ihat,
        feasibility=feas,
        trace=None,
        diagnostics=diagnostics,
    )


def asymptotic_power(input):
    """Steady-state average power of an input realization.

    tr(Gamma P Gamma^T + D K_Z D^T) with P the Lyapunov fixed point,
    solved at ``lyap_solve``'s default tolerance. Raises ValueError when
    F is not exponentially stable.
    """
    require_valid(input)
    return input_power(input, lyap_solve(input.F, input.G, input.K_Z).P_star)


_WATERFILL_ITERS = 200  # bisection steps on the water level


def _waterfill_powers(gains, kappa):
    # bisection on the water level mu: sum max(0, mu - 1/g) = kappa
    active = gains > 0.0
    p = np.zeros_like(gains)
    if kappa <= 0.0 or not np.any(active):
        return p
    inv = 1.0 / gains[active]
    lo = float(np.min(inv))
    hi = float(np.max(inv)) + kappa
    for _ in range(_WATERFILL_ITERS):
        mid = 0.5 * (lo + hi)
        if np.sum(np.maximum(0.0, mid - inv)) > kappa:
            hi = mid
        else:
            lo = mid
    mu = 0.5 * (lo + hi)
    alloc = np.maximum(0.0, mu - inv)
    total = float(np.sum(alloc))
    if total > 0.0:
        alloc *= kappa / total
    p[active] = alloc
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
        If H, R or kappa is not finite, R is not square or not positive
        definite, H's row count is not R's size, or kappa is negative.

    Notes
    -----
    The channel is whitened by the Cholesky factor of R; the water level
    over the squared singular values is located by bisection and the
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
    try:
        gains, p, _ = _waterfill(H, R, kappa)
    except np.linalg.LinAlgError:
        raise ValueError("R not positive definite") from None
    rate = 0.5 * float(np.sum(np.log1p(gains * p)))
    return rate, p


# the search objective adds _PENALTY * max(0, rho - (1 - _PENALTY_MARGIN))^2
# for each loop radius rho (F and the joint predictor) near or past the
# unit circle; its Lyapunov and Riccati solves stop at _SEARCH_TOL
_PENALTY = 1e4
_PENALTY_MARGIN = 1e-6
_SEARCH_TOL = 1e-12


def _margin_penalty(rho):
    return _PENALTY * max(0.0, rho - (1.0 - _PENALTY_MARGIN)) ** 2


@dataclass(frozen=True, eq=False)
class OptimizerConfig:
    """Settings for the input-realization search.

    ``starts`` counts all local searches, structured ones included, and
    ``seed`` keys the random ones. ``maxiter`` caps the L-BFGS iterations
    of each start. ``warm_starts`` passes known-good input models (used
    by the kappa sweep to chain solutions).
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


class _ParamSpace:
    """The L-BFGS vector theta of an input: F, G, Gamma, D and L flattened, K_Z = L L^T."""

    def __init__(self, n_xi, n_z, n_x):
        self.n_xi, self.n_z, self.n_x = n_xi, n_z, n_x
        self.tril = np.tril_indices(n_z)
        sizes = [n_xi * n_xi, n_xi * n_z, n_x * n_xi, n_x * n_z, len(self.tril[0])]
        self.splits = np.cumsum(sizes)[:-1]
        self.size = int(np.sum(sizes))

    def model(self, theta):
        fs, gs, gammas, ds, ls = np.split(np.asarray(theta, dtype=np.float64),
                                          self.splits)
        L = np.zeros((self.n_z, self.n_z))
        L[self.tril] = ls
        return InputModel(F=fs.reshape(self.n_xi, self.n_xi),
                          G=gs.reshape(self.n_xi, self.n_z),
                          Gamma=gammas.reshape(self.n_x, self.n_xi),
                          D=ds.reshape(self.n_x, self.n_z), K_Z=symmetrize(L @ L.T))

    def theta(self, model):
        """theta of an input with these dims, None for any other input.

        L is the Cholesky factor of K_Z plus a small jitter, so a
        rank-deficient K_Z is accepted.
        """
        if (model.n_xi, model.n_z, model.n_x) != (self.n_xi, self.n_z, self.n_x):
            return None
        n = self.n_z
        jitter = 1e-12 * (1.0 + float(np.trace(model.K_Z)) / max(n, 1))
        L = np.linalg.cholesky(symmetrize(model.K_Z) + jitter * np.eye(n))
        return self.pack(model.F, model.G, model.Gamma, model.D, L)

    def pack(self, F, G, Gamma, D, L):
        return np.concatenate([np.ravel(F), np.ravel(G), np.ravel(Gamma), np.ravel(D),
                               L[self.tril]])


def _project_to_budget(model, kappa, power):
    """Scale K_Z down so the steady-state power ``power`` meets the budget exactly.

    Power is linear in K_Z, so multiplying K_Z by kappa/power lands on
    the boundary; inputs already inside the budget are left alone.
    """
    if power <= kappa or power <= 0.0:
        return model
    return replace(model, K_Z=symmetrize(model.K_Z * (kappa / power)))


def _structured_starts(channel, space, kappa, K_pred):
    """Deterministic starting points: flat allocation, then water-filling.

    ``K_pred``, the noise predictor's steady innovations covariance, is
    positive definite once the noise side has passed its tests.
    """
    n_xi, n_z, n_x = space.n_xi, space.n_z, space.n_x
    if n_z == 0 or kappa <= 0:
        return []
    D0 = np.eye(n_x, n_z) * np.sqrt(kappa / max(1, min(n_x, n_z)))
    # allocate against the steady prediction-error covariance of the noise
    gains, p, Vt = _waterfill(channel.H, K_pred, kappa)
    depth = min(len(gains), n_z)
    D_wf = np.zeros((n_x, n_z))
    D_wf[:, :depth] = Vt[:depth].T * np.sqrt(p[:depth])
    return [space.pack(np.zeros((n_xi, n_xi)), np.zeros((n_xi, n_z)),
                       np.zeros((n_x, n_xi)), D, np.eye(n_z)) for D in (D0, D_wf)]


def _random_start(space, kappa, rng):
    n_xi, n_z, n_x = space.n_xi, space.n_z, space.n_x
    F = rng.standard_normal((n_xi, n_xi))
    if n_xi:
        rho = spectral_radius(F)
        F *= (0.2 + 0.6 * rng.random()) / max(rho, 1e-9)
    G = 0.5 * rng.standard_normal((n_xi, n_z))
    Gamma = 0.5 * rng.standard_normal((n_x, n_xi))
    D = rng.standard_normal((n_x, n_z)) * np.sqrt(max(kappa, 0.1) / max(1, n_z))
    L = np.tril(0.3 * rng.standard_normal((n_z, n_z)))
    L[np.diag_indices(n_z)] = 0.3 + np.abs(np.diag(L))
    return space.pack(F, G, Gamma, D, L)


def optimize_input(noise, channel, dims, config=None):
    """Search for a high-rate input realization under the power budget.

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
        re-evaluated rate. Deterministic for a fixed config.

    Raises
    ------
    RuntimeError
        "feasible set not reached": before any search when the noise
        side fails (its Riccati solve does not converge, or the noise
        pair is not detectable or not stabilizable), naming each failure;
        after it when no candidate passes the feasibility tests.

    Notes
    -----
    The noise-side conditions, which no input can repair, are tested
    once before the search. Multi-start local search: penalized L-BFGS
    with finite-difference gradients over (F, G, Gamma, D, L),
    K_Z = L L^T. Within each evaluation the input is rescaled onto the
    power boundary whenever it overshoots, so the objective is always a
    rate the budget allows; each evaluation solves the joint ARE from
    zero at _SEARCH_TOL, so the objective is a function of the
    parameters alone. Structured starts (flat and water-filling
    allocations, plus any warm starts) come before seeded random ones;
    the problem is not convex, so the result is a certified lower bound
    rather than a proven optimum.
    """
    # the search is the package's only use of scipy, whose import costs
    # several times the rest of the package's, so it is loaded here;
    # minimize is looked up at each call
    import scipy.optimize

    cfg = config if config is not None else OptimizerConfig()
    n_xi, n_z = (as_count(d, "dims", minimum=0) for d in dims)
    kappa = channel.kappa
    space = _ParamSpace(n_xi, n_z, channel.n_x)
    # validates noise and channel; every candidate input is written into
    # this one system, starting from the all-zero input
    system = build_augmented(noise, space.model(np.zeros(space.size)), channel)

    nq = system.noise_quad
    sigma_sol = are_solve(nq)
    # no input repairs the noise side of P-infinity, so it is decided once,
    # on the noise-only problem, before any start is built
    try:
        feas = feasibility_report(noise, nq.input, nq)
        failed = [f"noise pair not {name}" for name in ("detectable", "stabilizable")
                  if not getattr(feas, "noise_" + name)]
    except (ValueError, np.linalg.LinAlgError) as exc:
        failed = [f"noise feasibility tests raised ({exc})"]
    if not sigma_sol.converged:
        failed.append("noise Riccati solve not converged")
    if failed:
        raise RuntimeError(f"feasible set not reached: {', '.join(failed)}; "
                           "no input can repair the noise side")
    K_hat = symmetrize(innovations_covariance(nq, sigma_sol.P_star))
    ld_hat = chol_logdet(K_hat, context="K_Ihat")

    def evaluate_theta(theta):
        # penalized negative rate; the candidate is power-projected first
        if not np.all(np.isfinite(theta)):
            return 1e7
        model = space.model(theta)
        rho_F = spectral_radius(model.F)
        pen = _margin_penalty(rho_F)
        if rho_F > 1.0 - STABILITY_MARGIN:
            val = 10.0 + rho_F + pen
            return float(val) if np.isfinite(val) else 1e7
        try:
            # valid by construction and rho(F) checked above, so the power
            # skips lyap_solve's checks and goes to its Smith doubling
            power = input_power(model, _smith(model.F, symmetrize(
                model.G @ model.K_Z @ model.G.T), _SEARCH_TOL))
            model = _project_to_budget(model, kappa, power)
            system.update(noise, model)
            pi_sol = are_solve(system, tol=_SEARCH_TOL)
            if not np.all(np.isfinite(pi_sol.P_star)):
                return 1e6 + pen
            ld = chol_logdet(innovations_covariance(system, pi_sol.P_star),
                             context="K_I")
        except (np.linalg.LinAlgError, ValueError):
            return 1e6 + pen
        rate = 0.5 * max(0.0, ld - ld_hat)
        pen += _margin_penalty(pi_sol.spectral_radius)
        val = -rate + pen
        # finite-difference gradients choke on inf; cap runaway penalties
        return float(val) if np.isfinite(val) else 1e7

    # (theta, model) per start: structured, warm, then seeded random fills;
    # a structured or warm start's own model is a candidate too
    starts = [(theta, space.model(theta))
              for theta in _structured_starts(channel, space, kappa, K_hat)]
    starts += [(space.theta(model), model) for model in cfg.warm_starts]
    while len(starts) < cfg.starts:
        starts.append((_random_start(space, kappa, substream(cfg.seed, len(starts))), None))

    best = None
    total = 0
    for theta0, model0 in starts:
        candidates = [] if model0 is None else [model0]
        if theta0 is not None and space.size > 0:
            res = scipy.optimize.minimize(
                evaluate_theta, theta0, method="L-BFGS-B",
                options={"maxiter": cfg.maxiter, "ftol": 1e-12, "gtol": 1e-7},
            )
            candidates.append(space.model(res.x))
        for model in candidates:
            # exact projection, then a full-tolerance independent evaluation
            try:
                model = _project_to_budget(model, kappa, asymptotic_power(model))
                result = asymptotic_rate(noise, model, channel)
            except (ValueError, np.linalg.LinAlgError, RuntimeError):
                continue
            total += 1
            ok = (
                result.feasibility.member_of_P_infinity
                and result.power <= kappa * (1.0 + 1e-9) + 1e-12
                and result.diagnostics["sigma_converged"]
                and result.diagnostics["pi_converged"]
            )
            if ok and (best is None or result.rate_nats > best[1].rate_nats):
                best = (model, result)
    if best is None:
        raise RuntimeError(
            f"feasible set not reached: 0 of {total} evaluated candidates "
            "passed the feasibility tests; widen dims or relax kappa"
        )
    return best


def sweep_kappa(noise, channel, kappas, dims, config=None):
    """Optimize the input at each power budget, chaining warm starts.

    Earlier solutions are handed to later budgets as warm starts, which
    keeps the optimized rate monotone in kappa up to solver tolerance.
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
        points.append(SweepPoint(
            kappa=float(kappa),
            rate_nats=result.rate_nats,
            power=result.power,
            feasible=True,
            input=model,
            result=result,
        ))
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
    limit_result = asymptotic_rate(
        schedule.noise_limit, schedule.input_limit, channel
    )
    full = finite_n_rate(schedule, channel, n_max)
    grid = []
    k = 1
    while k < n_max:
        grid.append(k)
        k *= 2
    grid.append(n_max)
    rows = []
    for n in grid:
        rate_n = full.trace[n - 1, 3]
        rows.append((n, rate_n, abs(rate_n - limit_result.rate_nats)))
    return Case2Trace(
        points=np.asarray(rows, dtype=np.float64),
        limit_rate=limit_result.rate_nats,
        limit_result=limit_result,
    )
