"""Monte Carlo validation of the analytic covariances and powers.

Trajectories of the noise state, input state, channel input, and channel
output are sampled exactly from the model recursions; a time-varying
Kalman predictor run on the sampled outputs then produces empirical
innovations whose statistics can be held against the Riccati and
Lyapunov quantities. Agreement is judged in standard errors, so the
tolerance tightens automatically as paths are added.
"""

from dataclasses import dataclass

import numpy as np

from .capacity import CapacityResult
from .linalg import _rekey, as_count, substream, sup_norm, symmetrize
from .lyapunov import _step as _lyap_core
from .lyapunov import input_power
from .models import build_augmented
from .riccati import _predict
from .systests import psd_sqrt
# stay importable here because bench/tracing.py patches them at these names
from .models import to_quadruple  # noqa: F401
from .riccati import dre_run  # noqa: F401

__all__ = [
    "TrajectoryBatch",
    "KalmanRun",
    "CheckRow",
    "ComparisonReport",
    "sample_paths",
    "kalman_run",
    "empirical_report",
]

# sampled states beyond this magnitude stop the run; unstable noise is
# legitimate, silent overflow to inf is not
OVERFLOW_GUARD = 1e12

# a comparison row passes when every entry is within this many standard errors
TOL_SE = 3.0


@dataclass(frozen=True, eq=False)
class TrajectoryBatch:
    """Sampled trajectories, indexed (path, t, component).

    The arrays are views over time-major (t, path, component) storage, so
    they are not C-contiguous; ``batch.Y.transpose(1, 0, 2)`` is the
    contiguous stored block. ``horizon`` counts the steps actually
    stored. When a sampled state passes OVERFLOW_GUARD at step t, arrays
    are truncated to t - 1 steps and ``saturated_at`` records t;
    otherwise it is None. Identical models and master_seed reproduce the
    batch bit for bit, path by path, regardless of generation order.
    ``system`` is the JointSystem built from the three models, which
    ``empirical_report`` filters on.
    """

    noise: object
    input: object
    channel: object
    system: object
    paths: int
    horizon: int
    master_seed: int
    S: np.ndarray
    V: np.ndarray
    Xi: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    saturated_at: int = None


@dataclass(frozen=True, eq=False)
class KalmanRun:
    """Filter output: innovations, state errors, and the analytic schedule.

    ``innovations`` is (paths, horizon, n_y); ``state_errors`` holds
    Theta_t minus its one-step prediction, (paths, horizon, n_theta).
    Both are (path, t, component) views over time-major storage, like the
    arrays of a ``TrajectoryBatch``, and are not C-contiguous.
    ``Pi_seq`` and ``K_I_seq`` are the error and innovations covariances
    the filter was built from, one slice per step.
    """

    innovations: np.ndarray
    state_errors: np.ndarray
    Pi_seq: np.ndarray
    K_I_seq: np.ndarray


@dataclass(frozen=True, eq=False)
class CheckRow:
    """One empirical-versus-analytic comparison."""

    name: str
    analytic: np.ndarray
    empirical: np.ndarray
    deviation: float
    rel_deviation: float
    se: float
    se_ratio: float
    tol_se: float
    ok: bool


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """All checks for one batch; ``ok`` is the conjunction of the rows.

    ``innovations`` are the joint predictor's innovations the checks were
    computed from, (paths, horizon, n_y).
    """

    rows: tuple
    paths: int
    horizon: int
    ok: bool
    innovations: np.ndarray = None


def _draw_layout(noise, input, horizon):
    n_s, n_xi = noise.n_s, input.n_xi
    n_w, n_z = noise.n_w, input.n_z
    return n_s + n_xi + horizon * (n_w + n_z)


def sample_paths(noise, input, channel, horizon, paths, master_seed):
    """Sample trajectories of (S, V, Xi, X, Y) from the model recursions.

    Parameters
    ----------
    noise, input, channel : models
    horizon : int
        Steps per path, >= 1.
    paths : int
        Number of independent paths, >= 1.
    master_seed : int
        Path i draws from a counter-based generator keyed on
        (master_seed, i), so the batch is reproducible and paths are
        independent by construction. One generator is built per call and
        re-keyed for each path; it reads exactly the stream
        ``substream(master_seed, i)`` gives.

    Notes
    -----
    Per path the generator emits, in order: the S_1 standard normals,
    the Xi_1 standard normals, then (W_t, Z_t) blocks for t = 1..horizon.
    Covariance square roots come from ``psd_sqrt``, which accepts what
    ``validate`` accepts and counts eigenvalues up to PSD_SLACK times the
    largest as zero, so degenerate covariances, singular or with such
    eigenvalues of either sign, are sampled exactly on their support.
    The returned arrays are (path, t, component) views over
    time-major storage, so each step reads and writes contiguous blocks;
    they are not C-contiguous. Memory grows as paths * horizon * total
    dimension: 8 bytes for each (W_t, Z_t) draw and each S, V, Xi, X, Y
    entry of every path and step. At 20,000 paths and 50 steps of a model
    with n_s = n_w = 2 and n_y = n_xi = n_z = n_x = 1 that is 24 MB of
    draws and 48 MB of trajectories; a whole ``riccati-capacity simulate
    --trace`` call on it, both filter passes included, peaked at 139 MB
    resident in a fresh interpreter (29 MB before the call; x86-64 Linux,
    numpy 2.4).
    """
    horizon = as_count(horizon, "horizon")
    paths = as_count(paths, "paths")
    # runs the full validation including cross-dimension checks
    system = build_augmented(noise, input, channel)

    n_s, n_w, n_y = noise.n_s, noise.n_w, noise.n_y
    n_xi, n_z, n_x = input.n_xi, input.n_z, input.n_x
    per_path = _draw_layout(noise, input, horizon)
    eps = np.empty((paths, per_path))
    rng = substream(master_seed, 0)
    for i, row in enumerate(eps):
        _rekey(rng, master_seed, i)
        rng.standard_normal(out=row)

    sq_S1 = psd_sqrt(noise.K_S1)
    sq_Xi1 = psd_sqrt(input.K_Xi1)
    sq_W = psd_sqrt(noise.K_W)
    sq_Z = psd_sqrt(input.K_Z)

    S_now = noise.mu_S1 + eps[:, :n_s] @ sq_S1.T
    Xi_now = input.mu_Xi1 + eps[:, n_s:n_s + n_xi] @ sq_Xi1.T
    # time-major: step t reads one contiguous (paths, n_w + n_z) block; the
    # copy replaces eps, so the draws are held once
    steps = np.ascontiguousarray(
        eps[:, n_s + n_xi:].reshape(paths, horizon, n_w + n_z).transpose(1, 0, 2))
    del eps

    S = np.empty((horizon, paths, n_s))
    V = np.empty((horizon, paths, n_y))
    Xi = np.empty((horizon, paths, n_xi))
    X = np.empty((horizon, paths, n_x))
    Y = np.empty((horizon, paths, n_y))

    A_T, B_T, C_T, N_T = noise.A.T, noise.B.T, noise.C.T, noise.N.T
    F_T, G_T, Gamma_T, D_T = input.F.T, input.G.T, input.Gamma.T, input.D.T
    H_T = channel.H.T

    saturated_at = None
    stored = 0
    for t in range(horizon):
        if max(sup_norm(S_now), sup_norm(Xi_now)) > OVERFLOW_GUARD:
            saturated_at = t + 1
            break
        W_t = steps[t, :, :n_w] @ sq_W.T
        Z_t = steps[t, :, n_w:] @ sq_Z.T
        V_t = S_now @ C_T + W_t @ N_T
        X_t = Xi_now @ Gamma_T + Z_t @ D_T
        S[t] = S_now
        Xi[t] = Xi_now
        V[t] = V_t
        X[t] = X_t
        Y[t] = X_t @ H_T + V_t
        stored = t + 1
        S_now = S_now @ A_T + W_t @ B_T
        Xi_now = Xi_now @ F_T + Z_t @ G_T
    S, V, Xi, X, Y = (a[:stored].transpose(1, 0, 2) for a in (S, V, Xi, X, Y))
    return TrajectoryBatch(
        noise=noise, input=input, channel=channel, system=system,
        paths=paths, horizon=stored, master_seed=int(master_seed),
        S=S, V=V, Xi=Xi, X=X, Y=Y, saturated_at=saturated_at,
    )


def _filter_batch(quad, obs, predictions=None):
    """Time-varying one-step predictor over a batch of observation paths.

    ``quad`` is a JointSystem, started from its initial law (mu_Theta1,
    K_Theta1). Each step is one prediction step (``riccati._predict``): it
    gives the innovations covariance, the gain that advances the paths and
    the next error covariance. ``obs`` is indexed (path, t, component);
    ``predictions``, if given, is a (t, path, component) buffer for the
    one-step state predictions. Returns (innovations, P_seq, K_seq): the
    per-path innovations, a (path, t, component) view over time-major
    storage, and the analytic error and innovations covariance schedules.
    """
    paths, horizon, _ = obs.shape
    obs = obs.transpose(1, 0, 2)
    m = quad.m
    A_mat, C_mat = quad.Ahat, quad.Chat
    P = symmetrize(quad.K_Theta1)  # checked when its models were validated
    state = np.broadcast_to(quad.mu_Theta1, (paths, m)).copy()
    innovations = np.empty((horizon, paths, quad.q))
    P_seq = np.empty((horizon, m, m))
    K_seq = np.empty((horizon, quad.q, quad.q))
    for t in range(horizon):
        P_seq[t] = P
        P, K, _, gain_T = _predict(quad, P)
        K_seq[t] = symmetrize(K)
        innov = np.subtract(obs[t], state @ C_mat.T, out=innovations[t])
        if predictions is not None:
            predictions[t] = state
        state = state @ A_mat.T + innov @ gain_T
    return innovations.transpose(1, 0, 2), P_seq, K_seq


def kalman_run(batch):
    """Run the joint one-step predictor on a sampled batch.

    The filter runs on ``batch.system``, the joint system the batch was
    sampled from, with the time-varying gains of the error-covariance
    recursion started from the model initial law, so its innovations are
    exactly the quantities whose covariances K_{I_t} the analytic side
    predicts.

    Parameters
    ----------
    batch : TrajectoryBatch

    Returns
    -------
    KalmanRun

    Raises
    ------
    ValueError
        If the batch stored no step (a state passed OVERFLOW_GUARD at step 1).
    """
    if batch.horizon == 0:
        raise ValueError(f"no step to filter: a sampled state passed the overflow guard "
                         f"{OVERFLOW_GUARD:g} at step {batch.saturated_at}")
    predictions = np.empty((batch.horizon, batch.paths, batch.system.m))
    innovations, Pi_seq, K_I_seq = _filter_batch(batch.system, batch.Y, predictions)
    predictions = predictions.transpose(1, 0, 2)
    # Theta_t = (Xi_t, S_t); the errors overwrite the predictions in place
    n_xi = batch.Xi.shape[2]
    np.subtract(batch.Xi, predictions[..., :n_xi], out=predictions[..., :n_xi])
    np.subtract(batch.S, predictions[..., n_xi:], out=predictions[..., n_xi:])
    return KalmanRun(
        innovations=innovations,
        state_errors=predictions,
        Pi_seq=Pi_seq,
        K_I_seq=K_I_seq,
    )


def _cov_over_paths(a, b=None):
    # (paths, d_a), (paths, d_b) -> (d_a, d_b) sample cross-covariance, means
    # removed; b defaults to a, and centering a once keeps the product on the
    # symmetric BLAS kernel
    centered = a - a.mean(axis=0)
    other = centered if b is None else b - b.mean(axis=0)
    return centered.T @ other / max(1, a.shape[0] - 1)


def _cov_se(K, paths):
    # entrywise standard error of a Gaussian sample covariance
    d = np.diag(K)
    return np.sqrt((np.outer(d, d) + K * K) / paths)


def _row(name, analytic, empirical, se):
    analytic = np.atleast_2d(np.asarray(analytic, dtype=np.float64))
    empirical = np.atleast_2d(np.asarray(empirical, dtype=np.float64))
    se = np.atleast_2d(np.asarray(se, dtype=np.float64))
    dev = empirical - analytic
    scale = max(sup_norm(analytic), 1e-300)
    ratios = np.abs(dev) / np.maximum(se, 1e-300)
    se_ratio = sup_norm(ratios)
    return CheckRow(
        name=name,
        analytic=analytic,
        empirical=empirical,
        deviation=sup_norm(dev),
        rel_deviation=sup_norm(dev) / scale,
        se=sup_norm(se),
        se_ratio=se_ratio,
        tol_se=TOL_SE,
        ok=bool(se_ratio <= TOL_SE),
    )


def empirical_report(batch, analytic):
    """Compare a sampled batch with the analytic predictions.

    Checks, each judged entrywise within TOL_SE (3) standard errors: the
    joint innovations covariance at the final stored step against K_{I_t}
    and, from two stored steps on, against the steady state K_I, the
    noise-predictor innovations covariance against K_{Ihat_t}, the lag-1
    innovations cross-covariance against zero, the state-error covariance
    against Pi_t, and the per-use average power against its exact
    finite-horizon analytic value (which converges to the steady-state
    power carried by ``analytic``). The joint predictor runs on the
    batch's ``system`` and the noise predictor on its ``noise_quad``.

    Parameters
    ----------
    batch : TrajectoryBatch
    analytic : CapacityResult
        Supplies the steady-state targets; the time-indexed comparisons
        use the matching difference-equation values so a short horizon
        is not mistaken for sampling error. The steady-state row widens
        its band by how much the covariance recursion moved on the last
        step, covering an unsettled filter without letting a wrong limit
        justify itself; one stored step gives no such measure, so a
        horizon-1 batch has no steady-state row.

    Returns
    -------
    ComparisonReport
    """
    if not isinstance(analytic, CapacityResult):
        raise TypeError("analytic must be a CapacityResult")
    run = kalman_run(batch)
    noise_innov, _, K_hat_seq = _filter_batch(batch.system.noise_quad, batch.V)
    paths, horizon = batch.paths, batch.horizon
    t_last = horizon - 1

    rows = []
    K_I_t = run.K_I_seq[t_last]
    emp_I = _cov_over_paths(run.innovations[:, t_last])
    rows.append(_row("innovations covariance", K_I_t, emp_I, _cov_se(K_I_t, paths)))

    if horizon >= 2:
        K_I_inf = np.atleast_2d(analytic.K_I)
        # allowance for an unsettled filter, measured from how much the
        # recursion itself is still moving; deliberately independent of the
        # claimed limit so a wrong analytic value cannot widen its own band
        settling = 3.0 * np.abs(K_I_t - run.K_I_seq[t_last - 1])
        se_steady = _cov_se(K_I_inf, paths) + settling / TOL_SE
        rows.append(_row("steady-state innovations covariance", K_I_inf, emp_I,
                         se_steady))

    K_hat_t = K_hat_seq[t_last]
    emp_hat = _cov_over_paths(noise_innov[:, t_last])
    rows.append(_row("noise innovations covariance", K_hat_t, emp_hat,
                     _cov_se(K_hat_t, paths)))

    n_theta = run.state_errors.shape[2]
    if n_theta:
        Pi_t = run.Pi_seq[t_last]
        emp_err = _cov_over_paths(run.state_errors[:, t_last])
        rows.append(_row("state-error covariance", Pi_t, emp_err, _cov_se(Pi_t, paths)))

    if horizon >= 2:
        lag = _cov_over_paths(run.innovations[:, t_last], run.innovations[:, t_last - 1])
        d_now = np.diag(run.K_I_seq[t_last])
        d_prev = np.diag(run.K_I_seq[t_last - 1])
        se_lag = np.sqrt(np.outer(d_now, d_prev) / paths)
        rows.append(_row("lag-1 innovations cross-covariance",
                         np.zeros_like(lag), lag, se_lag))

    # exact finite-horizon analytic average power, so the comparison does
    # not confuse the start-up transient with sampling error
    inp = batch.input
    P_t = symmetrize(inp.K_Xi1)
    power_sum = 0.0
    for _ in range(horizon):
        power_sum += input_power(inp, P_t)
        P_t = _lyap_core(inp.F, inp.G, inp.K_Z, P_t)
    analytic_power = power_sum / horizon
    # squares in C order, so each path sums one contiguous run whatever the
    # layout of batch.X; the summation order sets the last bits
    per_path_power = np.sum(np.multiply(batch.X, batch.X, order="C"), axis=(1, 2)) / horizon
    emp_power = float(np.mean(per_path_power))
    se_power = float(np.std(per_path_power, ddof=1) / np.sqrt(paths)) if paths > 1 else 0.0
    if se_power == 0.0:
        se_power = 1e-300 if abs(emp_power - analytic_power) == 0.0 else abs(analytic_power) / paths
    rows.append(_row("average power", analytic_power, emp_power, se_power))

    rows = tuple(rows)
    return ComparisonReport(
        rows=rows, paths=paths, horizon=horizon,
        ok=bool(all(r.ok for r in rows)), innovations=run.innovations,
    )
