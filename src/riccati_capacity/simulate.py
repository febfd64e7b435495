"""Monte Carlo validation of the analytic covariances and powers.

Trajectories of the noise state, input state, channel input, and channel
output are sampled exactly from the model recursions; a time-varying
Kalman predictor run on the sampled outputs then produces empirical
innovations whose statistics can be held against the Riccati and
Lyapunov quantities. Agreement is judged in standard errors, so the
tolerance tightens automatically as paths are added. ``empirical_report``
samples its paths itself, in blocks whose length a private memory budget
sets, and keeps of each block only the per-path values its rows read.
The predictor schedules and the analytic power come from ``riccati``'s
finite-horizon engine (``riccati._runs``), the sampler's covariance roots
from ``linalg._root``.
"""

from dataclasses import dataclass

import numpy as np

from .capacity import CapacityResult, constant_schedule
from .linalg import _root, _substreams, as_count, sup_norm
from .models import JointSystem
from .riccati import _runs
# stay importable here because bench/tracing.py patches them at these names
from .models import build_augmented, to_quadruple  # noqa: F401
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

# bytes of sampled and filtered arrays one block of paths may fill (``_path_blocks``)
_BLOCK_BYTES = 2**24


@dataclass(frozen=True, eq=False)
class TrajectoryBatch:
    """Sampled trajectories, indexed (path, t, component).

    The five arrays are views of one buffer stored (t, component, path),
    paths innermost: step t holds the rows Xi_t, S_t, X_t, Y_t, V_t in that
    order, each one contiguous run over the paths, so
    ``batch.Y.transpose(1, 2, 0)[t]`` is a (n_y, paths) block of rows.
    They are not C-contiguous. ``horizon`` counts the steps actually
    stored. When a sampled state passes OVERFLOW_GUARD at step t, arrays
    are truncated to t - 1 steps and ``saturated_at`` records t;
    otherwise it is None. Identical models and master_seed reproduce the
    batch bit for bit, path by path, regardless of generation order.
    ``system`` is the JointSystem the batch was sampled from, which
    ``kalman_run`` filters on. Row i holds path ``first_path + i``.
    """

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
    first_path: int = 0


@dataclass(frozen=True, eq=False)
class KalmanRun:
    """Filter output: innovations, state errors, and the analytic schedule.

    ``innovations`` is (paths, horizon, n_y); ``state_errors`` holds
    Theta_t minus its one-step prediction, (paths, horizon, n_theta).
    Both are (path, t, component) views over (t, component, path) storage,
    like the arrays of a ``TrajectoryBatch``, and are not C-contiguous.
    ``Pi_seq`` and ``K_I_seq`` are the error and innovations covariances
    the filter was built from, one slice per step, and ``gains`` the
    predictor's gains L_t, (horizon, n_theta, n_y): the prediction of
    Theta_{t+1} is Ahat times that of Theta_t plus L_t times innovation t.
    """

    innovations: np.ndarray
    state_errors: np.ndarray
    Pi_seq: np.ndarray
    K_I_seq: np.ndarray
    gains: np.ndarray


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
    """All checks over ``paths`` paths of ``horizon`` steps; ``ok`` is their conjunction."""

    rows: tuple
    paths: int
    horizon: int
    ok: bool


def sample_paths(system, horizon, paths, master_seed):
    """Sample trajectories of (S, V, Xi, X, Y) from the model recursions.

    Parameters
    ----------
    system : JointSystem
        Of the three models, by ``build_augmented``; the batch keeps it.
        Any other type raises TypeError.
    horizon : int
        Steps per path, >= 1.
    paths : int or range
        Number of independent paths, >= 1, drawn as paths 0, 1, ...; or a
        nonempty range of path indices with step 1, a block of a larger
        batch whose rows are that batch's rows ``paths``.
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
    Covariance square roots are ``psd_sqrt``'s without its check, which
    ``build_augmented`` has made; eigenvalues up to PSD_SLACK times the
    largest count as zero, so degenerate covariances, singular or with such
    eigenvalues of either sign, are sampled exactly on their support.
    The returned arrays are (path, t, component) views over one
    (t, component, path) buffer (``TrajectoryBatch``). One step matrix,
    built per call, maps Theta_t = [Xi_t; S_t] to the rows
    [X_t; Y_t; V_t; Xi_{t+1}; S_{t+1}], which follow Theta_t in that
    buffer; its Y_t row is the system's Chat = [H Gamma | C] and its
    Xi_{t+1} and S_{t+1} rows its Ahat = blockdiag(F, A), as the system
    holds them. One more maps the step's (W_t, Z_t) draws to the same rows,
    for every step at once before the first; so a step is one product over
    all paths and one addition. BLAS rounds a path alone in a product, or
    in a partial tile of its kernel, otherwise than one in a full tile, so
    the buffer holds a multiple of 16 paths (``_columns``), the last ones
    copies of the first: a path's row is then the one it has in any batch.
    Without that, on x86-64 OpenBLAS 0.3.31, a lone path and the last three
    paths of a block of 2,995 (of a model with 10 joint states) took other
    last bits than in a batch of 20,000. Memory grows as paths * horizon *
    total dimension: 8 bytes for each (W_t, Z_t) draw and each S, V, Xi, X,
    Y entry of every path and step, 72 MB at 20,000 paths and 50 steps of a
    model with n_s = n_w = 2 and n_y = n_xi = n_z = n_x = 1.
    ``empirical_report`` therefore samples in blocks of paths (2,995
    there), and holds one block plus the O(paths) values its rows read.
    """
    if not isinstance(system, JointSystem):
        raise TypeError(f"sample_paths takes a JointSystem, got {type(system).__name__}")
    horizon = as_count(horizon, "horizon")
    indices = paths if isinstance(paths, range) else range(as_count(paths, "paths"))
    if indices.step != 1 or indices.start < 0 or not indices:
        raise ValueError(f"paths must be a nonempty range of path indices with step 1, "
                         f"got {paths!r}")
    paths = len(indices)
    noise, input = system.noise, system.input
    n_s, n_w, n_y = system.n_s, system.n_w, system.q
    n_xi, n_z, n_x = system.n_xi, system.n_z, input.n_x
    m, n = n_xi + n_s, n_xi + n_s + n_x + 2 * n_y
    columns = _columns(paths)
    # rows t n to (t + 1) n hold step t's Xi_t, S_t, X_t, Y_t, V_t, and the
    # last m rows Theta after the last step. Allocated before the draws: the
    # other way round, the resident peak of a bench-sized simulate call was
    # about 5 MB higher (glibc malloc, repeated calls)
    rows = np.empty((horizon * n + m, columns))
    eps = np.empty((columns, n_s + n_xi + horizon * (n_w + n_z)))
    for rng, row in zip(_substreams(master_seed, indices), eps):
        rng.standard_normal(out=row)
    eps[paths:] = eps[0]

    sq_W, sq_Z = _root(noise.K_W), _root(input.K_Z)
    NW, DZ = noise.N @ sq_W, input.D @ sq_Z
    zeros = np.zeros
    on_state = np.block([[input.Gamma, zeros((n_x, n_s))],
                         [system.Chat],
                         [zeros((n_y, n_xi)), noise.C],
                         [system.Ahat]])
    on_draws = np.block([[zeros((n_x, n_w)), DZ],
                         [NW, system.H @ DZ],
                         [NW, zeros((n_y, n_z))],
                         [zeros((n_xi, n_w)), input.G @ sq_Z],
                         [noise.B @ sq_W, zeros((n_s, n_z))]])
    on_start = np.block([[zeros((n_xi, n_s)), _root(input.K_Xi1)],
                         [_root(noise.K_S1), zeros((n_s, n_xi))]])

    np.matmul(on_start, eps[:, :m].T, out=rows[:m])
    rows[:m] += system.mu_Theta1[:, None]
    # every step's draws enter its rows [X_t; ...; S_{t+1}] before the states do
    np.matmul(on_draws, eps[:, m:].reshape(columns, horizon, n_w + n_z).transpose(1, 2, 0),
              out=rows[m:].reshape(horizon, n, columns))
    del eps

    saturated_at = None
    stored = horizon
    for t in range(horizon):
        theta = rows[t * n:t * n + m]
        if sup_norm(theta) > OVERFLOW_GUARD:
            saturated_at, stored = t + 1, t
            break
        after = rows[t * n + m:(t + 1) * n + m]
        after += on_state @ theta
    by_step = rows[:horizon * n].reshape(horizon, n, columns)[:stored, :, :paths]
    Xi, S, X, Y, V = np.split(by_step.transpose(2, 0, 1), np.cumsum([n_xi, n_s, n_x, n_y]), axis=2)
    return TrajectoryBatch(
        system=system, paths=paths, horizon=stored, master_seed=int(master_seed),
        S=S, V=V, Xi=Xi, X=X, Y=Y, saturated_at=saturated_at, first_path=indices.start,
    )


def _columns(paths):
    # columns that hold ``paths`` paths: a multiple of 16, so that no path
    # sits in a partial tile of the BLAS kernel, which rounds it otherwise
    return -(-paths // 16) * 16


def _path_blocks(system, horizon, paths):
    """The blocks ``empirical_report`` samples: consecutive ranges of ``paths`` path indices.

    A block of paths fills, per path and step, the (W_t, Z_t) draws, the
    S, V, Xi, X, Y entries, the joint filter's state predictions and
    innovations and the noise filter's innovations; a block holds as many
    paths as fit _BLOCK_BYTES of those at ``horizon`` steps, at least one.
    """
    horizon, paths = as_count(horizon, "horizon"), as_count(paths, "paths")
    width = system.n_w + system.n_z + 2 * system.m + system.input.n_x + 4 * system.q
    length = max(1, _BLOCK_BYTES // (8 * horizon * width))
    return [range(lo, min(lo + length, paths)) for lo in range(0, paths, length)]


def _run(system, horizon, *names):
    """The runs of ``riccati._runs`` over ``horizon`` steps of the system's own pair.

    One list per name, in their order, of its stacks with the chunks joined.
    None of it depends on the paths: one run serves every block of a report,
    and its prefix a shorter horizon (a scan's rows are a shorter scan's).
    """
    chunks = [run for _, run in _runs(system, constant_schedule(system.noise, system.input),
                                      horizon, names)]
    return [[np.concatenate(stacks) for stacks in zip(*(chunk[name] for chunk in chunks))]
            for name in names]


def _filter_batch(quad, obs, gains, predictions=False):
    """Run a predictor's gains L_t (of a ``_run`` schedule, or their prefix) over a batch of paths.

    ``quad`` is a JointSystem, started from its initial mean mu_Theta1.
    ``obs`` is indexed (path, t, component). With the paths innermost, each
    step maps [s_t; y_t], the state prediction over the observation, to
    [s_{t+1}; y_t - Chat s_t] by one (m + q)-square matrix, where
    s_{t+1} = (Ahat - L_t Chat) s_t + L_t y_t, over ``_columns(paths)``
    columns, the padding ones left at zero (see ``sample_paths``). Returns
    the innovations and, if ``predictions``, the one-step state predictions
    s_t, both (path, t, component) views over (t, component, path) storage.
    """
    paths, horizon, q = obs.shape
    m = quad.m
    columns = _columns(paths)
    gains = gains[:horizon]
    steps = np.empty((horizon, m + q, m + q))
    steps[:, :m, :m] = quad.Ahat - gains @ quad.Chat
    steps[:, :m, m:] = gains
    steps[:, m:, :m] = -quad.Chat
    steps[:, m:, m:] = np.eye(q)
    innovations = np.empty((horizon, q, columns))
    states = np.empty((horizon, m, columns)) if predictions else None
    now, after = np.zeros((m + q, columns)), np.zeros((m + q, columns))
    now[:m, :paths] = quad.mu_Theta1[:, None]
    for t, y in enumerate(obs.transpose(1, 2, 0)):
        if predictions:
            states[t] = now[:m]
        now[m:, :paths] = y
        np.matmul(steps[t], now, out=after)
        innovations[t] = after[m:]
        now, after = after, now
    innovations = innovations[..., :paths].transpose(2, 0, 1)
    return (innovations, states[..., :paths].transpose(2, 0, 1)) if predictions else innovations


def _joint_filter(batch, schedule):
    """The joint predictor's innovations and state errors on ``batch``, by ``schedule``'s gains.

    ``schedule`` holds (Pi_t, K_I_t, L_t) first. Both results are (path, t,
    component) views over (t, component, path) storage; the errors
    overwrite the state predictions in place.
    """
    if batch.horizon == 0:
        raise ValueError(f"no step to filter: a sampled state passed the overflow guard "
                         f"{OVERFLOW_GUARD:g} at step {batch.saturated_at}")
    innovations, errors = _filter_batch(batch.system, batch.Y, schedule[2], predictions=True)
    # Theta_t = (Xi_t, S_t)
    n_xi = batch.Xi.shape[2]
    np.subtract(batch.Xi, errors[..., :n_xi], out=errors[..., :n_xi])
    np.subtract(batch.S, errors[..., n_xi:], out=errors[..., n_xi:])
    return innovations, errors


def kalman_run(batch):
    """Run the joint one-step predictor on a sampled batch.

    The filter runs on ``batch.system``, the joint system the batch was
    sampled from, with the time-varying gains of the joint predictor's DRE
    from the model initial law, whose schedule (Pi_t, K_{I_t}, L_t) is the
    run of ``finite_n_rate``'s engine (``riccati._runs``) as it is, so its
    innovations are exactly the quantities whose covariances K_{I_t} the
    analytic side predicts.

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
    schedule = _run(batch.system, batch.horizon, "Pi")[0]
    # the fields in their order: innovations, state_errors, Pi_seq, K_I_seq, gains
    return KalmanRun(*_joint_filter(batch, schedule), *schedule[:3])


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
    # the row's own magnitude, so a zero analytic value (the lag row) reads 1, not 1e299
    scale = max(sup_norm(analytic), sup_norm(empirical))
    ratios = np.abs(dev) / np.maximum(se, 1e-300)
    se_ratio = sup_norm(ratios)
    return CheckRow(
        name=name,
        analytic=analytic,
        empirical=empirical,
        deviation=sup_norm(dev),
        rel_deviation=sup_norm(dev) / scale if scale else 0.0,
        se=sup_norm(se),
        se_ratio=se_ratio,
        tol_se=TOL_SE,
        ok=bool(se_ratio <= TOL_SE),
    )


def _reduce(block, innovations, errors, noise_gains):
    """The per-path values the report reads of one block, over all its steps.

    ``innovations`` and ``errors`` are the block's joint innovations and
    state errors, and ``noise_gains`` the noise predictor's gains L_t, or
    their prefix. Returns copies of the joint innovations at the last two
    steps (the last twice at horizon 1, where the earlier is not read), the
    state errors and noise innovations at the last step, and each path's
    average power, so the block's arrays are freed once the caller drops it.
    """
    noise_innov = _filter_batch(block.system.noise_quad, block.V, noise_gains)
    t = block.horizon - 1
    # squares in C order, so each path sums one contiguous run whatever the
    # layout of block.X; the summation order sets the last bits
    power = np.sum(np.multiply(block.X, block.X, order="C"), axis=(1, 2)) / block.horizon
    return (innovations[:, t].copy(), innovations[:, t - 1].copy(),
            errors[:, t].copy(), noise_innov[:, t].copy(), power)


def empirical_report(system, horizon, paths, master_seed, analytic):
    """Sample paths of a joint system and compare them with the analytic predictions.

    Checks, each judged entrywise within TOL_SE (3) standard errors: the
    joint innovations covariance at the final stored step against K_{I_t}
    and, from two stored steps on, against the steady state K_I, the
    noise-predictor innovations covariance against K_{Ihat_t}, the lag-1
    innovations cross-covariance against zero, the state-error covariance
    against Pi_t, and the per-use average power against its exact
    finite-horizon analytic value (which converges to the steady-state
    power carried by ``analytic``). The joint predictor runs on
    ``system``, the noise predictor on its ``noise_quad``.

    The paths are those of ``sample_paths(system, horizon, paths,
    master_seed)``, drawn in blocks of consecutive path indices whose
    length a private memory budget sets (``_path_blocks``). Each block is
    filtered and reduced to the per-path values the rows read before the
    next is drawn, so the rows are those of the whole batch, bit for bit,
    and a call holds one block at a time. What no path changes comes from
    the first block: the joint schedule through its ``kalman_run``, and
    the noise schedule and the analytic power at each step by one run of
    ``finite_n_rate``'s engine; a shorter horizon reads their prefixes.
    Each later block is drawn at the report's horizon so far, since a
    shorter batch is the prefix of a longer one. A block that stops at the
    overflow guard before that horizon truncates the report to its own: the
    later blocks are drawn at it, and the earlier ones are drawn again at
    it.

    Parameters
    ----------
    system : JointSystem
        Of the three models, by ``build_augmented``. Any other type raises
        TypeError.
    horizon : int
        Steps per path, >= 1.
    paths : int
        Number of paths, >= 1, drawn as paths 0, 1, ...
    master_seed : int
        As for ``sample_paths``.
    analytic : CapacityResult
        Supplies the steady-state targets; the time-indexed comparisons
        use the matching difference-equation values so a short horizon
        is not mistaken for sampling error. The steady-state row widens
        its band by how much the covariance recursion moved on the last
        step, covering an unsettled filter without letting a wrong limit
        justify itself; one stored step gives no such measure, so a
        horizon-1 report has no steady-state row. Any other type raises
        TypeError.

    Returns
    -------
    ComparisonReport

    Raises
    ------
    ValueError
        If ``horizon`` or ``paths`` is not a count, or no step was stored
        (a sampled state passed OVERFLOW_GUARD at step 1).
    """
    if not isinstance(analytic, CapacityResult):
        raise TypeError("analytic must be a CapacityResult")
    if not isinstance(system, JointSystem):
        raise TypeError(f"empirical_report takes a JointSystem, got {type(system).__name__}")
    blocks = _path_blocks(system, horizon, paths)
    block = sample_paths(system, horizon, blocks[0], master_seed)
    run, stored = kalman_run(block), block.horizon
    joint = (run.Pi_seq, run.K_I_seq, run.gains)
    (_, K_hat_seq, noise_gains, _), (_, power_seq) = _run(system, stored, "Sigma", "P")
    # per block, the values the rows read
    kept = [_reduce(block, run.innovations, run.state_errors, noise_gains)]
    del block, run  # so that no two blocks are held at once

    def reduce(indices):
        # the block's values at the report's horizon so far, and the horizon it stored
        block = sample_paths(system, stored, indices, master_seed)
        return _reduce(block, *_joint_filter(block, joint), noise_gains), block.horizon

    for k, indices in enumerate(blocks[1:], 1):
        values, drawn = reduce(indices)
        if drawn < stored:
            stored = drawn
            kept = [reduce(earlier)[0] for earlier in blocks[:k]]
        kept.append(values)
    innov_last, innov_prev, errors, noise_last, per_path_power = (
        np.concatenate(column) for column in zip(*kept))
    Pi_seq, K_I_seq, _ = joint
    paths, horizon = len(per_path_power), stored
    t_last = horizon - 1

    def covariance_row(name, analytic, values, allowance=0.0):
        # a last-step sample covariance against ``analytic``, within its standard errors
        return _row(name, analytic, _cov_over_paths(values), _cov_se(analytic, paths) + allowance)

    K_I_t = K_I_seq[t_last]
    rows = [covariance_row("innovations covariance", K_I_t, innov_last)]
    if horizon >= 2:
        # allowance for an unsettled filter, measured from how much the
        # recursion itself is still moving; deliberately independent of the
        # claimed limit so a wrong analytic value cannot widen its own band
        settling = 3.0 * np.abs(K_I_t - K_I_seq[t_last - 1])
        rows.append(covariance_row("steady-state innovations covariance",
                                   np.atleast_2d(analytic.K_I), innov_last, settling / TOL_SE))
    rows.append(covariance_row("noise innovations covariance", K_hat_seq[t_last], noise_last))
    if errors.shape[1]:
        rows.append(covariance_row("state-error covariance", Pi_seq[t_last], errors))

    if horizon >= 2:
        lag = _cov_over_paths(innov_last, innov_prev)
        d_now = np.diag(K_I_seq[t_last])
        d_prev = np.diag(K_I_seq[t_last - 1])
        se_lag = np.sqrt(np.outer(d_now, d_prev) / paths)
        rows.append(_row("lag-1 innovations cross-covariance",
                         np.zeros_like(lag), lag, se_lag))

    # exact finite-horizon analytic average power, so the comparison does
    # not confuse the start-up transient with sampling error
    analytic_power = float(np.mean(power_seq[:horizon]))
    emp_power = float(np.mean(per_path_power))
    se_power = float(np.std(per_path_power, ddof=1) / np.sqrt(paths)) if paths > 1 else 0.0
    if se_power == 0.0:
        se_power = 1e-300 if abs(emp_power - analytic_power) == 0.0 else abs(analytic_power) / paths
    rows.append(_row("average power", analytic_power, emp_power, se_power))

    rows = tuple(rows)
    return ComparisonReport(rows=rows, paths=paths, horizon=horizon,
                            ok=bool(all(r.ok for r in rows)))
