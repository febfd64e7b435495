"""Monte Carlo validation of the analytic covariances and powers.

Trajectories of the noise state, input state, channel input, and channel
output are sampled exactly from the model recursions; a time-varying
Kalman predictor run on the sampled outputs then produces empirical
innovations whose statistics can be held against the Riccati and
Lyapunov quantities. Agreement is judged in standard errors, so the
tolerance tightens automatically as paths are added. ``empirical_report``
samples its paths itself, in blocks whose length a private memory budget
sets, and reduces each block in one pass over its steps, sampling and
filtering each step and keeping only the per-path values its rows read.
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
    (t, component, path) buffer (``TrajectoryBatch``), filled step by step
    by the sampler's per-step kernel (``_sample``), which
    ``empirical_report`` runs too: step t's rows
    [X_t; Y_t; V_t; Xi_{t+1}; S_{t+1}], which follow Theta_t = [Xi_t; S_t]
    in that buffer, are one product of the step's (W_t, Z_t) draws over
    all paths plus one of Theta_t. The two maps (``_sampler``) take the
    Y_t row from the system's Chat = [H Gamma | C] and the Xi_{t+1} and
    S_{t+1} rows from its Ahat = blockdiag(F, A), as the system holds them.
    BLAS rounds a path alone in a product, or
    in a partial tile of its kernel, otherwise than one in a full tile, so
    the buffer holds a multiple of 16 paths (``_columns``), the last ones
    copies of the first: a path's row is then the one it has in any batch.
    Without that, on x86-64 OpenBLAS 0.3.31, a lone path and the last three
    paths of a block of 2,995 (of a model with 10 joint states) took other
    last bits than in a batch of 20,000. Memory grows as paths * horizon *
    total dimension: 8 bytes for each (W_t, Z_t) draw and each S, V, Xi, X,
    Y entry of every path and step, 72 MB at 20,000 paths and 50 steps of a
    model with n_s = n_w = 2 and n_y = n_xi = n_z = n_x = 1.
    ``empirical_report`` stores no batch: it runs the same kernel over
    blocks of paths and keeps only what its rows read.
    """
    if not isinstance(system, JointSystem):
        raise TypeError(f"sample_paths takes a JointSystem, got {type(system).__name__}")
    horizon = as_count(horizon, "horizon")
    indices = paths if isinstance(paths, range) else range(as_count(paths, "paths"))
    if indices.step != 1 or indices.start < 0 or not indices:
        raise ValueError(f"paths must be a nonempty range of path indices with step 1, "
                         f"got {paths!r}")
    paths, m, n = len(indices), system.m, _step_rows(system)
    columns = _columns(paths)
    # rows t n to (t + 1) n hold step t's Xi_t, S_t, X_t, Y_t, V_t, and the
    # last m rows Theta after the last step. Allocated before the draws: the
    # other way round, the resident peak of a bench-sized simulate call was
    # about 5 MB higher (glibc malloc, repeated calls)
    rows = np.empty((horizon * n + m, columns))
    stored = sum(1 for _ in _sample(system, _sampler(system), horizon, indices, master_seed,
                                    rows[:m], lambda t: rows[m + t * n:m + (t + 1) * n]))
    by_step = rows[:horizon * n].reshape(horizon, n, columns)[:stored, :, :paths]
    Xi, S, X, Y, V = np.split(by_step.transpose(2, 0, 1),
                              np.cumsum([system.n_xi, system.n_s, system.input.n_x, system.q]),
                              axis=2)
    return TrajectoryBatch(
        system=system, paths=paths, horizon=stored, master_seed=int(master_seed),
        S=S, V=V, Xi=Xi, X=X, Y=Y, saturated_at=stored + 1 if stored < horizon else None,
        first_path=indices.start,
    )


def _step_rows(system):
    # rows of a step in the sampler's buffer: Xi_t, S_t, X_t, Y_t, V_t
    return system.m + system.input.n_x + 2 * system.q


def _sampler(system):
    """The maps of the sampler's per-step kernel, built once per sampled batch or report.

    Returns (on_start, on_draws, on_state): Theta_1 less its mean from the
    S_1 and Xi_1 draws, and step t's rows [X_t; Y_t; V_t; Xi_{t+1}; S_{t+1}]
    from its (W_t, Z_t) draws and from Theta_t = [Xi_t; S_t].
    """
    noise, input = system.noise, system.input
    n_s, n_w, n_y = system.n_s, system.n_w, system.q
    n_xi, n_z, n_x = system.n_xi, system.n_z, input.n_x
    sq_W, sq_Z = _root(noise.K_W), _root(input.K_Z)
    NW, DZ = noise.N @ sq_W, input.D @ sq_Z
    zeros = np.zeros
    on_start = np.block([[zeros((n_xi, n_s)), _root(input.K_Xi1)],
                         [_root(noise.K_S1), zeros((n_s, n_xi))]])
    on_draws = np.block([[zeros((n_x, n_w)), DZ],
                         [NW, system.H @ DZ],
                         [NW, zeros((n_y, n_z))],
                         [zeros((n_xi, n_w)), input.G @ sq_Z],
                         [noise.B @ sq_W, zeros((n_s, n_z))]])
    on_state = np.block([[input.Gamma, zeros((n_x, n_s))],
                         [system.Chat],
                         [zeros((n_y, n_xi)), noise.C],
                         [system.Ahat]])
    return on_start, on_draws, on_state


def _sample(system, maps, horizon, indices, master_seed, start, rows_at):
    """The sampler's per-step kernel over the paths ``indices``, a generator.

    ``maps`` is ``_sampler(system)``'s. Every path's normals are drawn
    first, in ``sample_paths``' order, one path per column; the columns
    are ``start``'s, ``_columns`` of the paths, the last ones copies of the
    first path. Theta_1 goes into ``start``, an (m, columns) array, and
    step t's rows [X_t; Y_t; V_t; Theta_{t+1}] into ``rows_at(t)``, a
    C-contiguous (n_x + 2 n_y + m, columns) array, by two updates: the
    step's draws mapped by ``on_draws`` (one product per step, which rounds
    as a product batched over every step would), then Theta_t mapped by
    ``on_state``. Yields (Theta_t, rows) after each step, and stops before
    a step whose Theta_t has an entry past OVERFLOW_GUARD, so the count of
    yields is the steps stored.
    """
    on_start, on_draws, on_state = maps
    m, paths, columns = system.m, len(indices), start.shape[1]
    width = system.n_w + system.n_z
    eps = np.empty((columns, m + horizon * width))
    for rng, row in zip(_substreams(master_seed, indices), eps):
        rng.standard_normal(out=row)
    eps[paths:] = eps[0]
    np.matmul(on_start, eps[:, :m].T, out=start)
    start += system.mu_Theta1[:, None]
    draws = eps[:, m:].reshape(columns, horizon, width).transpose(1, 2, 0)
    theta = start
    for t in range(horizon):
        if sup_norm(theta) > OVERFLOW_GUARD:
            return
        rows = rows_at(t)
        np.matmul(on_draws, draws[t], out=rows)
        rows += on_state @ theta
        yield theta, rows
        theta = rows[len(rows) - m:]


def _columns(paths):
    # columns that hold ``paths`` paths: a multiple of 16, so that no path
    # sits in a partial tile of the BLAS kernel, which rounds it otherwise
    return -(-paths // 16) * 16


def _path_blocks(system, horizon, paths):
    """The blocks ``empirical_report`` samples: consecutive ranges of ``paths`` path indices.

    The budget counts, per path and step, what a stored block would fill:
    the (W_t, Z_t) draws, the S, V, Xi, X, Y entries, the joint filter's
    state predictions and innovations and the noise filter's innovations.
    A block holds as many paths as fit _BLOCK_BYTES of those at ``horizon``
    steps, at least one. The report's one pass over a block's steps
    (``_block_values``) holds less: per path and step only the draws and
    the X_t entries, and per path the rows of two steps and the two
    predictors' buffers.
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


def _predictor_steps(quad, gains):
    """A predictor's step matrices for gains L_t (of a ``_run`` schedule, or their prefix).

    ``quad`` is a JointSystem. With the paths innermost, step t maps
    [s_t; y_t], the state prediction over the observation, to
    [s_{t+1}; y_t - Chat s_t] by one (m + q)-square matrix, where
    s_{t+1} = (Ahat - L_t Chat) s_t + L_t y_t.
    """
    m, q = quad.m, quad.q
    steps = np.empty((len(gains), m + q, m + q))
    steps[:, :m, :m] = quad.Ahat - gains @ quad.Chat
    steps[:, :m, m:] = gains
    steps[:, m:, :m] = -quad.Chat
    steps[:, m:, m:] = np.eye(q)
    return steps


def _predictor(quad, paths):
    # a predictor's two (m + q, columns) buffers over ``paths`` paths, the first holding
    # the initial mean mu_Theta1 over ``_columns(paths)`` columns, the padding ones zero
    buffers = np.zeros((2, quad.m + quad.q, _columns(paths)))
    buffers[0, :quad.m, :paths] = quad.mu_Theta1[:, None]
    return buffers


def _filter_step(step, buffers, t, y):
    # step t of a predictor: with s_t above in buffers[t % 2], the observations y, (q,
    # paths), go below it, and ``step`` maps them to [s_{t+1}; y_t - Chat s_t] in the
    # other buffer, which is returned
    now, after = buffers[t % 2], buffers[1 - t % 2]
    now[len(now) - len(y):, :y.shape[1]] = y
    return np.matmul(step, now, out=after)


def _joint_filter(batch, schedule):
    """The joint predictor's innovations and state errors on ``batch``, by ``schedule``'s gains.

    ``schedule`` holds (Pi_t, K_I_t, L_t) first. Both results are (path, t,
    component) views over (t, component, path) storage; the errors
    overwrite the state predictions in place.
    """
    if batch.horizon == 0:
        raise ValueError(f"no step to filter: a sampled state passed the overflow guard "
                         f"{OVERFLOW_GUARD:g} at step {batch.saturated_at}")
    system, paths, horizon = batch.system, batch.paths, batch.horizon
    m, columns = system.m, _columns(paths)
    steps, buffers = _predictor_steps(system, schedule[2][:horizon]), _predictor(system, paths)
    innovations = np.empty((horizon, system.q, columns))
    errors = np.empty((horizon, m, columns))
    for t, y in enumerate(batch.Y.transpose(1, 2, 0)):
        errors[t] = buffers[t % 2][:m]
        innovations[t] = _filter_step(steps[t], buffers, t, y)[m:]
    innovations, errors = (a[..., :paths].transpose(2, 0, 1) for a in (innovations, errors))
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


def _block_values(system, plan, horizon, indices, master_seed):
    """The values the report's rows read of the paths ``indices``, and the steps they stored.

    ``plan`` holds ``_sampler(system)``'s maps and the joint and noise
    predictors' step matrices (``_predictor_steps`` of their ``_run``
    gains, over ``horizon`` steps or more). One pass over the steps samples
    each by the sampler's kernel (``_sample``, at most ``horizon`` steps),
    advances the joint predictor on its Y_t rows and the noise predictor
    on its V_t rows over the same columns, and keeps the X_t rows. Returns
    copies of the joint innovations at the last two stored steps (the last
    twice at one step, where the earlier is not read), the state errors
    and noise innovations at the last, and each path's average power:
    those of ``kalman_run`` and of the noise predictor on the paths of
    ``sample_paths(system, horizon, indices, master_seed)``, bit for bit.
    """
    maps, joint_steps, noise_steps = plan
    m, q, n_x = system.m, system.q, system.input.n_x
    paths, columns = len(indices), _columns(len(indices))
    start, rows = np.empty((m, columns)), np.empty((2, _step_rows(system), columns))
    joint, noise = _predictor(system, paths), _predictor(system.noise_quad, paths)
    X, innovations = np.empty((horizon, n_x, columns)), np.empty((2, q, columns))
    stored = 0
    for t, (theta, step) in enumerate(_sample(system, maps, horizon, indices, master_seed,
                                              start, lambda t: rows[t % 2])):
        X[t] = step[:n_x]
        innovations[t % 2] = _filter_step(joint_steps[t], joint, t,
                                          step[n_x:n_x + q, :paths])[m:]
        _filter_step(noise_steps[t], noise, t, step[n_x + q:n_x + 2 * q, :paths])
        stored = t + 1
    if stored == 0:
        raise ValueError(f"no step to filter: a sampled state passed the overflow guard "
                         f"{OVERFLOW_GUARD:g} at step 1")
    t = stored - 1
    # theta and the predictions in joint[t % 2] are step t's: no later step overwrote them
    last, earlier = (innovations[i % 2] for i in (t, max(t - 1, 0)))
    errors = theta[:, :paths] - joint[t % 2][:m, :paths]
    by_path = X[:stored, :, :paths].transpose(2, 0, 1)
    # squares in C order, so each path sums one contiguous run; the summation
    # order sets the last bits
    power = np.sum(np.multiply(by_path, by_path, order="C"), axis=(1, 2)) / stored
    # each (paths, component) in C order, which the report's column means read in that order
    return (last[:, :paths].T.copy(), earlier[:, :paths].T.copy(), errors.T.copy(),
            noise[stored % 2][system.noise_quad.m:, :paths].T.copy(), power), stored


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
    reduced in one pass over its steps (``_block_values``): the sampler's
    per-step kernel forms a step's rows, both predictors advance on them
    over the same columns, and only the X_t rows and the per-path values
    the rows read are kept. The rows are those of the whole batch, bit for
    bit, and a call holds one block's draws at a time. What no path
    changes is built once per report: the sampler's maps, the joint
    schedule (Pi_t, K_{I_t}, L_t) by one run of ``finite_n_rate``'s engine
    (``_run``), then the noise schedule and the analytic power at each
    step by one more, each at ``horizon`` steps, and both predictors' step
    matrices; a shorter horizon reads their prefixes. Each later block is
    drawn at the report's horizon so far, since a shorter batch is the
    prefix of a longer one. A block that stops at the overflow guard
    before that horizon truncates the report to its own: the later blocks
    are drawn at it, and the earlier ones are drawn again at it.

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
    horizon = as_count(horizon, "horizon")
    blocks = _path_blocks(system, horizon, paths)
    (Pi_seq, K_I_seq, joint_gains, _), = _run(system, horizon, "Pi")
    (_, K_hat_seq, noise_gains, _), (_, power_seq) = _run(system, horizon, "Sigma", "P")
    plan = (_sampler(system), _predictor_steps(system, joint_gains),
            _predictor_steps(system.noise_quad, noise_gains))
    # per block, the values the rows read
    stored, kept = horizon, []
    for k, indices in enumerate(blocks):
        values, drawn = _block_values(system, plan, stored, indices, master_seed)
        if drawn < stored:
            stored = drawn
            kept = [_block_values(system, plan, stored, earlier, master_seed)[0]
                    for earlier in blocks[:k]]
        kept.append(values)
    innov_last, innov_prev, errors, noise_last, per_path_power = (
        np.concatenate(column) for column in zip(*kept))
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
