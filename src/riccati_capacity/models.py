"""State-space models for the Gaussian channel with correlated noise.

Three user-facing models describe the setup:

* ``NoiseModel``: the additive noise V_t = C S_t + N W_t with hidden state
  S_{t+1} = A S_t + B W_t driven by the same white Gaussian W_t.
* ``InputModel``: the channel input X_t = Gamma Xi_t + D Z_t with state
  Xi_{t+1} = F Xi_t + G Z_t and white Gaussian Z_t.
* ``Channel``: the observation map Y_t = H X_t + V_t plus the average
  power budget kappa.

``JointSystem`` is the one place that knows how input and noise stack
into the joint system whose one-step prediction problem drives every
rate formula downstream, and the only type the shared Riccati engine
receives, which stores only what that engine reads and forms the rest from
its models; ``build_augmented`` validates the models and builds it.
``to_quadruple`` gives a noise model's own prediction problem as the
joint system with no input. ``require_valid`` is the one
validate-and-raise boundary of the public entry points.

Each state-space model declares its layout once, as class data:
``_ARRAYS`` gives each array as (name, rows, columns), the dimensions
named by the model's properties; ``_INITIAL`` the initial law as (state
dimension, mean, covariance); ``_COVARIANCES`` each covariance with the
positivity it needs. Construction (``_store``), validation and the slot
shapes of ``JointSystem`` all read that declaration.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .linalg import _as_2d, as_vector, block_diag, is_pd, is_psd, is_symmetric, symmetrize

__all__ = [
    "NoiseModel",
    "InputModel",
    "Channel",
    "JointSystem",
    "ValidationReport",
    "validate",
    "require_valid",
    "build_augmented",
    "to_quadruple",
    "memoryless_noise",
    "iid_input",
]


def _store(model, *values):
    """Write a model's fields, in declaration order, as fresh read-only float64 arrays.

    The values are the declared arrays (``_ARRAYS``), then the initial mean
    and covariance (``_INITIAL``); each is converted once, and an absent
    initial law is zero. The models are frozen, so each array goes straight
    into the instance's ``__dict__``. Every construction and every
    ``dataclasses.replace`` runs this, a drifting schedule once per step, so
    ``setflags`` gets its first parameter, ``write``, by position, which
    skips the keyword's parsing.
    """
    fields = model.__dict__
    for (name, _, _), x in zip(model._ARRAYS, values):
        fields[name] = arr = _as_2d(x, name, copy=True)
        arr.setflags(False)
    dim, mean, cov = model._INITIAL
    n = getattr(model, dim)
    mu, K = values[-2:]
    fields[mean] = mu = np.zeros(n) if mu is None else as_vector(mu, mean)
    mu.setflags(False)
    fields[cov] = K = np.zeros((n, n)) if K is None else _as_2d(K, cov, copy=True)
    K.setflags(False)


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Outcome of invariant checking: ok, or a list of named violations."""

    ok: bool
    violations: tuple = ()

    def __bool__(self):
        return self.ok


@dataclass(frozen=True, eq=False, init=False)
class NoiseModel:
    """Hidden-state Gaussian noise realization.

    Parameters
    ----------
    A, B, C, N : array_like
        State matrix (n_s x n_s), state noise gain (n_s x n_w), output
        map (n_y x n_s), and output noise gain (n_y x n_w). Scalars are
        accepted and treated as 1x1 blocks.
    K_W : array_like
        Covariance of the driving white noise W_t, n_w x n_w, symmetric
        positive definite.
    mu_S1, K_S1 : array_like, optional
        Mean and covariance of the initial state S_1. Default zero.

    Notes
    -----
    The same W_t enters both the state and the output, so the output
    noise covariance R = N K_W N^T and the cross term B K_W N^T are both
    generally nonzero. R must be positive definite for the one-step
    prediction problem to be well posed.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    N: np.ndarray
    K_W: np.ndarray
    mu_S1: np.ndarray = None
    K_S1: np.ndarray = None

    _ARRAYS = (("A", "n_s", "n_s"), ("B", "n_s", "n_w"), ("C", "n_y", "n_s"),
               ("N", "n_y", "n_w"), ("K_W", "n_w", "n_w"))
    _INITIAL = ("n_s", "mu_S1", "K_S1")
    _COVARIANCES = (("K_W", "definite"), ("K_S1", "semidefinite"))

    def __init__(self, A, B, C, N, K_W, mu_S1=None, K_S1=None):
        _store(self, A, B, C, N, K_W, mu_S1, K_S1)

    @property
    def n_s(self):
        return self.A.shape[0]

    @property
    def n_w(self):
        return self.K_W.shape[0]

    @property
    def n_y(self):
        return self.C.shape[0]

    @property
    def R(self):
        """Output noise covariance N K_W N^T."""
        return symmetrize(self.N @ self.K_W @ self.N.T)


@dataclass(frozen=True, eq=False, init=False)
class InputModel:
    """Channel-input realization with state Xi_t and white innovations Z_t.

    X_t = Gamma Xi_t + D Z_t,  Xi_{t+1} = F Xi_t + G Z_t.

    A memoryless input has n_xi = 0: pass F with shape (0, 0), G with
    shape (0, n_z) and Gamma with shape (n_x, 0).
    """

    F: np.ndarray
    G: np.ndarray
    Gamma: np.ndarray
    D: np.ndarray
    K_Z: np.ndarray
    mu_Xi1: np.ndarray = None
    K_Xi1: np.ndarray = None

    _ARRAYS = (("F", "n_xi", "n_xi"), ("G", "n_xi", "n_z"), ("Gamma", "n_x", "n_xi"),
               ("D", "n_x", "n_z"), ("K_Z", "n_z", "n_z"))
    _INITIAL = ("n_xi", "mu_Xi1", "K_Xi1")
    _COVARIANCES = (("K_Z", "semidefinite"), ("K_Xi1", "semidefinite"))

    def __init__(self, F, G, Gamma, D, K_Z, mu_Xi1=None, K_Xi1=None):
        _store(self, F, G, Gamma, D, K_Z, mu_Xi1, K_Xi1)

    @property
    def n_xi(self):
        return self.F.shape[0]

    @property
    def n_z(self):
        return self.K_Z.shape[0]

    @property
    def n_x(self):
        return self.Gamma.shape[0]


@dataclass(frozen=True, eq=False, init=False)
class Channel:
    """Observation map Y_t = H X_t + V_t with power budget kappa."""

    H: np.ndarray
    kappa: float = 0.0

    def __init__(self, H, kappa=0.0):
        fields = self.__dict__
        fields["H"] = H = _as_2d(H, "H", copy=True)
        H.setflags(False)
        fields["kappa"] = float(kappa)

    @property
    def n_y(self):
        return self.H.shape[0]

    @property
    def n_x(self):
        return self.H.shape[1]


def _check_finite(violations, name, arr):
    if arr.size and not np.all(np.isfinite(arr)):
        violations.append(f"{name} contains non-finite entries")


_POSITIVE = {"definite": is_pd, "semidefinite": is_psd}


def _validate_state_space(m):
    # shapes and finiteness first; the covariance tests need both
    v = []
    for name, rows, cols in m._ARRAYS:
        shape = getattr(m, name).shape
        for axis, dim, word in ((0, rows, "rows"), (1, cols, "columns")):
            expected = getattr(m, dim)
            if shape[axis] != expected:
                v.append(f"{name} not square (shape {shape})" if rows == cols else
                         f"{name} has {shape[axis]} {word}, expected {dim} = {expected}")
    dim, mean, cov = m._INITIAL
    n = getattr(m, dim)
    if getattr(m, cov).shape != (n, n):
        v.append(f"{cov} has shape {getattr(m, cov).shape}, expected ({n}, {n})")
    if getattr(m, mean).shape != (n,):
        v.append(f"{mean} has length {getattr(m, mean).shape[0]}, expected {dim} = {n}")
    for name in (*(array[0] for array in m._ARRAYS), mean, cov):
        _check_finite(v, name, getattr(m, name))
    if v:
        return v
    symmetric = {}
    for name, positive in m._COVARIANCES:
        K = getattr(m, name)
        symmetric[name] = is_symmetric(K)
        if not symmetric[name]:
            v.append(f"{name} not symmetric")
        elif not _POSITIVE[positive](K):
            v.append(f"{name} not positive {positive}")
    if isinstance(m, NoiseModel) and symmetric["K_W"] and not is_pd(m.R):
        v.append("R not positive definite")
    return v


def _validate_channel(m):
    v = []
    _check_finite(v, "H", m.H)
    if not np.isfinite(m.kappa):
        v.append("kappa not finite")
    elif m.kappa < 0:
        v.append(f"kappa negative ({m.kappa})")
    return v


def validate(model):
    """Check all type invariants of a model.

    Parameters
    ----------
    model : NoiseModel, InputModel or Channel

    Returns
    -------
    ValidationReport
        ``ok`` is True iff every invariant holds; otherwise ``violations``
        lists one human-readable line per failed invariant, naming the
        offending quantity. Violations are data, not exceptions.
    """
    if isinstance(model, (NoiseModel, InputModel)):
        v = _validate_state_space(model)
    elif isinstance(model, Channel):
        v = _validate_channel(model)
    else:
        raise TypeError(f"cannot validate object of type {type(model).__name__}")
    return ValidationReport(ok=not v, violations=tuple(v))


def require_valid(*models):
    """Raise ValueError at the first model that fails ``validate``.

    The message names the model ("noise", "input" or "channel") and
    lists every violation it has.
    """
    for model in models:
        report = validate(model)
        if not report.ok:
            label = type(model).__name__.removesuffix("Model").lower()
            raise ValueError(f"{label} model invalid: " + "; ".join(report.violations))


def _shapes(noise, input):
    # every block must fill its slot exactly; numpy would broadcast a smaller one
    return tuple(getattr(m, name).shape for m in (noise, input) for name, _, _ in m._ARRAYS)


class JointSystem:
    """The joint prediction problem over Theta_t = (Xi_t, S_t), in fixed block slots.

    The slots hold the Riccati problem the engine reads, Ahat =
    blockdiag(F, A), Chat = [H Gamma | C], Qhat = Bhat Khat Bhat^T,
    Shat = Bhat Khat Dhat^T and Rhat = Dhat Khat Dhat^T, filled block by
    block; ``_write`` is the only code that forms them, for one pair or a
    stack of pairs. Bhat = blockdiag(G, B), Dhat = [H D | N], Khat =
    blockdiag(K_Z, K_W) and the joint initial law, mu_Theta1 = (mu_Xi1,
    mu_S1) and K_Theta1 = blockdiag(K_Xi1, K_S1), are read-only properties
    formed afresh on each read from ``noise``, ``input`` and ``H``, each
    block diagonal by ``linalg.block_diag``.
    ``noise_quad`` is the noise-only problem (A, B, C, N, K_W): the
    JointSystem with no input (n_xi = n_z = 0) whose slots are views of the
    noise slots, so writes to this system fill it too (the view's own
    ``_update`` is not for calling); a system with no input is its own
    ``noise_quad``. ``noise`` and ``input`` are the models last written;
    the private ``_update`` rewrites only the side whose model changed, so
    a drifting schedule or an input search reuses a system it built (a
    public caller only reads one, as a ``sample_paths`` batch does);
    ``_stacked(pairs)`` writes the slots of a horizon chunk's pairs at
    once; either raises ValueError for a pair whose block shapes are not
    the system's (``_stacked`` checks its first pair, and ``np.array``,
    which raises on a ragged stack, the rest against it). The models are
    not otherwise checked here: ``build_augmented``, or ``to_quadruple``
    for a noise alone, validates them first.
    """

    # a property, so that no system refers to itself and each is freed once dropped
    noise_quad = property(lambda self: self._noise_quad or self)
    # the rest of the realization and the initial law, formed from the models last written
    Bhat = property(lambda self: block_diag(self.input.G, self.noise.B))
    Dhat = property(lambda self: np.hstack([self.H @ self.input.D, self.noise.N]))
    Khat = property(lambda self: block_diag(self.input.K_Z, self.noise.K_W))
    mu_Theta1 = property(lambda self: np.concatenate([self.input.mu_Xi1, self.noise.mu_S1]))
    K_Theta1 = property(lambda self: block_diag(self.input.K_Xi1, self.noise.K_S1))

    def __init__(self, noise, input, channel):
        self.shapes = _shapes(noise, input)
        self.n_xi, self.n_s, self.n_z, self.n_w = input.n_xi, noise.n_s, input.n_z, noise.n_w
        self.m, self.q, self.H = self.n_xi + self.n_s, channel.n_y, channel.H
        self._allocate()
        self._write(noise, input)  # the pair the slots were sized from
        self.noise = self.noise_quad.noise = noise
        self.input = input

    def _allocate(self, *lead):
        # zeroed slots with leading axes ``lead`` and, for a system with an
        # input, the noise-only JointSystem over views of its noise slots
        x, m, q = self.n_xi, self.m, self.q
        self.Ahat, self.Qhat, self.Chat, self.Shat = (
            np.zeros((*lead, *shape)) for shape in ((m, m), (m, m), (q, m), (m, q)))
        self._noise_quad = nq = object.__new__(JointSystem) if x or self.n_z else None
        if nq:
            nq.input = _NO_INPUT
            nq.n_xi, nq.n_s, nq.n_z, nq.n_w = 0, self.n_s, 0, self.n_w
            nq.m, nq.q, nq.H, nq._noise_quad = self.n_s, q, self.H[:, :0], None
            nq.Ahat, nq.Qhat = self.Ahat[..., x:, x:], self.Qhat[..., x:, x:]
            nq.Chat, nq.Shat = self.Chat[..., x:], self.Shat[..., x:, :]

    def _fits(self, noise, input):
        if _shapes(noise, input) != self.shapes:
            raise ValueError("model dimensions changed mid-schedule")

    def _update(self, noise, input):
        """Write the models in force now; raises ValueError if a block's shape changed."""
        if noise is self.noise and input is self.input:
            return
        self._fits(noise, input)
        self._write(None if noise is self.noise else noise, None if input is self.input else input)
        self.noise = self.noise_quad.noise = noise
        self.input = input

    def _stacked(self, pairs):
        # this layout's slots with a leading axis over (noise, input) pairs that fit it (its
        # properties read one pair), written in one pass from ``noise`` and ``input``, each
        # distinct model's arrays (by identity) stacked once, by one np.array (which raises
        # ValueError on a ragged stack, without np.stack's checks), and indexed to the pairs
        self._fits(*pairs[0])
        stacked = object.__new__(JointSystem)
        for name in ("n_xi", "n_s", "n_z", "n_w", "m", "q", "H"):
            setattr(stacked, name, getattr(self, name))
        stacked._allocate(len(pairs))
        for side, models in zip(("noise", "input"), zip(*pairs)):
            rows = {}
            index = [rows.setdefault(model, len(rows)) for model in models]
            setattr(stacked, side, SimpleNamespace(**{
                name: np.array([getattr(model, name) for model in rows])[index]
                for name, _, _ in models[0]._ARRAYS}))
        stacked._write(stacked.noise, stacked.input)
        return stacked

    def _write(self, noise, input):
        # the blocks of the models given (None: unchanged), each a model or
        # (L, ...) stacks of its declared arrays for slots with that leading axis
        if noise is not None:
            # through the noise-only problem, whose slots are this system's noise blocks
            nq = self.noise_quad
            nq.Ahat[...] = noise.A
            nq.Chat[...] = noise.C
            BK = noise.B @ noise.K_W
            nq.Qhat[...] = symmetrize(BK @ noise.B.swapaxes(-1, -2))
            nq.Shat[...] = BK @ noise.N.swapaxes(-1, -2)
            nq.Rhat = self._R_noise = symmetrize(noise.N @ noise.K_W @ noise.N.swapaxes(-1, -2))
        if input is not None:
            x = self.n_xi
            HD = self.H @ input.D
            self.Ahat[..., :x, :x] = input.F
            self.Chat[..., :x] = self.H @ input.Gamma
            GK = input.G @ input.K_Z
            self.Qhat[..., :x, :x] = symmetrize(GK @ input.G.swapaxes(-1, -2))
            self.Shat[..., :x, :] = GK @ HD.swapaxes(-1, -2)
            self._R_input = HD @ input.K_Z @ HD.swapaxes(-1, -2)
        self.Rhat = symmetrize(self._R_input + self._R_noise)


def build_augmented(noise, input, channel):
    """Validate the three models and stack them into the joint system driving Y_t.

    Parameters
    ----------
    noise : NoiseModel
    input : InputModel
    channel : Channel

    Returns
    -------
    JointSystem
        Ahat = blockdiag(F, A), Bhat = blockdiag(G, B), Chat = [H Gamma | C],
        Dhat = [H D | N], Khat = blockdiag(K_Z, K_W), initial law
        mu_Theta1 = (mu_Xi1, mu_S1), K_Theta1 = blockdiag(K_Xi1, K_S1).

    Raises
    ------
    ValueError
        If any model fails validation or the dimensions are incompatible;
        the message names the mismatched axes.
    """
    require_valid(noise, input, channel)
    H = channel.H
    if H.shape[1] != input.n_x:
        raise ValueError(f"H has {H.shape[1]} columns but input n_x = {input.n_x}")
    if H.shape[0] != noise.n_y:
        raise ValueError(f"H has {H.shape[0]} rows but noise n_y = {noise.n_y}")
    return JointSystem(noise, input, channel)


def to_quadruple(noise):
    """A noise model's own prediction problem (A, B, C, N, K_W), for the Riccati engine.

    The JointSystem of the validated noise, an input with no state and no
    innovations (n_xi = n_z = 0) and a channel with no input columns; it is
    its own ``noise_quad``. Those two fill no slot and cannot be invalid, so
    only the noise is validated.
    """
    if not isinstance(noise, NoiseModel):
        raise TypeError(f"cannot build a quadruple from {type(noise).__name__}")
    require_valid(noise)
    return JointSystem(noise, _NO_INPUT, Channel(H=np.zeros((noise.n_y, 0))))


def memoryless_noise(K_V):
    """White Gaussian noise with covariance K_V, phrased as a stateless model."""
    K_V = _as_2d(K_V, "K_V", copy=None)  # the model's coercion makes the one copy
    n_y = K_V.shape[0]
    return NoiseModel(
        A=np.zeros((0, 0)), B=np.zeros((0, n_y)),
        C=np.zeros((n_y, 0)), N=np.eye(n_y), K_W=K_V,
    )


def iid_input(K_Z, n_x=None):
    """Stateless input X_t = D Z_t with D = I truncated to n_x rows."""
    K_Z = _as_2d(K_Z, "K_Z", copy=None)  # the model's coercion makes the one copy
    n_z = K_Z.shape[0]
    if n_x is None:
        n_x = n_z
    return InputModel(
        F=np.zeros((0, 0)), G=np.zeros((0, n_z)),
        Gamma=np.zeros((n_x, 0)), D=np.eye(n_x, n_z), K_Z=K_Z,
    )


# the input of a noise-only problem: no state, no innovations, no output
_NO_INPUT = iid_input(np.zeros((0, 0)), n_x=0)
