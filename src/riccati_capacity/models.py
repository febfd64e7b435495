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
receives; ``build_augmented`` validates the models and builds it.
``to_quadruple`` gives a noise model's own prediction problem as the
joint system with no input. ``require_valid`` is the one
validate-and-raise boundary of the public entry points.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .linalg import (
    as_matrix,
    as_vector,
    block_diag,
    is_pd,
    is_psd,
    is_symmetric,
    symmetrize,
)

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


def _freeze(arr):
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class ValidationReport:
    """Outcome of invariant checking: ok, or a list of named violations."""

    ok: bool
    violations: tuple = ()

    def __bool__(self):
        return self.ok


@dataclass(frozen=True, eq=False)
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

    def __post_init__(self):
        set_ = object.__setattr__
        set_(self, "A", _freeze(as_matrix(self.A, "A")))
        set_(self, "B", _freeze(as_matrix(self.B, "B")))
        set_(self, "C", _freeze(as_matrix(self.C, "C")))
        set_(self, "N", _freeze(as_matrix(self.N, "N")))
        set_(self, "K_W", _freeze(as_matrix(self.K_W, "K_W")))
        n_s = self.A.shape[0]
        if self.mu_S1 is None:
            set_(self, "mu_S1", _freeze(np.zeros(n_s)))
        else:
            set_(self, "mu_S1", _freeze(as_vector(self.mu_S1, "mu_S1")))
        if self.K_S1 is None:
            set_(self, "K_S1", _freeze(np.zeros((n_s, n_s))))
        else:
            set_(self, "K_S1", _freeze(as_matrix(self.K_S1, "K_S1")))

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


@dataclass(frozen=True, eq=False)
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

    def __post_init__(self):
        set_ = object.__setattr__
        set_(self, "F", _freeze(as_matrix(self.F, "F")))
        set_(self, "G", _freeze(as_matrix(self.G, "G")))
        set_(self, "Gamma", _freeze(as_matrix(self.Gamma, "Gamma")))
        set_(self, "D", _freeze(as_matrix(self.D, "D")))
        set_(self, "K_Z", _freeze(as_matrix(self.K_Z, "K_Z")))
        n_xi = self.F.shape[0]
        if self.mu_Xi1 is None:
            set_(self, "mu_Xi1", _freeze(np.zeros(n_xi)))
        else:
            set_(self, "mu_Xi1", _freeze(as_vector(self.mu_Xi1, "mu_Xi1")))
        if self.K_Xi1 is None:
            set_(self, "K_Xi1", _freeze(np.zeros((n_xi, n_xi))))
        else:
            set_(self, "K_Xi1", _freeze(as_matrix(self.K_Xi1, "K_Xi1")))

    @property
    def n_xi(self):
        return self.F.shape[0]

    @property
    def n_z(self):
        return self.K_Z.shape[0]

    @property
    def n_x(self):
        return self.Gamma.shape[0]


@dataclass(frozen=True, eq=False)
class Channel:
    """Observation map Y_t = H X_t + V_t with power budget kappa."""

    H: np.ndarray
    kappa: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "H", _freeze(as_matrix(self.H, "H")))
        object.__setattr__(self, "kappa", float(self.kappa))

    @property
    def n_y(self):
        return self.H.shape[0]

    @property
    def n_x(self):
        return self.H.shape[1]


def _check_finite(violations, name, arr):
    if arr.size and not np.all(np.isfinite(arr)):
        violations.append(f"{name} contains non-finite entries")


def _validate_noise(m):
    v = []
    n_s, n_w, n_y = m.n_s, m.n_w, m.n_y
    if m.A.shape[0] != m.A.shape[1]:
        v.append(f"A not square (shape {m.A.shape})")
    if m.B.shape[0] != n_s:
        v.append(f"B has {m.B.shape[0]} rows, expected n_s = {n_s}")
    if m.B.shape[1] != n_w:
        v.append(f"B has {m.B.shape[1]} columns, expected n_w = {n_w}")
    if m.C.shape[1] != n_s:
        v.append(f"C has {m.C.shape[1]} columns, expected n_s = {n_s}")
    if m.N.shape[0] != n_y:
        v.append(f"N has {m.N.shape[0]} rows, expected n_y = {n_y}")
    if m.N.shape[1] != n_w:
        v.append(f"N has {m.N.shape[1]} columns, expected n_w = {n_w}")
    if m.K_W.shape[0] != m.K_W.shape[1]:
        v.append(f"K_W not square (shape {m.K_W.shape})")
    if m.K_S1.shape != (n_s, n_s):
        v.append(f"K_S1 has shape {m.K_S1.shape}, expected ({n_s}, {n_s})")
    if m.mu_S1.shape != (n_s,):
        v.append(f"mu_S1 has length {m.mu_S1.shape[0]}, expected n_s = {n_s}")
    for name in ("A", "B", "C", "N", "K_W", "mu_S1", "K_S1"):
        _check_finite(v, name, getattr(m, name))
    if v:
        return v
    if not is_symmetric(m.K_W):
        v.append("K_W not symmetric")
    elif not is_pd(m.K_W):
        v.append("K_W not positive definite")
    if not is_symmetric(m.K_S1):
        v.append("K_S1 not symmetric")
    elif not is_psd(m.K_S1):
        v.append("K_S1 not positive semidefinite")
    if is_symmetric(m.K_W) and not is_pd(m.R):
        v.append("R not positive definite")
    return v


def _validate_input(m):
    v = []
    n_xi, n_z, n_x = m.n_xi, m.n_z, m.n_x
    if m.F.shape[0] != m.F.shape[1]:
        v.append(f"F not square (shape {m.F.shape})")
    if m.G.shape[0] != n_xi:
        v.append(f"G has {m.G.shape[0]} rows, expected n_xi = {n_xi}")
    if m.G.shape[1] != n_z:
        v.append(f"G has {m.G.shape[1]} columns, expected n_z = {n_z}")
    if m.Gamma.shape[1] != n_xi:
        v.append(f"Gamma has {m.Gamma.shape[1]} columns, expected n_xi = {n_xi}")
    if m.D.shape[0] != n_x:
        v.append(f"D has {m.D.shape[0]} rows, expected n_x = {n_x}")
    if m.D.shape[1] != n_z:
        v.append(f"D has {m.D.shape[1]} columns, expected n_z = {n_z}")
    if m.K_Z.shape[0] != m.K_Z.shape[1]:
        v.append(f"K_Z not square (shape {m.K_Z.shape})")
    if m.K_Xi1.shape != (n_xi, n_xi):
        v.append(f"K_Xi1 has shape {m.K_Xi1.shape}, expected ({n_xi}, {n_xi})")
    if m.mu_Xi1.shape != (n_xi,):
        v.append(f"mu_Xi1 has length {m.mu_Xi1.shape[0]}, expected n_xi = {n_xi}")
    for name in ("F", "G", "Gamma", "D", "K_Z", "mu_Xi1", "K_Xi1"):
        _check_finite(v, name, getattr(m, name))
    if v:
        return v
    if not is_symmetric(m.K_Z):
        v.append("K_Z not symmetric")
    elif not is_psd(m.K_Z):
        v.append("K_Z not positive semidefinite")
    if not is_symmetric(m.K_Xi1):
        v.append("K_Xi1 not symmetric")
    elif not is_psd(m.K_Xi1):
        v.append("K_Xi1 not positive semidefinite")
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
    if isinstance(model, NoiseModel):
        v = _validate_noise(model)
    elif isinstance(model, InputModel):
        v = _validate_input(model)
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
    return tuple(a.shape for a in (noise.A, noise.B, noise.C, noise.N, noise.K_W,
                                   input.F, input.G, input.Gamma, input.D, input.K_Z))


class JointSystem:
    """The joint prediction problem over Theta_t = (Xi_t, S_t), in fixed block slots.

    The slots hold Ahat = blockdiag(F, A), Bhat = blockdiag(G, B),
    Chat = [H Gamma | C], Dhat = [H D | N] and Khat = blockdiag(K_Z, K_W),
    with Qhat = Bhat Khat Bhat^T, Shat = Bhat Khat Dhat^T and
    Rhat = Dhat Khat Dhat^T filled block by block; ``update`` is the only
    code that forms them. ``noise_quad`` is the noise-only problem
    (A, B, C, N, K_W) over views of the noise slots; ``mu_Theta1`` and
    ``K_Theta1`` are the initial law of the joint state.
    ``noise`` and ``input`` are the models last written; ``update``
    rewrites only the side whose model changed, so a drifting schedule
    or an input search reuses one system. The models are not checked
    here: ``build_augmented``, or ``to_quadruple`` for a noise alone,
    validates them first.
    """

    def __init__(self, noise, input, channel):
        self.shapes = _shapes(noise, input)
        self.n_xi, self.n_s, self.n_z, self.n_w = input.n_xi, noise.n_s, input.n_z, noise.n_w
        x, z = self.n_xi, self.n_z
        m, k, q = x + self.n_s, z + self.n_w, channel.n_y
        self.m, self.q, self.H = m, q, channel.H
        self.Ahat, self.Bhat, self.Qhat = np.zeros((m, m)), np.zeros((m, k)), np.zeros((m, m))
        self.Chat, self.Dhat, self.Shat = np.zeros((q, m)), np.zeros((q, k)), np.zeros((m, q))
        self.Khat = np.zeros((k, k))
        self.noise_quad = SimpleNamespace(
            Ahat=self.Ahat[x:, x:], Bhat=self.Bhat[x:, z:], Chat=self.Chat[:, x:],
            Dhat=self.Dhat[:, z:], Khat=self.Khat[z:, z:], Qhat=self.Qhat[x:, x:],
            Shat=self.Shat[x:], Rhat=None, m=self.n_s, q=q,
        )
        self.noise = self.input = None
        self.update(noise, input)
        self.mu_Theta1 = np.concatenate([input.mu_Xi1, noise.mu_S1])
        self.K_Theta1 = block_diag(input.K_Xi1, noise.K_S1)

    def update(self, noise, input):
        """Write the models in force now; raises ValueError if a block's shape changed."""
        if noise is self.noise and input is self.input:
            return
        if _shapes(noise, input) != self.shapes:
            raise ValueError("model dimensions changed mid-schedule")
        x, z = self.n_xi, self.n_z
        if noise is not self.noise:
            self.noise = noise
            self.Ahat[x:, x:] = noise.A
            self.Bhat[x:, z:] = noise.B
            self.Chat[:, x:] = noise.C
            self.Dhat[:, z:] = noise.N
            self.Khat[z:, z:] = noise.K_W
            BK = noise.B @ noise.K_W
            self.Qhat[x:, x:] = symmetrize(BK @ noise.B.T)
            self.Shat[x:] = BK @ noise.N.T
            self.noise_quad.Rhat = noise.R
        if input is not self.input:
            self.input = input
            HD = self.H @ input.D
            self.Ahat[:x, :x] = input.F
            self.Bhat[:x, :z] = input.G
            self.Chat[:, :x] = self.H @ input.Gamma
            self.Dhat[:, :z] = HD
            self.Khat[:z, :z] = input.K_Z
            GK = input.G @ input.K_Z
            self.Qhat[:x, :x] = symmetrize(GK @ input.G.T)
            self.Shat[:x] = GK @ HD.T
            self._R_input = HD @ input.K_Z @ HD.T
        self.Rhat = symmetrize(self._R_input + self.noise_quad.Rhat)


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


def to_quadruple(source):
    """Present a noise model or a joint system to the Riccati engine.

    A NoiseModel maps to its own prediction problem (A, B, C, N, K_W): the
    JointSystem of the validated noise, an input with no state and no
    innovations (n_xi = n_z = 0) and a channel with no input columns. Those
    two fill no slot and cannot be invalid, so only the noise is validated.
    A JointSystem is returned unchanged.
    """
    if isinstance(source, JointSystem):
        return source
    if not isinstance(source, NoiseModel):
        raise TypeError(f"cannot build a quadruple from {type(source).__name__}")
    require_valid(source)
    return JointSystem(source, iid_input(np.zeros((0, 0)), n_x=0),
                       Channel(H=np.zeros((source.n_y, 0))))


def memoryless_noise(K_V):
    """White Gaussian noise with covariance K_V, phrased as a stateless model."""
    K_V = as_matrix(K_V, "K_V")
    n_y = K_V.shape[0]
    return NoiseModel(
        A=np.zeros((0, 0)), B=np.zeros((0, n_y)),
        C=np.zeros((n_y, 0)), N=np.eye(n_y), K_W=K_V,
    )


def iid_input(K_Z, n_x=None):
    """Stateless input X_t = D Z_t with D = I truncated to n_x rows."""
    K_Z = as_matrix(K_Z, "K_Z")
    n_z = K_Z.shape[0]
    if n_x is None:
        n_x = n_z
    return InputModel(
        F=np.zeros((0, 0)), G=np.zeros((0, n_z)),
        Gamma=np.zeros((n_x, 0)), D=np.eye(n_x, n_z), K_Z=K_Z,
    )
