"""Feasibility tests for the steady-state capacity characterization.

Membership in the admissible set requires, on top of a power-feasible
input: detectability of the noise and joint output pairs, stabilizability
of the corresponding starred pairs, and exponential stability of the
input state matrix F. All rank conditions are checked in the
eigenvector-free PBH form, which works unchanged for unstable state
matrices. A weaker unit-circle controllability verdict is reported as a
diagnostic for the marginal regimes where limits exist but depend on the
initial condition.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import PSD_SLACK, as_matrix, is_symmetric, solve_spd, spectral_radius, symmetrize
from .lyapunov import STABILITY_MARGIN
from .models import JointSystem, build_augmented
# to_quadruple and validate stay importable here because bench/tracing.py
# patches them at these names
from .models import to_quadruple, validate  # noqa: F401

__all__ = [
    "StarredSystem",
    "FeasibilityReport",
    "psd_sqrt",
    "starred_system",
    "pbh_test",
    "feasibility_report",
]

# |lambda| >= 1 - RANK_TOL counts as unstable-or-marginal; the unit-circle
# diagnostic keeps only ||lambda| - 1| <= RANK_TOL
RANK_TOL = 1e-9

# numerical rank threshold factor: sigma > sigma_max * max(dims) * SV_RTOL
SV_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class StarredSystem:
    """Starred matrices entering the stabilizability condition.

    A_star = Ahat - Shat Rhat^{-1} Chat removes the part of the dynamics
    predictable from the current output; B_star = Khat - Khat Dhat^T
    Rhat^{-1} Dhat Khat is the residual driving-noise covariance, and
    G_mat = Bhat feeds its square root back into the state.
    """

    A_star: np.ndarray
    B_star: np.ndarray
    G_mat: np.ndarray
    B_star_sqrt: np.ndarray


@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    """Verdicts of the admissibility tests plus per-eigenvalue witnesses.

    ``member_of_P_infinity`` is the conjunction of the five defining
    flags; ``unit_circle_controllable`` is diagnostic only and does not
    enter membership. ``warnings`` collects non-fatal findings such as
    apparent non-minimality of a realization.
    """

    noise_detectable: bool
    noise_stabilizable: bool
    augmented_detectable: bool
    augmented_stabilizable: bool
    input_F_stable: bool
    unit_circle_controllable: bool
    witnesses: dict = field(default_factory=dict)
    warnings: tuple = ()

    @property
    def member_of_P_infinity(self):
        return (
            self.noise_detectable
            and self.noise_stabilizable
            and self.augmented_detectable
            and self.augmented_stabilizable
            and self.input_F_stable
        )


def psd_sqrt(M):
    """Symmetric square root of a PSD matrix.

    Parameters
    ----------
    M : array_like
        Symmetric matrix with eigenvalues >= -PSD_SLACK (1e-10).
        Eigenvalues in [-PSD_SLACK, 0) are treated as rounding noise and
        set to zero; anything below -PSD_SLACK raises.

    Returns
    -------
    ndarray
        Symmetric PSD matrix whose square reproduces M up to PSD_SLACK.
    """
    M = as_matrix(M, "M")
    if M.size == 0:
        return M.copy()
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix not square (shape {M.shape})")
    if not is_symmetric(M):
        raise ValueError("matrix not symmetric")
    w, V = np.linalg.eigh(symmetrize(M))
    if float(w[0]) < -PSD_SLACK:
        raise ValueError(f"matrix not PSD: eigenvalue {w[0]:.6g} below -{PSD_SLACK:g}")
    w = np.clip(w, 0.0, None)
    return symmetrize((V * np.sqrt(w)) @ V.T)


def starred_system(quad):
    """Build the starred pair for the stabilizability test.

    A_star = Ahat - Bhat Khat Dhat^T (Dhat Khat Dhat^T)^{-1} Chat,
    B_star = Khat - Khat Dhat^T (Dhat Khat Dhat^T)^{-1} Dhat Khat,
    G_mat = Bhat, with B_star_sqrt = psd_sqrt(B_star).
    """
    A_star = quad.Ahat - quad.Shat @ solve_spd(
        quad.Rhat, quad.Chat, context="Dhat Khat Dhat^T"
    )
    DK = quad.Dhat @ quad.Khat
    B_star = symmetrize(
        quad.Khat - DK.T @ solve_spd(quad.Rhat, DK, context="Dhat Khat Dhat^T")
    )
    return StarredSystem(
        A_star=A_star,
        B_star=B_star,
        G_mat=quad.Bhat.copy(),
        B_star_sqrt=psd_sqrt(B_star),
    )


def _pbh_ranks(A, V, lams, stacked):
    # numerical rank of [A - lam I; V] (stacked) or [A - lam I, V] at each
    # lam, from one batched SVD of one stack filled in place
    if len(lams) == 0:
        return np.zeros(0, dtype=int)
    m = A.shape[0]
    shape = (m + V.shape[0], m) if stacked else (m, m + V.shape[1])
    M = np.empty((len(lams),) + shape, dtype=complex)
    M[:, :m, :m] = A
    (M[:, m:] if stacked else M[:, :, m:])[...] = V
    diag = np.arange(m)
    M[:, diag, diag] -= lams[:, None]
    s = np.linalg.svd(M, compute_uv=False)
    return np.sum(s > s[:, :1] * max(M.shape[1:]) * SV_RTOL, axis=1)


def pbh_test(A, V, mode):
    """PBH rank test for detectability, stabilizability, or the unit-circle variant.

    Eigenvalues with |lambda| >= 1 - RANK_TOL are tested in the first two
    modes, those with ||lambda| - 1| <= RANK_TOL in the unit-circle mode.
    The numerical rank counts singular values above
    sigma_max * max(dims) * SV_RTOL.

    Parameters
    ----------
    A : array_like
        State matrix, m x m.
    V : array_like
        Output matrix with m columns for mode "detectable"; input matrix
        with m rows for "stabilizable" and "unit_circle_controllable".
    mode : str
        One of "detectable", "stabilizable", "unit_circle_controllable".

    Returns
    -------
    (bool, tuple of dict)
        The verdict and one witness per eigenvalue of A, recording the
        eigenvalue, whether it was inside the tested region, and the
        rank found versus the rank required.
    """
    A = as_matrix(A, "A")
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"A not square (shape {A.shape})")
    V = as_matrix(V, "V")
    m = A.shape[0]
    if mode == "detectable":
        stacked = True
        if V.shape[1] != m:
            raise ValueError(
                f"mode 'detectable' needs V with {m} columns, got shape {V.shape}"
            )
    elif mode in ("stabilizable", "unit_circle_controllable"):
        stacked = False
        if V.shape[0] != m:
            raise ValueError(
                f"mode '{mode}' needs V with {m} rows, got shape {V.shape}"
            )
    else:
        raise ValueError(f"unknown mode '{mode}'")
    if m == 0:
        return True, ()
    lams = np.linalg.eigvals(A)
    moduli = np.abs(lams)
    if mode == "unit_circle_controllable":
        tested = np.abs(moduli - 1.0) <= RANK_TOL
    else:
        tested = moduli >= 1.0 - RANK_TOL
    ranks = np.zeros(m, dtype=int)
    ranks[tested] = _pbh_ranks(A, V, lams[tested], stacked)
    witnesses = tuple({
        "eigenvalue_re": float(lam.real),
        "eigenvalue_im": float(lam.imag),
        "modulus": float(modulus),
        "tested": bool(hit),
        "rank": int(rank) if hit else None,
        "required": m,
        "ok": bool(not hit or rank == m),
    } for lam, modulus, hit, rank in zip(lams, moduli, tested, ranks))
    return all(w["ok"] for w in witnesses), witnesses


def _minimality_warnings(A, B, C, label):
    # full-spectrum PBH: a realization is minimal iff controllable and
    # observable at every eigenvalue, not just the unstable ones
    m = A.shape[0]
    if m == 0:
        return []
    lams = np.linalg.eigvals(A)
    warnings = []
    for V, stacked, word in ((B, False, "controllable"), (C, True, "observable")):
        short = np.flatnonzero(_pbh_ranks(A, V, lams, stacked) < m)
        if short.size:
            warnings.append(
                f"{label} realization not {word} at eigenvalue "
                f"{lams[short[0]]:.6g}; it may not be minimal"
            )
    return warnings


def feasibility_report(noise, input, channel):
    """Run every admissibility test for a (noise, input, channel) triple.

    Checks detectability of the noise output pair and the joint output
    pair, stabilizability of the corresponding starred pairs through
    G B_star^{1/2}, and exponential stability of F. Unit-circle
    controllability of both starred pairs is evaluated as a diagnostic.
    Apparent non-minimality of either realization is reported as a
    warning only, since the computed quantities stay well defined. Every
    rank test uses the module's RANK_TOL and SV_RTOL (see ``pbh_test``).

    ``channel`` may also be the JointSystem that ``build_augmented`` built
    from these models; they are then neither validated nor stacked again.

    Raises
    ------
    ValueError
        If any of the three models fails validation.
    """
    system = (channel if isinstance(channel, JointSystem)
              else build_augmented(noise, input, channel))
    verdicts, witnesses = {}, {}
    unit_circle_controllable = True
    for label, quad in (("noise", system.noise_quad), ("augmented", system)):
        star = starred_system(quad)
        ctrl = star.G_mat @ star.B_star_sqrt
        verdicts[label + "_detectable"], witnesses[label + "_detectable"] = pbh_test(
            quad.Ahat, quad.Chat, "detectable")
        verdicts[label + "_stabilizable"], witnesses[label + "_stabilizable"] = pbh_test(
            star.A_star, ctrl, "stabilizable")
        ucc, witnesses["unit_circle_" + label] = pbh_test(
            star.A_star, ctrl, "unit_circle_controllable")
        unit_circle_controllable = unit_circle_controllable and ucc

    warnings = (_minimality_warnings(noise.A, noise.B, noise.C, "noise")
                + _minimality_warnings(input.F, input.G, input.Gamma, "input"))
    return FeasibilityReport(
        **verdicts,
        input_F_stable=spectral_radius(input.F) <= 1.0 - STABILITY_MARGIN,
        unit_circle_controllable=unit_circle_controllable,
        witnesses=witnesses,
        warnings=tuple(warnings),
    )
