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
from .models import JointSystem, joint_system
# build_augmented, to_quadruple and validate stay importable here because
# bench/tracing.py patches them at these names
from .models import build_augmented, to_quadruple, validate  # noqa: F401

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


def psd_sqrt(M, clamp=PSD_SLACK):
    """Symmetric square root of a PSD matrix.

    Parameters
    ----------
    M : array_like
        Symmetric matrix with eigenvalues >= -clamp.
    clamp : float
        Eigenvalues in [-clamp, 0) are treated as rounding noise and set
        to zero; anything below -clamp raises.

    Returns
    -------
    ndarray
        Symmetric PSD matrix whose square reproduces M up to the clamp.
    """
    M = as_matrix(M, "M")
    if M.size == 0:
        return M.copy()
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix not square (shape {M.shape})")
    if not is_symmetric(M):
        raise ValueError("matrix not symmetric")
    w, V = np.linalg.eigh(symmetrize(M))
    if float(w[0]) < -clamp:
        raise ValueError(f"matrix not PSD: eigenvalue {w[0]:.6g} below -{clamp:g}")
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


def _numerical_rank(M, sv_rtol):
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > s[0] * max(M.shape) * sv_rtol))


def _rank_at(A, V, lam, stacked, sv_rtol):
    m = A.shape[0]
    shifted = A - lam * np.eye(m)
    if stacked:
        M = np.vstack([shifted, V.astype(complex)])
    else:
        M = np.hstack([shifted, V.astype(complex)])
    return _numerical_rank(M, sv_rtol)


def pbh_test(A, V, mode, rank_tol=RANK_TOL, sv_rtol=SV_RTOL):
    """PBH rank test for detectability, stabilizability, or the unit-circle variant.

    Parameters
    ----------
    A : array_like
        State matrix, m x m.
    V : array_like
        Output matrix with m columns for mode "detectable"; input matrix
        with m rows for "stabilizable" and "unit_circle_controllable".
    mode : str
        One of "detectable", "stabilizable", "unit_circle_controllable".
    rank_tol : float
        Eigenvalue classification margin: |lambda| >= 1 - rank_tol is
        tested in the first two modes, ||lambda| - 1| <= rank_tol in the
        unit-circle mode.
    sv_rtol : float
        Relative singular-value threshold for the numerical rank.

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
    witnesses = []
    ok = True
    for lam in np.linalg.eigvals(A):
        modulus = float(np.abs(lam))
        if mode == "unit_circle_controllable":
            tested = abs(modulus - 1.0) <= rank_tol
        else:
            tested = modulus >= 1.0 - rank_tol
        entry = {
            "eigenvalue_re": float(lam.real),
            "eigenvalue_im": float(lam.imag),
            "modulus": modulus,
            "tested": bool(tested),
            "rank": None,
            "required": m,
            "ok": True,
        }
        if tested:
            rank = _rank_at(A, V, lam, stacked, sv_rtol)
            entry["rank"] = rank
            entry["ok"] = rank == m
            ok = ok and entry["ok"]
        witnesses.append(entry)
    return ok, tuple(witnesses)


def _minimality_warnings(A, B, C, label, sv_rtol=SV_RTOL):
    # full-spectrum PBH: a realization is minimal iff controllable and
    # observable at every eigenvalue, not just the unstable ones
    warnings = []
    m = A.shape[0]
    if m == 0:
        return warnings
    for lam in np.linalg.eigvals(A):
        if _rank_at(A, B, lam, stacked=False, sv_rtol=sv_rtol) < m:
            warnings.append(
                f"{label} realization not controllable at eigenvalue "
                f"{lam:.6g}; it may not be minimal"
            )
            break
    for lam in np.linalg.eigvals(A):
        if _rank_at(A, C, lam, stacked=True, sv_rtol=sv_rtol) < m:
            warnings.append(
                f"{label} realization not observable at eigenvalue "
                f"{lam:.6g}; it may not be minimal"
            )
            break
    return warnings


def feasibility_report(noise, input, channel, rank_tol=RANK_TOL, sv_rtol=SV_RTOL):
    """Run every admissibility test for a (noise, input, channel) triple.

    Checks detectability of the noise output pair and the joint output
    pair, stabilizability of the corresponding starred pairs through
    G B_star^{1/2}, and exponential stability of F. Unit-circle
    controllability of both starred pairs is evaluated as a diagnostic.
    Apparent non-minimality of either realization is reported as a
    warning only, since the computed quantities stay well defined.

    ``channel`` may also be the JointSystem that ``joint_system`` built
    from these models; they are then neither validated nor stacked again.

    Raises
    ------
    ValueError
        If any of the three models fails validation.
    """
    system = channel if isinstance(channel, JointSystem) else joint_system(noise, input, channel)
    verdicts, witnesses = {}, {}
    unit_circle_controllable = True
    for label, quad in (("noise", system.noise_quad), ("augmented", system)):
        star = starred_system(quad)
        ctrl = star.G_mat @ star.B_star_sqrt
        verdicts[label + "_detectable"], witnesses[label + "_detectable"] = pbh_test(
            quad.Ahat, quad.Chat, "detectable", rank_tol, sv_rtol)
        verdicts[label + "_stabilizable"], witnesses[label + "_stabilizable"] = pbh_test(
            star.A_star, ctrl, "stabilizable", rank_tol, sv_rtol)
        ucc, witnesses["unit_circle_" + label] = pbh_test(
            star.A_star, ctrl, "unit_circle_controllable", rank_tol, sv_rtol)
        unit_circle_controllable = unit_circle_controllable and ucc

    warnings = []
    warnings += _minimality_warnings(noise.A, noise.B, noise.C, "noise", sv_rtol)
    warnings += _minimality_warnings(input.F, input.G, input.Gamma, "input", sv_rtol)
    return FeasibilityReport(
        **verdicts,
        input_F_stable=spectral_radius(input.F) <= 1.0 - STABILITY_MARGIN,
        unit_circle_controllable=unit_circle_controllable,
        witnesses=witnesses,
        warnings=tuple(warnings),
    )
