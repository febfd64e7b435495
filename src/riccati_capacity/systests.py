"""Feasibility tests for the steady-state capacity characterization.

Membership in the admissible set requires, on top of a power-feasible
input: detectability of the noise and joint output pairs, stabilizability
of the corresponding starred pairs, and exponential stability of the
input state matrix F. Every rank condition is the eigenvector-free PBH
test at the eigenvalues concerned, so unstable A works unchanged;
detectability is the same test on the dual pair (A^T, C^T). One batched
Cholesky factorization per pair certifies full rank at all of them at
once, and an SVD counts the rank only where that certificate fails. A
weaker unit-circle controllability verdict is a diagnostic for the
marginal regimes where limits exist but depend on the initial condition.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import PSD_SLACK, as_matrix, is_symmetric, solve_spd, symmetrize
from .lyapunov import STABILITY_MARGIN
from .models import JointSystem, build_augmented
# to_quadruple and validate stay importable here because bench/tracing.py
# patches them at these names
from .models import to_quadruple, validate  # noqa: F401

__all__ = ["StarredSystem", "FeasibilityReport", "psd_sqrt", "starred_system", "pbh_test",
           "feasibility_report"]

# |lambda| >= 1 - RANK_TOL counts as unstable-or-marginal; the unit-circle
# diagnostic keeps only ||lambda| - 1| <= RANK_TOL
RANK_TOL = 1e-9

# numerical rank threshold factor: sigma > sigma_max * max(dims) * SV_RTOL
SV_RTOL = 1e-12

# the eigenvalues each test looks at, as a mask over their moduli
_REGIONS = {"detectable": lambda modulus: modulus >= 1.0 - RANK_TOL,
            "stabilizable": lambda modulus: modulus >= 1.0 - RANK_TOL,
            "unit_circle_controllable": lambda modulus: np.abs(modulus - 1.0) <= RANK_TOL}


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


class Witnesses(NamedTuple):
    """One test's evidence per eigenvalue (rank -1 where untested); ``dicts`` as pbh_test's."""

    eigenvalues: np.ndarray
    tested: np.ndarray
    ok: np.ndarray
    rank: np.ndarray

    def dicts(self):
        lams = self.eigenvalues
        return tuple({
            "eigenvalue_re": float(lam.real), "eigenvalue_im": float(lam.imag),
            "modulus": float(modulus), "tested": bool(hit),
            "rank": int(rank) if hit else None, "required": len(lams), "ok": bool(ok),
        } for lam, modulus, hit, ok, rank in zip(lams, np.abs(lams), self.tested, self.ok,
                                                 self.rank))


@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    """Verdicts of the admissibility tests plus per-eigenvalue witnesses.

    ``member_of_P_infinity`` is the conjunction of the five defining
    flags; ``unit_circle_controllable`` is diagnostic only and does not
    enter membership. ``warnings`` collects non-fatal findings such as
    apparent non-minimality of a realization. ``witnesses`` turns each
    test's ``Witnesses`` in ``witness_arrays`` into dicts on first access.
    """

    noise_detectable: bool
    noise_stabilizable: bool
    augmented_detectable: bool
    augmented_stabilizable: bool
    input_F_stable: bool
    unit_circle_controllable: bool
    witness_arrays: dict = field(default_factory=dict, repr=False)
    warnings: tuple = ()

    @property
    def member_of_P_infinity(self):
        return (self.noise_detectable and self.noise_stabilizable and self.augmented_detectable
                and self.augmented_stabilizable and self.input_F_stable)

    @cached_property
    def witnesses(self):
        return {label: w.dicts() for label, w in self.witness_arrays.items()}


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
    m = quad.Ahat.shape[0]
    DK = quad.Dhat @ quad.Khat
    RinvCDK = solve_spd(quad.Rhat, np.hstack([quad.Chat, DK]), context="Dhat Khat Dhat^T")
    B_star = symmetrize(quad.Khat - DK.T @ RinvCDK[:, m:])
    return StarredSystem(
        A_star=quad.Ahat - quad.Shat @ RinvCDK[:, :m],
        B_star=B_star,
        G_mat=quad.Bhat.copy(),
        B_star_sqrt=psd_sqrt(B_star),
    )


def _pbh_ranks(A, V, lams):
    # numerical rank of M = [A - lam I, V] at each lam. One batched Cholesky factor of
    # M M^H - delta I, delta = (m + cols(V)) SV_RTOL (|A|_F + |V|_F + sqrt(m) |lam|)^2,
    # proves sigma_min(M) > sqrt(delta)/2, far above the rank threshold, at every lam in a
    # quarter of the time of their SVDs (m = 40); only if it fails do the SVDs run.
    m, lam, modulus = A.shape[0], lams[:, None, None], np.abs(lams)
    MMh = A @ A.T + V @ V.T - lam.conj() * A - lam * A.T
    scale = (math.sqrt(np.vdot(A, A)) + math.sqrt(np.vdot(V, V)) + math.sqrt(m) * modulus) ** 2
    diag = np.arange(m)
    MMh[:, diag, diag] += (modulus ** 2 - (m + V.shape[1]) * SV_RTOL * scale)[:, None]
    try:
        np.linalg.cholesky(MMh)
        return np.full(len(lams), m)
    except np.linalg.LinAlgError:
        pass
    M = np.empty((len(lams), m, m + V.shape[1]), dtype=complex)
    M[:, :, :m] = A
    M[:, :, m:] = V
    M[:, diag, diag] -= lams[:, None]
    s = np.linalg.svd(M, compute_uv=False)
    return np.sum(s > s[:, :1] * max(M.shape[1:]) * SV_RTOL, axis=1)


class _Pair:
    """(A, V) in controllability form with its spectrum (``lams``, e.g. eigvals(A) of a
    dual pair (A^T, C^T)) and PBH ranks computed once for all its tests; a conjugate
    pair of eigenvalues, adjacent in eigvals' output, shares one."""

    def __init__(self, A, V, lams=None):
        self.A, self.V = A, V
        self.lams = np.linalg.eigvals(A) if lams is None else lams
        self.moduli = np.abs(self.lams)
        self.rank = np.full(len(self.lams), -1)  # -1 until computed

    def ranks(self, mask=True):
        want = mask & (self.rank < 0) & (self.lams.imag >= 0)
        if want.any():
            self.rank[want] = _pbh_ranks(self.A, self.V, self.lams[want])
            conj = np.flatnonzero(self.lams.imag < 0)
            self.rank[conj] = self.rank[conj - 1]
        return self.rank

    def test(self, mode):
        tested = _REGIONS[mode](self.moduli)
        rank = np.where(tested, self.ranks(tested), -1)
        return Witnesses(self.lams, tested, ~tested | (rank == len(rank)), rank)


def pbh_test(A, V, mode):
    """PBH rank test for detectability, stabilizability, or the unit-circle variant.

    Eigenvalues with |lambda| >= 1 - RANK_TOL are tested in the first two
    modes, those with ||lambda| - 1| <= RANK_TOL in the unit-circle mode.
    The numerical rank counts singular values above
    sigma_max * max(dims) * SV_RTOL; where a Cholesky certificate shows
    sigma_min far above that threshold, no SVD is taken.

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
        The verdict and one witness per eigenvalue of A, in eigvals(A)
        order, recording the eigenvalue, whether it was inside the tested
        region, and the rank found versus the rank required.
    """
    A = as_matrix(A, "A")
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"A not square (shape {A.shape})")
    V = as_matrix(V, "V")
    m = A.shape[0]
    if mode == "detectable":
        if V.shape[1] != m:
            raise ValueError(f"mode 'detectable' needs V with {m} columns, got shape {V.shape}")
        pair = _Pair(A.T, V.T, np.linalg.eigvals(A))
    elif mode in ("stabilizable", "unit_circle_controllable"):
        if V.shape[0] != m:
            raise ValueError(f"mode '{mode}' needs V with {m} rows, got shape {V.shape}")
        pair = _Pair(A, V)
    else:
        raise ValueError(f"unknown mode '{mode}'")
    witnesses = pair.test(mode)
    return bool(witnesses.ok.all()), witnesses.dicts()


def _minimality_warnings(label, reach, observe):
    # a realization is minimal iff controllable and observable at every
    # eigenvalue, not just the unstable ones
    warnings = []
    for pair, word in ((reach, "controllable"), (observe, "observable")):
        short = np.flatnonzero(pair.ranks() < len(pair.lams))
        if short.size:
            warnings.append(f"{label} realization not {word} at eigenvalue "
                            f"{pair.lams[short[0]]:.6g}; it may not be minimal")
    return warnings


def feasibility_report(noise, input, channel):
    """Run every admissibility test for a (noise, input, channel) triple.

    Checks detectability of the noise output pair and the joint output
    pair, stabilizability of the corresponding starred pairs through
    G B_star^{1/2}, and exponential stability of F. Unit-circle
    controllability of both starred pairs is evaluated as a diagnostic.
    Apparent non-minimality of either realization is reported as a
    warning only, since the computed quantities stay well defined. The
    tests of one pair share its eigenvalues and ranks; the witnesses are
    ``pbh_test``'s.

    ``channel`` may also be the JointSystem that ``build_augmented`` built
    from these models; they are then neither validated nor stacked again.
    Raises ValueError if any of the three models fails validation.
    """
    system = (channel if isinstance(channel, JointSystem)
              else build_augmented(noise, input, channel))
    nq, arrays, observe = system.noise_quad, {}, {}
    for label, quad in (("noise", nq), ("augmented", system)):
        observe[label] = _Pair(quad.Ahat.T, quad.Chat.T, np.linalg.eigvals(quad.Ahat))
        star = starred_system(quad)
        reach = _Pair(star.A_star, star.G_mat @ star.B_star_sqrt)
        arrays[label + "_detectable"] = observe[label].test("detectable")
        arrays[label + "_stabilizable"] = reach.test("stabilizable")
        arrays["unit_circle_" + label] = reach.test("unit_circle_controllable")
    verdicts = {label: bool(w.ok.all()) for label, w in arrays.items()}
    unit_circle = all([verdicts.pop("unit_circle_noise"), verdicts.pop("unit_circle_augmented")])
    warnings = _minimality_warnings("noise", _Pair(nq.Ahat, nq.Bhat, observe["noise"].lams),
                                    observe["noise"])
    radius_F = 0.0
    if input.n_xi:  # a memoryless input has no realization to check
        lams_F = np.linalg.eigvals(input.F)
        radius_F = float(np.max(np.abs(lams_F)))
        warnings += _minimality_warnings("input", _Pair(input.F, input.G, lams_F),
                                         _Pair(input.F.T, input.Gamma.T, lams_F))
    return FeasibilityReport(
        **verdicts, input_F_stable=radius_F <= 1.0 - STABILITY_MARGIN,
        unit_circle_controllable=unit_circle, witness_arrays=arrays, warnings=tuple(warnings))
