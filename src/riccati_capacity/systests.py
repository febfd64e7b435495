"""Feasibility tests for the steady-state capacity characterization.

Membership in the admissible set requires, on top of a power-feasible
input: detectability of the noise and joint output pairs, stabilizability
of the corresponding starred pairs, and exponential stability of the
input state matrix F. Every rank condition is the eigenvector-free PBH
test at the eigenvalues concerned, so unstable A works unchanged;
detectability is the same test on the dual pair (A^T, C^T). The joint
state matrix Ahat = blockdiag(F, A) is never decomposed: its spectrum is
eig(F) followed by eig(A), each computed once per report. One batched
Cholesky factorization per pair certifies full rank at all of them at
once, and an SVD counts the rank only where that certificate fails. A
weaker unit-circle controllability verdict is a diagnostic for the
marginal regimes where limits exist but depend on the initial condition.
Membership rests on the noise pair's tests and F alone, under which the
joint tests provably pass; a report ranks the joint pairs only when a joint
verdict of a non-member, the witnesses or the warnings are read.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import (PSD_SLACK, _as_2d, _eig_root, _root, as_covariance, as_finite, solve_spd,
                     sup_norm, symmetrize)
from .lyapunov import STABILITY_MARGIN
from .models import Channel, JointSystem, build_augmented
# to_quadruple and validate stay importable here because bench/tracing.py
# patches them at these names
from .models import to_quadruple, validate  # noqa: F401

__all__ = ["StarredSystem", "FeasibilityReport", "psd_sqrt", "starred_system", "pbh_test",
           "feasibility_report"]

# a report's verdicts, in the order its documents list them
VERDICTS = ("noise_detectable", "noise_stabilizable", "augmented_detectable",
            "augmented_stabilizable", "input_F_stable", "unit_circle_controllable")

# numerical rank threshold factor: sigma > sigma_max * max(dims) * SV_RTOL
SV_RTOL = 1e-12

# an eigenvalue of a k x k covariance above k _ROUNDOFF times its largest is not round-off
_ROUNDOFF = 100.0 * np.finfo(np.float64).eps

# the eigenvalues each test looks at, as a mask over their moduli: every one not
# counted stable (|lambda| < 1 - STABILITY_MARGIN), or those in the unit-circle band
_REGIONS = {"detectable": lambda modulus: modulus >= 1.0 - STABILITY_MARGIN,
            "stabilizable": lambda modulus: modulus >= 1.0 - STABILITY_MARGIN,
            "unit_circle_controllable": lambda modulus: np.abs(modulus - 1.0) <= STABILITY_MARGIN}


@dataclass(frozen=True, eq=False)
class StarredSystem:
    """Starred matrices entering the stabilizability condition.

    A_star = Ahat - Shat Rhat^{-1} Chat removes the part of the dynamics
    predictable from the current output; B_star = Khat - Khat Dhat^T
    Rhat^{-1} Dhat Khat is the residual driving-noise covariance, and
    G_mat = Bhat feeds its square root back into the state. ``warnings``
    names an eigenvalue of Khat above round-off that the rank rule zeroed.
    """

    A_star: np.ndarray
    B_star: np.ndarray
    G_mat: np.ndarray
    B_star_sqrt: np.ndarray
    warnings: tuple = ()


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

    ``VERDICTS`` names the six verdicts. ``member_of_P_infinity`` is
    ``noise_detectable and noise_stabilizable and input_F_stable``, the last
    being rho(F) < 1 - STABILITY_MARGIN: these imply the joint pair's
    detectability and its starred pair's stabilizability and unit-circle
    controllability (see ``feasibility_report``). So ``augmented_detectable``,
    ``augmented_stabilizable`` and ``unit_circle_controllable`` (both starred
    pairs; a diagnostic outside membership) are True for a member and
    otherwise ranked on first read. The joint pairs are ranked only on the
    first read of such a verdict, of ``witness_arrays`` (each test's
    ``Witnesses``; ``witnesses`` turns them into dicts) or of ``warnings``,
    on the joint system rebuilt from the models ``_noise`` and ``_input``
    and the channel's ``_H``: the system the report was given may be
    rewritten later. ``warnings`` collects non-fatal findings: the starred
    systems' rank-rule warnings, then apparent non-minimality of either
    realization, from the models, the noise detectability witnesses and
    eig(F).
    """

    noise_detectable: bool
    noise_stabilizable: bool
    input_F_stable: bool
    _arrays: dict = field(repr=False)  # the noise pair's witnesses
    _rank_rule: tuple = field(repr=False)  # the noise starred system's warnings
    _noise: object = field(repr=False)
    _input: object = field(repr=False)
    _eig_F: np.ndarray = field(repr=False)
    _H: np.ndarray = field(repr=False)

    @property
    def member_of_P_infinity(self):
        return self.noise_detectable and self.noise_stabilizable and self.input_F_stable

    def _joint_verdict(self, label):
        return self.member_of_P_infinity or bool(self.witness_arrays[label].ok.all())

    augmented_detectable = cached_property(
        lambda self: self._joint_verdict("augmented_detectable"))
    augmented_stabilizable = cached_property(
        lambda self: self._joint_verdict("augmented_stabilizable"))
    unit_circle_controllable = cached_property(
        lambda self: bool(self._arrays["unit_circle_noise"].ok.all())
        and self._joint_verdict("unit_circle_augmented"))

    @cached_property
    def _joint(self):
        # the joint system, rebuilt from the models and H, and its starred system
        system = JointSystem(self._noise, self._input, Channel(H=self._H))
        return system, starred_system(system)

    @cached_property
    def witness_arrays(self):
        lams = np.concatenate([self._eig_F, self._arrays["noise_detectable"].eigenvalues])
        return {**self._arrays, **_labelled("augmented", _witnesses(*self._joint, lams))}

    @cached_property
    def witnesses(self):
        return {label: w.dicts() for label, w in self.witness_arrays.items()}

    @cached_property
    def warnings(self):
        # a realization is minimal iff controllable and observable at every eigenvalue, not
        # just the unstable ones; the noise's observability pair starts from the spectrum
        # and ranks of its detectability witnesses
        noise, input, seen = self._noise, self._input, self._arrays["noise_detectable"]
        observe = _Pair(noise.A.T, noise.C.T, seen.eigenvalues)
        observe.rank = seen.rank.copy()
        pairs = [("noise", _Pair(noise.A, noise.B, seen.eigenvalues), observe)]
        if input.n_xi:  # a memoryless input has no realization to check
            pairs.append(("input", _Pair(input.F, input.G, self._eig_F),
                          _Pair(input.F.T, input.Gamma.T, self._eig_F)))
        warnings = list(self._rank_rule)
        if input.n_xi or input.n_z:  # a system with no input is its own noise_quad
            warnings += _rule_warnings("augmented", self._joint[1])
        for label, reach, observe in pairs:
            for pair, word in ((reach, "controllable"), (observe, "observable")):
                short = np.flatnonzero(pair.ranks() < len(pair.lams))
                if short.size:
                    warnings.append(f"{label} realization not {word} at eigenvalue "
                                    f"{pair.lams[short[0]]:.6g}; it may not be minimal")
        return tuple(warnings)


def psd_sqrt(M):
    """Symmetric square root of a covariance that ``linalg.as_covariance`` accepts.

    Eigenvalues up to PSD_SLACK times the largest magnitude are rounding
    noise and set to zero, so a rank-deficient M computed with round-off
    has a root of its rank, whose square reproduces M up to PSD_SLACK.
    """
    M = _as_2d(M, "M", copy=None)  # as_covariance makes the one copy
    return _root(as_covariance(M, M.shape[0], "M"))


def starred_system(quad):
    """Build the starred pair for the stabilizability test.

    A_star = Ahat - Bhat Khat Dhat^T Rhat^{-1} Chat, Rhat = Dhat Khat Dhat^T, and
    G_mat = Bhat, which the system forms afresh on each read. B_star =
    Khat - Khat Dhat^T Rhat^{-1} Dhat Khat is the Gram product F F^T, F = S Q:
    S = psd_sqrt(Khat) and Q, from a complete QR of (Dhat S)^T, is an
    orthonormal basis of the null space of Dhat S (of dimension cols - rows,
    as Rhat = (Dhat S)(Dhat S)^T is positive definite). So B_star is PSD up
    to its own round-off, however small next to Khat, and B_star_sqrt =
    psd_sqrt(B_star). ``warnings`` names the largest eigenvalue of Khat
    that S drops though it is above round-off.
    """
    w, V = np.linalg.eigh(symmetrize(quad.Khat))
    S = _eig_root(w, V)
    scale = sup_norm(w)
    lost = w[(w > _ROUNDOFF * len(w) * scale) & (w <= PSD_SLACK * scale)]
    warnings = (f"Khat eigenvalue {lost[-1]:.6g} ({lost[-1] / scale:.2g} of its largest) is "
                "above round-off but taken as zero by the PSD_SLACK rank rule, on which the "
                "stabilizability verdict then rests",) if lost.size else ()
    DS = quad.Dhat @ S
    F = S @ np.linalg.qr(DS.T, mode="complete")[0][:, DS.shape[0]:]
    B_star = F @ F.T
    A_star = quad.Ahat - quad.Shat @ solve_spd(quad.Rhat, quad.Chat, context="Dhat Khat Dhat^T")
    return StarredSystem(A_star=A_star, B_star=B_star, G_mat=quad.Bhat,
                         B_star_sqrt=_root(B_star), warnings=warnings)


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
    pair of eigenvalues, adjacent in eigvals' output, shares one. A spectrum joined
    from the eigvals of diagonal blocks, part after part, keeps every pair adjacent."""

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

    Eigenvalues with |lambda| >= 1 - STABILITY_MARGIN are tested in the
    first two modes, those with ||lambda| - 1| <= STABILITY_MARGIN in the
    unit-circle mode.
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
    A = as_finite(A, "A")
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"A not square (shape {A.shape})")
    V = as_finite(V, "V")
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


def _witnesses(quad, star, lams):
    # the detectability witnesses of (quad.Ahat, quad.Chat) at lams, its spectrum, then the
    # stabilizability and unit-circle witnesses of its starred system ``star``
    observe = _Pair(quad.Ahat.T, quad.Chat.T, lams)
    reach = _Pair(star.A_star, star.G_mat @ star.B_star_sqrt)
    return (observe.test("detectable"), reach.test("stabilizable"),
            reach.test("unit_circle_controllable"))


def _labelled(label, tests):
    # one system's witnesses as the report keys them
    return dict(zip((label + "_detectable", label + "_stabilizable", "unit_circle_" + label),
                    tests))


def _rule_warnings(label, star):
    return [f"{label} {text}" for text in star.warnings]


def feasibility_report(noise, input, channel):
    """Run the admissibility tests for a (noise, input, channel) triple.

    Membership needs only the noise tests and F: the report computes eig(F),
    eig(A) and the noise's starred system, and tests detectability of the
    noise output pair (the joint system's ``noise_quad``), stabilizability
    and unit-circle controllability of its starred pair through
    G B_star^{1/2}, and exponential stability of F, rho(F) < 1 -
    STABILITY_MARGIN. The joint verdicts, witnesses and warnings follow on
    first read (``FeasibilityReport``). Apparent non-minimality of either
    realization is reported as a warning only, since the computed quantities
    stay well defined, after the starred systems' warnings. The tests of one
    pair share its eigenvalues and ranks. The spectrum of the joint Ahat =
    blockdiag(F, A) is eig(F) followed by eig(A), never decomposed again, so
    the joint detectability witnesses list eig(F) then eig(A), where
    ``pbh_test(Ahat, Chat, "detectable")`` lists the same eigenvalues, up to
    round-off, in eigvals(Ahat) order. The other witnesses are ``pbh_test``'s.

    Why a member's joint tests pass: with Rhat positive definite, the
    Rosenbrock matrix M(lambda) = [[Ahat - lambda I, Bhat Khat^{1/2}], [Chat,
    Dhat Khat^{1/2}]] of either system has rank q + rank [A_star - lambda I,
    G B_star^{1/2}]. Where F - lambda I is invertible, eliminating the input
    block gives rank M_joint(lambda) = n_xi + rank [[A - lambda I, 0,
    B K_W^{1/2}], [C, H T_X(lambda) K_Z^{1/2}, N K_W^{1/2}]], T_X(lambda) =
    D + Gamma (lambda I - F)^{-1} G, which is at least n_xi + rank
    M_noise(lambda); the same elimination gives rank [Ahat - lambda I; Chat]
    = n_xi + rank [A - lambda I; C]. With rho(F) < 1 - STABILITY_MARGIN, that
    holds at every lambda the joint tests look at (|lambda| >= 1 -
    STABILITY_MARGIN, the unit-circle band included), so a noise pair that
    passes its tests makes every joint test pass.

    ``channel`` may also be the JointSystem that ``build_augmented`` built
    from these models; they are then neither validated nor stacked again.
    ``asymptotic_rate`` passes its joint system so, and ``optimize_input``
    the noise-only problem (a ``noise_quad`` with its empty ``input``).
    Raises ValueError if any of the three models fails validation, or if
    ``channel`` is a JointSystem whose ``noise`` or ``input`` is not the
    model given.
    """
    system = (channel if isinstance(channel, JointSystem)
              else build_augmented(noise, input, channel))
    if system.noise is not noise or system.input is not input:
        raise ValueError("channel is a JointSystem built from other models than noise and input")
    nq = system.noise_quad
    eig_F = np.linalg.eigvals(input.F) if input.n_xi else np.empty(0)
    star = starred_system(nq)
    tests = _witnesses(nq, star, np.linalg.eigvals(nq.Ahat))
    return FeasibilityReport(
        noise_detectable=bool(tests[0].ok.all()), noise_stabilizable=bool(tests[1].ok.all()),
        input_F_stable=float(np.abs(eig_F).max(initial=0.0)) < 1.0 - STABILITY_MARGIN,
        _arrays=_labelled("noise", tests), _rank_rule=tuple(_rule_warnings("noise", star)),
        _noise=noise, _input=input, _eig_F=eig_F, _H=system.H)
