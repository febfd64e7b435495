"""Dense linear algebra helpers shared across the package.

Everything here assumes small, dense, double-precision matrices stored
row-major. Covariance arguments are expected to be symmetric; routines
that return covariances symmetrize their output to suppress drift.
"""

import numpy as np
import scipy.linalg as sla

# Eigenvalues of a nominally PSD matrix are allowed to dip this far below
# zero before the matrix is declared indefinite.
PSD_SLACK = 1e-10


def as_matrix(x, name="matrix"):
    """Coerce to a dense 2-D float64 array, rejecting ragged input."""
    try:
        arr = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"{name} is not rectangular") from None
    if arr.dtype == object or arr.ndim > 2:
        raise ValueError(f"{name} is not rectangular")
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return np.ascontiguousarray(arr)


def as_vector(x, name="vector"):
    """Coerce to a dense 1-D float64 array."""
    try:
        arr = np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"{name} is not rectangular") from None
    if arr.dtype == object or arr.ndim > 1:
        raise ValueError(f"{name} must be one-dimensional")
    return np.ascontiguousarray(np.atleast_1d(arr))


def symmetrize(M):
    return 0.5 * (M + M.T)


def sup_norm(M):
    """Largest entry magnitude; 0.0 for an empty matrix."""
    return float(np.max(np.abs(M), initial=0.0))


def spectral_radius(M):
    """Largest eigenvalue magnitude; 0.0 for an empty matrix."""
    M = np.asarray(M, dtype=np.float64)
    if M.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def is_symmetric(M, tol=1e-10):
    if M.size == 0:
        return True
    scale = max(1.0, float(np.max(np.abs(M))))
    return float(np.max(np.abs(M - M.T))) <= tol * scale


def is_psd(M, slack=PSD_SLACK):
    """Numerically positive semidefinite: eigenvalues above -slack*scale."""
    if M.size == 0:
        return True
    eigs = np.linalg.eigvalsh(symmetrize(M))
    scale = max(1.0, float(np.max(np.abs(eigs))))
    return float(eigs[0]) >= -slack * scale


def is_pd(M):
    """Numerically positive definite: smallest eigenvalue clears the noise floor."""
    if M.size == 0:
        return True
    eigs = np.linalg.eigvalsh(symmetrize(M))
    scale = float(np.max(np.abs(eigs)))
    if scale == 0.0:
        return False
    return float(eigs[0]) > M.shape[0] * np.finfo(np.float64).eps * scale


def solve_spd(S, B, context="matrix"):
    """Solve S X = B with S symmetric positive definite, via Cholesky."""
    if S.size == 0:
        return np.zeros_like(B)
    try:
        cf = sla.cho_factor(symmetrize(S), lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(f"{context} is not positive definite") from None
    return sla.cho_solve(cf, B, check_finite=False)


def chol_logdet(M, context="covariance"):
    """log det of a symmetric PD matrix via its Cholesky factor."""
    if M.size == 0:
        return 0.0
    try:
        L = np.linalg.cholesky(symmetrize(M))
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(f"{context} is not positive definite") from None
    return 2.0 * float(np.sum(np.log(np.diag(L))))


def block_diag(*blocks):
    return sla.block_diag(*blocks)


def substream(master_seed, index):
    """Independent Generator for one substream of a master seed.

    Counter-based Philox keyed on (master_seed, index): splitting is
    order-independent, so substreams may be consumed in any order or in
    parallel without changing their content.
    """
    key = np.array([int(master_seed) & 0xFFFFFFFFFFFFFFFF,
                    int(index) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
