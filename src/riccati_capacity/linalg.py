"""Dense linear algebra helpers shared across the package.

Everything here assumes small, dense, double-precision matrices stored
row-major. Covariance arguments are expected to be symmetric; routines
that return covariances symmetrize their output to suppress drift.

The helpers need only numpy: a Cholesky factor and its inverse serve
every positive definite solve, and ``block_diag`` fills its slots
directly, so importing the package loads no scipy.
"""

import numpy as np

# Eigenvalues of a nominally PSD matrix are allowed to dip this far below
# zero before the matrix is declared indefinite.
PSD_SLACK = 1e-10

# a matrix is symmetric when |M - M^T| <= SYMMETRY_TOL max(1, |M|) entrywise
SYMMETRY_TOL = 1e-10


def as_matrix(x, name="matrix"):
    """A fresh C-ordered float64 copy of x as a 2-D array; a scalar is 1 x 1, a 1-D array a row.

    More than two dimensions, or rows of unequal length, are "not rectangular";
    complex entries, which a float64 conversion would cut to their real
    part, are refused.
    """
    return _as_2d(x, name, copy=True)


def _as_2d(x, name, copy):
    # as_matrix; copy=None converts x only where it is not a float64 array already, for a
    # caller that reads the shape and leaves the one copy to the coercion that follows; a
    # float or an int, the common scalars, hold no complex entry
    if not isinstance(x, (float, int)):
        x, copy = _real(x, name, copy)
    try:
        arr = np.array(x, dtype=np.float64, order="C" if copy else "K", ndmin=2, copy=copy)
    except (TypeError, ValueError):
        raise ValueError(f"{name} is not rectangular") from None
    if arr.ndim > 2:
        raise ValueError(f"{name} is not rectangular")
    return arr


def _real(x, name, copy):
    # (x as an array, the copy flag left for its float64 conversion), refused if it holds a
    # complex number, which a float64 conversion would cut to its real part. An array stays
    # as it is; a list or a tuple is converted once, into a new C-ordered array that is
    # already the fresh copy, so the conversion copies it only to cast it (copy=None). x
    # itself if it does not convert, for the float64 conversion that follows to name
    try:
        arr = np.asarray(x)
    except (TypeError, ValueError):
        return x, copy
    if arr.dtype.kind == "c":
        raise ValueError(f"{name} has complex entries")
    return arr, None if isinstance(x, (list, tuple)) else copy


def as_vector(x, name="vector"):
    """A fresh float64 copy of x as a 1-D array; a scalar has length 1.

    Complex entries are refused, as by ``as_matrix``.
    """
    copy = True
    if not isinstance(x, (float, int)):
        x, copy = _real(x, name, copy)
    try:
        arr = np.array(x, dtype=np.float64, ndmin=1, copy=copy)
    except (TypeError, ValueError):
        raise ValueError(f"{name} is not rectangular") from None
    if arr.ndim > 1:
        raise ValueError(f"{name} must be one-dimensional")
    return arr


def as_finite(x, name):
    """``as_matrix``, rejecting non-finite entries by name."""
    arr = as_matrix(x, name)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_covariance(x, n, name):
    """A caller's n x n covariance, symmetrized; shape, finiteness, symmetry, then PSD checked.

    PSD is the package's one rule, ``is_psd`` (eigenvalues down to -PSD_SLACK
    times the scale), which ``validate`` applies to semidefinite covariances;
    ``systests.psd_sqrt`` accepts exactly what this accepts.
    """
    arr = as_matrix(x, name)
    if arr.shape != (n, n):
        raise ValueError(f"{name} has shape {arr.shape}, expected ({n}, {n})")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    if not is_symmetric(arr):
        raise ValueError(f"{name} is not symmetric")
    if not is_psd(arr):
        raise ValueError(f"{name} is not positive semidefinite")
    return symmetrize(arr)


def as_count(x, name, minimum=1):
    """A count (a horizon, a number of paths) as an int; it must be integral and >= minimum."""
    try:
        n = int(x)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != x:
        raise ValueError(f"{name} must be an integer, got {x!r}")
    if n < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {n}")
    return n


def symmetrize(M):
    """(M + M^T) / 2, of each matrix in a stack."""
    return 0.5 * (M + M.swapaxes(-1, -2))


def sup_norm(M):
    """Largest entry magnitude; 0.0 for an empty matrix."""
    return float(np.abs(M).max()) if M.size else 0.0


def spectral_radius(M):
    """Largest eigenvalue magnitude; 0.0 for an empty matrix."""
    M = np.asarray(M, dtype=np.float64)
    if M.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def is_symmetric(M):
    if M.size == 0:
        return True
    scale = max(1.0, float(np.max(np.abs(M))))
    return float(np.max(np.abs(M - M.T))) <= SYMMETRY_TOL * scale


def is_psd(M):
    """Numerically positive semidefinite: eigenvalues above -PSD_SLACK * scale."""
    if M.size == 0:
        return True
    eigs = np.linalg.eigvalsh(symmetrize(M))
    scale = max(1.0, float(np.max(np.abs(eigs))))
    return float(eigs[0]) >= -PSD_SLACK * scale


def is_pd(M):
    """Numerically positive definite: smallest eigenvalue clears the noise floor."""
    if M.size == 0:
        return True
    eigs = np.linalg.eigvalsh(symmetrize(M))
    scale = float(np.max(np.abs(eigs)))
    if scale == 0.0:
        return False
    return float(eigs[0]) > M.shape[0] * np.finfo(np.float64).eps * scale


def solve_spd(S, B, context="matrix", logdet=False):
    """Solve S X = B, S symmetric positive definite, via Cholesky; ``logdet`` adds log det S.

    numpy has no triangular solve, so with S = L L^T the solution is
    X = L^-T (L^-1 B) through the inverse of the factor L; a B without
    columns, as for log dets alone, needs no inverse. Stacks of
    (..., k, k) matrices solve and give their log dets together, and raise
    if any matrix of the stack is not positive definite.
    """
    try:
        L = np.linalg.cholesky(symmetrize(S))
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(f"{context} is not positive definite") from None
    if B.shape[-1]:
        L_inv = np.linalg.inv(L)
        X = L_inv.swapaxes(-1, -2) @ (L_inv @ B)
    else:
        X = np.zeros(np.broadcast_shapes(S.shape[:-1], B.shape[:-1]) + (0,))
    if not logdet:
        return X
    logdets = 2.0 * np.log(np.diagonal(L, axis1=-2, axis2=-1)).sum(axis=-1)
    return X, (logdets if S.ndim > 2 else float(logdets))


def chol_logdet(M, context="covariance"):
    """log det of a symmetric PD matrix via ``solve_spd``'s Cholesky factor; 0.0 if empty."""
    return solve_spd(M, M[:, :0], context, logdet=True)[1]


def block_diag(*blocks):
    """Blocks of at most two dimensions on the diagonal of a zero matrix.

    The rules are scipy.linalg.block_diag's: a scalar is a 1 x 1 block and a
    1-D array of length n a 1 x n block; empty blocks keep their rows or
    columns. No argument gives a (1, 0) array. The dtype is the result
    type of the blocks.
    """
    blocks = [np.atleast_2d(b) for b in (blocks or ([],))]
    rows, cols = (sum(b.shape[i] for b in blocks) for i in (0, 1))
    out = np.zeros((rows, cols), dtype=np.result_type(*blocks))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def _key(master_seed, index):
    # the Philox key of substream (master_seed, index)
    return (int(master_seed) & 0xFFFFFFFFFFFFFFFF, int(index) & 0xFFFFFFFFFFFFFFFF)


def substream(master_seed, index):
    """Independent Generator for one substream of a master seed.

    Counter-based Philox keyed on (master_seed, index): splitting is
    order-independent, so substreams may be consumed in any order or in
    parallel without changing their content. A batch sampler builds one
    generator and re-keys it for each path (``_substreams``), which reads
    the same stream as a fresh ``substream`` call without its construction.
    """
    key = np.array(_key(master_seed, index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _substreams(master_seed, indices):
    """One ``substream`` generator, moved to the start of substream (master_seed, i) for each i.

    Yields the generator once per index, in order. Each move replaces the
    key and clears the counter, output buffer and cached 32-bit half,
    which is the state a fresh Philox with that key has; the indices are
    nonnegative ints, and one state record serves every move.
    """
    generator = substream(master_seed, 0)
    seed = _key(master_seed, 0)[0]
    keyed = {"counter": (0, 0, 0, 0), "key": None}
    record = {"bit_generator": "Philox", "state": keyed, "buffer": (0, 0, 0, 0),
              "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for index in indices:
        keyed["key"] = (seed, index)
        generator.bit_generator.state = record
        yield generator
