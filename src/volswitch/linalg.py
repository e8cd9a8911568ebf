"""Small linear-algebra and rng helpers shared by the filters and the information recursion.

The matrix helpers take one matrix or a stack (B, d, d). On a stack the
common case is one LAPACK call for the whole stack; the ridge, the jitter
and the eigenvalue floor then run only on the matrices that need them,
with the same per-matrix constants, so each matrix of a stack comes out
bit for bit as it would alone. A stack never fails as a whole:
``regularized_inverse`` and ``safe_cholesky`` return, per matrix, the
error that stopped it. Non-finite members are masked before any stacked
LAPACK call, since a solver that fails to converge raises for the stack.

A 2x2 matrix's checks (at its floor? within COND_LIMIT?) come from
closed-form eigenvalues, with no LAPACK call, when they clear the
threshold by far more than rounding; otherwise, and for every value
returned, LAPACK runs as before.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import CovarianceError, SingularityError

# Ridge kicks in above this condition number; scale is 1e-12 * mean diagonal.
COND_LIMIT = 1e12
RIDGE_SCALE = 1e-12
MAX_RIDGE_ESCALATIONS = 6

# a closed-form check decides only beyond these, which dwarf the rounding of
# it and of LAPACK: a share of the largest entry, a band around COND_LIMIT
EIG2_MARGIN = 1e-12
COND_BAND = 0.02


def symmetrize(m: np.ndarray) -> np.ndarray:
    """(M + M')/2, of one matrix or of each in a stack."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _finite_members(stack: np.ndarray) -> np.ndarray | None:
    """None when every member of a (B, d, d) stack is finite, else the per-member mask."""
    if np.isfinite(stack).all():
        return None
    return np.isfinite(stack).all(axis=(1, 2))


def _eigvals2(m: np.ndarray) -> list | None:
    """(low, high, largest |entry|) per 2x2 matrix of ``m``, from the lower triangle as eigvalsh reads it.

    None when ``m`` is not 2x2 or a member is non-finite, zero or within
    150 decades of under- or overflow: LAPACK decides those.
    """
    if m.shape[-2:] != (2, 2):
        return None
    out = []
    for a, _, b, c in m.reshape(-1, 4).tolist():
        scale = max(abs(a), abs(b), abs(c))
        if not 1e-150 < scale < 1e150:  # False for NaN
            return None
        mid, radius = 0.5 * (a + c), math.hypot(0.5 * (a - c), b)
        out.append((mid - radius, mid + radius, scale))
    return out


def above_floor(m: np.ndarray, floor: float | np.ndarray) -> bool:
    """Whether the closed form shows each matrix's smallest eigenvalue above its floor; False defers to LAPACK."""
    eigs = _eigvals2(m)
    floors = np.asarray(floor, dtype=float).ravel().tolist()
    if eigs and len(floors) == 1:
        floors *= len(eigs)  # one floor serves every matrix
    return eigs is not None and len(floors) == len(eigs) and all(
        low - EIG2_MARGIN * scale >= f for (low, _, scale), f in zip(eigs, floors)
    )


def floor_psd(m: np.ndarray, floor: float | np.ndarray = 0.0) -> np.ndarray:
    """Symmetrize and clip eigenvalues from below, per matrix.

    ``m`` is one matrix or a stack, ``floor`` one number or one per
    matrix. A matrix with no eigenvalue below its floor comes back
    symmetrized but otherwise untouched, so healthy matrices are not
    perturbed; a non-finite one comes back all NaN.
    """
    sym = symmetrize(m)
    if above_floor(sym, floor):
        return sym
    stack = sym if sym.ndim == 3 else sym[None]
    finite = _finite_members(stack)
    if finite is not None:
        # non-finite members are solved as the identity, then set to NaN
        stack = np.where(finite[:, None, None], stack, np.eye(stack.shape[-1]))
    vals, vecs = np.linalg.eigh(stack)
    # eigh sorts ascending, so column 0 is each matrix's smallest eigenvalue
    healthy = vals[:, 0] >= floor
    if finite is None and healthy.all():
        return sym
    low = ~healthy if finite is None else ~healthy & finite
    floors = np.broadcast_to(floor, healthy.shape)[low, None]
    out = stack.copy()
    if finite is not None:
        out[~finite] = np.nan
    vecs, vals = vecs[low], np.maximum(vals[low], floors)
    out[low] = symmetrize((vecs * vals[:, None, :]) @ np.swapaxes(vecs, 1, 2))
    return out.reshape(sym.shape)


def _within_cond_limit(m: np.ndarray) -> np.ndarray:
    """Whether each finite symmetric matrix has a 2-norm condition number of at most COND_LIMIT.

    For a symmetric matrix that number is max|λ| / min|λ|, so one
    eigenvalue solve (one for a whole stack) replaces an SVD; the zero
    matrix counts as infinitely ill-conditioned.
    """
    eigs = _eigvals2(m)
    if eigs is not None:
        # COND_LIMIT over each condition number; the larger |eigenvalue| is at least the largest entry
        ratios = [COND_LIMIT * min(abs(lo), abs(hi)) / max(abs(lo), abs(hi)) for lo, hi, _ in eigs]
        if all(abs(r - 1.0) > COND_BAND for r in ratios):
            within = np.array([r > 1.0 for r in ratios], dtype=bool)
            return within if m.ndim == 3 else within[0]
    mags = np.abs(np.linalg.eigvalsh(m))
    top = mags.max(axis=-1)
    return (top > 0.0) & (top <= COND_LIMIT * mags.min(axis=-1))


def _each(solve, m: np.ndarray, err: type):
    """``solve`` on each matrix of a (B, d, d) stack alone: the results (NaN where it raised) and the errors."""
    out, errors = np.full(m.shape, np.nan), [None] * m.shape[0]
    for k, member in enumerate(m):
        try:
            out[k] = solve(member, err)
        except err as e:
            errors[k] = e
    return out, errors


def _inverse_one(m: np.ndarray, err: type) -> np.ndarray:
    if not np.isfinite(m).all():
        raise err("non-finite matrix")
    dim = m.shape[0]
    # the ridge is signed by the trace so negative-definite input moves
    # away from singularity too
    base = np.trace(m) / dim
    ridge = RIDGE_SCALE * (base if np.isfinite(base) and base != 0.0 else 1.0)
    attempt = m
    for _ in range(MAX_RIDGE_ESCALATIONS + 1):
        # LAPACK can still find a matrix singular that passes the condition check
        if _within_cond_limit(attempt):
            try:
                return np.linalg.inv(attempt)
            except np.linalg.LinAlgError:
                pass
        attempt = attempt + ridge * np.eye(dim)
        ridge = ridge * 10.0
    raise err("matrix remains singular after ridge regularization")


def regularized_inverse(m: np.ndarray, err: type = SingularityError):
    """Invert symmetric matrices, adding a trace-scaled ridge to the ill-conditioned ones.

    The ridge starts at ``RIDGE_SCALE * trace(m)/dim`` once a matrix's
    condition number exceeds ``COND_LIMIT`` and escalates tenfold a few
    times. One matrix: returns its inverse, or raises ``err`` if it is
    non-finite or stays numerically singular. A stack (B, d, d): returns
    the inverses and a list of B entries, each None or the ``err`` that
    stopped that matrix (its slot of the inverses is then NaN).
    """
    m = symmetrize(m)
    if m.ndim == 2:
        return _inverse_one(m, err)
    if np.isfinite(m).all() and _within_cond_limit(m).all():
        try:
            return np.linalg.inv(m), [None] * m.shape[0]
        except np.linalg.LinAlgError:
            pass
    return _each(_inverse_one, m, err)


def _cholesky_one(sym: np.ndarray, err: type) -> np.ndarray:
    if not np.all(np.isfinite(sym)):
        raise err("non-finite covariance")
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        pass
    dim = sym.shape[0]
    base = max(np.trace(sym) / dim, 0.0)
    jitter = 1e-15 * base if base > 0.0 else 1e-18
    for _ in range(MAX_RIDGE_ESCALATIONS):
        try:
            return np.linalg.cholesky(sym + jitter * np.eye(dim))
        except np.linalg.LinAlgError:
            jitter *= 100.0
    raise err("covariance not factorizable after regularization")


def safe_cholesky(m: np.ndarray, err: type = CovarianceError):
    """Lower Cholesky factor of symmetric m, with escalating jitter on near-singular input.

    ``m`` must be symmetric, as ``floor_psd`` and ``symmetrize`` return
    it; only its lower triangle is factored. One matrix: returns its
    factor or raises ``err``. A stack (B, d, d): returns the factors and
    a list of B entries, each None or the ``err`` that stopped that
    matrix (its slot of the factors is then NaN).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim == 2:
        return _cholesky_one(m, err)
    if np.isfinite(m).all():
        try:
            return np.linalg.cholesky(m), [None] * m.shape[0]
        except np.linalg.LinAlgError:
            pass
    return _each(_cholesky_one, m, err)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic rng stream keyed on (seed, *key).

    Streams are independent of worker count or evaluation order, which is
    what makes same-seed runs bit-reproducible.
    """
    entropy = [int(seed)] + [int(k) for k in key]
    if any(k < 0 for k in entropy):
        raise ValueError("rng stream keys must be non-negative")
    return np.random.default_rng(np.random.SeedSequence(entropy))
