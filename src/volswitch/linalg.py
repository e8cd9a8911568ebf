"""Small linear-algebra and rng helpers shared by the filters and the information recursion."""

from __future__ import annotations

import numpy as np

from .exceptions import CovarianceError, SingularityError

# Ridge kicks in above this condition number; scale is 1e-12 * mean diagonal.
COND_LIMIT = 1e12
RIDGE_SCALE = 1e-12
MAX_RIDGE_ESCALATIONS = 6


def symmetrize(m: np.ndarray) -> np.ndarray:
    """(M + M')/2, of one matrix or of each in a stack."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def floor_psd(m: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Symmetrize and clip eigenvalues from below.

    Returns the input (symmetrized) untouched when no eigenvalue is
    below ``floor``, so healthy matrices are not perturbed.
    """
    sym = symmetrize(m)
    vals, vecs = np.linalg.eigh(sym)
    if vals.min() >= floor:
        return sym
    vals = np.maximum(vals, floor)
    return symmetrize((vecs * vals) @ vecs.T)


def _within_cond_limit(m: np.ndarray) -> bool:
    """Whether symmetric m has a 2-norm condition number of at most COND_LIMIT.

    For a symmetric matrix that number is max|λ| / min|λ|, so one
    eigenvalue solve replaces an SVD; the zero matrix counts as infinitely
    ill-conditioned.
    """
    mags = np.abs(np.linalg.eigvalsh(m))
    return bool(0.0 < mags.max() <= COND_LIMIT * mags.min())


def regularized_inverse(m: np.ndarray, err: type = SingularityError) -> np.ndarray:
    """Invert a symmetric matrix, adding a trace-scaled ridge when ill-conditioned.

    The ridge starts at ``RIDGE_SCALE * trace(m)/dim`` once the condition
    number exceeds ``COND_LIMIT`` and escalates tenfold a few times; if the
    matrix stays numerically singular an ``err`` is raised.
    """
    m = symmetrize(m)
    if not np.all(np.isfinite(m)):
        raise err("non-finite matrix")
    dim = m.shape[0]
    # ridge is signed by the trace so negative-definite input moves away
    # from singularity too
    base = np.trace(m) / dim
    if not np.isfinite(base) or base == 0.0:
        base = 1.0
    ridge = RIDGE_SCALE * base
    attempt = m
    for _ in range(MAX_RIDGE_ESCALATIONS + 1):
        if _within_cond_limit(attempt):
            try:
                return np.linalg.inv(attempt)
            except np.linalg.LinAlgError:
                pass
        attempt = attempt + ridge * np.eye(dim)
        ridge *= 10.0
    raise err("matrix remains singular after ridge regularization")


def safe_cholesky(m: np.ndarray, err: type = CovarianceError) -> np.ndarray:
    """Lower Cholesky factor, with escalating jitter on near-singular input."""
    sym = symmetrize(m)
    if not np.all(np.isfinite(sym)):
        raise err("non-finite covariance")
    dim = sym.shape[0]
    base = max(np.trace(sym) / dim, 0.0)
    jitter = 1e-15 * base if base > 0.0 else 1e-18
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        pass
    for _ in range(MAX_RIDGE_ESCALATIONS):
        try:
            return np.linalg.cholesky(sym + jitter * np.eye(dim))
        except np.linalg.LinAlgError:
            jitter *= 100.0
    raise err("covariance not factorizable after regularization")


def substream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic rng stream keyed on (seed, *key).

    Streams are independent of worker count or evaluation order, which is
    what makes same-seed runs bit-reproducible.
    """
    entropy = [int(seed)] + [int(k) for k in key]
    if any(k < 0 for k in entropy):
        raise ValueError("rng stream keys must be non-negative")
    return np.random.default_rng(np.random.SeedSequence(entropy))
