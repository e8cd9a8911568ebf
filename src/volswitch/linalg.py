"""Small linear-algebra and rng helpers shared by the models, the filters and the information recursion.

Every matrix helper but ``weighted_gram`` takes one symmetric (d, d)
matrix. A 2x2 matrix's checks (at its floor? within COND_LIMIT?) come
from closed-form eigenvalues, with no LAPACK call, when they clear the
threshold by far more than rounding; otherwise, and for every value
returned, LAPACK decides.
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
    """(M + M')/2."""
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def weighted_gram(jac: np.ndarray, precision: np.ndarray, weight: float = 1.0) -> np.ndarray:
    """w sum_i J_i' P J_i over (n, k, s) Jacobians.

    w J_i' P is formed elementwise, and the sum over particles is one
    (s, n k) @ (n k, s) product.
    """
    n, k, s = jac.shape
    wjp = np.einsum("nks,kl->nsl", jac, precision) * weight
    return wjp.transpose(1, 0, 2).reshape(s, n * k) @ jac.reshape(n * k, s)


def _eigvals2(m: np.ndarray) -> tuple | None:
    """(low, high, largest |entry|) of a 2x2 matrix, from the lower triangle as eigvalsh reads it.

    None when ``m`` is not 2x2 or is non-finite, zero or within 150
    decades of under- or overflow: LAPACK decides those.
    """
    if m.shape != (2, 2):
        return None
    a, _, b, c = m.ravel().tolist()
    scale = max(abs(a), abs(b), abs(c))
    if not 1e-150 < scale < 1e150:  # False for NaN
        return None
    mid, radius = 0.5 * (a + c), math.hypot(0.5 * (a - c), b)
    return mid - radius, mid + radius, scale


def above_floor(m: np.ndarray, floor: float) -> bool:
    """Whether the closed form shows the smallest eigenvalue above ``floor``; False defers to LAPACK."""
    eigs = _eigvals2(m)
    return eigs is not None and eigs[0] - EIG2_MARGIN * eigs[2] >= floor


def floor_psd(m: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Symmetrize and clip eigenvalues from below.

    A matrix with no eigenvalue below ``floor`` comes back symmetrized
    but otherwise untouched, so healthy matrices are not perturbed; a
    non-finite one comes back all NaN.
    """
    sym = symmetrize(m)
    if above_floor(sym, floor):
        return sym
    if not np.isfinite(sym).all():
        return np.full(sym.shape, np.nan)
    vals, vecs = np.linalg.eigh(sym)
    # eigh sorts ascending, so vals[0] is the smallest eigenvalue
    if vals[0] >= floor:
        return sym
    return symmetrize((vecs * np.maximum(vals, floor)) @ vecs.T)


def _within_cond_limit(m: np.ndarray) -> bool:
    """Whether a finite symmetric matrix has a 2-norm condition number of at most COND_LIMIT.

    For a symmetric matrix that number is max|λ| / min|λ|, so one
    eigenvalue solve replaces an SVD; the zero matrix counts as infinitely
    ill-conditioned.
    """
    eigs = _eigvals2(m)
    if eigs is not None:
        # COND_LIMIT over the condition number; the larger |eigenvalue| is at least the largest entry
        low, high = sorted((abs(eigs[0]), abs(eigs[1])))
        ratio = COND_LIMIT * low / high
        if abs(ratio - 1.0) > COND_BAND:
            return ratio > 1.0
    mags = np.abs(np.linalg.eigvalsh(m))
    top = mags.max()
    return bool(0.0 < top <= COND_LIMIT * mags.min())


def regularized_inverse(m: np.ndarray, err: type = SingularityError) -> np.ndarray:
    """Invert a symmetric matrix, adding a trace-scaled ridge when it is ill-conditioned.

    The ridge starts at ``RIDGE_SCALE * trace(m)/dim`` once the condition
    number exceeds ``COND_LIMIT`` and escalates tenfold a few times.
    Raises ``err`` if ``m`` is non-finite or stays numerically singular.
    """
    m = symmetrize(m)
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


def safe_cholesky(m: np.ndarray, err: type = CovarianceError) -> np.ndarray:
    """Lower Cholesky factor of symmetric m, with escalating jitter on near-singular input.

    ``m`` must be symmetric, as ``floor_psd`` and ``symmetrize`` return
    it; only its lower triangle is factored. Raises ``err`` if ``m`` is
    non-finite or stays unfactorable.
    """
    m = np.asarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise err("non-finite covariance")
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        pass
    dim = m.shape[0]
    base = max(np.trace(m) / dim, 0.0)
    jitter = 1e-15 * base if base > 0.0 else 1e-18
    for _ in range(MAX_RIDGE_ESCALATIONS):
        try:
            return np.linalg.cholesky(m + jitter * np.eye(dim))
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
