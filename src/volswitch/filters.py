"""Bank of Bayesian filters: EKF, UKF, and a bootstrap particle filter.

All three consume the same ``StateSpaceModel`` interface and return a
``GaussianBelief`` posterior summary, so the switching layer can treat
them interchangeably. The particle filter additionally returns its
resampled cloud. A model measures one price per step: its R is 1x1, as
``StateSpaceModel`` checks when the model is built, and an innovation
covariance that is not 1x1 raises ``InvalidInputError``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError, NumericalFailureError
from .linalg import floor_psd, safe_cholesky, symmetrize

WEIGHT_SUM_TOL = 1e-8


class FilterId(enum.Enum):
    """Canonical identifiers; definition order doubles as the tie-break order."""

    EKF = "EKF"
    UKF = "UKF"
    PF = "PF"

    def __str__(self):
        return self.value


FILTER_ORDER = tuple(FilterId)


@dataclass
class GaussianBelief:
    """First two moments of a filtering posterior."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = self.mean = np.asarray(self.mean, dtype=float)
        cov = self.cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise InvalidInputError("belief mean/cov shapes disagree")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise InvalidInputError("non-finite belief")


def _check_weights(w: np.ndarray) -> None:
    """Raise unless ``w`` is a non-empty 1-d array of non-negative weights summing to one."""
    if w.ndim != 1 or not w.size:
        raise InvalidInputError("weights must be a non-empty 1-d array")
    # min() is NaN or -inf when any weight is, and the sum is inf when any weight is +inf
    if not w.min() >= 0.0:
        raise InvalidInputError("weights must be finite and non-negative")
    if not abs(w.sum() - 1.0) <= WEIGHT_SUM_TOL:
        raise InvalidInputError("weights must be normalized: they must sum to one")


@dataclass
class ParticleCloud:
    particles: np.ndarray  # (n, s)
    weights: np.ndarray  # (n,), normalized

    def __post_init__(self):
        particles = self.particles = np.asarray(self.particles, dtype=float)
        w = self.weights = np.asarray(self.weights, dtype=float)
        if particles.ndim != 2 or w.shape != (particles.shape[0],):
            raise InvalidInputError("cloud particles/weights shapes disagree")
        _check_weights(w)

    @classmethod
    def uniform(cls, particles) -> "ParticleCloud":
        particles = np.asarray(particles, dtype=float)
        n = particles.shape[0]
        # an empty cloud gets no weights, so the constructor rejects it
        return cls(particles, np.full(n, 1.0 / n) if n else np.zeros(0))

    @property
    def n(self) -> int:
        return self.particles.shape[0]


@dataclass(frozen=True)
class SigmaPointParams:
    alpha: float = 1e-3
    beta: float = 2.0
    kappa: float = 0.0


def systematic_resample(weights, rng: np.random.Generator) -> np.ndarray:
    """Systematic (low-variance) resampling: weights -> as many indices as weights.

    Draws one uniform offset, so each index count differs from ``n * w_i``
    by less than one.
    """
    w = np.asarray(weights, dtype=float)
    _check_weights(w)
    n = w.size
    cum = np.cumsum(w)
    cum[-1] = 1.0
    positions = (np.arange(n) + rng.random()) / n
    idx = np.searchsorted(cum, positions, side="right")
    return np.minimum(idx, n - 1)


def effective_sample_size(weights) -> float:
    w = np.asarray(weights, dtype=float)
    return float(1.0 / np.sum(w**2))


# ---------------------------------------------------------------------------
# particle primitives of the bootstrap filter


def propagate_cloud(cloud: ParticleCloud, ex, model, rng: np.random.Generator) -> ParticleCloud:
    """Push every particle through the noisy transition, keeping weights."""
    noise = rng.standard_normal(cloud.particles.shape) @ model.q_chol.T
    moved = model.transition_batch(cloud.particles, ex, noise)
    return ParticleCloud(moved, cloud.weights.copy())


def likelihood_logweights(particles: np.ndarray, obs, ex, model) -> np.ndarray:
    """Per-particle log N(obs; g(x), R) for one measured price."""
    var = model.r[0, 0]
    dev = np.atleast_1d(np.asarray(obs, dtype=float))[None, :] - model.measurement_batch(particles, ex)
    # overflow to -inf is fine here: normalize_logweights raises only if every weight does
    with np.errstate(over="ignore"):
        return -0.5 * dev[:, 0] ** 2 / var - 0.5 * math.log(2.0 * math.pi * var)


def normalize_logweights(logw: np.ndarray) -> np.ndarray:
    """Normalised weights from log-weights.

    Raises ``NumericalFailureError`` when no log-weight is finite, i.e.
    every weight underflowed.
    """
    top = logw.max()
    if not np.isfinite(top):
        raise NumericalFailureError("degenerate particle weights")
    w = np.exp(logw - top)
    # the top entry contributes exp(0) = 1, so the sum is finite and >= 1
    return w / w.sum()


# ---------------------------------------------------------------------------
# filter updates


def _kalman_gain(s_mat: np.ndarray, cross: np.ndarray) -> np.ndarray:
    """Gain cross @ S^-1 for the 1x1 innovation covariance S and the state-measurement cross covariance."""
    if s_mat.shape != (1, 1):
        raise InvalidInputError(f"a model measures one price: S must be 1x1, got {s_mat.shape}")
    if not np.isfinite(s_mat).all():
        raise NumericalFailureError("non-finite innovation covariance")
    if s_mat[0, 0] <= 0.0:
        raise NumericalFailureError("non-positive innovation covariance")
    return cross / s_mat[0, 0]


def ekf_update(prior: GaussianBelief, obs, ex, model) -> GaussianBelief:
    """First-order filter: the model's constant transition matrix, the measurement linearized at the prediction."""
    obs = np.atleast_1d(np.asarray(obs, dtype=float))
    x_pred = model.transition(prior.mean, ex)
    p_pred = symmetrize(model.f @ prior.cov @ model.f.T + model.q)

    h = model.measurement_jacobian(x_pred, ex)
    y_pred = model.measurement(x_pred, ex)
    innov = obs - y_pred
    gain = _kalman_gain(h @ p_pred @ h.T + model.r, p_pred @ h.T)

    x_post = model.project(x_pred + gain @ innov)
    i_kh = np.eye(x_post.size) - gain @ h
    p_post = floor_psd(i_kh @ p_pred @ i_kh.T + gain @ model.r @ gain.T)  # Joseph form
    if not (np.isfinite(x_post).all() and np.isfinite(p_post).all()):
        raise NumericalFailureError("non-finite posterior")
    return GaussianBelief(x_post, p_post)


def _sigma_points(mean: np.ndarray, cov: np.ndarray, sp: SigmaPointParams):
    """Scaled sigma points of N(mean, cov); ``cov`` must already be floored, as ``floor_psd`` returns it."""
    s = mean.size
    lam = sp.alpha**2 * (s + sp.kappa) - s
    c = s + lam
    if c <= 0.0:
        raise InvalidInputError("sigma point scaling must be positive")
    spread = math.sqrt(c) * safe_cholesky(cov, NumericalFailureError)
    pts = np.empty((2 * s + 1, s))
    pts[0] = mean
    pts[1 : s + 1] = mean + spread.T
    pts[s + 1 :] = mean - spread.T
    wm = np.full(2 * s + 1, 1.0 / (2.0 * c))
    wm[0] = lam / c
    wc = wm.copy()
    wc[0] += 1.0 - sp.alpha**2 + sp.beta
    return pts, wm, wc


def _reconstruct(points: np.ndarray, wm: np.ndarray, wc: np.ndarray):
    # Deviation form around the center point: immune to the catastrophic
    # cancellation the huge negative center weight causes at small alpha.
    base = points[0]
    mean = base + wm @ (points - base)
    dev = points - mean
    cov = (dev * wc[:, None]).T @ dev
    return mean, dev, symmetrize(cov)


def ukf_update(prior: GaussianBelief, obs, ex, model, sp: SigmaPointParams = SigmaPointParams()) -> GaussianBelief:
    """Scaled unscented transform through the transition and the measurement."""
    obs = np.atleast_1d(np.asarray(obs, dtype=float))
    pts, wm, wc = _sigma_points(prior.mean, floor_psd(prior.cov), sp)
    moved = model.transition_batch(pts, ex)
    x_pred, _, p_prop = _reconstruct(moved, wm, wc)
    p_pred = floor_psd(p_prop + model.q)

    pts2, wm2, wc2 = _sigma_points(x_pred, p_pred, sp)
    z_pred, z_dev, p_zz = _reconstruct(model.measurement_batch(pts2, ex), wm2, wc2)
    s_mat = p_zz + model.r
    p_xz = ((pts2 - x_pred) * wc2[:, None]).T @ z_dev
    gain = _kalman_gain(s_mat, p_xz)

    x_post = model.project(x_pred + gain @ (obs - z_pred))
    p_post = floor_psd(p_pred - gain @ s_mat @ gain.T)
    if not (np.isfinite(x_post).all() and np.isfinite(p_post).all()):
        raise NumericalFailureError("non-finite posterior")
    return GaussianBelief(x_post, p_post)


def pf_update(
    prior: ParticleCloud,
    obs,
    ex,
    model,
    rng: np.random.Generator,
    ess_threshold: float | None = None,
):
    """Bootstrap update: propagate, weight by the likelihood, summarize, resample.

    The Gaussian summary is taken before resampling. When every weight
    underflows it raises ``NumericalFailureError``, as the EKF and UKF do on
    a failed update; the caller owns the fallback.

    Returns ``(cloud, summary)``. Resampling runs every step unless an
    ``ess_threshold`` fraction is given, in which case it only triggers when
    ESS < threshold * n, so 0 never resamples: the run loop passes 0 when
    it discards the cloud (shared chains).
    """
    if prior.n < 2:
        raise InvalidInputError("particle filter needs at least 2 particles")
    moved = propagate_cloud(prior, ex, model, rng)
    loglik = likelihood_logweights(moved.particles, obs, ex, model)
    with np.errstate(divide="ignore"):
        logw = np.log(moved.weights) + loglik
    w = normalize_logweights(logw)

    mean = w @ moved.particles
    dev = moved.particles - mean
    summary = GaussianBelief(mean, floor_psd((dev * w[:, None]).T @ dev))

    if ess_threshold is not None and effective_sample_size(w) >= ess_threshold * prior.n:
        return ParticleCloud(moved.particles, w), summary
    idx = systematic_resample(w, rng)
    cloud = ParticleCloud.uniform(moved.particles[idx])
    return cloud, summary
