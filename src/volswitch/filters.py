"""Bank of Bayesian filters: EKF, UKF, and a bootstrap particle filter.

All three consume the same ``StateSpaceModel`` interface and return a
``GaussianBelief`` posterior summary, so the switching layer can treat
them interchangeably. The particle filter additionally returns its
resampled cloud.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    CovarianceError,
    InvalidInputError,
    NumericalFailureError,
)
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
        self.mean = np.asarray(self.mean, dtype=float)
        self.cov = np.asarray(self.cov, dtype=float)
        s = self.mean.shape[0]
        if self.mean.ndim != 1 or self.cov.shape != (s, s):
            raise InvalidInputError("belief mean/cov shapes disagree")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.cov))):
            raise InvalidInputError("non-finite belief")


@dataclass
class ParticleCloud:
    particles: np.ndarray  # (n, s)
    weights: np.ndarray  # (n,), normalized

    def __post_init__(self):
        self.particles = np.asarray(self.particles, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.particles.ndim != 2 or self.weights.shape != (self.particles.shape[0],):
            raise InvalidInputError("cloud particles/weights shapes disagree")
        if np.any(self.weights < 0.0) or not np.all(np.isfinite(self.weights)):
            raise InvalidInputError("weights must be finite and non-negative")
        if abs(self.weights.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidInputError("weights must sum to one")

    @classmethod
    def uniform(cls, particles) -> "ParticleCloud":
        particles = np.asarray(particles, dtype=float)
        n = particles.shape[0]
        return cls(particles, np.full(n, 1.0 / n))

    @property
    def n(self) -> int:
        return self.particles.shape[0]


@dataclass(frozen=True)
class SigmaPointParams:
    alpha: float = 1e-3
    beta: float = 2.0
    kappa: float = 0.0


def systematic_resample(weights, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Systematic (low-variance) resampling: weights -> index vector.

    Draws one uniform offset, so each index count differs from
    ``size * w_i`` by less than one.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise InvalidInputError("weights must be a non-empty 1-d array")
    if np.any(w < 0.0) or not np.all(np.isfinite(w)):
        raise InvalidInputError("weights must be finite and non-negative")
    if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise InvalidInputError("weights must be normalized")
    n_out = w.size if size is None else int(size)
    if n_out <= 0:
        raise InvalidInputError("size must be positive")
    cum = np.cumsum(w)
    cum[-1] = 1.0
    positions = (np.arange(n_out) + rng.random()) / n_out
    idx = np.searchsorted(cum, positions, side="right")
    return np.minimum(idx, w.size - 1)


def effective_sample_size(weights) -> float:
    w = np.asarray(weights, dtype=float)
    return float(1.0 / np.sum(w**2))


# ---------------------------------------------------------------------------
# shared particle primitives (also used by the information recursion)


def propagate_cloud(cloud: ParticleCloud, ex, model, rng: np.random.Generator) -> ParticleCloud:
    """Push every particle through the noisy transition, keeping weights."""
    noise = rng.standard_normal(cloud.particles.shape) @ model.process_noise_factor().T
    moved = model.project_batch(model.transition_batch(cloud.particles, ex, noise))
    return ParticleCloud(moved, cloud.weights.copy())


def likelihood_logweights(particles: np.ndarray, obs, ex, model) -> np.ndarray:
    """Per-particle log N(obs; g(x), R)."""
    obs = np.atleast_1d(np.asarray(obs, dtype=float))
    preds = model.measurement_batch(particles, ex)
    dev = obs[None, :] - preds
    r = model.measurement_cov()
    # overflow to -inf is fine here: normalize_logweights raises only if every weight does
    with np.errstate(over="ignore"):
        if r.shape == (1, 1):
            var = r[0, 0]
            return -0.5 * dev[:, 0] ** 2 / var - 0.5 * math.log(2.0 * math.pi * var)
        r_inv = np.linalg.inv(r)
        sign, logdet = np.linalg.slogdet(r)
        quad = np.einsum("ni,ij,nj->n", dev, r_inv, dev)
        return -0.5 * (quad + logdet + r.shape[0] * math.log(2.0 * math.pi))


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
    """Gain cross @ S^-1 for innovation covariance S and state-measurement cross covariance."""
    if not np.all(np.isfinite(s_mat)):
        raise NumericalFailureError("non-finite innovation covariance")
    if s_mat.shape == (1, 1):
        if s_mat[0, 0] <= 0.0:
            raise NumericalFailureError("non-positive innovation covariance")
        return cross / s_mat[0, 0]
    try:
        return np.linalg.solve(s_mat, cross.T).T
    except np.linalg.LinAlgError as e:
        raise NumericalFailureError("innovation covariance not invertible") from e


def ekf_update(prior: GaussianBelief, obs, ex, model) -> GaussianBelief:
    """First-order filter: linearize transition at the prior mean, measurement at the prediction."""
    obs = np.atleast_1d(np.asarray(obs, dtype=float))
    f_jac = model.transition_jacobian(prior.mean, ex)
    x_pred = model.transition(prior.mean, ex)
    p_pred = symmetrize(f_jac @ prior.cov @ f_jac.T + model.process_cov())

    h = model.measurement_jacobian(x_pred, ex)
    y_pred = model.measurement(x_pred, ex)
    innov = obs - y_pred
    r = model.measurement_cov()
    gain = _kalman_gain(h @ p_pred @ h.T + r, p_pred @ h.T)

    x_post = model.project(x_pred + gain @ innov)
    i_kh = np.eye(x_post.size) - gain @ h
    p_post = floor_psd(i_kh @ p_pred @ i_kh.T + gain @ r @ gain.T)  # Joseph form
    if not (np.all(np.isfinite(x_post)) and np.all(np.isfinite(p_post))):
        raise NumericalFailureError("non-finite posterior")
    return GaussianBelief(x_post, p_post)


def _sigma_points(mean: np.ndarray, cov: np.ndarray, sp: SigmaPointParams):
    s = mean.size
    lam = sp.alpha**2 * (s + sp.kappa) - s
    c = s + lam
    if c <= 0.0:
        raise InvalidInputError("sigma point scaling must be positive")
    try:
        low = safe_cholesky(floor_psd(cov))
    except CovarianceError as e:
        raise NumericalFailureError("sigma point Cholesky failed") from e
    spread = math.sqrt(c) * low
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
    pts, wm, wc = _sigma_points(prior.mean, prior.cov, sp)
    moved = model.project_batch(model.transition_batch(pts, ex))
    x_pred, _, p_prop = _reconstruct(moved, wm, wc)
    p_pred = floor_psd(p_prop + model.process_cov())

    pts2, wm2, wc2 = _sigma_points(x_pred, p_pred, sp)
    z = model.measurement_batch(pts2, ex)
    z_base = z[0]
    z_pred = z_base + wm2 @ (z - z_base)
    z_dev = z - z_pred
    x_dev = pts2 - x_pred
    r = model.measurement_cov()
    s_mat = (z_dev * wc2[:, None]).T @ z_dev + r
    p_xz = (x_dev * wc2[:, None]).T @ z_dev
    gain = _kalman_gain(s_mat, p_xz)

    x_post = model.project(x_pred + gain @ (obs - z_pred))
    p_post = floor_psd(p_pred - gain @ s_mat @ gain.T)
    if not (np.all(np.isfinite(x_post)) and np.all(np.isfinite(p_post))):
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
    ESS < threshold * n.
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
