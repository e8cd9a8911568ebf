"""Particle-approximated posterior Cramer-Rao lower bound of the system.

The information matrix J evolves by the recursion

    J_{t+1} = D22_t - D12_t' (J_t + D11_t)^{-1} D12_t,    J_0 = P_0^{-1},

where D22 is a Monte-Carlo average of gradient outer products.
There is one bound per run, the system's, and every filter is scored
against it (Tulsyan, Huang, Gopaluni & Forbes 2013-14). ``pcrlb_step``
seeds its cloud at t from one Gaussian belief, the step's decision, and
propagates it itself, through the model's batch transition.

A model's transition matrix F is one constant, so D11 = F'Q^{-1}F and
D12 = -F'Q^{-1} are constant too: the model derives them when it is
built (``StateSpaceModel.d11``, ``d12``), and every step reads them. The
step evaluates no likelihood.

D22 averages the measurement gradients over the predicted cloud with
uniform weights, i.e. under the predictive density of x_{t+1}; it is not
reweighted against the next observation. The paper and the README do not
settle which of the two is meant, and the code keeps the predictive
average. It is one weighted Gram product, not a sum of per-particle
matrix products. For s = 2 the information step's checks need no
eigenvalue solve (``linalg``).

Q^{-1} and R^{-1} are constant too, inverted once when the model is
built (``StateSpaceModel.q_inv``, ``r_inv``).

J^{-1} is one regularized inverse of J, checked against J. A step that
fails numerically raises one of ``exceptions.RECOVERABLE``; the caller
keeps its J.
"""

from __future__ import annotations

import logging

import numpy as np

from .exceptions import (
    CovarianceError,
    InvalidInputError,
    NumericalFailureError,
    SingularityError,
)
from .filters import GaussianBelief, ParticleCloud, propagate_cloud
from .linalg import above_floor, floor_psd, regularized_inverse, safe_cholesky, symmetrize, weighted_gram

logger = logging.getLogger(__name__)

INVERSE_CONSISTENCY_TOL = 1e-6


def initial_information(p0):
    """(J_0, J_0^{-1}): P_0^{-1} and P_0."""
    p0 = symmetrize(np.asarray(p0, dtype=float))
    return regularized_inverse(p0, err=CovarianceError), p0


def seed_particles(belief: GaussianBelief, n: int, rng: np.random.Generator, model) -> ParticleCloud:
    """Sample n particles from a Gaussian belief, projected onto the model domain.

    The belief's covariance is factored with its eigenvalues floored just
    above zero; one that cannot be factored raises ``CovarianceError``.
    """
    if n < 2:
        raise InvalidInputError("need at least 2 particles")
    cov = belief.cov
    scale = np.maximum(np.trace(cov) / cov.shape[-1], 0.0)
    low = safe_cholesky(floor_psd(cov, floor=1e-18 * np.maximum(scale, 1.0)))
    draws = belief.mean + rng.standard_normal((n, belief.mean.size)) @ low.T
    return ParticleCloud.uniform(model.project_batch(draws))


def _information_step(j: np.ndarray, d11: np.ndarray, d12: np.ndarray, d22: np.ndarray):
    """Advance an information matrix by one step of the recursion: returns J_{t+1} and J_{t+1}^{-1}.

    Non-finite D blocks raise ``NumericalFailureError``; a J + D11 or
    J_{t+1} that is non-finite or stays singular, or a J^{-1} that does not
    reproduce the identity against J_{t+1} within tolerance, raises
    ``SingularityError``. A J_{t+1} that is not positive definite is
    floored first.
    """
    if not (np.isfinite(d11).all() and np.isfinite(d12).all() and np.isfinite(d22).all()):
        raise NumericalFailureError("non-finite D matrices")
    j_next = symmetrize(d22 - d12.T @ regularized_inverse(j + d11) @ d12)
    # the floor applies where J_{t+1} is not positive definite; a non-finite
    # J_{t+1} fails its inverse below
    if np.isfinite(j_next).all() and not above_floor(j_next, 0.0):
        vals = np.linalg.eigvalsh(j_next)  # sorted ascending
        if not vals[0] > 0.0:
            floor = 1e-12 * np.maximum(np.abs(vals).max(), 1.0)
            logger.info("information matrix floored: min eigenvalue %.3e -> %.3e", vals[0], floor)
            j_next = floor_psd(j_next, floor=floor)
    j_inv = symmetrize(regularized_inverse(j_next))
    resid = np.abs(j_inv @ j_next - np.eye(j.shape[-1])).max()
    if resid > INVERSE_CONSISTENCY_TOL:
        raise SingularityError(f"information matrix inverse inconsistent: {resid:.3e}")
    return j_next, j_inv


def pcrlb_step(j, belief: GaussianBelief, ex_next, model, n: int, rng):
    """One bound update, J_t to J_{t+1}, seeded from ``belief``.

    Seeds n particles from the belief and propagates them, drawing the
    seed's normals and then the propagation's from ``rng``. D11 and D12
    are the model's ``d11`` and ``d12``; D22 is averaged over the predicted
    cloud with its uniform weights. Returns (J_{t+1}, J_{t+1}^{-1}); ``j``
    is not modified.

    A step that fails numerically raises one of ``RECOVERABLE``.
    """
    x_next = propagate_cloud(seed_particles(belief, n, rng, model), ex_next, model, rng).particles
    h_jac = model.measurement_jacobian_batch(x_next, ex_next)
    d22 = symmetrize(model.q_inv + weighted_gram(h_jac, model.r_inv, 1.0 / n))
    return _information_step(j, model.d11, model.d12, d22)
