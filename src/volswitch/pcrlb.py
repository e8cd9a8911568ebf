"""Particle-approximated posterior Cramer-Rao lower bound per filter.

The information matrix J evolves by the recursion

    J_{t+1} = D22_t - D12_t' (J_t + D11_t)^{-1} D12_t,    J_0 = P_0^{-1},

where the D blocks are Monte-Carlo averages of gradient outer products.
Particles come from the filter under evaluation: its Gaussian posterior
seeds the cloud at t, and the filter bank's own propagation and weighting
primitives move it forward.

D11 and D12 average the transition gradients over the one-step joint
smoothing posterior p(x_t, x_{t+1} | y_{1:t+1}). Propagation keeps
particle indices, so each predicted particle is paired with its own
ancestor and the pair carries the likelihood weight of the next
observation (the ancestral-path smoother, Doucet & Johansen 2009).

D22 averages the measurement gradients over the predicted cloud with
uniform weights, i.e. under the predictive density of x_{t+1}; it is not
reweighted against the next observation. The paper and the README do not
settle which of the two is meant, and the code keeps the predictive
average.

Q^{-1} and R^{-1} are constant, so each model inverts them once
(``StateSpaceModel.noise_precisions``) and every step reuses them.

J^{-1} is one regularized inverse of J, checked against J.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    CovarianceError,
    InvalidInputError,
    NumericalFailureError,
    SingularityError,
)
from .filters import (
    FilterId,
    GaussianBelief,
    ParticleCloud,
    likelihood_logweights,
    normalize_logweights,
    propagate_cloud,
)
from .linalg import floor_psd, regularized_inverse, safe_cholesky, symmetrize

logger = logging.getLogger(__name__)

INVERSE_CONSISTENCY_TOL = 1e-6


@dataclass
class FisherState:
    """Information matrix, its inverse, and the filter it belongs to."""

    j: np.ndarray
    j_inv: np.ndarray
    filter: FilterId | None = None

    @classmethod
    def initial(cls, p0, filter_id: FilterId | None = None) -> "FisherState":
        p0 = symmetrize(np.asarray(p0, dtype=float))
        return cls(j=regularized_inverse(p0, err=CovarianceError), j_inv=p0.copy(), filter=filter_id)


@dataclass
class DTriple:
    d11: np.ndarray
    d12: np.ndarray
    d22: np.ndarray


def seed_particles(belief: GaussianBelief, n: int, rng: np.random.Generator, model=None) -> ParticleCloud:
    """Sample n particles from a Gaussian belief, projected onto the model domain."""
    if n < 2:
        raise InvalidInputError("need at least 2 particles")
    s = belief.mean.size
    scale = max(float(np.trace(belief.cov)) / s, 0.0)
    floored = floor_psd(belief.cov, floor=1e-18 * max(scale, 1.0))
    low = safe_cholesky(floored)
    draws = belief.mean + rng.standard_normal((n, s)) @ low.T
    if model is not None:
        draws = model.project_batch(draws)
    return ParticleCloud.uniform(draws)


def d_matrices(x_prev: np.ndarray, weights: np.ndarray, predicted: ParticleCloud, ex, model) -> DTriple:
    """Monte-Carlo D blocks for one recursion step.

    Transition gradients are averaged at the draws ``x_prev`` of x_t with
    ``weights`` (summing to one), measurement gradients over the predicted cloud.
    """
    q_inv, r_inv = model.noise_precisions()

    f_jac = model.transition_jacobian_batch(x_prev, ex)
    fq = f_jac.transpose(0, 2, 1) @ q_inv  # F' Q^-1 per particle
    d11 = np.tensordot(weights, fq @ f_jac, axes=1)
    d12 = -np.tensordot(weights, fq, axes=1)

    h_jac = model.measurement_jacobian_batch(predicted.particles, ex)
    hr = h_jac.transpose(0, 2, 1) @ r_inv  # H' R^-1 per particle
    d22 = q_inv + np.tensordot(predicted.weights, hr @ h_jac, axes=1)

    d11 = symmetrize(d11)
    d22 = symmetrize(d22)
    if not all(np.all(np.isfinite(m)) for m in (d11, d12, d22)):
        raise NumericalFailureError("non-finite D matrices")
    return DTriple(d11=d11, d12=d12, d22=d22)


def _ensure_pd(j: np.ndarray) -> np.ndarray:
    vals = np.linalg.eigvalsh(j)
    if vals.min() > 0.0:
        return j
    floor = 1e-12 * max(float(np.abs(vals).max()), 1.0)
    logger.info("information matrix floored: min eigenvalue %.3e -> %.3e", vals.min(), floor)
    return floor_psd(j, floor=floor)


def pfim_step(prev: FisherState, d: DTriple) -> FisherState:
    """Advance the information recursion one step.

    J^{-1} is one regularized inverse of J_{t+1}; if it does not reproduce
    the identity against J_{t+1} within tolerance the step raises
    ``SingularityError``.
    """
    mid = symmetrize(prev.j + d.d11)
    mid_inv = regularized_inverse(mid, err=SingularityError)
    j_next = _ensure_pd(symmetrize(d.d22 - d.d12.T @ mid_inv @ d.d12))
    j_inv = symmetrize(regularized_inverse(j_next, err=SingularityError))
    err = float(np.max(np.abs(j_inv @ j_next - np.eye(j_next.shape[0]))))
    if err > INVERSE_CONSISTENCY_TOL:
        raise SingularityError(f"information matrix inverse inconsistent: {err:.3e}")
    return FisherState(j=j_next, j_inv=j_inv, filter=prev.filter)


def pcrlb_step(
    prev: FisherState,
    belief: GaussianBelief,
    next_obs,
    ex_next,
    model,
    n: int,
    rng: np.random.Generator,
) -> FisherState:
    """One full bound update for a single filter.

    Seeds a cloud from the filter's posterior, runs it through the noisy
    transition, and weights each (ancestor, child) pair against the next
    observation; those weighted pairs feed D11 and D12. D22 is averaged
    over the predicted cloud with its uniform weights. Then J advances.
    """
    filtered_t = seed_particles(belief, n, rng, model)
    predicted = propagate_cloud(filtered_t, ex_next, model, rng)
    # the seeded cloud is uniform, so the likelihood alone weights each pair
    loglik = likelihood_logweights(predicted.particles, next_obs, ex_next, model)
    w, degenerate = normalize_logweights(loglik)
    if degenerate:
        logger.warning("bound-update particle weights underflowed; uniform fallback")
    # propagate_cloud keeps particle indices, so predicted[i] is the child of
    # filtered_t[i]: with the likelihood weights the index-matched pairs are
    # already an importance sample of p(x_t, x_{t+1} | y_{1:t+1})
    d = d_matrices(filtered_t.particles, w, predicted, ex_next, model)
    return pfim_step(prev, d)
