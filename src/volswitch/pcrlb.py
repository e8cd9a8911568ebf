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
When every pair has the same transition Jacobian F, the weights, which
sum to one, drop out of both averages: D11 = F'Q^{-1}F and
D12 = -F'Q^{-1} come from that one Jacobian, and the step evaluates no
likelihood. The shipped models are this case (``BsGarchModel`` in both
risk-transition modes, a linear model); it is read off the Jacobian's
values at every step, never declared by a model.

D22 averages the measurement gradients over the predicted cloud with
uniform weights, i.e. under the predictive density of x_{t+1}; it is not
reweighted against the next observation. The paper and the README do not
settle which of the two is meant, and the code keeps the predictive
average.

A bank of filters shares one pass per step (``pcrlb_bank_step``). Each
filter factors its own posterior and draws its seed and then its
propagation noise from its own rng; projection, transition, the Jacobians
and the D blocks then run once on the stacked clouds. Each D block is
one weighted Gram product per filter (D11 and D12 one for the whole bank
when F is constant), not a stack of per-particle matrix products.
Only the information step runs filter by filter, and a failure in a
filter's factorisation, pair weights, D blocks or information step stops
that filter's update alone.

Q^{-1} and R^{-1} are constant, so each model inverts them once
(``StateSpaceModel.noise_precisions``) and every step reuses them.

J^{-1} is one regularized inverse of J, checked against J.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    RECOVERABLE,
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


def _seed_factor(belief: GaussianBelief) -> np.ndarray:
    """Lower factor of the belief's covariance, eigenvalues floored just above zero."""
    scale = max(float(np.trace(belief.cov)) / belief.mean.size, 0.0)
    return safe_cholesky(floor_psd(belief.cov, floor=1e-18 * max(scale, 1.0)))


def seed_particles(belief: GaussianBelief, n: int, rng: np.random.Generator, model=None) -> ParticleCloud:
    """Sample n particles from a Gaussian belief, projected onto the model domain."""
    if n < 2:
        raise InvalidInputError("need at least 2 particles")
    low = _seed_factor(belief)
    draws = belief.mean + rng.standard_normal((n, belief.mean.size)) @ low.T
    if model is not None:
        draws = model.project_batch(draws)
    return ParticleCloud.uniform(draws)


def _weighted_gram(jac: np.ndarray, precision: np.ndarray, weights: np.ndarray):
    """Per filter, (sum_i w_i J_i' P J_i, sum_i w_i J_i' P) over stacked (B, n, k, s) Jacobians.

    J_i' P is formed elementwise, and the sum over particles is one
    (s, n k) @ (n k, s) product per filter.
    """
    bsz, n, k, s = jac.shape
    wjp = np.einsum("bnks,kl->bnsl", jac, precision) * weights[:, :, None, None]
    gram = wjp.transpose(0, 2, 1, 3).reshape(bsz, s, n * k) @ jac.reshape(bsz, n * k, s)
    return gram, wjp.sum(axis=1)


def d_matrices(f_jac: np.ndarray, weights: np.ndarray, h_jac: np.ndarray, model) -> list[DTriple]:
    """Monte-Carlo D blocks for one recursion step of each filter in a bank.

    ``f_jac`` (B, n, s, s) holds the transition Jacobians at the ancestors of
    the pairs and ``weights`` (B, n) the pair weights, each row summing to
    one; B = 1 serves every filter with the same pairs. ``h_jac`` (B, n', m, s)
    holds the measurement Jacobians over each filter's predicted cloud,
    averaged with uniform weights. Returns one DTriple per filter.
    """
    q_inv, r_inv = model.noise_precisions()
    d11, fq = _weighted_gram(f_jac, q_inv, weights)
    bsz, n_pred = h_jac.shape[:2]
    hrh, _ = _weighted_gram(h_jac, r_inv, np.full((bsz, n_pred), 1.0 / n_pred))
    d22 = symmetrize(q_inv + hrh)
    d11, d12 = (np.broadcast_to(m, d22.shape) for m in (symmetrize(d11), -fq))
    return [DTriple(d11=a, d12=b, d22=c) for a, b, c in zip(d11, d12, d22)]


def _ensure_pd(j: np.ndarray) -> np.ndarray:
    vals = np.linalg.eigvalsh(j)
    if vals.min() > 0.0:
        return j
    floor = 1e-12 * max(float(np.abs(vals).max()), 1.0)
    logger.info("information matrix floored: min eigenvalue %.3e -> %.3e", vals.min(), floor)
    return floor_psd(j, floor=floor)


def pfim_step(prev: FisherState, d: DTriple) -> FisherState:
    """Advance the information recursion one step.

    Non-finite D blocks raise ``NumericalFailureError``. J^{-1} is one
    regularized inverse of J_{t+1}; if it does not reproduce the identity
    against J_{t+1} within tolerance the step raises ``SingularityError``.
    """
    if not all(np.all(np.isfinite(m)) for m in (d.d11, d.d12, d.d22)):
        raise NumericalFailureError("non-finite D matrices")
    mid = symmetrize(prev.j + d.d11)
    mid_inv = regularized_inverse(mid, err=SingularityError)
    j_next = _ensure_pd(symmetrize(d.d22 - d.d12.T @ mid_inv @ d.d12))
    j_inv = symmetrize(regularized_inverse(j_next, err=SingularityError))
    err = float(np.max(np.abs(j_inv @ j_next - np.eye(j_next.shape[0]))))
    if err > INVERSE_CONSISTENCY_TOL:
        raise SingularityError(f"information matrix inverse inconsistent: {err:.3e}")
    return FisherState(j=j_next, j_inv=j_inv, filter=prev.filter)


def pcrlb_bank_step(prevs, beliefs, next_obs, ex_next, model, n: int, rngs) -> list:
    """One bound update for every filter of a bank, in one pass.

    Filter k seeds n particles from ``beliefs[k]`` and propagates them
    with draws from ``rngs[k]``, in that order. Each (ancestor, child)
    pair is weighted against the next observation unless every pair has
    the same transition Jacobian; D22 is averaged over the predicted
    cloud with its uniform weights. Then each J advances.

    Returns, per filter in order, its new ``FisherState``, or the
    recoverable error that stopped its update (its J stays as it was).
    """
    if n < 2:
        raise InvalidInputError("need at least 2 particles")
    out: list = [None] * len(prevs)
    live, seeds, draws = [], [], []
    for k, (belief, rng) in enumerate(zip(beliefs, rngs, strict=True)):
        try:
            low = _seed_factor(belief)
        except RECOVERABLE as e:
            out[k] = e
            continue
        live.append(k)
        seeds.append(belief.mean + rng.standard_normal((n, low.shape[0])) @ low.T)
        draws.append(rng.standard_normal((n, low.shape[0])))
    if not live:
        return out

    bsz, s = len(live), seeds[0].shape[1]
    x_prev = model.project_batch(np.concatenate(seeds))
    noise = (np.stack(draws) @ model.process_noise_factor().T).reshape(bsz * n, s)
    # the transition keeps row order, so x_next[i] is the child of x_prev[i]
    x_next = model.project_batch(model.transition_batch(x_prev, ex_next, noise))

    f_jac = model.transition_jacobian_batch(x_prev, ex_next)
    if np.all(f_jac == f_jac[0]):
        # every pair has the same F, so weights summing to one drop out of
        # D11 and D12: one pair of weight one serves the whole bank
        f_jac, weights = f_jac[None, :1], np.ones((1, 1))
    else:
        # the seeded clouds are uniform, so the likelihood alone weights each pair
        loglik = likelihood_logweights(x_next, next_obs, ex_next, model).reshape(bsz, n)
        f_jac, weights = f_jac.reshape(bsz, n, s, s), np.zeros((bsz, n))
        for row, k in enumerate(live):
            try:
                weights[row] = normalize_logweights(loglik[row])
            except NumericalFailureError as e:
                out[k] = e  # its all-zero row's D blocks go unused
    h_jac = model.measurement_jacobian_batch(x_next, ex_next)
    blocks = d_matrices(f_jac, weights, h_jac.reshape(bsz, n, -1, s), model)

    for k, d in zip(live, blocks):
        if out[k] is not None:
            continue
        try:
            out[k] = pfim_step(prevs[k], d)
        except RECOVERABLE as e:
            out[k] = e
    return out


def pcrlb_step(
    prev: FisherState,
    belief: GaussianBelief,
    next_obs,
    ex_next,
    model,
    n: int,
    rng: np.random.Generator,
) -> FisherState:
    """One full bound update for a single filter: a bank of one.

    Raises the recoverable error that ``pcrlb_bank_step`` reports for it.
    """
    (out,) = pcrlb_bank_step([prev], [belief], next_obs, ex_next, model, n, [rng])
    if isinstance(out, Exception):
        raise out
    return out
