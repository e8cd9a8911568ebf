"""Particle-approximated posterior Cramer-Rao lower bound per filter.

The information matrix J evolves by the recursion

    J_{t+1} = D22_t - D12_t' (J_t + D11_t)^{-1} D12_t,    J_0 = P_0^{-1},

where the D blocks are Monte-Carlo averages of gradient outer products.
Particles come from the filter under evaluation: its Gaussian posterior
seeds the cloud at t, and ``pcrlb_step`` seeds and propagates that cloud
itself, through the model's batch transition.

The bound step needs one transition Jacobian F shared by every particle
of a step. D11 = F'Q^{-1}F and D12 = -F'Q^{-1} then come from that one
Jacobian alone, and the step evaluates no likelihood. The shipped models
are this case (``BsGarchModel`` in both risk-transition modes, a linear
model). It is read off the Jacobian at every step, never declared by a
model: by value, or for a broadcast view (zero first stride) at no cost;
a Jacobian that differs between particles is rejected. D11 and D12 are
kept read-only on the model with their F, and recomputed when a step's F
differs.

D22 averages the measurement gradients over the predicted cloud with
uniform weights, i.e. under the predictive density of x_{t+1}; it is not
reweighted against the next observation. The paper and the README do not
settle which of the two is meant, and the code keeps the predictive
average.

A bank of B filters keeps J and J^{-1} as two (B, s, s) stacks and shares
one pass per step (``pcrlb_step``). The posteriors are factored as one
stack, then each filter draws its seed and its propagation noise from its
own rng; projection, transition, the Jacobians and the D blocks run once
on the stacked clouds. D22 is one weighted Gram product per filter, not a
stack of per-particle matrix products; D11 and D12 are one for the whole
bank. The information step advances every J as one stack, with one
inverse or Cholesky per stack in the common case, and for s = 2 no
eigenvalue solve (``linalg``). A failure in a filter's factorisation, D
blocks or information step stops that filter's update alone, and it keeps
its rows of J and J^{-1}.

Q^{-1} and R^{-1} are constant, so each model inverts them once
(``StateSpaceModel.noise_precisions``) and every step reuses them.

J^{-1} is one regularized inverse of J, checked against J.
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
from .filters import GaussianBelief, ParticleCloud
from .linalg import above_floor, floor_psd, regularized_inverse, safe_cholesky, symmetrize

logger = logging.getLogger(__name__)

INVERSE_CONSISTENCY_TOL = 1e-6


def initial_information(p0, b: int):
    """(J_0, J_0^{-1}) for a bank of b filters: (b, s, s) stacks of P_0^{-1} and P_0."""
    p0 = symmetrize(np.asarray(p0, dtype=float))
    j0 = regularized_inverse(p0, err=CovarianceError)
    return np.repeat(j0[None], b, axis=0), np.repeat(p0[None], b, axis=0)


def _seed_factors(covs: np.ndarray):
    """Lower factors of belief covariances, eigenvalues floored just above zero.

    One covariance: returns its factor or raises ``CovarianceError``. A
    (B, s, s) stack: returns the factors and, per belief, None or that error.
    """
    scale = np.maximum(np.trace(covs, axis1=-2, axis2=-1) / covs.shape[-1], 0.0)
    return safe_cholesky(floor_psd(covs, floor=1e-18 * np.maximum(scale, 1.0)))


def seed_particles(belief: GaussianBelief, n: int, rng: np.random.Generator, model=None) -> ParticleCloud:
    """Sample n particles from a Gaussian belief, projected onto the model domain."""
    if n < 2:
        raise InvalidInputError("need at least 2 particles")
    low = _seed_factors(belief.cov)
    draws = belief.mean + rng.standard_normal((n, belief.mean.size)) @ low.T
    if model is not None:
        draws = model.project_batch(draws)
    return ParticleCloud.uniform(draws)


def _weighted_gram(jac: np.ndarray, precision: np.ndarray, weight: float = 1.0) -> np.ndarray:
    """Per filter, w sum_i J_i' P J_i over stacked (B, n, k, s) Jacobians.

    w J_i' P is formed elementwise, and the sum over particles is one
    (s, n k) @ (n k, s) product per filter.
    """
    bsz, n, k, s = jac.shape
    wjp = np.einsum("bnks,kl->bnsl", jac, precision) * weight
    return wjp.transpose(0, 2, 1, 3).reshape(bsz, s, n * k) @ jac.reshape(bsz, n * k, s)


def _constant_transition_blocks(f: np.ndarray, model):
    """(1, s, s) D11 and D12 for a Jacobian ``f`` shared by every particle, kept on the model until F changes."""
    kept = getattr(model, "_transition_blocks", None)
    if kept is None or kept[0].tobytes() != f.tobytes():
        q_inv = model.noise_precisions()[0]
        kept = (f.copy(), symmetrize(_weighted_gram(f[None, None], q_inv)), -np.einsum("ks,kl->sl", f, q_inv)[None])
        for m in kept:
            m.flags.writeable = False
        model._transition_blocks = kept
    return kept[1:]


def _information_step(j: np.ndarray, d11: np.ndarray, d12: np.ndarray, d22: np.ndarray):
    """Advance a (B, s, s) stack of information matrices by one step of the recursion.

    The D blocks are (B, s, s) stacks, or (1, s, s) blocks shared by the
    whole bank. Returns J_{t+1}, J_{t+1}^{-1} and, per filter, None or the
    recoverable error that stopped its step (its slots of the stacks are
    then unused).
    Non-finite D blocks give ``NumericalFailureError``; a J + D11 or J_{t+1}
    that stays singular, or a J^{-1} that does not reproduce the identity
    against J_{t+1} within tolerance, gives ``SingularityError``. A J_{t+1}
    that is not positive definite is floored first.
    """
    eye = np.eye(j.shape[-1])
    mid_inv, errors = regularized_inverse(j + d11)
    j_next = symmetrize(d22 - np.swapaxes(d12, 1, 2) @ mid_inv @ d12)
    solved = j_next
    if any(errors) or not np.isfinite(j_next).all():
        # a non-finite D block always lands here, through J + D11 or J_{t+1},
        # and its error comes first
        finite = [np.isfinite(m).all(axis=(1, 2)) for m in (d11, d12, d22)]
        for k in np.flatnonzero(~(finite[0] & finite[1] & finite[2])):
            errors[k] = NumericalFailureError("non-finite D matrices")
        # failed or non-finite slots are solved as the identity and left unfloored
        live = np.isfinite(j_next).all(axis=(1, 2)) & np.array([e is None for e in errors])
        solved = np.where(live[:, None, None], j_next, eye)
    # the floor applies where J_{t+1} is not positive definite
    if not above_floor(solved, 0.0):
        vals = np.linalg.eigvalsh(solved)  # sorted ascending
        weak = ~(vals[:, 0] > 0.0)
        if weak.any():
            floors = 1e-12 * np.maximum(np.abs(vals[weak]).max(axis=1), 1.0)
            for k, floor in zip(np.flatnonzero(weak), floors):
                logger.info("information matrix floored: min eigenvalue %.3e -> %.3e", vals[k, 0], floor)
            j_next[weak] = floor_psd(j_next[weak], floor=floors)
    j_inv, inv_errors = regularized_inverse(j_next)
    j_inv = symmetrize(j_inv)
    resid = np.abs(j_inv @ j_next - eye).max(axis=(1, 2))
    for k, inv_error in enumerate(inv_errors):
        errors[k] = errors[k] or inv_error
        if errors[k] is None and resid[k] > INVERSE_CONSISTENCY_TOL:
            errors[k] = SingularityError(f"information matrix inverse inconsistent: {resid[k]:.3e}")
    return j_next, j_inv, errors


def pcrlb_step(j, j_inv, means, covs, ex_next, model, n: int, rngs):
    """One bound update for a bank of B filters, in one pass.

    ``j``, ``j_inv`` and ``covs`` are (B, s, s) stacks and ``means`` is
    (B, s), all in bank order. Filter k seeds n particles from its
    posterior and propagates them with draws from ``rngs[k]``, in that
    order. D11 and D12 come from the one transition Jacobian shared by
    every particle; D22 is averaged over the predicted cloud with its
    uniform weights. Then each J advances.

    Returns new (j, j_inv) stacks and, per filter, None or the recoverable
    error that stopped its update, which leaves its rows as they were. The
    inputs are not modified. Raises ``InvalidInputError`` when the
    transition Jacobian differs between particles.
    """
    if n < 2:
        raise InvalidInputError("need at least 2 particles")
    lows, errors = _seed_factors(covs)
    j, j_inv = j.copy(), j_inv.copy()
    live = [k for k, e in enumerate(errors) if e is None]
    if not live:
        return j, j_inv, errors

    bsz, s = len(live), means.shape[1]
    seeds, draws = [], []
    for k in live:
        seeds.append(means[k] + rngs[k].standard_normal((n, s)) @ lows[k].T)
        draws.append(rngs[k].standard_normal((n, s)))
    x_prev = model.project_batch(np.concatenate(seeds))
    noise = (np.stack(draws) @ model.process_noise_factor().T).reshape(bsz * n, s)
    x_next = model.project_batch(model.transition_batch(x_prev, ex_next, noise))

    f_jac = model.transition_jacobian_batch(x_prev, ex_next)
    # a zero first stride makes every row the same memory, as in a broadcast F;
    # a non-finite F in every row fails in the information step, as a view's does
    shared = np.broadcast_to(f_jac[0], f_jac.shape)
    if not (f_jac.strides[0] == 0 or np.array_equal(f_jac, shared, equal_nan=True)):
        raise InvalidInputError("the bound step needs one transition Jacobian shared by every particle")
    h_jac = model.measurement_jacobian_batch(x_next, ex_next).reshape(bsz, n, -1, s)
    q_inv, r_inv = model.noise_precisions()
    d22 = symmetrize(q_inv + _weighted_gram(h_jac, r_inv, 1.0 / n))

    j_next, j_inv_next, step_errors = _information_step(j[live], *_constant_transition_blocks(f_jac[0], model), d22)
    for row, k in enumerate(live):
        errors[k] = step_errors[row]
        if errors[k] is None:
            j[k], j_inv[k] = j_next[row], j_inv_next[row]
    return j, j_inv, errors
