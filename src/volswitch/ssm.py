"""Generic additive-Gaussian state-space model interface.

Every filter and the information recursion work against this interface,
so the tests' synthetic models (the linear-Gaussian one in
``tests/models.py`` and its variants) run through the exact same code
paths as the option-pricing model.

Models are batch-shaped: the primitives take ``(n, s)`` arrays of states
and return stacked results. One state at a time (the EKF, forecasting,
simulation) goes through the one-row wrappers at the end of the class.
"""

from __future__ import annotations

import numpy as np

from .exceptions import CovarianceError, InvalidInputError
from .linalg import regularized_inverse, safe_cholesky, symmetrize, weighted_gram


class StateSpaceModel:
    """x_{t+1} = f(x_t) + w,  y_t = g(x_t) + z,  w ~ N(0,Q), z ~ N(0,R), with one measured price y_t.

    A model is built from its constants: F = df/dx, the same for every
    state and step, the process covariance Q and the 1x1 measurement
    covariance R. The constructor keeps them as ``f``, ``q`` and ``r`` and
    derives, once, what the filters and the bound reuse at every step:
    ``q_inv`` and ``r_inv``, the Cholesky factor ``q_chol`` of Q, and the
    bound's D11 = F'Q^{-1}F (``d11``) and D12 = -F'Q^{-1} (``d12``). All
    eight are read-only. An R that is not 1x1 raises ``InvalidInputError``;
    a Q or R that cannot be inverted raises ``CovarianceError``.

    A subclass defines, for (n, s) ``states`` and the step's exogenous
    input ``ex``:

    - ``transition_batch(states, ex, noise=None)``: f, plus the (n, s)
      ``noise`` when given, as (n, s), already in the model's domain:
      ``project_batch`` leaves it as it is, so no caller projects it;
    - ``measurement_batch(states, ex)``: g, as (n, 1);
    - ``measurement_jacobian_batch(states, ex)``: dg/dx, as (n, 1, s).
    """

    def __init__(self, f, q, r):
        self.f, self.q, self.r = (np.array(m, dtype=float, ndmin=2) for m in (f, q, r))
        if self.r.shape != (1, 1):
            raise InvalidInputError(f"a model measures one price: R must be 1x1, got {self.r.shape}")
        self.q_inv, self.r_inv = (regularized_inverse(m, err=CovarianceError) for m in (self.q, self.r))
        self.q_chol = safe_cholesky(self.q)
        self.d11 = symmetrize(weighted_gram(self.f[None], self.q_inv))
        self.d12 = -np.einsum("ks,kl->sl", self.f, self.q_inv)
        for m in (self.f, self.q, self.r, self.q_inv, self.r_inv, self.q_chol, self.d11, self.d12):
            m.flags.writeable = False

    def project_batch(self, states: np.ndarray) -> np.ndarray:
        """Clamp states back onto the model's valid domain. Identity by default."""
        return states

    # -- single-state conveniences ------------------------------------

    def transition(self, state, ex, noise=None) -> np.ndarray:
        n = None if noise is None else np.asarray(noise, dtype=float)[None, :]
        return self.transition_batch(np.asarray(state, dtype=float)[None, :], ex, n)[0]

    def measurement(self, state, ex) -> np.ndarray:
        return self.measurement_batch(np.asarray(state, dtype=float)[None, :], ex)[0]

    def measurement_jacobian(self, state, ex) -> np.ndarray:
        return self.measurement_jacobian_batch(np.asarray(state, dtype=float)[None, :], ex)[0]

    def project(self, state) -> np.ndarray:
        return self.project_batch(np.asarray(state, dtype=float)[None, :])[0]
