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

from .exceptions import CovarianceError
from .linalg import regularized_inverse, safe_cholesky


class StateSpaceModel:
    """x_{t+1} = f(x_t) + w,  y_t = g(x_t) + z,  w ~ N(0,Q), z ~ N(0,R), with one measured price y_t.

    A model defines, for (n, s) ``states`` and the step's exogenous input ``ex``:

    - ``transition_batch(states, ex, noise=None)``: f, plus the (n, s)
      ``noise`` when given, as (n, s);
    - ``transition_jacobian_batch(states, ex)``: df/dx, as (n, s, s);
    - ``measurement_batch(states, ex)``: g, as (n, 1);
    - ``measurement_jacobian_batch(states, ex)``: dg/dx, as (n, 1, s);
    - ``process_cov()``: Q, (s, s); ``measurement_cov()``: R, (1, 1).
    """

    def project_batch(self, states: np.ndarray) -> np.ndarray:
        """Clamp states back onto the model's valid domain. Identity by default."""
        return states

    def noise_precisions(self) -> tuple[np.ndarray, np.ndarray]:
        """(Q^-1, R^-1), inverted on the first call and kept: the noise is constant."""
        cached = getattr(self, "_noise_precisions", None)
        if cached is None:
            cached = tuple(
                regularized_inverse(cov, err=CovarianceError)
                for cov in (self.process_cov(), self.measurement_cov())
            )
            for m in cached:
                m.flags.writeable = False
            self._noise_precisions = cached
        return cached

    def process_noise_factor(self) -> np.ndarray:
        """Lower Cholesky factor of Q, factored on the first call and kept: the noise is constant."""
        cached = getattr(self, "_process_noise_factor", None)
        if cached is None:
            cached = safe_cholesky(self.process_cov())
            cached.flags.writeable = False
            self._process_noise_factor = cached
        return cached

    # -- single-state conveniences ------------------------------------

    def transition(self, state, ex, noise=None) -> np.ndarray:
        n = None if noise is None else np.asarray(noise, dtype=float)[None, :]
        return self.transition_batch(np.asarray(state, dtype=float)[None, :], ex, n)[0]

    def transition_jacobian(self, state, ex) -> np.ndarray:
        return self.transition_jacobian_batch(np.asarray(state, dtype=float)[None, :], ex)[0]

    def measurement(self, state, ex) -> np.ndarray:
        return self.measurement_batch(np.asarray(state, dtype=float)[None, :], ex)[0]

    def measurement_jacobian(self, state, ex) -> np.ndarray:
        return self.measurement_jacobian_batch(np.asarray(state, dtype=float)[None, :], ex)[0]

    def project(self, state) -> np.ndarray:
        return self.project_batch(np.asarray(state, dtype=float)[None, :])[0]
