"""State-space models that only the tests use."""

import numpy as np

from volswitch.linalg import symmetrize
from volswitch.ssm import StateSpaceModel


class LinearGaussianModel(StateSpaceModel):
    """x' = A x + w, y = C x + z. Exact-Kalman territory, used as a test oracle target."""

    def __init__(self, a, c, q, r):
        super().__init__(a, symmetrize(np.atleast_2d(q)), r)
        self.c = np.atleast_2d(np.asarray(c, dtype=float))

    def transition_batch(self, states, ex, noise=None):
        out = states @ self.f.T
        if noise is not None:
            out = out + noise
        return out

    def measurement_batch(self, states, ex):
        return states @ self.c.T

    def measurement_jacobian_batch(self, states, ex):
        return np.broadcast_to(self.c, (states.shape[0],) + self.c.shape)
