"""Black-Scholes measurement model on GARCH(1,1) state dynamics.

The hidden state is x = (v, r): the per-step variance of the underlying's
log-return and the annualized risk-free rate. Variance follows a noisy
GARCH(1,1) recursion driven by the realized log-return u, the rate follows
a random walk (or, optionally, the literal rate-plus-variance coupling,
see ``ModelSpec.risk_transition``), and the observation is the
Black-Scholes price of one option contract evaluated at the annualized
volatility sigma = sqrt(A * v), A = 1/dt.

All pricing and transition math lives in vectorized kernels behind the
``BsGarchModel`` adapter; single states go through its one-row wrappers
(``model.transition``, ``model.measurement``).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .exceptions import InvalidInputError
from .linalg import symmetrize
from .ssm import StateSpaceModel

logger = logging.getLogger(__name__)

# Variance floor applied by every projection step; gradients are evaluated
# at GRAD_V_FLOOR when a state sits at or below the floor.
V_FLOOR = 1e-8
GRAD_V_FLOOR = 2e-8

_SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# types


@dataclass(frozen=True)
class GarchParams:
    omega: float
    alpha: float
    beta: float

    def __post_init__(self):
        vals = (self.omega, self.alpha, self.beta)
        if not all(np.isfinite(vals)):
            raise InvalidInputError("non-finite GARCH parameters")
        if self.omega <= 0.0 or self.alpha < 0.0 or self.beta < 0.0:
            raise InvalidInputError("GARCH parameters must satisfy omega > 0, alpha >= 0, beta >= 0")
        if self.alpha + self.beta >= 1.0:
            raise InvalidInputError("GARCH stationarity requires alpha + beta < 1")


@dataclass(frozen=True)
class ContractSpec:
    """Strike, expiry expressed as a step index, and the option side."""

    strike: float
    expiry_step: int
    is_call: bool = True

    def __post_init__(self):
        if not np.isfinite(self.strike) or self.strike <= 0.0:
            raise InvalidInputError("strike must be positive and finite")
        if int(self.expiry_step) != self.expiry_step or self.expiry_step < 0:
            raise InvalidInputError("expiry_step must be a non-negative integer")


@dataclass(frozen=True)
class ExogenousInputs:
    """Per-step observables: underlying close s, log-return u, time to expiry tau (years).

    ``contract`` overrides the model's contract for datasets where the
    traded contract changes from step to step.
    """

    s: float
    u: float
    tau: float
    contract: ContractSpec | None = None

    def __post_init__(self):
        if not all(np.isfinite((self.s, self.u, self.tau))):
            raise InvalidInputError("non-finite exogenous inputs")
        if self.s <= 0.0:
            raise InvalidInputError("underlying close must be positive")
        if self.tau < 0.0:
            raise InvalidInputError("tau must be non-negative")


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    """Process covariance q (2x2, positive definite) and measurement variance r."""

    q: np.ndarray
    r: float

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.shape != (2, 2) or not np.all(np.isfinite(q)):
            raise InvalidInputError("q must be a finite 2x2 matrix")
        if np.max(np.abs(q - q.T)) > 1e-12 * max(1.0, np.max(np.abs(q))):
            raise InvalidInputError("q must be symmetric")
        if np.linalg.eigvalsh(symmetrize(q)).min() <= 0.0:
            raise InvalidInputError("q must be positive definite")
        object.__setattr__(self, "q", symmetrize(q))
        if not np.isfinite(self.r) or self.r <= 0.0:
            raise InvalidInputError("measurement variance must be positive")


RISK_TRANSITION_MODES = ("random-walk", "literal")


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Immutable bundle of everything the state-space model needs."""

    garch: GarchParams
    contract: ContractSpec
    noise: NoiseSpec
    dt: float
    risk_transition: str = "random-walk"

    def __post_init__(self):
        if not np.isfinite(self.dt) or self.dt <= 0.0:
            raise InvalidInputError("dt must be positive")
        if self.risk_transition not in RISK_TRANSITION_MODES:
            raise InvalidInputError(
                f"risk_transition must be one of {RISK_TRANSITION_MODES}, got {self.risk_transition!r}"
            )

    @property
    def annualization(self) -> float:
        return 1.0 / self.dt


# ---------------------------------------------------------------------------
# vectorized kernels


def _d1_d2(v, r, s, k, tau, annualization):
    """(sigma, sigma*sqrt(tau), d1, d2); d1 and d2 are inf or NaN where sigma*sqrt(tau) == 0."""
    sigma = np.sqrt(annualization * np.asarray(v, dtype=float))
    vol = sigma * np.sqrt(tau)
    with np.errstate(divide="ignore", invalid="ignore"):
        d1 = (np.log(s / k) + (r + 0.5 * sigma**2) * tau) / vol
    return sigma, vol, d1, d1 - vol


def _price_kernel(v, r, s, k, tau, is_call, annualization):
    """Black-Scholes price, vectorized over per-step variance v and rate r.

    Degenerate rows (sigma*sqrt(tau) == 0) collapse to the discounted
    forward intrinsic value, which is also the tau -> 0 limit.
    """
    r = np.asarray(r, dtype=float)
    _, vol, d1, d2 = _d1_d2(v, r, s, k, tau, annualization)
    disc_k = k * np.exp(-r * tau)
    if is_call:
        live = s * ndtr(d1) - disc_k * ndtr(d2)
        limit = np.maximum(s - disc_k, 0.0)
    else:
        live = -s * ndtr(-d1) + disc_k * ndtr(-d2)
        limit = np.maximum(disc_k - s, 0.0)
    price = np.where(vol > 0.0, live, limit)
    return np.maximum(price, 0.0)


def _gradient_kernel(v, r, s, k, tau, is_call, annualization):
    """(dprice/dv, dprice/dr); assumes v > 0 and tau > 0 elementwise."""
    r = np.asarray(r, dtype=float)
    sigma, _, d1, d2 = _d1_d2(v, r, s, k, tau, annualization)
    vega = s * np.sqrt(tau) * np.exp(-0.5 * d1**2) / _SQRT_2PI
    # chain rule through sigma = sqrt(A * v): dsigma/dv = A / (2 sigma)
    d_v = vega * annualization / (2.0 * sigma)
    if is_call:
        d_r = k * tau * np.exp(-r * tau) * ndtr(d2)
    else:
        d_r = -k * tau * np.exp(-r * tau) * ndtr(-d2)
    return d_v, d_r


def _transition_kernel(v, r, u, garch: GarchParams, risk_transition: str, noise_v, noise_r):
    v_next = garch.omega + garch.alpha * u**2 + garch.beta * v + noise_v
    v_next = np.maximum(v_next, V_FLOOR)
    if risk_transition == "literal":
        r_next = r + v_next + noise_r
    else:
        r_next = r + noise_r
    return v_next, r_next


# ---------------------------------------------------------------------------
# spot propagation


def gbm_propagate(s: float, r: float, v: float, dt: float, shock: float = 0.0) -> float:
    """Geometric Brownian step at per-step variance v over one interval dt.

    With sigma = sqrt(v/dt) the log-increment reduces to
    r*dt - v/2 + sqrt(v)*shock. dt == 0 is a zero-length step: s unchanged.
    """
    if not all(np.isfinite((s, r, v, dt, shock))):
        raise InvalidInputError("non-finite gbm inputs")
    if s <= 0.0:
        raise InvalidInputError("spot must be positive")
    if v < 0.0 or dt < 0.0:
        raise InvalidInputError("variance and dt must be non-negative")
    if dt == 0.0:
        return float(s)
    return float(s * math.exp(r * dt - 0.5 * v + math.sqrt(v) * shock))


# ---------------------------------------------------------------------------
# model adapter


class BsGarchModel(StateSpaceModel):
    """Batch-shaped SSM adapter around a ``ModelSpec``.

    Measurement gradients substitute a floored state for particles at or
    below the variance floor (logged, never dropped) and collapse to zero
    rows at expiry, where the price carries no state information.
    """

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self._r = np.array([[spec.noise.r]])
        coupling = spec.garch.beta if spec.risk_transition == "literal" else 0.0
        self._f = np.array([[spec.garch.beta, 0.0], [coupling, 1.0]])  # constant: read-only, broadcast per call
        self._f.flags.writeable = False

    def _contract(self, ex: ExogenousInputs) -> ContractSpec:
        return ex.contract if ex.contract is not None else self.spec.contract

    def transition_batch(self, states, ex, noise=None):
        states = np.asarray(states, dtype=float)
        noise_v = noise_r = 0.0
        if noise is not None:
            if np.shape(noise) != states.shape:
                raise InvalidInputError(f"noise shape {np.shape(noise)} differs from states {states.shape}")
            noise_v, noise_r = noise[:, 0], noise[:, 1]
        v_next, r_next = _transition_kernel(
            states[:, 0], states[:, 1], ex.u, self.spec.garch, self.spec.risk_transition, noise_v, noise_r
        )
        return np.column_stack([v_next, r_next])

    def transition_jacobian_batch(self, states, ex):
        return np.broadcast_to(self._f, (states.shape[0], 2, 2))

    def measurement_batch(self, states, ex):
        contract = self._contract(ex)
        states = np.asarray(states, dtype=float)
        price = _price_kernel(
            np.maximum(states[:, 0], 0.0), states[:, 1],
            ex.s, contract.strike, ex.tau, contract.is_call, self.spec.annualization,
        )
        return price[:, None]

    def measurement_jacobian_batch(self, states, ex):
        contract = self._contract(ex)
        states = np.asarray(states, dtype=float)
        n = states.shape[0]
        if ex.tau <= 0.0:
            logger.info("expired contract: measurement gradient set to zero for %d states", n)
            return np.zeros((n, 1, 2))
        v = states[:, 0]
        floored = v <= V_FLOOR
        if floored.any():
            logger.info(
                "measurement gradient evaluated at floored state for %d of %d particles",
                int(floored.sum()), n,
            )
            v = np.where(floored, GRAD_V_FLOOR, v)
        d_v, d_r = _gradient_kernel(
            v, states[:, 1], ex.s, contract.strike, ex.tau, contract.is_call, self.spec.annualization
        )
        out = np.empty((n, 1, 2))
        out[:, 0, 0] = d_v
        out[:, 0, 1] = d_r
        return out

    def process_cov(self):
        return self.spec.noise.q

    def measurement_cov(self):
        return self._r

    def project_batch(self, states):
        states = np.asarray(states, dtype=float).copy()
        states[:, 0] = np.maximum(states[:, 0], V_FLOOR)
        return states
