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
(``model.transition``, ``model.measurement``). The normal CDF ``ndtr`` is
a port of cephes' ``ndtr``, the routine behind ``scipy.special.ndtr``,
with the same bits, so the package needs numpy only.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

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
# normal CDF


# Coefficients of cephes ndtr.c, the routine behind scipy.special.ndtr; a
# monic denominator's leading 1 is written out (1 * x is exact).
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX): exp(-x*x) underflows beyond it
_SQRT1_2 = math.sqrt(0.5)
_FEW = 16  # up to this many elements, the float path is faster than the array one

# cephes splits |x| = |a| / sqrt 2 < 1 in two: below sqrt(1/2) it returns
# 0.5 + 0.5 erf(x), above it 0.5 erfc(|x|) = 0.5 (1 - erf(|x|)), and 1 minus
# that for x > 0. Both use erf(x) = x T(x^2) / U(x^2), and above sqrt(1/2),
# where erf(|x|) is in [0.68, 0.85), 1 - erf and its half are exact, so both
# round the one real number 0.5 + 0.5 erf(x): the erf form has scipy's bits
# for all |x| < 1. T / 2: halving is exact, so x (T/2) / U is erf(x) / 2 to
# the bit and 0.5 + 0.5 erf(x) costs one add (where x (T/2) / U is
# subnormal, either way 0.5 + it rounds to 0.5).
_HALF_T = tuple(t / 2 for t in _ERF_T)


def _operands(*values):
    """Read-only 0-d arrays: numpy takes them as ufunc operands faster than Python floats."""
    arrays = tuple(np.array(v) for v in values)
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


_HALF_T_ARRAY, _U_ARRAY = _operands(*_HALF_T), _operands(*_ERF_U[1:])  # U is monic
_SQRT1_2_ARRAY, _HALF_ARRAY, _ONE_ARRAY = _operands(_SQRT1_2, 0.5, 1.0)


def _polevl(x: float, coefs) -> float:
    """sum(c * x**(n - i)) by Horner's rule, rounding as cephes' polevl does."""
    ans = coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _horner(z: np.ndarray, ans: np.ndarray, coefs) -> np.ndarray:
    """Horner's rule over an array, continued in place from ``ans``: ans = ans * z + c for each c."""
    for c in coefs:
        np.multiply(ans, z, ans)
        np.add(ans, c, ans)
    return ans


def _ndtr_float(a: float) -> float:
    """cephes ndtr for one Python float, with the C library's exp."""
    x = a * _SQRT1_2
    z = abs(x)
    if z < 1.0:  # the erf form, x T(x^2) / U(x^2) halved, with Horner's rule written out
        t0, t1, t2, t3, t4 = _HALF_T
        _, u0, u1, u2, u3, u4 = _ERF_U
        w = x * x
        return 0.5 + x * ((((t0 * w + t1) * w + t2) * w + t3) * w + t4) / (
            ((((w + u0) * w + u1) * w + u2) * w + u3) * w + u4)
    if z * z > _MAXLOG:
        y = 0.0
    elif z < 8.0:
        y = 0.5 * (math.exp(-z * z) * _polevl(z, _ERFC_P) / _polevl(z, _ERFC_Q))
    else:
        y = 0.5 * (math.exp(-z * z) * _polevl(z, _ERFC_R) / _polevl(z, _ERFC_S))
    return 1.0 - y if x > 0.0 else y


def ndtr(a):
    """Standard normal CDF, elementwise, bit for bit as scipy.special.ndtr.

    A few elements go one by one through the float path. A larger array
    takes cephes' erf form, 0.5 + 0.5 erf(a / sqrt 2), as a whole, and only
    its elements outside that form's range |a / sqrt 2| < 1 (and NaN) are
    redone on the float path.
    """
    a = np.asarray(a, dtype=float)
    if a.size <= _FEW:
        out = np.array([_ndtr_float(t) for t in a.ravel().tolist()])
        return out if a.ndim == 1 else out.reshape(a.shape)[()]
    x = np.multiply(a, _SQRT1_2_ARRAY)
    z = np.abs(x)
    inside = np.less(z, _ONE_ARRAY)  # NaN is outside
    far = None
    if np.count_nonzero(inside) < a.size:
        far = ~inside
        x[far] = z[far] = 0.0
    np.multiply(z, z, z)  # now x * x
    y = np.multiply(z, _HALF_T_ARRAY[0])
    np.add(y, _HALF_T_ARRAY[1], y)
    np.multiply(_horner(z, y, _HALF_T_ARRAY[2:]), x, y)
    np.divide(y, _horner(z, np.add(z, _U_ARRAY[0]), _U_ARRAY[1:]), y)
    np.add(y, _HALF_ARRAY, y)
    if far is not None:
        y[far] = [_ndtr_float(t) for t in a[far].tolist()]
    return y


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
    disc_k = k * np.exp(r * -tau)  # the bits of -r * tau, one ufunc call fewer
    d = np.array((d1, d2))  # one ndtr call for both: its cost is mostly per call
    if is_call:
        n1, n2 = ndtr(d)
        live = s * n1 - disc_k * n2
        limit = np.maximum(s - disc_k, 0.0)
    else:
        n1, n2 = ndtr(-d)
        live = -s * n1 + disc_k * n2
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
        d_r = k * tau * np.exp(r * -tau) * ndtr(d2)
    else:
        d_r = -k * tau * np.exp(r * -tau) * ndtr(-d2)
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
