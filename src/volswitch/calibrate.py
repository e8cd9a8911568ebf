"""Variance-targeting GARCH(1,1) fit on daily log returns.

Gaussian quasi-likelihood with omega pinned to the sample variance through
omega = var * (1 - alpha - beta), so the optimizer works in two free
parameters. Those are driven through a sigmoid persistence/share
reparametrization, which keeps every iterate inside the stationarity
region without constraint machinery.

Note the timing: the likelihood below is the standard predictive one,
h_t depends on the return at t-1. The filtering state equation updates
the variance with the contemporaneous return instead; the two coincide up
to a one-step index shift and the fit is used only to pick (omega, alpha,
beta).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .bsgarch import GarchParams
from .exceptions import InsufficientDataError, InvalidInputError
from .marketdata import OptionChain

logger = logging.getLogger(__name__)

MIN_RETURNS = 30
_STARTS = ((0.05, 0.90), (0.10, 0.80), (0.02, 0.95))


@dataclass(frozen=True)
class GarchFit:
    params: GarchParams
    log_likelihood: float
    n_obs: int
    sample_variance: float
    converged: bool


def log_returns(closes) -> np.ndarray:
    closes = np.asarray(closes, dtype=float)
    if closes.ndim != 1 or closes.size < 2:
        raise InvalidInputError("need a 1-d series of at least two closes")
    if not np.all(np.isfinite(closes)) or np.any(closes <= 0.0):
        raise InvalidInputError("closes must be finite and positive")
    return np.diff(np.log(closes))


def garch_log_likelihood(returns: np.ndarray, omega: float, alpha: float, beta: float) -> float:
    """Gaussian log-likelihood of the returns under GARCH(1,1) variance."""
    GarchParams(omega, alpha, beta)  # reuse the stationarity checks
    returns = np.asarray(returns, dtype=float)
    if returns.ndim != 1 or returns.size < 1:
        raise InvalidInputError("returns must be a non-empty 1-d array")
    h = float(np.var(returns)) or omega / (1.0 - alpha - beta)
    # h_t in Python, in the loop's rounding order; cumsum adds terms sequentially
    hs = [h]
    for x in (omega + alpha * returns * returns)[:-1].tolist():
        hs.append(x + beta * hs[-1])
    hs = np.array(hs)
    return -float(np.cumsum(0.5 * (np.log(2.0 * math.pi * hs) + returns * returns / hs))[-1])


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _unpack(z) -> tuple[float, float]:
    # persistence in (0, 1), alpha's share of it in (0, 1)
    persistence = _sigmoid(z[0]) * 0.9999
    share = _sigmoid(z[1])
    alpha = persistence * share
    beta = persistence * (1.0 - share)
    return alpha, beta


class _BudgetSpent(Exception):
    pass


def _by_value(sim, fsim):
    order = np.argsort(fsim)
    return np.take(sim, order, 0), np.take(fsim, order, 0)


def _nelder_mead(fun, x0, xatol, fatol):
    """Minimize ``fun`` from ``x0``; returns (best vertex, lowest value, converged).

    scipy.optimize.minimize(method="Nelder-Mead") without bounds or
    adaptation, step for step, so both return the same floats: the same
    first simplex, the same expressions (rho = 1, chi = 2, psi = sigma = 0.5
    folded into constants; every folded product is exact), the same argsort
    re-sorting, and a budget of 200 * N evaluations and 200 * N iterations.
    """
    x0 = np.asarray(x0, dtype=float).ravel()
    n = x0.size
    budget = 200 * n
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    nfev = 0

    def f(x):
        nonlocal nfev
        if nfev >= budget:
            raise _BudgetSpent
        nfev += 1
        return fun(x)

    fsim = np.array([f(x) for x in sim], dtype=float)
    sim, fsim = _by_value(*_by_value(sim, fsim))  # scipy sorts the first simplex twice
    iterations = 1
    while nfev < budget and iterations < budget:
        if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        try:
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    keep = fxc <= fxr
                else:  # inside contraction
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    keep = fxc < fsim[-1]
                if keep:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            iterations += 1
        except _BudgetSpent:
            pass
        sim, fsim = _by_value(sim, fsim)
    return sim[0], float(np.min(fsim)), nfev < budget and iterations < budget


def fit_garch(returns) -> GarchFit:
    """Variance-targeting quasi-MLE; multi-start Nelder-Mead in 2 parameters."""
    returns = np.asarray(returns, dtype=float)
    if returns.ndim != 1 or returns.size < MIN_RETURNS:
        raise InsufficientDataError(
            f"GARCH fit needs at least {MIN_RETURNS} returns, got {returns.size}"
        )
    if not np.all(np.isfinite(returns)):
        raise InvalidInputError("returns must be finite")
    var = float(np.var(returns))
    if var <= 0.0:
        raise InvalidInputError("return series has zero variance")

    def negloglik(z):
        alpha, beta = _unpack(z)
        omega = var * (1.0 - alpha - beta)
        return -garch_log_likelihood(returns, omega, alpha, beta)

    starts = [(_logit(min((a0 + b0) / 0.9999, 0.999)), _logit(a0 / (a0 + b0))) for a0, b0 in _STARTS]
    # the first start with the lowest value wins
    z, fun, converged = min(
        (_nelder_mead(negloglik, z0, xatol=1e-8, fatol=1e-10) for z0 in starts), key=lambda res: res[1]
    )
    alpha, beta = _unpack(z)
    omega = var * (1.0 - alpha - beta)
    params = GarchParams(omega, alpha, beta)
    fit = GarchFit(
        params=params,
        log_likelihood=-fun,
        n_obs=int(returns.size),
        sample_variance=var,
        converged=converged,
    )
    logger.info(
        "GARCH fit: omega=%.3e alpha=%.4f beta=%.4f loglik=%.2f n=%d",
        omega, alpha, beta, fit.log_likelihood, fit.n_obs,
    )
    return fit


def closes_by_date(chain: OptionChain) -> list:
    """Chronological (date, underlying close) pairs, one per quote date.

    A date's first quote, in file order, gives its close.
    """
    dates, first = np.unique(chain.quote_date, return_index=True)
    return list(zip(dates.tolist(), chain.underlying_close[first].tolist()))
