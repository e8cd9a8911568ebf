"""Reference implementations the tests trust.

Everything here is written from textbook formulas with no imports from the
package under test, so a test that compares against these functions is an
actual cross-check and not a tautology.
"""

from __future__ import annotations

import csv
import datetime as dt
import math

import numpy as np


def norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def bs_call(s: float, k: float, r: float, sigma: float, tau: float) -> float:
    """European call value from the closed form, with the deterministic limits."""
    if tau <= 0.0:
        return max(s - k, 0.0)
    if sigma <= 0.0:
        return max(s - k * math.exp(-r * tau), 0.0)
    srt = sigma * math.sqrt(tau)
    d1 = (math.log(s / k) + (r + 0.5 * sigma * sigma) * tau) / srt
    d2 = d1 - srt
    return s * norm_cdf(d1) - k * math.exp(-r * tau) * norm_cdf(d2)


def bs_put(s: float, k: float, r: float, sigma: float, tau: float) -> float:
    if tau <= 0.0:
        return max(k - s, 0.0)
    if sigma <= 0.0:
        return max(k * math.exp(-r * tau) - s, 0.0)
    srt = sigma * math.sqrt(tau)
    d1 = (math.log(s / k) + (r + 0.5 * sigma * sigma) * tau) / srt
    d2 = d1 - srt
    return k * math.exp(-r * tau) * norm_cdf(-d2) - s * norm_cdf(-d1)


def mc_call(s, k, r, sigma, tau, n_paths, seed=0):
    """Monte-Carlo call price under the risk-neutral lognormal terminal law."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n_paths)
    st = s * np.exp((r - 0.5 * sigma * sigma) * tau + sigma * math.sqrt(tau) * z)
    payoff = np.maximum(st - k, 0.0)
    disc = math.exp(-r * tau)
    price = disc * payoff.mean()
    stderr = disc * payoff.std(ddof=1) / math.sqrt(n_paths)
    return price, stderr


def garch_log_likelihood(returns, omega, alpha, beta):
    """Gaussian GARCH(1,1) log-likelihood by the direct recursion, one return at a time.

    h starts at the sample variance (or the unconditional one when that is
    zero), and h_t = omega + alpha u_{t-1}^2 + beta h_{t-1}.
    """
    h = float(np.var(returns)) or omega / (1.0 - alpha - beta)
    ll = 0.0
    for u in returns:
        ll -= 0.5 * (math.log(2.0 * math.pi * h) + u * u / h)
        h = omega + alpha * u * u + beta * h
    return ll


def kalman_step(mean, cov, y, a, c, q, r):
    """One predict-then-update step of the standard Kalman filter."""
    mean = a @ mean
    cov = a @ cov @ a.T + q
    innov_cov = c @ cov @ c.T + r
    gain = cov @ c.T @ np.linalg.inv(innov_cov)
    mean = mean + gain @ (np.atleast_1d(y) - c @ mean)
    cov = (np.eye(mean.size) - gain @ c) @ cov
    return mean, 0.5 * (cov + cov.T)


def kalman_filter(ys, a, c, q, r, x0, p0):
    """Posterior (mean, cov) trajectory; (x0, p0) is the belief before the first predict."""
    mean = np.asarray(x0, dtype=float)
    cov = np.asarray(p0, dtype=float)
    means, covs = [], []
    for y in ys:
        mean, cov = kalman_step(mean, cov, y, a, c, q, r)
        means.append(mean)
        covs.append(cov)
    return np.asarray(means), np.asarray(covs)


def simulate_linear(a, c, q, r, x0, p0, n_steps, rng):
    """Sample a trajectory of the linear-Gaussian model; x_1 already includes one transition."""
    dim_x = a.shape[0]
    dim_y = c.shape[0]
    chol_q = np.linalg.cholesky(q)
    chol_r = np.linalg.cholesky(r)
    chol_p0 = np.linalg.cholesky(p0)
    x = np.asarray(x0, dtype=float) + chol_p0 @ rng.standard_normal(dim_x)
    xs, ys = [], []
    for _ in range(n_steps):
        x = a @ x + chol_q @ rng.standard_normal(dim_x)
        y = c @ x + chol_r @ rng.standard_normal(dim_y)
        xs.append(x.copy())
        ys.append(y.copy())
    return np.asarray(xs), np.asarray(ys)


def central_difference(f, x, h):
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    h = np.broadcast_to(np.asarray(h, dtype=float), x.shape)
    grad = np.empty(x.size)
    for i in range(x.size):
        step = np.zeros(x.size)
        step[i] = h[i]
        grad[i] = (f(x + step) - f(x - step)) / (2.0 * h[i])
    return grad


def exact_linear_dtriple(a, c, q, r):
    """Information-recursion blocks for a linear model, where the expectations are exact."""
    qi = np.linalg.inv(q)
    ri = np.linalg.inv(r)
    d11 = a.T @ qi @ a
    d12 = -(a.T @ qi)
    d22 = qi + c.T @ ri @ c
    return d11, d12, d22


def information_recursion(a, c, q, r, p0, n_steps):
    """Exact posterior-information trajectory for the linear-Gaussian model."""
    d11, d12, d22 = exact_linear_dtriple(a, c, q, r)
    j = np.linalg.inv(np.asarray(p0, dtype=float))
    out = []
    for _ in range(n_steps):
        j = d22 - d12.T @ np.linalg.inv(j + d11) @ d12
        out.append(j.copy())
    return out


def extended_kalman_quadratic(ys, a, c, b, q, r, x0, p0):
    """EKF posterior trajectory for x' = A x + w, y = C x + b x_0^2 + z."""
    b = np.asarray(b, dtype=float)
    mean = np.asarray(x0, dtype=float)
    cov = np.asarray(p0, dtype=float)
    means, covs = [], []
    for y in ys:
        mean = a @ mean
        cov = a @ cov @ a.T + q
        h = np.array(c, dtype=float)
        h[:, 0] += 2.0 * mean[0] * b
        gain = cov @ h.T @ np.linalg.inv(h @ cov @ h.T + r)
        mean = mean + gain @ (np.atleast_1d(y) - c @ mean - b * mean[0] ** 2)
        cov = (np.eye(mean.size) - gain @ h) @ cov
        cov = 0.5 * (cov + cov.T)
        means.append(mean)
        covs.append(cov)
    return np.asarray(means), np.asarray(covs)


def quadratic_measurement_information(a, c, b, q, r, p0, beliefs):
    """Exact information trajectory of the bound recursion for y = C x + b x_0^2 + z.

    Each step starts from a Gaussian belief (m, P) and averages the
    measurement term over its prediction N(A m, A P A' + Q), on which
    E[H' R^-1 H] has a closed form because H = C + 2 b x_0 e_0' is affine
    in x. The transition is linear, so D11 and D12 are the linear ones.
    """
    b = np.asarray(b, dtype=float)
    ri = np.linalg.inv(r)
    d11, d12, d22_linear = exact_linear_dtriple(a, c, q, r)
    e0 = np.zeros(a.shape[0])
    e0[0] = 1.0
    cross = np.outer(c.T @ ri @ b, e0)
    quad = float(b @ ri @ b) * np.outer(e0, e0)
    j = np.linalg.inv(np.asarray(p0, dtype=float))
    out = []
    for mean, cov in beliefs:
        mu0 = (a @ mean)[0]
        var0 = (a @ cov @ a.T + q)[0, 0]
        d22 = d22_linear + 2.0 * mu0 * (cross + cross.T) + 4.0 * (mu0 ** 2 + var0) * quad
        j = d22 - d12.T @ np.linalg.inv(j + d11) @ d12
        out.append(j.copy())
    return out


CHAIN_COLUMNS = (
    "quote_date", "expiry_date", "strike", "side", "bid", "ask", "last", "volume",
    "underlying_close", "implied_vol",
)


def _maybe_float(text):
    text = (text or "").strip()
    if not text:
        return None
    return float(text)


def _side(text):
    low = text.strip().lower()
    if low in ("c", "call"):
        return "C"
    if low in ("p", "put"):
        return "P"
    raise ValueError(f"unknown side {text!r}")


def rowwise_load_chain(path, columns=None):
    """The chain loader as it was before columnar ingestion, one dict per row.

    Returns (quotes, rejects): each quote a tuple in ``OptionQuote`` field
    order (quote_date, expiry_date, strike, side, price, volume,
    underlying_close, implied_vol), each reject a (line, reason) pair.
    Known to be wrong on blank lines (it numbers the rows after one a line
    too low) and on rows shorter than the header, so tests leave those out.
    """
    colmap = {c: c for c in CHAIN_COLUMNS}
    colmap.update(columns or {})
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        has_iv = colmap["implied_vol"] in reader.fieldnames
        rows = list(reader)
    quotes, rejects = [], []
    for i, row in enumerate(rows):
        line = i + 2
        try:
            quote_date = dt.date.fromisoformat(row[colmap["quote_date"]].strip())
            expiry_date = dt.date.fromisoformat(row[colmap["expiry_date"]].strip())
            strike = float(row[colmap["strike"]])
            side = _side(row[colmap["side"]])
            volume = float(row[colmap["volume"]])
            underlying = float(row[colmap["underlying_close"]])
            bid = _maybe_float(row[colmap["bid"]])
            ask = _maybe_float(row[colmap["ask"]])
            last = _maybe_float(row[colmap["last"]])
            iv = _maybe_float(row[colmap["implied_vol"]]) if has_iv else None
        except (ValueError, TypeError, KeyError) as e:
            rejects.append((line, f"unparseable field: {e}"))
            continue
        if bid is not None and ask is not None:
            price = 0.5 * (bid + ask)
        elif last is not None:
            price = last
        else:
            rejects.append((line, "no usable price (bid/ask pair or last required)"))
            continue
        reason = None
        if not math.isfinite(price) or price < 0.0:
            reason = "price < 0"
        elif strike <= 0.0 or not math.isfinite(strike):
            reason = "strike <= 0"
        elif underlying <= 0.0 or not math.isfinite(underlying):
            reason = "underlying_close <= 0"
        elif volume < 0.0 or not math.isfinite(volume):
            reason = "volume < 0"
        elif expiry_date < quote_date:
            reason = "expiry before quote date"
        elif side == "C" and price > underlying:
            reason = "call price > underlying_close"
        if reason is not None:
            rejects.append((line, reason))
            continue
        quotes.append((quote_date, expiry_date, strike, side, price, volume, underlying, iv))
    return quotes, rejects


# Quote tuples below are in rowwise_load_chain's field order.
_DATE, _EXPIRY, _STRIKE, _SIDE, _PRICE, _VOLUME, _CLOSE = range(7)


def rowwise_max_volume(quotes, keep):
    """Per quote date, in date order, the kept quote with the most volume.

    Ties go to the lower strike, then to the earlier quote in the list.
    """
    best = {}
    for q in quotes:
        if not keep(q):
            continue
        b = best.get(q[_DATE])
        if b is None or q[_VOLUME] > b[_VOLUME] or (q[_VOLUME] == b[_VOLUME] and q[_STRIKE] < b[_STRIKE]):
            best[q[_DATE]] = q
    return [best[d] for d in sorted(best)]


def rowwise_prior_close(quotes, date):
    """Close of the first quote on the latest date strictly before ``date``, or None."""
    before = [q for q in quotes if q[_DATE] < date]
    if not before:
        return None
    latest = max(q[_DATE] for q in before)
    return next(q[_CLOSE] for q in before if q[_DATE] == latest)


def rowwise_closes_by_date(quotes):
    """(date, close of the date's first quote) in date order."""
    first = {}
    for q in quotes:
        first.setdefault(q[_DATE], q[_CLOSE])
    return sorted(first.items())
