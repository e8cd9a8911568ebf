"""Seeded generator for the large-chain workload.

Simulates one GARCH(1,1) variance path with a random-walk rate and a
geometric Brownian underlying (the package's model, written out here so
the inputs do not depend on the code under test), then prices a whole
option chain on it with Black-Scholes: every listed strike, every live
expiry, calls and puts, one row per contract per trading day.
A small share of put rows carries no price at all, as vendor files do;
the loader must reject exactly those.

    python3 perfbench/chaingen.py --seed 7 --out-dir chain-out

writes ``chain.csv``, ``run.cfg``, ``truth.csv`` and ``manifest.json``.
The same seed and sizes give byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import ndtr

START = np.datetime64("2020-01-02")
ANNUALIZATION = 252.0
V_FLOOR = 1e-8

OMEGA, ALPHA, BETA = 8e-6, 0.10, 0.85
Q11, Q22 = 6.4e-11, 1.6e-7
OBS_VAR = 2.5e-3
V0, R0, S0 = 1.6e-4, 0.02, 100.0
NO_PRICE_SHARE = 0.002

# days: trading days quoted; strikes: listed strikes around S0 (step 1);
# expiries: evenly spaced expiries, the last one outliving the quoted span so
# the backtested contract covers every day; train_days: in-sample span,
# at least the 31 closes GARCH calibration needs.
SIZES = {
    "full": {"days": 250, "strikes": 67, "expiries": 8, "train_days": 100, "pcrlb": 200},
    "smoke": {"days": 50, "strikes": 5, "expiries": 2, "train_days": 35, "pcrlb": 20},
}


def simulate_path(rng: np.random.Generator, n_days: int):
    """Spot, variance and rate per day, stepped exactly as the package's model."""
    spot = np.empty(n_days)
    var = np.empty(n_days)
    rate = np.empty(n_days)
    s, v, r = S0, V0, R0
    for t in range(n_days):
        if t > 0:
            shock = rng.standard_normal()
            s_next = s * math.exp(r / ANNUALIZATION - 0.5 * v + math.sqrt(v) * shock)
            u = math.log(s_next / s)
            s = s_next
            noise_v, noise_r = rng.standard_normal(2) * (math.sqrt(Q11), math.sqrt(Q22))
            v = max(OMEGA + ALPHA * u * u + BETA * v + noise_v, V_FLOOR)
            r = r + noise_r
        spot[t], var[t], rate[t] = s, v, r
    return spot, var, rate


def bs_prices(s, k, tau, v, r, is_call):
    sigma = np.sqrt(ANNUALIZATION * v)
    vol = sigma * np.sqrt(tau)
    disc_k = k * np.exp(-r * tau)
    d1 = (np.log(s / k) + (r + 0.5 * sigma**2) * tau) / vol
    d2 = d1 - vol
    call = s * ndtr(d1) - disc_k * ndtr(d2)
    put = call - s + disc_k
    return np.maximum(np.where(is_call, call, put), 0.0)


def generate(seed: int, out_dir, size: str = "full") -> dict:
    dims = SIZES[size]
    n_days = dims["days"]
    rng = np.random.default_rng(seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    dates = np.busday_offset(START, np.arange(n_days))
    # evenly spaced expiries; the last one lies beyond the quoted span
    step = max(n_days // (dims["expiries"] - 1), 2)
    expiries = np.busday_offset(START, step * np.arange(1, dims["expiries"] + 1) + n_days // 8)
    strikes = S0 + np.arange(dims["strikes"]) - dims["strikes"] // 2
    spot, var, rate = simulate_path(rng, n_days)

    # one row per (day, live expiry, strike, side)
    day_idx, exp_idx, k_idx, side = (
        a.ravel()
        for a in np.meshgrid(
            np.arange(n_days), np.arange(expiries.size), np.arange(strikes.size), (1, 0),
            indexing="ij",
        )
    )
    tau_days = np.busday_count(dates[day_idx], expiries[exp_idx])
    live = tau_days > 0
    day_idx, exp_idx, k_idx, side, tau_days = (a[live] for a in (day_idx, exp_idx, k_idx, side, tau_days))
    n_rows = day_idx.size

    is_call = side == 1
    clean = bs_prices(
        spot[day_idx], strikes[k_idx], tau_days / ANNUALIZATION, var[day_idx], rate[day_idx], is_call
    )
    mid = np.maximum(clean + math.sqrt(OBS_VAR) * rng.standard_normal(n_rows), 0.0)
    half_spread = 0.01 + 0.005 * mid
    bid = np.maximum(mid - half_spread, 0.0)
    ask = mid + half_spread
    volume = rng.integers(1, 5000, n_rows)
    no_price = (~is_call) & (rng.random(n_rows) < NO_PRICE_SHARE)
    iv = np.sqrt(ANNUALIZATION * var)

    date_text = [str(d) for d in dates]
    expiry_text = [str(e) for e in expiries]
    strike_text = [repr(float(k)) for k in strikes]
    with open(out / "chain.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quote_date", "expiry_date", "strike", "side", "bid", "ask", "last",
                         "volume", "underlying_close", "implied_vol"])
        for i in range(n_rows):
            d = day_idx[i]
            if no_price[i]:
                prices = ("", "", "")
            else:
                prices = (repr(float(bid[i])), repr(float(ask[i])), repr(float(mid[i])))
            writer.writerow([
                date_text[d], expiry_text[exp_idx[i]], strike_text[k_idx[i]],
                "C" if is_call[i] else "P", *prices, str(int(volume[i])),
                repr(float(spot[d])), repr(float(iv[d])),
            ])

    with open(out / "truth.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "v", "r"])
        for t in range(n_days):
            writer.writerow([date_text[t], repr(float(var[t])), repr(float(rate[t]))])

    # the filters start from the model's own parameters; calibration refits
    # the GARCH block on the training span
    (out / "run.cfg").write_text(
        "garch.calibrate = true\n"
        f"garch.omega = {OMEGA!r}\ngarch.alpha = {ALPHA!r}\ngarch.beta = {BETA!r}\n"
        f"noise.q11 = {Q11!r}\nnoise.q22 = {Q22!r}\nnoise.r = {OBS_VAR!r}\n"
        f"v0 = {V0!r}\nr0 = {R0!r}\n"
        f"pcrlb.n_particles = {dims['pcrlb']}\n",
        encoding="utf-8",
    )

    manifest = {
        "rows": int(n_rows),
        "no_price_rows": int(no_price.sum()),
        "strike": float(S0),
        "expiry": expiry_text[-1],
        "train_end": date_text[dims["train_days"] - 1],
        "test_end": date_text[-1],
        "steps": n_days,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)
    print(json.dumps(generate(args.seed, args.out_dir, args.size)))


if __name__ == "__main__":
    main()
