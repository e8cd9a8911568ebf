"""Option-chain ingestion, per-contract series construction, synthetic data.

The canonical chain CSV schema is one quote per row:

    quote_date, expiry_date, strike, side, bid, ask, last, volume,
    underlying_close, implied_vol (optional)

Dates are ISO-8601, the file is comma-separated UTF-8 with a header.
Vendor files with different headers are adapted through a
``data.columns.*`` mapping in the run config. Every input row either
becomes an ``OptionQuote`` or lands in the rejects list with a reason;
nothing is dropped silently.
"""

from __future__ import annotations

import csv
import datetime as dt
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .bsgarch import BsGarchModel, ContractSpec, ExogenousInputs, ModelSpec, gbm_propagate
from .exceptions import FormatError, InsufficientDataError, InvalidInputError, SchemaError
from .linalg import safe_cholesky

logger = logging.getLogger(__name__)

TRADING_DAYS_PER_YEAR = 252

CANONICAL_COLUMNS = (
    "quote_date",
    "expiry_date",
    "strike",
    "side",
    "bid",
    "ask",
    "last",
    "volume",
    "underlying_close",
    "implied_vol",
)
_REQUIRED = tuple(c for c in CANONICAL_COLUMNS if c != "implied_vol")


@dataclass(frozen=True)
class OptionQuote:
    quote_date: dt.date
    expiry_date: dt.date
    strike: float
    side: str  # "C" | "P"
    price: float
    volume: float
    underlying_close: float
    implied_vol: float | None = None


@dataclass(frozen=True)
class RejectedRow:
    line: int
    reason: str


@dataclass(frozen=True)
class SeriesPoint:
    quote: OptionQuote
    ex: ExogenousInputs


@dataclass
class ContractSeries:
    """Chronological single-contract view ready for estimation.

    For the liquidity-driven series the traded contract changes per step;
    each point's exogenous inputs then carry their own contract and
    ``contract`` below describes the first step only.
    """

    points: list
    strike: float
    expiry_date: dt.date
    is_call: bool
    contract: ContractSpec

    def __len__(self):
        return len(self.points)

    @property
    def observations(self):
        return [p.quote.price for p in self.points]

    @property
    def exogenous(self):
        return [p.ex for p in self.points]

    @property
    def dates(self):
        return [p.quote.quote_date for p in self.points]


@dataclass
class SyntheticTruth:
    """Simulated ground truth: states, spots, clean and noisy prices."""

    states: np.ndarray  # (T, 2)
    spots: np.ndarray  # (T,)
    observations: np.ndarray  # (T,)
    clean_prices: np.ndarray  # (T,)
    exogenous: list
    seed: int
    dates: list | None = None


def trading_days_between(start: dt.date, end: dt.date) -> int:
    return int(np.busday_count(np.datetime64(start), np.datetime64(end)))


def _parse_date(text: str) -> dt.date:
    return dt.date.fromisoformat(text.strip())


def _parse_side(text: str) -> str:
    low = text.strip().lower()
    if low in ("c", "call"):
        return "C"
    if low in ("p", "put"):
        return "P"
    raise ValueError(f"unknown side {text!r}")


def _maybe_float(text):
    text = (text or "").strip()
    if not text:
        return None
    return float(text)


def load_chain(path, columns: dict | None = None):
    """Parse a chain CSV into quotes plus a rejects list.

    ``columns`` maps canonical names to the file's actual headers.
    Missing required headers raise ``SchemaError``; unreadable files raise
    ``FormatError``. Row-level problems become ``RejectedRow`` entries, so
    accepted + rejected always equals the input row count.
    """
    colmap = {c: c for c in CANONICAL_COLUMNS}
    if columns:
        colmap.update(columns)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames
            if header is None:
                raise SchemaError(f"{path}: empty file, no header")
            missing = [c for c in _REQUIRED if colmap[c] not in header]
            if missing:
                raise SchemaError(f"{path}: missing required column(s) {missing}")
            has_iv = colmap["implied_vol"] in header
            rows = list(reader)
    except OSError as e:
        raise FormatError(f"cannot read chain file {path}: {e}") from e
    except csv.Error as e:
        raise FormatError(f"cannot parse chain file {path}: {e}") from e

    quotes: list[OptionQuote] = []
    rejects: list[RejectedRow] = []
    for i, row in enumerate(rows):
        line = i + 2  # header is line 1
        try:
            quote_date = _parse_date(row[colmap["quote_date"]])
            expiry_date = _parse_date(row[colmap["expiry_date"]])
            strike = float(row[colmap["strike"]])
            side = _parse_side(row[colmap["side"]])
            volume = float(row[colmap["volume"]])
            underlying = float(row[colmap["underlying_close"]])
            bid = _maybe_float(row[colmap["bid"]])
            ask = _maybe_float(row[colmap["ask"]])
            last = _maybe_float(row[colmap["last"]])
            iv = _maybe_float(row[colmap["implied_vol"]]) if has_iv else None
        except (ValueError, TypeError, KeyError) as e:
            rejects.append(RejectedRow(line, f"unparseable field: {e}"))
            continue

        if bid is not None and ask is not None:
            price = 0.5 * (bid + ask)
        elif last is not None:
            price = last
        else:
            rejects.append(RejectedRow(line, "no usable price (bid/ask pair or last required)"))
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
        if reason is not None:
            rejects.append(RejectedRow(line, reason))
            continue

        quotes.append(
            OptionQuote(
                quote_date=quote_date,
                expiry_date=expiry_date,
                strike=strike,
                side=side,
                price=price,
                volume=volume,
                underlying_close=underlying,
                implied_vol=iv,
            )
        )
    if rejects:
        logger.info("chain load: %d quotes accepted, %d rows rejected", len(quotes), len(rejects))
    return quotes, rejects


def write_chain(path, quotes):
    """Write quotes back out in the canonical schema (bid = ask = last = price)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CANONICAL_COLUMNS)
        for q in quotes:
            writer.writerow(
                [
                    q.quote_date.isoformat(),
                    q.expiry_date.isoformat(),
                    repr(q.strike),
                    q.side,
                    repr(q.price),
                    repr(q.price),
                    repr(q.price),
                    repr(q.volume),
                    repr(q.underlying_close),
                    "" if q.implied_vol is None else repr(q.implied_vol),
                ]
            )


def prior_close_before(quotes, date: dt.date):
    """Latest underlying close strictly before ``date``, if the chain has one.

    Lets the first step's log-return come from real data instead of zero.
    """
    best_date = None
    best_close = None
    for q in quotes:
        if q.quote_date < date and (best_date is None or q.quote_date > best_date):
            best_date = q.quote_date
            best_close = q.underlying_close
    return best_close


def write_truth_states(path, truth: "SyntheticTruth"):
    """Per-step simulated truth: states, spot, clean and observed prices."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "date", "v", "r", "spot", "clean_price", "observed"])
        for t in range(len(truth.observations)):
            date = "" if truth.dates is None else truth.dates[t].isoformat()
            writer.writerow(
                [
                    t,
                    date,
                    repr(float(truth.states[t, 0])),
                    repr(float(truth.states[t, 1])),
                    repr(float(truth.spots[t])),
                    repr(float(truth.clean_prices[t])),
                    repr(float(truth.observations[t])),
                ]
            )


def _dedupe_by_volume(per_date: dict):
    """One quote per date: max volume, ties keep the lower strike then file order."""
    chosen = {}
    for date, candidates in per_date.items():
        best = candidates[0]
        for q in candidates[1:]:
            if q.volume > best.volume or (q.volume == best.volume and q.strike < best.strike):
                best = q
        chosen[date] = best
    return chosen


def _series_from_chosen(chosen: dict, prior_close, per_point_contract: bool):
    dates = sorted(chosen)
    points = []
    prev_close = prior_close
    for date in dates:
        q = chosen[date]
        tau_days = trading_days_between(date, q.expiry_date)
        tau = tau_days / TRADING_DAYS_PER_YEAR
        u = 0.0 if prev_close is None else math.log(q.underlying_close / prev_close)
        contract = None
        if per_point_contract:
            contract = ContractSpec(strike=q.strike, expiry_step=tau_days, is_call=q.side == "C")
        points.append(
            SeriesPoint(quote=q, ex=ExogenousInputs(s=q.underlying_close, u=u, tau=tau, contract=contract))
        )
        prev_close = q.underlying_close
    return points


def build_series(
    quotes,
    strike: float,
    expiry_date: dt.date,
    is_call: bool = True,
    prior_close: float | None = None,
) -> ContractSeries:
    """Chronological series for one contract, one quote per date by max volume.

    The first step's log-return uses ``prior_close`` when given, else 0.
    """
    side = "C" if is_call else "P"
    per_date: dict = {}
    for q in quotes:
        if q.side != side or q.expiry_date != expiry_date:
            continue
        if abs(q.strike - strike) > 1e-9:
            continue
        per_date.setdefault(q.quote_date, []).append(q)
    if len(per_date) < 2:
        raise InsufficientDataError(
            f"only {len(per_date)} usable dates for strike {strike} expiring {expiry_date}"
        )
    chosen = _dedupe_by_volume(per_date)
    points = _series_from_chosen(chosen, prior_close, per_point_contract=False)
    first_date = points[0].quote.quote_date
    contract = ContractSpec(
        strike=strike,
        expiry_step=trading_days_between(first_date, expiry_date),
        is_call=is_call,
    )
    return ContractSeries(
        points=points, strike=strike, expiry_date=expiry_date, is_call=is_call, contract=contract
    )


def max_volume_series(quotes, prior_close: float | None = None) -> ContractSeries:
    """Liquidity-driven call series: per date, the call with the highest volume.

    The traded contract changes from step to step, so each point's
    exogenous inputs carry their own strike and expiry.
    """
    per_date: dict = {}
    for q in quotes:
        if q.side != "C":
            continue
        per_date.setdefault(q.quote_date, []).append(q)
    if len(per_date) < 2:
        raise InsufficientDataError(f"only {len(per_date)} dates with call quotes")
    chosen = _dedupe_by_volume(per_date)
    points = _series_from_chosen(chosen, prior_close, per_point_contract=True)
    first = points[0]
    return ContractSeries(
        points=points,
        strike=first.quote.strike,
        expiry_date=first.quote.expiry_date,
        is_call=True,
        contract=first.ex.contract,
    )


def generate_synthetic(
    model: ModelSpec,
    n_steps: int,
    s0: float,
    x0: tuple[float, float],
    seed: int = 0,
    start_date: dt.date | None = None,
) -> SyntheticTruth:
    """Simulate the full model forward: GBM spot, GARCH states, noisy prices.

    ``x0`` is the initial state (v, r). The contract expires
    ``model.contract.expiry_step`` steps after t=0, so it must not expire
    before the simulation ends.
    """
    if n_steps < 1:
        raise InvalidInputError("n_steps must be positive")
    if model.contract.expiry_step < n_steps - 1:
        raise InvalidInputError("contract expires before the simulation ends")
    rng = np.random.default_rng(seed)
    chol_q = safe_cholesky(model.noise.q)
    meas_std = math.sqrt(model.noise.r)

    states = np.empty((n_steps, 2))
    spots = np.empty(n_steps)
    clean = np.empty(n_steps)
    obs = np.empty(n_steps)
    exogenous = []

    adapter = BsGarchModel(model)
    x = np.array([max(float(x0[0]), 0.0), float(x0[1])])
    spot = float(s0)
    u = 0.0
    for t in range(n_steps):
        tau = (model.contract.expiry_step - t) * model.dt
        if t > 0:
            prev_spot = spot
            shock = rng.standard_normal()
            spot = gbm_propagate(prev_spot, x[1], x[0], model.dt, shock)
            u = math.log(spot / prev_spot)
            ex = ExogenousInputs(s=spot, u=u, tau=tau)
            x = adapter.transition(x, ex, chol_q @ rng.standard_normal(2))
        else:
            ex = ExogenousInputs(s=spot, u=u, tau=tau)
        price = float(adapter.measurement(x, ex)[0])
        states[t] = x
        spots[t] = spot
        clean[t] = price
        obs[t] = price + meas_std * rng.standard_normal()
        exogenous.append(ex)

    dates = None
    if start_date is not None:
        day = np.datetime64(start_date)
        if not np.is_busday(day):
            day = np.busday_offset(day, 0, roll="forward")
        offsets = np.busday_offset(day, np.arange(n_steps))
        dates = [d.astype(dt.date) for d in offsets]
    return SyntheticTruth(
        states=states,
        spots=spots,
        observations=obs,
        clean_prices=clean,
        exogenous=exogenous,
        seed=seed,
        dates=dates,
    )


def truth_to_quotes(truth: SyntheticTruth, model: ModelSpec) -> list:
    """Render a synthetic run as canonical chain quotes (needs dated output)."""
    if truth.dates is None:
        raise InvalidInputError("synthetic truth has no dates; pass start_date when generating")
    expiry = truth.dates[0]
    expiry = np.busday_offset(np.datetime64(expiry), model.contract.expiry_step).astype(dt.date)
    quotes = []
    for t, date in enumerate(truth.dates):
        quotes.append(
            OptionQuote(
                quote_date=date,
                expiry_date=expiry,
                strike=model.contract.strike,
                side="C" if model.contract.is_call else "P",
                price=float(truth.observations[t]),
                volume=float(100 + t),
                underlying_close=float(truth.spots[t]),
                implied_vol=None,
            )
        )
    return quotes


def load_value_series(path):
    """Two-column date,value CSV used for external comparison series."""
    out = []
    seen_row = False
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            for i, row in enumerate(csv.reader(fh)):
                if not row or not "".join(row).strip():
                    continue
                if len(row) < 2:
                    raise FormatError(f"{path}: line {i + 1}: expected date,value")
                first_row, seen_row = not seen_row, True
                first = row[0].strip()
                try:
                    date = _parse_date(first)
                except ValueError:
                    if first_row:  # tolerate a header on the first non-blank row
                        continue
                    raise FormatError(f"{path}: line {i + 1}: bad date {first!r}") from None
                try:
                    value = float(row[1])
                except ValueError:
                    raise FormatError(f"{path}: line {i + 1}: bad value {row[1]!r}") from None
                out.append((date, value))
    except OSError as e:
        raise FormatError(f"cannot read series file {path}: {e}") from e
    return out
