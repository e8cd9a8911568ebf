"""Option-chain ingestion, per-contract series construction, synthetic data.

The canonical chain CSV schema is one quote per row:

    quote_date, expiry_date, strike, side, bid, ask, last, volume,
    underlying_close, implied_vol (optional)

Dates are ISO-8601, the file is comma-separated UTF-8 with a header.
Vendor files with different headers are adapted through a
``data.columns.*`` mapping in the run config.

``load_chain`` reads the file once, a chunk of rows at a time, into numpy
columns: an ``OptionChain``, which is also a read-only sequence of
``OptionQuote``. Every non-blank row either becomes a quote of the chain
or lands in the rejects list with its file line and a reason; nothing is
dropped silently. The series builders select rows on the columns and
build quotes only for the rows they keep.
"""

from __future__ import annotations

import csv
import datetime as dt
import itertools
import logging
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace

import numpy as np

from .bsgarch import BsGarchModel, ContractSpec, ExogenousInputs, ModelSpec, gbm_propagate
from .exceptions import FormatError, InsufficientDataError, InvalidInputError, SchemaError

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
# fields in the order a row's first failing one gives its reject reason
_PARSE_ORDER = (
    "quote_date", "expiry_date", "strike", "side", "volume", "underlying_close",
    "bid", "ask", "last", "implied_vol",
)
_OPTIONAL = ("bid", "ask", "last", "implied_vol")  # a blank field is absent
# then the value checks, in the same first-failure order; entry 0 is a
# field that failed to parse, whose reason is its own message
_CHECK_REASONS = (
    None,
    "no usable price (bid/ask pair or last required)",
    "price < 0",
    "strike <= 0",
    "underlying_close <= 0",
    "volume < 0",
    "expiry before quote date",
)
_CHUNK_ROWS = 4096  # rows parsed per step: few live row lists, few numpy calls
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()
_NAT = np.iinfo(np.int64).min  # the int64 behind datetime64's NaT


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


@dataclass(frozen=True, eq=False)
class OptionChain(Sequence):
    """Accepted quotes of a chain as read-only numpy columns, one entry per row.

    A read-only sequence of ``OptionQuote``: ``chain[i]`` builds the quote
    of row ``i`` when asked, with Python ``float``, ``dt.date`` and ``str``
    fields. The series builders select rows on the columns and build
    quotes only for the rows they keep.
    """

    quote_date: np.ndarray  # datetime64[D]
    expiry_date: np.ndarray  # datetime64[D]
    strike: np.ndarray
    is_call: np.ndarray  # bool; the quote's side is "C" or "P"
    price: np.ndarray
    volume: np.ndarray
    underlying_close: np.ndarray
    implied_vol: np.ndarray  # NaN where has_implied_vol is False
    has_implied_vol: np.ndarray  # bool

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False

    @classmethod
    def from_quotes(cls, quotes) -> "OptionChain":
        """Columns of a sequence of quotes; a chain is returned as it is."""
        if isinstance(quotes, cls):
            return quotes
        quotes = list(quotes)
        ivs = [q.implied_vol for q in quotes]
        return cls(
            quote_date=np.array([q.quote_date for q in quotes], dtype="datetime64[D]"),
            expiry_date=np.array([q.expiry_date for q in quotes], dtype="datetime64[D]"),
            strike=np.array([q.strike for q in quotes], dtype=float),
            is_call=np.array([q.side == "C" for q in quotes], dtype=bool),
            price=np.array([q.price for q in quotes], dtype=float),
            volume=np.array([q.volume for q in quotes], dtype=float),
            underlying_close=np.array([q.underlying_close for q in quotes], dtype=float),
            implied_vol=np.array([np.nan if v is None else v for v in ivs], dtype=float),
            has_implied_vol=np.array([v is not None for v in ivs], dtype=bool),
        )

    def __len__(self):
        return len(self.price)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]
        return OptionQuote(
            quote_date=self.quote_date[i].item(),
            expiry_date=self.expiry_date[i].item(),
            strike=self.strike[i].item(),
            side="C" if self.is_call[i] else "P",
            price=self.price[i].item(),
            volume=self.volume[i].item(),
            underlying_close=self.underlying_close[i].item(),
            implied_vol=self.implied_vol[i].item() if self.has_implied_vol[i] else None,
        )

    def __iter__(self):
        rows = zip(*(getattr(self, f.name).tolist() for f in fields(self)))
        for qd, ed, k, call, p, v, s, iv, has_iv in rows:
            yield OptionQuote(qd, ed, k, "C" if call else "P", p, v, s, iv if has_iv else None)


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

    def with_prior_close(self, prior_close: float) -> "ContractSeries":
        """The same series with the first step's log-return taken from ``prior_close``."""
        first = self.points[0]
        u = math.log(first.quote.underlying_close / prior_close)
        head = SeriesPoint(quote=first.quote, ex=replace(first.ex, u=u))
        return replace(self, points=[head, *self.points[1:]])


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


class _ParseOnce(dict):
    """Parsed value per distinct text: each date or side string is parsed once.

    A text that fails to parse maps to ``bad`` and keeps its reject reason
    in ``reasons``.
    """

    def __init__(self, parse, bad):
        super().__init__()
        self.parse = parse
        self.bad = bad
        self.reasons: dict = {}

    def __missing__(self, text):
        try:
            value = self.parse(text)
        except ValueError as e:
            value = self.bad
            self.reasons[text] = f"unparseable field: {e}"
        self[text] = value
        return value


def _codes(texts, cache: _ParseOnce, dtype, errors: dict) -> np.ndarray:
    out = np.fromiter(map(cache.__getitem__, texts), dtype, len(texts))
    if cache.reasons:
        for i in np.flatnonzero(out == cache.bad).tolist():
            errors.setdefault(i, cache.reasons[texts[i]])
    return out


def _floats(texts, optional: bool, errors: dict):
    """(values, absent) of a column's texts, as ``float()`` reads them.

    A blank text of an optional field is absent and NaN; a text that fails
    is NaN and gives its row's reason.
    """
    n = len(texts)
    absent = np.fromiter(map(operator.not_, texts), bool, n) if optional else np.zeros(n, bool)
    try:
        filled = [t or "nan" for t in texts] if absent.any() else texts
        return np.fromiter(map(float, filled), np.float64, n), absent
    except ValueError:
        pass  # convert one by one to find the failing texts and their messages
    out = np.full(n, np.nan)
    for i, text in enumerate(texts):
        if optional:
            text = text.strip()
            absent[i] = not text
            if not text:
                continue
        try:
            out[i] = float(text)
        except ValueError as e:
            errors.setdefault(i, f"unparseable field: {e}")
    return out, absent


def _row_chunks(reader):
    """(rows, the file line each row starts on), a chunk at a time; blank lines dropped."""
    while True:
        start = reader.line_num
        rows = list(itertools.islice(reader, _CHUNK_ROWS))
        if not rows:
            return
        if reader.line_num - start == len(rows):
            lines = np.arange(start + 1, reader.line_num + 1)
        else:  # a quoted field spans lines: count the line breaks inside each row
            spans = [sum(f.count("\n") + f.count("\r") - f.count("\r\n") for f in row) + 1 for row in rows]
            lines = start + 1 + np.cumsum([0] + spans[:-1])
        if [] in rows:  # csv.reader yields a blank line as []
            keep = [i for i, row in enumerate(rows) if row]
            rows = [rows[i] for i in keep]
            lines = lines[keep]
        if rows:
            yield rows, lines


def _parse_rows(rows, layout: dict, dates: _ParseOnce, sides: _ParseOnce):
    """Columns of one chunk, and {row: reason} for its rows that fail to parse.

    Fields go in ``_PARSE_ORDER``, so a row's reason is the one of its
    first failing field. A field past the end of a short row is missing;
    only the optional implied vol may be.
    """
    width = max(j for _, j in layout.values()) + 1
    lengths = None
    if min(map(len, rows)) < width:
        lengths = np.fromiter(map(len, rows), np.intp, len(rows))
        rows = [row + [""] * (width - len(row)) for row in rows]
    errors: dict = {}
    out = {}
    for name, (header, j) in layout.items():
        if lengths is not None and name != "implied_vol":
            for i in np.flatnonzero(lengths <= j).tolist():
                errors.setdefault(i, f"missing field: {header}")
        texts = list(map(operator.itemgetter(j), rows))
        if name in ("quote_date", "expiry_date"):
            out[name] = _codes(texts, dates, np.int64, errors)
        elif name == "side":
            out[name] = _codes(texts, sides, np.int8, errors)
        else:
            out[name], out[name + "_absent"] = _floats(texts, name in _OPTIONAL, errors)
    return out, errors


def load_chain(path, columns: dict | None = None):
    """Parse a chain CSV into an ``OptionChain`` plus a rejects list.

    ``columns`` maps canonical names to the file's actual headers.
    Missing required headers raise ``SchemaError``; unreadable files raise
    ``FormatError``. Row-level problems become ``RejectedRow`` entries at
    the file line the row starts on, so accepted + rejected always equals
    the number of non-blank rows. A row's reason is its first failing field
    in ``_PARSE_ORDER``, else its first failing value check.
    """
    colmap = {c: c for c in CANONICAL_COLUMNS}
    if columns:
        colmap.update(columns)
    dates = _ParseOnce(lambda text: _parse_date(text).toordinal() - _EPOCH_ORDINAL, _NAT)
    sides = _ParseOnce(lambda text: _parse_side(text) == "C", -1)
    parts, line_parts, errors = [], [], {}
    n = 0
    # until its header has been read, the file is not known to be a chain
    kind = "file"
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty file, no header")
            missing = [c for c in _REQUIRED if colmap[c] not in header]
            if missing:
                raise SchemaError(f"{path}: missing required column(s) {missing}")
            kind = "chain file"
            # a repeated header reads its last column, as csv.DictReader did
            position = {name: j for j, name in enumerate(header)}
            layout = {c: (colmap[c], position[colmap[c]]) for c in _PARSE_ORDER if colmap[c] in position}
            for rows, row_lines in _row_chunks(reader):
                part, part_errors = _parse_rows(rows, layout, dates, sides)
                errors.update((n + i, reason) for i, reason in part_errors.items())
                parts.append(part)
                line_parts.append(row_lines)
                n += len(rows)
    except (OSError, UnicodeDecodeError) as e:
        raise FormatError(f"cannot read {kind} {path}: {e}") from e
    except csv.Error as e:
        raise FormatError(f"cannot parse {kind} {path}: {e}") from e
    if not parts:
        return OptionChain.from_quotes([]), []

    col = {name: np.concatenate([p[name] for p in parts]) for name in parts[0]}
    lines = np.concatenate(line_parts)
    if "implied_vol" not in col:
        col["implied_vol"] = np.full(n, np.nan)
        col["implied_vol_absent"] = np.ones(n, dtype=bool)
    parsed = np.ones(n, dtype=bool)
    parsed[list(errors)] = False
    pair = ~(col["bid_absent"] | col["ask_absent"])
    with np.errstate(invalid="ignore", over="ignore"):
        price = np.where(pair, 0.5 * (col["bid"] + col["ask"]), col["last"])
        failure = np.select(
            [
                ~parsed,
                ~pair & col["last_absent"],
                ~np.isfinite(price) | (price < 0.0),
                (col["strike"] <= 0.0) | ~np.isfinite(col["strike"]),
                (col["underlying_close"] <= 0.0) | ~np.isfinite(col["underlying_close"]),
                (col["volume"] < 0.0) | ~np.isfinite(col["volume"]),
                col["expiry_date"] < col["quote_date"],
            ],
            range(len(_CHECK_REASONS)),
            -1,
        )
    rejected = np.flatnonzero(failure >= 0)
    rejects = [
        RejectedRow(line, errors[i] if k == 0 else _CHECK_REASONS[k])
        for i, line, k in zip(rejected.tolist(), lines[rejected].tolist(), failure[rejected].tolist())
    ]
    ok = failure < 0
    chain = OptionChain(
        quote_date=col["quote_date"][ok].view("datetime64[D]"),
        expiry_date=col["expiry_date"][ok].view("datetime64[D]"),
        strike=col["strike"][ok],
        is_call=col["side"][ok] == 1,
        price=price[ok],
        volume=col["volume"][ok],
        underlying_close=col["underlying_close"][ok],
        implied_vol=col["implied_vol"][ok],
        has_implied_vol=~col["implied_vol_absent"][ok],
    )
    if rejects:
        logger.info("chain load: %d quotes accepted, %d rows rejected", len(chain), len(rejects))
    return chain, rejects


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

    Of several rows on that latest date, the first in file order counts.
    Lets the first step's log-return come from real data instead of zero.
    """
    chain = OptionChain.from_quotes(quotes)
    before = chain.quote_date < np.datetime64(date, "D")
    if not before.any():
        return None
    latest = chain.quote_date[before].max()
    return chain.underlying_close[np.argmax(chain.quote_date == latest)].item()


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


def _max_volume_rows(chain: OptionChain, mask: np.ndarray) -> np.ndarray:
    """Per date among the masked rows, in date order, the row with the most volume.

    Ties go to the lower strike, then to the first row in file order.
    """
    rows = np.flatnonzero(mask)
    # lexsort is stable, so rows equal on every key stay in file order
    rows = rows[np.lexsort((chain.strike[rows], -chain.volume[rows], chain.quote_date[rows]))]
    dates = chain.quote_date[rows]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = dates[1:] != dates[:-1]
    return rows[first]


def _series_points(chain: OptionChain, rows: np.ndarray, per_point_contract: bool):
    """Points of the chosen rows; the first step's log-return is 0."""
    tau_days = np.busday_count(chain.quote_date[rows], chain.expiry_date[rows]).tolist()
    points = []
    prev_close = None
    for i, days in zip(rows.tolist(), tau_days):
        q = chain[i]
        contract = None
        if per_point_contract:
            contract = ContractSpec(strike=q.strike, expiry_step=days, is_call=q.side == "C")
        ex = ExogenousInputs(
            s=q.underlying_close,
            u=0.0 if prev_close is None else math.log(q.underlying_close / prev_close),
            tau=days / TRADING_DAYS_PER_YEAR,
            contract=contract,
        )
        points.append(SeriesPoint(quote=q, ex=ex))
        prev_close = q.underlying_close
    return points


def build_series(
    quotes,
    strike: float,
    expiry_date: dt.date,
    is_call: bool = True,
) -> ContractSeries:
    """Chronological series for one contract, one quote per date by max volume.

    ``quotes`` is an ``OptionChain`` or any sequence of ``OptionQuote``.
    The first step's log-return is 0; ``ContractSeries.with_prior_close``
    takes it from the close before the series instead.
    """
    chain = OptionChain.from_quotes(quotes)
    mask = (
        (chain.is_call == is_call)
        & (chain.expiry_date == np.datetime64(expiry_date, "D"))
        & (np.abs(chain.strike - strike) <= 1e-9)
    )
    rows = _max_volume_rows(chain, mask)
    if rows.size < 2:
        raise InsufficientDataError(
            f"only {rows.size} usable dates for strike {strike} expiring {expiry_date}"
        )
    points = _series_points(chain, rows, per_point_contract=False)
    first_date = points[0].quote.quote_date
    contract = ContractSpec(
        strike=strike,
        expiry_step=trading_days_between(first_date, expiry_date),
        is_call=is_call,
    )
    return ContractSeries(
        points=points, strike=strike, expiry_date=expiry_date, is_call=is_call, contract=contract
    )


def max_volume_series(quotes) -> ContractSeries:
    """Liquidity-driven call series: per date, the call with the highest volume.

    The traded contract changes from step to step, so each point's
    exogenous inputs carry their own strike and expiry.
    """
    chain = OptionChain.from_quotes(quotes)
    rows = _max_volume_rows(chain, chain.is_call)
    if rows.size < 2:
        raise InsufficientDataError(f"only {rows.size} dates with call quotes")
    points = _series_points(chain, rows, per_point_contract=True)
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
    meas_std = math.sqrt(model.noise.r)

    states = np.empty((n_steps, 2))
    spots = np.empty(n_steps)
    clean = np.empty(n_steps)
    obs = np.empty(n_steps)
    exogenous = []

    adapter = BsGarchModel(model)
    chol_q = adapter.process_noise_factor()
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
    except (OSError, UnicodeDecodeError) as e:
        raise FormatError(f"cannot read series file {path}: {e}") from e
    return out
