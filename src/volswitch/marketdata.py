"""Option-chain ingestion, per-contract series construction, synthetic data.

The canonical chain CSV schema is one quote per row:

    quote_date, expiry_date, strike, side, bid, ask, last, volume,
    underlying_close, implied_vol (optional)

Dates are ISO-8601, the file is comma-separated UTF-8 with a header.
Vendor files with different headers are adapted through a
``data.columns.*`` mapping in the run config.

``load_chain`` reads the file once, a chunk of rows at a time, into the
read-only numpy columns of an ``OptionChain``; a big file is cut into
line-aligned byte ranges that forked workers load side by side. Every
non-blank row either becomes a row of the chain or lands in the rejects
list with its file line and a reason; nothing is dropped silently. The
series builders select rows on the columns and read a ``ContractSeries``,
also columns, from the rows they keep.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import itertools
import logging
import math
import operator
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import workers
from .bsgarch import BsGarchModel, ContractSpec, ExogenousInputs, ModelSpec, gbm_propagate
from .exceptions import FormatError, InsufficientDataError, InvalidInputError, SchemaError, WorkerExitedError

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
    "call price > underlying_close",  # no call is worth more than its underlying
)
_CHUNK_ROWS = 4096  # rows parsed per step: few live row lists, few numpy calls
_MIN_RANGE_BYTES = 4 << 20  # a file is cut into ranges of at least this many bytes
_EPOCH_ORDINAL = dt.date(1970, 1, 1).toordinal()
_NAT = np.iinfo(np.int64).min  # the int64 behind datetime64's NaT


_CHAIN_DTYPES = dict(  # of each ``OptionChain`` column, also when the chain is empty
    quote_date="datetime64[D]", expiry_date="datetime64[D]", strike=float, is_call=bool, price=float,
    volume=float, underlying_close=float, implied_vol=float, has_implied_vol=bool,
)


@dataclass(frozen=True, eq=False)
class OptionChain:
    """Accepted quotes of a chain as read-only numpy columns, one entry per row."""

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
        lengths = {f.name: len(getattr(self, f.name)) for f in fields(self)}
        if len(set(lengths.values())) > 1:
            raise InvalidInputError(f"chain columns differ in length: {lengths}")
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False

    def __len__(self):
        return len(self.price)


@dataclass(frozen=True)
class RejectedRow:
    line: int
    reason: str


@dataclass
class ContractSeries:
    """One contract's price path as columns, one entry per step.

    ``dates`` are the quote dates, strictly increasing; ``prices`` the
    quotes the filters observe, ``closes`` the underlying's closes and
    ``exogenous`` each step's ``ExogenousInputs``. For the liquidity-driven
    series the traded contract changes per step; each step's inputs then
    carry their own contract and ``contract`` describes the first step only.
    """

    dates: list
    prices: list
    closes: list
    exogenous: list
    contract: ContractSpec

    def __len__(self):
        return len(self.prices)

    def with_prior_close(self, prior_close: float) -> "ContractSeries":
        """The same series with the first step's log-return taken from ``prior_close``."""
        head = replace(self.exogenous[0], u=math.log(self.closes[0] / prior_close))
        return replace(self, exogenous=[head, *self.exogenous[1:]])


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


def _plain_fields(lines, width: int):
    """Every field of a chunk of physical lines, row after row, if it is plain; else None.

    A chunk is plain when ``csv.reader`` would split each of its lines on
    its commas alone: no quote, no line ending but LF or CRLF, exactly
    ``width - 1`` commas per line (so no blank, short or long line) and no
    line longer than the csv module's field size limit.
    """
    text = "".join(lines).replace("\r\n", "\n")
    if '"' in text or "\r" in text or max(map(len, lines)) > csv.field_size_limit():
        return None
    if set(map(str.count, lines, itertools.repeat(","))) != {width - 1}:
        return None
    flat = text.replace("\n", ",").split(",")
    del flat[len(lines) * width:]  # the empty text after the last line's ending
    return flat


def _csv_chunks(reader, layout: dict, before: int):
    """(texts per column, field counts or None, file line of each row, file lines read) of csv rows, a chunk at a time.

    ``before`` is the number of file lines ahead of the reader's first one.
    Blank lines are dropped, so a chunk may have no rows. When some row of
    a chunk is short, its fields past the end read as blank and the field
    counts of the chunk's rows come along.
    """
    width = max(j for _, j in layout.values()) + 1
    while True:
        start = reader.line_num
        rows = list(itertools.islice(reader, _CHUNK_ROWS))
        if not rows:
            return
        if reader.line_num - start == len(rows):
            lines = np.arange(before + start + 1, before + reader.line_num + 1)
        else:  # a quoted field spans lines: count the line breaks inside each row
            spans = [sum(f.count("\n") + f.count("\r") - f.count("\r\n") for f in row) + 1 for row in rows]
            lines = before + start + 1 + np.cumsum([0] + spans[:-1])
        if [] in rows:  # csv.reader yields a blank line as []
            keep = [i for i, row in enumerate(rows) if row]
            rows = [rows[i] for i in keep]
            lines = lines[keep]
        lengths = None
        if rows and min(map(len, rows)) < width:
            lengths = np.fromiter(map(len, rows), np.intp, len(rows))
            rows = [row + [""] * (width - len(row)) for row in rows]
        texts = {name: list(map(operator.itemgetter(j), rows)) for name, (_, j) in layout.items()}
        yield texts, lengths, lines, before + reader.line_num


def _text_chunks(fh, width: int, layout: dict, before: int):
    """(texts per column, field counts or None, file line of each row, file lines read), a chunk at a time.

    Reads the rest of ``fh``, which starts after ``before`` file lines.
    Plain chunks are split on their commas; the first chunk that is not
    plain and the rest of ``fh`` go through one ``csv.reader``, so a quoted
    field may span the lines of two chunks.
    """
    while True:
        lines = list(itertools.islice(fh, _CHUNK_ROWS))
        if not lines:
            return
        flat = _plain_fields(lines, width)
        if flat is None:
            break
        texts = {name: flat[j::width] for name, (_, j) in layout.items()}
        yield texts, None, np.arange(before + 1, before + len(lines) + 1), before + len(lines)
        before += len(lines)
    yield from _csv_chunks(csv.reader(itertools.chain(lines, fh)), layout, before)


def _parse_rows(texts: dict, lengths, layout: dict, dates: _ParseOnce, sides: _ParseOnce):
    """Columns of one chunk, and {row: reason} for its rows that fail to parse.

    Fields go in ``_PARSE_ORDER``, so a row's reason is the one of its
    first failing field. A field past the end of a short row (``lengths``
    says how many fields each row has) is missing; only the optional
    implied vol may be.
    """
    errors: dict = {}
    out = {}
    for name, (header, j) in layout.items():
        if lengths is not None and name != "implied_vol":
            for i in np.flatnonzero(lengths <= j).tolist():
                errors.setdefault(i, f"missing field: {header}")
        if name in ("quote_date", "expiry_date"):
            out[name] = _codes(texts[name], dates, np.int64, errors)
        elif name == "side":
            out[name] = _codes(texts[name], sides, np.int8, errors)
        else:
            out[name], out[name + "_absent"] = _floats(texts[name], name in _OPTIONAL, errors)
    return out, errors


def _accept(col: dict, errors: dict, lines: np.ndarray):
    """The ``OptionChain`` columns of a chunk's accepted rows, and its rejects in row order.

    ``col`` and ``errors`` are what ``_parse_rows`` returned for the chunk,
    ``lines`` the file line of each of its rows.
    """
    n = len(lines)
    if "implied_vol" not in col:  # the file has no implied vol column
        col["implied_vol"], col["implied_vol_absent"] = np.full(n, np.nan), np.ones(n, dtype=bool)
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
                (col["side"] == 1) & (price > col["underlying_close"]),
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
    accepted = {
        "quote_date": col["quote_date"][ok].view("datetime64[D]"),
        "expiry_date": col["expiry_date"][ok].view("datetime64[D]"),
        "strike": col["strike"][ok],
        "is_call": col["side"][ok] == 1,
        "price": price[ok],
        "volume": col["volume"][ok],
        "underlying_close": col["underlying_close"][ok],
        "implied_vol": col["implied_vol"][ok],
        "has_implied_vol": ~col["implied_vol_absent"][ok],
    }
    return accepted, rejects


class _ByteRange(io.FileIO):
    """A file read through ``readinto`` from byte ``start`` up to byte ``end`` (None: its end)."""

    def __init__(self, path, start: int, end):
        super().__init__(path)
        if start:  # a pipe cannot seek, and is never cut
            self.seek(start)
        self._left = (sys.maxsize if end is None else end) - start

    def readinto(self, buffer):
        n = super().readinto(memoryview(buffer)[: self._left])
        self._left -= n
        return n


def _text(path, start: int, end, encoding: str = "utf-8"):
    """The lines of bytes ``start`` to ``end`` (None: the end) of a file, endings kept."""
    return io.TextIOWrapper(io.BufferedReader(_ByteRange(path, start, end)), encoding=encoding, newline="")


def _cuts(path) -> list:
    """Byte offsets [0, ..., None] that cut a chain file into ranges, one per process.

    Up to min(usable CPUs, file bytes // ``_MIN_RANGE_BYTES``) ranges, each
    cut just after a line feed. A quote before the last cut may open a field
    that spans a cut, so such a file is one range, as is any without ``fork``.
    """
    size = os.path.getsize(path)
    k = min(workers.fork_cpus(), size // _MIN_RANGE_BYTES)
    if k < 2:
        return [0, None]
    with open(path, "rb") as fh:
        cuts = set()
        for i in range(1, k):
            fh.seek(size * i // k)
            fh.readline()
            cuts.add(fh.tell())
        cuts = sorted(cuts - {size})
        fh.seek(0)
        while cuts and fh.tell() < cuts[-1]:
            if b'"' in fh.read(min(1 << 20, cuts[-1] - fh.tell())):
                return [0, None]
    return [0, *cuts, None]


def _load_range(fh, width: int, layout: dict, before: int):
    """(accepted rows of each chunk per column, rejects, file lines read) of the rest of ``fh``.

    ``fh`` starts after ``before`` file lines.
    """
    dates = _ParseOnce(lambda text: _parse_date(text).toordinal() - _EPOCH_ORDINAL, _NAT)
    sides = _ParseOnce(lambda text: _parse_side(text) == "C", -1)
    parts = {f.name: [] for f in fields(OptionChain)}
    rejects = []
    read = before
    for texts, lengths, lines, read in _text_chunks(fh, width, layout, before):
        accepted, chunk_rejects = _accept(*_parse_rows(texts, lengths, layout, dates, sides), lines)
        for name, column in accepted.items():
            parts[name].append(column)
        rejects += chunk_rejects
    return parts, rejects, read


def _send_range(send, path, start: int, end, width: int, layout: dict):
    """A forked worker: send (rows, rejects, file lines read) of a range, then each column's bytes."""
    with _text(path, start, end) as fh:
        parts, rejects, read = _load_range(fh, width, layout, 0)
    rows = sum(map(len, parts["price"]))
    send.send((rows, rejects, read))
    for pieces in parts.values() if rows else ():
        send.send_bytes(np.concatenate(pieces).view(np.uint8))


def load_chain(path, columns: dict | None = None):
    """Parse a chain CSV into an ``OptionChain`` plus a rejects list.

    ``columns`` maps canonical names to the file's actual headers; a name
    outside ``CANONICAL_COLUMNS`` raises ``InvalidInputError``.
    Missing required headers raise ``SchemaError``; unreadable files raise
    ``FormatError``. Row-level problems become ``RejectedRow`` entries at
    the file line the row starts on, so accepted + rejected always equals
    the number of non-blank rows. A row's reason is its first failing field
    in ``_PARSE_ORDER``, else its first failing value check.

    A big file is cut into line-aligned byte ranges (``_cuts``). This
    process loads the first after the header (read as ``utf-8-sig``, so a
    BOM is skipped) while forked workers load the others, each a chunk at a
    time. The columns are joined in file order, the rejects' lines shifted
    by the lines ahead of their range; the earliest range's error wins, and
    no worker outlives the call.
    """
    colmap = {c: c for c in CANONICAL_COLUMNS}
    if columns:
        unknown = sorted(set(columns) - set(CANONICAL_COLUMNS))
        if unknown:
            raise InvalidInputError(f"unknown chain column(s) {unknown}; expected names from {CANONICAL_COLUMNS}")
        colmap.update(columns)
    started = []  # the worker of each range after the first
    # until its header has been read, the file is not known to be a chain
    kind = "file"
    try:
        cuts = _cuts(path)
        with _text(path, 0, cuts[1], "utf-8-sig") as fh:
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
            for start, end in zip(cuts[1:], cuts[2:]):
                name = f"the worker loading bytes {start} to {'the end' if end is None else end}"
                started.append(workers.start(_send_range, path, start, end, len(header), layout, name=name))
            parts, rejects, lines = _load_range(fh, len(header), layout, reader.line_num)
        heads = [worker.recv() for worker in started]
        rows = sum(map(len, parts["price"]))
        total = rows + sum(n for n, _, _ in heads)
        chain = {}
        for name in list(parts):  # each column's pieces are dropped once it is joined
            dtype = _CHAIN_DTYPES[name]
            chain[name] = np.empty(total, dtype)
            np.concatenate([np.empty(0, dtype), *parts.pop(name)], out=chain[name][:rows])
        for worker, (n, more, read) in zip(started, heads):
            for column in chain.values() if n else ():
                worker.recv_bytes_into(column[rows:rows + n].view(np.uint8))
            rejects += [RejectedRow(r.line + lines, r.reason) for r in more]
            rows += n
            lines += read
    except (OSError, UnicodeDecodeError, WorkerExitedError) as e:
        raise FormatError(f"cannot read {kind} {path}: {e}") from e
    except csv.Error as e:
        raise FormatError(f"cannot parse {kind} {path}: {e}") from e
    finally:
        for worker in started:
            worker.stop()  # after an error in an earlier range it may still be parsing
    chain = OptionChain(**chain)
    if rejects:
        logger.info("chain load: %d quotes accepted, %d rows rejected", len(chain), len(rejects))
    return chain, rejects


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # repr round-trips; float() strips numpy scalar types
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, dt.date):
        return value.isoformat()
    return str(value)


def write_csv(path, header, rows):
    """The one CSV writer: a header, then rows of floats (``repr``), ints, dates, strings or None (blank)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(c) for c in row])


def write_chain(path, chain: OptionChain):
    """Write a chain out in the canonical schema (bid = ask = last = price)."""
    price = chain.price.tolist()
    sides = np.where(chain.is_call, "C", "P").tolist()
    ivs = np.where(chain.has_implied_vol, chain.implied_vol, None).tolist()
    write_csv(path, CANONICAL_COLUMNS, zip(
        chain.quote_date.tolist(), chain.expiry_date.tolist(), chain.strike.tolist(), sides,
        price, price, price, chain.volume.tolist(), chain.underlying_close.tolist(), ivs,
    ))


def prior_close_before(chain: OptionChain, date: dt.date):
    """Latest underlying close strictly before ``date``, if the chain has one.

    Of several rows on that latest date, the first in file order counts.
    Lets the first step's log-return come from real data instead of zero.
    """
    before = chain.quote_date < np.datetime64(date, "D")
    if not before.any():
        return None
    latest = chain.quote_date[before].max()
    return chain.underlying_close[np.argmax(chain.quote_date == latest)].item()


def write_truth_states(path, truth: "SyntheticTruth"):
    """Per-step simulated truth: states, spot, clean and observed prices."""
    write_csv(path, ["t", "date", "v", "r", "spot", "clean_price", "observed"], (
        [t, None if truth.dates is None else truth.dates[t], truth.states[t, 0], truth.states[t, 1],
         truth.spots[t], truth.clean_prices[t], truth.observations[t]]
        for t in range(len(truth.observations))
    ))


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


def _series(chain: OptionChain, rows: np.ndarray, contract: ContractSpec | None) -> ContractSeries:
    """Series of the chosen rows; the first step's log-return is 0.

    With no ``contract``, each step's inputs carry the contract of its own
    row, and the first of them describes the series.
    """
    dates = chain.quote_date[rows].tolist()
    closes = chain.underlying_close[rows].tolist()
    tau_days = np.busday_count(chain.quote_date[rows], chain.expiry_date[rows]).tolist()
    contracts = [None] * len(dates)
    if contract is None:
        contracts = [
            ContractSpec(strike=k, expiry_step=days, is_call=call)
            for k, days, call in zip(chain.strike[rows].tolist(), tau_days, chain.is_call[rows].tolist())
        ]
        contract = contracts[0]
    us = [0.0] + [math.log(close / prev) for prev, close in zip(closes, closes[1:])]
    exogenous = [
        ExogenousInputs(s=s, u=u, tau=days / TRADING_DAYS_PER_YEAR, contract=c)
        for s, u, days, c in zip(closes, us, tau_days, contracts)
    ]
    return ContractSeries(
        dates=dates,
        prices=chain.price[rows].tolist(),
        closes=closes,
        exogenous=exogenous,
        contract=contract,
    )


def build_series(
    chain: OptionChain,
    strike: float,
    expiry_date: dt.date,
    is_call: bool = True,
) -> ContractSeries:
    """Chronological series for one contract, one quote per date by max volume.

    The first step's log-return is 0; ``ContractSeries.with_prior_close``
    takes it from the close before the series instead.
    """
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
    contract = ContractSpec(
        strike=strike,
        expiry_step=trading_days_between(chain.quote_date[rows[0]].item(), expiry_date),
        is_call=is_call,
    )
    return _series(chain, rows, contract)


def max_volume_series(chain: OptionChain) -> ContractSeries:
    """Liquidity-driven call series: per date, the call with the highest volume.

    The traded contract changes from step to step, so each step's
    exogenous inputs carry their own strike and expiry.
    """
    rows = _max_volume_rows(chain, chain.is_call)
    if rows.size < 2:
        raise InsufficientDataError(f"only {rows.size} dates with call quotes")
    return _series(chain, rows, None)


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
    if seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {seed!r}")
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
            x = adapter.transition(x, ex, adapter.q_chol @ rng.standard_normal(2))
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


def truth_to_chain(truth: SyntheticTruth, model: ModelSpec) -> OptionChain:
    """Render a synthetic run as a chain of one contract (needs dated output)."""
    if truth.dates is None:
        raise InvalidInputError("synthetic truth has no dates; pass start_date when generating")
    n = len(truth.dates)
    dates = np.array(truth.dates, dtype="datetime64[D]")
    return OptionChain(
        quote_date=dates,
        expiry_date=np.full(n, np.busday_offset(dates[0], model.contract.expiry_step)),
        strike=np.full(n, model.contract.strike, dtype=float),
        is_call=np.full(n, model.contract.is_call),
        price=np.array(truth.observations, dtype=float),  # copies: a chain's columns are read-only
        volume=100.0 + np.arange(n),
        underlying_close=np.array(truth.spots, dtype=float),
        implied_vol=np.full(n, np.nan),
        has_implied_vol=np.zeros(n, dtype=bool),
    )


def read_csv_rows(path, what: str) -> list:
    """(file line, fields) of each non-blank row of a small CSV file, read whole.

    Any failure to read or split the file is a ``FormatError`` naming ``what``
    and the path.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            return [(reader.line_num, row) for row in reader if "".join(row).strip()]
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise FormatError(f"cannot read {what} {path}: {e}") from e


def load_value_series(path):
    """Two-column date,value CSV used for external comparison series."""
    out = []
    for i, (line, row) in enumerate(read_csv_rows(path, "series file")):
        if len(row) < 2:
            raise FormatError(f"{path}: line {line}: expected date,value")
        first = row[0].strip()
        try:
            date = _parse_date(first)
        except ValueError:
            if i == 0:  # tolerate a header on the first non-blank row
                continue
            raise FormatError(f"{path}: line {line}: bad date {first!r}") from None
        try:
            value = float(row[1])
        except ValueError:
            raise FormatError(f"{path}: line {line}: bad value {row[1]!r}") from None
        out.append((date, value))
    return out
