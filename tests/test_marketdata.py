import codecs
import csv
import dataclasses
import datetime as dt
import math
import multiprocessing
import os
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from volswitch import marketdata
from volswitch.bsgarch import (
    ContractSpec,
    GarchParams,
    ModelSpec,
    NoiseSpec,
)
from volswitch.calibrate import closes_by_date
from volswitch.exceptions import (
    FormatError,
    InsufficientDataError,
    InvalidInputError,
    SchemaError,
)
from volswitch.marketdata import (
    TRADING_DAYS_PER_YEAR,
    OptionChain,
    RejectedRow,
    build_series,
    generate_synthetic,
    load_chain,
    load_value_series,
    max_volume_series,
    prior_close_before,
    trading_days_between,
    truth_to_chain,
    write_chain,
    write_truth_states,
)

DATA = Path(__file__).resolve().parents[1] / "data"
HEADER = "quote_date,expiry_date,strike,side,bid,ask,last,volume,underlying_close,implied_vol"


def chain_file(tmp_path, rows, header=HEADER, name="chain.csv"):
    path = tmp_path / name
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def row(date, close=100.0, strike=100.0, volume=10.0, expiry="2019-12-20", side="C", price=5.0, iv=None):
    """A chain file row of one quote, priced by its last trade."""
    return f"{date},{expiry},{strike!r},{side},,,{price!r},{volume!r},{close!r},{'' if iv is None else repr(iv)}"


def chain_of(tmp_path, rows):
    """The chain of a file of ``rows``, all of which load."""
    chain, rejects = load_chain(chain_file(tmp_path, rows))
    assert not rejects
    return chain


def nan_equal(values):
    """The values, with NaN (an implied vol of "nan") replaced so that it equals itself."""
    return tuple("NaN" if isinstance(v, float) and math.isnan(v) else v for v in values)


def assert_rows(chain, quotes):
    """The chain's columns equal those of ``quotes``, column by column.

    Each quote is a tuple in ``oracles.rowwise_load_chain``'s field order,
    its implied vol None where the row has none.
    """
    dates, expiries, strikes, sides, prices, volumes, closes, ivs = zip(*quotes) if quotes else [()] * 8
    assert chain.quote_date.tolist() == list(dates)
    assert chain.expiry_date.tolist() == list(expiries)
    assert chain.strike.tolist() == list(strikes)
    assert chain.is_call.tolist() == [side == "C" for side in sides]
    assert chain.price.tolist() == list(prices)
    assert chain.volume.tolist() == list(volumes)
    assert chain.underlying_close.tolist() == list(closes)
    assert chain.has_implied_vol.tolist() == [iv is not None for iv in ivs]
    assert nan_equal(chain.implied_vol[chain.has_implied_vol].tolist()) == nan_equal(iv for iv in ivs if iv is not None)
    assert np.isnan(chain.implied_vol[~chain.has_implied_vol]).all()


# ---------------------------------------------------------------------------
# chain loading


def test_load_chain_prices_and_fallbacks(tmp_path):
    path = chain_file(
        tmp_path,
        [
            "2019-01-02,2019-12-20,100,C,5.0,5.4,9.9,10,100.5,0.21",  # mid of bid/ask
            "2019-01-03,2019-12-20,100,C,,,6.25,10,101.0,",  # last fallback
            "2019-01-04,2019-12-20,100,C,5.0,,,10,101.0,",  # one-sided -> no price
        ],
    )
    chain, rejects = load_chain(path)
    assert chain.price.tolist() == [pytest.approx(5.2), 6.25]
    assert chain.implied_vol[0] == 0.21
    assert chain.has_implied_vol.tolist() == [True, False]
    with pytest.raises(ValueError, match="read-only"):
        chain.price[0] = 1.0
    assert len(rejects) == 1
    assert rejects[0].line == 4
    assert rejects[0].reason == "no usable price (bid/ask pair or last required)"


def test_load_chain_reject_reasons(tmp_path):
    path = chain_file(
        tmp_path,
        [
            "2019-01-02,2019-12-20,100,C,-2.0,-1.0,,10,100,",  # negative mid
            "2019-01-02,2019-12-20,0,C,5.0,5.4,,10,100,",
            "2019-01-02,2019-12-20,100,C,5.0,5.4,,10,-1,",
            "2019-01-02,2019-12-20,100,C,5.0,5.4,,-3,100,",
            "2019-01-02,2018-12-20,100,C,5.0,5.4,,10,100,",  # already expired
            "not-a-date,2019-12-20,100,C,5.0,5.4,,10,100,",
            "2019-01-02,2019-12-20,100,X,5.0,5.4,,10,100,",  # bad side
            "2019-01-02,2019-12-20,100,C,5.0,5.4,,10,100,",  # clean
        ],
    )
    quotes, rejects = load_chain(path)
    assert len(quotes) == 1
    reasons = [r.reason for r in rejects]
    assert reasons[:5] == [
        "price < 0",
        "strike <= 0",
        "underlying_close <= 0",
        "volume < 0",
        "expiry before quote date",
    ]
    assert all(r.startswith("unparseable field") for r in reasons[5:])
    # every input row is accounted for
    assert len(quotes) + len(rejects) == 8
    assert [r.line for r in rejects] == [2, 3, 4, 5, 6, 7, 8]


def test_load_chain_missing_column_raises_schema_error(tmp_path):
    path = chain_file(
        tmp_path,
        ["2019-01-02,2019-12-20,100,C,5.0,5.4,10,100"],
        header="quote_date,expiry_date,strike,side,bid,ask,volume,underlying_close",
    )
    with pytest.raises(SchemaError, match="last"):
        load_chain(path)


def test_load_chain_vendor_column_mapping(tmp_path):
    header = "QUOTE_DT,expiry_date,strike,side,bid,ask,last,volume,underlying_close,implied_vol"
    path = chain_file(tmp_path, ["2019-01-02,2019-12-20,100,C,5.0,5.4,,10,100,"], header=header)
    with pytest.raises(SchemaError):
        load_chain(path)  # canonical name absent without the mapping
    chain, rejects = load_chain(path, columns={"quote_date": "QUOTE_DT"})
    assert chain.quote_date.tolist() == [dt.date(2019, 1, 2)] and not rejects


def test_load_chain_rejects_a_mapping_of_an_unknown_column(tmp_path):
    # InvalidInputError, not SchemaError: the file may well be a chain
    path = chain_file(tmp_path, ["2019-01-02,2019-12-20,100,C,5.0,5.4,,10,100,0.2"])
    with pytest.raises(InvalidInputError, match=r"unknown chain column\(s\) \['implied_volatility'\]"):
        load_chain(path, columns={"implied_vol": "implied_vol", "implied_volatility": "IV"})


def test_load_chain_empty_and_header_only_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(SchemaError, match="no header"):
        load_chain(empty)
    header_only = tmp_path / "header.csv"
    header_only.write_text(HEADER + "\n")
    chain, rejects = load_chain(header_only)
    assert len(chain) == 0 and rejects == []


def test_load_chain_missing_file_raises_format_error(tmp_path):
    with pytest.raises(FormatError):
        load_chain(tmp_path / "nope.csv")


def test_write_chain_round_trips_exactly(tmp_path):
    loaded = load_chain(chain_file(tmp_path, [
        row("2019-01-02", close=100.123456789, price=5.07 / 3.0, volume=17.0, iv=0.21),
        row("2019-01-03", close=99.9, strike=105.0, side="P", price=0.0625),
        row("2019-01-04", close=99.5, strike=105, side="P", price=6.5, iv=0.2 / 3.0),
    ]))
    assert_rows(loaded[0], [
        (dt.date(2019, 1, 2), dt.date(2019, 12, 20), 100.0, "C", 5.07 / 3.0, 17.0, 100.123456789, 0.21),
        (dt.date(2019, 1, 3), dt.date(2019, 12, 20), 105.0, "P", 0.0625, 10.0, 99.9, None),
        (dt.date(2019, 1, 4), dt.date(2019, 12, 20), 105.0, "P", 6.5, 10.0, 99.5, 0.2 / 3.0),
    ])
    path = tmp_path / "out.csv"
    write_chain(path, loaded[0])
    assert path.read_text().splitlines()[1:] == [
        f"2019-01-02,2019-12-20,100.0,C,{5.07 / 3.0!r},{5.07 / 3.0!r},{5.07 / 3.0!r},17.0,100.123456789,0.21",
        "2019-01-03,2019-12-20,105.0,P,0.0625,0.0625,0.0625,10.0,99.9,",
        f"2019-01-04,2019-12-20,105.0,P,6.5,6.5,6.5,10.0,99.5,{0.2 / 3.0!r}",
    ]
    assert_same_load(load_chain(path), loaded)


def test_write_chain_round_trips_numpy_scalar_fields(tmp_path):
    # numpy 2 reprs a float64 as np.float64(...), which load_chain cannot parse;
    # columns of other dtypes than the loader's are written as plain numbers too
    plain = load_chain(chain_file(tmp_path, [
        row("2019-01-02", close=100.123456789, price=5.07 / 3.0, volume=17.0, iv=0.21),
    ]))
    columns = {f.name: getattr(plain[0], f.name) for f in dataclasses.fields(OptionChain)}
    columns.update(strike=columns["strike"].astype(np.int64), volume=columns["volume"].astype(np.float32))
    path = tmp_path / "out.csv"
    write_chain(path, OptionChain(**columns))
    assert "np." not in path.read_text()
    assert_same_load(load_chain(path), plain)


def test_a_chain_of_columns_that_differ_in_length_is_refused(tmp_path):
    chain = chain_of(tmp_path, [row("2019-01-02"), row("2019-01-03"), row("2019-01-04")])
    columns = {f.name: getattr(chain, f.name) for f in dataclasses.fields(OptionChain)}
    columns["price"] = columns["price"][:2]
    with pytest.raises(InvalidInputError, match="'price': 2") as refused:
        OptionChain(**columns)
    assert "'strike': 3" in str(refused.value)


def test_blank_lines_are_skipped_and_rejects_carry_their_file_line(tmp_path):
    path = tmp_path / "chain.csv"
    path.write_text(
        HEADER + "\n"
        "2019-01-02,2019-12-20,100,C,5.0,5.4,,10,100,\n"
        "\n"
        "2019-01-03,2019-12-20,0,C,5.0,5.4,,10,100,\n"
    )
    chain, rejects = load_chain(path)
    assert len(chain) == 1
    assert rejects == [RejectedRow(4, "strike <= 0")]


def test_a_row_spanning_lines_does_not_shift_later_lines(tmp_path):
    path = tmp_path / "chain.csv"
    path.write_text(
        HEADER + "\n"
        '2019-01-02,2019-12-20,100,"C\n",5.0,5.4,,10,100,\n'  # a quoted side over two lines
        "2019-01-03,2019-12-20,100,C,5.0,5.4,,-1,100,\n"
    )
    chain, rejects = load_chain(path)
    assert chain.is_call.tolist() == [True]
    assert rejects == [RejectedRow(4, "volume < 0")]


@pytest.mark.parametrize("plain_rows", [1, 3])
def test_a_row_spanning_two_chunks_goes_through_one_csv_reader(tmp_path, monkeypatch, plain_rows):
    monkeypatch.setattr(marketdata, "_CHUNK_ROWS", 2)
    path = tmp_path / "chain.csv"
    path.write_text(
        HEADER + "\n"
        + "2019-01-02,2019-12-20,100,C,5.0,5.4,,10,100,\n" * plain_rows
        + '2019-01-03,2019-12-20,100,"C\n",5.0,5.4,,10,100,\n'  # a quoted side over two lines
        "2019-01-04,2019-12-20,100,C,5.0,5.4,,-1,100,\n"
    )
    chain, rejects = load_chain(path)
    assert chain.is_call.tolist() == [True] * (plain_rows + 1)
    assert rejects == [RejectedRow(plain_rows + 4, "volume < 0")]


# rows of a chain with a reject of each kind, to write plain or quoted
CHAIN_ROWS = [
    "2019-01-02,2019-12-20,100,C,5.0,5.4,5.1,10,100,0.2",
    "2019-01-02,2019-12-20,105,P,,,7.25,3,100,",
    "2019-01-03,2019-12-20,100,call,5.5,5.9,,12,101.5,0.21",
    "2019-01-03,2019-12-20,0,C,5.0,5.4,,10,101.5,",
    "not-a-date,2019-12-20,100,C,5.0,5.4,,10,100,",
    "2019-01-04,2019-12-20,100,X,5.0,5.4,,10,100,",
    "2019-01-04,2019-12-20,110, put ,1_000,nan,2.5,7,99,0.19",
    "2019-01-07,2019-12-20,100,C,,,,10,100,",
    "2019-01-07,2018-12-20,100,C,5.0,5.4,,10,100,",
    "2019-01-08,2019-12-20,100,C,5.0,abc,,10,100,",
    "2019-01-08,2019-12-20,100,P,1e999,1.0,,10,100,",
    "2019-01-09,2019-12-20,95,C,8.0,8.3,8.1,-4,100,0.18",
]
# a blank, a short and a long line, after two plain chunks of three lines
IRREGULAR_ROWS = CHAIN_ROWS[:6] + ["", "2019-01-09,2019-12-20,100", CHAIN_ROWS[0] + ",extra"] + CHAIN_ROWS[6:]


def assert_same_load(a, b):
    (chain_a, rejects_a), (chain_b, rejects_b) = a, b
    assert rejects_a == rejects_b
    for f in dataclasses.fields(OptionChain):
        col_a, col_b = getattr(chain_a, f.name), getattr(chain_b, f.name)
        assert col_a.dtype == col_b.dtype and col_a.tobytes() == col_b.tobytes(), f.name


@pytest.mark.parametrize("ending", ["\n", "\r\n"])
@pytest.mark.parametrize(
    "rows, plain_chunks_expected",
    # the plain file's regular chunks skip csv.reader, up to its first irregular chunk
    [(CHAIN_ROWS, [True] * 4), (IRREGULAR_ROWS, [True, True, False])],
    ids=["regular", "irregular"],
)
def test_plain_and_quoted_files_load_the_same(tmp_path, monkeypatch, ending, rows, plain_chunks_expected):
    monkeypatch.setattr(marketdata, "_CHUNK_ROWS", 3)
    plain_chunks = []
    split = marketdata._plain_fields

    def spy(*args):
        flat = split(*args)
        plain_chunks.append(flat is not None)
        return flat

    monkeypatch.setattr(marketdata, "_plain_fields", spy)

    def quoted(line):
        return ",".join(f'"{field}"' for field in line.split(",")) if line else line

    plain = tmp_path / "plain.csv"
    plain.write_bytes(ending.join([HEADER, *rows, ""]).encode())
    loaded = load_chain(plain)
    assert plain_chunks == plain_chunks_expected
    plain_chunks.clear()
    every_field_quoted = tmp_path / "quoted.csv"
    every_field_quoted.write_bytes(ending.join([quoted(HEADER), *map(quoted, rows), ""]).encode())
    assert_same_load(loaded, load_chain(every_field_quoted))
    assert plain_chunks == [False]
    assert len(loaded[0]) + len(loaded[1]) == len(rows) - rows.count("")


def test_a_field_over_the_csv_size_limit_is_a_format_error(tmp_path, monkeypatch):
    monkeypatch.setattr(marketdata, "_CHUNK_ROWS", 2)
    big = "1" * (csv.field_size_limit() + 1)
    path = chain_file(tmp_path, CHAIN_ROWS[:3] + [f"2019-01-04,2019-12-20,100,C,5.0,5.4,,10,100,{big}"])
    with pytest.raises(FormatError, match="field larger than field limit"):
        load_chain(path)


def assert_peak_within_three_columns(tmp_path, monkeypatch):
    i = np.arange(30_000)
    has_implied_vol = i % 3 != 0
    written = OptionChain(
        quote_date=np.datetime64("2020-01-02") + i // 600,
        expiry_date=np.full(i.size, np.datetime64("2021-06-18")),
        strike=50.0 + i % 120,
        is_call=i % 2 == 0,
        price=1.0 + (i % 997) / 11.0,  # below every close: no call is rejected
        volume=1.0 + i % 5000,
        underlying_close=100.0 + (i % 313) / 3.0,
        implied_vol=np.where(has_implied_vol, 0.2 + (i % 89) / 1000.0, np.nan),
        has_implied_vol=has_implied_vol,
    )
    path = tmp_path / "chain.csv"
    write_chain(path, written)
    monkeypatch.setattr(marketdata, "_CHUNK_ROWS", 1024)
    tracemalloc.start()
    try:
        chain, rejects = load_chain(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(chain) == len(written) and not rejects
    # the chain's own columns, plus the chunk pieces they are joined from
    assert peak <= 3 * sum(getattr(chain, f.name).nbytes for f in dataclasses.fields(OptionChain))


def test_load_chain_holds_one_chunk_of_text_at_a_time(tmp_path, monkeypatch):
    assert_peak_within_three_columns(tmp_path, monkeypatch)


def test_truncated_rows_are_rejected_naming_the_missing_column(tmp_path):
    path = chain_file(
        tmp_path,
        [
            "2020-01-03,2020-04-03,100",  # stops after strike
            "2020-01-03,2020-04-03,100,C,5.0,5.4,,10,100",  # lacks only the optional implied vol
            "bad-date,2020-04-03",  # the first failing field still comes first
        ],
    )
    chain, rejects = load_chain(path)
    assert [(r.line, r.reason) for r in rejects] == [
        (2, "missing field: side"),
        (4, "unparseable field: Invalid isoformat string: 'bad-date'"),
    ]
    assert_rows(chain, [(dt.date(2020, 1, 3), dt.date(2020, 4, 3), 100.0, "C", 5.2, 10.0, 100.0, None)])


def test_truncated_row_names_the_vendor_header(tmp_path):
    header = "quote_date,expiry_date,strike,side,bid,ask,last,VOL,underlying_close"
    path = chain_file(tmp_path, ["2020-01-03,2020-04-03,100,C,5.0,5.4,"], header=header)
    _, rejects = load_chain(path, columns={"volume": "VOL"})
    assert rejects == [RejectedRow(2, "missing field: VOL")]


# ---------------------------------------------------------------------------
# chains loaded in byte ranges


def ranged(monkeypatch, ranges: int) -> list:
    """Cut files into ``ranges`` ranges from now on; returns the list each load's cuts go to."""
    monkeypatch.setattr(marketdata, "_MIN_RANGE_BYTES", 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(ranges)), raising=False)
    seen = []
    cuts = marketdata._cuts
    monkeypatch.setattr(marketdata, "_cuts", lambda path: seen.append(cuts(path)) or seen[-1])
    return seen


def load_in_one_range(monkeypatch, path):
    with monkeypatch.context() as m:
        m.setattr(marketdata, "_MIN_RANGE_BYTES", 1 << 62)
        return load_chain(path)


def file_line(data: bytes, offset: int) -> int:
    """The file line that starts at byte ``offset``."""
    return data[:offset].count(b"\n") + 1


# a quoted side over two lines, to end a file with
MULTILINE_ROW = '2019-01-10,2019-12-20,100,"C\r\n",5.0,5.4,,-1,100,'


def test_a_ranged_load_equals_the_one_range_load_and_the_oracle(tmp_path, monkeypatch):
    monkeypatch.setattr(marketdata, "_CHUNK_ROWS", 3)
    seen = ranged(monkeypatch, 3)
    path = tmp_path / "chain.csv"
    path.write_bytes("\r\n".join([HEADER, *CHAIN_ROWS * 6, MULTILINE_ROW, ""]).encode())
    loaded = load_chain(path)
    assert not multiprocessing.active_children()
    data = path.read_bytes()
    (cuts,) = seen
    assert len(cuts) == 4 and cuts[-1] is None
    split_lines = [file_line(data, cut) for cut in cuts[1:-1]]
    reject_lines = [r.line for r in loaded[1]]
    for line in split_lines:  # rejects on both sides of every cut
        assert min(reject_lines) < line <= max(reject_lines)
    assert file_line(data, data.index(b'"')) > split_lines[-1]
    assert loaded[1][-1] == RejectedRow(len(CHAIN_ROWS) * 6 + 2, "volume < 0")
    assert_same_load(loaded, load_in_one_range(monkeypatch, path))
    expect_quotes, expect_rejects = oracles.rowwise_load_chain(path)
    assert [(r.line, r.reason) for r in loaded[1]] == expect_rejects
    assert_rows(loaded[0], expect_quotes)
    assert len(expect_quotes) > 6 * 2 and len(expect_rejects) > 6 * 8


def test_a_call_above_its_close_is_rejected_in_one_range_and_in_ranges(tmp_path, monkeypatch):
    above = "2019-01-03,2019-12-20,100,C,,,100.5,10,100,"
    rows = [above] + [CHAIN_ROWS[0]] * 20 + [
        above,
        "2019-01-03,2019-12-20,100,call,100.25,100.5,,10,100,",  # the bid/ask mid is above
        "2019-01-03,2019-12-20,150,P,,,100.5,10,100,",  # a put above its close is kept
        "2019-01-03,2019-12-20,100,C,,,100,10,100,",  # a call at its close is kept
        "2019-01-03,2018-12-20,100,C,,,100.5,10,100,",  # an earlier check gives the reason
    ]
    path = chain_file(tmp_path, rows)
    reason = "call price > underlying_close"
    expect = [RejectedRow(2, reason), RejectedRow(23, reason), RejectedRow(24, reason),
              RejectedRow(27, "expiry before quote date")]
    one_range = load_in_one_range(monkeypatch, path)
    assert one_range[1] == expect
    assert one_range[0].price[-2:].tolist() == [100.5, 100.0]
    seen = ranged(monkeypatch, 2)
    loaded = load_chain(path)
    (cuts,) = seen
    assert len(cuts) == 3 and file_line(path.read_bytes(), cuts[1]) < 23  # one reject per side of the cut
    assert_same_load(loaded, one_range)
    assert [(r.line, r.reason) for r in expect] == oracles.rowwise_load_chain(path)[1]


def test_blank_short_and_cr_lines_load_the_same_in_ranges(tmp_path, monkeypatch):
    # the oracle misnumbers rows after a blank line and fails on short rows,
    # so this file is compared with the one-range load only
    monkeypatch.setattr(marketdata, "_CHUNK_ROWS", 3)
    seen = ranged(monkeypatch, 3)
    rows = [line for row in CHAIN_ROWS * 6 for line in (row, "")]  # a blank line after every row
    rows[20] = "2019-01-09,2019-12-20,100"  # short
    rows[40] += "\r" + CHAIN_ROWS[3]  # a line that ends in a lone CR
    path = tmp_path / "chain.csv"
    path.write_bytes("\r\n".join([HEADER, *rows, MULTILINE_ROW, ""]).encode())
    loaded = load_chain(path)
    data = path.read_bytes()
    (cuts,) = seen
    assert len(cuts) == 4
    for cut in cuts[1:-1]:  # each cut is next to a blank line
        assert data[cut - 4:cut] == b"\r\n\r\n" or data[cut:cut + 2] == b"\r\n"
    assert data.index(b"\r2019") < cuts[-2]
    assert_same_load(loaded, load_in_one_range(monkeypatch, path))
    assert RejectedRow(22, "missing field: side") in loaded[1]


def test_a_quote_before_the_last_cut_makes_the_file_one_range(tmp_path, monkeypatch):
    seen = ranged(monkeypatch, 3)
    quoted_side = CHAIN_ROWS[0].replace(",C,", ',"C",')
    path = chain_file(tmp_path, [quoted_side, *CHAIN_ROWS * 6])
    loaded = load_chain(path)
    assert seen == [[0, None]]
    assert_same_load(loaded, load_in_one_range(monkeypatch, path))
    assert [(r.line, r.reason) for r in loaded[1]] == oracles.rowwise_load_chain(path)[1]


def bad_bytes_in_ranges(tmp_path, monkeypatch, bad: dict):
    """A three-range chain with byte ``bad[i]`` just before a line feed late in range ``i``.

    Each range is longer than one 8 KiB read of the text layer, so an error
    in the first range is raised after the header, while workers run.
    """
    seen = ranged(monkeypatch, 3)
    path = chain_file(tmp_path, CHAIN_ROWS * 60)
    load_chain(path)
    data = bytearray(path.read_bytes())
    starts = [0, *seen[0][1:-1], len(data)]
    assert min(b - a for a, b in zip(starts, starts[1:])) > 9000
    for i, byte in bad.items():
        end = data.index(b"\n", starts[i + 1] - 300)
        data[end - 1:end] = bytes([byte])
    path.write_bytes(bytes(data))
    return path


@pytest.mark.parametrize("bad", [{2: 0xFF}, {1: 0xFE, 2: 0xFF}, {0: 0xFE, 1: 0xFF}])
def test_the_earliest_ranges_decode_error_is_raised_and_no_worker_is_left(tmp_path, monkeypatch, bad):
    path = bad_bytes_in_ranges(tmp_path, monkeypatch, bad)
    assert not multiprocessing.active_children()
    with pytest.raises(FormatError, match=f"cannot read chain file {re.escape(str(path))}: .*{min(bad.values()):#x}"):
        load_chain(path)
    assert not multiprocessing.active_children()


def test_a_chain_not_utf8_in_its_last_range_fails_the_backtest(tmp_path, monkeypatch, capsys):
    from volswitch import cli

    path = bad_bytes_in_ranges(tmp_path, monkeypatch, {2: 0xFF})
    assert cli.main(["backtest", "--chain", str(path), "--out-dir", str(tmp_path / "reports")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read chain file {path}: ") and "Traceback" not in err


def test_a_dead_range_worker_is_a_format_error_naming_its_range(tmp_path, monkeypatch, capsys):
    from volswitch import cli

    seen = ranged(monkeypatch, 3)
    path = chain_file(tmp_path, CHAIN_ROWS * 60)
    # a worker that exits without sending anything, as after a signal or an OOM kill
    monkeypatch.setattr(marketdata, "_send_range", lambda *args: os._exit(3))
    with pytest.raises(FormatError) as raised:
        load_chain(path)
    start = seen[0][1]
    assert str(raised.value) == (
        f"cannot read chain file {path}: the worker loading bytes {start} to {seen[0][2]} exited with code 3"
    )
    assert not multiprocessing.active_children()
    assert cli.main(["backtest", "--chain", str(path), "--out-dir", str(tmp_path / "reports")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read chain file {path}: the worker loading bytes ")
    assert err.rstrip().endswith("exited with code 3") and "Traceback" not in err
    assert not multiprocessing.active_children()


class ColumnsFail:
    """A range worker's end of its pipe whose column sends raise ``error``."""

    def __init__(self, end, error):
        self.end, self.error = end, error

    def send(self, obj):
        self.end.send(obj)

    def send_bytes(self, data):
        raise self.error


@pytest.mark.parametrize(
    "error, expect",
    [
        (MemoryError("injected"), (MemoryError, "injected")),
        (
            OSError(28, "No space left on device"),
            (FormatError, "cannot read chain file {path}: [Errno 28] No space left on device"),
        ),
    ],
    ids=["memory", "os"],
)
def test_a_range_workers_error_after_its_head_reaches_the_caller(tmp_path, monkeypatch, error, expect):
    seen = ranged(monkeypatch, 3)
    path = chain_file(tmp_path, CHAIN_ROWS * 60)
    send_range = marketdata._send_range
    monkeypatch.setattr(marketdata, "_send_range", lambda send, *args: send_range(ColumnsFail(send, error), *args))
    with pytest.raises(expect[0]) as raised:
        load_chain(path)
    # the worker's own exception, raised and wrapped here as a one-range load's would be
    assert type(raised.value) is expect[0] and str(raised.value) == expect[1].format(path=path)
    assert len(seen[0]) == 4
    assert not multiprocessing.active_children()


def test_a_ranged_load_in_a_daemonic_pool_worker_equals_the_parents(tmp_path, monkeypatch):
    # a pool worker may not fork, so it loads the file as one range
    seen = ranged(monkeypatch, 3)
    path = chain_file(tmp_path, CHAIN_ROWS * 60)
    loaded = load_chain(path)
    assert len(seen[0]) == 4
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert_same_load(pool.apply(load_chain, (path,)), loaded)
    assert not multiprocessing.active_children()


def test_load_chain_holds_one_chunk_of_text_at_a_time_in_ranges(tmp_path, monkeypatch):
    seen = ranged(monkeypatch, 2)
    monkeypatch.setattr(marketdata, "_MIN_RANGE_BYTES", 1 << 20)
    assert_peak_within_three_columns(tmp_path, monkeypatch)
    assert len(seen[0]) == 3


def test_a_utf8_bom_before_the_header_is_skipped(tmp_path):
    for plain in (DATA / "sample_chain.csv", chain_file(tmp_path, CHAIN_ROWS)):
        with_bom = tmp_path / f"bom_{plain.name}"
        with_bom.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        loaded = load_chain(with_bom)
        assert_same_load(loaded, load_chain(plain))
        assert len(loaded[0]) > 0
    assert len(loaded[1]) == 9


def test_a_chain_read_from_a_pipe_loads_in_one_range(tmp_path, monkeypatch):
    seen = ranged(monkeypatch, 3)
    plain = chain_file(tmp_path, CHAIN_ROWS * 6)
    pipe = tmp_path / "chain.pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(target=pipe.write_bytes, args=(plain.read_bytes(),), daemon=True)
    writer.start()
    loaded = load_chain(pipe)
    writer.join()
    assert seen == [[0, None]]
    assert_same_load(loaded, load_in_one_range(monkeypatch, plain))


# Field texts that exercise every reject kind: bad dates and sides, blank,
# whitespace, nan and inf fields, negative values, `_` and hex in numbers.
DATE_TEXTS = st.one_of(
    st.dates(dt.date(2019, 1, 1), dt.date(2019, 1, 10)).map(dt.date.isoformat),
    st.sampled_from(["", " 2019-01-04 ", "2019-02-30", "not-a-date", "20190103"]),
)
SIDE_TEXTS = st.sampled_from(["C", "P", "call", " put ", "c", "X", "", " "])
NUMBER_TEXTS = st.one_of(
    st.floats(-5.0, 200.0, allow_nan=False).map(repr),
    st.integers(-3, 3000).map(str),
    st.sampled_from(
        ["", " ", "nan", "inf", "-inf", "1_000", "1__0", " 5 ", "0x10", "1,5", "abc", "-0", "1e999"]
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            DATE_TEXTS, DATE_TEXTS, NUMBER_TEXTS, SIDE_TEXTS, NUMBER_TEXTS, NUMBER_TEXTS,
            NUMBER_TEXTS, NUMBER_TEXTS, NUMBER_TEXTS, NUMBER_TEXTS,
        ),
        max_size=40,
    ),
    order=st.permutations(range(10)),
)
def test_load_chain_matches_the_rowwise_oracle(tmp_path_factory, rows, order):
    path = tmp_path_factory.mktemp("oracle") / "chain.csv"
    header = HEADER.split(",")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([header[j] for j in order])
        writer.writerows([row[j] for j in order] for row in rows)
    chain, rejects = load_chain(path)
    expect_quotes, expect_rejects = oracles.rowwise_load_chain(path)
    assert [(r.line, r.reason) for r in rejects] == expect_rejects
    assert_rows(chain, expect_quotes)


def test_selection_on_a_loaded_chain_matches_the_oracle_quotes(tmp_path):
    rows = []
    for day in range(2, 9):
        date = f"2019-01-{day:02d}"
        for strike in (105, 95, 100):
            for side in "CP":
                for expiry in ("2019-03-15", "2019-06-21"):
                    volume = (day * strike + ord(side)) % 4  # ties on volume, on purpose
                    close = 90 + day + (strike == 105)  # a date's first rows give its close
                    rows.append(f"{date},{expiry},{strike},{side},{day}.5,{day}.75,,{volume},{close}.25,")
    rows.append("2019-01-01,2019-03-15,100,C,,,3.0,1,88.5,")  # a prior close for 2019-01-02
    path = chain_file(tmp_path, rows)
    chain, rejects = load_chain(path)
    assert not rejects
    oracle_quotes, _ = oracles.rowwise_load_chain(path)
    assert_rows(chain, oracle_quotes)

    def columns(series):
        assert [ex.s for ex in series.exogenous] == series.closes
        return series.dates, series.prices, series.closes, [ex.tau for ex in series.exogenous]

    def oracle_columns(chosen):
        # the expiry tells apart rows equal on everything else, so each step's tau is compared
        taus = [trading_days_between(q[0], q[1]) / TRADING_DAYS_PER_YEAR for q in chosen]
        return [q[0] for q in chosen], [q[4] for q in chosen], [q[6] for q in chosen], taus

    expiry = dt.date(2019, 3, 15)
    for strike, side in ((100.0, "C"), (95.0, "P")):
        a = build_series(chain, strike, expiry, is_call=side == "C").with_prior_close(87.0)
        chosen = oracles.rowwise_max_volume(
            oracle_quotes, lambda q: q[1] == expiry and q[2] == strike and q[3] == side
        )
        assert columns(a) == oracle_columns(chosen)
        closes = [87.0] + a.closes
        assert [ex.u for ex in a.exogenous] == [math.log(b / c) for c, b in zip(closes, closes[1:])]
        assert a.contract.strike == strike and a.contract.is_call == (side == "C")
    calls = max_volume_series(chain)
    chosen = oracles.rowwise_max_volume(oracle_quotes, lambda q: q[3] == "C")
    assert columns(calls) == oracle_columns(chosen)
    assert [ex.contract for ex in calls.exogenous] == [
        ContractSpec(strike=q[2], expiry_step=trading_days_between(q[0], q[1]), is_call=True) for q in chosen
    ]
    assert calls.contract == calls.exogenous[0].contract
    for day in (1, 2, 5, 9):
        date = dt.date(2019, 1, day)
        assert prior_close_before(chain, date) == oracles.rowwise_prior_close(oracle_quotes, date)
    assert closes_by_date(chain) == oracles.rowwise_closes_by_date(oracle_quotes)


# ---------------------------------------------------------------------------
# series construction


def test_build_series_exogenous_inputs(tmp_path):
    chain = chain_of(tmp_path, [
        row("2019-01-03", close=101.0),
        row("2019-01-02", close=100.0),  # out of order on purpose
        row("2019-01-04", close=99.0),
    ])
    series = build_series(chain, strike=100.0, expiry_date=dt.date(2019, 12, 20))
    assert [d.isoformat() for d in series.dates] == ["2019-01-02", "2019-01-03", "2019-01-04"]
    assert series.closes == [100.0, 101.0, 99.0]
    assert [ex.s for ex in series.exogenous] == series.closes
    us = [ex.u for ex in series.exogenous]
    assert us[0] == 0.0  # no prior close given
    assert us[1] == pytest.approx(math.log(1.01), abs=1e-15)
    assert us[2] == pytest.approx(math.log(99.0 / 101.0), abs=1e-15)
    # 2019-12-20 is exactly 252 trading days after 2019-01-02
    assert trading_days_between(dt.date(2019, 1, 2), dt.date(2019, 12, 20)) == 252
    assert series.exogenous[0].tau == pytest.approx(252 / TRADING_DAYS_PER_YEAR)
    assert series.contract == ContractSpec(strike=100.0, expiry_step=252, is_call=True)
    assert series.exogenous[1].tau == pytest.approx(251 / 252)
    assert all(ex.contract is None for ex in series.exogenous)  # fixed-contract series


def test_build_series_uses_prior_close_for_first_return(tmp_path):
    chain = chain_of(tmp_path, [row("2019-01-02", close=101.0), row("2019-01-03", close=102.0)])
    series = build_series(chain, strike=100.0, expiry_date=dt.date(2019, 12, 20))
    moved = series.with_prior_close(100.0)
    assert moved.exogenous[0].u == pytest.approx(math.log(1.01), abs=1e-15)
    # only the first step's log-return moves
    assert moved.exogenous[0] == dataclasses.replace(series.exogenous[0], u=moved.exogenous[0].u)
    assert moved.exogenous[1:] == series.exogenous[1:]
    assert (moved.dates, moved.prices, moved.closes) == (series.dates, series.prices, series.closes)


def test_build_series_max_volume_dedupe_and_tie_break(tmp_path):
    chain = chain_of(tmp_path, [
        row("2019-01-02", volume=5.0, price=5.0),
        row("2019-01-02", volume=9.0, price=6.0),  # wins on volume
        row("2019-01-03", volume=4.0, price=7.0),
        row("2019-01-03", volume=4.0, price=8.0),  # same strike: file order keeps first
    ])
    series = build_series(chain, strike=100.0, expiry_date=dt.date(2019, 12, 20))
    assert series.prices == [6.0, 7.0]


def test_build_series_filters_side_expiry_and_strike(tmp_path):
    chain = chain_of(tmp_path, [
        row("2019-01-02"),
        row("2019-01-03"),
        row("2019-01-02", side="P", price=99.0),
        row("2019-01-03", expiry="2020-01-17", price=99.0),
        row("2019-01-03", strike=105.0, price=99.0),
    ])
    series = build_series(chain, strike=100.0, expiry_date=dt.date(2019, 12, 20))
    assert len(series) == 2
    assert series.prices == [5.0, 5.0]


def test_build_series_requires_two_dates(tmp_path):
    with pytest.raises(InsufficientDataError):
        build_series(chain_of(tmp_path, [row("2019-01-02")]), strike=100.0, expiry_date=dt.date(2019, 12, 20))


def test_max_volume_series_tracks_liquidity(tmp_path):
    chain = chain_of(tmp_path, [
        row("2019-01-02", strike=100.0, volume=10.0, price=5.0),
        row("2019-01-02", strike=110.0, volume=30.0, price=1.0),
        row("2019-01-03", strike=95.0, volume=50.0, price=7.0, expiry="2020-01-17"),
        row("2019-01-03", strike=100.0, volume=2.0, price=5.5),
        row("2019-01-02", side="P", strike=90.0, volume=999.0, price=1.1),  # puts excluded
    ])
    series = max_volume_series(chain)
    assert series.prices == [1.0, 7.0]
    # each step carries its own contract
    c0, c1 = (ex.contract for ex in series.exogenous)
    assert c0.strike == 110.0 and c1.strike == 95.0
    assert c1.expiry_step == trading_days_between(dt.date(2019, 1, 3), dt.date(2020, 1, 17))
    assert series.contract == c0


def test_max_volume_series_needs_two_call_dates(tmp_path):
    chain = chain_of(tmp_path, [
        row("2019-01-02", strike=100.0),
        row("2019-01-03", side="P", strike=90.0),  # puts do not count
    ])
    with pytest.raises(InsufficientDataError, match="only 1 dates with call quotes"):
        max_volume_series(chain)


def test_prior_close_before_picks_latest_strictly_before(tmp_path):
    chain = chain_of(tmp_path, [
        row("2019-01-02", close=100.0),
        row("2019-01-04", close=104.0),
        row("2019-01-07", close=107.0),
    ])
    assert prior_close_before(chain, dt.date(2019, 1, 7)) == 104.0
    assert prior_close_before(chain, dt.date(2019, 1, 2)) is None


# ---------------------------------------------------------------------------
# synthetic generation


def model_spec(r_var=0.04, q11=6.4e-11, q22=1.6e-7, expiry_step=252):
    return ModelSpec(
        garch=GarchParams(omega=8e-6, alpha=0.10, beta=0.85),
        contract=ContractSpec(strike=100.0, expiry_step=expiry_step),
        noise=NoiseSpec(q=np.diag([q11, q22]), r=r_var),
        dt=1.0 / 252.0,
    )


def test_generate_synthetic_shapes_and_time_grid():
    truth = generate_synthetic(model_spec(), n_steps=40, s0=100.0, x0=(1.6e-4, 0.02))
    assert truth.states.shape == (40, 2)
    assert truth.spots[0] == 100.0
    assert truth.exogenous[0].u == 0.0
    for t, ex in enumerate(truth.exogenous):
        assert ex.tau == pytest.approx((252 - t) / 252.0)
        assert ex.s == truth.spots[t]
    # log-returns match the simulated spot path
    for t in range(1, 40):
        assert truth.exogenous[t].u == pytest.approx(
            math.log(truth.spots[t] / truth.spots[t - 1]), abs=1e-14
        )


def test_generate_synthetic_is_seed_deterministic():
    a = generate_synthetic(model_spec(), 30, 100.0, (1.6e-4, 0.02), seed=7)
    b = generate_synthetic(model_spec(), 30, 100.0, (1.6e-4, 0.02), seed=7)
    c = generate_synthetic(model_spec(), 30, 100.0, (1.6e-4, 0.02), seed=8)
    np.testing.assert_array_equal(a.observations, b.observations)
    assert not np.array_equal(a.observations, c.observations)


def test_generate_synthetic_near_zero_noise_collapses_to_deterministic_model():
    spec = model_spec(r_var=1e-30, q11=1e-30, q22=1e-30)
    truth = generate_synthetic(spec, 25, 100.0, (2e-4, 0.02), seed=3)
    np.testing.assert_allclose(truth.observations, truth.clean_prices, atol=1e-12)
    # variance follows the noiseless GARCH recursion driven by realized returns
    v = 2e-4
    for t in range(1, 25):
        v = spec.garch.omega + spec.garch.alpha * truth.exogenous[t].u ** 2 + spec.garch.beta * v
        assert truth.states[t, 0] == pytest.approx(v, rel=1e-9)
    # clean prices re-derive from the stored states
    for t in (0, 7, 24):
        (v, r), ex = truth.states[t], truth.exogenous[t]
        expect = oracles.bs_call(ex.s, 100.0, r, math.sqrt(v * spec.annualization), ex.tau)
        assert truth.clean_prices[t] == pytest.approx(expect, abs=1e-12)


def test_generate_synthetic_observation_noise_has_configured_variance():
    spec = model_spec(r_var=0.0025, expiry_step=10_100)
    truth = generate_synthetic(spec, 10_000, 100.0, (1.6e-4, 0.02), seed=1)
    resid = truth.observations - truth.clean_prices
    assert abs(resid.mean()) < 3.0 * math.sqrt(0.0025 / 10_000)
    assert resid.var() == pytest.approx(0.0025, rel=0.05)


def test_generate_synthetic_rejects_contract_expiring_mid_run():
    with pytest.raises(InvalidInputError):
        generate_synthetic(model_spec(expiry_step=10), 40, 100.0, (1.6e-4, 0.02))
    with pytest.raises(InvalidInputError, match="n_steps must be positive"):
        generate_synthetic(model_spec(), 0, 100.0, (1.6e-4, 0.02))
    with pytest.raises(InvalidInputError, match="seed must be non-negative, got -1"):
        generate_synthetic(model_spec(), 5, 100.0, (1.6e-4, 0.02), seed=-1)


def test_generate_synthetic_dates_are_business_days():
    truth = generate_synthetic(
        model_spec(), 12, 100.0, (1.6e-4, 0.02),
        start_date=dt.date(2019, 1, 5),  # a Saturday: rolls forward to Monday
    )
    assert truth.dates[0] == dt.date(2019, 1, 7)
    assert len(truth.dates) == 12
    assert all(d.weekday() < 5 for d in truth.dates)
    assert all(b > a for a, b in zip(truth.dates, truth.dates[1:]))


def test_truth_round_trips_through_chain_files(tmp_path):
    spec = model_spec()
    truth = generate_synthetic(
        spec, 30, 100.0, (1.6e-4, 0.02), seed=2, start_date=dt.date(2019, 1, 2)
    )
    path = tmp_path / "chain.csv"
    chain = truth_to_chain(truth, spec)
    with pytest.raises(ValueError, match="read-only"):
        chain.price[0] = 1.0
    assert truth.observations.flags.writeable and truth.spots.flags.writeable  # the chain copied them
    write_chain(path, chain)
    loaded, rejects = load_chain(path)
    assert not rejects
    assert_same_load((loaded, rejects), (chain, []))
    series = build_series(loaded, strike=100.0, expiry_date=loaded.expiry_date[0].item())
    assert len(series) == 30
    np.testing.assert_array_equal(series.prices, truth.observations)
    for ex_file, ex_truth in zip(series.exogenous, truth.exogenous):
        assert ex_file.s == ex_truth.s
        assert ex_file.u == pytest.approx(ex_truth.u, abs=1e-14)
        assert ex_file.tau == pytest.approx(ex_truth.tau, abs=1e-14)


def test_truth_to_chain_requires_dates():
    truth = generate_synthetic(model_spec(), 5, 100.0, (1.6e-4, 0.02))
    with pytest.raises(InvalidInputError):
        truth_to_chain(truth, model_spec())


def test_write_truth_states_layout(tmp_path):
    truth = generate_synthetic(
        model_spec(), 4, 100.0, (1.6e-4, 0.02), start_date=dt.date(2019, 1, 2)
    )
    path = tmp_path / "truth.csv"
    write_truth_states(path, truth)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,date,v,r,spot,clean_price,observed"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "2019-01-02"
    assert float(first[2]) == truth.states[0, 0]


# ---------------------------------------------------------------------------
# value series


def test_load_value_series_tolerates_header_and_parses(tmp_path):
    path = tmp_path / "vals.csv"
    path.write_text("date,value\n2019-01-02,0.21\n2019-01-03,0.22\n\n")
    out = load_value_series(path)
    assert out == [
        (dt.date(2019, 1, 2), 0.21),
        (dt.date(2019, 1, 3), 0.22),
    ]


def test_load_value_series_tolerates_header_after_blank_lines(tmp_path):
    path = tmp_path / "vals.csv"
    path.write_text("\n  \ndate,value\n2019-01-02,0.21\n")
    assert load_value_series(path) == [(dt.date(2019, 1, 2), 0.21)]


def test_load_value_series_rejects_a_second_header(tmp_path):
    path = tmp_path / "vals.csv"
    path.write_text("\ndate,value\ndate,value\n2019-01-02,0.21\n")
    with pytest.raises(FormatError, match="line 3: bad date 'date'"):
        load_value_series(path)


def test_load_value_series_reports_bad_rows(tmp_path):
    path = tmp_path / "vals.csv"
    path.write_text("2019-01-02,0.21\n2019-01-03\n")
    with pytest.raises(FormatError, match="vals.csv"):
        load_value_series(path)
    path.write_text("2019-01-02,0.21\n2019-01-03,high\n")
    with pytest.raises(FormatError, match="line 2: bad value 'high'"):
        load_value_series(path)
