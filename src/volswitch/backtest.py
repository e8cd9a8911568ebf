"""One-step-ahead forecasting backtest and its report files.

The estimation bank runs over the whole series (the train span warm-starts
the filters); forecasting and RMSE are computed on the test span only.
Each filter and the switch are scored alike, one step ahead from the
previous step's estimate: median-path spot move (zero GBM shock),
zero-noise state transition, time to expiry reduced by one step. Errors
therefore never compound across steps — each forecast is corrected by the
next observed price.

All reports are plain CSV with ``repr`` float formatting, so two runs with
the same config, seed and data produce byte-identical files.
"""

from __future__ import annotations

import bisect
import datetime as dt
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .bsgarch import BsGarchModel, ExogenousInputs, gbm_propagate
from .calibrate import GarchFit, fit_garch, log_returns
from .config import RunConfig
from .exceptions import ContractExpiredError, FormatError, InsufficientDataError, InvalidInputError
from .filters import FILTER_ORDER, FilterId
from .marketdata import ContractSeries, _parse_date, load_value_series, read_csv_rows, write_csv
from .switching import run_adaptive_estimation

logger = logging.getLogger(__name__)

STRATEGIES = ("EKF", "UKF", "PF", "AAF", "ABF")

REPORT_FILES = (
    "decision_log",
    "pcrlb_trace",
    "rmse",
    "frequency",
    "volatility",
    "forecasts",
)

# the vol-report comparison's own columns, ahead of one per comparison file
COMPARISON_COLUMNS = ("date", "estimate")


def rmse(observed, forecast, strike: float) -> float:
    """Root mean squared pricing error with squared errors scaled by strike.

    Note the normalization: the squared errors are divided by the strike
    itself, not the squared strike, so a constant error e gives e/sqrt(K).
    """
    obs = np.asarray(observed, dtype=float)
    fc = np.asarray(forecast, dtype=float)
    if obs.ndim != 1 or obs.shape != fc.shape or obs.size < 1:
        raise InvalidInputError("observed and forecast must be equal-length 1-d sequences")
    if strike <= 0.0 or not math.isfinite(strike):
        raise InvalidInputError("strike must be positive")
    return math.sqrt(float(np.mean((obs - fc) ** 2)) / strike)


def _forecast_from_estimate(estimate, ex: ExogenousInputs, model: BsGarchModel, rolled=None) -> float:
    """Step t's one-step forecast from step t-1's estimate and inputs ``ex``.

    It prices ``ex``'s contract at tau - dt. ``rolled`` is step t's inputs
    when step t quotes another contract: the forecast then prices that
    contract at its own tau.
    """
    contract, tau_next = (ex.contract, ex.tau - model.spec.dt) if rolled is None else (rolled.contract, rolled.tau)
    if tau_next < 0.0:
        raise ContractExpiredError(f"contract expires before the next step (tau={ex.tau:.4e})")
    x = np.array([max(float(estimate[0]), 0.0), float(estimate[1])])
    s_next = gbm_propagate(ex.s, x[1], x[0], model.spec.dt, shock=0.0)
    ex_next = ExogenousInputs(s=s_next, u=math.log(s_next / ex.s), tau=tau_next, contract=contract)
    return fitted_price(model.transition(x, ex_next), ex_next, model)


def _same_contract(prev: ExogenousInputs, ex: ExogenousInputs, prev_date, date) -> bool:
    """Whether two steps quote one contract: the same strike, side and expiry date.

    A one-contract series carries no contract per step. A per-step
    contract counts its expiry in business days from its own date.
    """
    a, b = prev.contract, ex.contract
    if a is None or b is None:
        return a is b
    days = int(np.busday_count(prev_date, date))
    return a.strike == b.strike and a.is_call == b.is_call and a.expiry_step - b.expiry_step == days


def fitted_price(estimate, ex: ExogenousInputs, model: BsGarchModel) -> float:
    """Model price at the current step's inputs for a state estimate (variance floored at 0)."""
    return float(model.measurement(estimate, ex)[0])


@dataclass
class ReportBundle:
    """Everything a backtest run produces, in memory plus written files."""

    strategy: str
    records: list
    rmse_table: dict  # row label -> {"fit": float|None, "forecast": float|None, counts}
    frequency_table: dict  # row label -> {filter name: count}
    volatility: list  # (t, date|None, annualized vol)
    test_start: int
    truncated: int
    garch_fit: GarchFit | None = None
    paths: dict = field(default_factory=dict)


def strategy_bank(strategy: str):
    """(switching mode, filter bank) of a strategy name from ``STRATEGIES``."""
    if strategy not in STRATEGIES:
        raise InvalidInputError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if strategy == "AAF":
        return "average", FILTER_ORDER
    if strategy == "ABF":
        return "best", FILTER_ORDER
    return "average", (FilterId[strategy],)


def frequency_counts(records, mode: str, strategy: str) -> dict:
    """Chosen-filter counts per strategy row; every row sums to len(records)."""
    if mode == "average":
        labels = [strategy]
    else:
        n_components = len(records[0].decision.chosen) if records else 0
        labels = [f"{strategy} {'volatility' if j == 0 else 'risk'}" for j in range(n_components)]
    rows = {label: {f.name: 0 for f in FILTER_ORDER} for label in labels}
    for rec in records:
        for label, fid in zip(labels, rec.decision.chosen):
            rows[label][fid.name] += 1
    return rows


def run_backtest(
    cfg: RunConfig,
    series: ContractSeries,
    strategy: str = "AAF",
    train_end: dt.date | None = None,
    test_end: dt.date | None = None,
    out_dir=None,
    seed: int = 0,
) -> ReportBundle:
    """Full backtest: estimate over the series, forecast the test span, report.

    ``train_end`` is the last in-sample date (inclusive); forecasting starts
    on the first later step, or at step 1 when no split is given. Reaching
    expiry truncates forecasting cleanly.
    """
    strategy = str(strategy).upper()
    mode, bank = strategy_bank(strategy)
    if train_end is not None and test_end is not None and test_end <= train_end:
        raise InvalidInputError("test-end must come after train-end")

    n = len(series) if test_end is None else bisect.bisect_right(series.dates, test_end)
    if n < 2:
        raise InsufficientDataError("need at least two steps after applying test-end")
    dates, observations, exogenous = series.dates[:n], series.prices[:n], series.exogenous[:n]

    if train_end is None:
        test_start = 1
    else:
        test_start = max(bisect.bisect_right(dates, train_end), 1)
    if test_start >= n:
        raise InvalidInputError("no test steps after train-end")

    garch_fit = None
    cfg_used = cfg
    if cfg.calibrate_garch:
        garch_fit = fit_garch(log_returns(series.closes[:test_start]))
        cfg_used = replace(
            cfg,
            garch_omega=garch_fit.params.omega,
            garch_alpha=garch_fit.params.alpha,
            garch_beta=garch_fit.params.beta,
        )

    model = BsGarchModel(cfg_used.model_spec(series.contract))
    settings = cfg_used.estimation_settings(mode=mode, filters=bank, seed=seed)

    records = run_adaptive_estimation(observations, exogenous, model, settings)
    for rec, date in zip(records, dates):
        rec.date = date.isoformat()

    # every scored series, keyed by its rmse.csv row label; a single-filter
    # strategy's label is its filter's
    estimates = {f.name: [r.filter_estimates[f] for r in records] for f in bank}
    if len(bank) > 1:
        estimates[strategy] = [r.decision.estimate for r in records]

    # one-step forecasts across the test span, each on the contract its step
    # quotes; expiry depends only on the step's inputs, so it stops every
    # series at the same step
    forecast_steps = []  # {label: price} per forecast step
    truncated = 0
    for t in range(test_start, n):
        rolled = None if _same_contract(exogenous[t - 1], exogenous[t], dates[t - 1], dates[t]) else exogenous[t]
        try:
            forecast_steps.append({
                label: _forecast_from_estimate(xs[t - 1], exogenous[t - 1], model, rolled)
                for label, xs in estimates.items()
            })
        except ContractExpiredError:
            truncated = n - t
            logger.info("forecasting stopped at step %d: contract expired", t)
            break

    test_records = records[test_start:]
    observed = observations[test_start:]
    strike = series.contract.strike
    rmse_table: dict = {}
    for label, xs in estimates.items():
        fits = [fitted_price(xs[r.t], exogenous[r.t], model) for r in test_records]
        fc = [step[label] for step in forecast_steps]
        rmse_table[label] = {
            "fit": rmse(observed, fits, strike),
            "forecast": rmse(observed[:len(fc)], fc, strike) if fc else None,
            "n_fit": len(fits),
            "n_forecast": len(fc),
        }
        if label == strategy:
            for rec, fit in zip(test_records, fits):
                rec.fitted_price = fit
            for rec, price in zip(test_records, fc):
                rec.forecast_price = price

    freq = frequency_counts(records, mode, strategy)
    volatility = annualized_vol_rows(vol_points_from_records(records), model.spec.annualization)

    bundle = ReportBundle(
        strategy=strategy,
        records=records,
        rmse_table=rmse_table,
        frequency_table=freq,
        volatility=volatility,
        test_start=test_start,
        truncated=truncated,
        garch_fit=garch_fit,
    )
    if out_dir is not None:
        bundle.paths = write_reports(bundle, bank, out_dir)
    return bundle


# ---------------------------------------------------------------------------
# report files


def write_reports(bundle: ReportBundle, bank, out_dir) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / f"{name}.csv" for name in REPORT_FILES}
    records = bundle.records

    write_csv(
        paths["decision_log"],
        ["t", "date", "mode", "chosen"]
        + [f"phi_{f.name}" for f in FILTER_ORDER]
        + ["est_v", "est_r"],
        [
            [
                r.t,
                r.date,
                r.decision.mode,
                "+".join(f.name for f in r.decision.chosen),
                *[r.phi_traces.get(f) for f in FILTER_ORDER],
                r.decision.estimate[0],
                r.decision.estimate[1],
            ]
            for r in records
        ],
    )

    write_csv(
        paths["pcrlb_trace"],
        ["t", "filter", "j_v", "j_r", "jinv_v", "jinv_r", "phi_trace"],
        [
            [r.t, f.name, *(np.concatenate(r.fisher_diags) if r.fisher_diags else (None,) * 4), r.phi_traces.get(f)]
            for r in records
            for f in bank
        ],
    )

    write_csv(
        paths["rmse"],
        ["series", "rmse_fit", "rmse_forecast", "n_fit", "n_forecast"],
        [
            [label, row["fit"], row["forecast"], row["n_fit"], row["n_forecast"]]
            for label, row in bundle.rmse_table.items()
        ],
    )

    write_csv(
        paths["frequency"],
        ["series"] + [f.name for f in FILTER_ORDER] + ["total"],
        [
            [label, *[counts[f.name] for f in FILTER_ORDER], sum(counts.values())]
            for label, counts in bundle.frequency_table.items()
        ],
    )

    write_csv(paths["volatility"], ["t", "date", "vol_annualized"], bundle.volatility)

    write_csv(
        paths["forecasts"],
        ["t", "date", "observed", "fitted", "forecast"],
        [
            [r.t, r.date, r.observed_price, r.fitted_price, r.forecast_price]
            for r in records[bundle.test_start:]
        ],
    )
    return paths


# ---------------------------------------------------------------------------
# volatility comparison report


def annualized_vol_rows(points, annualization: float) -> list:
    """(t, date|None, annualized volatility) rows from variance points (floored at 0)."""
    return [(t, date, math.sqrt(max(v, 0.0) * annualization)) for t, date, v in points]


def vol_points_from_records(records) -> list:
    """(t, date|None, annualized variance estimate) rows from run records."""
    return [(r.t, r.date, float(r.decision.estimate[0])) for r in records]


def vol_points_from_decision_log(path) -> list:
    """Same rows recovered from a written decision_log.csv."""
    rows = read_csv_rows(path, "decision log")
    header = rows[0][1] if rows else []
    required = ("t", "date", "est_v")
    if not set(required).issubset(header):
        raise InvalidInputError(f"{path}: not a decision log (needs {sorted(required)})")
    columns = [header.index(name) for name in required]
    points = []
    for line, row in rows[1:]:
        try:
            t, date, v = (row[c] for c in columns)
            if date:
                _parse_date(date)  # the chain's date format; the text is kept as written
            point = (int(t), date or None, float(v))
        except (IndexError, ValueError):
            point = None
        # a run's estimates are finite, so a non-finite est_v is a damaged log
        if point is None or not math.isfinite(point[2]):
            raise FormatError(f"{path}: line {line}: short row, or bad t, date or est_v, in {row!r}")
        points.append(point)
    return points


def vol_report(points, compare_paths=(), annualization: float = 252.0, out_dir=None):
    """Annualized volatility series plus a by-date join against external series.

    Each comparison file is a column named by its file stem, so two files
    with the same stem, or a file named after a fixed column (``date``,
    ``estimate``), are rejected. Dates missing on either side of a
    join are counted and logged, never silently dropped; a comparison
    file sharing no dates yields an empty column and a warning.
    """
    if not points:
        raise InvalidInputError("no estimation records to report on")
    sources = {}
    for path in compare_paths:
        label = Path(path).stem
        if label in COMPARISON_COLUMNS:
            raise InvalidInputError(f"comparison file {path} would be column {label!r}, which the report already has")
        if label in sources:
            raise InvalidInputError(
                f"comparison files {sources[label]} and {path} would both be column {label!r}"
            )
        sources[label] = path
    vol_rows = annualized_vol_rows(points, annualization)

    our_dates = {date for _, date, _ in vol_rows if date}
    comparisons = {}
    for label, path in sources.items():
        series = {d.isoformat(): v for d, v in load_value_series(path)}
        comparisons[label] = series
        matched = our_dates & series.keys()
        if not matched:
            logger.warning("comparison series %s shares no dates with the estimates", path)
        else:
            logger.info(
                "comparison series %s: %d matched, %d unmatched estimate dates, %d unused rows",
                path, len(matched), len(our_dates - series.keys()), len(series.keys() - our_dates),
            )

    table = []
    for t, date, vol in vol_rows:
        if date is None:
            continue
        table.append([date, vol] + [comparisons[label].get(date) for label in comparisons])

    paths = {}
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths["volatility"] = out / "volatility.csv"
        write_csv(paths["volatility"], ["t", "date", "vol_annualized"], vol_rows)
        if comparisons:
            paths["comparison"] = out / "comparison.csv"
            write_csv(
                paths["comparison"],
                [*COMPARISON_COLUMNS, *comparisons],
                [r for r in table if any(c is not None for c in r[2:])],
            )
    return vol_rows, table, paths
