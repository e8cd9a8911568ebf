import datetime as dt
import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

import oracles
from volswitch.backtest import (
    REPORT_FILES,
    _forecast_from_estimate,
    fitted_price,
    frequency_counts,
    rmse,
    run_backtest,
    strategy_bank,
    vol_points_from_decision_log,
    vol_points_from_records,
    vol_report,
)
from volswitch.bsgarch import (
    BsGarchModel,
    ContractSpec,
    ExogenousInputs,
    GarchParams,
    ModelSpec,
    NoiseSpec,
)
from volswitch.exceptions import (
    ContractExpiredError,
    InsufficientDataError,
    InvalidInputError,
)
from volswitch.experiments import SYNTHETIC_CONFIG, run_synthetic_comparison
from volswitch.filters import FILTER_ORDER, FilterId
from volswitch.marketdata import (
    ContractSeries,
    build_series,
    generate_synthetic,
    load_chain,
    max_volume_series,
    truth_to_chain,
)
from volswitch.switching import SwitchDecision

DT = 1.0 / 252.0


def regime_config(**kw):
    """The synthetic-comparison preset with smaller particle counts."""
    return replace(SYNTHETIC_CONFIG, **{"pf_particles": 300, "pcrlb_particles": 150, **kw})


def synthetic_series(cfg, n_steps=40, seed=2, expiry_step=252):
    spec = cfg.model_spec(ContractSpec(strike=100.0, expiry_step=expiry_step))
    truth = generate_synthetic(
        spec, n_steps, 100.0, (cfg.v0, cfg.r0), seed=seed,
        start_date=dt.date(2019, 1, 2),
    )
    chain = truth_to_chain(truth, spec)
    series = build_series(chain, strike=100.0, expiry_date=chain.expiry_date[0].item())
    return series, truth


# ---------------------------------------------------------------------------
# error metric


def test_rmse_frozen_examples():
    assert rmse([5.0, 6.0, 7.0], [5.0, 6.0, 7.0], 100.0) == 0.0
    # constant error e gives e / sqrt(K)
    assert rmse([5.5, 6.5], [5.0, 6.0], 100.0) == pytest.approx(0.05, abs=1e-15)
    # errors {1, 2, 2} at K=100: sqrt(((1+4+4)/3)/100) = sqrt(0.03)
    assert rmse([1.0, 2.0, 2.0], [0.0, 0.0, 0.0], 100.0) == pytest.approx(
        0.17320508075688773, abs=1e-15
    )


@given(
    st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=20),
    st.floats(0.5, 500.0),
)
@hyp_settings(max_examples=100)
def test_rmse_of_identical_series_is_zero(xs, strike):
    assert rmse(xs, list(xs), strike) == 0.0


def test_rmse_validation():
    with pytest.raises(InvalidInputError):
        rmse([1.0, 2.0], [1.0], 100.0)
    with pytest.raises(InvalidInputError):
        rmse([], [], 100.0)
    with pytest.raises(InvalidInputError):
        rmse([1.0], [1.0], 0.0)


# ---------------------------------------------------------------------------
# one-step forecast


def fixed_point_model():
    # alpha kept non-zero: the engineered rate below zeroes the forecast's
    # median log-return, so the variance still sits at its fixed point
    garch = GarchParams(omega=1e-5, alpha=0.05, beta=0.90)
    return BsGarchModel(ModelSpec(
        garch=garch,
        contract=ContractSpec(strike=100.0, expiry_step=252),
        noise=NoiseSpec(q=np.diag([1e-10, 1e-8]), r=1.0),
        dt=DT,
    ))


def test_forecast_at_the_model_fixed_point_is_static():
    model = fixed_point_model()
    v_star = model.spec.garch.omega / (1.0 - model.spec.garch.beta)
    r = v_star / (2.0 * DT)  # makes r*dt - v/2 vanish: spot forecast = spot
    decision = SwitchDecision(
        mode="average",
        chosen=(FilterId.EKF,),
        estimate=np.array([v_star, r]),
        cov=np.eye(2),
    )
    ex = ExogenousInputs(s=100.0, u=0.013, tau=0.5)
    out = _forecast_from_estimate(decision.estimate, ex, model)
    sigma_star = math.sqrt(v_star / DT)
    expect = oracles.bs_call(100.0, 100.0, r, sigma_star, 0.5 - DT)
    assert out == pytest.approx(expect, rel=1e-9)


def test_forecast_decays_tau_and_flags_expiry():
    model = fixed_point_model()
    decision = SwitchDecision(
        mode="average", chosen=(FilterId.EKF,), estimate=np.array([2e-4, 0.02]), cov=np.eye(2)
    )
    # tau == dt forecasts exactly onto expiry: intrinsic value of the moved spot
    ex = ExogenousInputs(s=108.0, u=0.0, tau=DT)
    s_next = 108.0 * math.exp(0.02 * DT - 1e-4)
    out = _forecast_from_estimate(decision.estimate, ex, model)
    assert out == pytest.approx(s_next - 100.0, rel=1e-12)
    with pytest.raises(ContractExpiredError):
        _forecast_from_estimate(
            decision.estimate, ExogenousInputs(s=108.0, u=0.0, tau=0.9 * DT), model
        )


def test_forecast_floors_negative_variance_estimates():
    model = fixed_point_model()
    ex = ExogenousInputs(s=100.0, u=0.0, tau=0.5)
    neg = SwitchDecision(
        mode="average", chosen=(FilterId.EKF,), estimate=np.array([-3e-4, 0.02]), cov=np.eye(2)
    )
    zero = SwitchDecision(
        mode="average", chosen=(FilterId.EKF,), estimate=np.array([0.0, 0.02]), cov=np.eye(2)
    )
    floored = _forecast_from_estimate(neg.estimate, ex, model)
    assert floored == _forecast_from_estimate(zero.estimate, ex, model)


def test_forecast_honors_per_point_contract():
    model = fixed_point_model()
    decision = SwitchDecision(
        mode="average", chosen=(FilterId.EKF,), estimate=np.array([2e-4, 0.02]), cov=np.eye(2)
    )
    other = ContractSpec(strike=90.0, expiry_step=252)
    base = _forecast_from_estimate(
        decision.estimate, ExogenousInputs(s=100.0, u=0.0, tau=0.5), model
    )
    moved = _forecast_from_estimate(
        decision.estimate, ExogenousInputs(s=100.0, u=0.0, tau=0.5, contract=other), model
    )
    assert moved > base  # lower strike call is worth more


def rolling_chain(tmp_path, rolls_at, contracts):
    """The maximum-volume series of six dates and two calls, each (strike, expiry).

    The first call is the most traded before step ``rolls_at``, the second
    from it on.
    """
    closes = [100.0, 100.5, 99.8, 101.0, 100.2, 100.7]
    dates = [dt.date(2019, 1, d) for d in (2, 3, 4, 7, 8, 9)]
    lines = ["quote_date,expiry_date,strike,side,bid,ask,last,volume,underlying_close,implied_vol"]
    for t, (date, close) in enumerate(zip(dates, closes)):
        for k, (strike, expiry) in enumerate(contracts):
            tau = np.busday_count(date, expiry) / 252.0
            price = oracles.bs_call(close, strike, 0.02, 0.2, tau)
            volume = 50.0 if (k == 1) == (t >= rolls_at) else 10.0
            lines.append(f"{date},{expiry},{strike!r},C,,,{price!r},{volume!r},{close!r},")
    path = tmp_path / "chain.csv"
    path.write_text("\n".join(lines) + "\n")
    chain, rejects = load_chain(path)
    assert not rejects
    return max_volume_series(chain)


@pytest.mark.parametrize(
    "contracts",
    [
        ((100.0, dt.date(2019, 12, 20)), (110.0, dt.date(2019, 12, 20))),  # the strike changes
        ((100.0, dt.date(2019, 3, 15)), (100.0, dt.date(2019, 6, 21))),  # the expiry changes
    ],
    ids=["strike", "expiry"],
)
def test_a_forecast_prices_the_contract_its_step_quotes(tmp_path, contracts):
    series = rolling_chain(tmp_path, 3, contracts)
    cfg = regime_config()
    bundle = run_backtest(cfg, series, strategy="EKF", out_dir=tmp_path / "out", seed=0)
    model = BsGarchModel(cfg.model_spec(series.contract))
    rows = [line.split(",") for line in bundle.paths["forecasts"].read_text().splitlines()[1:]]
    ex = series.exogenous
    for t in (2, 3):
        # the model's one-step state and spot, priced on step t's strike at tau
        x = np.array([max(bundle.records[t - 1].decision.estimate[0], 0.0), bundle.records[t - 1].decision.estimate[1]])
        s_next = ex[t - 1].s * math.exp(x[1] * DT - 0.5 * x[0])
        v_next, r_next = model.transition(x, ExogenousInputs(s=s_next, u=math.log(s_next / ex[t - 1].s), tau=0.5))
        # a step that keeps its contract counts one step off the last tau; a new contract has its own
        tau = ex[t].tau if t == 3 else ex[t - 1].tau - DT
        expect = oracles.bs_call(s_next, ex[t].contract.strike, r_next, math.sqrt(252.0 * v_next), tau)
        assert float(rows[t - bundle.test_start][4]) == pytest.approx(expect, rel=1e-9)


def test_fitted_price_is_current_step_model_price():
    model = fixed_point_model()
    ex = ExogenousInputs(s=103.0, u=0.0, tau=0.4)
    out = fitted_price(np.array([2.5e-4, 0.03]), ex, model)
    sigma = math.sqrt(2.5e-4 / DT)
    assert out == pytest.approx(oracles.bs_call(103.0, 100.0, 0.03, sigma, 0.4), rel=1e-12)


# ---------------------------------------------------------------------------
# strategy plumbing


def test_strategy_bank_mapping():
    assert strategy_bank("AAF") == ("average", FILTER_ORDER)
    assert strategy_bank("ABF") == ("best", FILTER_ORDER)
    assert strategy_bank("UKF") == ("average", (FilterId.UKF,))


def test_unknown_strategy_is_an_input_error_everywhere():
    # strategy_bank owns the check, so every caller gets the same error
    with pytest.raises(InvalidInputError, match="unknown strategy 'XYZ'"):
        strategy_bank("XYZ")
    with pytest.raises(InvalidInputError, match="unknown strategy"):
        run_synthetic_comparison(0, n_steps=5, strategies=("xyz",))


def make_record(t, mode, chosen):
    from volswitch.switching import BacktestRecord

    decision = SwitchDecision(
        mode=mode, chosen=chosen, estimate=np.array([1e-4, 0.02]), cov=np.eye(2)
    )
    return BacktestRecord(
        t=t,
        decision=decision,
        observed_price=5.0,
        filter_estimates={},
        phi_traces={},
        fisher_diags=(np.ones(2), np.ones(2)),
    )


def test_frequency_counts_average_mode_single_row():
    records = [
        make_record(0, "average", (FilterId.EKF,)),
        make_record(1, "average", (FilterId.PF,)),
        make_record(2, "average", (FilterId.EKF,)),
    ]
    rows = frequency_counts(records, "average", "AAF")
    assert rows == {"AAF": {"EKF": 2, "UKF": 0, "PF": 1}}
    assert sum(rows["AAF"].values()) == len(records)


def test_frequency_counts_best_mode_row_per_component():
    records = [
        make_record(0, "best", (FilterId.EKF, FilterId.PF)),
        make_record(1, "best", (FilterId.UKF, FilterId.PF)),
    ]
    rows = frequency_counts(records, "best", "ABF")
    assert rows == {
        "ABF volatility": {"EKF": 1, "UKF": 1, "PF": 0},
        "ABF risk": {"EKF": 0, "UKF": 0, "PF": 2},
    }
    for counts in rows.values():
        assert sum(counts.values()) == len(records)


# ---------------------------------------------------------------------------
# full backtest runs


def test_single_filter_backtest_structure():
    cfg = regime_config()
    series, _ = synthetic_series(cfg)
    bundle = run_backtest(cfg, series, strategy="EKF", seed=0)
    assert bundle.test_start == 1
    assert bundle.truncated == 0
    assert set(bundle.rmse_table) == {"EKF"}
    assert bundle.rmse_table["EKF"]["n_fit"] == len(series) - 1
    assert bundle.rmse_table["EKF"]["n_forecast"] == len(series) - 1
    assert all(rec.decision.chosen == (FilterId.EKF,) for rec in bundle.records)
    assert all(rec.forecast_price is not None for rec in bundle.records[1:])
    assert bundle.records[0].forecast_price is None
    # frequency row accounts for every step
    assert bundle.frequency_table == {"EKF": {"EKF": len(series), "UKF": 0, "PF": 0}}


def test_single_filter_backtest_forecasts_each_step_once(tmp_path, monkeypatch):
    cfg = regime_config()
    series, _ = synthetic_series(cfg, n_steps=25)
    plain = run_backtest(cfg, series, strategy="EKF", out_dir=tmp_path / "plain", seed=0)
    calls = []

    def counted(*args):
        calls.append(args)
        return _forecast_from_estimate(*args)

    monkeypatch.setattr("volswitch.backtest._forecast_from_estimate", counted)
    bundle = run_backtest(cfg, series, strategy="EKF", out_dir=tmp_path / "counted", seed=0)
    assert len(calls) == bundle.rmse_table["EKF"]["n_forecast"] == len(series) - 1
    for name in ("forecasts", "rmse"):
        assert bundle.paths[name].read_bytes() == plain.paths[name].read_bytes()
    # the records carry the EKF row's series: its RMSEs re-derive from them
    test_records = bundle.records[bundle.test_start:]
    observed = [r.observed_price for r in test_records]
    row = bundle.rmse_table["EKF"]
    strike = series.contract.strike
    assert row["fit"] == rmse(observed, [r.fitted_price for r in test_records], strike)
    assert row["forecast"] == rmse(observed, [r.forecast_price for r in test_records], strike)


def test_adaptive_backtest_rmse_rows_and_volatility():
    cfg = regime_config()
    series, _ = synthetic_series(cfg)
    bundle = run_backtest(cfg, series, strategy="AAF", seed=0)
    assert set(bundle.rmse_table) == {"EKF", "UKF", "PF", "AAF"}
    for row in bundle.rmse_table.values():
        assert row["fit"] > 0.0
        assert row["forecast"] > 0.0
    # the strategy's forecast RMSE re-derives from its own records
    fc = [r for r in bundle.records[bundle.test_start:] if r.forecast_price is not None]
    direct = rmse(
        [r.observed_price for r in fc], [r.forecast_price for r in fc], series.contract.strike
    )
    assert bundle.rmse_table["AAF"]["forecast"] == pytest.approx(direct, abs=1e-15)
    # volatility rows annualize the variance estimates
    for (t, date, vol), rec in zip(bundle.volatility, bundle.records):
        assert t == rec.t and date == rec.date
        assert vol == pytest.approx(math.sqrt(max(rec.decision.estimate[0], 0.0) * 252.0), abs=1e-12)


def test_train_end_controls_the_split():
    cfg = regime_config()
    series, _ = synthetic_series(cfg)
    split = series.dates[19]
    bundle = run_backtest(cfg, series, strategy="EKF", train_end=split, seed=0)
    assert bundle.test_start == 20
    assert bundle.rmse_table["EKF"]["n_fit"] == len(series) - 20
    with pytest.raises(InvalidInputError):
        run_backtest(cfg, series, strategy="EKF", train_end=series.dates[-1])
    with pytest.raises(InvalidInputError):
        run_backtest(cfg, series, strategy="EKF", train_end=split, test_end=split)


def test_test_end_trims_the_series():
    cfg = regime_config()
    series, _ = synthetic_series(cfg)
    bundle = run_backtest(cfg, series, strategy="EKF", test_end=series.dates[9], seed=0)
    assert len(bundle.records) == 10
    for test_end in (series.dates[0], series.dates[0] - dt.timedelta(days=1)):
        with pytest.raises(InsufficientDataError, match="need at least two steps after applying test-end"):
            run_backtest(cfg, series, strategy="EKF", test_end=test_end, seed=0)


def test_unknown_strategy_rejected():
    cfg = regime_config()
    series, _ = synthetic_series(cfg)
    with pytest.raises(InvalidInputError):
        run_backtest(cfg, series, strategy="GARCH")


def test_calibration_replaces_garch_parameters():
    cfg = regime_config(calibrate_garch=True)
    series, _ = synthetic_series(cfg, n_steps=80)
    bundle = run_backtest(cfg, series, strategy="EKF", train_end=series.dates[39], seed=0)
    assert bundle.garch_fit is not None
    assert bundle.garch_fit.n_obs == 39  # returns from the train closes only
    implied = bundle.garch_fit.params.omega / (
        1.0 - bundle.garch_fit.params.alpha - bundle.garch_fit.params.beta
    )
    assert implied == pytest.approx(bundle.garch_fit.sample_variance, rel=1e-9)


def expiring_series():
    """Hand-built series whose tau hits zero before the data ends."""
    taus = [3 * DT, 2 * DT, 0.0, 0.0]
    return ContractSeries(
        dates=[dt.date(2019, 1, 2), dt.date(2019, 1, 3), dt.date(2019, 1, 4), dt.date(2019, 1, 7)],
        prices=[4.0] * 4,
        closes=[100.0] * 4,
        exogenous=[ExogenousInputs(s=100.0, u=0.0, tau=tau) for tau in taus],
        contract=ContractSpec(strike=100.0, expiry_step=3),
    )


def test_forecasting_truncates_cleanly_at_expiry(caplog):
    cfg = regime_config()
    with caplog.at_level(logging.INFO, logger="volswitch.backtest"):
        bundle = run_backtest(cfg, expiring_series(), strategy="EKF", seed=0)
    assert bundle.truncated == 1
    assert bundle.records[3].forecast_price is None
    assert bundle.records[1].forecast_price is not None
    assert bundle.records[2].forecast_price is not None
    assert bundle.rmse_table["EKF"]["n_forecast"] == 2
    assert any("contract expired" in rec.message for rec in caplog.records)


# ---------------------------------------------------------------------------
# report files


def test_reports_written_and_reproducible(tmp_path):
    cfg = regime_config()
    series, _ = synthetic_series(cfg, n_steps=25)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    bundle_a = run_backtest(cfg, series, strategy="AAF", out_dir=out_a, seed=3)
    bundle_b = run_backtest(cfg, series, strategy="AAF", out_dir=out_b, seed=3)
    assert set(bundle_a.paths) == set(REPORT_FILES)
    for name in REPORT_FILES:
        a_bytes = bundle_a.paths[name].read_bytes()
        assert a_bytes == bundle_b.paths[name].read_bytes()
        assert a_bytes  # never empty

    # decision log recounts to the frequency table
    log_rows = (out_a / "decision_log.csv").read_text().strip().splitlines()[1:]
    counts = {"EKF": 0, "UKF": 0, "PF": 0}
    for row in log_rows:
        counts[row.split(",")[3]] += 1
    assert counts == bundle_a.frequency_table["AAF"]
    assert len(log_rows) == len(series)

    # forecasts file covers exactly the test span
    fc_rows = (out_a / "forecasts.csv").read_text().strip().splitlines()[1:]
    assert len(fc_rows) == len(series) - bundle_a.test_start

    # pcrlb trace has one row per (step, filter), and a step's filters share its one J
    trace_rows = (out_a / "pcrlb_trace.csv").read_text().strip().splitlines()[1:]
    assert len(trace_rows) == len(series) * 3
    for t in range(len(series)):
        step_rows = [row.split(",") for row in trace_rows[3 * t:3 * t + 3]]
        assert [row[:2] for row in step_rows] == [[str(t), f.name] for f in FILTER_ORDER]
        assert all(row[2:6] == step_rows[0][2:6] for row in step_rows)


def test_decision_log_round_trips_volatility_points(tmp_path):
    cfg = regime_config()
    series, _ = synthetic_series(cfg, n_steps=15)
    bundle = run_backtest(cfg, series, strategy="ABF", out_dir=tmp_path, seed=1)
    from_records = vol_points_from_records(bundle.records)
    from_log = vol_points_from_decision_log(bundle.paths["decision_log"])
    assert from_log == from_records  # repr round-trip keeps floats exact


def test_vol_points_load_an_empty_date_as_none(tmp_path):
    # a bad date is a FormatError (the vol-report CLI test); an empty one means no date
    path = tmp_path / "decision_log.csv"
    path.write_text("t,date,est_v\n0,,1e-4\n1,2019-01-03,2e-4\n")
    assert vol_points_from_decision_log(path) == [(0, None, 1e-4), (1, "2019-01-03", 2e-4)]


def test_vol_points_rejects_foreign_csv(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(InvalidInputError):
        vol_points_from_decision_log(path)


# ---------------------------------------------------------------------------
# volatility report


def test_vol_report_joins_by_date(tmp_path, caplog):
    points = [
        (0, "2019-01-02", 1.6e-4),
        (1, "2019-01-03", 2.0e-4),
        (2, "2019-01-04", 2.4e-4),
        (3, None, 2.6e-4),  # a step without a date has a volatility row and no comparison row
    ]
    compare = tmp_path / "market_iv.csv"
    compare.write_text("date,value\n2019-01-03,0.21\n2019-01-09,0.33\n")
    vol_rows, table, paths = vol_report(
        points, compare_paths=(compare,), annualization=252.0, out_dir=tmp_path
    )
    assert vol_rows[0][2] == pytest.approx(math.sqrt(1.6e-4 * 252.0))
    assert vol_rows[3][:2] == (3, None)
    assert [row[0] for row in table] == ["2019-01-02", "2019-01-03", "2019-01-04"]
    assert table[0][2] is None
    assert table[1][2] == 0.21
    # written comparison keeps only rows with at least one match
    lines = paths["comparison"].read_text().strip().splitlines()
    assert len(lines) == 2  # header + the one matched date
    assert lines[1].startswith("2019-01-03,")
    assert paths["volatility"].exists()


def test_vol_report_warns_on_disjoint_dates(tmp_path, caplog):
    compare = tmp_path / "series.csv"
    compare.write_text("2022-01-03,0.5\n")
    with caplog.at_level(logging.WARNING, logger="volswitch.backtest"):
        _, table, _ = vol_report([(0, "2019-01-02", 1e-4)], compare_paths=(compare,))
    assert any("shares no dates" in rec.message for rec in caplog.records)
    assert table == [["2019-01-02", pytest.approx(math.sqrt(1e-4 * 252.0)), None]]


@pytest.mark.parametrize("stem", ["date", "estimate"])
def test_vol_report_rejects_a_comparison_file_named_after_a_fixed_column(tmp_path, stem):
    # its column would repeat the header's own, as in date,estimate,estimate
    compare = tmp_path / f"{stem}.csv"
    compare.write_text("2019-01-02,0.5\n")
    with pytest.raises(InvalidInputError, match=f"would be column '{stem}'"):
        vol_report([(0, "2019-01-02", 1e-4)], compare_paths=(compare,), out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_vol_report_requires_points():
    with pytest.raises(InvalidInputError):
        vol_report([])


# ---------------------------------------------------------------------------
# forecast error grows with process noise


def test_forecast_error_grows_with_process_noise():
    # same seed across scales: the simulator draws identical normals, so the
    # state paths only differ through the scaled noise
    errors = []
    for scale in (1.0, 25.0, 625.0):
        cfg = regime_config(q11=6.4e-11 * scale, q22=1.6e-7 * scale, pcrlb_particles=100)
        series, _ = synthetic_series(cfg, n_steps=35, seed=6)
        bundle = run_backtest(cfg, series, strategy="EKF", seed=0)
        errors.append(bundle.rmse_table["EKF"]["forecast"])
    assert errors[0] < errors[1] < errors[2]
