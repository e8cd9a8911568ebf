import datetime as dt
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import volswitch
from volswitch import backtest, cli
from volswitch.bsgarch import ContractSpec
from volswitch.cli import main
from volswitch.config import RunConfig, load_config
from volswitch.marketdata import (
    CANONICAL_COLUMNS,
    generate_synthetic,
    load_chain,
    load_value_series,
    truth_to_chain,
    write_chain,
)

CONFIG_TEXT = """\
garch.omega = 8e-6
garch.alpha = 0.10
garch.beta = 0.85
noise.q11 = 6.4e-11
noise.q22 = 1.6e-7
noise.r = 2.5e-3
v0 = 1.6e-4
r0 = 0.02
filters.n_particles = 200
pcrlb.n_particles = 100
"""


@pytest.fixture
def workdir(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CONFIG_TEXT)
    cfg = load_config(cfg_path)
    spec = cfg.model_spec(ContractSpec(strike=100.0, expiry_step=252))
    truth = generate_synthetic(
        spec, 20, 100.0, (cfg.v0, cfg.r0), seed=2, start_date=dt.date(2019, 1, 2)
    )
    chain_path = tmp_path / "chain.csv"
    write_chain(chain_path, truth_to_chain(truth, spec))
    return tmp_path, cfg_path, chain_path


def run(args):
    return main([str(a) for a in args])


# ---------------------------------------------------------------------------
# argument handling


def test_cli_import_leaves_the_optimizer_unloaded(tmp_path):
    # the GARCH fit is in-package: neither the import nor a calibrating
    # command pays for scipy.optimize; multiprocessing loads only when a
    # worker starts
    data = Path(__file__).resolve().parents[1] / "data"
    cfg = tmp_path / "run.cfg"
    cfg.write_text((data / "sample_config.cfg").read_text() + "garch.calibrate = true\n")
    code = f"""
import sys, volswitch.cli
assert 'scipy.optimize' not in sys.modules
assert 'multiprocessing' not in sys.modules
chain = {str(data / "sample_chain.csv")!r}
assert volswitch.cli.main(["calibrate-garch", "--underlying", chain,
                           "--config-out", {str(tmp_path / "fit.cfg")!r}]) == 0
assert volswitch.cli.main(["backtest", "--chain", chain, "--config", {str(cfg)!r}, "--strategy", "EKF",
                           "--train-end", "2019-03-01", "--test-end", "2019-03-08",
                           "--out-dir", {str(tmp_path / "reports")!r}]) in (0, 2)
assert 'scipy.optimize' not in sys.modules
"""
    src = str(Path(volswitch.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "calibrated GARCH" in proc.stdout


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_missing_subcommand_is_a_usage_error(capsys):
    assert main([]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "error:" in err


def test_unknown_flag_is_a_usage_error(capsys):
    assert main(["backtest", "--nonsense"]) == 1


def test_bad_date_flag(workdir, capsys):
    tmp, cfg, chain = workdir
    code = run(["backtest", "--chain", chain, "--train-end", "Jan 5"])
    assert code == 1
    assert "expected ISO date" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["backtest", "simulate"])
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_a_bad_seed_is_a_usage_error(workdir, capsys, command, seed):
    tmp, cfg, chain = workdir
    out = tmp / "r"
    args = ["--chain", chain, "--strategy", "EKF"] if command == "backtest" else []
    assert run([command, *args, "--config", cfg, "--seed", seed, "--out-dir", out]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and f"expected a non-negative integer seed, got {seed!r}" in err
    assert "Traceback" not in err and not out.exists()


def test_strike_without_expiry_rejected(workdir, capsys):
    tmp, cfg, chain = workdir
    # the usage is checked before the chain is read, so a missing chain does not mask it
    for path in (chain, tmp / "absent.csv"):
        code = run(["backtest", "--chain", path, "--strike", "100", "--out-dir", tmp / "r"])
        assert code == 1
        assert "--strike and --expiry must be given together" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["p0.v = -1e-8", "filters.ukf.kappa = -3", "v0 = nan"])
def test_backtest_rejects_a_bad_config_value_at_its_line(workdir, capsys, line):
    # each of these used to load and then fail or fall back mid-run
    tmp, cfg, chain = workdir
    cfg.write_text(CONFIG_TEXT + line + "\n")
    n_line = len(CONFIG_TEXT.splitlines()) + 1
    assert run(["backtest", "--chain", chain, "--config", cfg, "--out-dir", tmp / "r"]) == 1
    key = line.split("=")[0].strip()
    assert capsys.readouterr().err.startswith(f"error: {cfg}:{n_line}: '{key}' ")
    assert not (tmp / "r").exists()


def test_missing_chain_file(workdir, capsys):
    tmp, cfg, chain = workdir
    assert run(["backtest", "--chain", tmp / "absent.csv"]) == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_chain_schema(workdir, capsys):
    tmp, cfg, chain = workdir
    bad = tmp / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    assert run(["backtest", "--chain", bad]) == 1
    assert "missing required column" in capsys.readouterr().err


def not_utf8(path, text):
    """Write ``text`` with a last field ending in byte 0xff, which is not UTF-8."""
    path.write_bytes(text.rstrip("\n").encode() + b"\xff\n")
    return path


def assert_format_error_names(path, capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ") and str(path) in err
    assert "Traceback" not in err


def test_chain_not_utf8_is_reported_with_the_file(workdir, capsys):
    tmp, cfg, chain = workdir
    bad = not_utf8(tmp / "bad.csv", chain.read_text())
    assert run(["backtest", "--chain", bad, "--config", cfg]) == 1
    assert_format_error_names(bad, capsys)


def test_config_not_utf8_is_reported_with_the_file(workdir, capsys):
    tmp, cfg, chain = workdir
    bad = not_utf8(tmp / "bad.cfg", CONFIG_TEXT)
    assert run(["backtest", "--chain", chain, "--config", bad]) == 1
    assert_format_error_names(bad, capsys)


SERIES_TEXT = "date,value\n2019-01-02,100.0\n2019-01-03,101.0\n"


def test_underlying_series_not_utf8_is_reported_with_the_file(tmp_path, capsys):
    bad = not_utf8(tmp_path / "bad_series.csv", SERIES_TEXT)
    code = run(["calibrate-garch", "--underlying", bad, "--config-out", tmp_path / "fit.cfg"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read ") and str(bad) in err
    assert "Traceback" not in err
    # the file failed before its header was read, so nothing says what kind it is
    assert "chain file" not in err


def test_comparison_series_not_utf8_is_reported_with_the_file(workdir, capsys):
    tmp, cfg, chain = workdir
    out = tmp / "reports"
    run(["backtest", "--chain", chain, "--config", cfg, "--strategy", "EKF", "--out-dir", out])
    capsys.readouterr()
    bad = not_utf8(tmp / "bad_series.csv", SERIES_TEXT)
    assert run(["vol-report", "--records", out / "decision_log.csv", "--compare", bad]) == 1
    assert_format_error_names(bad, capsys)


# ---------------------------------------------------------------------------
# backtest command


def test_backtest_single_filter_end_to_end(workdir, capsys):
    tmp, cfg, chain = workdir
    out = tmp / "reports"
    code = run(
        ["backtest", "--chain", chain, "--config", cfg, "--strategy", "EKF", "--out-dir", out]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "strategy EKF: 20 steps" in stdout
    assert "rmse[EKF]" in stdout
    for name in ("decision_log", "pcrlb_trace", "rmse", "frequency", "volatility", "forecasts"):
        assert (out / f"{name}.csv").exists()


def test_backtest_explicit_contract_and_adaptive_strategy(workdir, capsys):
    tmp, cfg, chain = workdir
    expiry = str(load_chain(chain)[0].expiry_date[0])
    out = tmp / "reports_aaf"
    code = run(
        [
            "backtest", "--chain", chain, "--config", cfg,
            "--strike", "100", "--expiry", expiry,
            "--strategy", "aaf",  # case-insensitive
            "--train-end", "2019-01-15", "--out-dir", out,
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "strategy AAF" in stdout
    assert "rmse[PF]" in stdout and "rmse[AAF]" in stdout


def test_backtest_uses_the_prior_close_and_prints_the_calibrated_garch(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(CONFIG_TEXT + "garch.calibrate = true\n")
    cfg = load_config(cfg_path)
    spec = cfg.model_spec(ContractSpec(strike=100.0, expiry_step=252))
    truth = generate_synthetic(spec, 40, 100.0, (cfg.v0, cfg.r0), seed=4, start_date=dt.date(2019, 1, 2))
    chain_path = tmp_path / "chain.csv"
    write_chain(chain_path, truth_to_chain(truth, spec))
    # another contract, quoted on the trading day before the first quote of the one tested
    with chain_path.open("a") as fh:
        fh.write("2018-12-31,2019-06-21,110.0,C,,,1.0,1.0,99.0,\n")
    seen = []

    def spy(cfg, series, **kwargs):
        seen.append(series.exogenous[0].u)
        return backtest.run_backtest(cfg, series, **kwargs)

    monkeypatch.setattr(cli, "run_backtest", spy)
    code = run([
        "backtest", "--chain", chain_path, "--config", cfg_path, "--strike", "100",
        "--expiry", str(load_chain(chain_path)[0].expiry_date[0]), "--strategy", "EKF",
        "--train-end", str(truth.dates[30]), "--out-dir", tmp_path / "reports",
    ])
    assert code in (0, 2)
    assert seen == [pytest.approx(np.log(truth.spots[0] / 99.0), abs=1e-12)]
    assert "calibrated GARCH: omega=" in capsys.readouterr().out


def test_backtest_rejects_a_truncated_row_and_runs(workdir, capsys):
    tmp, cfg, chain = workdir
    truncated = tmp / "truncated.csv"
    truncated.write_text(chain.read_text() + "2019-01-03,2019-12-20,100\n")
    out = tmp / "reports_truncated"
    code = run(
        ["backtest", "--chain", truncated, "--config", cfg, "--strategy", "EKF", "--out-dir", out]
    )
    assert code == 0
    assert "note: 1 row(s) rejected" in capsys.readouterr().err
    assert (out / "decision_log.csv").exists()


def poisoned_chain(tmp, chain):
    """The chain plus one absurd quote at the end that passes every load
    check (a call at 99.9 on strike 100, below its underlying close of
    1e200): every particle's squared pricing error overflows, so the weight
    normalizations fail and the run must fall back and flag it."""
    quotes, _ = load_chain(chain)
    next_day = np.busday_offset(quotes.quote_date[-1], 1)
    poisoned = tmp / "poisoned.csv"
    poisoned.write_text(chain.read_text() + f"{next_day},{quotes.expiry_date[0]},100.0,C,,,99.9,5.0,1e200,\n")
    return poisoned


@pytest.mark.filterwarnings("ignore:overflow encountered in square")
def test_backtest_numerical_fallbacks_exit_two(workdir, capsys):
    tmp, cfg, chain = workdir
    poisoned = poisoned_chain(tmp, chain)
    out = tmp / "reports_poisoned"
    code = run(
        ["backtest", "--chain", poisoned, "--config", cfg, "--strategy", "AAF", "--out-dir", out]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "numerical fallback(s)" in captured.err
    assert "degenerate" in captured.err  # the warnings themselves reach stderr
    assert (out / "decision_log.csv").exists()  # run still completes


@pytest.mark.filterwarnings("ignore:overflow encountered in square")
def test_numerical_fallbacks_exit_two_with_logging_disabled(workdir, capsys):
    # the exit code counts the fallbacks the run recorded, not the log records
    tmp, cfg, chain = workdir
    poisoned = poisoned_chain(tmp, chain)
    logging.disable(logging.CRITICAL)
    try:
        code = run(["backtest", "--chain", poisoned, "--config", cfg, "--strategy", "AAF",
                    "--out-dir", tmp / "reports_quiet"])
    finally:
        logging.disable(logging.NOTSET)
    captured = capsys.readouterr()
    assert code == 2
    assert "numerical fallback(s)" in captured.err
    assert "WARNING" not in captured.err


# ---------------------------------------------------------------------------
# simulate command


def test_simulate_roundtrip_through_backtest(workdir, capsys):
    tmp, cfg, chain = workdir
    out = tmp / "sim"
    assert run(["simulate", "--steps", "15", "--seed", "4", "--out-dir", out,
                "--config", cfg]) == 0
    stdout = capsys.readouterr().out
    assert "simulated 15 steps" in stdout
    chain_path = out / "synthetic_chain.csv"
    truth_path = out / "synthetic_truth.csv"
    assert chain_path.exists() and truth_path.exists()
    quotes, rejects = load_chain(chain_path)
    assert len(quotes) == 15 and not rejects
    assert quotes.strike.tolist() == [100.0] * 15
    assert len(truth_path.read_text().strip().splitlines()) == 16

    code = run(["backtest", "--chain", chain_path, "--config", cfg,
                "--strategy", "UKF", "--out-dir", out / "reports"])
    assert code == 0


def test_simulate_rejects_contract_shorter_than_run(workdir, capsys):
    tmp, cfg, chain = workdir
    code = run(["simulate", "--steps", "50", "--expiry-steps", "10", "--out-dir", tmp / "x"])
    assert code == 1
    assert "--expiry-steps" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# vol-report command


def test_vol_report_from_decision_log(workdir, capsys):
    tmp, cfg, chain = workdir
    out = tmp / "reports"
    assert run(["backtest", "--chain", chain, "--config", cfg,
                "--strategy", "EKF", "--out-dir", out]) == 0
    compare = tmp / "iv.csv"
    compare.write_text("date,value\n2019-01-03,0.20\n2019-01-04,0.21\n")
    capsys.readouterr()
    code = run(["vol-report", "--records", out / "decision_log.csv",
                "--compare", compare, "--out-dir", tmp / "vol"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "volatility series: 20 steps" in stdout
    assert "2 date(s) matched" in stdout
    assert (tmp / "vol" / "volatility.csv").exists()
    assert (tmp / "vol" / "comparison.csv").exists()


def test_vol_report_rejects_non_decision_log(workdir, capsys):
    tmp, cfg, chain = workdir
    other = tmp / "other.csv"
    other.write_text("x,y\n1,2\n")
    assert run(["vol-report", "--records", other]) == 1
    assert "not a decision log" in capsys.readouterr().err


@pytest.mark.parametrize("column, bad", [("t", "1.5"), ("est_v", "high"), ("est_v", "nan"), ("date", "2019-13-45")])
def test_vol_report_names_the_line_of_a_bad_decision_log_cell(workdir, capsys, column, bad):
    tmp, cfg, chain = workdir
    out = tmp / "reports"
    assert run(["backtest", "--chain", chain, "--config", cfg, "--strategy", "EKF", "--out-dir", out]) == 0
    lines = (out / "decision_log.csv").read_text().splitlines()
    cells = lines[3].split(",")
    cells[lines[0].split(",").index(column)] = bad
    lines[3] = ",".join(cells)
    log = tmp / "decision_log.csv"
    log.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["vol-report", "--records", log, "--out-dir", tmp / "vol"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {log}: line 4: ")
    assert "Traceback" not in err


def test_decision_log_not_utf8_is_reported_with_the_file(workdir, capsys):
    tmp, cfg, chain = workdir
    out = tmp / "reports"
    assert run(["backtest", "--chain", chain, "--config", cfg, "--strategy", "EKF", "--out-dir", out]) == 0
    bad = not_utf8(tmp / "bad_log.csv", (out / "decision_log.csv").read_text())
    capsys.readouterr()
    assert run(["vol-report", "--records", bad, "--out-dir", tmp / "vol"]) == 1
    assert_format_error_names(bad, capsys)


def test_vol_report_reads_each_comparison_file_once(workdir, monkeypatch):
    tmp, cfg, chain = workdir
    out = tmp / "reports"
    assert run(["backtest", "--chain", chain, "--config", cfg, "--strategy", "EKF", "--out-dir", out]) == 0
    compare = []
    for name in ("iv_a", "iv_b"):
        compare += ["--compare", tmp / f"{name}.csv"]
        (tmp / f"{name}.csv").write_text("date,value\n2019-01-03,0.20\n")
    reads = []

    def counted(path):
        reads.append(Path(path).name)
        return load_value_series(path)

    monkeypatch.setattr(backtest, "load_value_series", counted)
    monkeypatch.setattr(cli, "load_value_series", counted)
    assert run(["vol-report", "--records", out / "decision_log.csv", *compare, "--out-dir", tmp / "vol"]) == 0
    assert sorted(reads) == ["iv_a.csv", "iv_b.csv"]


def test_vol_report_rejects_two_comparison_files_with_one_stem(workdir, capsys):
    # each file is a column named by its stem, so the second would replace the first
    tmp, cfg, chain = workdir
    out = tmp / "reports"
    assert run(["backtest", "--chain", chain, "--config", cfg, "--strategy", "EKF", "--out-dir", out]) == 0
    paths = []
    for sub, value in (("a", "0.20"), ("b", "0.30")):
        (tmp / sub).mkdir()
        paths.append(tmp / sub / "x.csv")
        paths[-1].write_text(f"date,value\n2019-01-03,{value}\n")
    capsys.readouterr()
    code = run(["vol-report", "--records", out / "decision_log.csv",
                "--compare", paths[0], "--compare", paths[1], "--out-dir", tmp / "vol"])
    assert code == 1
    err = capsys.readouterr().err
    assert str(paths[0]) in err and str(paths[1]) in err
    assert not (tmp / "vol" / "comparison.csv").exists()


def test_vol_report_fails_fast_on_missing_comparison(workdir, capsys):
    tmp, cfg, chain = workdir
    out = tmp / "reports"
    run(["backtest", "--chain", chain, "--config", cfg, "--strategy", "EKF", "--out-dir", out])
    capsys.readouterr()
    code = run(["vol-report", "--records", out / "decision_log.csv",
                "--compare", tmp / "absent.csv", "--out-dir", tmp / "vol2"])
    assert code == 1
    assert not (tmp / "vol2" / "volatility.csv").exists()


def test_verbose_flag_surfaces_info_logging(workdir, capsys):
    tmp, cfg, chain = workdir
    out = tmp / "reports_v"
    run(["-v", "backtest", "--chain", chain, "--config", cfg,
         "--strategy", "EKF", "--out-dir", out])
    compare = tmp / "iv.csv"
    compare.write_text("date,value\n2019-01-03,0.20\n")
    capsys.readouterr()
    code = run(["-v", "vol-report", "--records", out / "decision_log.csv",
                "--compare", compare, "--out-dir", tmp / "volv"])
    assert code == 0
    assert "INFO volswitch" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# calibrate-garch command


def gbm_closes(n, seed=0):
    rng = np.random.default_rng(seed)
    steps = rng.normal(loc=0.0002, scale=0.012, size=n - 1)
    return 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))


def test_calibrate_from_value_series(tmp_path, capsys):
    closes = gbm_closes(120)
    series = tmp_path / "closes.csv"
    days = np.busday_offset(np.datetime64("2019-01-02"), np.arange(120))
    series.write_text(
        "date,value\n"
        + "\n".join(f"{d},{float(c)!r}" for d, c in zip(days, closes))
        + "\n"
    )
    frag = tmp_path / "fitted.cfg"
    code = run(["calibrate-garch", "--underlying", series, "--config-out", frag])
    assert code == 0
    assert "fitted GARCH(1,1) on 119 returns" in capsys.readouterr().out
    fitted = load_config(frag)
    fitted.garch_params()  # parses and validates


def test_calibrate_from_chain(workdir, capsys):
    tmp, cfg, chain = workdir
    # 20 closes -> 19 returns: below the fit's minimum, reported as an error
    frag = tmp / "fitted.cfg"
    assert run(["calibrate-garch", "--underlying", chain, "--config-out", frag]) == 1
    assert "at least 30 returns" in capsys.readouterr().err


def test_calibrate_from_long_chain(tmp_path, capsys):
    cfg = RunConfig(garch_omega=8e-6, garch_alpha=0.10, garch_beta=0.85,
                    q11=6.4e-11, q22=1.6e-7, noise_r=2.5e-3)
    spec = cfg.model_spec(ContractSpec(strike=100.0, expiry_step=252))
    truth = generate_synthetic(
        spec, 80, 100.0, (1.6e-4, 0.02), seed=3, start_date=dt.date(2019, 1, 2)
    )
    chain = tmp_path / "chain.csv"
    write_chain(chain, truth_to_chain(truth, spec))
    frag = tmp_path / "fitted.cfg"
    assert run(["calibrate-garch", "--underlying", chain, "--config-out", frag]) == 0
    assert frag.exists()
    assert "79 returns" in capsys.readouterr().out


def test_calibrate_notes_rejected_chain_rows(tmp_path, capsys):
    closes = gbm_closes(40)
    days = np.busday_offset(np.datetime64("2019-01-02"), np.arange(40))
    chain = tmp_path / "chain.csv"
    chain.write_text("\n".join([
        ",".join(CANONICAL_COLUMNS),
        *(f"{d},2019-12-20,100.0,C,5.0,5.0,5.0,1.0,{float(c)!r}," for d, c in zip(days, closes)),
        f"{days[3]},2019-12-20,100.0,P,,,,1.0,{float(closes[3])!r},",  # no price
    ]) + "\n")
    frag = tmp_path / "fitted.cfg"
    assert run(["calibrate-garch", "--underlying", chain, "--config-out", frag]) == 0
    captured = capsys.readouterr()
    assert "39 returns" in captured.out
    assert f"note: 1 row(s) rejected while loading {chain}" in captured.err
