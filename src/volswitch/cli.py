"""Command-line entry points.

Exit codes: 0 clean run; 1 input or usage error (bad flags, unreadable or
malformed data, fatal abort); 2 when a backtest completed but applied
numerical fallbacks along the way (the count is the sum of its records'
``fallbacks``) — inspect the logged warnings before trusting the outputs.
"""

from __future__ import annotations

import argparse
import datetime as dt
import logging
import sys
from pathlib import Path

from .backtest import (
    STRATEGIES,
    run_backtest,
    vol_points_from_decision_log,
    vol_report,
)
from .calibrate import closes_by_date, fit_garch, log_returns
from .config import RunConfig, load_config, write_garch_fragment
from .exceptions import EstimationError, InvalidInputError, SchemaError
from .marketdata import (
    build_series,
    generate_synthetic,
    load_chain,
    load_value_series,
    max_volume_series,
    prior_close_before,
    truth_to_chain,
    write_chain,
    write_truth_states,
)

class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; that code means
    # "numerical fallbacks" here, so route usage problems to exit 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InvalidInputError(message)


def _date(text: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected ISO date (YYYY-MM-DD), got {text!r}") from None


def _seed(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer seed, got {text!r}")
    return int(text)


def _load_cfg(args) -> RunConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return RunConfig()


def _load_chain(path, cfg: RunConfig):
    chain, rejects = load_chain(path, cfg.columns)
    if rejects:
        print(f"note: {len(rejects)} row(s) rejected while loading {path}", file=sys.stderr)
    return chain


def _cmd_backtest(args) -> int:
    if (args.strike is None) != (args.expiry is None):
        raise InvalidInputError("--strike and --expiry must be given together")
    cfg = _load_cfg(args)
    chain = _load_chain(args.chain, cfg)
    if args.strike is not None:
        series = build_series(chain, args.strike, args.expiry)
    else:
        series = max_volume_series(chain)
    prior = prior_close_before(chain, series.dates[0])
    if prior is not None:
        series = series.with_prior_close(prior)

    bundle = run_backtest(
        cfg,
        series,
        strategy=args.strategy,
        train_end=args.train_end,
        test_end=args.test_end,
        out_dir=args.out_dir,
        seed=args.seed,
    )
    print(f"strategy {bundle.strategy}: {len(bundle.records)} steps, "
          f"test from step {bundle.test_start}"
          + (f", {bundle.truncated} step(s) past expiry skipped" if bundle.truncated else ""))
    if bundle.garch_fit is not None:
        p = bundle.garch_fit.params
        print(f"calibrated GARCH: omega={p.omega:.4e} alpha={p.alpha:.4f} beta={p.beta:.4f}")
    for label, row in bundle.rmse_table.items():
        fc = "n/a" if row["forecast"] is None else f"{row['forecast']:.6f}"
        print(f"  rmse[{label}]: fit={row['fit']:.6f} forecast={fc}")
    for name, path in bundle.paths.items():
        print(f"  wrote {name}: {path}")
    return sum(len(rec.fallbacks) for rec in bundle.records)


def _cmd_simulate(args) -> None:
    cfg = _load_cfg(args)
    if args.expiry_steps < args.steps - 1:
        raise InvalidInputError("--expiry-steps must reach at least the last simulated step")
    from .bsgarch import ContractSpec

    contract = ContractSpec(strike=args.strike, expiry_step=args.expiry_steps)
    model = cfg.model_spec(contract)
    truth = generate_synthetic(
        model,
        n_steps=args.steps,
        s0=args.s0,
        x0=(cfg.v0, cfg.r0),
        seed=args.seed,
        start_date=args.start_date,
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    chain_path = out / "synthetic_chain.csv"
    truth_path = out / "synthetic_truth.csv"
    write_chain(chain_path, truth_to_chain(truth, model))
    write_truth_states(truth_path, truth)
    print(f"simulated {args.steps} steps (seed {args.seed}, strike {args.strike}, "
          f"expiry in {args.expiry_steps} steps)")
    print(f"  wrote chain: {chain_path}")
    print(f"  wrote truth: {truth_path}")


def _cmd_vol_report(args) -> None:
    cfg = _load_cfg(args)
    points = vol_points_from_decision_log(args.records)
    vol_rows, table, paths = vol_report(
        points,
        compare_paths=args.compare,
        annualization=1.0 / cfg.dt,
        out_dir=args.out_dir,
    )
    matched = sum(1 for row in table if any(v is not None for v in row[2:]))
    print(f"volatility series: {len(vol_rows)} steps"
          + (f", {matched} date(s) matched against {len(args.compare)} series" if args.compare else ""))
    for name, path in paths.items():
        print(f"  wrote {name}: {path}")


def _cmd_calibrate(args) -> None:
    cfg = _load_cfg(args)
    try:
        chain = _load_chain(args.underlying, cfg)
        closes = [c for _, c in closes_by_date(chain)]
    except SchemaError:
        closes = [v for _, v in load_value_series(args.underlying)]
    fit = fit_garch(log_returns(closes))
    write_garch_fragment(args.config_out, fit.params)
    p = fit.params
    print(f"fitted GARCH(1,1) on {fit.n_obs} returns: "
          f"omega={p.omega:.6e} alpha={p.alpha:.6f} beta={p.beta:.6f} "
          f"loglik={fit.log_likelihood:.2f}")
    if not fit.converged:
        print("note: optimizer did not report convergence; parameters are best-effort",
              file=sys.stderr)
    print(f"  wrote config fragment: {args.config_out}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="volswitch", description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="show per-step diagnostics (INFO logging)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("backtest", help="run a forecasting backtest on an option chain")
    p.add_argument("--config", help="key = value run configuration file")
    p.add_argument("--chain", required=True, help="option chain CSV")
    p.add_argument("--strike", type=float, help="contract strike (with --expiry)")
    p.add_argument("--expiry", type=_date, help="contract expiry date (with --strike)")
    p.add_argument("--strategy", default="AAF", type=str.upper, choices=STRATEGIES)
    p.add_argument("--train-end", type=_date, help="last in-sample date (inclusive)")
    p.add_argument("--test-end", type=_date, help="drop quotes after this date")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out-dir", default="reports")
    p.set_defaults(func=_cmd_backtest)

    p = sub.add_parser("simulate", help="generate a synthetic chain with known true states")
    p.add_argument("--config", help="key = value run configuration file")
    p.add_argument("--steps", type=int, default=150)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--strike", type=float, default=100.0)
    p.add_argument("--s0", type=float, default=100.0, help="initial underlying price")
    p.add_argument("--expiry-steps", type=int, default=252,
                   help="steps from the first quote to expiry")
    p.add_argument("--start-date", type=_date, default=dt.date(2019, 1, 2))
    p.add_argument("--out-dir", default="reports")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("vol-report", help="annualized volatility series from a decision log")
    p.add_argument("--config", help="key = value run configuration file (sets dt)")
    p.add_argument("--records", required=True, help="decision_log.csv from a backtest")
    p.add_argument("--compare", action="append", default=[],
                   help="date,value CSV to join against (repeatable)")
    p.add_argument("--out-dir", default="reports")
    p.set_defaults(func=_cmd_vol_report)

    p = sub.add_parser("calibrate-garch", help="variance-targeting GARCH(1,1) fit")
    p.add_argument("--config", help="key = value run configuration file (column mapping)")
    p.add_argument("--underlying", required=True,
                   help="chain CSV or two-column date,value close series")
    p.add_argument("--config-out", required=True, help="where to write the fitted fragment")
    p.set_defaults(func=_cmd_calibrate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    root = logging.getLogger("volswitch")
    stream = logging.StreamHandler(sys.stderr)
    stream.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root.addHandler(stream)
    try:
        args = parser.parse_args(argv)
        root.setLevel(logging.INFO if args.verbose else logging.WARNING)
        fallbacks = args.func(args)  # only a backtest counts them
    except (EstimationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        root.removeHandler(stream)
    if fallbacks:
        print(
            f"completed with {fallbacks} numerical fallback(s); "
            "see the logged warnings before trusting these outputs",
            file=sys.stderr,
        )
        return 2
    return 0
