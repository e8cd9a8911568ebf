"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

A pass is one complete unit of work through the package's public entry
points. Every pass of a run uses the same seed, so their outputs must be
byte-identical; ``Outcome.digests`` carries what is compared.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import logging
import math
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REPORTS = ("decision_log", "pcrlb_trace", "rmse", "frequency", "volatility", "forecasts")

# Same rule as the CLI's exit-code-2 counter: WARNING records from these
# modules mark numerical fallbacks. The message tells which kind.
NUMERICAL_MODULES = (
    "volswitch.bsgarch",
    "volswitch.filters",
    "volswitch.linalg",
    "volswitch.pcrlb",
    "volswitch.switching",
)
FALLBACK_KINDS = (
    ("bound_carried_forward", "carrying J forward"),
    ("filter_fallback", "update failed"),
    ("filter_fallback", "degenerate particle weights"),
    ("no_usable_filter", "no usable filter"),
    ("excluded_filter", "excluded from switch"),
)
# kinds that count as failed operations; an excluded filter still ran
FAILED_KINDS = ("filter_fallback", "bound_carried_forward", "no_usable_filter")


class FallbackCounter(logging.Handler):
    """Counts numerical-fallback warnings per kind, from outside the package."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.counts: dict = {}

    def emit(self, record):
        if not record.name.startswith(NUMERICAL_MODULES):
            return
        message = record.getMessage()
        kind = next((k for k, text in FALLBACK_KINDS if text in message), "other")
        self.counts[kind] = self.counts.get(kind, 0) + 1


@dataclass
class Outcome:
    """What one pass produced, filled in after its timed region."""

    seconds: float = 0.0
    traced: bool = False
    exit_code: int = 0
    loops: list = field(default_factory=list)  # observation steps of each estimation loop, in run order
    attempts: int = 0  # filter updates plus bound updates
    fallbacks: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    state_rmse: float = 0.0
    forecast_rmse: float = 0.0
    problems: list = field(default_factory=list)
    stderr: str = ""
    result: object = None  # the comparison result of a synthetic pass
    stamps: list = field(default_factory=list)  # one per estimation step, from the step clock

    @property
    def steps(self) -> int:
        return sum(self.loops)

    @property
    def failed(self) -> int:
        if self.exit_code not in (0, 2):
            return self.attempts
        return sum(self.fallbacks.get(k, 0) for k in FAILED_KINDS)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def updates(steps: int, bank_size: int) -> int:
    """Filter updates plus bound updates of one run (no bound after the last step)."""
    return bank_size * steps + bank_size * (steps - 1)


def standardized_rmse(estimates: np.ndarray, truth: np.ndarray) -> float:
    """Joint state error, each component scaled by the truth's spread (as the package scores it)."""
    scales = np.maximum(truth.std(axis=0), 1e-12)
    return float(np.sqrt(np.mean(np.sum(((estimates - truth) / scales) ** 2, axis=1))))


def read_truth(path) -> dict:
    with open(path, encoding="utf-8", newline="") as fh:
        return {row["date"]: (float(row["v"]), float(row["r"])) for row in csv.DictReader(fh)}


class ChainBacktest:
    """``volswitch backtest`` run in process; checks its six reports."""

    def __init__(self, argv, strategy, truth, rejected_rows=None):
        self.argv = ["backtest", *argv, "--strategy", strategy]
        self.strategy = strategy
        self.truth = truth
        self.rejected_rows = rejected_rows

    def run(self, out_dir: Path) -> Outcome:
        from volswitch import cli

        captured_out, captured_err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(captured_out), contextlib.redirect_stderr(captured_err):
            code = cli.main([*self.argv, "--out-dir", str(out_dir)])
        return Outcome(exit_code=code, stderr=captured_err.getvalue())

    def check(self, outcome: Outcome, out_dir: Path) -> None:
        from volswitch.backtest import strategy_bank

        problems = outcome.problems
        if outcome.exit_code not in (0, 2):
            outcome.attempts = 1  # the pass itself, which produced nothing usable
            problems.append(f"backtest exited {outcome.exit_code}: {outcome.stderr.strip()[-400:]}")
            return
        missing = [name for name in REPORTS if not (out_dir / f"{name}.csv").is_file()]
        if missing:
            problems.append(f"missing reports: {missing}")
            return
        outcome.digests = {name: sha256(out_dir / f"{name}.csv") for name in REPORTS}

        with open(out_dir / "decision_log.csv", encoding="utf-8", newline="") as fh:
            log = list(csv.DictReader(fh))
        steps = len(log)
        outcome.loops = [steps]
        outcome.attempts = updates(steps, len(strategy_bank(self.strategy)[1]))

        with open(out_dir / "frequency.csv", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                chosen = sum(int(row[f]) for f in ("EKF", "UKF", "PF"))
                if chosen != steps or int(row["total"]) != steps:
                    problems.append(f"frequency row {row['series']} sums to {chosen}, not {steps}")

        with open(out_dir / "rmse.csv", encoding="utf-8", newline="") as fh:
            rmse_rows = {row["series"]: row for row in csv.DictReader(fh)}
        for label, row in rmse_rows.items():
            for col in ("rmse_fit", "rmse_forecast"):
                value = float(row[col]) if row[col] else math.nan
                if not math.isfinite(value):
                    problems.append(f"rmse {label}.{col} is not finite: {row[col]!r}")
        if self.strategy in rmse_rows and rmse_rows[self.strategy]["rmse_forecast"]:
            outcome.forecast_rmse = float(rmse_rows[self.strategy]["rmse_forecast"])
        else:
            problems.append(f"rmse.csv has no forecast row for {self.strategy}")

        if self.rejected_rows is not None:
            note = re.search(r"note: (\d+) row\(s\) rejected", outcome.stderr)
            rejected = int(note.group(1)) if note else 0
            if rejected != self.rejected_rows:
                problems.append(f"loader rejected {rejected} rows, expected {self.rejected_rows}")

        try:
            truth = np.array([self.truth[row["date"]] for row in log])
        except KeyError as e:
            problems.append(f"decision log date {e} has no true state")
            return
        estimates = np.array([(float(row["est_v"]), float(row["est_r"])) for row in log])
        outcome.state_rmse = standardized_rmse(estimates, truth)
        if not math.isfinite(outcome.state_rmse):
            problems.append("state RMSE is not finite")


class SyntheticBank:
    """``experiments.run_synthetic_comparison`` over every strategy, one seed."""

    def __init__(self, seed, n_steps, pf_particles, pcrlb_particles):
        self.seed = seed
        self.n_steps = n_steps
        self.kwargs = dict(n_steps=n_steps, pf_particles=pf_particles, pcrlb_particles=pcrlb_particles)

    def run(self, out_dir: Path) -> Outcome:
        from volswitch import experiments
        from volswitch.backtest import STRATEGIES

        return Outcome(result=experiments.run_synthetic_comparison(
            self.seed, strategies=STRATEGIES, **self.kwargs))

    def check(self, outcome: Outcome, out_dir: Path) -> None:
        from volswitch.backtest import STRATEGIES, strategy_bank

        problems = outcome.problems
        result = outcome.result
        for strategy in STRATEGIES:
            mode, bank = strategy_bank(strategy)
            outcome.loops.append(self.n_steps)
            outcome.attempts += updates(self.n_steps, len(bank))
            value = result.rmse.get(strategy, math.nan)
            if not (math.isfinite(value) and value > 0.0):
                problems.append(f"{strategy}: state RMSE {value!r}")
            if len(bank) > 1:
                components = 1 if mode == "average" else 2
                total = sum(result.chosen_counts.get(strategy, {}).values())
                if total != components * self.n_steps:
                    problems.append(f"{strategy}: {total} choices for {self.n_steps} steps")
        summary = {"rmse": {k: repr(v) for k, v in result.rmse.items()}, "counts": result.chosen_counts}
        outcome.digests = {"comparison": hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()}
        outcome.state_rmse = (result.rmse["AAF"] + result.rmse["ABF"]) / 2.0


# Why each workload exists:
#
# sample-aaf: the project's headline number, `volswitch backtest --chain
#   data/sample_chain.csv --config data/sample_config.cfg --strategy AAF`:
#   150 steps, a bank of three filters, PF n=2000, bound n=1000. The bound
#   recursion is about 98% of it, so a cheaper bound shows here first.
#   BENCHMARK.json leaves it out: one pass takes 19-28 s on a 2-core Xeon,
#   a run needs two, and 22 runs of it do not fit the benchmark's time budget
#   beside the other two. Its layers are all measured on those.
# synthetic-bank: the research sweep, all five strategies on simulated truth
#   with the script defaults (150 steps, PF 500, bound 400). Many short runs
#   with small particle counts; the only workload with `select_best` and
#   single-filter banks, and it reads no files. The bound recursion is about
#   88% of it, so a cheaper bound shows here too. Once the bound is cheap,
#   per-step Python overhead in filters, switching and linalg dominates here.
# large-chain: a generated chain of about 190k rows (67 strikes, up to eight
#   live expiries, calls and puts, 250 trading days) backtested through the
#   CLI with one fixed contract, GARCH calibration and a small bound. Ingest,
#   series building, calibration and reports dominate, so it shows whether a
#   filter or bound change leaves the rest of the program alone.
WORKLOAD_NAMES = ("sample-aaf", "synthetic-bank", "large-chain")


def prepare(name: str, root: Path, work: Path, seed: int, smoke: bool):
    """Build the workload's inputs under ``work``; nothing here is timed."""
    if name == "sample-aaf":
        data = root / "data"
        truth = read_truth(data / "sample_truth.csv")
        config = data / "sample_config.cfg"
        argv = ["--chain", str(data / "sample_chain.csv"), "--seed", str(seed)]
        if smoke:
            config = work / "smoke.cfg"
            config.write_text((data / "sample_config.cfg").read_text(encoding="utf-8")
                              + "filters.n_particles = 100\npcrlb.n_particles = 40\n", encoding="utf-8")
            argv += ["--test-end", sorted(truth)[11]]
        return ChainBacktest(argv + ["--config", str(config)], "AAF", truth)

    if name == "synthetic-bank":
        # one comparison seed per pass: each costs about 13 s on a 2-core
        # Xeon, and a run needs two passes to check determinism
        if smoke:
            return SyntheticBank(seed, n_steps=12, pf_particles=60, pcrlb_particles=40)
        return SyntheticBank(seed, n_steps=150, pf_particles=500, pcrlb_particles=400)

    if name == "large-chain":
        chain_dir = work / "chain"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("chaingen.py")), "--seed", str(seed),
             "--out-dir", str(chain_dir), "--size", "smoke" if smoke else "full"],
            check=True, capture_output=True, text=True, timeout=120,
        )
        manifest = json.loads(proc.stdout)
        argv = [
            "--chain", str(chain_dir / "chain.csv"), "--config", str(chain_dir / "run.cfg"),
            "--strike", repr(manifest["strike"]), "--expiry", manifest["expiry"],
            "--train-end", manifest["train_end"], "--test-end", manifest["test_end"],
            "--seed", str(seed),
        ]
        return ChainBacktest(argv, "EKF", read_truth(chain_dir / "truth.csv"),
                             rejected_rows=manifest["no_price_rows"])

    raise ValueError(f"unknown workload {name!r}")
