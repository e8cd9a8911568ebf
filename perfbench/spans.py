"""Spans around the package's layer boundaries, recorded from outside.

Each wrapper replaces a function at the module attribute its caller looks
it up from (``volswitch.switching.pcrlb_step``, ``volswitch.backtest.write_reports``,
...), records a span (name, start, end, parent, pass id) in memory and
restores the original when tracing ends. A span's self time is its
duration minus the durations of its direct children; calls on one thread
nest, so children never overlap.
"""

from __future__ import annotations

import importlib
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# (module[:class], attribute, span name). The span name's first part is the
# package module the wrapped function belongs to, which is its layer.
BOUNDARIES = (
    ("volswitch.cli", "main", "cli.main"),
    ("volswitch.cli", "load_config", "config.load_config"),
    ("volswitch.cli", "load_chain", "marketdata.load_chain"),
    ("volswitch.cli", "build_series", "marketdata.series"),
    ("volswitch.cli", "max_volume_series", "marketdata.series"),
    ("volswitch.cli", "prior_close_before", "marketdata.series"),
    ("volswitch.cli", "run_backtest", "backtest.run_backtest"),
    ("volswitch.backtest", "fit_garch", "calibrate.fit_garch"),
    ("volswitch.backtest", "run_adaptive_estimation", "switching.run_adaptive_estimation"),
    ("volswitch.backtest", "_forecast_from_estimate", "backtest.forecast"),
    ("volswitch.backtest", "write_reports", "backtest.write_reports"),
    ("volswitch.experiments", "run_synthetic_comparison", "experiments.run_synthetic_comparison"),
    ("volswitch.experiments", "generate_synthetic", "marketdata.generate_synthetic"),
    ("volswitch.experiments", "run_adaptive_estimation", "switching.run_adaptive_estimation"),
    ("volswitch.switching", "ekf_update", "filters.ekf_update"),
    ("volswitch.switching", "ukf_update", "filters.ukf_update"),
    ("volswitch.switching", "pf_update", "filters.pf_update"),
    ("volswitch.switching", "pcrlb_step", "pcrlb.pcrlb_step"),
    ("volswitch.switching", "perf_metric", "switching.perf_metric"),
    ("volswitch.switching", "select_average", "switching.select_average"),
    ("volswitch.switching", "select_best", "switching.select_best"),
    ("volswitch.pcrlb", "regularized_inverse", "linalg.regularized_inverse"),
    ("volswitch.bsgarch:BsGarchModel", "measurement_batch", "bsgarch.measurement_batch"),
    ("volswitch.bsgarch:BsGarchModel", "measurement_jacobian_batch", "bsgarch.measurement_jacobian_batch"),
)


def _rows_loaded(result):
    quotes, rejects = result
    return len(quotes) + len(rejects), len(rejects)


def _bytes_written(paths):
    return sum(Path(p).stat().st_size for p in paths.values())


# what a span keeps from its call's result
NOTES = {
    "marketdata.load_chain": _rows_loaded,
    "backtest.write_reports": _bytes_written,
}

PER_LAYER_UNITS = {
    "pcrlb.pcrlb_step.calls": "count",
    "pcrlb.pcrlb_step.ms_per_call": "ms",
    "pcrlb.pcrlb_step.self_s": "s",
    "pcrlb.pcrlb_step.share": "ratio",
    "pcrlb.carried_forward": "count",
    "linalg.regularized_inverse.calls": "count",
    "filters.ekf_update.calls": "count",
    "filters.ekf_update.us_per_call": "us",
    "filters.ukf_update.calls": "count",
    "filters.ukf_update.us_per_call": "us",
    "filters.pf_update.calls": "count",
    "filters.pf_update.us_per_call": "us",
    "filters.fallbacks": "count",
    "bsgarch.measurement_batch.calls": "count",
    "bsgarch.measurement_batch.s": "s",
    "bsgarch.measurement_jacobian_batch.calls": "count",
    "bsgarch.measurement_jacobian_batch.s": "s",
    "switching.self_s": "s",
    "switching.perf_metric.us_per_call": "us",
    "switching.select_average.us_per_call": "us",
    "switching.select_best.us_per_call": "us",
    "switching.no_filter_events": "count",
    "switching.excluded_filters": "count",
    "switching.state_rmse": "std",
    "marketdata.load_chain.s": "s",
    "marketdata.load_chain.rows": "count",
    "marketdata.load_chain.rows_per_s": "1/s",
    "marketdata.rejected_rows": "count",
    "marketdata.series.s": "s",
    "marketdata.generate_synthetic.s": "s",
    "calibrate.fit_garch.s": "s",
    "config.load_config.s": "s",
    "backtest.run_backtest.self_s": "s",
    "backtest.forecast.calls": "count",
    "backtest.forecast.s": "s",
    "backtest.write_reports.s": "s",
    "backtest.write_reports.bytes": "B",
    "backtest.forecast_rmse": "rmse",
    "experiments.run_synthetic_comparison.self_s": "s",
    "cli.main.s": "s",
    "trace.pass_s": "s",
    "trace.overhead_s": "s",
}


def _resolve(target: str):
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """In-memory span recorder; ``active`` patches every boundary for one pass."""

    def __init__(self):
        # [name, start, end, parent index, pass id, note]
        self.spans: list = []
        self._stack: list = []
        self._pass_id = -1

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._pass_id, None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if note is not None:
                self.spans[index][5] = note(result)
            return result

        return traced

    @contextmanager
    def active(self, pass_id: int):
        """Trace one pass: patch every boundary, record a root ``pass`` span."""
        originals = []
        try:
            for target, attr, name in BOUNDARIES:
                owner = _resolve(target)
                fn = getattr(owner, attr)
                originals.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn))
            self._pass_id = pass_id
            index = self._open("pass")
            try:
                yield
            finally:
                self._close(index)
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)
            self._pass_id = -1

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,pass\n")
            for name, start, end, parent, pass_id, _ in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{pass_id}\n")


# The estimation loop calls exactly one of these once per observation step.
STEP_BOUNDARIES = (("volswitch.switching", "select_average"), ("volswitch.switching", "select_best"))


class StepClock:
    """Timestamps every estimation step of an untraced pass, and nothing else.

    The only hook in an end-to-end pass: one ``perf_counter`` call per step,
    against steps of milliseconds, so the steps between two stamps can be
    timed one by one.
    """

    def __init__(self):
        self.stamps: list = []

    @contextmanager
    def active(self):
        stamps = self.stamps = []
        originals = []

        def stamped(fn):
            def wrapper(*args, **kwargs):
                stamps.append(perf_counter())
                return fn(*args, **kwargs)

            return wrapper

        try:
            for target, attr in STEP_BOUNDARIES:
                owner = _resolve(target)
                originals.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, stamped(getattr(owner, attr)))
            yield stamps
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)


@dataclass
class _Totals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    notes: list = field(default_factory=list)


def pass_totals(spans, pass_id: int) -> dict:
    """Per span name: calls, total and self seconds, and notes for one pass."""
    own = [i for i, s in enumerate(spans) if s[4] == pass_id]
    children = dict.fromkeys(own, 0.0)
    for i in own:
        parent = spans[i][3]
        if parent in children:
            children[parent] += spans[i][2] - spans[i][1]
    totals: dict = {}
    for i in own:
        name, start, end, _, _, note = spans[i]
        t = totals.setdefault(name, _Totals())
        t.calls += 1
        t.seconds += end - start
        t.self_seconds += end - start - children[i]
        if note is not None:
            t.notes.append(note)
    return totals


def layer_metrics(totals: dict) -> dict:
    """Per-layer values of one traced pass, keyed by ``PER_LAYER_UNITS`` names."""
    get = totals.get
    empty = _Totals()

    def calls(name):
        return get(name, empty).calls

    def seconds(name):
        return get(name, empty).seconds

    def self_s(name):
        return get(name, empty).self_seconds

    def per_call(name, scale):
        t = get(name, empty)
        return t.seconds / t.calls * scale if t.calls else 0.0

    pass_s = seconds("pass")
    rows = sum(n for n, _ in get("marketdata.load_chain", empty).notes)
    out = {
        "pcrlb.pcrlb_step.calls": calls("pcrlb.pcrlb_step"),
        "pcrlb.pcrlb_step.ms_per_call": per_call("pcrlb.pcrlb_step", 1e3),
        "pcrlb.pcrlb_step.self_s": self_s("pcrlb.pcrlb_step"),
        "pcrlb.pcrlb_step.share": self_s("pcrlb.pcrlb_step") / pass_s,
        "linalg.regularized_inverse.calls": calls("linalg.regularized_inverse"),
        "bsgarch.measurement_batch.calls": calls("bsgarch.measurement_batch"),
        "bsgarch.measurement_batch.s": seconds("bsgarch.measurement_batch"),
        "bsgarch.measurement_jacobian_batch.calls": calls("bsgarch.measurement_jacobian_batch"),
        "bsgarch.measurement_jacobian_batch.s": seconds("bsgarch.measurement_jacobian_batch"),
        "switching.self_s": sum(t.self_seconds for n, t in totals.items() if n.startswith("switching.")),
        "switching.perf_metric.us_per_call": per_call("switching.perf_metric", 1e6),
        "switching.select_average.us_per_call": per_call("switching.select_average", 1e6),
        "switching.select_best.us_per_call": per_call("switching.select_best", 1e6),
        "marketdata.load_chain.s": seconds("marketdata.load_chain"),
        "marketdata.load_chain.rows": rows,
        "marketdata.load_chain.rows_per_s": rows / seconds("marketdata.load_chain") if rows else 0.0,
        "marketdata.rejected_rows": sum(r for _, r in get("marketdata.load_chain", empty).notes),
        "marketdata.series.s": seconds("marketdata.series"),
        "marketdata.generate_synthetic.s": seconds("marketdata.generate_synthetic"),
        "calibrate.fit_garch.s": seconds("calibrate.fit_garch"),
        "config.load_config.s": seconds("config.load_config"),
        "backtest.run_backtest.self_s": self_s("backtest.run_backtest"),
        "backtest.forecast.calls": calls("backtest.forecast"),
        "backtest.forecast.s": seconds("backtest.forecast"),
        "backtest.write_reports.s": seconds("backtest.write_reports"),
        "backtest.write_reports.bytes": sum(get("backtest.write_reports", empty).notes),
        "experiments.run_synthetic_comparison.self_s": self_s("experiments.run_synthetic_comparison"),
        "cli.main.s": seconds("cli.main"),
        "trace.pass_s": pass_s,
    }
    for f in ("ekf", "ukf", "pf"):
        out[f"filters.{f}_update.calls"] = calls(f"filters.{f}_update")
        out[f"filters.{f}_update.us_per_call"] = per_call(f"filters.{f}_update", 1e6)
    return out


def median_metrics(per_pass: list) -> dict:
    """Per metric, the median pass (the lower middle one for an even count)."""
    return {name: statistics.median_low(m[name] for m in per_pass) for name in per_pass[0]}
