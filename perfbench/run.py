"""volswitch benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload synthetic-bank --seed 1 --seconds 50 --trace 0

Runs complete passes of the workload for about ``--seconds`` seconds, and
at least two so that same-seed outputs can be compared byte for byte.
Every pass's outputs are checked. Untraced passes time each estimation step
(``spans.StepClock``); the end-to-end times are taken at the fastest pace
the run observed (``fastest_pace``) and rescaled by the host speed that
fixed reference kernels measured meanwhile (``reference.py``), so they read
as seconds on a quiet 2-core Xeon VM; so is ``setup_s``, the median of
eleven fresh imports. It prints a summary, then as its last
line one JSON object with the keys correct, attempted, failed and metrics.
With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
passes alternate untraced and traced, and the metrics are the per-layer
ones from the traced passes. The spans go to .bench_out/ in the checkout.

    python3 perfbench/run.py --record

runs each workload once at the reference seed and rewrites
perfbench/provenance.json: machine, versions, BLAS setting, git commit,
src/ line count and the SHA-256 of each workload's reports.
"""

import os

# Pin BLAS threads before numpy loads. The work is 2x2 algebra and arrays of
# a few thousand particles, where BLAS threads add contention and noise.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PROVENANCE = BENCH / "provenance.json"
REFERENCE_SEED = 0

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_ref_s": "s",
    "steps_per_ref_s": "1/s",
    "peak_rss_mb": "MB",
    "ops_ok_share": "ratio",
}


def run_child(cmd) -> float:
    """Wall seconds of one child process, killed after 60 s.

    ``subprocess.run(timeout=...)`` polls the child with sleeps of up to
    50 ms, which would round every sub-second time up to that grid; this
    waits in one blocking call instead.
    """
    start = perf_counter()
    proc = subprocess.Popen(cmd)
    killer = threading.Timer(60.0, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    finally:
        killer.cancel()
        killer.join()
    if code:
        raise subprocess.CalledProcessError(code, cmd)
    return perf_counter() - start


def measure_setup(repeats: int) -> float:
    """Median wall time of importing volswitch.cli in a fresh interpreter."""
    cmd = [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import volswitch.cli"]
    run_child(cmd)  # byte-compiles the package once
    return statistics.median(run_child(cmd) for _ in range(repeats))


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": BLAS_THREADS,
        "src_lines": src_lines(),
    }


def run_passes(workload, seconds: int, trace: bool, work: Path, tracer, counter, ref) -> list:
    """Complete passes until the next would end past ``seconds`` or one fails; at least two.

    Untraced passes run under the step clock, traced ones under the tracer.
    The reference clock times the host before the first pass (which also
    warms the process up) and after every pass.
    """
    clock = spans.StepClock()
    ref.burst(1.0)
    outcomes = []
    started = perf_counter()
    while True:
        index = len(outcomes)
        traced = trace and index % 2 == 1
        out_dir = work / f"pass{index}"
        counter.counts = {}
        gc.collect()
        start = perf_counter()
        try:
            if traced:
                with tracer.active(index):
                    outcome = workload.run(out_dir)
            else:
                with clock.active() as stamps:
                    outcome = workload.run(out_dir)
                outcome.stamps = stamps
        except Exception:  # a pass that raises is a failed pass, reported below
            outcome = workloads.Outcome(exit_code=1, attempts=1, problems=[traceback.format_exc()])
        outcome.seconds = perf_counter() - start
        outcome.traced = traced
        outcome.fallbacks = dict(counter.counts)
        if not outcome.problems:
            workload.check(outcome, out_dir)
        if not (traced or outcome.problems) and len(outcome.stamps) != outcome.steps:
            outcome.problems.append(f"step clock saw {len(outcome.stamps)} steps, not {outcome.steps}")
        shutil.rmtree(out_dir, ignore_errors=True)
        ref.burst(max(0.2, 0.05 * outcome.seconds))  # about a twentieth of the run
        outcomes.append(outcome)
        if len(outcomes) >= 2 and (
            outcome.problems or perf_counter() - started + outcome.seconds > seconds
        ):
            break
    return outcomes


def determinism_problems(outcomes) -> list:
    first = outcomes[0].digests
    return [
        f"pass {i} differs from pass 0 in {name}"
        for i, o in enumerate(outcomes[1:], start=1)
        for name in sorted(first)
        if o.digests.get(name) != first[name]
    ]


def reference_digests() -> dict:
    if not PROVENANCE.is_file():
        return {}
    return json.loads(PROVENANCE.read_text(encoding="utf-8")).get("report_sha256", {})


def print_summary(args, outcomes, problems) -> None:
    first = outcomes[0]
    kinds: dict = {}
    for o in outcomes:
        for kind, n in o.fallbacks.items():
            kinds[kind] = kinds.get(kind, 0) + n
    print(f"workload {args.workload} seed {args.seed}: {len(outcomes)} passes, "
          f"{sum(o.traced for o in outcomes)} traced; steps per pass {first.steps}; "
          f"exit codes {sorted({o.exit_code for o in outcomes})}")
    print(f"  untraced pass seconds {[round(o.seconds, 4) for o in outcomes if not o.traced]}")
    print(f"  fallback warnings by kind: {kinds or 'none'}")
    print(f"  state_rmse {first.state_rmse!r}, forecast_rmse {first.forecast_rmse!r}")
    for name in ("decision_log", "rmse", "comparison"):
        if name in first.digests:
            print(f"  sha256 {name}: {first.digests[name]}")
    recorded = reference_digests().get(args.workload)
    if args.seed == REFERENCE_SEED and recorded and not args.smoke:
        same = all(first.digests.get(k) == v for k, v in recorded.items())
        print(f"  reports {'match' if same else 'DIFFER FROM'} the recorded seed-{REFERENCE_SEED} hashes")
    for p in problems:
        print(f"  CHECK FAILED: {p}")


def step_intervals(outcome) -> list:
    """Per estimation loop of a pass, the seconds between its consecutive step stamps."""
    loops, start = [], 0
    for n in outcome.loops:
        stamps = outcome.stamps[start:start + n]
        loops.append([b - a for a, b in zip(stamps, stamps[1:])])
        start += n
    return loops


def fastest_pace(outcomes) -> tuple:
    """(pass_s, steps_per_s) of one pass at the fastest pace the run observed.

    On a shared 2-core Xeon VM the speed drifts by a fifth or more from
    minute to minute, which moves any median of a run with it; the fastest
    repeat of identical millisecond-scale work barely moves. Each estimation loop's timed steps count at that loop's
    fastest step over every pass of the run, hundreds of samples; the rest of
    a pass (ingest, calibration, each loop's first step, forecasts, reports)
    counts at its fastest pass.
    """
    per_pass = [step_intervals(o) for o in outcomes]
    loops = range(len(per_pass[0]))
    counts = [len(per_pass[0][j]) for j in loops]
    fastest = [min(min(p[j]) for p in per_pass) for j in loops]
    loop_s = sum(n * t for n, t in zip(counts, fastest))
    rest_s = min(o.seconds - sum(map(sum, p)) for o, p in zip(outcomes, per_pass))
    return rest_s + loop_s, sum(counts) / loop_s


def end_to_end_values(outcomes, setup_s: float, attempted: int, failed: int, ref) -> dict:
    times = [o.seconds for o in outcomes]
    # a tail percentile needs ten passes beyond it (100 for p90); no run gets there
    print(f"  wall pass seconds median {statistics.median(times)!r} over {len(times)} passes; "
          f"set-up median {setup_s!r} s")
    if any(o.problems for o in outcomes):  # the result is refused anyway; report the plain median
        pass_s = statistics.median(times)
        steps_per_s = outcomes[0].steps / pass_s
    else:
        pass_s, steps_per_s = fastest_pace(outcomes)
    scale = ref.scale()
    print(f"  at the fastest pace: pass {pass_s!r} s, {steps_per_s!r} steps/s; "
          f"reference kernels' fastest calls {ref.fastest}, host speed scale {scale!r}")
    return {
        "setup_s": setup_s * scale,
        "pass_ref_s": pass_s * scale,
        "steps_per_ref_s": steps_per_s / scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_share": 1.0 - failed / attempted,
    }


def layer_values(outcomes, tracer) -> dict:
    """Median over traced passes of each per-layer metric."""
    per_pass = []
    for pass_id, o in enumerate(outcomes):
        if not o.traced:
            continue
        values = spans.layer_metrics(spans.pass_totals(tracer.spans, pass_id))
        values.update({
            "filters.fallbacks": o.fallbacks.get("filter_fallback", 0),
            "pcrlb.carried_forward": o.fallbacks.get("bound_carried_forward", 0),
            "switching.no_filter_events": o.fallbacks.get("no_usable_filter", 0),
            "switching.excluded_filters": o.fallbacks.get("excluded_filter", 0),
            "switching.state_rmse": o.state_rmse,
            "backtest.forecast_rmse": o.forecast_rmse,
        })
        per_pass.append(values)
    values = spans.median_metrics(per_pass)
    values["trace.overhead_s"] = (statistics.median(o.seconds for o in outcomes if o.traced)
                                  - statistics.median(o.seconds for o in outcomes if not o.traced))
    return values


def run(args, work: Path) -> dict:
    setup_s = None if args.trace else measure_setup(1 if args.smoke else 11)
    work.mkdir(parents=True)
    workload = workloads.prepare(args.workload, ROOT, work, args.seed, args.smoke)

    tracer = spans.Tracer()
    ref = reference.ReferenceClock()
    counter = workloads.FallbackCounter()
    logger = logging.getLogger("volswitch")
    logger.addHandler(counter)
    try:
        outcomes = run_passes(workload, args.seconds, bool(args.trace), work, tracer, counter, ref)
    finally:
        logger.removeHandler(counter)

    problems = [p for o in outcomes for p in o.problems] + determinism_problems(outcomes)
    attempted = sum(o.attempts for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    print_summary(args, outcomes, problems)
    print(f"  ops attempted {attempted}, failed {failed}")
    if args.trace:
        values = layer_values(outcomes, tracer)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{args.workload}-{args.seed}.csv")
        units = spans.PER_LAYER_UNITS
    else:
        values = end_to_end_values(outcomes, setup_s, attempted, failed, ref)
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def record() -> None:
    """Rewrite provenance.json from one pass per workload at the reference seed."""
    info = provenance()
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        info["cpu_model"] = next(
            (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
            platform.processor(),
        )
    info["git_commit"] = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    info["reference_seed"] = REFERENCE_SEED
    digests = {}
    for name in workloads.WORKLOAD_NAMES:
        work = ROOT / ".bench_work" / f"record-{name}"
        try:
            workload = workloads.prepare(name, ROOT, work, REFERENCE_SEED, smoke=False)
            outcome = workload.run(work / "pass")
            workload.check(outcome, work / "pass")
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if outcome.problems:
            raise SystemExit(f"{name}: {outcome.problems}")
        keep = ("comparison",) if "comparison" in outcome.digests else ("decision_log", "rmse")
        digests[name] = {k: outcome.digests[k] for k in keep}
    info["report_sha256"] = digests
    PROVENANCE.write_text(json.dumps(info, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {PROVENANCE}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    parser.add_argument("--record", action="store_true", help="rewrite provenance.json")
    args = parser.parse_args(argv)
    if not (args.record or args.workload):
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "volswitch" / "__init__.py").is_file() or not (ROOT / "data").is_dir():
        print(f"error: no volswitch source tree under {ROOT}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    # import every entry point now, so no pass pays for an import
    import volswitch.cli
    import volswitch.experiments  # noqa: F401

    if Path(volswitch.__file__).resolve().parent != SRC / "volswitch":
        print(f"error: imported volswitch from {volswitch.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("provenance: " + json.dumps(provenance(), sort_keys=True))
    if args.record:
        record()
        return 0

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
