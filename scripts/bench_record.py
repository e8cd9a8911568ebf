"""Record a PR's benchmark runs, parent and change alternated, into BENCH_<pr>.json.

    python3 scripts/bench_record.py 6 ../parent-checkout
    python3 scripts/bench_record.py 8 ../parent-checkout --pairs 10

For every workload in BENCHMARK.json, at --trace 0 and then --trace 1, runs
perfbench/run.py of the parent checkout and of this one back to back, for
the benchmark's run_seconds; which side goes first alternates from pair to
pair, and "run_order" lists the runs as they ran. By default each trace
setting gets one pair at seed 0. With --pairs N the --trace 0 pairs run N
times per workload, at seeds 1..N, as a claimed gain needs; --trace 1 stays
at one pair at seed 0. Each run is stored with its seed, in run order.
Each side also records the line count of its src/, the SHA-256 of each of
the six reports of its sample backtest for every strategy in STRATEGIES
(seed 0), the SHA-256 of its synthetic comparison at seeds 0-2 over all
five strategies (each seed's RMSE reprs and chosen counts, the summary the
synthetic-bank check hashes), and the SHA-256 of load_chain's result on
the seed-0 large chain (every column's bytes, then the rejects' lines and
reasons), which perfbench/chaingen.py writes once for both sides. That
chain is hashed twice: as load_chain loads it, and forced to one byte
range by raising marketdata._MIN_RANGE_BYTES above the file size. On the
same chain each side runs the large-chain workload's calibrating EKF
backtest (seed 0, the arguments of chaingen's manifest.json) and records
the SHA-256 of its six reports. All run in a subprocess of that side's
checkout. If the two load hashes of a side differ, the record is written
without runs and the script exits 1. Nothing gates on absolute times.
Every sample (strategy, report) and every large-chain report whose hash
differs between the sides, or that one side lacks, is printed.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SEED = 0
SAMPLE_DIGEST = """
import contextlib, hashlib, io, json, pathlib, tempfile
from volswitch.backtest import STRATEGIES
from volswitch.cli import main
hashes = {}
for strategy in STRATEGIES:
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        code = main(["backtest", "--chain", "data/sample_chain.csv", "--config", "data/sample_config.cfg",
                     "--strategy", strategy, "--seed", "0", "--out-dir", out])
        assert code == 0, (strategy, code)
        hashes[strategy] = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                            for path in sorted(pathlib.Path(out).iterdir())}
print(json.dumps(hashes))
"""
SYNTHETIC_DIGEST = """
import hashlib, json
from volswitch.backtest import STRATEGIES
from volswitch.experiments import run_synthetic_comparison
summaries = []
for seed in range(3):
    result = run_synthetic_comparison(seed, strategies=STRATEGIES)
    summaries.append({"rmse": {k: repr(v) for k, v in result.rmse.items()}, "counts": result.chosen_counts})
print(hashlib.sha256(json.dumps(summaries, sort_keys=True).encode()).hexdigest())
"""
LARGE_CHAIN_DIGEST = """
import contextlib, hashlib, io, json, pathlib, sys, tempfile
from volswitch.cli import main
chain_dir = pathlib.Path(sys.argv[1])
manifest = json.loads((chain_dir / "manifest.json").read_text(encoding="utf-8"))
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    code = main(["backtest", "--chain", str(chain_dir / "chain.csv"), "--config", str(chain_dir / "run.cfg"),
                 "--strike", repr(manifest["strike"]), "--expiry", manifest["expiry"],
                 "--train-end", manifest["train_end"], "--test-end", manifest["test_end"],
                 "--seed", sys.argv[2], "--strategy", "EKF", "--out-dir", out])
    assert code in (0, 2), code
    hashes = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
              for path in sorted(pathlib.Path(out).iterdir())}
print(json.dumps(hashes))
"""
LOAD_DIGEST = """
import hashlib, os, sys
from dataclasses import fields
from volswitch import marketdata
def digest():
    chain, rejects = marketdata.load_chain(sys.argv[1])
    h = hashlib.sha256()
    for f in fields(marketdata.OptionChain):
        h.update(getattr(chain, f.name).tobytes())
    h.update(repr([(r.line, r.reason) for r in rejects]).encode())
    return h.hexdigest()
shipped = digest()
marketdata._MIN_RANGE_BYTES = os.path.getsize(sys.argv[1]) + 1
print(shipped, digest())
"""


def run_bench(root: Path, command: list, workload: str, trace: int, seconds: int, seed: int) -> dict:
    proc = subprocess.run(
        [*command, "--workload", workload, "--trace", str(trace),
         "--seconds", str(seconds), "--seed", str(seed)],
        cwd=root, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    provenance = next(line for line in lines if line.startswith("provenance: "))
    return {"seed": seed, "provenance": json.loads(provenance.split(" ", 1)[1]),
            "result": json.loads(lines[-1])}


def describe(root: Path, chain: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    sample = json.loads(subprocess.run([sys.executable, "-c", SAMPLE_DIGEST], cwd=root, env=env,
                                       capture_output=True, text=True, check=True).stdout)
    synthetic = subprocess.run([sys.executable, "-c", SYNTHETIC_DIGEST], cwd=root, env=env,
                               capture_output=True, text=True, check=True).stdout.strip()
    loaded, one_range = subprocess.run([sys.executable, "-c", LOAD_DIGEST, str(chain)], cwd=root, env=env,
                                       capture_output=True, text=True, check=True).stdout.split()
    large_chain = json.loads(subprocess.run([sys.executable, "-c", LARGE_CHAIN_DIGEST, str(chain.parent), str(SEED)],
                                            cwd=root, env=env, capture_output=True, text=True, check=True).stdout)
    return {
        "commit": subprocess.run(["git", "-C", str(root), "describe", "--always", "--dirty"],
                                 capture_output=True, text=True).stdout.strip(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((root / "src").rglob("*.py"))),
        "sample_sha256": sample,
        "synthetic_sha256": synthetic,
        "large_chain_load_sha256": loaded,
        "large_chain_one_range_load_sha256": one_range,
        "large_chain_reports_sha256": large_chain,
        "runs": {},
    }


def differing(parent: dict, change: dict) -> list:
    """Names whose hash differs between the sides, or that one side lacks."""
    return [name for name in sorted(parent.keys() | change.keys()) if parent.get(name) != change.get(name)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pr", type=int)
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("--pairs", type=int, help="--trace 0 pairs per workload, at seeds 1..N "
                        "(default: one pair at seed 0)")
    args = parser.parse_args(argv)
    if args.pairs is not None and args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seeds = [SEED] if args.pairs is None else list(range(1, args.pairs + 1))
    spec = json.loads((HERE / "BENCHMARK.json").read_text(encoding="utf-8"))
    roots = {"parent": args.parent.resolve(), "change": HERE}
    with tempfile.TemporaryDirectory() as chain_dir:
        subprocess.run([sys.executable, "perfbench/chaingen.py", "--seed", str(SEED), "--out-dir", chain_dir],
                       cwd=HERE, capture_output=True, check=True)
        chain = Path(chain_dir) / "chain.csv"
        record = {"seconds": spec["run_seconds"], "run_order": [],
                  **{label: describe(root, chain) for label, root in roots.items()}}
    path = HERE / f"BENCH_{args.pr}.json"
    parent_sample, change_sample = (record[label]["sample_sha256"] for label in roots)
    for strategy in sorted(parent_sample.keys() | change_sample.keys()):
        for name in differing(parent_sample.get(strategy, {}), change_sample.get(strategy, {})):
            print(f"sample {strategy} {name} differs from the parent", flush=True)
    for name in differing(*(record[label]["large_chain_reports_sha256"] for label in roots)):
        print(f"large-chain {name} differs from the parent", flush=True)
    differ = [label for label in roots
              if record[label]["large_chain_load_sha256"] != record[label]["large_chain_one_range_load_sha256"]]
    if differ:
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}; the ranged and one-range loads differ on: {', '.join(differ)}", file=sys.stderr)
        return 1
    pairs = [(w["name"], trace, seed) for w in spec["workloads"]
             for trace, trace_seeds in ((0, seeds), (1, [SEED])) for seed in trace_seeds]
    for i, (workload, trace, seed) in enumerate(pairs):
        for label in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs = record[label]["runs"].setdefault(workload, {}).setdefault(f"trace{trace}", [])
            runs.append(run_bench(roots[label], spec["command"], workload, trace, spec["run_seconds"], seed))
            record["run_order"].append(f"{workload} trace{trace} seed{seed} {label}")
            print(record["run_order"][-1], flush=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
