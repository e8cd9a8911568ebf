"""Switching-vs-single-filter comparison on synthetic ground truth.

Runs the default regime over many seeds and reports each strategy's
standardized state RMSE, plus how often the average-case switch beats
every individual filter. Only the switching strategies (AAF, ABF) compute
the per-filter information bounds: a single filter has nothing to switch
to, so its bound would go unread and is skipped. The seeds run in a
``fork`` pool of ``workers.fork_cpus()`` processes where that is 2 or
more, else one after another; either way they print in seed order.

    python scripts/run_synthetic_experiment.py --seeds 20 --steps 150
"""

import argparse
import multiprocessing
import statistics
import sys
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from volswitch import workers
from volswitch.experiments import run_synthetic_comparison


def in_seed_order(run, seeds):
    """``run(seed)`` for each seed, in order, in a fork pool where two or more CPUs are usable."""
    cpus = workers.fork_cpus()
    if cpus < 2:
        yield from map(run, seeds)
        return
    with multiprocessing.get_context("fork").Pool(cpus) as pool:
        yield from pool.imap(run, seeds)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--steps", type=int, default=150)
    parser.add_argument("--pf-particles", type=int, default=500)
    parser.add_argument("--pcrlb-particles", type=int, default=400)
    parser.add_argument("--strategies", nargs="+", default=["EKF", "UKF", "PF", "AAF"])
    args = parser.parse_args(argv)

    run = partial(
        run_synthetic_comparison,
        n_steps=args.steps,
        strategies=args.strategies,
        pf_particles=args.pf_particles,
        pcrlb_particles=args.pcrlb_particles,
    )
    rows = []
    for result in in_seed_order(run, range(args.seeds)):
        rows.append(result.rmse)
        print(f"seed {result.seed:3d}  " + "  ".join(f"{s}={result.rmse[s]:.4f}" for s in args.strategies))

    print()
    singles = [s for s in args.strategies if s in ("EKF", "UKF", "PF")]
    for s in args.strategies:
        med = statistics.median(r[s] for r in rows)
        print(f"median {s}: {med:.4f}")
    if "AAF" in args.strategies and singles:
        wins = sum(1 for r in rows if r["AAF"] < min(r[s] for s in singles))
        best_single_median = statistics.median(min(r[s] for s in singles) for r in rows)
        aaf_median = statistics.median(r["AAF"] for r in rows)
        print(f"AAF strictly best in {wins}/{len(rows)} seeds; "
              f"median ratio to best single filter {aaf_median / best_single_median:.3f}")


if __name__ == "__main__":
    main()
