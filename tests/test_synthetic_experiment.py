"""scripts/run_synthetic_experiment.py prints what serial comparisons give, in seed order."""

import importlib.util
import multiprocessing
from pathlib import Path

from volswitch.experiments import run_synthetic_comparison

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_synthetic_experiment.py"


def test_the_pooled_seeds_print_the_serial_comparisons(capsys):
    spec = importlib.util.spec_from_file_location("run_synthetic_experiment", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.main(["--seeds", "3", "--steps", "12", "--pf-particles", "60", "--pcrlb-particles", "40"])
    assert not multiprocessing.active_children()
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("seed ")]
    strategies = ("EKF", "UKF", "PF", "AAF")
    expect = []
    for seed in range(3):
        rmse = run_synthetic_comparison(seed, 12, strategies, pf_particles=60, pcrlb_particles=40).rmse
        expect.append(f"seed {seed:3d}  " + "  ".join(f"{s}={rmse[s]:.4f}" for s in strategies))
    assert printed == expect
