"""scripts/run_synthetic_experiment.py prints what serial comparisons give, in seed order."""

import importlib.util
import multiprocessing
from pathlib import Path

import pytest

from volswitch.experiments import run_synthetic_comparison

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_synthetic_experiment.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_synthetic_experiment", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_the_pooled_seeds_print_the_serial_comparisons(capsys):
    script = load_script()
    script.main(["--seeds", "3", "--steps", "12", "--pf-particles", "60", "--pcrlb-particles", "40"])
    assert not multiprocessing.active_children()
    printed = [line for line in capsys.readouterr().out.splitlines() if line.startswith("seed ")]
    strategies = ("EKF", "UKF", "PF", "AAF")
    expect = []
    for seed in range(3):
        rmse = run_synthetic_comparison(seed, 12, strategies, pf_particles=60, pcrlb_particles=40).rmse
        expect.append(f"seed {seed:3d}  " + "  ".join(f"{s}={rmse[s]:.4f}" for s in strategies))
    assert printed == expect


@pytest.mark.parametrize(
    "args, message",
    [
        (["--seeds", "0"], "--seeds must be at least 1, got 0"),
        (["--steps", "0"], "--steps must be at least 1, got 0"),
        (["--pf-particles", "1"], "--pf-particles must be at least 2, got 1"),
        (["--pcrlb-particles", "1"], "--pcrlb-particles must be at least 2, got 1"),
        (["--strategies", "EKF", "KF"], "argument --strategies: invalid choice: 'KF'"),
    ],
    ids=["no-seeds", "no-steps", "one-pf-particle", "one-bound-particle", "unknown-strategy"],
)
def test_bad_arguments_are_usage_errors(capsys, args, message):
    with pytest.raises(SystemExit) as raised:
        load_script().main(args)
    assert raised.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and message in err
    assert not multiprocessing.active_children()
