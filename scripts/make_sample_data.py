"""Regenerate the bundled sample dataset under data/.

Everything here is deterministic (fixed seed, fixed start date), so the
checked-in files can be reproduced exactly:

    python scripts/make_sample_data.py
    python scripts/make_sample_data.py --out-dir /tmp/sample   # elsewhere, to compare with data/

Produces a 150-step synthetic option chain in the documented CSV schema,
the matching ground-truth states, the config used to generate it (which
is therefore also a well-specified config for backtesting it), and a
date,value comparison series for the vol-report command.
"""

import argparse
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from volswitch.bsgarch import ContractSpec
from volswitch.config import config_from_text
from volswitch.marketdata import (
    generate_synthetic,
    truth_to_chain,
    write_chain,
    write_csv,
    write_truth_states,
)

import datetime as dt

SEED = 2
STEPS = 150
START = dt.date(2019, 1, 2)

CONFIG_TEXT = """\
# config used to generate (and suitable for backtesting) the sample chain
garch.omega = 8e-6
garch.alpha = 0.10
garch.beta = 0.85
noise.q11 = 6.4e-11
noise.q22 = 1.6e-7
noise.r = 2.5e-3
v0 = 1.6e-4
r0 = 0.02
"""


def main(argv=None):
    parser = argparse.ArgumentParser(description="Regenerate the sample dataset.")
    parser.add_argument("--out-dir", type=Path, default=ROOT / "data",
                        help="directory to write into (default: the repository's data/)")
    data = parser.parse_args(argv).out_dir
    data.mkdir(parents=True, exist_ok=True)

    cfg = config_from_text(CONFIG_TEXT, source="sample_config")
    contract = ContractSpec(strike=100.0, expiry_step=252)
    model = cfg.model_spec(contract)
    truth = generate_synthetic(
        model,
        n_steps=STEPS,
        s0=100.0,
        x0=(cfg.v0, cfg.r0),
        seed=SEED,
        start_date=START,
    )

    (data / "sample_config.cfg").write_text(CONFIG_TEXT, encoding="utf-8")
    chain = truth_to_chain(truth, model)
    write_chain(data / "sample_chain.csv", chain)
    write_truth_states(data / "sample_truth.csv", truth)

    # true annualized volatility as a date,value series -- a natural external
    # comparison target for `volswitch vol-report --compare`
    write_csv(data / "sample_compare.csv", ["date", "value"], (
        [date, math.sqrt(truth.states[t, 0] / model.dt)] for t, date in enumerate(truth.dates)
    ))

    expiry = chain.expiry_date[0].item()
    print(f"wrote sample data to {data} (expiry {expiry})")
    print("backtest it with:")
    print(f"  volswitch backtest --config {data / 'sample_config.cfg'} --chain {data / 'sample_chain.csv'} \\")
    print(f"      --strike 100 --expiry {expiry} --train-end {truth.dates[49]} --strategy AAF")


if __name__ == "__main__":
    main()
