"""Ground-truth experiments: do the switching strategies beat single filters?

Real market runs can only score against observed prices; these synthetic
runs score against the simulated hidden state itself, which is the claim
the switching rule actually makes. One regime, many seeds, same data per
seed for every strategy.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .bsgarch import BsGarchModel, ContractSpec
from .config import RunConfig
from .exceptions import InvalidInputError
from .marketdata import SyntheticTruth, generate_synthetic
from .switching import run_adaptive_estimation
from .backtest import strategy_bank

logger = logging.getLogger(__name__)

# Simulation setup shared by every strategy in a comparison run: ~20%
# annualized volatility at daily steps, an at-the-money call one year out.
SYNTHETIC_CONFIG = RunConfig(
    garch_omega=8e-6, garch_alpha=0.10, garch_beta=0.85,
    q11=6.4e-11, q22=1.6e-7, noise_r=0.0025, v0=1.6e-4, r0=0.02,
)
SYNTHETIC_S0 = 100.0
SYNTHETIC_CONTRACT = ContractSpec(strike=100.0, expiry_step=252)


def state_errors(records, truth: SyntheticTruth) -> np.ndarray:
    if len(records) != len(truth.states):
        raise InvalidInputError("records and truth must cover the same steps")
    estimates = np.array([r.decision.estimate for r in records])
    return estimates - truth.states


def state_rmse(records, truth: SyntheticTruth, scales=None) -> float:
    """Joint state error with components standardized before combining.

    v and r live three orders of magnitude apart, so raw Euclidean error
    would score only the rate. Default scales are each true component's
    standard deviation over the run.
    """
    err = state_errors(records, truth)
    if scales is None:
        scales = np.maximum(truth.states.std(axis=0), 1e-12)
    scaled = err / np.asarray(scales, dtype=float)
    return float(np.sqrt(np.mean(np.sum(scaled**2, axis=1))))


@dataclass
class ComparisonResult:
    seed: int
    n_steps: int
    rmse: dict  # strategy -> standardized state RMSE
    chosen_counts: dict  # strategy -> {filter name: count} (switching rows only)


def run_synthetic_comparison(
    seed: int,
    n_steps: int = 150,
    strategies=("EKF", "UKF", "PF", "AAF"),
    pf_particles: int = 500,
    pcrlb_particles: int = 400,
) -> ComparisonResult:
    """One seed, one truth, every strategy estimated on the same observations."""
    cfg = replace(SYNTHETIC_CONFIG, pf_particles=pf_particles, pcrlb_particles=pcrlb_particles)
    spec = cfg.model_spec(SYNTHETIC_CONTRACT)
    truth = generate_synthetic(spec, n_steps, SYNTHETIC_S0, (cfg.v0, cfg.r0), seed=seed)
    model = BsGarchModel(spec)

    rmse_by_strategy = {}
    counts = {}
    for strategy in strategies:
        mode, bank = strategy_bank(str(strategy).upper())
        settings = cfg.estimation_settings(mode=mode, filters=bank, seed=seed)
        records = run_adaptive_estimation(truth.observations, truth.exogenous, model, settings)
        rmse_by_strategy[str(strategy)] = state_rmse(records, truth)
        if len(bank) > 1:
            tally: dict = {}
            for rec in records:
                for fid in rec.decision.chosen:
                    tally[fid.name] = tally.get(fid.name, 0) + 1
            counts[str(strategy)] = tally
    logger.info("seed %d: %s", seed, {k: round(v, 4) for k, v in rmse_by_strategy.items()})
    return ComparisonResult(seed=seed, n_steps=n_steps, rmse=rmse_by_strategy, chosen_counts=counts)
