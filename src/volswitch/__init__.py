"""Adaptive filter switching for option-price state estimation.

A bank of nonlinear Bayesian filters (extended, unscented, particle)
tracks the hidden volatility and rate states of a Black-Scholes +
GARCH(1,1) state-space model. Each filter is scored every step against a
particle-approximated posterior information bound, and the best scorer —
per step or per state component — supplies the estimate used for
one-step-ahead price forecasting.
"""

from .backtest import ReportBundle, rmse, run_backtest, vol_report
from .bsgarch import (
    BsGarchModel,
    ContractSpec,
    ExogenousInputs,
    GarchParams,
    ModelSpec,
    NoiseSpec,
)
from .calibrate import GarchFit, fit_garch
from .config import RunConfig, load_config
from .exceptions import EstimationError
from .filters import FilterId, GaussianBelief, ParticleCloud, SigmaPointParams
from .marketdata import (
    ContractSeries,
    OptionChain,
    OptionQuote,
    SyntheticTruth,
    build_series,
    generate_synthetic,
    load_chain,
    max_volume_series,
)
from .pcrlb import FisherState, pcrlb_step
from .switching import (
    BacktestRecord,
    EstimationSettings,
    SwitchDecision,
    run_adaptive_estimation,
    select_average,
    select_best,
)

__version__ = "0.1.0"

__all__ = [
    "BacktestRecord",
    "BsGarchModel",
    "ContractSeries",
    "ContractSpec",
    "EstimationError",
    "EstimationSettings",
    "ExogenousInputs",
    "FilterId",
    "FisherState",
    "GarchFit",
    "GarchParams",
    "GaussianBelief",
    "ModelSpec",
    "NoiseSpec",
    "OptionChain",
    "OptionQuote",
    "ParticleCloud",
    "ReportBundle",
    "RunConfig",
    "SigmaPointParams",
    "SwitchDecision",
    "SyntheticTruth",
    "build_series",
    "fit_garch",
    "generate_synthetic",
    "load_chain",
    "load_config",
    "max_volume_series",
    "pcrlb_step",
    "rmse",
    "run_adaptive_estimation",
    "run_backtest",
    "select_average",
    "select_best",
    "vol_report",
]
