"""Per-step filter selection driven by the information bound.

Each live filter gets a scalar health score: the ratio of the bound's
variance floor to the filter's claimed posterior variance, summed over
state components. Average-case selection takes the filter with the best
total; best-case selection assembles a composite estimate, picking the
winner component by component.
"""

from __future__ import annotations

import logging
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    RECOVERABLE,
    DegenerateCovarianceError,
    InvalidInputError,
    NoFilterError,
)
from .filters import (
    FILTER_ORDER,
    FilterId,
    GaussianBelief,
    SigmaPointParams,
    ekf_update,
    pf_update,
    ukf_update,
)
from .linalg import floor_psd, substream, symmetrize
from .pcrlb import FisherState, seed_particles

# The bank's bound step, bound at the name the benchmark's tracer wraps
# (perfbench/spans.py): a traced call is one step of the whole bank.
from .pcrlb import pcrlb_bank_step as pcrlb_step

logger = logging.getLogger(__name__)

# Phi is theoretically bounded by 1 per component; Monte-Carlo noise gets
# this much slack before a diagnostic is logged. Never clamped.
PHI_SLACK = 1.25

COV_INFLATION_ON_FAILURE = 10.0

# numerical fallbacks, recorded on BacktestRecord.fallbacks as (event, filter);
# a carried-forward decision has no filter of its own and records None
HELD_PRIOR = "filter held prior"
EXCLUDED = "filter excluded"
DECISION_CARRIED = "decision carried forward"
BOUND_CARRIED = "bound carried forward"

_FILTER_INDEX = {f: i for i, f in enumerate(FILTER_ORDER)}

# purposes for per-(seed, filter, t) rng substreams
_STREAM_FILTER = 0
_STREAM_BOUND = 1


@dataclass(frozen=True)
class PerfMetric:
    """Diagonal efficiency matrix phi = diag(J^{-1}) / diag(P) and its trace."""

    phi: np.ndarray
    trace: float
    filter: FilterId


@dataclass(frozen=True)
class SwitchDecision:
    """Outcome of one selection step.

    ``chosen`` has one entry in average mode and one entry per state
    component in best mode.
    """

    mode: str
    chosen: tuple[FilterId, ...]
    estimate: np.ndarray
    cov: np.ndarray


def perf_metric(fisher: FisherState, belief: GaussianBelief) -> PerfMetric:
    """Score one filter against its bound; raises on degenerate variances."""
    p_diag = np.diag(belief.cov)
    j_inv_diag = np.diag(fisher.j_inv)
    if not np.all(np.isfinite(p_diag)) or np.any(p_diag <= 0.0):
        raise DegenerateCovarianceError(f"non-positive posterior variance for {fisher.filter}")
    if not np.all(np.isfinite(j_inv_diag)) or np.any(j_inv_diag <= 0.0):
        raise DegenerateCovarianceError(f"non-positive bound diagonal for {fisher.filter}")
    ratio = j_inv_diag / p_diag
    if logger.isEnabledFor(logging.INFO) and np.any(ratio > PHI_SLACK):
        logger.info(
            "phi exceeds theoretical bound with slack for %s: %s",
            fisher.filter, np.array2string(ratio, precision=3),
        )
    return PerfMetric(phi=np.diag(ratio), trace=float(ratio.sum()), filter=fisher.filter)


def _ordered(metrics: Mapping[FilterId, PerfMetric]):
    return [metrics[f] for f in FILTER_ORDER if f in metrics]


def select_average(
    metrics: Mapping[FilterId, PerfMetric],
    beliefs: Mapping[FilterId, GaussianBelief],
) -> SwitchDecision:
    """Whole-state winner: the filter with the largest phi trace."""
    ranked = _ordered(metrics)
    if not ranked:
        raise NoFilterError("no filter produced a usable metric")
    best = ranked[0]
    for m in ranked[1:]:
        if m.trace > best.trace:  # strict: ties keep the earlier filter
            best = m
    belief = beliefs[best.filter]
    return SwitchDecision(
        mode="average",
        chosen=(best.filter,),
        estimate=belief.mean.copy(),
        cov=belief.cov.copy(),
    )


def select_best(
    metrics: Mapping[FilterId, PerfMetric],
    beliefs: Mapping[FilterId, GaussianBelief],
) -> SwitchDecision:
    """Component-wise winners stitched into a composite estimate.

    The composite covariance keeps only the winners' variances on the
    diagonal; cross-covariances between filters are unknown and left zero.
    """
    ranked = _ordered(metrics)
    if not ranked:
        raise NoFilterError("no filter produced a usable metric")
    s = ranked[0].phi.shape[0]
    estimate = np.empty(s)
    variances = np.empty(s)
    chosen = []
    for j in range(s):
        winner = ranked[0]
        for m in ranked[1:]:
            if m.phi[j, j] > winner.phi[j, j]:
                winner = m
        chosen.append(winner.filter)
        estimate[j] = beliefs[winner.filter].mean[j]
        variances[j] = beliefs[winner.filter].cov[j, j]
    return SwitchDecision(mode="best", chosen=tuple(chosen), estimate=estimate, cov=np.diag(variances))


# ---------------------------------------------------------------------------
# orchestration


@dataclass(frozen=True)
class EstimationSettings:
    """Everything one adaptive run needs besides the data itself."""

    x0: np.ndarray
    p0: np.ndarray
    mode: str = "average"
    filters: tuple[FilterId, ...] = FILTER_ORDER
    pf_particles: int = 2000
    pcrlb_particles: int = 1000
    sigma_params: SigmaPointParams = field(default_factory=SigmaPointParams)
    ess_threshold: float | None = None
    independent_chains: bool = False
    compute_pcrlb: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("average", "best"):
            raise InvalidInputError(f"unknown switching mode {self.mode!r}")
        if not self.filters:
            raise InvalidInputError("at least one filter is required")
        if len(set(self.filters)) != len(self.filters):
            raise InvalidInputError("duplicate filters in bank")


@dataclass
class BacktestRecord:
    """One estimation step: observation, per-filter diagnostics, the decision."""

    t: int
    decision: SwitchDecision
    estimate: np.ndarray
    observed_price: float
    filter_estimates: dict
    phi_traces: dict
    fisher_diags: dict  # FilterId -> (diag J, diag J^{-1}) at this step
    fallbacks: list = field(default_factory=list)  # (event, FilterId | None) applied at this step
    fitted_price: float | None = None
    forecast_price: float | None = None
    date: str | None = None


def _filter_update(fid, prior, cloud, obs, ex, model, settings, rng):
    """Returns (belief, cloud) with the PF threading its cloud through."""
    if fid is FilterId.EKF:
        return ekf_update(prior, obs, ex, model), None
    if fid is FilterId.UKF:
        return ukf_update(prior, obs, ex, model, settings.sigma_params), None
    if cloud is None:
        cloud = seed_particles(prior, settings.pf_particles, rng, model)
    new_cloud, summary = pf_update(cloud, obs, ex, model, rng, settings.ess_threshold)
    return summary, new_cloud


def run_adaptive_estimation(observations, exogenous, model, settings: EstimationSettings):
    """Run the full bank over an observation sequence, switching every step.

    Filter failures fall back to the prior with inflated covariance and the
    bound recursion carries its last state forward on numerical trouble, so
    the run only aborts for malformed input. This loop is the one place that
    applies a numerical fallback: each one is logged as a warning and
    recorded on its step's ``BacktestRecord.fallbacks``. Returns one
    BacktestRecord per observation.
    """
    observations = [float(y) for y in observations]
    exogenous = list(exogenous)
    if len(observations) != len(exogenous):
        raise InvalidInputError("observations and exogenous inputs must align")
    if not observations:
        raise InvalidInputError("empty observation sequence")
    if not np.all(np.isfinite(observations)):
        raise InvalidInputError("non-finite observation")

    x0 = np.asarray(settings.x0, dtype=float)
    p0 = symmetrize(np.asarray(settings.p0, dtype=float))
    shared = GaussianBelief(x0, p0)
    chains = {f: shared for f in settings.filters}
    fisher = {f: FisherState.initial(p0, f) for f in settings.filters}
    pf_cloud = None
    prev_decision: SwitchDecision | None = None
    records: list[BacktestRecord] = []
    n_steps = len(observations)

    for t, (obs, ex) in enumerate(zip(observations, exogenous)):
        fallbacks = []
        beliefs = {}
        for fid in settings.filters:
            prior = chains[fid] if settings.independent_chains else shared
            rng = substream(settings.seed, _FILTER_INDEX[fid], t, _STREAM_FILTER)
            cloud = pf_cloud if (settings.independent_chains and fid is FilterId.PF) else None
            try:
                belief, new_cloud = _filter_update(fid, prior, cloud, obs, ex, model, settings, rng)
                if fid is FilterId.PF:
                    pf_cloud = new_cloud
            except RECOVERABLE as e:
                logger.warning("%s update failed at t=%d (%s); holding prior with inflated covariance",
                               fid, t, e)
                fallbacks.append((HELD_PRIOR, fid))
                belief = GaussianBelief(
                    prior.mean.copy(), floor_psd(prior.cov * COV_INFLATION_ON_FAILURE)
                )
                if fid is FilterId.PF:
                    pf_cloud = None
            beliefs[fid] = belief

        metrics = {}
        for fid in settings.filters:
            try:
                metrics[fid] = perf_metric(fisher[fid], beliefs[fid])
            except DegenerateCovarianceError as e:
                logger.warning("filter %s excluded from switch at t=%d: %s", fid, t, e)
                fallbacks.append((EXCLUDED, fid))

        try:
            if settings.mode == "average":
                decision = select_average(metrics, beliefs)
            else:
                decision = select_best(metrics, beliefs)
        except NoFilterError:
            logger.warning("no usable filter at t=%d; carrying previous decision forward", t)
            fallbacks.append((DECISION_CARRIED, None))
            if prev_decision is not None:
                decision = prev_decision
            else:
                fallback = settings.filters[0]
                decision = SwitchDecision(
                    mode=settings.mode,
                    chosen=(fallback,) * (1 if settings.mode == "average" else x0.size),
                    estimate=shared.mean.copy(),
                    cov=shared.cov.copy(),
                )

        fisher_diags = {
            fid: (np.diag(fisher[fid].j).copy(), np.diag(fisher[fid].j_inv).copy())
            for fid in settings.filters
        }

        if settings.compute_pcrlb and t + 1 < n_steps:
            rngs = [substream(settings.seed, _FILTER_INDEX[f], t, _STREAM_BOUND) for f in settings.filters]
            steps = pcrlb_step(
                [fisher[f] for f in settings.filters], [beliefs[f] for f in settings.filters],
                observations[t + 1], exogenous[t + 1], model, settings.pcrlb_particles, rngs,
            )
            for fid, step in zip(settings.filters, steps):
                if isinstance(step, FisherState):
                    fisher[fid] = step
                else:
                    logger.warning(
                        "bound update for %s failed at t=%d (%s); carrying J forward", fid, t, step
                    )
                    fallbacks.append((BOUND_CARRIED, fid))

        shared = GaussianBelief(decision.estimate.copy(), decision.cov.copy())
        if settings.independent_chains:
            chains = beliefs
        else:
            chains = {f: shared for f in settings.filters}
        prev_decision = decision

        records.append(
            BacktestRecord(
                t=t,
                decision=decision,
                estimate=decision.estimate.copy(),
                observed_price=obs,
                filter_estimates={f: b.mean.copy() for f, b in beliefs.items()},
                phi_traces={f: m.trace for f, m in metrics.items()},
                fisher_diags=fisher_diags,
                fallbacks=fallbacks,
            )
        )
    return records
