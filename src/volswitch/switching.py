"""Per-step filter selection driven by the information bound.

Each live filter gets a scalar health score: the ratio of the bound's
variance floor to the filter's claimed posterior variance, summed over
state components. Average-case selection takes the filter with the best
total; best-case selection assembles a composite estimate, picking the
winner component by component.

The bound is one per run, the system's, and every filter of a step is
scored against the same J^{-1}. It is seeded from each step's decision,
which is also the next step's shared prior, in both chain modes.
"""

from __future__ import annotations

import logging
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import workers
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
from .pcrlb import initial_information, pcrlb_step, seed_particles

logger = logging.getLogger(__name__)

# Phi is theoretically bounded by 1 per component; Monte-Carlo noise gets
# this much slack before a diagnostic is logged. Never clamped.
PHI_SLACK = 1.25

COV_INFLATION_ON_FAILURE = 10.0

# numerical fallbacks, recorded on BacktestRecord.fallbacks as (event, filter);
# a carried-forward decision or bound has no filter of its own and records None
HELD_PRIOR = "filter held prior"
EXCLUDED = "filter excluded"
DECISION_CARRIED = "decision carried forward"
BOUND_CARRIED = "bound carried forward"

_FILTER_INDEX = {f: i for i, f in enumerate(FILTER_ORDER)}

# purposes for per-(seed, filter, t) rng substreams; the bound's one
# stream per step takes filter index 0
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


def perf_metric(fid: FilterId, j_inv: np.ndarray, belief: GaussianBelief) -> PerfMetric:
    """Score filter ``fid`` against the bound J^{-1}; raises on degenerate variances."""
    p_diag = belief.cov.diagonal().tolist()
    j_inv_diag = j_inv.diagonal().tolist()
    # NaN, +-inf and <= 0 all fail the range check
    if not all(0.0 < p < np.inf for p in p_diag):
        raise DegenerateCovarianceError(f"non-positive posterior variance for {fid}")
    if not all(0.0 < j < np.inf for j in j_inv_diag):
        raise DegenerateCovarianceError(f"non-positive bound diagonal for {fid}")
    ratio = [j / p for j, p in zip(j_inv_diag, p_diag)]
    if logger.isEnabledFor(logging.INFO) and max(ratio) > PHI_SLACK:
        logger.info(
            "phi exceeds theoretical bound with slack for %s: %s",
            fid, np.array2string(np.array(ratio), precision=3),
        )
    # for two components sum() adds in numpy's order, so the trace is the same bits
    return PerfMetric(phi=np.diag(ratio), trace=sum(ratio), filter=fid)


def _ordered(metrics: Mapping[FilterId, PerfMetric]):
    ranked = [metrics[f] for f in FILTER_ORDER if f in metrics]
    if not ranked:
        raise NoFilterError("no filter produced a usable metric")
    return ranked


def select_average(
    metrics: Mapping[FilterId, PerfMetric],
    beliefs: Mapping[FilterId, GaussianBelief],
) -> SwitchDecision:
    """Whole-state winner: the filter with the largest phi trace."""
    ranked = _ordered(metrics)
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
        for name in ("pf_particles", "pcrlb_particles"):
            if getattr(self, name) < 2:
                raise InvalidInputError(f"{name!r} must be at least 2, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be non-negative, got {self.seed!r}")
        if self.ess_threshold is not None:
            # None resamples every step; 0 would never resample
            if not 0.0 < self.ess_threshold <= 1.0:
                raise InvalidInputError(f"ess_threshold must lie in (0, 1], got {self.ess_threshold!r}")
            if not self.independent_chains:
                raise InvalidInputError("ess_threshold needs independent_chains: shared chains discard the cloud")


@dataclass
class BacktestRecord:
    """One estimation step: observation, per-filter diagnostics, the decision."""

    t: int
    decision: SwitchDecision
    observed_price: float
    filter_estimates: dict
    phi_traces: dict
    fisher_diags: tuple  # (diag J, diag J^{-1}) at this step, shared by every filter
    fallbacks: list = field(default_factory=list)  # (event, FilterId | None) applied at this step
    fitted_price: float | None = None
    forecast_price: float | None = None
    date: str | None = None


def _filter_update(fid, prior, cloud, obs, ex, model, settings, t):
    """Returns (belief, cloud) with the PF threading its cloud through."""
    if fid is FilterId.EKF:
        return ekf_update(prior, obs, ex, model), None
    if fid is FilterId.UKF:
        return ukf_update(prior, obs, ex, model, settings.sigma_params), None
    rng = substream(settings.seed, _FILTER_INDEX[fid], t, _STREAM_FILTER)
    if cloud is None:
        cloud = seed_particles(prior, settings.pf_particles, rng, model)
    threshold = settings.ess_threshold if settings.independent_chains else 0.0
    new_cloud, summary = pf_update(cloud, obs, ex, model, rng, threshold)
    return summary, new_cloud


def _bound_step(model, settings: EstimationSettings, exogenous: list, t: int, j, j_inv, mean, cov):
    """Advance the bound from step t to t+1, seeded from step t's decision (``mean``, ``cov``).

    Draws from the (seed, 0, t, bound) substream. Returns the new (j,
    j_inv) and None, or, when the step fails numerically, the given (j,
    j_inv) and the error.
    """
    rng = substream(settings.seed, 0, t, _STREAM_BOUND)
    try:
        return (*pcrlb_step(j, GaussianBelief(mean, cov), exogenous[t + 1], model, settings.pcrlb_particles, rng),
                None)
    except RECOVERABLE as e:
        return j, j_inv, e


class _ForkedBound:
    """``_bound_step`` in a forked worker, so that step t's bound update overlaps step t+1's filters.

    The decision goes out as one raw float64 frame, [t, mean, cov], and
    comes back as [flag, J, J^{-1}]. A nonzero flag means that the pickled
    error follows.
    """

    def __init__(self, model, settings: EstimationSettings, exogenous: list, j, j_inv):
        self.shape = (2, *j.shape)
        self.frame = np.empty(1 + j.size * 2)
        self.worker = workers.start(
            _serve_bound, model, settings, exogenous, j, j_inv, name="the bound worker", duplex=True
        )

    def submit(self, t: int, mean, cov) -> None:
        self.worker.send_bytes(np.concatenate([[t], mean, cov.ravel()]))

    def collect(self):
        self.worker.recv_bytes_into(self.frame)
        error = self.worker.recv() if self.frame[0] else None
        j, j_inv = self.frame[1:].reshape(self.shape).copy()
        return j, j_inv, error


def _serve_bound(end, model, settings: EstimationSettings, exogenous: list, j, j_inv):
    """A forked worker: run ``_bound_step`` on every decision frame, keeping the bound, until ``Worker.stop``.

    If its owner closes its end or dies first, the next receive raises ``EOFError``: exit code 1.
    """
    s = j.shape[0]
    frame = np.empty(1 + s * (1 + s))
    while True:
        end.recv_bytes_into(frame)
        j, j_inv, error = _bound_step(
            model, settings, exogenous, int(frame[0]), j, j_inv, frame[1:1 + s], frame[1 + s:].reshape(s, s)
        )
        end.send_bytes(np.concatenate([[float(error is not None)], j.ravel(), j_inv.ravel()]))
        if error is not None:
            end.send(error)


def run_adaptive_estimation(observations, exogenous, model, settings: EstimationSettings):
    """Run the full bank over an observation sequence, switching every step.

    Filter failures fall back to the prior with inflated covariance and the
    bound recursion carries its last state forward on numerical trouble, so
    the run only aborts for malformed input. This loop is the one place that
    applies a numerical fallback: each one is logged as a warning and
    recorded on its step's ``BacktestRecord.fallbacks``. Returns one
    BacktestRecord per observation. Only the PF draws, from its (seed,
    filter, t) substream; with shared chains its cloud is discarded, so it
    never resamples.

    The bound update from step t's decision (``_bound_step``) is submitted
    once step t is decided and collected just before step t+1 is scored.
    Where ``workers.fork_cpus`` gives two or more CPUs it runs in a forked
    worker while step t+1's filters update, else in this process when it
    is collected. Its warning is logged at collection and its fallback goes
    on step t's record. No worker outlives the call.
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
    initial = GaussianBelief(x0, p0)
    priors = dict.fromkeys(settings.filters, initial)  # each filter's prior for the next step
    j, j_inv = initial_information(p0)  # the bound every filter is scored against
    pf_cloud = None
    # what a step with no usable filter carries forward: the previous
    # decision, or at the first step this stand-in built from the initial belief
    decision = SwitchDecision(
        mode=settings.mode,
        chosen=(settings.filters[0],) * (1 if settings.mode == "average" else x0.size),
        estimate=initial.mean.copy(),
        cov=initial.cov.copy(),
    )
    records: list[BacktestRecord] = []
    n_steps = len(observations)
    forked = None
    if settings.compute_pcrlb and n_steps > 1 and workers.fork_cpus() >= 2:
        forked = _ForkedBound(model, settings, exogenous, j, j_inv)
    try:
        for t, (obs, ex) in enumerate(zip(observations, exogenous)):
            fallbacks = []
            beliefs = {}
            for fid in settings.filters:
                prior = priors[fid]
                cloud = pf_cloud if (settings.independent_chains and fid is FilterId.PF) else None
                try:
                    belief, new_cloud = _filter_update(fid, prior, cloud, obs, ex, model, settings, t)
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

            # J_t, from step t-1's decision, which ``decision`` still is
            if settings.compute_pcrlb and t > 0:
                if forked is None:
                    j, j_inv, error = _bound_step(
                        model, settings, exogenous, t - 1, j, j_inv, decision.estimate, decision.cov
                    )
                else:
                    j, j_inv, error = forked.collect()
                if error is not None:
                    logger.warning("bound update failed at t=%d (%s); carrying J forward", t - 1, error)
                    records[t - 1].fallbacks.append((BOUND_CARRIED, None))

            metrics = {}
            for fid in settings.filters:
                try:
                    metrics[fid] = perf_metric(fid, j_inv, beliefs[fid])
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
                fallbacks.append((DECISION_CARRIED, None))  # ``decision`` is still the previous one

            if forked is not None and t + 1 < n_steps:
                forked.submit(t, decision.estimate, decision.cov)

            if settings.independent_chains:
                priors = beliefs
            else:
                priors = dict.fromkeys(
                    settings.filters, GaussianBelief(decision.estimate.copy(), decision.cov.copy())
                )

            records.append(
                BacktestRecord(
                    t=t,
                    decision=decision,
                    observed_price=obs,
                    filter_estimates={f: b.mean.copy() for f, b in beliefs.items()},
                    phi_traces={f: m.trace for f, m in metrics.items()},
                    fisher_diags=(j.diagonal().copy(), j_inv.diagonal().copy()),
                    fallbacks=fallbacks,
                )
            )
    finally:
        if forked is not None:
            forked.worker.stop()
    return records
