import functools
import logging
import multiprocessing
import os
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import oracles
from volswitch import linalg, switching, workers
from volswitch.bsgarch import BsGarchModel
from volswitch.exceptions import (
    DegenerateCovarianceError,
    EstimationError,
    InvalidInputError,
    NoFilterError,
    NumericalFailureError,
)
from volswitch.experiments import SYNTHETIC_CONFIG, SYNTHETIC_CONTRACT, SYNTHETIC_S0, state_rmse
from volswitch.filters import FILTER_ORDER, FilterId, GaussianBelief, ekf_update
from volswitch.marketdata import generate_synthetic
from volswitch.pcrlb import initial_information, pcrlb_step
from models import LinearGaussianModel
from volswitch.switching import (
    BOUND_CARRIED,
    DECISION_CARRIED,
    EXCLUDED,
    HELD_PRIOR,
    EstimationSettings,
    PerfMetric,
    perf_metric,
    run_adaptive_estimation,
    select_average,
    select_best,
)

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the bound worker needs fork")

A = np.array([[0.9, 0.05], [0.0, 0.92]])
C = np.array([[1.0, 0.3]])
Q = np.diag([0.03, 0.02])
R = np.array([[0.05]])
X0 = np.zeros(2)
P0 = np.diag([0.4, 0.4])


def linear_model():
    return LinearGaussianModel(A, C, Q, R)


def observations(n_steps=25, seed=1):
    rng = np.random.default_rng(seed)
    return oracles.simulate_linear(A, C, Q, R, X0, P0, n_steps, rng)[1][:, 0]


def settings(**kw):
    base = dict(x0=X0, p0=P0, seed=0)
    base.update(kw)
    return EstimationSettings(**base)


def metric(fid, phi_diag):
    phi = np.asarray(phi_diag, dtype=float)
    return PerfMetric(phi=np.diag(phi), trace=float(phi.sum()), filter=fid)


def belief(mean):
    return GaussianBelief(np.asarray(mean, dtype=float), np.eye(2))


# ---------------------------------------------------------------------------
# metric


def test_perf_metric_is_bound_over_posterior_variance():
    b = GaussianBelief(np.zeros(2), np.diag([0.4, 0.5]))
    m = perf_metric(FilterId.UKF, np.diag([0.2, 0.4]), b)
    np.testing.assert_allclose(np.diag(m.phi), [0.5, 0.8])
    assert m.trace == pytest.approx(1.3)
    assert m.filter is FilterId.UKF


def test_perf_metric_rejects_degenerate_variances():
    good = np.diag([0.1, 0.1])
    with pytest.raises(DegenerateCovarianceError):
        perf_metric(FilterId.EKF, good, GaussianBelief(np.zeros(2), np.diag([0.1, 0.0])))
    with pytest.raises(DegenerateCovarianceError):
        perf_metric(FilterId.EKF, np.diag([0.1, -0.1]), GaussianBelief(np.zeros(2), np.diag([0.1, 0.1])))


@pytest.mark.parametrize("bad", [0.0, -0.1, np.nan, np.inf, -np.inf])
def test_perf_metric_rejects_every_non_positive_or_non_finite_diagonal(bad):
    good = np.diag([0.1, 0.1])
    cov = good.copy()
    cov[1, 1] = bad  # set after construction: a belief rejects non-finite input
    b = GaussianBelief(np.zeros(2), good)
    b.cov = cov
    with pytest.raises(DegenerateCovarianceError, match="posterior variance"):
        perf_metric(FilterId.EKF, good, b)
    with pytest.raises(DegenerateCovarianceError, match="bound diagonal"):
        perf_metric(FilterId.EKF, cov, GaussianBelief(np.zeros(2), good))


def test_perf_metric_logs_but_never_clamps_above_one(caplog):
    b = GaussianBelief(np.zeros(2), np.diag([1.0, 1.0]))
    with caplog.at_level(logging.INFO, logger="volswitch.switching"):
        m = perf_metric(FilterId.EKF, np.diag([2.0, 2.0]), b)
    assert np.diag(m.phi) == pytest.approx([2.0, 2.0])  # kept as-is
    assert any("phi exceeds" in rec.message for rec in caplog.records)


# ---------------------------------------------------------------------------
# selection


def test_select_average_takes_largest_trace():
    metrics = {
        FilterId.EKF: metric(FilterId.EKF, [0.3, 0.3]),
        FilterId.UKF: metric(FilterId.UKF, [0.5, 0.4]),
        FilterId.PF: metric(FilterId.PF, [0.2, 0.2]),
    }
    beliefs = {f: belief([i, -i]) for i, f in enumerate(metrics)}
    d = select_average(metrics, beliefs)
    assert d.mode == "average"
    assert d.chosen == (FilterId.UKF,)
    np.testing.assert_array_equal(d.estimate, beliefs[FilterId.UKF].mean)


def test_select_average_tie_keeps_earlier_filter():
    metrics = {
        FilterId.EKF: metric(FilterId.EKF, [0.4, 0.4]),
        FilterId.UKF: metric(FilterId.UKF, [0.4, 0.4]),
    }
    beliefs = {f: belief([0.0, 0.0]) for f in metrics}
    assert select_average(metrics, beliefs).chosen == (FilterId.EKF,)


def test_select_best_stitches_componentwise_winners():
    metrics = {
        FilterId.EKF: metric(FilterId.EKF, [0.9, 0.1]),
        FilterId.PF: metric(FilterId.PF, [0.2, 0.8]),
    }
    beliefs = {
        FilterId.EKF: GaussianBelief(np.array([1.0, 2.0]), np.diag([0.10, 0.20])),
        FilterId.PF: GaussianBelief(np.array([3.0, 4.0]), np.diag([0.30, 0.40])),
    }
    d = select_best(metrics, beliefs)
    assert d.mode == "best"
    assert d.chosen == (FilterId.EKF, FilterId.PF)
    np.testing.assert_array_equal(d.estimate, [1.0, 4.0])
    # composite keeps winner variances, zero cross terms
    np.testing.assert_array_equal(d.cov, np.diag([0.10, 0.40]))


def test_select_best_tie_keeps_earlier_filter_per_component():
    metrics = {
        FilterId.UKF: metric(FilterId.UKF, [0.5, 0.1]),
        FilterId.PF: metric(FilterId.PF, [0.5, 0.5]),
    }
    beliefs = {f: belief([0.0, 0.0]) for f in metrics}
    assert select_best(metrics, beliefs).chosen == (FilterId.UKF, FilterId.PF)


def test_selection_requires_a_candidate():
    with pytest.raises(NoFilterError):
        select_average({}, {})
    with pytest.raises(NoFilterError):
        select_best({}, {})


# ---------------------------------------------------------------------------
# settings validation


def test_settings_validation():
    with pytest.raises(InvalidInputError):
        settings(mode="optimal")
    with pytest.raises(InvalidInputError):
        settings(filters=())
    with pytest.raises(InvalidInputError):
        settings(filters=(FilterId.EKF, FilterId.EKF))
    with pytest.raises(InvalidInputError, match="^seed must be non-negative, got -1$"):
        settings(seed=-1)


@pytest.mark.parametrize("name", ["pf_particles", "pcrlb_particles"])
def test_settings_need_two_particles(name):
    with pytest.raises(InvalidInputError, match=f"^'{name}' must be at least 2, got 1$"):
        settings(**{name: 1})
    settings(**{name: 2})


def test_settings_validate_the_ess_threshold():
    # 0 would never resample; a config file's 0 means resample every step (None)
    for bad in (0.0, -0.1, 7.0, float("nan")):
        with pytest.raises(InvalidInputError, match="ess_threshold must lie in"):
            settings(ess_threshold=bad, independent_chains=True)
    with pytest.raises(InvalidInputError, match="needs independent_chains"):
        settings(ess_threshold=0.5)
    assert settings(ess_threshold=1.0, independent_chains=True).ess_threshold == 1.0


# ---------------------------------------------------------------------------
# orchestration


def test_run_ekf_only_reproduces_the_kalman_filter():
    ys = observations()
    means, _ = oracles.kalman_filter(ys[:, None], A, C, Q, R, X0, P0)
    records = run_adaptive_estimation(
        ys, [None] * len(ys), linear_model(), settings(filters=(FilterId.EKF,))
    )
    assert len(records) == len(ys)
    for t, rec in enumerate(records):
        assert rec.t == t
        assert rec.observed_price == pytest.approx(float(ys[t]))
        assert rec.decision.chosen == (FilterId.EKF,)
        np.testing.assert_allclose(rec.decision.estimate, means[t], atol=1e-10)


def test_run_is_seed_reproducible():
    ys = observations(n_steps=12)
    cfg = settings(pf_particles=200, pcrlb_particles=100)
    a = run_adaptive_estimation(ys, [None] * len(ys), linear_model(), cfg)
    b = run_adaptive_estimation(ys, [None] * len(ys), linear_model(), cfg)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.decision.estimate, rb.decision.estimate)
        np.testing.assert_array_equal(
            ra.filter_estimates[FilterId.PF], rb.filter_estimates[FilterId.PF]
        )
        assert ra.phi_traces == rb.phi_traces


def test_independent_chains_keep_the_ekf_pure():
    ys = observations(n_steps=20, seed=3)
    cfg = settings(
        filters=(FilterId.EKF, FilterId.PF),
        pf_particles=300,
        pcrlb_particles=100,
        independent_chains=True,
    )
    records = run_adaptive_estimation(ys, [None] * len(ys), linear_model(), cfg)
    means, _ = oracles.kalman_filter(ys[:, None], A, C, Q, R, X0, P0)
    for t, rec in enumerate(records):
        np.testing.assert_allclose(rec.filter_estimates[FilterId.EKF], means[t], atol=1e-10)


PF_INDEX = FILTER_ORDER.index(FilterId.PF)


def count_substreams(monkeypatch) -> Counter:
    """(purpose, filter index) -> the substreams this process builds."""
    calls = Counter()
    real = switching.substream

    def counting(seed, filter_index, t, purpose):
        calls[purpose, filter_index] += 1
        return real(seed, filter_index, t, purpose)

    monkeypatch.setattr(switching, "substream", counting)
    return calls


def test_only_the_pf_builds_a_filter_substream(monkeypatch):
    monkeypatch.setattr(workers, "fork_cpus", lambda: 1)  # the bound runs in this process
    calls = count_substreams(monkeypatch)
    ys = observations(n_steps=8)
    run_adaptive_estimation(ys, [None] * len(ys), linear_model(), settings(pf_particles=100, pcrlb_particles=50))
    # the EKF and UKF never draw; the bound draws from one stream per step,
    # keyed by filter index 0, but not after the last step
    assert calls == {(switching._STREAM_FILTER, PF_INDEX): len(ys), (switching._STREAM_BOUND, 0): len(ys) - 1}


@needs_fork
def test_the_bound_worker_builds_the_bound_substreams(monkeypatch):
    monkeypatch.setattr(workers, "fork_cpus", lambda: 2)
    calls = count_substreams(monkeypatch)
    ys = observations(n_steps=8)
    run_adaptive_estimation(ys, [None] * len(ys), linear_model(), settings(pf_particles=100, pcrlb_particles=50))
    # this process builds only the PF's streams; the worker counts its own
    assert calls == {(switching._STREAM_FILTER, PF_INDEX): len(ys)}


def _assert_same_records(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.decision.chosen == rb.decision.chosen
        np.testing.assert_array_equal(ra.decision.estimate, rb.decision.estimate)
        np.testing.assert_array_equal(ra.decision.cov, rb.decision.cov)
        assert ra.filter_estimates.keys() == rb.filter_estimates.keys()
        for fid in ra.filter_estimates:
            np.testing.assert_array_equal(ra.filter_estimates[fid], rb.filter_estimates[fid])
        np.testing.assert_array_equal(ra.fisher_diags, rb.fisher_diags)
        assert ra.phi_traces == rb.phi_traces
        assert ra.fallbacks == rb.fallbacks


@pytest.mark.parametrize("mode", ["average", "best"])
def test_shared_chains_skip_only_a_resample_that_changes_nothing(monkeypatch, mode):
    ys = observations(n_steps=15, seed=4)
    cfg = settings(mode=mode, pf_particles=200, pcrlb_particles=100)
    skipped = run_adaptive_estimation(ys, [None] * len(ys), linear_model(), cfg)
    real = switching.pf_update

    def always_resample(cloud, obs, ex, model, rng, ess_threshold):
        return real(cloud, obs, ex, model, rng)

    monkeypatch.setattr(switching, "pf_update", always_resample)
    always = run_adaptive_estimation(ys, [None] * len(ys), linear_model(), cfg)
    _assert_same_records(skipped, always)


def test_independent_chains_carry_a_resampled_cloud(monkeypatch):
    calls, returned = [], []
    real = switching.pf_update

    def spy(cloud, obs, ex, model, rng, ess_threshold):
        calls.append((cloud, ess_threshold))
        returned.append(real(cloud, obs, ex, model, rng, ess_threshold))
        return returned[-1]

    monkeypatch.setattr(switching, "pf_update", spy)
    ys = observations(n_steps=10)
    cfg = settings(pf_particles=200, pcrlb_particles=50, independent_chains=True)
    run_adaptive_estimation(ys, [None] * len(ys), linear_model(), cfg)
    priors, thresholds = zip(*calls)
    assert thresholds == (None,) * len(ys)  # no ess_threshold: resample every step
    for (carried, _), prior in zip(returned, priors[1:]):
        assert prior is carried
        np.testing.assert_array_equal(prior.weights, np.full(200, 1.0 / 200))


def test_shared_chain_restarts_filters_from_the_decision():
    ys = observations(n_steps=20, seed=3)
    kw = dict(filters=(FilterId.EKF, FilterId.PF), pf_particles=300, pcrlb_particles=100)
    shared = run_adaptive_estimation(ys, [None] * len(ys), linear_model(), settings(**kw))
    # once the PF wins a step, the shared chain pulls the EKF off the pure
    # Kalman trajectory; with independent chains it stays on it
    assert any(rec.decision.chosen == (FilterId.PF,) for rec in shared)
    means, _ = oracles.kalman_filter(ys[:, None], A, C, Q, R, X0, P0)
    deviations = [
        not np.allclose(rec.filter_estimates[FilterId.EKF], means[t], atol=1e-10)
        for t, rec in enumerate(shared)
    ]
    assert any(deviations)


def test_run_records_carry_per_filter_diagnostics():
    ys = observations(n_steps=6)
    cfg = settings(pf_particles=150, pcrlb_particles=80, mode="best")
    records = run_adaptive_estimation(ys, [None] * len(ys), linear_model(), cfg)
    for rec in records:
        assert set(rec.filter_estimates) == set(cfg.filters)
        assert set(rec.phi_traces) == set(cfg.filters)
        assert len(rec.decision.chosen) == 2  # one winner per state component
        j_diag, j_inv_diag = rec.fisher_diags  # the one bound, shared by every filter
        assert j_diag.shape == (2,) and j_inv_diag.shape == (2,)


def test_compute_pcrlb_false_freezes_the_bound():
    ys = observations(n_steps=8)
    cfg = settings(filters=(FilterId.EKF,), compute_pcrlb=False)
    records = run_adaptive_estimation(ys, [None] * len(ys), linear_model(), cfg)
    j0 = np.diag(np.linalg.inv(P0))
    for rec in records:
        np.testing.assert_allclose(rec.fisher_diags[0], j0, atol=1e-12)
        np.testing.assert_allclose(rec.fisher_diags[1], np.diag(P0), atol=1e-12)


@pytest.mark.parametrize("fid", [FilterId.EKF, FilterId.UKF, FilterId.PF])
def test_single_filter_estimates_do_not_read_the_bound(fid):
    ys = observations(n_steps=10)
    runs = [
        run_adaptive_estimation(
            ys, [None] * len(ys), linear_model(),
            settings(filters=(fid,), pf_particles=200, pcrlb_particles=50, compute_pcrlb=on),
        )
        for on in (True, False)
    ]
    for with_bound, without in zip(*runs):
        np.testing.assert_array_equal(with_bound.decision.estimate, without.decision.estimate)
        np.testing.assert_array_equal(with_bound.decision.cov, without.decision.cov)
    # the first run did advance its bound
    assert not np.array_equal(runs[0][-1].fisher_diags[0], runs[1][-1].fisher_diags[0])


class FailingJacobianModel(LinearGaussianModel):
    """Measurement Jacobian turns non-finite on one chosen call."""

    def __init__(self, fail_at):
        super().__init__(A, C, Q, R)
        self.fail_at = fail_at
        self.calls = 0

    def measurement_jacobian_batch(self, states, ex):
        out = super().measurement_jacobian_batch(states, ex)
        if self.calls == self.fail_at:
            out = np.full_like(out, np.nan)
        self.calls += 1
        return out


def test_filter_failure_holds_prior_and_inflates_covariance(caplog):
    ys = observations(n_steps=5)
    model = FailingJacobianModel(fail_at=2)
    cfg = settings(filters=(FilterId.EKF,), compute_pcrlb=False)
    with caplog.at_level(logging.WARNING, logger="volswitch.switching"):
        records = run_adaptive_estimation(ys, [None] * len(ys), model, cfg)
    assert any("holding prior with inflated covariance" in rec.message for rec in caplog.records)
    assert [rec.fallbacks for rec in records] == [[], [], [(HELD_PRIOR, FilterId.EKF)], [], []]
    np.testing.assert_array_equal(records[2].decision.estimate, records[1].decision.estimate)
    np.testing.assert_allclose(
        np.diag(records[2].decision.cov), 10.0 * np.diag(records[1].decision.cov), rtol=1e-12
    )
    # the run recovers afterwards
    assert not np.array_equal(records[3].decision.estimate, records[2].decision.estimate)


class FailingBoundModel(LinearGaussianModel):
    """Non-finite measurement gradients for particle batches only.

    The EKF's scalar path sends single rows through the batch interface, so
    it keeps working while every bound update trips the D-matrix check.
    """

    def __init__(self):
        super().__init__(A, C, Q, R)

    def measurement_jacobian_batch(self, states, ex):
        out = super().measurement_jacobian_batch(states, ex)
        if states.shape[0] > 1:
            out = np.full_like(out, np.nan)
        return out


def test_bound_failure_carries_information_forward(caplog):
    ys = observations(n_steps=5)
    j0 = np.diag(np.linalg.inv(P0))
    for bank in ((FilterId.EKF,), FILTER_ORDER):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="volswitch.switching"):
            records = run_adaptive_estimation(
                ys, [None] * len(ys), FailingBoundModel(), settings(filters=bank, pf_particles=100)
            )
        # one fallback and one warning per step with a next observation, whatever the bank
        carried = [m for m in caplog.messages if "carrying J forward" in m]
        assert carried == [f"bound update failed at t={t} (non-finite D matrices); carrying J forward"
                           for t in range(len(ys) - 1)]
        assert [rec.fallbacks for rec in records] == [[(BOUND_CARRIED, None)]] * 4 + [[]]
        for rec in records:
            np.testing.assert_allclose(rec.fisher_diags[0], j0, atol=1e-12)


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "worker"])
@pytest.mark.parametrize("kw", [{}, {"mode": "best"}, {"independent_chains": True}], ids=["AAF", "ABF", "independent"])
def test_each_step_advances_the_one_bound_from_its_decision(monkeypatch, cpus, kw):
    monkeypatch.setattr(workers, "fork_cpus", lambda: cpus)
    ys = observations(n_steps=8)
    cfg = settings(pf_particles=100, pcrlb_particles=50, **kw)
    records = run_adaptive_estimation(ys, [None] * len(ys), linear_model(), cfg)
    # J_{t+1} is pcrlb_step on step t's decision, with the (seed, 0, t, bound) stream, bit for bit
    j, j_inv = initial_information(P0)
    for t, rec in enumerate(records):
        if t:
            prior = records[t - 1].decision
            rng = linalg.substream(cfg.seed, 0, t - 1, switching._STREAM_BOUND)
            j, j_inv = pcrlb_step(j, GaussianBelief(prior.estimate, prior.cov), None, linear_model(), 50, rng)
        np.testing.assert_array_equal(rec.fisher_diags[0], j.diagonal())
        np.testing.assert_array_equal(rec.fisher_diags[1], j_inv.diagonal())


def test_every_filter_of_a_step_is_scored_against_the_same_bound(monkeypatch):
    scored = []

    def spy(fid, j_inv, belief):
        scored.append((fid, j_inv.copy()))
        return perf_metric(fid, j_inv, belief)

    monkeypatch.setattr(switching, "perf_metric", spy)
    ys = observations(n_steps=8)
    cfg = settings(pf_particles=100, pcrlb_particles=50)
    records = run_adaptive_estimation(ys, [None] * len(ys), linear_model(), cfg)
    assert len(scored) == len(FILTER_ORDER) * len(ys)
    for t, rec in enumerate(records):
        step = scored[len(FILTER_ORDER) * t:len(FILTER_ORDER) * (t + 1)]
        assert [fid for fid, _ in step] == list(FILTER_ORDER)
        for _, j_inv in step:
            np.testing.assert_array_equal(j_inv, step[0][1])
            np.testing.assert_array_equal(j_inv.diagonal(), rec.fisher_diags[1])


def test_each_fallback_warning_is_recorded_once_on_its_step(monkeypatch, caplog):
    # t=1: the EKF update fails; t=2: every score is degenerate, so every
    # filter is excluded and the decision carries forward; every step with a
    # next observation: the bound update fails
    calls = Counter()

    def failing_ekf(*args):
        calls["ekf"] += 1
        if calls["ekf"] == 2:
            raise NumericalFailureError("injected")
        return ekf_update(*args)

    def failing_metric(fid, j_inv, belief):
        calls["metric"] += 1
        if 7 <= calls["metric"] <= 9:
            raise DegenerateCovarianceError("injected")
        return perf_metric(fid, j_inv, belief)

    monkeypatch.setattr(switching, "ekf_update", failing_ekf)
    monkeypatch.setattr(switching, "perf_metric", failing_metric)
    ys = observations(n_steps=4)
    with caplog.at_level(logging.WARNING, logger="volswitch"):
        records = run_adaptive_estimation(
            ys, [None] * len(ys), FailingBoundModel(), settings(pf_particles=100, pcrlb_particles=40)
        )
    bound = [(BOUND_CARRIED, None)]
    assert [rec.fallbacks for rec in records] == [
        bound,
        [(HELD_PRIOR, FilterId.EKF)] + bound,
        [(EXCLUDED, f) for f in FILTER_ORDER] + [(DECISION_CARRIED, None)] + bound,
        [],
    ]
    steps = Counter(int(re.search(r"t=(\d+)", m).group(1)) for m in caplog.messages)
    assert steps == Counter({rec.t: len(rec.fallbacks) for rec in records})


# ---------------------------------------------------------------------------
# the bound worker


class RejectingBoundModel(LinearGaussianModel):
    """Measurement gradients of a particle batch raise ``InvalidInputError``, which no step recovers from.

    Single rows pass, as in ``FailingBoundModel``, so the EKF keeps working.
    """

    def __init__(self):
        super().__init__(A, C, Q, R)

    def measurement_jacobian_batch(self, states, ex):
        if states.shape[0] > 1:
            raise InvalidInputError("no measurement gradients for a particle batch")
        return super().measurement_jacobian_batch(states, ex)


def run_on_each_path(monkeypatch, caplog, ys, model_class, cfg):
    """(in-process records, worker records), and the warnings each run logged."""
    runs, warnings = [], []
    for cpus in (1, 2):
        monkeypatch.setattr(workers, "fork_cpus", lambda: cpus)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="volswitch"):
            runs.append(run_adaptive_estimation(ys, [None] * len(ys), model_class(), cfg))
        warnings.append(list(caplog.messages))
        assert not multiprocessing.active_children()
    return runs, warnings


@needs_fork
@pytest.mark.parametrize(
    "model_class, kw",
    [
        (linear_model, {}),  # AAF
        (linear_model, {"mode": "best"}),  # ABF
        (linear_model, {"filters": (FilterId.UKF,)}),
        (FailingBoundModel, {}),
    ],
    ids=["AAF", "ABF", "bank-of-one", "failing-bound"],
)
def test_the_bound_worker_gives_the_in_process_records(monkeypatch, caplog, model_class, kw):
    ys = observations(n_steps=10)
    (alone, forked), (alone_warnings, forked_warnings) = run_on_each_path(
        monkeypatch, caplog, ys, model_class, settings(pf_particles=100, pcrlb_particles=50, **kw)
    )
    _assert_same_records(alone, forked)
    assert alone_warnings == forked_warnings
    if model_class is FailingBoundModel:
        assert [rec.fallbacks for rec in forked] == [[(BOUND_CARRIED, None)]] * (len(ys) - 1) + [[]]
        assert len(forked_warnings) == len(ys) - 1
    else:
        assert forked_warnings == []


@needs_fork
@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "worker"])
@pytest.mark.parametrize("mode", ["average", "best"], ids=["AAF", "ABF"])
def test_the_closed_form_checks_change_no_run(monkeypatch, mode, cpus):
    cfg = replace(SYNTHETIC_CONFIG, pf_particles=100, pcrlb_particles=60)
    spec = cfg.model_spec(SYNTHETIC_CONTRACT)
    truth = generate_synthetic(spec, 20, SYNTHETIC_S0, (cfg.v0, cfg.r0), seed=3)
    settings = cfg.estimation_settings(mode=mode, seed=3)
    monkeypatch.setattr(workers, "fork_cpus", lambda: cpus)
    decided, real = [], linalg._eigvals2

    def counted(m):
        eigs = real(m)
        decided.append(eigs is not None)
        return eigs

    monkeypatch.setattr(linalg, "_eigvals2", counted)
    shipped = run_adaptive_estimation(truth.observations, truth.exogenous, BsGarchModel(spec), settings)
    assert sum(decided) > len(truth.observations)  # the filters' floors at least, in this process
    monkeypatch.setattr(linalg, "_eigvals2", lambda m: None)
    deferred = run_adaptive_estimation(truth.observations, truth.exogenous, BsGarchModel(spec), settings)
    _assert_same_records(shipped, deferred)
    assert not multiprocessing.active_children()


@needs_fork
def test_a_varying_jacobian_raises_the_same_error_on_each_path(monkeypatch):
    ys = observations(n_steps=6)
    for cpus in (1, 2):
        monkeypatch.setattr(workers, "fork_cpus", lambda: cpus)
        with pytest.raises(InvalidInputError) as raised:
            run_adaptive_estimation(ys, [None] * len(ys), RejectingBoundModel(), settings(pf_particles=100))
        assert type(raised.value) is InvalidInputError
        assert str(raised.value) == "no measurement gradients for a particle batch"
        assert not multiprocessing.active_children()


@needs_fork
@pytest.mark.parametrize("failure", [None, "filter", "bound", "worker"])
def test_no_bound_worker_outlives_the_run(monkeypatch, failure):
    monkeypatch.setattr(workers, "fork_cpus", lambda: 2)
    started = []
    start = workers.start
    monkeypatch.setattr(workers, "start", lambda *args, **kw: started.append(start(*args, **kw)) or started[-1])
    model = RejectingBoundModel() if failure == "bound" else linear_model()
    if failure == "filter":
        real, calls = switching.ukf_update, Counter()

        def failing_ukf(*args):
            calls["ukf"] += 1
            if calls["ukf"] == 3:
                raise InvalidInputError("injected")
            return real(*args)

        monkeypatch.setattr(switching, "ukf_update", failing_ukf)
    if failure == "worker":  # a worker that dies, as after a signal or an OOM kill
        monkeypatch.setattr(switching, "_serve_bound", lambda *args: os._exit(3))
    ys = observations(n_steps=6)
    expect = {
        None: None,
        "filter": (InvalidInputError, "injected"),
        "bound": (InvalidInputError, "^no measurement gradients for a particle batch$"),
        "worker": (EstimationError, "^the bound worker exited with code 3$"),
    }[failure]
    if expect is None:
        run_adaptive_estimation(ys, [None] * len(ys), model, settings(pf_particles=100))
    else:
        with pytest.raises(expect[0], match=expect[1]):
            run_adaptive_estimation(ys, [None] * len(ys), model, settings(pf_particles=100))
    ((process, end),) = started
    assert process.exitcode is not None and end.closed
    assert not multiprocessing.active_children()


@needs_fork
def test_a_bound_worker_whose_owner_closes_its_end_exits():
    # as when the owner dies: the worker's next receive reads EOF, and it exits with code 1
    j, j_inv = switching.initial_information(P0)
    forked = switching._ForkedBound(linear_model(), settings(), [None] * 4, j, j_inv)
    try:
        forked.worker.end.close()
        forked.worker.process.join(timeout=60)
        assert forked.worker.process.exitcode == 1
    finally:
        forked.worker.stop()
    assert not multiprocessing.active_children()


@needs_fork
def test_an_aaf_run_in_a_daemonic_pool_worker_equals_the_parents():
    # a pool worker may not fork, so its run keeps the bound in-process
    ys = observations(n_steps=8)
    run = functools.partial(
        run_adaptive_estimation, ys, [None] * len(ys), linear_model(), settings(pf_particles=100, pcrlb_particles=50)
    )
    with multiprocessing.get_context("fork").Pool(1) as pool:
        pooled = pool.apply(run)
    _assert_same_records(run(), pooled)
    assert not multiprocessing.active_children()


def test_run_input_validation():
    model = linear_model()
    with pytest.raises(InvalidInputError):
        run_adaptive_estimation([], [], model, settings())
    with pytest.raises(InvalidInputError):
        run_adaptive_estimation([1.0, 2.0], [None], model, settings())
    with pytest.raises(InvalidInputError):
        run_adaptive_estimation([1.0, np.nan], [None, None], model, settings())


def test_state_rmse_needs_one_record_per_true_state():
    cfg = SYNTHETIC_CONFIG
    spec = cfg.model_spec(SYNTHETIC_CONTRACT)
    truth = generate_synthetic(spec, 4, SYNTHETIC_S0, (cfg.v0, cfg.r0), seed=0)
    run_settings = cfg.estimation_settings(mode="average", filters=(FilterId.EKF,), seed=0, compute_pcrlb=False)
    records = run_adaptive_estimation(truth.observations, truth.exogenous, BsGarchModel(spec), run_settings)
    assert np.isfinite(state_rmse(records, truth))
    with pytest.raises(InvalidInputError, match="records and truth must cover the same steps"):
        state_rmse(records[:-1], truth)
