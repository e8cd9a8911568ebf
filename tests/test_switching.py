import logging
import re
from collections import Counter

import numpy as np
import pytest

import oracles
from test_pcrlb import QuadraticTransitionModel
from volswitch import switching
from volswitch.exceptions import (
    DegenerateCovarianceError,
    InvalidInputError,
    NoFilterError,
    NumericalFailureError,
)
from volswitch.filters import FILTER_ORDER, FilterId, GaussianBelief, ekf_update
from volswitch.pcrlb import FisherState
from volswitch.ssm import LinearGaussianModel
from volswitch.switching import (
    BOUND_CARRIED,
    DECISION_CARRIED,
    EXCLUDED,
    HELD_PRIOR,
    EstimationSettings,
    PerfMetric,
    SwitchDecision,
    perf_metric,
    run_adaptive_estimation,
    select_average,
    select_best,
)

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
    fisher = FisherState(
        j=np.linalg.inv(np.diag([0.2, 0.4])), j_inv=np.diag([0.2, 0.4]), filter=FilterId.UKF
    )
    b = GaussianBelief(np.zeros(2), np.diag([0.4, 0.5]))
    m = perf_metric(fisher, b)
    np.testing.assert_allclose(np.diag(m.phi), [0.5, 0.8])
    assert m.trace == pytest.approx(1.3)
    assert m.filter is FilterId.UKF


def test_perf_metric_rejects_degenerate_variances():
    good = np.diag([0.1, 0.1])
    with pytest.raises(DegenerateCovarianceError):
        perf_metric(
            FisherState(j=good, j_inv=good), GaussianBelief(np.zeros(2), np.diag([0.1, 0.0]))
        )
    with pytest.raises(DegenerateCovarianceError):
        perf_metric(
            FisherState(j=good, j_inv=np.diag([0.1, -0.1])),
            GaussianBelief(np.zeros(2), np.diag([0.1, 0.1])),
        )


def test_perf_metric_logs_but_never_clamps_above_one(caplog):
    fisher = FisherState(j=np.diag([0.5, 0.5]), j_inv=np.diag([2.0, 2.0]))
    b = GaussianBelief(np.zeros(2), np.diag([1.0, 1.0]))
    with caplog.at_level(logging.INFO, logger="volswitch.switching"):
        m = perf_metric(fisher, b)
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
        np.testing.assert_allclose(rec.estimate, means[t], atol=1e-10)


def test_run_is_seed_reproducible():
    ys = observations(n_steps=12)
    cfg = settings(pf_particles=200, pcrlb_particles=100)
    a = run_adaptive_estimation(ys, [None] * len(ys), linear_model(), cfg)
    b = run_adaptive_estimation(ys, [None] * len(ys), linear_model(), cfg)
    for ra, rb in zip(a, b):
        np.testing.assert_array_equal(ra.estimate, rb.estimate)
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
        assert set(rec.fisher_diags) == set(cfg.filters)
        assert len(rec.decision.chosen) == 2  # one winner per state component
        j_diag, j_inv_diag = rec.fisher_diags[FilterId.EKF]
        assert j_diag.shape == (2,) and j_inv_diag.shape == (2,)


def test_compute_pcrlb_false_freezes_the_bound():
    ys = observations(n_steps=8)
    cfg = settings(filters=(FilterId.EKF,), compute_pcrlb=False)
    records = run_adaptive_estimation(ys, [None] * len(ys), linear_model(), cfg)
    j0 = np.diag(np.linalg.inv(P0))
    for rec in records:
        np.testing.assert_allclose(rec.fisher_diags[FilterId.EKF][0], j0, atol=1e-12)
        np.testing.assert_allclose(rec.fisher_diags[FilterId.EKF][1], np.diag(P0), atol=1e-12)


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
        np.testing.assert_array_equal(with_bound.estimate, without.estimate)
        np.testing.assert_array_equal(with_bound.decision.cov, without.decision.cov)
    # the first run did advance its bound
    assert not np.array_equal(runs[0][-1].fisher_diags[fid][0], runs[1][-1].fisher_diags[fid][0])


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
    np.testing.assert_array_equal(records[2].estimate, records[1].estimate)
    np.testing.assert_allclose(
        np.diag(records[2].decision.cov), 10.0 * np.diag(records[1].decision.cov), rtol=1e-12
    )
    # the run recovers afterwards
    assert not np.array_equal(records[3].estimate, records[2].estimate)


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
    cfg = settings(filters=(FilterId.EKF,))
    with caplog.at_level(logging.WARNING, logger="volswitch.switching"):
        records = run_adaptive_estimation(ys, [None] * len(ys), FailingBoundModel(), cfg)
    assert any("carrying J forward" in rec.message for rec in caplog.records)
    # the last step has no next observation, so no bound update to fail
    assert [rec.fallbacks for rec in records] == [[(BOUND_CARRIED, FilterId.EKF)]] * 4 + [[]]
    j0 = np.diag(np.linalg.inv(P0))
    for rec in records:
        np.testing.assert_allclose(rec.fisher_diags[FilterId.EKF][0], j0, atol=1e-12)


def test_each_fallback_warning_is_recorded_once_on_its_step(monkeypatch, caplog):
    # t=1: the EKF update fails; t=2: every score is degenerate, so every
    # filter is excluded and the decision carries forward; every step with a
    # next observation: each filter's bound update fails
    calls = Counter()

    def failing_ekf(*args):
        calls["ekf"] += 1
        if calls["ekf"] == 2:
            raise NumericalFailureError("injected")
        return ekf_update(*args)

    def failing_metric(fisher, belief):
        calls["metric"] += 1
        if 7 <= calls["metric"] <= 9:
            raise DegenerateCovarianceError("injected")
        return perf_metric(fisher, belief)

    monkeypatch.setattr(switching, "ekf_update", failing_ekf)
    monkeypatch.setattr(switching, "perf_metric", failing_metric)
    ys = observations(n_steps=4)
    with caplog.at_level(logging.WARNING, logger="volswitch"):
        records = run_adaptive_estimation(
            ys, [None] * len(ys), FailingBoundModel(), settings(pf_particles=100, pcrlb_particles=40)
        )
    bound = [(BOUND_CARRIED, f) for f in FILTER_ORDER]
    assert [rec.fallbacks for rec in records] == [
        bound,
        [(HELD_PRIOR, FilterId.EKF)] + bound,
        [(EXCLUDED, f) for f in FILTER_ORDER] + [(DECISION_CARRIED, None)] + bound,
        [],
    ]
    steps = Counter(int(re.search(r"t=(\d+)", m).group(1)) for m in caplog.messages)
    assert steps == Counter({rec.t: len(rec.fallbacks) for rec in records})


class FailingBankRowsModel(LinearGaussianModel):
    """Non-finite measurement gradients for the second filter's rows of a stacked bound step."""

    def __init__(self, n):
        super().__init__(A, C, Q, R)
        self.n = n

    def measurement_jacobian_batch(self, states, ex):
        out = super().measurement_jacobian_batch(states, ex)
        if states.shape[0] == 3 * self.n:
            out = out.copy()
            out[self.n : 2 * self.n] = np.nan
        return out


def assert_only_the_ukf_bound_carried_forward(records, healthy):
    """Each step with a next observation carries the UKF's J forward and records it; EKF and PF match a healthy run."""
    assert [rec.fallbacks for rec in healthy] == [[]] * len(healthy)
    assert [rec.fallbacks for rec in records] == [[(BOUND_CARRIED, FilterId.UKF)]] * (len(records) - 1) + [[]]
    j0 = np.diag(np.linalg.inv(P0))
    for rec, ref in zip(records, healthy):
        np.testing.assert_array_equal(rec.fisher_diags[FilterId.UKF][0], j0)
        for fid in (FilterId.EKF, FilterId.PF):
            for got, expect in zip(rec.fisher_diags[fid], ref.fisher_diags[fid]):
                np.testing.assert_array_equal(got, expect)
    assert not np.array_equal(records[-1].fisher_diags[FilterId.EKF][0], j0)


def test_a_bound_failure_in_the_bank_carries_only_that_filter_forward(caplog):
    ys = observations(n_steps=6)
    # independent chains keep each filter's beliefs apart from the others' bounds
    cfg = settings(pf_particles=100, pcrlb_particles=40, independent_chains=True)
    healthy = run_adaptive_estimation(ys, [None] * len(ys), linear_model(), cfg)
    with caplog.at_level(logging.WARNING, logger="volswitch.switching"):
        records = run_adaptive_estimation(ys, [None] * len(ys), FailingBankRowsModel(40), cfg)
    carried = [rec.message for rec in caplog.records if "carrying J forward" in rec.message]
    assert len(carried) == len(ys) - 1
    assert all(message.startswith("bound update for UKF") for message in carried)
    assert_only_the_ukf_bound_carried_forward(records, healthy)


class UnderflowingPairWeightsModel(QuadraticTransitionModel):
    """The second filter's rows of a stacked bound step price at infinity, so all its pair weights underflow.

    The quadratic transition's Jacobian varies across particles, so the
    bound step weights its pairs by the likelihood.
    """

    def __init__(self, n):
        super().__init__(A, C, Q, R, k=0.4)
        self.n = n

    def measurement_batch(self, states, ex):
        out = super().measurement_batch(states, ex)
        if states.shape[0] == 3 * self.n:
            out = out.copy()
            out[self.n : 2 * self.n] = np.inf
        return out


def test_a_pair_weight_underflow_in_the_bank_carries_only_that_filter_forward(caplog):
    ys = observations(n_steps=6)
    cfg = settings(pf_particles=100, pcrlb_particles=40, independent_chains=True)
    healthy = run_adaptive_estimation(ys, [None] * len(ys), QuadraticTransitionModel(A, C, Q, R, k=0.4), cfg)
    with caplog.at_level(logging.WARNING, logger="volswitch"):
        records = run_adaptive_estimation(ys, [None] * len(ys), UnderflowingPairWeightsModel(40), cfg)
    warned = [rec.message for rec in caplog.records]
    assert len(warned) == len(ys) - 1
    assert all(m.startswith("bound update for UKF") and "degenerate particle weights" in m for m in warned)
    assert_only_the_ukf_bound_carried_forward(records, healthy)


def test_run_input_validation():
    model = linear_model()
    with pytest.raises(InvalidInputError):
        run_adaptive_estimation([], [], model, settings())
    with pytest.raises(InvalidInputError):
        run_adaptive_estimation([1.0, 2.0], [None], model, settings())
    with pytest.raises(InvalidInputError):
        run_adaptive_estimation([1.0, np.nan], [None, None], model, settings())
