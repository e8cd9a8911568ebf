import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import softmax

import oracles
from volswitch import filters
from volswitch.exceptions import InvalidInputError, NumericalFailureError
from volswitch.filters import (
    GaussianBelief,
    ParticleCloud,
    SigmaPointParams,
    _reconstruct,
    _sigma_points,
    effective_sample_size,
    ekf_update,
    likelihood_logweights,
    normalize_logweights,
    pf_update,
    propagate_cloud,
    systematic_resample,
    ukf_update,
)
from models import LinearGaussianModel

A = np.array([[0.9, 0.1], [0.0, 0.95]])
C = np.array([[1.0, 0.5]])
Q = np.diag([0.05, 0.02])
R = np.array([[0.1]])
X0 = np.array([0.3, -0.2])
P0 = np.diag([0.4, 0.4])


def linear_model():
    return LinearGaussianModel(A, C, Q, R)


def observations(n_steps=30, seed=5):
    rng = np.random.default_rng(seed)
    _, ys = oracles.simulate_linear(A, C, Q, R, X0, P0, n_steps, rng)
    return ys


# ---------------------------------------------------------------------------
# Gaussian filters against the textbook Kalman recursion


def test_ekf_reduces_to_kalman_filter_on_linear_model():
    ys = observations()
    model = linear_model()
    belief = GaussianBelief(X0, P0)
    means, covs = oracles.kalman_filter(ys, A, C, Q, R, X0, P0)
    for t, y in enumerate(ys):
        belief = ekf_update(belief, y, None, model)
        np.testing.assert_allclose(belief.mean, means[t], atol=1e-10)
        np.testing.assert_allclose(belief.cov, covs[t], atol=1e-10)


def test_ukf_reduces_to_kalman_filter_on_linear_model():
    ys = observations()
    model = linear_model()
    belief = GaussianBelief(X0, P0)
    means, covs = oracles.kalman_filter(ys, A, C, Q, R, X0, P0)
    for t, y in enumerate(ys):
        belief = ukf_update(belief, y, None, model)
        np.testing.assert_allclose(belief.mean, means[t], atol=1e-8)
        np.testing.assert_allclose(belief.cov, covs[t], atol=1e-8)


def test_pf_summary_tracks_kalman_posterior_on_linear_model():
    # loose 4-sigma Monte-Carlo band; the acceptance suite runs the tight version
    ys = observations(n_steps=10, seed=9)
    model = linear_model()
    n = 4000
    rng = np.random.default_rng(123)
    cloud = ParticleCloud.uniform(
        X0 + rng.standard_normal((n, 2)) @ np.linalg.cholesky(P0).T
    )
    means, covs = oracles.kalman_filter(ys, A, C, Q, R, X0, P0)
    for t, y in enumerate(ys):
        cloud, summary = pf_update(cloud, y, None, model, rng)
        band = 6.0 * np.sqrt(np.diag(covs[t])) / np.sqrt(n)
        assert np.all(np.abs(summary.mean - means[t]) < band)


# ---------------------------------------------------------------------------
# resampling


@given(st.integers(0, 2**32 - 1), st.integers(2, 40))
@settings(max_examples=80)
def test_systematic_resample_counts_within_one_of_expectation(seed, n):
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(n))
    idx = systematic_resample(w, np.random.default_rng(seed + 1))
    counts = np.bincount(idx, minlength=n)
    assert counts.sum() == n
    assert np.all(np.abs(counts - n * w) < 1.0)


def test_systematic_resample_is_sorted_and_seed_deterministic():
    w = np.array([0.1, 0.2, 0.3, 0.4])
    a = systematic_resample(w, np.random.default_rng(7))
    b = systematic_resample(w, np.random.default_rng(7))
    assert np.array_equal(a, b)
    assert np.all(np.diff(a) >= 0)


def test_systematic_resample_point_mass():
    idx = systematic_resample(np.array([0.0, 1.0, 0.0]), np.random.default_rng(0))
    assert idx.shape == (3,)
    assert np.all(idx == 1)


def test_systematic_resample_input_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidInputError):
        systematic_resample(np.array([]), rng)
    with pytest.raises(InvalidInputError):
        systematic_resample(np.array([0.5, -0.1, 0.6]), rng)
    with pytest.raises(InvalidInputError):
        systematic_resample(np.array([0.5, 0.6]), rng)  # not normalized
    # each check is one reduction: min() must catch NaN and -inf, the sum +inf
    for bad in (np.nan, np.inf, -np.inf, -0.25):
        with pytest.raises(InvalidInputError, match="finite and non-negative|normalized"):
            systematic_resample(np.array([0.25, 0.25, 0.5, bad]), rng)


def test_cloud_and_resample_share_one_weight_check():
    rng = np.random.default_rng(0)
    for bad in (np.array([0.5, 0.6]), np.array([0.5, -0.5]), np.array([])):
        with pytest.raises(InvalidInputError) as from_cloud:
            ParticleCloud(np.zeros((bad.size, 2)), bad)
        with pytest.raises(InvalidInputError) as from_resample:
            systematic_resample(bad, rng)
        assert str(from_cloud.value) == str(from_resample.value)
    with pytest.raises(InvalidInputError, match="normalized.*sum to one"):
        systematic_resample(np.array([0.5, 0.6]), rng)


def test_effective_sample_size_limits():
    assert effective_sample_size(np.full(50, 0.02)) == pytest.approx(50.0)
    one_hot = np.zeros(50)
    one_hot[13] = 1.0
    assert effective_sample_size(one_hot) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# log-weight normalization


@given(st.lists(st.floats(-700.0, 100.0), min_size=2, max_size=50))
def test_normalize_logweights_matches_direct_softmax(logs):
    logw = np.array(logs)
    w = normalize_logweights(logw)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    direct = np.exp(logw - logw.max())
    np.testing.assert_allclose(w, direct / direct.sum(), atol=1e-12)


@given(
    st.lists(st.one_of(st.floats(-700.0, 100.0), st.just(-np.inf)), min_size=1, max_size=50)
    .filter(lambda logs: max(logs) > -np.inf)
)
def test_normalize_logweights_matches_scipy_softmax(logs):
    logw = np.array(logs)
    w = normalize_logweights(logw)
    np.testing.assert_allclose(w, softmax(logw), rtol=1e-15, atol=0.0)


def test_normalize_logweights_shift_invariance():
    logw = np.array([-3.0, -1.0, -2.5])
    w1 = normalize_logweights(logw)
    w2 = normalize_logweights(logw + 1234.5)
    np.testing.assert_allclose(w1, w2, atol=1e-12)


def test_normalize_logweights_total_underflow_raises():
    with pytest.raises(NumericalFailureError, match="degenerate particle weights"):
        normalize_logweights(np.full(4, -np.inf))


def test_normalize_logweights_single_survivor():
    w = normalize_logweights(np.array([-np.inf, -2.0, -np.inf]))
    np.testing.assert_allclose(w, [0.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# sigma points


def test_ukf_floors_each_covariance_once(monkeypatch):
    # the prior, the prediction and the posterior; the sigma points reuse
    # the floored prior and prediction
    calls = []
    real = filters.floor_psd
    monkeypatch.setattr(filters, "floor_psd", lambda m, *a: calls.append(m) or real(m, *a))
    ukf_update(GaussianBelief(X0, P0), observations()[0], None, linear_model())
    assert len(calls) == 3


@pytest.mark.parametrize("alpha", [1e-3, 0.5, 1.0])
def test_sigma_points_reconstruct_input_moments(alpha):
    sp = SigmaPointParams(alpha=alpha)
    mean = np.array([1.5, -0.7, 0.2])
    m = np.array([[1.2, 0.3, 0.0], [0.3, 0.9, -0.1], [0.0, -0.1, 0.5]])
    pts, wm, wc = _sigma_points(mean, m, sp)
    assert pts.shape == (7, 3)
    assert wm.sum() == pytest.approx(1.0, abs=1e-9)
    rec_mean, _, rec_cov = _reconstruct(pts, wm, wc)
    np.testing.assert_allclose(rec_mean, mean, atol=1e-9)
    np.testing.assert_allclose(rec_cov, m, atol=1e-7)


def test_sigma_points_reject_non_positive_scaling():
    with pytest.raises(InvalidInputError):
        _sigma_points(np.zeros(2), np.eye(2), SigmaPointParams(alpha=1e-3, kappa=-2.0))


# ---------------------------------------------------------------------------
# particle filter mechanics


def test_pf_resamples_to_uniform_weights_by_default():
    rng = np.random.default_rng(3)
    cloud = ParticleCloud.uniform(rng.standard_normal((200, 2)))
    out, _ = pf_update(cloud, np.array([0.1]), None, linear_model(), rng)
    np.testing.assert_allclose(out.weights, np.full(200, 1.0 / 200))


def test_pf_ess_threshold_skips_resampling():
    rng = np.random.default_rng(3)
    cloud = ParticleCloud.uniform(rng.standard_normal((200, 2)))
    out, _ = pf_update(cloud, np.array([0.1]), None, linear_model(), rng, ess_threshold=0.0)
    assert np.ptp(out.weights) > 0.0  # posterior weights kept


def test_pf_degenerate_weights_raise():
    rng = np.random.default_rng(3)
    cloud = ParticleCloud.uniform(np.random.default_rng(1).standard_normal((100, 2)))
    # an observation far enough out that every squared deviation overflows;
    # the run loop, not the filter, holds the prior
    with pytest.raises(NumericalFailureError, match="degenerate particle weights"):
        pf_update(cloud, np.array([1e200]), None, linear_model(), rng)


def test_pf_requires_at_least_two_particles():
    with pytest.raises(InvalidInputError):
        pf_update(
            ParticleCloud.uniform(np.zeros((1, 2))),
            np.array([0.0]),
            None,
            linear_model(),
            np.random.default_rng(0),
        )


def test_propagate_cloud_is_rng_deterministic():
    cloud = ParticleCloud.uniform(np.random.default_rng(2).standard_normal((50, 2)))
    a = propagate_cloud(cloud, None, linear_model(), np.random.default_rng(42))
    b = propagate_cloud(cloud, None, linear_model(), np.random.default_rng(42))
    assert np.array_equal(a.particles, b.particles)
    np.testing.assert_allclose(a.weights, cloud.weights)


def test_propagate_cloud_reuses_the_kept_noise_factor():
    model = linear_model()
    cloud = ParticleCloud.uniform(np.random.default_rng(2).standard_normal((50, 2)))
    moved = propagate_cloud(cloud, None, model, np.random.default_rng(42))
    factor = model.process_noise_factor()
    assert model.process_noise_factor() is factor and not factor.flags.writeable
    np.testing.assert_allclose(factor @ factor.T, Q, rtol=1e-15)
    # the same draws as factoring Q afresh
    expect = cloud.particles @ A.T + np.random.default_rng(42).standard_normal((50, 2)) @ factor.T
    np.testing.assert_array_equal(moved.particles, expect)


def test_likelihood_logweights_matches_scalar_gaussian():
    particles = np.array([[0.0, 0.0], [1.0, 2.0]])
    obs = np.array([0.5])
    logw = likelihood_logweights(particles, obs, None, linear_model())
    preds = particles @ C.T
    expect = -0.5 * (obs - preds[:, 0]) ** 2 / R[0, 0] - 0.5 * np.log(2 * np.pi * R[0, 0])
    np.testing.assert_allclose(logw, expect, atol=1e-12)


def test_a_model_that_measures_two_values_is_rejected():
    two = LinearGaussianModel(A, np.vstack([C, [0.0, 1.0]]), Q, np.diag([0.1, 0.2]))
    prior = GaussianBelief(X0, P0)
    cloud = ParticleCloud.uniform(np.random.default_rng(1).standard_normal((20, 2)))
    obs = np.array([0.1, 0.2])
    for update in (lambda: ekf_update(prior, obs, None, two), lambda: ukf_update(prior, obs, None, two),
                   lambda: pf_update(cloud, obs, None, two, np.random.default_rng(0))):
        with pytest.raises(InvalidInputError, match="one price"):
            update()


def test_a_gaussian_posterior_that_overflows_is_a_numerical_failure():
    # the gain is about 2, so the posterior mean of y = 1.5e308 overflows to inf
    model = LinearGaussianModel([[1.0]], [[0.5]], [[0.01]], [[1.0]])
    prior = GaussianBelief(np.zeros(1), np.array([[1e6]]))
    for update in (ekf_update, ukf_update):
        with pytest.raises(NumericalFailureError, match="non-finite posterior"), np.errstate(over="ignore"):
            update(prior, 1.5e308, None, model)


class SquaredNormModel(LinearGaussianModel):
    """y = |x|^2 + z: a measurement whose unscented variance a negative centre weight can drive below zero."""

    def measurement_batch(self, states, ex):
        return (states**2).sum(axis=1, keepdims=True)

    def measurement_jacobian_batch(self, states, ex):
        return 2.0 * states[:, None, :]


def test_ukf_rejects_a_non_positive_innovation_covariance():
    # alpha = 1, kappa = -1.5 on two states gives the centre point weight -3
    model = SquaredNormModel(np.eye(2), [[1.0, 1.0]], 0.01 * np.eye(2), [[1e-12]])
    sp = SigmaPointParams(alpha=1.0, beta=0.0, kappa=-1.5)
    with pytest.raises(NumericalFailureError, match="non-positive innovation covariance"):
        ukf_update(GaussianBelief(np.zeros(2), np.eye(2)), 1.0, None, model, sp)


# ---------------------------------------------------------------------------
# belief containers


def test_belief_and_cloud_validation():
    with pytest.raises(InvalidInputError):
        GaussianBelief(np.zeros(2), np.zeros((3, 3)))
    with pytest.raises(InvalidInputError):
        GaussianBelief(np.array([np.nan, 0.0]), np.eye(2))
    with pytest.raises(InvalidInputError):
        ParticleCloud(np.zeros((4, 2)), np.array([0.5, 0.5, 0.5, 0.5]))
    with pytest.raises(InvalidInputError, match="shapes disagree"):
        ParticleCloud(np.zeros((3, 2)), np.array([0.5, 0.5]))
    with pytest.raises(InvalidInputError):
        ParticleCloud(np.zeros((2, 2)), np.array([1.5, -0.5]))
    # a 0-d mean is a shape error, not an IndexError
    with pytest.raises(InvalidInputError):
        GaussianBelief(1.0, [[1.0]])
    with pytest.raises(InvalidInputError):
        GaussianBelief(np.zeros(2), np.array([[1.0, 0.0], [np.nan, 1.0]]))
    # each check is one reduction: min() must catch NaN and -inf, the sum +inf
    for bad in (np.nan, np.inf, -np.inf, -0.25):
        with pytest.raises(InvalidInputError):
            ParticleCloud(np.zeros((4, 2)), np.array([0.25, 0.25, 0.5, bad]))
    # an empty cloud has no min(): it must not reach numpy's ValueError
    with pytest.raises(InvalidInputError):
        ParticleCloud(np.zeros((0, 2)), np.zeros(0))
    # nor may the uniform constructor divide by an empty count
    with pytest.raises(InvalidInputError):
        ParticleCloud.uniform(np.zeros((0, 2)))
    # the boundary cases still pass
    ParticleCloud(np.zeros((3, 2)), np.array([0.0, 0.5, 0.5]))
    GaussianBelief(np.zeros(1), [[0.0]])
