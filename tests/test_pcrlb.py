import numpy as np
import pytest
from scipy.stats import multivariate_normal

import oracles
from volswitch.bsgarch import BsGarchModel, V_FLOOR
from volswitch.exceptions import CovarianceError, InvalidInputError, SingularityError
from volswitch.filters import (
    FilterId,
    GaussianBelief,
    likelihood_logweights,
    normalize_logweights,
    propagate_cloud,
    systematic_resample,
)
from volswitch import pcrlb
from volswitch.linalg import regularized_inverse, symmetrize
from volswitch.pcrlb import (
    DTriple,
    FisherState,
    d_matrices,
    pcrlb_bank_step,
    pcrlb_step,
    pfim_step,
    seed_particles,
)
from volswitch.ssm import LinearGaussianModel

A = np.array([[0.85, 0.05], [0.0, 0.9]])
C = np.array([[1.0, 0.4]])
Q = np.diag([0.04, 0.03])
R = np.array([[0.08]])
P0 = np.diag([0.5, 0.3])


def linear_model():
    return LinearGaussianModel(A, C, Q, R)


# ---------------------------------------------------------------------------
# initial state and the scalar recursion


def test_initial_state_inverts_the_prior_covariance():
    fs = FisherState.initial(P0, FilterId.EKF)
    np.testing.assert_allclose(fs.j, np.diag([2.0, 1.0 / 0.3]), atol=1e-12)
    np.testing.assert_allclose(fs.j_inv, P0, atol=1e-15)
    assert fs.filter is FilterId.EKF


def test_pfim_step_scalar_worked_example():
    # a = c = q = r = 1 gives D = (1, -1, 2); from J = 1 the update is
    # J' = 2 - 1/(1+1) = 1.5 exactly.
    prev = FisherState(j=np.array([[1.0]]), j_inv=np.array([[1.0]]))
    d = DTriple(d11=np.array([[1.0]]), d12=np.array([[-1.0]]), d22=np.array([[2.0]]))
    out = pfim_step(prev, d)
    assert out.j[0, 0] == pytest.approx(1.5, abs=1e-15)
    assert out.j_inv[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_pfim_step_lemma_inverse_agrees_with_direct_inverse():
    # D blocks drawn from random (but valid) linear models, so the implied
    # joint information matrix keeps the structure real problems have
    rng = np.random.default_rng(4)
    prev = FisherState.initial(P0)
    for _ in range(8):
        a = rng.uniform(-1.0, 1.0, size=(2, 2))
        c = rng.uniform(-1.0, 1.0, size=(1, 2))
        mq = rng.standard_normal((2, 2))
        q = mq @ mq.T + 0.05 * np.eye(2)
        r = np.array([[rng.uniform(0.05, 1.0)]])
        prev = pfim_step(prev, DTriple(*oracles.exact_linear_dtriple(a, c, q, r)))
        np.testing.assert_allclose(prev.j_inv, np.linalg.inv(prev.j), atol=1e-10)
        np.testing.assert_allclose(prev.j_inv @ prev.j, np.eye(2), atol=1e-8)


def test_pfim_step_inverse_is_one_regularized_inverse_of_j():
    # the same random linear D blocks as above: J^{-1} is exactly the
    # symmetrized regularized inverse of the new J, bit for bit
    rng = np.random.default_rng(4)
    prev = FisherState.initial(P0)
    for _ in range(8):
        a = rng.uniform(-1.0, 1.0, size=(2, 2))
        c = rng.uniform(-1.0, 1.0, size=(1, 2))
        mq = rng.standard_normal((2, 2))
        q = mq @ mq.T + 0.05 * np.eye(2)
        r = np.array([[rng.uniform(0.05, 1.0)]])
        prev = pfim_step(prev, DTriple(*oracles.exact_linear_dtriple(a, c, q, r)))
        np.testing.assert_array_equal(prev.j_inv, symmetrize(regularized_inverse(prev.j)))


def test_pfim_step_raises_when_the_inverse_misses_the_identity():
    # J' = diag(1, 1e-14) is positive but past the condition limit, so the
    # ridge that regularized_inverse adds leaves J^{-1} J far from I
    prev = FisherState(j=np.eye(2), j_inv=np.eye(2))
    d = DTriple(d11=np.zeros((2, 2)), d12=np.zeros((2, 2)), d22=np.diag([1.0, 1e-14]))
    with pytest.raises(SingularityError, match="inverse inconsistent"):
        pfim_step(prev, d)


def test_pfim_step_floors_an_indefinite_update():
    # d22 smaller than the rank-one correction drives J' negative; the step
    # must floor it to a positive matrix and keep the inverse consistent.
    prev = FisherState(j=np.array([[0.5]]), j_inv=np.array([[2.0]]))
    d = DTriple(d11=np.array([[0.5]]), d12=np.array([[-1.0]]), d22=np.array([[0.5]]))
    out = pfim_step(prev, d)
    assert out.j[0, 0] > 0.0
    assert out.j_inv[0, 0] * out.j[0, 0] == pytest.approx(1.0, rel=1e-6)


def test_exact_recursion_reproduces_kalman_covariance_on_linear_model():
    # with exact D blocks the recursion is the information-form Riccati
    # iteration, so J^{-1} must equal the Kalman posterior covariance.
    d11, d12, d22 = oracles.exact_linear_dtriple(A, C, Q, R)
    d = DTriple(d11, d12, d22)
    ys = np.zeros((12, 1))  # KF covariance does not depend on the data
    _, covs = oracles.kalman_filter(ys, A, C, Q, R, np.zeros(2), P0)
    fs = FisherState.initial(P0)
    for t in range(12):
        fs = pfim_step(fs, d)
        np.testing.assert_allclose(fs.j_inv, covs[t], atol=1e-10)


# ---------------------------------------------------------------------------
# smoothing weights


def brute_force_smoothing_weights(x_prev, x_next, ex, model):
    n = x_prev.shape[0]
    means = model.transition_batch(x_prev, ex)
    q = model.process_cov()
    dens = np.empty((n, n))
    for i in range(n):
        for m in range(n):
            dens[i, m] = multivariate_normal(mean=means[m], cov=q).pdf(x_next[i])
    w = np.array([dens[i, i] / dens[i].sum() for i in range(n)])
    return w / w.sum()


def test_joint_smoothing_weights_match_brute_force():
    rng = np.random.default_rng(8)
    x_prev = rng.standard_normal((6, 2))
    x_next = rng.standard_normal((6, 2)) * 0.3
    model = linear_model()
    w = oracles.mixture_smoothing_weights(x_next, model.transition_batch(x_prev, None), Q)
    expect = brute_force_smoothing_weights(x_prev, x_next, None, model)
    np.testing.assert_allclose(w, expect, atol=1e-12)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# D blocks


def jacobians(model, x_prev, x_next, ex=None):
    """(transition Jacobians at x_prev, measurement Jacobians at x_next), stacked as a bank of one."""
    return model.transition_jacobian_batch(x_prev, ex)[None], model.measurement_jacobian_batch(x_next, ex)[None]


def test_d_matrices_are_exact_for_constant_jacobians():
    rng = np.random.default_rng(12)
    x_prev = rng.standard_normal((30, 2))
    x_next = rng.standard_normal((30, 2))
    f_jac, h_jac = jacobians(linear_model(), x_prev, x_next)
    (d,) = d_matrices(f_jac, np.full((1, 30), 1.0 / 30), h_jac, linear_model())
    e11, e12, e22 = oracles.exact_linear_dtriple(A, C, Q, R)
    np.testing.assert_allclose(d.d11, e11, atol=1e-12)
    np.testing.assert_allclose(d.d12, e12, atol=1e-12)
    np.testing.assert_allclose(d.d22, e22, atol=1e-12)


def test_d_matrices_respect_weights():
    # put all smoothing mass on one particle of a state-dependent model and
    # the transition blocks must match that particle's Jacobian alone
    from volswitch.bsgarch import ContractSpec, GarchParams, ModelSpec, NoiseSpec

    spec = ModelSpec(
        garch=GarchParams(omega=1e-5, alpha=0.05, beta=0.9),
        contract=ContractSpec(strike=100.0, expiry_step=252),
        noise=NoiseSpec(q=np.diag([1e-9, 1e-7]), r=0.25),
        dt=1.0 / 252.0,
    )
    model = BsGarchModel(spec)
    from volswitch.bsgarch import ExogenousInputs

    ex = ExogenousInputs(s=100.0, u=0.0, tau=0.5)
    states = np.array([[2e-4, 0.03], [5e-4, 0.01], [1e-4, 0.08]])
    w = np.array([0.0, 1.0, 0.0])
    f_jac, _ = jacobians(model, states, states, ex)
    (d,) = d_matrices(f_jac, w[None], model.measurement_jacobian_batch(states[1:2], ex)[None], model)

    q_inv = np.linalg.inv(spec.noise.q)
    f = model.transition_jacobian(states[1], ex)
    h = model.measurement_jacobian_batch(states[1:2], ex)[0]
    np.testing.assert_allclose(d.d11, f.T @ q_inv @ f, rtol=1e-12)
    np.testing.assert_allclose(d.d12, -(f.T @ q_inv), rtol=1e-12)
    np.testing.assert_allclose(d.d22, q_inv + h.T @ h / spec.noise.r, rtol=1e-9)


# ---------------------------------------------------------------------------
# seeding


def test_seed_particles_match_belief_moments():
    belief = GaussianBelief(np.array([1.0, -2.0]), np.array([[0.5, 0.1], [0.1, 0.3]]))
    cloud = seed_particles(belief, 200_000, np.random.default_rng(0))
    mean, cov = cloud.particles.mean(axis=0), np.cov(cloud.particles, rowvar=False, bias=True)
    np.testing.assert_allclose(mean, belief.mean, atol=0.01)
    np.testing.assert_allclose(cov, belief.cov, atol=0.01)


def test_seed_particles_projects_onto_model_domain():
    from volswitch.bsgarch import ContractSpec, GarchParams, ModelSpec, NoiseSpec

    spec = ModelSpec(
        garch=GarchParams(omega=1e-5, alpha=0.05, beta=0.9),
        contract=ContractSpec(strike=100.0, expiry_step=252),
        noise=NoiseSpec(q=np.diag([1e-9, 1e-7]), r=0.25),
        dt=1.0 / 252.0,
    )
    belief = GaussianBelief(np.array([0.0, 0.02]), np.diag([1e-6, 1e-4]))
    cloud = seed_particles(belief, 500, np.random.default_rng(1), BsGarchModel(spec))
    assert np.all(cloud.particles[:, 0] >= V_FLOOR)


def test_seed_particles_require_two():
    with pytest.raises(InvalidInputError):
        seed_particles(GaussianBelief(np.zeros(2), np.eye(2)), 1, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# full step


def test_pcrlb_step_tracks_kalman_covariance_on_linear_model():
    # constant Jacobians make the Monte-Carlo D blocks exact, so even a
    # small cloud must reproduce the Kalman covariance trajectory.
    rng = np.random.default_rng(17)
    ys = oracles.simulate_linear(A, C, Q, R, np.zeros(2), P0, 20, rng)[1]
    means, covs = oracles.kalman_filter(ys, A, C, Q, R, np.zeros(2), P0)
    model = linear_model()
    fs = FisherState.initial(P0)
    bound_rng = np.random.default_rng(99)
    for t, y in enumerate(ys):
        belief = GaussianBelief(means[t - 1] if t else np.zeros(2), covs[t - 1] if t else P0)
        fs = pcrlb_step(fs, belief, y, None, model, n=100, rng=bound_rng)
        np.testing.assert_allclose(fs.j_inv, covs[t], atol=1e-8)


class QuadraticTransitionModel(LinearGaussianModel):
    """x'_0 = (A x)_0 + k x_0^2 + w_0, linear otherwise: the transition Jacobian depends on the state."""

    def __init__(self, a, c, q, r, k):
        super().__init__(a, c, q, r)
        self.k = k

    def transition_batch(self, states, ex, noise=None):
        out = super().transition_batch(states, ex, noise)
        out[:, 0] += self.k * states[:, 0] ** 2
        return out

    def transition_jacobian_batch(self, states, ex):
        jac = np.repeat(self.a[None], states.shape[0], axis=0)
        jac[:, 0, 0] += 2.0 * self.k * states[:, 0]
        return jac


def bsgarch_model(risk_transition="random-walk"):
    from volswitch.bsgarch import ContractSpec, GarchParams, ModelSpec, NoiseSpec

    return BsGarchModel(ModelSpec(
        garch=GarchParams(omega=1e-5, alpha=0.05, beta=0.9),
        contract=ContractSpec(strike=100.0, expiry_step=252),
        noise=NoiseSpec(q=np.array([[1e-9, 2e-9], [2e-9, 1e-7]]), r=0.25),
        dt=1.0 / 252.0,
        risk_transition=risk_transition,
    ))


def test_d_matrices_match_a_per_particle_loop():
    from volswitch.bsgarch import ExogenousInputs

    rng = np.random.default_rng(21)
    quadratic = QuadraticTransitionModel(
        np.array([[0.8, 0.1], [0.0, 0.75]]), np.array([[1.0, 0.5]]),
        np.diag([0.08, 0.06]), np.array([[1.0]]), k=0.4,
    )
    states = rng.standard_normal((2, 40, 2))
    # BS/GARCH states: variance around 2e-4 per step, rate around 3%
    bs_states = np.abs(states) * np.array([2e-4, 0.03])
    bs_ex = ExogenousInputs(s=100.0, u=0.01, tau=0.5)
    cases = [
        (quadratic, states, None),
        (bsgarch_model("random-walk"), bs_states, bs_ex),
        (bsgarch_model("literal"), bs_states, bs_ex),
    ]
    for model, (x_prev, x_next), ex in cases:
        w = rng.random(40)
        w /= w.sum()
        f_jac, h_jac = jacobians(model, x_prev, x_next, ex)
        (d,) = d_matrices(f_jac, w[None], h_jac, model)

        q_inv, r_inv = (np.linalg.inv(m) for m in (model.process_cov(), model.measurement_cov()))
        d11, d12, d22 = np.zeros((2, 2)), np.zeros((2, 2)), q_inv.copy()
        for wi, x in zip(w, x_prev):
            f = model.transition_jacobian(x, ex)
            d11 += wi * f.T @ q_inv @ f
            d12 -= wi * f.T @ q_inv
        for x in x_next:
            h = model.measurement_jacobian(x, ex)
            d22 += h.T @ r_inv @ h / len(x_next)
        np.testing.assert_allclose(d.d11, d11, rtol=1e-12)
        np.testing.assert_allclose(d.d12, d12, rtol=1e-12)
        np.testing.assert_allclose(d.d22, d22, rtol=1e-12)
        if model is not quadratic:
            # a constant Jacobian: one pair of weight one gives the same blocks
            (one,) = d_matrices(f_jac[:, :1], np.ones((1, 1)), h_jac, model)
            np.testing.assert_allclose(one.d11, d11, rtol=1e-12)
            np.testing.assert_allclose(one.d12, d12, rtol=1e-12)


def test_noise_precisions_are_inverted_once_and_kept():
    model = linear_model()
    q_inv, r_inv = model.noise_precisions()
    again = model.noise_precisions()
    assert again[0] is q_inv and again[1] is r_inv
    np.testing.assert_allclose(q_inv, np.linalg.inv(Q), rtol=1e-15)
    np.testing.assert_allclose(r_inv, np.linalg.inv(R), rtol=1e-15)
    # the kept arrays are shared by every step, so they are read-only
    assert not q_inv.flags.writeable and not r_inv.flags.writeable


def test_pcrlb_step_transition_blocks_are_unbiased(monkeypatch):
    # Reference: the mixture-corrected smoother applied to resampled x_{t+1}
    # shuffled out of index order, so they are independent of their
    # index-matched x_t as the mixture correction requires. Sorted resampled
    # indices keep most x_{t+1} next to their own ancestor, which biases
    # that smoother whenever D11/D12 depend on the particles.
    model = QuadraticTransitionModel(
        np.array([[0.8, 0.1], [0.0, 0.75]]), np.array([[1.0, 0.5]]),
        np.diag([0.08, 0.06]), np.array([[1.0]]), k=0.4,
    )
    belief = GaussianBelief(np.zeros(2), np.diag([0.5, 0.5]))
    y = np.array([0.0])
    n, runs = 250, 128

    captured = []

    def capture(*args):
        blocks = d_matrices(*args)
        captured.extend(blocks)
        return blocks

    monkeypatch.setattr(pcrlb, "d_matrices", capture)
    for k in range(runs):
        pcrlb_step(FisherState.initial(belief.cov), belief, y, None, model, n, np.random.default_rng(k))
    monkeypatch.undo()

    reference = []
    for k in range(runs):
        rng = np.random.default_rng(1000 + k)
        filtered_t = seed_particles(belief, n, rng, model)
        predicted = propagate_cloud(filtered_t, None, model, rng)
        w = normalize_logweights(likelihood_logweights(predicted.particles, y, None, model))
        idx = rng.permutation(systematic_resample(w, rng))
        x_next = predicted.particles[idx]
        means = model.transition_batch(filtered_t.particles, None)
        ws = oracles.mixture_smoothing_weights(x_next, means, model.q)
        f_jac, h_jac = jacobians(model, filtered_t.particles, predicted.particles)
        reference.extend(d_matrices(f_jac, ws[None], h_jac, model))

    assert len(captured) == runs
    for block in ("d11", "d12"):
        got = np.array([getattr(d, block) for d in captured])
        ref = np.array([getattr(d, block) for d in reference])
        stderr = np.sqrt(got.var(axis=0, ddof=1) / runs + ref.var(axis=0, ddof=1) / runs)
        # entries that do not depend on x_0 are constants; allow them rounding only
        got_mean, ref_mean = got.mean(axis=0), ref.mean(axis=0)
        tol = 4.0 * stderr + 1e-9 * np.abs(ref_mean)
        assert np.all(np.abs(got_mean - ref_mean) <= tol), (block, got_mean, ref_mean, tol)


def test_pcrlb_step_is_rng_deterministic():
    model = linear_model()
    belief = GaussianBelief(np.array([0.1, 0.0]), P0)
    args = (belief, np.array([0.4]), None, model, 64)
    a = pcrlb_step(FisherState.initial(P0), *args, rng=np.random.default_rng(5))
    b = pcrlb_step(FisherState.initial(P0), *args, rng=np.random.default_rng(5))
    np.testing.assert_array_equal(a.j, b.j)
    np.testing.assert_array_equal(a.j_inv, b.j_inv)


def test_pcrlb_step_weights_pairs_by_the_likelihood_alone(monkeypatch):
    # the seeded cloud is uniform, so the pair weights handed to d_matrices
    # are the normalized likelihood weights of the predicted cloud, bit for bit
    model = QuadraticTransitionModel(
        np.array([[0.8, 0.1], [0.0, 0.75]]), np.array([[1.0, 0.5]]),
        np.diag([0.08, 0.06]), np.array([[1.0]]), k=0.4,
    )
    belief = GaussianBelief(np.array([0.2, -0.1]), np.diag([0.5, 0.3]))
    y, n = np.array([0.7]), 300

    captured = []

    def capture(*args):
        captured.append((args, d_matrices(*args)))
        return captured[-1][1]

    monkeypatch.setattr(pcrlb, "d_matrices", capture)
    pcrlb_step(FisherState.initial(belief.cov), belief, y, None, model, n, np.random.default_rng(31))
    monkeypatch.undo()

    rng = np.random.default_rng(31)
    filtered_t = seed_particles(belief, n, rng, model)
    predicted = propagate_cloud(filtered_t, None, model, rng)
    w = normalize_logweights(likelihood_logweights(predicted.particles, y, None, model))
    assert np.ptp(w) > 0.0

    assert len(captured) == 1
    (f_jac, weights, h_jac, _), (d,) = captured[0]
    expect_f, expect_h = jacobians(model, filtered_t.particles, predicted.particles)
    np.testing.assert_array_equal(f_jac, expect_f)
    np.testing.assert_array_equal(weights, w[None])
    np.testing.assert_array_equal(h_jac, expect_h)
    # D22 averages over the predicted cloud with uniform weights
    hrh = np.einsum("nki,kl,nlj->ij", expect_h[0], np.linalg.inv(model.r), expect_h[0]) / n
    np.testing.assert_allclose(d.d22, np.linalg.inv(model.q) + hrh, rtol=1e-12)


# ---------------------------------------------------------------------------
# bank step


def bank_cases():
    """(model, three beliefs, next observation, exogenous inputs) for each kind of transition Jacobian."""
    from volswitch.bsgarch import ExogenousInputs

    quadratic = QuadraticTransitionModel(
        np.array([[0.8, 0.1], [0.0, 0.75]]), np.array([[1.0, 0.5]]),
        np.diag([0.08, 0.06]), np.array([[1.0]]), k=0.4,
    )
    plain = [
        GaussianBelief(np.array([0.2, -0.1]), np.diag([0.5, 0.3])),
        GaussianBelief(np.array([-0.3, 0.4]), np.array([[0.4, 0.1], [0.1, 0.2]])),
        GaussianBelief(np.array([0.0, 0.1]), np.diag([0.2, 0.6])),
    ]
    ex = ExogenousInputs(s=100.0, u=0.01, tau=0.5)
    bs = [
        GaussianBelief(np.array([2e-4, 0.03]), np.diag([1e-9, 1e-5])),
        GaussianBelief(np.array([3e-4, 0.02]), np.array([[4e-9, 1e-8], [1e-8, 4e-5]])),
        GaussianBelief(np.array([1e-4, 0.05]), np.diag([1e-10, 1e-6])),
    ]
    cases = [(quadratic, plain, np.array([0.7]), None), (linear_model(), plain, np.array([0.7]), None)]
    for mode in ("random-walk", "literal"):
        model = bsgarch_model(mode)
        cases.append((model, bs, model.measurement(bs[0].mean, ex) + 0.1, ex))
    return cases


def bank_of_three(beliefs):
    return [FisherState.initial(b.cov, fid) for b, fid in zip(beliefs, FilterId)]


def test_a_bank_step_matches_banks_of_one_bit_for_bit():
    for model, beliefs, y, ex in bank_cases():
        prevs = bank_of_three(beliefs)
        for n in (37, 400, 1000):
            bank = pcrlb_bank_step(prevs, beliefs, y, ex, model, n, [np.random.default_rng(k) for k in range(3)])
            for k in range(3):
                one = pcrlb_step(prevs[k], beliefs[k], y, ex, model, n, np.random.default_rng(k))
                assert bank[k].filter is prevs[k].filter
                np.testing.assert_array_equal(bank[k].j, one.j)
                np.testing.assert_array_equal(bank[k].j_inv, one.j_inv)


def test_a_failed_bound_in_a_bank_stops_only_that_filter():
    model, beliefs, y, ex = bank_cases()[2]
    prevs = bank_of_three(beliefs)
    # a covariance whose eigenvalue floor overflows cannot be factored
    huge = GaussianBelief(beliefs[0].mean, np.diag([1e308, 1e308]))
    broken = FisherState(j=np.full((2, 2), np.nan), j_inv=prevs[1].j_inv, filter=prevs[1].filter)
    rngs = [np.random.default_rng(k) for k in range(3)]
    with np.errstate(over="ignore"):
        out = pcrlb_bank_step([prevs[0], broken, prevs[2]], [huge, *beliefs[1:]], y, ex, model, 300, rngs)
    assert isinstance(out[0], CovarianceError)
    assert isinstance(out[1], SingularityError)
    alone = pcrlb_step(prevs[2], beliefs[2], y, ex, model, 300, np.random.default_rng(2))
    np.testing.assert_array_equal(out[2].j, alone.j)
    np.testing.assert_array_equal(out[2].j_inv, alone.j_inv)
    # a bank of one raises its filter's error
    with pytest.raises(CovarianceError), np.errstate(over="ignore"):
        pcrlb_step(prevs[0], huge, y, ex, model, 300, np.random.default_rng(0))


def test_a_constant_transition_jacobian_skips_the_likelihood(monkeypatch):
    for model, beliefs, y, ex in bank_cases():
        calls = []
        measure = model.measurement_batch
        monkeypatch.setattr(model, "measurement_batch", lambda x, e: calls.append(len(x)) or measure(x, e))
        pcrlb_bank_step(bank_of_three(beliefs), beliefs, y, ex, model, 50,
                        [np.random.default_rng(k) for k in range(3)])
        # only the quadratic transition's Jacobian depends on the particle
        assert calls == ([150] if isinstance(model, QuadraticTransitionModel) else [])

