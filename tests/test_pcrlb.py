import logging
import math

import numpy as np
import pytest

import oracles
from volswitch.bsgarch import BsGarchModel, V_FLOOR
from volswitch.exceptions import CovarianceError, InvalidInputError, NumericalFailureError, SingularityError
from volswitch.filters import GaussianBelief, ParticleCloud, propagate_cloud
from volswitch import pcrlb
from volswitch.linalg import COND_LIMIT, regularized_inverse, safe_cholesky, symmetrize, weighted_gram
from volswitch.pcrlb import initial_information, pcrlb_step, seed_particles
from models import LinearGaussianModel

A = np.array([[0.85, 0.05], [0.0, 0.9]])
C = np.array([[1.0, 0.4]])
Q = np.diag([0.04, 0.03])
R = np.array([[0.08]])
P0 = np.diag([0.5, 0.3])


def linear_model():
    return LinearGaussianModel(A, C, Q, R)


def information_step(j, d):
    """The information step from (D11, D12, D22): the new (J, J^{-1})."""
    return pcrlb._information_step(j, *d)


# ---------------------------------------------------------------------------
# initial state and the scalar recursion


def test_initial_state_inverts_the_prior_covariance():
    j, j_inv = initial_information(P0)
    assert j.shape == j_inv.shape == (2, 2)
    np.testing.assert_allclose(j, np.diag([2.0, 1.0 / 0.3]), atol=1e-12)
    np.testing.assert_allclose(j_inv, P0, atol=1e-15)


def test_pfim_step_scalar_worked_example():
    # a = c = q = r = 1 gives D = (1, -1, 2); from J = 1 the update is
    # J' = 2 - 1/(1+1) = 1.5 exactly.
    d = np.array([[1.0]]), np.array([[-1.0]]), np.array([[2.0]])
    j, j_inv = information_step(np.array([[1.0]]), d)
    assert j[0, 0] == pytest.approx(1.5, abs=1e-15)
    assert j_inv[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_pfim_step_lemma_inverse_agrees_with_direct_inverse():
    # D blocks drawn from random (but valid) linear models, so the implied
    # joint information matrix keeps the structure real problems have
    rng = np.random.default_rng(4)
    j, _ = initial_information(P0)
    for _ in range(8):
        a = rng.uniform(-1.0, 1.0, size=(2, 2))
        c = rng.uniform(-1.0, 1.0, size=(1, 2))
        mq = rng.standard_normal((2, 2))
        q = mq @ mq.T + 0.05 * np.eye(2)
        r = np.array([[rng.uniform(0.05, 1.0)]])
        j, j_inv = information_step(j, oracles.exact_linear_dtriple(a, c, q, r))
        np.testing.assert_allclose(j_inv, np.linalg.inv(j), atol=1e-10)
        np.testing.assert_allclose(j_inv @ j, np.eye(2), atol=1e-8)


def test_pfim_step_inverse_is_one_regularized_inverse_of_j():
    # the same random linear D blocks as above: J^{-1} is exactly the
    # symmetrized regularized inverse of the new J, bit for bit
    rng = np.random.default_rng(4)
    j, _ = initial_information(P0)
    for _ in range(8):
        a = rng.uniform(-1.0, 1.0, size=(2, 2))
        c = rng.uniform(-1.0, 1.0, size=(1, 2))
        mq = rng.standard_normal((2, 2))
        q = mq @ mq.T + 0.05 * np.eye(2)
        r = np.array([[rng.uniform(0.05, 1.0)]])
        j, j_inv = information_step(j, oracles.exact_linear_dtriple(a, c, q, r))
        np.testing.assert_array_equal(j_inv, symmetrize(regularized_inverse(j)))


def test_pfim_step_raises_when_the_inverse_misses_the_identity():
    # J' = diag(1, 1e-14) is positive but past the condition limit, so the
    # ridge that regularized_inverse adds leaves J^{-1} J far from I
    d = np.zeros((2, 2)), np.zeros((2, 2)), np.diag([1.0, 1e-14])
    with pytest.raises(SingularityError, match="inverse inconsistent"):
        information_step(np.eye(2), d)


def test_pfim_step_floors_an_indefinite_update():
    # d22 smaller than the rank-one correction drives J' negative; the step
    # must floor it to a positive matrix and keep the inverse consistent.
    d = np.array([[0.5]]), np.array([[-1.0]]), np.array([[0.5]])
    j, j_inv = information_step(np.array([[0.5]]), d)
    assert j[0, 0] > 0.0
    assert j_inv[0, 0] * j[0, 0] == pytest.approx(1.0, rel=1e-6)


def information_cases():
    """Name -> (J, (D11, D12, D22)), one for each path through the information step."""
    ridge = (np.eye(2), (np.diag([0.0, -1.0 + 1e-14]), np.diag([0.0, 1e-7]), np.eye(2)))
    floored = (np.diag([0.5, 1.0]), (np.diag([0.5, 0.0]), np.diag([2.0, 0.0]), np.diag([-1.0, 1.0])))
    floored_wider = (floored[0], (floored[1][0], np.diag([3.0, 0.0]), floored[1][2]))
    healthy = (np.linalg.inv(P0), oracles.exact_linear_dtriple(A, C, Q, R))
    inconsistent = (np.eye(2), (np.zeros((2, 2)), np.zeros((2, 2)), np.diag([1.0, 1e-14])))
    return {"ridge": ridge, "floored": floored, "floored wider": floored_wider, "healthy": healthy,
            "inconsistent": inconsistent}


def test_each_path_through_the_information_step(caplog):
    cases = information_cases()
    j, d = cases["ridge"]
    assert np.linalg.cond(j + d[0]) > COND_LIMIT  # J + D11 needs the ridge
    for name, (j, d) in cases.items():
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="volswitch.pcrlb"):
            if name == "inconsistent":
                with pytest.raises(SingularityError, match="inverse inconsistent"):
                    information_step(j, d)
                continue
            j_next, j_inv = information_step(j, d)
        floored = sum("information matrix floored" in r.getMessage() for r in caplog.records)
        assert floored == name.startswith("floored")
        np.testing.assert_array_equal(j_inv, symmetrize(regularized_inverse(j_next)))
    # the floor left J_{t+1} positive definite: diag(-5, 1) became diag(5e-12, 1),
    # and diag(-10, 1) became diag(1e-11, 1)
    for name, low in (("floored", 5e-12), ("floored wider", 1e-11)):
        one_j, _ = information_step(*cases[name])
        np.testing.assert_allclose(np.diag(one_j), [low, 1.0], rtol=1e-9)


def test_non_finite_d_blocks_raise_a_numerical_failure():
    j, d = information_cases()["healthy"]
    for block in range(3):
        for poison in (np.nan, np.inf):
            bad = list(d)
            bad[block] = d[block].copy()
            bad[block][0, 1] = bad[block][1, 0] = poison
            with pytest.raises(NumericalFailureError, match="non-finite D matrices"):
                information_step(j, bad)
    # a non-finite J fails its inverse, J + D11
    with pytest.raises(SingularityError, match="non-finite matrix"):
        information_step(np.full((2, 2), np.nan), d)


def test_exact_recursion_reproduces_kalman_covariance_on_linear_model():
    # with exact D blocks the recursion is the information-form Riccati
    # iteration, so J^{-1} must equal the Kalman posterior covariance.
    d = oracles.exact_linear_dtriple(A, C, Q, R)
    ys = np.zeros((12, 1))  # KF covariance does not depend on the data
    _, covs = oracles.kalman_filter(ys, A, C, Q, R, np.zeros(2), P0)
    j, _ = initial_information(P0)
    for t in range(12):
        j, j_inv = information_step(j, d)
        np.testing.assert_allclose(j_inv, covs[t], atol=1e-10)


# ---------------------------------------------------------------------------
# D blocks


def d_blocks(model, x_next, ex=None):
    """The bound step's (D11, D12, D22): the model's D11 and D12, D22 averaged over x_next's gradients."""
    h_jac = model.measurement_jacobian_batch(x_next, ex)
    hrh = weighted_gram(h_jac, model.r_inv, 1.0 / h_jac.shape[0])
    return model.d11, model.d12, symmetrize(model.q_inv + hrh)


def test_d_matrices_are_exact_for_constant_jacobians():
    x_next = np.random.default_rng(12).standard_normal((30, 2))
    model = linear_model()
    for block, exact in zip(d_blocks(model, x_next), oracles.exact_linear_dtriple(A, C, Q, R)):
        np.testing.assert_allclose(block, exact, atol=1e-12)


# ---------------------------------------------------------------------------
# seeding


def test_seed_particles_match_belief_moments():
    belief = GaussianBelief(np.array([1.0, -2.0]), np.array([[0.5, 0.1], [0.1, 0.3]]))
    cloud = seed_particles(belief, 200_000, np.random.default_rng(0), linear_model())
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
        seed_particles(GaussianBelief(np.zeros(2), np.eye(2)), 1, np.random.default_rng(0), linear_model())


def test_seed_particles_raise_on_a_covariance_that_cannot_be_factored():
    # its eigenvalue floor overflows, as in the failed bound step's test
    huge = GaussianBelief(np.zeros(2), np.diag([1e308, 1e308]))
    with pytest.raises(CovarianceError), np.errstate(over="ignore"):
        seed_particles(huge, 10, np.random.default_rng(0), linear_model())


# ---------------------------------------------------------------------------
# full step


def test_pcrlb_step_tracks_kalman_covariance_on_linear_model():
    # constant Jacobians make the Monte-Carlo D blocks exact, so even a
    # small cloud must reproduce the Kalman covariance trajectory.
    rng = np.random.default_rng(17)
    ys = oracles.simulate_linear(A, C, Q, R, np.zeros(2), P0, 20, rng)[1]
    means, covs = oracles.kalman_filter(ys, A, C, Q, R, np.zeros(2), P0)
    model = linear_model()
    j, _ = initial_information(P0)
    bound_rng = np.random.default_rng(99)
    for t in range(len(ys)):
        belief = GaussianBelief(means[t - 1] if t else np.zeros(2), covs[t - 1] if t else P0)
        j, j_inv = pcrlb_step(j, belief, None, model, 100, bound_rng)
        np.testing.assert_allclose(j_inv, covs[t], atol=1e-8)


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
    # BS/GARCH states: variance around 2e-4 per step, rate around 3%
    x_next = np.abs(rng.standard_normal((40, 2))) * np.array([2e-4, 0.03])
    ex = ExogenousInputs(s=100.0, u=0.01, tau=0.5)
    for model in (bsgarch_model("random-walk"), bsgarch_model("literal")):
        blocks = d_blocks(model, x_next, ex)

        q_inv, r_inv = (np.linalg.inv(m) for m in (model.q, model.r))
        f = model.f
        d11, d12, d22 = f.T @ q_inv @ f, -f.T @ q_inv, q_inv.copy()
        for x in x_next:
            h = model.measurement_jacobian(x, ex)
            d22 += h.T @ r_inv @ h / len(x_next)
        for block, looped in zip(blocks, (d11, d12, d22)):
            np.testing.assert_allclose(block, looped, rtol=1e-12)


def test_noise_precisions_are_inverted_once_and_kept():
    model = linear_model()
    q_inv, r_inv = model.q_inv, model.r_inv
    # the constructor inverts Q and R; later reads return the same arrays
    assert model.q_inv is q_inv and model.r_inv is r_inv
    np.testing.assert_allclose(q_inv, np.linalg.inv(Q), rtol=1e-15)
    np.testing.assert_allclose(r_inv, np.linalg.inv(R), rtol=1e-15)
    np.testing.assert_array_equal(q_inv, regularized_inverse(model.q, err=CovarianceError))
    np.testing.assert_array_equal(r_inv, regularized_inverse(model.r, err=CovarianceError))
    # the kept arrays are shared by every step, so they are read-only
    assert not q_inv.flags.writeable and not r_inv.flags.writeable


def test_pcrlb_step_requires_two_particles():
    belief = GaussianBelief(np.zeros(2), P0)
    with pytest.raises(InvalidInputError, match="need at least 2 particles"):
        pcrlb_step(initial_information(P0)[0], belief, None, linear_model(), 1, np.random.default_rng(0))


def test_pcrlb_step_is_rng_deterministic():
    model = linear_model()
    args = (initial_information(P0)[0], GaussianBelief(np.array([0.1, 0.0]), P0), None, model, 64)
    a = pcrlb_step(*args, np.random.default_rng(5))
    b = pcrlb_step(*args, np.random.default_rng(5))
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_pcrlb_step_averages_d22_over_its_predicted_cloud(monkeypatch):
    # seeding and propagation draw from the rng in the order seed_particles
    # and propagate_cloud do, so their cloud is the step's predicted cloud
    from volswitch.bsgarch import ExogenousInputs

    model = bsgarch_model()
    ex = ExogenousInputs(s=100.0, u=0.01, tau=0.5)
    belief = GaussianBelief(np.array([2e-4, 0.03]), np.diag([1e-9, 1e-5]))
    information = pcrlb._information_step
    for n in (40, 300, 1000):
        captured = []
        monkeypatch.setattr(pcrlb, "_information_step", lambda j, *d: captured.append(d) or information(j, *d))
        pcrlb_step(initial_information(belief.cov)[0], belief, ex, model, n, np.random.default_rng(31))

        rng = np.random.default_rng(31)
        predicted = propagate_cloud(seed_particles(belief, n, rng, model), ex, model, rng)
        h = model.measurement_jacobian_batch(predicted.particles, ex)
        assert np.ptp(h) > 0.0
        hrh = np.einsum("nki,kl,nlj->ij", h, np.linalg.inv(model.r), h) / n
        ((_, _, d22),) = captured
        np.testing.assert_allclose(d22, np.linalg.inv(model.q) + hrh, rtol=1e-12)


def test_monte_carlo_d22_converges_to_the_gauss_hermite_yardstick(monkeypatch):
    # the belief sits 100 sd above the variance floor and its prediction
    # 27 sd above it, so neither projection acts and the prediction is the
    # Gaussian N(F m + c, F P F' + Q) the quadrature integrates over
    from volswitch.bsgarch import ExogenousInputs

    model = bsgarch_model()
    spec = model.spec
    ex = ExogenousInputs(s=100.0, u=0.01, tau=0.5)
    belief = GaussianBelief(np.array([1e-3, 0.03]), np.diag([1e-10, 1e-5]))
    f = model.f
    mean = f @ belief.mean + [spec.garch.omega + spec.garch.alpha * ex.u ** 2, 0.0]
    cov = f @ belief.cov @ f.T + spec.noise.q

    def yardstick(order):
        return oracles.gauss_hermite_d22(
            mean, cov, spec.noise.q, spec.noise.r,
            lambda x: oracles.bs_call_state_gradient(x, ex.s, spec.contract.strike, ex.tau, spec.annualization),
            order,
        )

    np.testing.assert_allclose(yardstick(60), yardstick(40), rtol=1e-12)
    # Q^-1 outweighs E[h' R^-1 h] in every entry, so the entries are compared without it
    q_inv = model.q_inv
    expected = yardstick(40) - q_inv
    information = pcrlb._information_step
    captured = []
    monkeypatch.setattr(pcrlb, "_information_step", lambda j, *d: captured.append(d[2] - q_inv) or information(j, *d))
    errors = {}
    for n in (200, 5000):
        rel = []
        for seed in range(12):
            pcrlb_step(initial_information(belief.cov)[0], belief, ex, model, n, np.random.default_rng(seed))
            rel.append(np.abs(captured.pop() / expected - 1.0).max())
        errors[n] = math.sqrt(np.mean(np.square(rel)))
    # Monte-Carlo error falls as n^-1/2: to a fifth from 200 to 5000
    assert errors[5000] < 0.4 * errors[200]
    assert errors[5000] < 1.5e-3


# ---------------------------------------------------------------------------
# the step on each model


def step_cases():
    """(model, three beliefs, exogenous inputs) for the linear model and each BS/GARCH mode."""
    from volswitch.bsgarch import ExogenousInputs

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
    return [
        (linear_model(), plain, None),
        (bsgarch_model("random-walk"), bs, ex),
        (bsgarch_model("literal"), bs, ex),
    ]


def step(belief, ex, model, n, seed):
    """``pcrlb_step`` from J_0 = the belief's own inverse covariance, drawing from ``default_rng(seed)``."""
    return pcrlb_step(initial_information(belief.cov)[0], belief, ex, model, n, np.random.default_rng(seed))


def test_a_failed_bound_step_raises_and_leaves_its_input():
    model, beliefs, ex = step_cases()[1]
    j = initial_information(beliefs[0].cov)[0]
    given = j.copy()
    # a covariance whose eigenvalue floor overflows cannot be factored
    huge = GaussianBelief(beliefs[0].mean, np.diag([1e308, 1e308]))
    with pytest.raises(CovarianceError), np.errstate(over="ignore"):
        pcrlb_step(j, huge, ex, model, 300, np.random.default_rng(0))
    with pytest.raises(SingularityError, match="non-finite matrix"):
        pcrlb_step(np.full((2, 2), np.nan), beliefs[0], ex, model, 300, np.random.default_rng(0))
    np.testing.assert_array_equal(j, given)
    j_next, _ = pcrlb_step(j, beliefs[0], ex, model, 300, np.random.default_rng(0))
    assert not np.array_equal(j_next, j)
    np.testing.assert_array_equal(j, given)


def test_the_bound_step_skips_the_likelihood(monkeypatch):
    # the bound step never reads the quote, so it never prices a particle
    for model, beliefs, ex in step_cases():
        calls = []
        measure = model.measurement_batch
        monkeypatch.setattr(model, "measurement_batch", lambda x, e: calls.append(len(x)) or measure(x, e))
        for k, belief in enumerate(beliefs):
            step(belief, ex, model, 50, k)
        assert calls == []


def test_a_non_finite_shared_jacobian_fails_its_step_whether_viewed_or_materialised():
    model = LinearGaussianModel(np.full((2, 2), np.nan), C, Q, R)
    with pytest.raises(NumericalFailureError, match="non-finite D matrices"):
        step(step_cases()[0][1][0], None, model, 20, 0)


@pytest.mark.parametrize("case", [0, 1, 2], ids=["linear", "random-walk", "literal"])
def test_a_models_constants_are_derived_once_when_it_is_built(case):
    model, beliefs, ex = step_cases()[case]
    constants = (model.f, model.q, model.r, model.q_inv, model.r_inv, model.q_chol, model.d11, model.d12)
    # every step and filter shares them, so they are read-only
    assert not any(m.flags.writeable for m in constants)
    np.testing.assert_array_equal(model.q_inv, regularized_inverse(model.q, err=CovarianceError))
    np.testing.assert_array_equal(model.r_inv, regularized_inverse(model.r, err=CovarianceError))
    np.testing.assert_array_equal(model.q_chol, safe_cholesky(model.q))
    np.testing.assert_array_equal(model.d11, symmetrize(weighted_gram(model.f[None], model.q_inv)))
    np.testing.assert_array_equal(model.d12, -np.einsum("ks,kl->sl", model.f, model.q_inv))
    # the steps read the blocks the constructor derived, not fresh copies
    d11, d12 = model.d11, model.d12
    for k, belief in enumerate(beliefs):
        step(belief, ex, model, 50, k)
    assert model.d11 is d11 and model.d12 is d12
    # the particle filter draws its process noise through the kept factor
    cloud = ParticleCloud.uniform(seed_particles(beliefs[0], 50, np.random.default_rng(2), model).particles)
    moved = propagate_cloud(cloud, ex, model, np.random.default_rng(42))
    noise = np.random.default_rng(42).standard_normal((50, 2)) @ model.q_chol.T
    np.testing.assert_array_equal(moved.particles, model.transition_batch(cloud.particles, ex, noise))
