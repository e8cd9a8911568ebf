import logging

import numpy as np
import pytest

import oracles
from volswitch.bsgarch import BsGarchModel, V_FLOOR
from volswitch.exceptions import CovarianceError, InvalidInputError, NumericalFailureError, SingularityError
from volswitch.filters import GaussianBelief, propagate_cloud
from volswitch import pcrlb
from volswitch.linalg import COND_LIMIT, regularized_inverse, symmetrize
from volswitch.pcrlb import DTriple, initial_information, pcrlb_step, seed_particles
from models import LinearGaussianModel

A = np.array([[0.85, 0.05], [0.0, 0.9]])
C = np.array([[1.0, 0.4]])
Q = np.diag([0.04, 0.03])
R = np.array([[0.08]])
P0 = np.diag([0.5, 0.3])


def linear_model():
    return LinearGaussianModel(A, C, Q, R)


def information_step(j, d):
    """One filter's information step as a stack of one: its new (J, J^{-1}), or the error that stopped it."""
    one = DTriple(*(m[None] for m in (d.d11, d.d12, d.d22)))
    (j,), (j_inv,), (error,) = pcrlb._information_step(j[None], one)
    return error or (j, j_inv)


# ---------------------------------------------------------------------------
# initial state and the scalar recursion


def test_initial_state_inverts_the_prior_covariance():
    j, j_inv = initial_information(P0, 3)
    assert j.shape == j_inv.shape == (3, 2, 2)
    for k in range(3):
        np.testing.assert_allclose(j[k], np.diag([2.0, 1.0 / 0.3]), atol=1e-12)
        np.testing.assert_allclose(j_inv[k], P0, atol=1e-15)


def test_pfim_step_scalar_worked_example():
    # a = c = q = r = 1 gives D = (1, -1, 2); from J = 1 the update is
    # J' = 2 - 1/(1+1) = 1.5 exactly.
    d = DTriple(d11=np.array([[1.0]]), d12=np.array([[-1.0]]), d22=np.array([[2.0]]))
    j, j_inv = information_step(np.array([[1.0]]), d)
    assert j[0, 0] == pytest.approx(1.5, abs=1e-15)
    assert j_inv[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_pfim_step_lemma_inverse_agrees_with_direct_inverse():
    # D blocks drawn from random (but valid) linear models, so the implied
    # joint information matrix keeps the structure real problems have
    rng = np.random.default_rng(4)
    (j,), _ = initial_information(P0, 1)
    for _ in range(8):
        a = rng.uniform(-1.0, 1.0, size=(2, 2))
        c = rng.uniform(-1.0, 1.0, size=(1, 2))
        mq = rng.standard_normal((2, 2))
        q = mq @ mq.T + 0.05 * np.eye(2)
        r = np.array([[rng.uniform(0.05, 1.0)]])
        j, j_inv = information_step(j, DTriple(*oracles.exact_linear_dtriple(a, c, q, r)))
        np.testing.assert_allclose(j_inv, np.linalg.inv(j), atol=1e-10)
        np.testing.assert_allclose(j_inv @ j, np.eye(2), atol=1e-8)


def test_pfim_step_inverse_is_one_regularized_inverse_of_j():
    # the same random linear D blocks as above: J^{-1} is exactly the
    # symmetrized regularized inverse of the new J, bit for bit
    rng = np.random.default_rng(4)
    (j,), _ = initial_information(P0, 1)
    for _ in range(8):
        a = rng.uniform(-1.0, 1.0, size=(2, 2))
        c = rng.uniform(-1.0, 1.0, size=(1, 2))
        mq = rng.standard_normal((2, 2))
        q = mq @ mq.T + 0.05 * np.eye(2)
        r = np.array([[rng.uniform(0.05, 1.0)]])
        j, j_inv = information_step(j, DTriple(*oracles.exact_linear_dtriple(a, c, q, r)))
        np.testing.assert_array_equal(j_inv, symmetrize(regularized_inverse(j)))


def test_pfim_step_raises_when_the_inverse_misses_the_identity():
    # J' = diag(1, 1e-14) is positive but past the condition limit, so the
    # ridge that regularized_inverse adds leaves J^{-1} J far from I
    d = DTriple(d11=np.zeros((2, 2)), d12=np.zeros((2, 2)), d22=np.diag([1.0, 1e-14]))
    error = information_step(np.eye(2), d)
    assert isinstance(error, SingularityError)
    assert "inverse inconsistent" in str(error)


def test_pfim_step_floors_an_indefinite_update():
    # d22 smaller than the rank-one correction drives J' negative; the step
    # must floor it to a positive matrix and keep the inverse consistent.
    d = DTriple(d11=np.array([[0.5]]), d12=np.array([[-1.0]]), d22=np.array([[0.5]]))
    j, j_inv = information_step(np.array([[0.5]]), d)
    assert j[0, 0] > 0.0
    assert j_inv[0, 0] * j[0, 0] == pytest.approx(1.0, rel=1e-6)


def information_cases():
    """Name -> (J, D blocks), one for each path through the information step."""
    ridge = (np.eye(2), DTriple(np.diag([0.0, -1.0 + 1e-14]), np.diag([0.0, 1e-7]), np.eye(2)))
    floored = (np.diag([0.5, 1.0]), DTriple(np.diag([0.5, 0.0]), np.diag([2.0, 0.0]), np.diag([-1.0, 1.0])))
    floored_wider = (floored[0], DTriple(floored[1].d11, np.diag([3.0, 0.0]), floored[1].d22))
    healthy = (np.linalg.inv(P0), DTriple(*oracles.exact_linear_dtriple(A, C, Q, R)))
    inconsistent = (np.eye(2), DTriple(np.zeros((2, 2)), np.zeros((2, 2)), np.diag([1.0, 1e-14])))
    return {"ridge": ridge, "floored": floored, "floored wider": floored_wider, "healthy": healthy,
            "inconsistent": inconsistent}


def test_each_slot_of_an_information_stack_matches_its_stack_of_one(caplog):
    cases = information_cases()
    j, d = cases["ridge"]
    assert np.linalg.cond(j + d.d11) > COND_LIMIT  # J + D11 needs the ridge
    for bank in (["ridge", "floored", "healthy"], ["floored wider", "inconsistent", "floored"]):
        js = np.array([cases[name][0] for name in bank])
        ds = DTriple(*(np.array([getattr(cases[name][1], block) for name in bank]) for block in ("d11", "d12", "d22")))
        with caplog.at_level(logging.INFO, logger="volswitch.pcrlb"):
            j_next, j_inv, errors = pcrlb._information_step(js, ds)
        floored = sum("information matrix floored" in r.getMessage() for r in caplog.records)
        assert floored == sum(name.startswith("floored") for name in bank)
        caplog.clear()
        for row, name in enumerate(bank):
            one = information_step(*cases[name])
            if name == "inconsistent":
                # it fails alone, with the same error as its stack of one
                assert isinstance(errors[row], SingularityError)
                assert "inverse inconsistent" in str(errors[row])
                assert isinstance(one, SingularityError)
                assert "inverse inconsistent" in str(one)
                continue
            assert errors[row] is None
            np.testing.assert_array_equal(j_next[row], one[0])
            np.testing.assert_array_equal(j_inv[row], one[1])
    # the floor left J_{t+1} positive definite: diag(-5, 1) became diag(5e-12, 1),
    # and diag(-10, 1) became diag(1e-11, 1)
    for name, low in (("floored", 5e-12), ("floored wider", 1e-11)):
        one_j, _ = information_step(*cases[name])
        np.testing.assert_allclose(np.diag(one_j), [low, 1.0], rtol=1e-9)


def test_non_finite_d_blocks_fail_only_their_slot():
    j, d = information_cases()["healthy"]
    js = np.array([j, j])
    bad = d.d22.copy()
    bad[0, 1] = bad[1, 0] = np.inf
    ds = DTriple(np.array([d.d11, d.d11]), np.array([d.d12, d.d12]), np.array([bad, d.d22]))
    j_next, j_inv, errors = pcrlb._information_step(js, ds)
    assert isinstance(errors[0], NumericalFailureError) and errors[1] is None
    one_j, one_j_inv = information_step(j, d)
    np.testing.assert_array_equal(j_next[1], one_j)
    np.testing.assert_array_equal(j_inv[1], one_j_inv)


def test_exact_recursion_reproduces_kalman_covariance_on_linear_model():
    # with exact D blocks the recursion is the information-form Riccati
    # iteration, so J^{-1} must equal the Kalman posterior covariance.
    d11, d12, d22 = oracles.exact_linear_dtriple(A, C, Q, R)
    d = DTriple(d11, d12, d22)
    ys = np.zeros((12, 1))  # KF covariance does not depend on the data
    _, covs = oracles.kalman_filter(ys, A, C, Q, R, np.zeros(2), P0)
    (j,), _ = initial_information(P0, 1)
    for t in range(12):
        j, j_inv = information_step(j, d)
        np.testing.assert_allclose(j_inv, covs[t], atol=1e-10)


# ---------------------------------------------------------------------------
# D blocks


def jacobians(model, x_prev, x_next, ex=None):
    """(transition Jacobians at x_prev, measurement Jacobians at x_next), stacked as a bank of one."""
    return model.transition_jacobian_batch(x_prev, ex)[None], model.measurement_jacobian_batch(x_next, ex)[None]


def bank_of_one(d):
    """The D blocks of a bank of one as plain matrices."""
    (d11,), (d12,), (d22,) = d.d11, d.d12, d.d22
    return DTriple(d11, d12, d22)


def d_blocks(model, f_jac, h_jac):
    """The bound step's D blocks for a bank of one, from the first row's transition Jacobian."""
    return bank_of_one(pcrlb._d_triple(*pcrlb._constant_transition_blocks(f_jac[0, 0], model), h_jac, model))


def test_d_matrices_are_exact_for_constant_jacobians():
    rng = np.random.default_rng(12)
    x_prev = rng.standard_normal((30, 2))
    x_next = rng.standard_normal((30, 2))
    model = linear_model()
    f_jac, h_jac = jacobians(model, x_prev, x_next)
    d = d_blocks(model, f_jac, h_jac)
    e11, e12, e22 = oracles.exact_linear_dtriple(A, C, Q, R)
    np.testing.assert_allclose(d.d11, e11, atol=1e-12)
    np.testing.assert_allclose(d.d12, e12, atol=1e-12)
    np.testing.assert_allclose(d.d22, e22, atol=1e-12)


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


def test_seed_particles_raise_on_a_covariance_that_cannot_be_factored():
    # its eigenvalue floor overflows, as in the bank step's failed-filter test
    huge = GaussianBelief(np.zeros(2), np.diag([1e308, 1e308]))
    with pytest.raises(CovarianceError), np.errstate(over="ignore"):
        seed_particles(huge, 10, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# full step


def bank_step(j, j_inv, beliefs, ex, model, n, rngs):
    """``pcrlb_step`` with the bank's posteriors given as beliefs."""
    means = np.array([b.mean for b in beliefs])
    covs = np.array([b.cov for b in beliefs])
    return pcrlb_step(j, j_inv, means, covs, ex, model, n, rngs)


def test_pcrlb_step_tracks_kalman_covariance_on_linear_model():
    # constant Jacobians make the Monte-Carlo D blocks exact, so even a
    # small cloud must reproduce the Kalman covariance trajectory.
    rng = np.random.default_rng(17)
    ys = oracles.simulate_linear(A, C, Q, R, np.zeros(2), P0, 20, rng)[1]
    means, covs = oracles.kalman_filter(ys, A, C, Q, R, np.zeros(2), P0)
    model = linear_model()
    j, j_inv = initial_information(P0, 1)
    bound_rng = np.random.default_rng(99)
    for t in range(len(ys)):
        belief = GaussianBelief(means[t - 1] if t else np.zeros(2), covs[t - 1] if t else P0)
        j, j_inv, errors = bank_step(j, j_inv, [belief], None, model, 100, [bound_rng])
        assert errors == [None]
        np.testing.assert_allclose(j_inv[0], covs[t], atol=1e-8)


class QuadraticTransitionModel(LinearGaussianModel):
    """x'_0 = (A x)_0 + k x_0^2 + w_0, linear otherwise: the transition Jacobian depends on the state."""

    def __init__(self, k=0.4):
        super().__init__(A, C, Q, R)
        self.k = k

    def transition_batch(self, states, ex, noise=None):
        out = super().transition_batch(states, ex, noise)
        out[:, 0] += self.k * states[:, 0] ** 2
        return out

    def transition_jacobian_batch(self, states, ex):
        jac = np.repeat(self.a[None], states.shape[0], axis=0)
        jac[:, 0, 0] += 2.0 * self.k * states[:, 0]
        return jac


class MaterialisedJacobianModel(LinearGaussianModel):
    """The linear model with its constant transition Jacobian copied per row, not broadcast."""

    def transition_jacobian_batch(self, states, ex):
        return np.repeat(self.a[None], states.shape[0], axis=0)


class ScaledTransitionModel(LinearGaussianModel):
    """x' = ex A x + w: the Jacobian is the same for every particle but changes with the step's ``ex``."""

    def transition_batch(self, states, ex, noise=None):
        out = ex * (states @ self.a.T)
        return out if noise is None else out + noise

    def transition_jacobian_batch(self, states, ex):
        return np.broadcast_to(ex * self.a, (states.shape[0],) + self.a.shape)


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
    x_prev, x_next = np.abs(rng.standard_normal((2, 40, 2))) * np.array([2e-4, 0.03])
    ex = ExogenousInputs(s=100.0, u=0.01, tau=0.5)
    for model in (bsgarch_model("random-walk"), bsgarch_model("literal")):
        f_jac, h_jac = jacobians(model, x_prev, x_next, ex)
        d = d_blocks(model, f_jac, h_jac)

        q_inv, r_inv = (np.linalg.inv(m) for m in (model.process_cov(), model.measurement_cov()))
        d11, d12, d22 = np.zeros((2, 2)), np.zeros((2, 2)), q_inv.copy()
        for x in x_prev:
            f = model.transition_jacobian(x, ex)
            d11 += f.T @ q_inv @ f / len(x_prev)
            d12 -= f.T @ q_inv / len(x_prev)
        for x in x_next:
            h = model.measurement_jacobian(x, ex)
            d22 += h.T @ r_inv @ h / len(x_next)
        np.testing.assert_allclose(d.d11, d11, rtol=1e-12)
        np.testing.assert_allclose(d.d12, d12, rtol=1e-12)
        np.testing.assert_allclose(d.d22, d22, rtol=1e-12)


def test_noise_precisions_are_inverted_once_and_kept():
    model = linear_model()
    q_inv, r_inv = model.noise_precisions()
    again = model.noise_precisions()
    assert again[0] is q_inv and again[1] is r_inv
    np.testing.assert_allclose(q_inv, np.linalg.inv(Q), rtol=1e-15)
    np.testing.assert_allclose(r_inv, np.linalg.inv(R), rtol=1e-15)
    # the kept arrays are shared by every step, so they are read-only
    assert not q_inv.flags.writeable and not r_inv.flags.writeable


def test_pcrlb_step_requires_two_particles():
    belief = GaussianBelief(np.zeros(2), P0)
    with pytest.raises(InvalidInputError, match="need at least 2 particles"):
        bank_step(*initial_information(P0, 1), [belief], None, linear_model(), 1, [np.random.default_rng(0)])


def test_pcrlb_step_is_rng_deterministic():
    model = linear_model()
    args = (*initial_information(P0, 1), [GaussianBelief(np.array([0.1, 0.0]), P0)], None, model, 64)
    a = bank_step(*args, [np.random.default_rng(5)])
    b = bank_step(*args, [np.random.default_rng(5)])
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_pcrlb_step_averages_d22_over_its_predicted_cloud(monkeypatch):
    # seeding and propagation draw from the rng in the order seed_particles
    # and propagate_cloud do, so their cloud is the step's predicted cloud
    from volswitch.bsgarch import ExogenousInputs

    model = bsgarch_model()
    ex = ExogenousInputs(s=100.0, u=0.01, tau=0.5)
    belief = GaussianBelief(np.array([2e-4, 0.03]), np.diag([1e-9, 1e-5]))
    step = pcrlb._information_step
    for n in (40, 300, 1000):
        captured = []
        monkeypatch.setattr(pcrlb, "_information_step", lambda j, d: captured.append(d) or step(j, d))
        bank_step(*initial_information(belief.cov, 1), [belief], ex, model, n, [np.random.default_rng(31)])

        rng = np.random.default_rng(31)
        predicted = propagate_cloud(seed_particles(belief, n, rng, model), ex, model, rng)
        h = model.measurement_jacobian_batch(predicted.particles, ex)
        assert np.ptp(h) > 0.0
        hrh = np.einsum("nki,kl,nlj->ij", h, np.linalg.inv(model.measurement_cov()), h) / n
        (d,) = captured
        np.testing.assert_allclose(d.d22[0], np.linalg.inv(model.process_cov()) + hrh, rtol=1e-12)


# ---------------------------------------------------------------------------
# bank step


def bank_cases():
    """(model, three beliefs, exogenous inputs) for each kind of shared transition Jacobian."""
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
        (MaterialisedJacobianModel(A, C, Q, R), plain, None),
    ]


def initial_bank(beliefs):
    """(J, J^{-1}) stacks started from each belief's own covariance."""
    j, j_inv = zip(*(initial_information(b.cov, 1) for b in beliefs))
    return np.concatenate(j), np.concatenate(j_inv)


def test_a_bank_step_matches_banks_of_one_bit_for_bit():
    for model, beliefs, ex in bank_cases():
        j, j_inv = initial_bank(beliefs)
        for n in (37, 400, 1000):
            bank = bank_step(j, j_inv, beliefs, ex, model, n, [np.random.default_rng(k) for k in range(3)])
            assert bank[2] == [None] * 3
            for k in range(3):
                one = bank_step(j[k:k + 1], j_inv[k:k + 1], beliefs[k:k + 1], ex, model, n,
                                [np.random.default_rng(k)])
                np.testing.assert_array_equal(bank[0][k], one[0][0])
                np.testing.assert_array_equal(bank[1][k], one[1][0])


def test_a_failed_bound_in_a_bank_stops_only_that_filter():
    model, beliefs, ex = bank_cases()[1]
    j, j_inv = initial_bank(beliefs)
    j[1] = np.nan
    given = j.copy(), j_inv.copy()
    # a covariance whose eigenvalue floor overflows cannot be factored
    huge = GaussianBelief(beliefs[0].mean, np.diag([1e308, 1e308]))
    rngs = [np.random.default_rng(k) for k in range(3)]
    with np.errstate(over="ignore"):
        j_next, j_inv_next, errors = bank_step(j, j_inv, [huge, *beliefs[1:]], ex, model, 300, rngs)
    assert isinstance(errors[0], CovarianceError)
    assert isinstance(errors[1], SingularityError)
    assert errors[2] is None
    # the failed filters keep their rows, and the given stacks are left as they were
    for k in (0, 1):
        np.testing.assert_array_equal(j_next[k], j[k])
        np.testing.assert_array_equal(j_inv_next[k], j_inv[k])
    np.testing.assert_array_equal(j, given[0])
    np.testing.assert_array_equal(j_inv, given[1])
    alone = bank_step(j[2:], j_inv[2:], beliefs[2:], ex, model, 300, [np.random.default_rng(2)])
    np.testing.assert_array_equal(j_next[2], alone[0][0])
    np.testing.assert_array_equal(j_inv_next[2], alone[1][0])
    assert not np.array_equal(j_next[2], j[2])
    # a bank of one returns its filter's error
    with np.errstate(over="ignore"):
        *_, (error,) = bank_step(j[:1], j_inv[:1], [huge], ex, model, 300, [np.random.default_rng(0)])
    assert isinstance(error, CovarianceError)


def test_a_transition_jacobian_that_differs_between_particles_is_rejected():
    model = QuadraticTransitionModel()
    beliefs = bank_cases()[0][1]
    for bank in (beliefs[:1], beliefs):
        rngs = [np.random.default_rng(k) for k in range(len(bank))]
        with pytest.raises(InvalidInputError, match="one transition Jacobian shared by every particle"):
            bank_step(*initial_bank(bank), bank, None, model, 50, rngs)


def test_a_constant_transition_jacobian_skips_the_likelihood(monkeypatch):
    # the bound step never reads the quote, so it never prices a particle
    for model, beliefs, ex in bank_cases():
        calls = []
        measure = model.measurement_batch
        monkeypatch.setattr(model, "measurement_batch", lambda x, e: calls.append(len(x)) or measure(x, e))
        bank_step(*initial_bank(beliefs), beliefs, ex, model, 50, [np.random.default_rng(k) for k in range(3)])
        assert calls == []


def test_a_materialised_constant_jacobian_matches_its_broadcast_view():
    # the broadcast view skips the value comparison; the copied rows go through it
    *_, (copied, beliefs, ex) = bank_cases()
    j, j_inv = initial_bank(beliefs)
    for n in (37, 400):
        viewed, materialised = (
            bank_step(j, j_inv, beliefs, ex, model, n, [np.random.default_rng(k) for k in range(3)])
            for model in (linear_model(), copied)
        )
        assert viewed[2] == materialised[2] == [None] * 3
        np.testing.assert_array_equal(viewed[0], materialised[0])
        np.testing.assert_array_equal(viewed[1], materialised[1])


def test_a_non_finite_shared_jacobian_fails_its_step_whether_viewed_or_materialised():
    nan_a = np.full((2, 2), np.nan)
    beliefs = bank_cases()[0][1][:1]
    for model in (LinearGaussianModel(nan_a, C, Q, R), MaterialisedJacobianModel(nan_a, C, Q, R)):
        *_, (error,) = bank_step(*initial_bank(beliefs), beliefs, None, model, 20, [np.random.default_rng(0)])
        assert isinstance(error, NumericalFailureError)


def test_constant_transition_blocks_are_computed_once_and_kept():
    for model, beliefs, ex in bank_cases():
        rngs = [np.random.default_rng(k) for k in range(3)]
        bank_step(*initial_bank(beliefs), beliefs, ex, model, 50, rngs)
        f, d11, d12 = model._transition_blocks
        np.testing.assert_array_equal(f, model.transition_jacobian(beliefs[0].mean, ex))
        # the kept arrays are shared by every later step, so they are read-only
        assert not (f.flags.writeable or d11.flags.writeable or d12.flags.writeable)
        gram, fq = pcrlb._weighted_gram(f[None, None], model.noise_precisions()[0])
        np.testing.assert_array_equal(d11, symmetrize(gram))
        np.testing.assert_array_equal(d12, -fq)
        bank_step(*initial_bank(beliefs), beliefs, ex, model, 50, rngs)
        again = model._transition_blocks
        assert again[1] is d11 and again[2] is d12


def test_kept_transition_blocks_follow_a_jacobian_that_changes_between_steps(monkeypatch):
    model = ScaledTransitionModel(A, C, Q, R)
    beliefs = bank_cases()[0][1]
    captured = []
    step = pcrlb._information_step
    monkeypatch.setattr(pcrlb, "_information_step", lambda j, d: captured.append(d) or step(j, d))
    scales = (1.0, 0.5, 0.5, 1.0, 0.8)
    for t, scale in enumerate(scales):
        bank_step(*initial_bank(beliefs), beliefs, scale, model, 50,
                  [np.random.default_rng(10 * t + k) for k in range(3)])
    assert len(captured) == len(scales)
    q_inv = np.linalg.inv(Q)
    for scale, d in zip(scales, captured):
        f = scale * A
        for k in range(3):
            np.testing.assert_allclose(d.d11[k], f.T @ q_inv @ f, rtol=1e-13)
            np.testing.assert_allclose(d.d12[k], -(f.T @ q_inv), rtol=1e-13)
        # and bit for bit what an uncached computation, on a model with nothing kept, gives
        fresh_d11, fresh_d12 = pcrlb._constant_transition_blocks(f, ScaledTransitionModel(A, C, Q, R))
        np.testing.assert_array_equal(d.d11[0], fresh_d11[0])
        np.testing.assert_array_equal(d.d12[0], fresh_d12[0])
