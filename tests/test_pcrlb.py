import logging

import numpy as np
import pytest

import oracles
from volswitch.bsgarch import BsGarchModel, V_FLOOR
from volswitch.exceptions import CovarianceError, InvalidInputError, NumericalFailureError, SingularityError
from volswitch.filters import FilterId, GaussianBelief, propagate_cloud
from volswitch import pcrlb
from volswitch.linalg import COND_LIMIT, regularized_inverse, symmetrize
from volswitch.pcrlb import DTriple, FisherState, pcrlb_step, seed_particles
from models import LinearGaussianModel

A = np.array([[0.85, 0.05], [0.0, 0.9]])
C = np.array([[1.0, 0.4]])
Q = np.diag([0.04, 0.03])
R = np.array([[0.08]])
P0 = np.diag([0.5, 0.3])


def linear_model():
    return LinearGaussianModel(A, C, Q, R)


def information_step(prev, d):
    """One filter's information step as a stack of one: its new ``FisherState``, or the error that stopped it."""
    one = DTriple(*(m[None] for m in (d.d11, d.d12, d.d22)))
    (j,), (j_inv,), (error,) = pcrlb._information_step(prev.j[None], one)
    return error or FisherState(j=j, j_inv=j_inv, filter=prev.filter)


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
    out = information_step(prev, d)
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
        prev = information_step(prev, DTriple(*oracles.exact_linear_dtriple(a, c, q, r)))
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
        prev = information_step(prev, DTriple(*oracles.exact_linear_dtriple(a, c, q, r)))
        np.testing.assert_array_equal(prev.j_inv, symmetrize(regularized_inverse(prev.j)))


def test_pfim_step_raises_when_the_inverse_misses_the_identity():
    # J' = diag(1, 1e-14) is positive but past the condition limit, so the
    # ridge that regularized_inverse adds leaves J^{-1} J far from I
    prev = FisherState(j=np.eye(2), j_inv=np.eye(2))
    d = DTriple(d11=np.zeros((2, 2)), d12=np.zeros((2, 2)), d22=np.diag([1.0, 1e-14]))
    error = information_step(prev, d)
    assert isinstance(error, SingularityError)
    assert "inverse inconsistent" in str(error)


def test_pfim_step_floors_an_indefinite_update():
    # d22 smaller than the rank-one correction drives J' negative; the step
    # must floor it to a positive matrix and keep the inverse consistent.
    prev = FisherState(j=np.array([[0.5]]), j_inv=np.array([[2.0]]))
    d = DTriple(d11=np.array([[0.5]]), d12=np.array([[-1.0]]), d22=np.array([[0.5]]))
    out = information_step(prev, d)
    assert out.j[0, 0] > 0.0
    assert out.j_inv[0, 0] * out.j[0, 0] == pytest.approx(1.0, rel=1e-6)


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
            prev = FisherState(j=cases[name][0], j_inv=np.linalg.inv(cases[name][0]))
            if name == "inconsistent":
                # it fails alone, with the same error as its stack of one
                assert isinstance(errors[row], SingularityError)
                assert "inverse inconsistent" in str(errors[row])
                alone = information_step(prev, cases[name][1])
                assert isinstance(alone, SingularityError)
                assert "inverse inconsistent" in str(alone)
                continue
            one = information_step(prev, cases[name][1])
            assert errors[row] is None
            np.testing.assert_array_equal(j_next[row], one.j)
            np.testing.assert_array_equal(j_inv[row], one.j_inv)
    # the floor left J_{t+1} positive definite: diag(-5, 1) became diag(5e-12, 1),
    # and diag(-10, 1) became diag(1e-11, 1)
    for name, low in (("floored", 5e-12), ("floored wider", 1e-11)):
        one = information_step(FisherState(j=cases[name][0], j_inv=np.eye(2)), cases[name][1])
        np.testing.assert_allclose(np.diag(one.j), [low, 1.0], rtol=1e-9)


def test_non_finite_d_blocks_fail_only_their_slot():
    j, d = information_cases()["healthy"]
    js = np.array([j, j])
    bad = d.d22.copy()
    bad[0, 1] = bad[1, 0] = np.inf
    ds = DTriple(np.array([d.d11, d.d11]), np.array([d.d12, d.d12]), np.array([bad, d.d22]))
    j_next, j_inv, errors = pcrlb._information_step(js, ds)
    assert isinstance(errors[0], NumericalFailureError) and errors[1] is None
    one = information_step(FisherState(j=j, j_inv=P0), d)
    np.testing.assert_array_equal(j_next[1], one.j)
    np.testing.assert_array_equal(j_inv[1], one.j_inv)


def test_exact_recursion_reproduces_kalman_covariance_on_linear_model():
    # with exact D blocks the recursion is the information-form Riccati
    # iteration, so J^{-1} must equal the Kalman posterior covariance.
    d11, d12, d22 = oracles.exact_linear_dtriple(A, C, Q, R)
    d = DTriple(d11, d12, d22)
    ys = np.zeros((12, 1))  # KF covariance does not depend on the data
    _, covs = oracles.kalman_filter(ys, A, C, Q, R, np.zeros(2), P0)
    fs = FisherState.initial(P0)
    for t in range(12):
        fs = information_step(fs, d)
        np.testing.assert_allclose(fs.j_inv, covs[t], atol=1e-10)


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


def test_pcrlb_step_tracks_kalman_covariance_on_linear_model():
    # constant Jacobians make the Monte-Carlo D blocks exact, so even a
    # small cloud must reproduce the Kalman covariance trajectory.
    rng = np.random.default_rng(17)
    ys = oracles.simulate_linear(A, C, Q, R, np.zeros(2), P0, 20, rng)[1]
    means, covs = oracles.kalman_filter(ys, A, C, Q, R, np.zeros(2), P0)
    model = linear_model()
    fs = FisherState.initial(P0)
    bound_rng = np.random.default_rng(99)
    for t in range(len(ys)):
        belief = GaussianBelief(means[t - 1] if t else np.zeros(2), covs[t - 1] if t else P0)
        (fs,) = pcrlb_step([fs], [belief], None, model, 100, [bound_rng])
        np.testing.assert_allclose(fs.j_inv, covs[t], atol=1e-8)


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


def test_pcrlb_step_is_rng_deterministic():
    model = linear_model()
    belief = GaussianBelief(np.array([0.1, 0.0]), P0)
    args = ([belief], None, model, 64)
    (a,) = pcrlb_step([FisherState.initial(P0)], *args, [np.random.default_rng(5)])
    (b,) = pcrlb_step([FisherState.initial(P0)], *args, [np.random.default_rng(5)])
    np.testing.assert_array_equal(a.j, b.j)
    np.testing.assert_array_equal(a.j_inv, b.j_inv)


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
        pcrlb_step([FisherState.initial(belief.cov)], [belief], ex, model, n, [np.random.default_rng(31)])

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


def bank_of_three(beliefs):
    return [FisherState.initial(b.cov, fid) for b, fid in zip(beliefs, FilterId)]


def test_a_bank_step_matches_banks_of_one_bit_for_bit():
    for model, beliefs, ex in bank_cases():
        prevs = bank_of_three(beliefs)
        for n in (37, 400, 1000):
            bank = pcrlb_step(prevs, beliefs, ex, model, n, [np.random.default_rng(k) for k in range(3)])
            for k in range(3):
                (one,) = pcrlb_step([prevs[k]], [beliefs[k]], ex, model, n, [np.random.default_rng(k)])
                assert bank[k].filter is prevs[k].filter
                np.testing.assert_array_equal(bank[k].j, one.j)
                np.testing.assert_array_equal(bank[k].j_inv, one.j_inv)


def test_a_failed_bound_in_a_bank_stops_only_that_filter():
    model, beliefs, ex = bank_cases()[1]
    prevs = bank_of_three(beliefs)
    # a covariance whose eigenvalue floor overflows cannot be factored
    huge = GaussianBelief(beliefs[0].mean, np.diag([1e308, 1e308]))
    broken = FisherState(j=np.full((2, 2), np.nan), j_inv=prevs[1].j_inv, filter=prevs[1].filter)
    rngs = [np.random.default_rng(k) for k in range(3)]
    with np.errstate(over="ignore"):
        out = pcrlb_step([prevs[0], broken, prevs[2]], [huge, *beliefs[1:]], ex, model, 300, rngs)
    assert isinstance(out[0], CovarianceError)
    assert isinstance(out[1], SingularityError)
    (alone,) = pcrlb_step([prevs[2]], [beliefs[2]], ex, model, 300, [np.random.default_rng(2)])
    np.testing.assert_array_equal(out[2].j, alone.j)
    np.testing.assert_array_equal(out[2].j_inv, alone.j_inv)
    # a bank of one returns its filter's error
    with np.errstate(over="ignore"):
        (alone,) = pcrlb_step([prevs[0]], [huge], ex, model, 300, [np.random.default_rng(0)])
    assert isinstance(alone, CovarianceError)


def test_a_transition_jacobian_that_differs_between_particles_is_rejected():
    model = QuadraticTransitionModel()
    beliefs = bank_cases()[0][1]
    for bank in (beliefs[:1], beliefs):
        rngs = [np.random.default_rng(k) for k in range(len(bank))]
        with pytest.raises(InvalidInputError, match="one transition Jacobian shared by every particle"):
            pcrlb_step(bank_of_three(bank), bank, None, model, 50, rngs)


def test_a_constant_transition_jacobian_skips_the_likelihood(monkeypatch):
    # the bound step never reads the quote, so it never prices a particle
    for model, beliefs, ex in bank_cases():
        calls = []
        measure = model.measurement_batch
        monkeypatch.setattr(model, "measurement_batch", lambda x, e: calls.append(len(x)) or measure(x, e))
        pcrlb_step(bank_of_three(beliefs), beliefs, ex, model, 50, [np.random.default_rng(k) for k in range(3)])
        assert calls == []


def test_a_materialised_constant_jacobian_matches_its_broadcast_view():
    # the broadcast view skips the value comparison; the copied rows go through it
    *_, (copied, beliefs, ex) = bank_cases()
    prevs = bank_of_three(beliefs)
    for n in (37, 400):
        steps = [pcrlb_step(prevs, beliefs, ex, model, n, [np.random.default_rng(k) for k in range(3)])
                 for model in (linear_model(), copied)]
        for viewed, materialised in zip(*steps):
            np.testing.assert_array_equal(viewed.j, materialised.j)
            np.testing.assert_array_equal(viewed.j_inv, materialised.j_inv)


def test_a_non_finite_shared_jacobian_fails_its_step_whether_viewed_or_materialised():
    nan_a = np.full((2, 2), np.nan)
    beliefs = bank_cases()[0][1][:1]
    for model in (LinearGaussianModel(nan_a, C, Q, R), MaterialisedJacobianModel(nan_a, C, Q, R)):
        (out,) = pcrlb_step(bank_of_three(beliefs), beliefs, None, model, 20, [np.random.default_rng(0)])
        assert isinstance(out, NumericalFailureError)


def test_constant_transition_blocks_are_computed_once_and_kept():
    for model, beliefs, ex in bank_cases():
        rngs = [np.random.default_rng(k) for k in range(3)]
        pcrlb_step(bank_of_three(beliefs), beliefs, ex, model, 50, rngs)
        f, d11, d12 = model._transition_blocks
        np.testing.assert_array_equal(f, model.transition_jacobian(beliefs[0].mean, ex))
        # the kept arrays are shared by every later step, so they are read-only
        assert not (f.flags.writeable or d11.flags.writeable or d12.flags.writeable)
        gram, fq = pcrlb._weighted_gram(f[None, None], model.noise_precisions()[0])
        np.testing.assert_array_equal(d11, symmetrize(gram))
        np.testing.assert_array_equal(d12, -fq)
        pcrlb_step(bank_of_three(beliefs), beliefs, ex, model, 50, rngs)
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
        pcrlb_step(bank_of_three(beliefs), beliefs, scale, model, 50,
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
