import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from volswitch import bsgarch
from volswitch.bsgarch import (
    GRAD_V_FLOOR,
    V_FLOOR,
    BsGarchModel,
    ContractSpec,
    ExogenousInputs,
    GarchParams,
    ModelSpec,
    NoiseSpec,
    gbm_propagate,
)
from volswitch.exceptions import InvalidInputError

# Frozen from an independent 40-digit evaluation of the closed form,
# cross-checked against a 1e7-path Monte-Carlo price (agreement ~2e-3,
# inside the MC standard error). S = K = 100, r = 0.05, sigma = 0.2, tau = 1.
REF_CALL = 10.450583572185567

REF_CONTRACT = ContractSpec(strike=100.0, expiry_step=252)
REF_EX = ExogenousInputs(s=100.0, u=0.0, tau=1.0)


def _state_for_sigma(sigma, r, annualization=252.0):
    return np.array([sigma * sigma / annualization, r])


def default_model(risk_transition="random-walk", dt=1.0 / 252.0):
    return ModelSpec(
        garch=GarchParams(omega=1e-5, alpha=0.05, beta=0.90),
        contract=REF_CONTRACT,
        noise=NoiseSpec(q=np.diag([1e-10, 1e-8]), r=1.0),
        dt=dt,
        risk_transition=risk_transition,
    )


MODEL = BsGarchModel(default_model())


def price(x, ex, contract=None, model=MODEL):
    """Adapter price of one state, under ``contract`` when given."""
    if contract is not None:
        ex = ExogenousInputs(s=ex.s, u=ex.u, tau=ex.tau, contract=contract)
    return float(model.measurement(x, ex)[0])


def gradient(x, ex, contract=None):
    if contract is not None:
        ex = ExogenousInputs(s=ex.s, u=ex.u, tau=ex.tau, contract=contract)
    return MODEL.measurement_jacobian(x, ex)


# ---------------------------------------------------------------------------
# pricing


def test_price_matches_frozen_reference():
    assert price(_state_for_sigma(0.2, 0.05), REF_EX) == pytest.approx(REF_CALL, abs=1e-12)


@pytest.mark.parametrize("s", [60.0, 95.0, 100.0, 117.0, 180.0])
@pytest.mark.parametrize("sigma,r,tau", [(0.15, 0.02, 0.5), (0.45, -0.01, 1.7), (0.05, 0.08, 0.04)])
def test_price_matches_textbook_formula(s, sigma, r, tau):
    ex = ExogenousInputs(s=s, u=0.0, tau=tau)
    call = price(_state_for_sigma(sigma, r), ex, ContractSpec(strike=100.0, expiry_step=500))
    put = price(
        _state_for_sigma(sigma, r), ex, ContractSpec(strike=100.0, expiry_step=500, is_call=False)
    )
    assert call == pytest.approx(oracles.bs_call(s, 100.0, r, sigma, tau), rel=1e-12, abs=1e-12)
    assert put == pytest.approx(oracles.bs_put(s, 100.0, r, sigma, tau), rel=1e-12, abs=1e-12)


@given(
    s=st.floats(50.0, 200.0),
    k=st.floats(50.0, 200.0),
    sigma=st.floats(0.01, 0.8),
    r=st.floats(-0.05, 0.12),
    tau=st.floats(1e-3, 2.5),
)
@settings(max_examples=200)
def test_put_call_parity(s, k, sigma, r, tau):
    ex = ExogenousInputs(s=s, u=0.0, tau=tau)
    call = price(_state_for_sigma(sigma, r), ex, ContractSpec(strike=k, expiry_step=900))
    put = price(_state_for_sigma(sigma, r), ex, ContractSpec(strike=k, expiry_step=900, is_call=False))
    assert call - put == pytest.approx(s - k * math.exp(-r * tau), abs=1e-9 * max(s, k))


def test_price_at_expiry_is_intrinsic():
    ex = ExogenousInputs(s=112.0, u=0.0, tau=0.0)
    assert price(_state_for_sigma(0.3, 0.05), ex) == pytest.approx(12.0, abs=1e-12)
    otm = ContractSpec(strike=130.0, expiry_step=252)
    assert price(_state_for_sigma(0.3, 0.05), ex, otm) == 0.0


def test_price_at_zero_variance_is_deterministic_limit():
    ex = ExogenousInputs(s=100.0, u=0.0, tau=1.0)
    expect = max(100.0 - 100.0 * math.exp(-0.05), 0.0)
    assert price(np.array([0.0, 0.05]), ex) == pytest.approx(expect, abs=1e-12)


def test_price_annualization_is_variance_rescaling():
    # sigma = sqrt(A v) means (A, v) and (A', v A/A') price identically
    ex = ExogenousInputs(s=104.0, u=0.0, tau=0.7)
    a = price(np.array([2e-4, 0.03]), ex)
    daily_365 = BsGarchModel(default_model(dt=1.0 / 365.0))
    b = price(np.array([2e-4 * 252.0 / 365.0, 0.03]), ex, model=daily_365)
    assert a == pytest.approx(b, rel=1e-12)


# ---------------------------------------------------------------------------
# the normal CDF


def scipy_ndtr(a):
    """scipy.special.ndtr, the reference for the port; scipy is a test dependency only."""
    return pytest.importorskip("scipy.special").ndtr(a)


def assert_same_bits(ours, theirs):
    """Elementwise the same float64 bits, NaN matching NaN, in the same shape."""
    ours, theirs = np.asarray(ours), np.asarray(theirs)
    assert ours.dtype == theirs.dtype == np.float64 and ours.shape == theirs.shape
    differ = (ours.view(np.int64) != theirs.view(np.int64)) & ~(np.isnan(ours) & np.isnan(theirs))
    where = np.flatnonzero(differ)
    assert not where.size, f"{where.size} differ, first a[{where[0]}]"


def branch_edges():
    """(4, 14): within 3 ulps of each branch edge of cephes' ndtr, both signs.

    The edges lie on |a| / sqrt 2 at sqrt(1/2) (erf), 1 (1 - erf), 8 (the
    two erfc fits) and sqrt(MAXLOG), past which the result is 0 or 1.
    """
    rows = []
    for edge in (bsgarch._SQRT1_2, 1.0, 8.0, math.sqrt(bsgarch._MAXLOG)):
        a = edge / bsgarch._SQRT1_2
        for _ in range(3):
            a = math.nextafter(a, 0.0)
        row = []
        for _ in range(7):
            row += [a, -a]
            a = math.nextafter(a, math.inf)
        rows.append(row)
    return np.array(rows)


SPECIALS = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e300, -1e300])


def test_branch_edges_straddle_each_branch():
    x = np.abs(branch_edges() * bsgarch._SQRT1_2)
    for row, edge in zip(x[:3], (bsgarch._SQRT1_2, 1.0, 8.0)):
        assert (row < edge).any() and (row >= edge).any()
    assert (x[3] ** 2 <= bsgarch._MAXLOG).any() and (x[3] ** 2 > bsgarch._MAXLOG).any()


def test_ndtr_reproduces_scipy_bit_for_bit_at_branch_edges_and_special_values():
    a = np.concatenate([branch_edges().ravel(), SPECIALS])
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        assert_same_bits(bsgarch.ndtr(a), scipy_ndtr(a))  # the array path
        for t in a.tolist():  # the float path, 0-d and one element
            assert_same_bits(bsgarch.ndtr(t), scipy_ndtr(t))
            assert_same_bits(bsgarch.ndtr(np.array([t])), scipy_ndtr(np.array([t])))


def clouds(n=500):
    """Arrays by branch mix: all in the erf form's range, then a few stragglers, then every branch."""
    rng = np.random.default_rng(8)
    inside = np.clip(0.3 * rng.standard_normal(n), -0.99, 0.99)
    stragglers = inside.copy()
    stragglers[[3, 100, -1]] = (1.2, -9.0, math.nan)
    return {
        "erf form only": inside,
        "three stragglers": stragglers,
        "wide normal": 5.0 * rng.standard_normal(n),
        "uniform on 40": rng.uniform(-40.0, 40.0, 40 * n),
    }


@pytest.mark.parametrize("name", list(clouds()))
@pytest.mark.parametrize("shape", [(), (1,), (5,), (2, -1), (-1,)])
def test_ndtr_reproduces_scipy_bit_for_bit_on_clouds(name, shape):
    cloud = clouds()[name]
    a = cloud[:math.prod(shape) if -1 not in shape else cloud.size].reshape(shape)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        assert_same_bits(bsgarch.ndtr(a), scipy_ndtr(a))


@given(st.lists(st.floats(), max_size=60))
@settings(max_examples=300)
def test_ndtr_reproduces_scipy_bit_for_bit_on_any_floats(values):
    a = np.array(values, dtype=float)
    assert_same_bits(bsgarch.ndtr(a), scipy_ndtr(a))
    if values:
        assert_same_bits(bsgarch.ndtr(values[0]), scipy_ndtr(values[0]))


# scipy.special.ndtr's values (scipy 1.17), one per branch of cephes' ndtr:
# erf, 1 - erf, the erfc fits below and above 8, and the MAXLOG cut
@pytest.mark.parametrize("a, bits", [
    (0.3, "0x1.3c5ee2cc40b78p-1"),
    (-1.2, "0x1.d7534b65d1e30p-4"),
    (3.0, "0x1.ff4f10f033d25p-1"),
    (-15.0, "0x1.5f9bd44cdd49cp-168"),
    (40.0, "0x1.0000000000000p+0"),
    (-40.0, "0x0.0p+0"),
])
def test_ndtr_matches_frozen_values_in_each_branch(a, bits):
    assert float(bsgarch.ndtr(a)).hex() == bits


# ---------------------------------------------------------------------------
# measurement gradient


@pytest.mark.parametrize("is_call", [True, False])
@pytest.mark.parametrize(
    "v,r,s,tau",
    [
        (1.5e-4, 0.04, 100.0, 1.0),
        (4.0e-4, -0.01, 88.0, 0.3),
        (5.0e-5, 0.09, 121.0, 1.8),
    ],
)
def test_measurement_jacobian_matches_central_differences(is_call, v, r, s, tau):
    contract = ContractSpec(strike=100.0, expiry_step=600, is_call=is_call)
    ex = ExogenousInputs(s=s, u=0.0, tau=tau)
    jac = gradient(np.array([v, r]), ex, contract)
    fd = oracles.central_difference(
        lambda x: price(x, ex, contract), np.array([v, r]), h=np.array([v * 1e-5, 1e-6])
    )
    assert jac.shape == (1, 2)
    assert jac[0] == pytest.approx(fd, rel=1e-5)


def test_measurement_jacobian_degenerate_cases():
    # at the floor itself the gradient is taken at GRAD_V_FLOOR; at expiry
    # the price carries no state information and the gradient is zero
    at_floor = gradient(np.array([V_FLOOR, 0.05]), REF_EX)
    assert at_floor == pytest.approx(gradient(np.array([GRAD_V_FLOOR, 0.05]), REF_EX), rel=1e-13)
    expired = ExogenousInputs(s=100.0, u=0.0, tau=0.0)
    assert np.array_equal(gradient(_state_for_sigma(0.2, 0.05), expired), np.zeros((1, 2)))


def test_vega_sign_and_rate_sensitivity_signs():
    jac = gradient(_state_for_sigma(0.2, 0.05), REF_EX)
    assert jac[0, 0] > 0.0  # price increases with variance
    assert jac[0, 1] > 0.0  # call price increases with the rate
    put = ContractSpec(strike=100.0, expiry_step=252, is_call=False)
    jac_put = gradient(_state_for_sigma(0.2, 0.05), REF_EX, put)
    assert jac_put[0, 0] > 0.0
    assert jac_put[0, 1] < 0.0


# ---------------------------------------------------------------------------
# transition


def test_transition_arithmetic_random_walk():
    ex = ExogenousInputs(s=100.0, u=0.01, tau=0.5)
    v, r = MODEL.transition(np.array([2e-4, 0.03]), ex, np.array([1e-6, -2e-4]))
    expect_v = 1e-5 + 0.05 * 0.01**2 + 0.90 * 2e-4 + 1e-6
    assert v == pytest.approx(expect_v, rel=1e-15)
    assert r == pytest.approx(0.03 - 2e-4, rel=1e-15)


def test_transition_literal_mode_couples_rate_to_variance():
    model = BsGarchModel(default_model(risk_transition="literal"))
    ex = ExogenousInputs(s=100.0, u=0.0, tau=0.5)
    v, r = model.transition(np.array([2e-4, 0.03]), ex)
    expect_v = 1e-5 + 0.90 * 2e-4
    assert v == pytest.approx(expect_v, rel=1e-15)
    assert r == pytest.approx(0.03 + expect_v, rel=1e-15)


def test_transition_fixed_point_without_noise():
    garch = MODEL.spec.garch
    v_star = garch.omega / (1.0 - garch.beta)
    ex = ExogenousInputs(s=100.0, u=0.0, tau=0.5)
    v, r = MODEL.transition(np.array([v_star, 0.02]), ex)
    assert v == pytest.approx(v_star, rel=1e-12)
    assert r == 0.02


def test_transition_floors_variance():
    model = BsGarchModel(ModelSpec(
        garch=GarchParams(omega=1e-12, alpha=0.0, beta=0.0),
        contract=REF_CONTRACT,
        noise=NoiseSpec(q=np.diag([1e-10, 1e-8]), r=1.0),
        dt=1.0 / 252.0,
    ))
    ex = ExogenousInputs(s=100.0, u=0.0, tau=0.5)
    assert model.transition(np.array([0.0, 0.0]), ex)[0] == V_FLOOR


@pytest.mark.parametrize("noise_shape", [(4, 3), (3, 2)])
def test_transition_batch_rejects_noise_of_another_shape(noise_shape):
    states = np.tile([2e-4, 0.03], (4, 1))
    with pytest.raises(InvalidInputError, match="noise shape"):
        MODEL.transition_batch(states, REF_EX, np.zeros(noise_shape))


def test_transition_jacobian_modes():
    x = np.array([1e-4, 0.02])
    rw = MODEL.transition_jacobian(x, REF_EX)
    assert np.array_equal(rw, [[0.90, 0.0], [0.0, 1.0]])
    lit = BsGarchModel(default_model("literal")).transition_jacobian(x, REF_EX)
    assert np.array_equal(lit, [[0.90, 0.0], [0.90, 1.0]])


# ---------------------------------------------------------------------------
# spot propagation


def test_gbm_propagate_formula_and_zero_dt():
    s = gbm_propagate(100.0, r=0.05, v=4e-4, dt=1.0 / 252.0, shock=0.7)
    expect = 100.0 * math.exp(0.05 / 252.0 - 2e-4 + math.sqrt(4e-4) * 0.7)
    assert s == pytest.approx(expect, rel=1e-15)
    assert gbm_propagate(87.5, r=0.10, v=1e-4, dt=0.0, shock=3.0) == 87.5


@given(st.floats(1.0, 500.0), st.floats(-0.1, 0.2), st.floats(0.0, 1e-2))
@settings(max_examples=100)
def test_gbm_median_path_is_drift_minus_half_variance(s, r, v):
    dt = 1.0 / 252.0
    out = gbm_propagate(s, r=r, v=v, dt=dt, shock=0.0)
    assert out == pytest.approx(s * math.exp(r * dt - 0.5 * v), rel=1e-12)


def test_gbm_rejects_bad_inputs():
    with pytest.raises(InvalidInputError):
        gbm_propagate(0.0, r=0.05, v=1e-4, dt=0.1)
    with pytest.raises(InvalidInputError):
        gbm_propagate(100.0, r=0.05, v=-1e-4, dt=0.1)


# ---------------------------------------------------------------------------
# parameter validation


def test_parameter_validation():
    with pytest.raises(InvalidInputError):
        GarchParams(omega=0.0, alpha=0.1, beta=0.8)
    with pytest.raises(InvalidInputError):
        GarchParams(omega=1e-5, alpha=0.5, beta=0.5)  # persistence >= 1
    with pytest.raises(InvalidInputError):
        NoiseSpec(q=np.diag([1.0, -1.0]), r=1.0)
    with pytest.raises(InvalidInputError):
        NoiseSpec(q=np.diag([1.0, 1.0]), r=0.0)
    with pytest.raises(InvalidInputError):
        ContractSpec(strike=-5.0, expiry_step=10)
    with pytest.raises(InvalidInputError):
        ExogenousInputs(s=100.0, u=0.0, tau=-0.1)
    with pytest.raises(InvalidInputError):
        ModelSpec(
            garch=GarchParams(omega=1e-5, alpha=0.05, beta=0.9),
            contract=REF_CONTRACT,
            noise=NoiseSpec(q=np.diag([1e-10, 1e-8]), r=1.0),
            dt=1.0 / 252.0,
            risk_transition="sideways",
        )


def model_spec(dt=1.0 / 252.0):
    return ModelSpec(
        garch=GarchParams(omega=1e-5, alpha=0.05, beta=0.9),
        contract=REF_CONTRACT,
        noise=NoiseSpec(q=np.diag([1e-10, 1e-8]), r=1.0),
        dt=dt,
    )


@pytest.mark.parametrize("build, message", [
    (lambda: GarchParams(omega=np.nan, alpha=0.1, beta=0.8), "non-finite GARCH parameters"),
    (lambda: ContractSpec(strike=100.0, expiry_step=2.5), "expiry_step must be a non-negative integer"),
    (lambda: ContractSpec(strike=100.0, expiry_step=-1), "expiry_step must be a non-negative integer"),
    (lambda: ExogenousInputs(s=100.0, u=np.inf, tau=0.5), "non-finite exogenous inputs"),
    (lambda: ExogenousInputs(s=0.0, u=0.0, tau=0.5), "underlying close must be positive"),
    (lambda: NoiseSpec(q=np.eye(3), r=1.0), "q must be a finite 2x2 matrix"),
    (lambda: NoiseSpec(q=np.array([[1.0, np.nan], [np.nan, 1.0]]), r=1.0), "q must be a finite 2x2 matrix"),
    (lambda: NoiseSpec(q=np.array([[1.0, 0.1], [0.2, 1.0]]), r=1.0), "q must be symmetric"),
    (lambda: model_spec(dt=0.0), "dt must be positive"),
    (lambda: model_spec(dt=np.nan), "dt must be positive"),
    (lambda: gbm_propagate(100.0, r=np.nan, v=1e-4, dt=0.1), "non-finite gbm inputs"),
], ids=["garch-nan", "expiry-fraction", "expiry-negative", "exogenous-inf", "close-zero", "q-3x3", "q-nan",
        "q-asymmetric", "dt-zero", "dt-nan", "gbm-nan"])
def test_each_value_check_names_its_fault(build, message):
    with pytest.raises(InvalidInputError, match=message):
        build()


# ---------------------------------------------------------------------------
# batch adapter


def test_adapter_batches_match_scalar_operations():
    model = BsGarchModel(default_model())
    rng = np.random.default_rng(11)
    states = np.column_stack(
        [rng.uniform(5e-5, 6e-4, size=64), rng.uniform(-0.02, 0.10, size=64)]
    )
    ex = ExogenousInputs(s=103.0, u=0.006, tau=0.8)

    prices = model.measurement_batch(states, ex)
    jacs = model.measurement_jacobian_batch(states, ex)
    trans = model.transition_batch(states, ex)
    assert prices.shape == (64, 1)
    assert jacs.shape == (64, 1, 2)
    garch = model.spec.garch
    for i, (v, r) in enumerate(states):
        sigma = math.sqrt(v * 252.0)
        assert prices[i, 0] == pytest.approx(oracles.bs_call(103.0, 100.0, r, sigma, 0.8), rel=1e-13)
        fd = oracles.central_difference(
            lambda x: oracles.bs_call(103.0, 100.0, x[1], math.sqrt(x[0] * 252.0), 0.8),
            np.array([v, r]), h=np.array([v * 1e-5, 1e-6]),
        )
        assert jacs[i, 0] == pytest.approx(fd, rel=1e-5)
        expect_v = garch.omega + garch.alpha * 0.006**2 + garch.beta * v
        assert trans[i] == pytest.approx([expect_v, r], rel=1e-13)


def test_adapter_gradient_substitutes_floored_state():
    model = BsGarchModel(default_model())
    ex = ExogenousInputs(s=100.0, u=0.0, tau=0.5)
    jac = model.measurement_jacobian_batch(np.array([[0.0, 0.05]]), ex)
    fd = oracles.central_difference(
        lambda x: oracles.bs_call(100.0, 100.0, x[1], math.sqrt(x[0] * 252.0), 0.5),
        np.array([GRAD_V_FLOOR, 0.05]), h=np.array([GRAD_V_FLOOR * 1e-5, 1e-6]),
    )
    assert jac[0, 0] == pytest.approx(fd, rel=1e-5)  # vega is ~1e-48 here, d/dr ~49


def test_adapter_gradient_is_zero_at_expiry():
    model = BsGarchModel(default_model())
    ex = ExogenousInputs(s=100.0, u=0.0, tau=0.0)
    jac = model.measurement_jacobian_batch(np.array([[2e-4, 0.05], [3e-4, 0.01]]), ex)
    assert np.array_equal(jac, np.zeros((2, 1, 2)))


def test_adapter_projection_floors_variance_only():
    model = BsGarchModel(default_model())
    out = model.project_batch(np.array([[-1.0, -0.5], [2e-4, 0.03]]))
    assert np.array_equal(out, [[V_FLOOR, -0.5], [2e-4, 0.03]])


def test_adapter_uses_per_step_contract_when_present():
    model = BsGarchModel(default_model())
    other = ContractSpec(strike=120.0, expiry_step=252)
    ex = ExogenousInputs(s=100.0, u=0.0, tau=1.0, contract=other)
    price = model.measurement_batch(np.array([[0.04 / 252.0, 0.05]]), ex)[0, 0]
    assert price == pytest.approx(oracles.bs_call(100.0, 120.0, 0.05, 0.2, 1.0), rel=1e-12)
