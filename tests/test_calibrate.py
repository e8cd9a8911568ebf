import datetime as dt
import math

import numpy as np
import pytest

import oracles
from volswitch import calibrate
from volswitch.calibrate import (
    MIN_RETURNS,
    closes_by_date,
    fit_garch,
    garch_log_likelihood,
    log_returns,
)
from volswitch.exceptions import InsufficientDataError, InvalidInputError
from volswitch.marketdata import CANONICAL_COLUMNS, load_chain

TRUE = dict(omega=5e-6, alpha=0.08, beta=0.90)


def simulate_garch_returns(n, omega, alpha, beta, seed=0):
    rng = np.random.default_rng(seed)
    h = omega / (1.0 - alpha - beta)
    out = np.empty(n)
    for t in range(n):
        u = math.sqrt(h) * rng.standard_normal()
        out[t] = u
        h = omega + alpha * u * u + beta * h
    return out


def test_log_returns_definition_and_validation():
    np.testing.assert_allclose(
        log_returns([100.0, 101.0, 99.0]),
        [math.log(1.01), math.log(99.0 / 101.0)],
        atol=1e-15,
    )
    with pytest.raises(InvalidInputError):
        log_returns([100.0])
    with pytest.raises(InvalidInputError):
        log_returns([100.0, -1.0])
    with pytest.raises(InvalidInputError):
        log_returns([[100.0, 101.0]])


def test_garch_log_likelihood_matches_direct_recursion():
    u = np.array([0.01, -0.02, 0.005])
    omega, alpha, beta = 1e-5, 0.1, 0.8
    h = float(np.var(u))
    expect = 0.0
    for x in u:
        expect += -0.5 * (math.log(2 * math.pi * h) + x * x / h)
        h = omega + alpha * x * x + beta * h
    assert garch_log_likelihood(u, omega, alpha, beta) == pytest.approx(expect, rel=1e-14)


def test_garch_log_likelihood_equals_the_direct_recursion_bit_for_bit():
    rng = np.random.default_rng(11)
    cases = [(np.array([0.01]), 1e-5, 0.1, 0.8), (np.full(5, -0.02), 2e-6, 0.0, 0.9)]
    for _ in range(12):
        alpha = rng.uniform(0.0, 0.4)
        cases.append((
            rng.standard_normal(int(rng.integers(2, 3000))) * rng.uniform(0.002, 0.03),
            rng.uniform(1e-7, 1e-4), alpha, rng.uniform(0.0, 0.99 - alpha),
        ))
    for u, omega, alpha, beta in cases:
        assert garch_log_likelihood(u, omega, alpha, beta) == oracles.garch_log_likelihood(
            u, omega, alpha, beta
        )


def test_garch_log_likelihood_rejects_nonstationary_parameters():
    with pytest.raises(InvalidInputError):
        garch_log_likelihood(np.array([0.01, 0.02]), 1e-5, 0.5, 0.5)


@pytest.mark.parametrize("returns", [np.zeros(0), np.zeros((2, 2))], ids=["empty", "2-d"])
def test_garch_log_likelihood_needs_a_1d_series_of_returns(returns):
    with pytest.raises(InvalidInputError, match="returns must be a non-empty 1-d array"):
        garch_log_likelihood(returns, 1e-5, 0.05, 0.9)


def test_fit_recovers_likelihood_of_the_generating_parameters():
    # On a long simulated series the fitted parameters must be at least as
    # likely as the truth (they maximize this criterion), and materially
    # better than a flattened alternative.
    u = simulate_garch_returns(4000, **TRUE, seed=12)
    fit = fit_garch(u)
    ll_true = garch_log_likelihood(u, **TRUE)
    assert fit.log_likelihood >= ll_true - 1e-6
    ll_flat = garch_log_likelihood(u, float(np.var(u)) * 0.5, 0.25, 0.25)
    assert fit.log_likelihood > ll_flat
    # variance targeting: implied stationary variance equals the sample variance
    implied = fit.params.omega / (1.0 - fit.params.alpha - fit.params.beta)
    assert implied == pytest.approx(fit.sample_variance, rel=1e-9)
    assert fit.n_obs == 4000
    assert fit.converged


def test_fit_recovers_parameters_on_a_long_series():
    u = simulate_garch_returns(20_000, **TRUE, seed=5)
    fit = fit_garch(u)
    assert fit.params.alpha == pytest.approx(TRUE["alpha"], abs=0.03)
    assert fit.params.beta == pytest.approx(TRUE["beta"], abs=0.05)


def _rosenbrock(z):
    return 100.0 * (z[1] - z[0] ** 2) ** 2 + (1.0 - z[0]) ** 2


def _rosenbrock_cut(z):
    # infinite on half the plane, the minimum on the boundary
    return math.inf if z[0] + z[1] > 1.5 else _rosenbrock(z)


def _terraces(z):
    # piecewise constant: reflected and contracted points often tie
    return math.floor(4.36 * abs(z[0] - 1.38)) + math.floor(0.65 * abs(z[1] + 1.95))


def _garch_objective(returns):
    var = float(np.var(returns))

    def negloglik(z):
        alpha, beta = calibrate._unpack(z)
        return -garch_log_likelihood(returns, var * (1.0 - alpha - beta), alpha, beta)

    return negloglik


def _counted(fun):
    calls = []

    def wrapped(z):
        value = fun(z)
        calls.append(value)
        return value

    return wrapped, calls


def test_nelder_mead_reproduces_scipy_bit_for_bit():
    minimize = pytest.importorskip("scipy.optimize").minimize
    garch = _garch_objective(simulate_garch_returns(300, **TRUE, seed=3))
    cases = {
        f"garch start {a0, b0}": (
            garch,
            (calibrate._logit(min((a0 + b0) / 0.9999, 0.999)), calibrate._logit(a0 / (a0 + b0))),
            1e-8, 1e-10,
        )
        for a0, b0 in calibrate._STARTS
    }
    cases["rosenbrock"] = (_rosenbrock, (-1.2, 1.0), 1e-8, 1e-10)
    cases["budget"] = (_rosenbrock, (-30.0, 40.0), 1e-300, 0.0)
    cases["zero coordinate"] = (_rosenbrock, (0.0, 2.0), 1e-8, 1e-10)
    cases["infinite half-plane"] = (_rosenbrock_cut, (-1.2, 1.0), 1e-8, 1e-10)
    cases["ties"] = (_terraces, (7.3, 0.8), 1e-8, 1e-10)
    outcomes = {}
    for name, (fun, x0, xatol, fatol) in cases.items():
        ours, our_calls = _counted(fun)
        x, value, converged = calibrate._nelder_mead(ours, x0, xatol=xatol, fatol=fatol)
        theirs, their_calls = _counted(fun)
        ref = minimize(theirs, x0, method="Nelder-Mead", options={"xatol": xatol, "fatol": fatol})
        assert [v.hex() for v in x.tolist()] == [v.hex() for v in ref.x.tolist()], name
        assert value.hex() == float(ref.fun).hex(), name
        assert converged == ref.success, name
        # every evaluation, in order, with the same value
        assert our_calls == their_calls and len(our_calls) == ref.nfev, name
        outcomes[name] = converged, our_calls
    assert outcomes["budget"][0] is False and len(outcomes["budget"][1]) == 400
    assert all(converged for name, (converged, _) in outcomes.items() if name != "budget")
    assert math.inf in outcomes["infinite half-plane"][1]


def test_fit_requires_enough_data_and_finite_variance():
    with pytest.raises(InsufficientDataError):
        fit_garch(np.zeros(MIN_RETURNS - 1) + 0.01)
    with pytest.raises(InvalidInputError):
        fit_garch(np.zeros(MIN_RETURNS))  # zero variance
    bad = np.full(MIN_RETURNS, 0.01)
    bad[3] = np.nan
    with pytest.raises(InvalidInputError):
        fit_garch(bad)


def test_closes_by_date_dedupes_and_sorts(tmp_path):
    path = tmp_path / "chain.csv"
    path.write_text("\n".join([
        ",".join(CANONICAL_COLUMNS),
        *(f"{date},2019-12-20,100.0,C,,,5.0,1.0,{close}," for date, close in
          [("2019-01-03", 101.0), ("2019-01-02", 100.0), ("2019-01-03", 999.0)]),
    ]) + "\n")
    chain, rejects = load_chain(path)
    assert len(chain) == 3 and not rejects
    assert closes_by_date(chain) == [
        (dt.date(2019, 1, 2), 100.0),
        (dt.date(2019, 1, 3), 101.0),  # first quote for a date wins
    ]
