"""Release gates: every check the library must pass before a cut.

Each test prints exactly one verdict line (PASS/FAIL with the measured
numbers) on the real stdout so the gate summary survives pytest capture.
Tolerances and runtime budgets are part of the gate, not advisory.

The particle-bound error-ordering gate runs on the linear block's model
with a quadratic term added to the measurement (y = C x + b x_0^2 + z).
On the purely linear model the bound's Monte-Carlo blocks are constants,
so every particle count reproduces the exact recursion to rounding and
the error cannot shrink with n. The state-dependent measurement Jacobian
makes the D22 average depend on the particles, and the closed-form bound
of that model (``oracles.quadratic_measurement_information``) is the
reference the error is measured against.
"""

import csv
import datetime as dt
import time
from pathlib import Path

import numpy as np
from scipy import stats

import oracles
from volswitch.backtest import rmse, run_backtest, vol_points_from_decision_log
from volswitch.bsgarch import (
    BsGarchModel,
    ContractSpec,
    ExogenousInputs,
    GarchParams,
    ModelSpec,
    NoiseSpec,
)
from volswitch.cli import main
from volswitch.config import RunConfig
from volswitch.filters import (
    FilterId,
    GaussianBelief,
    ParticleCloud,
    ekf_update,
    pf_update,
    systematic_resample,
    ukf_update,
)
from volswitch.marketdata import build_series, generate_synthetic, truth_to_chain
from volswitch.pcrlb import initial_information, pcrlb_step
from models import LinearGaussianModel
from volswitch.switching import (
    EstimationSettings,
    perf_metric,
    run_adaptive_estimation,
    select_average,
)

DATA_DIR = Path(__file__).resolve().parents[1] / "data"

REF_CALL = 10.450583572185567  # S=K=100, r=0.05, sigma=0.2, tau=1


def _verdict(capsys, label: str, ok: bool, detail: str) -> None:
    state = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\ngate {label:<42s} {state}  ({detail})", flush=True)


# ---------------------------------------------------------------------------
# pricing


def test_gate_pricing_parity_and_reference(capsys):
    """Put-call parity over a wide random grid, plus the frozen reference
    value cross-checked against an independent Monte-Carlo price."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    n = 10_000
    s = rng.uniform(20.0, 300.0, n)
    k = rng.uniform(20.0, 300.0, n)
    r = rng.uniform(0.0, 0.12, n)
    sigma = rng.uniform(0.01, 0.90, n)
    tau = rng.uniform(1e-3, 3.0, n)

    # the adapter only reads the contract and annualization from its spec
    model = BsGarchModel(ModelSpec(
        garch=GarchParams(1e-5, 0.05, 0.90),
        contract=ContractSpec(strike=100.0, expiry_step=252),
        noise=NoiseSpec(q=np.diag([1e-10, 1e-8]), r=1.0),
        dt=1.0 / 252.0,
    ))

    def price(state, spot, years, contract):
        ex = ExogenousInputs(s=spot, u=0.0, tau=years, contract=contract)
        return float(model.measurement(state, ex)[0])

    worst = 0.0
    for i in range(n):
        state = np.array([sigma[i] ** 2 / 252.0, r[i]])
        call = price(state, s[i], tau[i], ContractSpec(strike=k[i], expiry_step=1))
        put = price(state, s[i], tau[i], ContractSpec(strike=k[i], expiry_step=1, is_call=False))
        gap = abs(call - put - (s[i] - k[i] * np.exp(-r[i] * tau[i])))
        worst = max(worst, gap / s[i])

    ref_state = np.array([0.2 ** 2 / 252.0, 0.05])
    ref = price(ref_state, 100.0, 1.0, ContractSpec(strike=100.0, expiry_step=252))
    ref_err = abs(ref - REF_CALL)
    assert abs(oracles.bs_call(100.0, 100.0, 0.05, 0.2, 1.0) - REF_CALL) < 1e-12
    mc, stderr = oracles.mc_call(100.0, 100.0, 0.05, 0.2, 1.0, n_paths=10_000_000, seed=1)
    mc_gap = abs(mc - REF_CALL)

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and ref_err < 1e-4 and mc_gap < 4.0 * stderr and elapsed < 10.0
    _verdict(
        capsys,
        "pricing parity + reference value",
        ok,
        f"parity {worst:.2e}, ref err {ref_err:.2e}, mc gap {mc_gap:.2e} "
        f"(4se {4 * stderr:.2e}), {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# jacobians


def test_gate_jacobians_match_finite_differences(capsys):
    t0 = time.perf_counter()
    model = BsGarchModel(ModelSpec(
        garch=GarchParams(1e-5, 0.05, 0.90),
        contract=ContractSpec(strike=100.0, expiry_step=252),
        noise=NoiseSpec(q=np.diag([1e-10, 1e-8]), r=1.0),
        dt=1.0 / 252.0,
    ))
    rng = np.random.default_rng(7)
    worst_meas = 0.0
    worst_trans = 0.0
    for i in range(1000):
        v = rng.uniform(2e-5, 5e-3)
        r = rng.uniform(0.002, 0.10)
        contract = ContractSpec(strike=100.0, expiry_step=252, is_call=bool(i % 2))
        ex = ExogenousInputs(
            s=rng.uniform(70.0, 140.0), u=rng.uniform(-0.05, 0.05), tau=rng.uniform(0.05, 2.0),
            contract=contract,
        )
        x = np.array([v, r])
        h = np.array([max(v * 1e-5, 1e-9), 1e-6])

        analytic = model.measurement_jacobian(x, ex).ravel()
        fd = oracles.central_difference(lambda y: model.measurement(y, ex)[0], x, h)
        worst_meas = max(worst_meas, float(np.max(np.abs(fd - analytic) / np.abs(analytic))))

        a_trans = model.f
        fd_t = np.vstack([
            oracles.central_difference(lambda y: model.transition(y, ex)[row], x, h)
            for row in (0, 1)
        ])
        gap = np.abs(fd_t - a_trans) / np.maximum(np.abs(a_trans), 1e-6)
        worst_trans = max(worst_trans, float(np.max(gap)))

    elapsed = time.perf_counter() - t0
    ok = worst_meas < 1e-5 and worst_trans < 1e-5 and elapsed < 5.0
    _verdict(
        capsys,
        "jacobians vs central differences",
        ok,
        f"measurement {worst_meas:.2e}, transition {worst_trans:.2e}, {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# linear-Gaussian oracle block (shared 2-D model, weak observation)

A_LIN = np.array([[0.8, 0.1], [0.0, 0.75]])
C_LIN = np.array([[1.0, 0.5]])
Q_LIN = np.diag([0.08, 0.06])
R_LIN = np.array([[1.0]])
X0_LIN = np.zeros(2)
P0_LIN = np.diag([0.5, 0.5])

_LINEAR_BLOCK_ELAPSED: list[float] = []


def _bound_trace_errors(seed: int, n: int, n_steps: int) -> list[float]:
    """Relative trace gap |tr J^-1 - tr P| / tr P per step, one filter chain.

    The recursion consumes one observation per step, so J after k steps is
    compared against the Kalman posterior covariance after k updates.
    """
    model = LinearGaussianModel(A_LIN, C_LIN, Q_LIN, R_LIN)
    rng = np.random.default_rng(seed)
    _, ys = oracles.simulate_linear(A_LIN, C_LIN, Q_LIN, R_LIN, X0_LIN, P0_LIN, n_steps, rng)
    means, covs = oracles.kalman_filter(ys, A_LIN, C_LIN, Q_LIN, R_LIN, X0_LIN, P0_LIN)
    j, _ = initial_information(P0_LIN)
    prior = GaussianBelief(X0_LIN, P0_LIN)
    bound_rng = np.random.default_rng(10_000 * seed + n)
    errs = []
    for t in range(n_steps):
        j, j_inv = pcrlb_step(j, prior, None, model, n, bound_rng)
        tr_p = float(np.trace(covs[t]))
        errs.append(abs(float(np.trace(j_inv)) - tr_p) / tr_p)
        prior = GaussianBelief(means[t], covs[t])
    return errs


B_QUAD = np.array([0.2])


class QuadraticMeasurementModel(LinearGaussianModel):
    """x' = A x + w, y = C x + b x_0^2 + z: the measurement Jacobian depends on the state."""

    def __init__(self, a, c, q, r, b):
        super().__init__(a, c, q, r)
        self.b = np.asarray(b, dtype=float)

    def measurement_batch(self, states, ex):
        return super().measurement_batch(states, ex) + states[:, :1] ** 2 * self.b

    def measurement_jacobian_batch(self, states, ex):
        jac = np.repeat(self.c[None], states.shape[0], axis=0)
        jac[:, :, 0] += 2.0 * states[:, :1] * self.b
        return jac


def _quadratic_bound_error(seed: int, n: int, n_steps: int) -> float:
    """Mean relative trace gap |tr J^-1 - tr J_exact^-1| / tr J_exact^-1 over the steps.

    The beliefs each step seeds from are the EKF posteriors of the same
    simulated run, shared by the particle bound and the exact one.
    """
    model = QuadraticMeasurementModel(A_LIN, C_LIN, Q_LIN, R_LIN, B_QUAD)
    rng = np.random.default_rng(seed)
    xs, ys = oracles.simulate_linear(A_LIN, C_LIN, Q_LIN, R_LIN, X0_LIN, P0_LIN, n_steps, rng)
    ys = ys + xs[:, :1] ** 2 * B_QUAD
    means, covs = oracles.extended_kalman_quadratic(
        ys, A_LIN, C_LIN, B_QUAD, Q_LIN, R_LIN, X0_LIN, P0_LIN
    )
    beliefs = [(X0_LIN, P0_LIN)] + list(zip(means[:-1], covs[:-1]))
    exact = oracles.quadratic_measurement_information(
        A_LIN, C_LIN, B_QUAD, Q_LIN, R_LIN, P0_LIN, beliefs
    )
    j, _ = initial_information(P0_LIN)
    bound_rng = np.random.default_rng(10_000 * seed + n)
    errs = []
    for t, (mean, cov) in enumerate(beliefs):
        j, j_inv = pcrlb_step(j, GaussianBelief(mean, cov), None, model, n, bound_rng)
        tr_exact = float(np.trace(np.linalg.inv(exact[t])))
        errs.append(abs(float(np.trace(j_inv)) - tr_exact) / tr_exact)
    return float(np.mean(errs))


def test_gate_gaussian_filters_match_kalman(capsys):
    t0 = time.perf_counter()
    model = LinearGaussianModel(A_LIN, C_LIN, Q_LIN, R_LIN)
    rng = np.random.default_rng(3)
    _, ys = oracles.simulate_linear(A_LIN, C_LIN, Q_LIN, R_LIN, X0_LIN, P0_LIN, 50, rng)
    means, covs = oracles.kalman_filter(ys, A_LIN, C_LIN, Q_LIN, R_LIN, X0_LIN, P0_LIN)
    worst = 0.0
    ekf = ukf = GaussianBelief(X0_LIN, P0_LIN)
    for t, y in enumerate(ys):
        ekf = ekf_update(ekf, y, None, model)
        ukf = ukf_update(ukf, y, None, model)
        for belief in (ekf, ukf):
            worst = max(
                worst,
                float(np.max(np.abs(belief.mean - means[t]))),
                float(np.max(np.abs(belief.cov - covs[t]))),
            )
    elapsed = time.perf_counter() - t0
    _LINEAR_BLOCK_ELAPSED.append(elapsed)
    ok = worst <= 1e-8
    _verdict(capsys, "ekf/ukf vs exact kalman", ok, f"max abs dev {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_gate_particle_filter_consistency_bands(capsys):
    """Final-step PF summary mean inside 3 sigma/sqrt(N) of the exact
    posterior, per component, in at least 95 of 100 seeded trials."""
    t0 = time.perf_counter()
    model = LinearGaussianModel(A_LIN, C_LIN, Q_LIN, R_LIN)
    n = 10_000
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        _, ys = oracles.simulate_linear(A_LIN, C_LIN, Q_LIN, R_LIN, X0_LIN, P0_LIN, 10, rng)
        means, covs = oracles.kalman_filter(ys, A_LIN, C_LIN, Q_LIN, R_LIN, X0_LIN, P0_LIN)
        cloud = ParticleCloud.uniform(
            X0_LIN + rng.standard_normal((n, 2)) @ np.linalg.cholesky(P0_LIN).T
        )
        for y in ys:
            cloud, summary = pf_update(cloud, y, None, model, rng)
        band = 3.0 * np.sqrt(np.diag(covs[-1])) / np.sqrt(n)
        hits += bool(np.all(np.abs(summary.mean - means[-1]) < band))
    elapsed = time.perf_counter() - t0
    _LINEAR_BLOCK_ELAPSED.append(elapsed)
    ok = hits >= 95
    _verdict(capsys, "particle filter consistency bands", ok, f"{hits}/100 trials inside, {elapsed:.1f}s")
    assert ok


def test_gate_particle_bound_trace_accuracy(capsys):
    t0 = time.perf_counter()
    errs = _bound_trace_errors(seed=0, n=5000, n_steps=50)
    elapsed = time.perf_counter() - t0
    _LINEAR_BLOCK_ELAPSED.append(elapsed)
    ok = max(errs) < 0.10
    _verdict(
        capsys,
        "particle bound trace vs kalman cov",
        ok,
        f"max rel trace gap {max(errs):.2e} over 50 steps at n=5000, {elapsed:.1f}s",
    )
    assert ok


def test_gate_particle_bound_error_ordering(capsys):
    """More particles should shrink the bound error: n=5000 strictly below
    n=200 in at least 15 of 20 seeded runs of 8 steps.

    The model is the linear block's with y = C x + b x_0^2 + z. A linear
    measurement would not do: with constant Jacobians the D blocks are
    particle-free constants, both counts reproduce the exact recursion to
    rounding, and the comparison would tie. Here D22 averages a
    state-dependent H' R^-1 H over the predicted cloud, so its Monte-Carlo
    error falls as 1/sqrt(n). The reference is that model's exact bound
    from the same beliefs: the predicted cloud is exactly Gaussian, so
    E[H' R^-1 H] has a closed form, and D11, D12 stay A' Q^-1 A and -A' Q^-1.
    """
    t0 = time.perf_counter()
    wins = 0
    pairs = []
    for seed in range(20):
        e_fine = _quadratic_bound_error(seed, n=5000, n_steps=8)
        e_coarse = _quadratic_bound_error(seed, n=200, n_steps=8)
        pairs.append((e_fine, e_coarse))
        wins += e_fine < e_coarse
    elapsed = time.perf_counter() - t0
    _LINEAR_BLOCK_ELAPSED.append(elapsed)
    block_elapsed = sum(_LINEAR_BLOCK_ELAPSED)
    ok = wins >= 15 and block_elapsed < 120.0
    fine, coarse = np.median(pairs, axis=0)
    _verdict(
        capsys,
        "particle bound error ordering in n",
        ok,
        f"n=5000 wins {wins}/20; median errors fine {fine:.2e} vs coarse "
        f"{coarse:.2e}; block {block_elapsed:.0f}s",
    )
    assert ok, (
        f"n=5000 error below n=200 error in only {wins}/20 seeds, or block "
        f"{block_elapsed:.0f}s over 120s; per-seed (fine, coarse) pairs: {pairs}"
    )


# ---------------------------------------------------------------------------
# performance metric properties


def test_gate_performance_metric_properties(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    fids = (FilterId.EKF, FilterId.UKF, FilterId.PF)
    for _ in range(1000):
        k = int(rng.integers(2, 4))
        metrics, beliefs, bounds = {}, {}, {}
        for fid in fids[:k]:
            j_inv = rng.lognormal(sigma=1.0, size=2)
            p = rng.lognormal(sigma=1.0, size=2)
            belief = GaussianBelief(np.zeros(2), np.diag(p))
            m = perf_metric(fid, np.diag(j_inv), belief)
            assert np.all(np.diag(m.phi) > 0.0)
            metrics[fid], beliefs[fid], bounds[fid] = m, belief, j_inv

            attained = perf_metric(fid, np.diag(j_inv), GaussianBelief(np.zeros(2), np.diag(j_inv)))
            assert attained.trace == 2.0  # bound attained -> trace exactly the state dim

        winner = select_average(metrics, beliefs).chosen[0]
        c = float(rng.uniform(0.1, 10.0))
        scaled = {
            fid: perf_metric(fid, np.diag(bounds[fid] * c), beliefs[fid])
            for fid in metrics
        }
        assert select_average(scaled, beliefs).chosen[0] is winner
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    _verdict(
        capsys,
        "performance metric properties",
        ok,
        f"1000 sets: positive, attained trace exact, scale-invariant argmax, {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# switching efficacy on synthetic ground truth

_RMSE_SCALE = np.array([1.6e-4, 0.01])  # fixed units: stationary variance level, 100bp


def _state_rmse(records, truth) -> float:
    est = np.array([rec.decision.estimate for rec in records])
    return float(np.sqrt(np.mean(((est - truth.states) / _RMSE_SCALE) ** 2)))


def test_gate_adaptive_switching_efficacy(capsys):
    """AAF against each filter run alone, 20 seeded runs of T=150.

    The generator is bursty (alpha=0.20) while the estimation model assumes
    smoother dynamics with inflated process noise — the calibration-error
    setting switching is for. True states are known exactly for scoring;
    errors are scaled per component by fixed units so both components count.

    Every filter is scored against one bound, seeded from each step's
    decision: the ratio reads 0.964 with 12 wins. The pass depends on the
    truth starting at the filters' prior mean, x0 = (1.6e-4, 0.02)
    (ROADMAP tables E and K). Its rate stays within about 0.001 of it, so
    a filter that learns little about r still scores well on r: with r0
    drawn from the filters' own prior, AAF scores a ratio of 1.111 with 8
    wins on these seeds and fails on the ratio. It no longer rests on the
    bound's random keying: re-keying the bound's one stream four ways
    changes 0.3-0.6% of AAF's choices and keeps the ratio within
    0.964-0.971 and the wins at 11-12.
    """
    t0 = time.perf_counter()
    truth_spec = ModelSpec(
        garch=GarchParams(1.6e-5, 0.20, 0.70),
        contract=ContractSpec(strike=100.0, expiry_step=300),
        noise=NoiseSpec(q=np.diag([2.5e-10, 1e-8]), r=0.05 ** 2),
        dt=1.0 / 252.0,
    )
    filter_spec = ModelSpec(
        garch=GarchParams(1.6e-5, 0.05, 0.85),
        contract=ContractSpec(strike=100.0, expiry_step=300),
        noise=NoiseSpec(q=np.diag([1.5e-9, 1e-7]), r=0.05 ** 2),
        dt=1.0 / 252.0,
    )
    model = BsGarchModel(filter_spec)
    singles = (FilterId.EKF, FilterId.UKF, FilterId.PF)

    rows = []
    for seed in range(20):
        truth = generate_synthetic(truth_spec, 150, 100.0, (1.6e-4, 0.02), seed=seed)
        row = {}
        for fid in singles:
            s = EstimationSettings(
                x0=np.array([1.6e-4, 0.02]), p0=np.diag([1e-8, 1e-4]), filters=(fid,),
                pf_particles=300, seed=seed,
            )
            row[fid.name] = _state_rmse(
                run_adaptive_estimation(truth.observations, truth.exogenous, model, s), truth
            )
        s = EstimationSettings(
            x0=np.array([1.6e-4, 0.02]), p0=np.diag([1e-8, 1e-4]), filters=singles,
            pf_particles=300, pcrlb_particles=300, seed=seed,
        )
        row["AAF"] = _state_rmse(
            run_adaptive_estimation(truth.observations, truth.exogenous, model, s), truth
        )
        rows.append(row)

    medians = {k: float(np.median([r[k] for r in rows])) for k in rows[0]}
    best_single = min(v for k, v in medians.items() if k != "AAF")
    ratio = medians["AAF"] / best_single
    wins = sum(1 for r in rows if r["AAF"] < min(r[k] for k in ("EKF", "UKF", "PF")))
    elapsed = time.perf_counter() - t0
    ok = ratio <= 1.05 and wins >= 8 and elapsed < 600.0
    _verdict(
        capsys,
        "adaptive switching efficacy",
        ok,
        f"median ratio {ratio:.3f} (<=1.05), strict wins {wins}/20 (>=8), {elapsed:.0f}s",
    )
    assert ok, f"medians {medians}, wins {wins}/20"


# ---------------------------------------------------------------------------
# report accounting identities


def test_gate_report_accounting_identities(capsys, tmp_path):
    t0 = time.perf_counter()
    cfg = RunConfig(
        garch_omega=8e-6, garch_alpha=0.10, garch_beta=0.85,
        q11=6.4e-11, q22=1.6e-7, noise_r=2.5e-3, v0=1.6e-4, r0=0.02,
        pf_particles=300, pcrlb_particles=150,
    )
    spec = cfg.model_spec(ContractSpec(strike=100.0, expiry_step=252))
    truth = generate_synthetic(
        spec, 40, 100.0, (cfg.v0, cfg.r0), seed=7, start_date=dt.date(2019, 1, 2)
    )
    chain = truth_to_chain(truth, spec)
    series = build_series(chain, 100.0, chain.expiry_date[0].item())

    bundles = [
        run_backtest(cfg, series, strategy="AAF", out_dir=tmp_path / f"run{i}", seed=3)
        for i in range(2)
    ]
    b = bundles[0]
    t_total = len(b.records)
    sums_ok = all(sum(row.values()) == t_total for row in b.frequency_table.values())

    with open(b.paths["decision_log"]) as fh:
        chosen = [row["chosen"] for row in csv.DictReader(fh)]
    recount = {name: chosen.count(name) for name in b.frequency_table["AAF"]}
    recount_ok = recount == b.frequency_table["AAF"]

    identical = all(
        (tmp_path / "run0" / name).read_bytes() == (tmp_path / "run1" / name).read_bytes()
        for name in (
            "decision_log.csv", "pcrlb_trace.csv", "rmse.csv",
            "frequency.csv", "volatility.csv", "forecasts.csv",
        )
    )
    elapsed = time.perf_counter() - t0
    ok = sums_ok and recount_ok and identical
    _verdict(
        capsys,
        "report accounting identities",
        ok,
        f"rows sum to T={t_total}, log recount matches, same-seed runs byte-identical, "
        f"{elapsed:.0f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# resampling unbiasedness


def test_gate_resampling_unbiasedness(capsys):
    t0 = time.perf_counter()
    vectors = [
        np.full(4, 0.25),
        np.array([0.7, 0.1, 0.1, 0.1]),
        np.array([0.5, 0.5]),
        np.array([0.05, 0.05, 0.1, 0.1, 0.2, 0.2, 0.3]),
        np.array([0.97, 0.01, 0.01, 0.01]),
    ]
    reps = 10_000
    worst = 0.0
    for i, w in enumerate(vectors):
        n = w.size
        rng = np.random.default_rng(1000 + i)
        counts = np.zeros(n)
        for _ in range(reps):
            counts += np.bincount(systematic_resample(w, rng), minlength=n)
        expected = reps * n * w
        stat = float(np.sum((counts - expected) ** 2 / expected))
        crit = float(stats.chi2.ppf(0.99, n - 1))
        worst = max(worst, stat / crit)
    elapsed = time.perf_counter() - t0
    ok = worst < 1.0 and elapsed < 30.0
    _verdict(
        capsys,
        "systematic resampling unbiasedness",
        ok,
        f"worst chi2/critical {worst:.3f} over 5 vectors x {reps} reps, {elapsed:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# forecast error metric


def test_gate_rmse_worked_examples(capsys):
    zero = rmse(np.full(10, 5.0), np.full(10, 5.0), 100.0)
    const = rmse(np.full(10, 5.5), np.full(10, 5.0), 100.0)
    mixed = rmse(np.array([1.0, 2.0, 2.0]), np.zeros(3), 100.0)
    ok = (
        abs(zero) < 1e-12
        and abs(const - 0.05) < 1e-12
        and abs(mixed - 0.17320508075688773) < 1e-12
    )
    _verdict(
        capsys,
        "rmse worked examples",
        ok,
        f"zero {zero!r}, const {const!r}, mixed {mixed!r}",
    )
    assert ok


# ---------------------------------------------------------------------------
# end-to-end smoke on the bundled sample chain


def test_gate_end_to_end_sample_backtest(capsys, tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "reports"
    code = main([
        "backtest", "--chain", str(DATA_DIR / "sample_chain.csv"),
        "--config", str(DATA_DIR / "sample_config.cfg"),
        "--strategy", "AAF", "--out-dir", str(out),
    ])
    files = sorted(p.name for p in out.glob("*.csv")) if out.exists() else []
    elapsed = time.perf_counter() - t0
    expected = [
        "decision_log.csv", "forecasts.csv", "frequency.csv",
        "pcrlb_trace.csv", "rmse.csv", "volatility.csv",
    ]
    ok = code == 0 and files == expected and elapsed < 300.0
    _verdict(
        capsys,
        "end-to-end sample backtest",
        ok,
        f"exit {code}, {len(files)}/6 reports, {elapsed:.0f}s",
    )
    assert ok
    # the decision log the run just wrote must round-trip into the vol report
    points = vol_points_from_decision_log(out / "decision_log.csv")
    assert len(points) == len(list(csv.DictReader(open(out / "decision_log.csv")))) > 0
