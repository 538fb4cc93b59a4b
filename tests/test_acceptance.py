"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.  The heavier criteria (4, 6, 8) take tens of seconds each.
"""

import math

import numpy as np

import latticemarket as lm
from latticemarket import dynamics, theory
from latticemarket.theory import PUBLISHED_EXPONENT_TABLE, PropagatorModel
from test_theory import quadpack_predictions

TC = dynamics.CRITICAL_TEMPERATURE_2D


def report(criterion, text):
    print(f"\nACCEPTANCE {criterion}: PASS  ({text})")


# -- 1: Table 1 fidelity -------------------------------------------------------

def test_criterion_1_table_fidelity():
    expected = {
        4.0: (0.00, 2.000, 1.000),
        3.5: (0.002, 2.001, 0.998),
        3.0: (0.036, 2.024, 0.970),
        2.5: (0.106, 2.071, 0.915),
        2.0: (0.250, 2.167, 0.808),
        1.5: (0.523, 2.352, 0.628),
    }
    checked = 0
    for d, eta, z, kappa_published in PUBLISHED_EXPONENT_TABLE:
        exp_eta, exp_z, exp_kappa = expected[d]
        assert eta == exp_eta and z == exp_z and kappa_published == exp_kappa
        checked += 3
    assert checked == 18
    for row in lm.critical_exponent_table():
        assert abs(row.kappa - (2.0 - row.eta) / row.z) <= 1e-9
    report(1, "all 18 published numbers exact; kappa identity to 1e-9")


# -- 2: dimension inference round-trip ----------------------------------------

def test_criterion_2_dimension_roundtrip():
    d_hat = lm.dimension_for_kappa(0.96)
    assert abs(d_hat - 2.9) <= 0.1
    for d in np.linspace(1.5, 4.0, 251):
        kappa = theory.kappa_for_dimension(float(d))
        back = lm.dimension_for_kappa(kappa)
        assert abs(back - d) <= 1e-6
        assert abs(theory.kappa_for_dimension(back) - kappa) <= 1e-6
    report(2, f"kappa=0.96 -> D={d_hat:.3f}; inversion identity to 1e-6")


# -- 3: closed forms vs QUADPACK -----------------------------------------------

def test_criterion_3_closed_vs_quadrature():
    checks = 0
    for kappa in (0.6, 0.9, 0.97, 1.0):
        for tau in (2.0 ** 6, 2.0 ** 11):
            for regime in ("scaling", "exponential", "matched"):
                model = PropagatorModel(
                    tau=tau, kappa=kappa, regime=regime,
                    t_star=tau / 2.0 if regime == "matched" else None)
                for k in range(1, 11):
                    horizon = 2.0 ** k
                    if regime == "scaling" and horizon > tau / 4.0:
                        continue
                    ours = (lm.predicted_trend_return_correlation(
                                model, 2.0 / horizon),
                            lm.predicted_trend_variance(model, horizon, "phi"),
                            lm.predicted_trend_variance(model, horizon,
                                                        "tilde"))
                    for closed, quad in zip(
                            ours, quadpack_predictions(model, horizon)):
                        assert quad is not None
                        if closed == 0.0:
                            assert abs(quad) <= 1e-12
                        else:
                            assert abs(quad / closed - 1.0) <= 1e-10
                        checks += 1
    report(3, f"{checks} QUADPACK/closed-form pairs within 1e-10 relative")


# -- 4: phase transition at desk scale ----------------------------------------

def jackknife_binder(values, n_blocks=20):
    blocks = np.array_split(values, n_blocks)
    estimates = []
    for i in range(n_blocks):
        rest = np.concatenate([b for j, b in enumerate(blocks) if j != i])
        estimates.append(dynamics.binder_cumulant(rest))
    estimates = np.asarray(estimates)
    err = math.sqrt((n_blocks - 1) * np.var(estimates))
    return dynamics.binder_cumulant(values), err


def test_criterion_4_phase_transition():
    n_sites = 32 * 32
    low = lm.run_simulation(lm.SimulationParams(
        dims=2, side=32, init="all_up", temperature=0.9 * TC,
        sweeps=20000, burn_in=2000, seed=41))
    frac_low = float(np.mean(np.abs(low.values)) / n_sites)
    assert frac_low > 0.3
    high = lm.run_simulation(lm.SimulationParams(
        dims=2, side=32, init="random", temperature=1.5 * TC,
        sweeps=20000, burn_in=2000, seed=42))
    frac_high = float(np.mean(np.abs(high.values)) / n_sites)
    assert frac_high < 0.1

    binders = {}
    for side, seed in ((8, 43), (16, 44)):
        series = lm.run_simulation(lm.SimulationParams(
            dims=2, side=side, init="random", temperature=TC,
            sweeps=60000, burn_in=6000, seed=seed))
        binders[side] = jackknife_binder(series.values)
    (u8, e8), (u16, e16) = binders[8], binders[16]
    joint = math.hypot(e8, e16)
    assert abs(u8 - u16) <= 3.0 * joint
    report(4, f"|M|/N = {frac_low:.3f} vs {frac_high:.3f}; "
              f"Binder {u8:.4f}+-{e8:.4f} / {u16:.4f}+-{e16:.4f} "
              f"({abs(u8 - u16) / joint:.2f} joint sigma)")


# -- 5: estimator model consistency --------------------------------------------

def closed_form_weights(kind, horizon, n):
    """w(0..n-1): T^(-1/2) for n < T, M_T e^(-2n/T) or N_T (n+1) e^(-2n/T)."""
    lags = np.arange(n)
    if kind == "step":
        return np.where(lags < horizon, 1.0 / math.sqrt(horizon), 0.0)
    y = math.exp(-4.0 / horizon)
    if kind == "psi":
        return math.sqrt(1.0 - y) * np.exp(-2.0 * lags / horizon)
    n_t = (1.0 - y) ** 2 / math.sqrt(1.0 - y * y)
    return n_t * (lags + 1) * np.exp(-2.0 * lags / horizon)


def test_criterion_5_estimator_consistency():
    # the weights are the impulse response of trend_strength
    for k in range(1, 14):
        horizon = 2 ** k
        unit = lm.ReturnSeries(values=np.eye(1, 16 * horizon + 1)[0],
                               mu=0.0, sigma=1.0)
        for kind in ("step", "psi", "phi"):
            w = lm.trend_strength(unit, kind, horizon).values
            assert abs(np.dot(w, w) - 1.0) <= 1e-10

    rng = np.random.default_rng(51)
    rets_small = lm.normalize_raw_returns(rng.standard_normal(1000))
    rets_large = lm.normalize_raw_returns(rng.standard_normal(5000))
    worst = 0.0
    for rets, horizon in ((rets_small, 16.0), (rets_large, 1024.0)):
        excess = rets.excess()
        for kind in ("psi", "phi"):
            rec = lm.trend_strength(rets, kind, horizon)
            weights = closed_form_weights(kind, horizon, excess.size)
            direct = np.convolve(excess, weights)[:excess.size]
            dev = float(np.max(np.abs(rec.values - direct)))
            worst = max(worst, dev)
            assert dev <= 1e-9

    rets = lm.normalize_raw_returns(
        np.random.default_rng(52).standard_normal(100000))
    for kind in ("step", "psi", "phi"):
        trend = lm.trend_strength(rets, kind, 64)
        x = trend.values[lm.trends.statistical_warmup(kind, 64):]
        weights = closed_form_weights(kind, 64, 16 * 64)
        rho = np.correlate(weights, weights, "full")
        n_eff = x.size / float(np.sum(rho * rho))
        tol = 3.0 * math.sqrt(2.0 / n_eff)
        assert abs(np.var(x, ddof=1) - 1.0) <= tol
    report(5, f"sum w^2 = 1 (1e-10) for k=1..13; recursion max dev "
              f"{worst:.2e} <= 1e-9; trend variance 1 within 3 sigma")


# -- 6: regression pipeline recovery -------------------------------------------

def test_criterion_6_regression_recovery():
    coeffs = (0.0133, 0.0129, -0.0062)
    rng = np.random.default_rng(61)
    n = 180_000
    x = rng.standard_normal(n)
    signal = coeffs[0] + coeffs[1] * x + coeffs[2] * x ** 3

    clean = lm.fit_cubic(lm.moment_sums(x, signal))
    for got, want in zip(clean.coefficients, coeffs):
        assert abs(got - want) <= 1e-10

    y = signal + rng.standard_normal(n)
    noisy = lm.fit_cubic(lm.moment_sums(x, y))
    boot = lm.bootstrap_errors(lm.moment_sums(x, y), 400, seed=62)
    for got, want, se in zip(noisy.coefficients, coeffs,
                             boot.standard_errors):
        assert abs(got - want) <= 3.0 * se

    # bootstrap SE vs Monte-Carlo SE across 200 independent datasets
    n_small, trials = 4000, 200
    estimates = np.empty((trials, 3))
    boot_ses = np.empty((trials, 3))
    for trial in range(trials):
        rng_t = np.random.default_rng(6300 + trial)
        xt = rng_t.standard_normal(n_small)
        yt = (coeffs[0] + coeffs[1] * xt + coeffs[2] * xt ** 3
              + rng_t.standard_normal(n_small))
        estimates[trial] = lm.fit_cubic(lm.moment_sums(xt, yt)).coefficients
        boot_ses[trial] = lm.bootstrap_errors(
            lm.moment_sums(xt, yt), 150, seed=6300 + trial).standard_errors
    mc_se = estimates.std(axis=0, ddof=1)
    mean_boot = boot_ses.mean(axis=0)
    ratios = mean_boot / mc_se
    assert np.all(ratios >= 0.8) and np.all(ratios <= 1.2)

    # self-consistency: the trials above also bound the coverage of the
    # 3-bootstrap-SE recovery band (expected ~99.7% per coefficient)
    covered = np.all(
        np.abs(estimates - np.asarray(coeffs)) <= 3.0 * boot_ses, axis=1)
    assert covered.mean() >= 0.95
    report(6, f"noiseless exact; noisy within 3 bootstrap SE; "
              f"bootstrap/MC SE ratios {np.round(ratios, 3)}; "
              f"coverage {covered.mean():.1%}")


# -- 7: Hurst suite --------------------------------------------------------------

def test_criterion_7_hurst_suite():
    horizons = [2 ** k for k in range(1, 9)]
    path = np.cumsum(np.random.default_rng(71).standard_normal(100000))
    fits = lm.moment_scaling([path], [1.0, 2.0, 3.0, 4.0], horizons)
    for q, fit in fits.items():
        assert abs(fit.exponent - 0.5) <= 0.02

    fgn = lm.fractional_gaussian_noise(2 ** 15, 0.7, seed=74)
    h2 = lm.moment_scaling([np.cumsum(fgn)], [2.0], horizons)[2.0].exponent
    assert abs(h2 - 0.7) <= 0.03

    predicted = [lm.predicted_hurst(d) for d in (2.0, 3.0, 4.0)]
    assert round(predicted[0], 2) == 0.40
    assert round(predicted[1], 3) == 0.485
    assert round(predicted[2], 2) == 0.50
    report(7, f"iid H_q in 0.5+-0.02; fGn H2={h2:.3f} (0.7+-0.03); "
              f"predicted H = {[round(h, 3) for h in predicted]}")


# -- 8: end-to-end scaling loop ---------------------------------------------------

def variance_curve(path, ks):
    out = []
    for k in ks:
        horizon = 2 ** k
        diffs = path[horizon:] - path[:-horizon]
        out.append(float(np.mean(diffs ** 2) / horizon))
    return np.asarray(out)


def test_criterion_8_end_to_end_dimension_recovery():
    n = 2 ** 15
    ks = np.arange(1, 11)
    n_replicas = 8
    recovered = {}
    for d_true, master_seed in ((2.0, 81), (3.0, 82)):
        kappa = theory.kappa_for_dimension(d_true)
        model = PropagatorModel(tau=2.0 ** 12, kappa=kappa, regime="scaling")
        seeds = np.random.SeedSequence(master_seed).generate_state(n_replicas)
        curves = np.array([
            variance_curve(
                lm.gaussian_process_from_propagator(model, n, int(s)), ks)
            for s in seeds])
        pooled = [(float(k), float(v))
                  for k, v in zip(ks, curves.mean(axis=0))]
        weights = n_replicas * n / 2.0 ** ks   # effective windows per point
        fit = lm.fit_kappa(pooled, weights=weights)
        kappa_hat = min(fit.exponent, 1.0)
        d_hat = lm.dimension_for_kappa(kappa_hat)
        recovered[d_true] = d_hat
        assert abs(d_hat - d_true) <= 0.15
    report(8, "recovered D = "
              f"{recovered[2.0]:.3f} (true 2), {recovered[3.0]:.3f} (true 3)")


# -- 9: sign law -------------------------------------------------------------------

def test_criterion_9_sign_law():
    for kappa in (0.6, 0.808, 0.9, 0.97):
        for regime, tau in (("scaling", 4096.0), ("exponential", 64.0)):
            model = PropagatorModel(tau=tau, kappa=kappa, regime=regime)
            for t in (0.25, 1.0, 4.0, 32.0, 512.0):
                if regime == "scaling" and t > tau:
                    continue
                assert lm.predicted_return_autocorrelation(model, t) < 0.0
    flat = PropagatorModel(tau=4096.0, kappa=1.0, regime="scaling")
    assert lm.predicted_return_autocorrelation(flat, 8.0) == 0.0

    z_scores = []
    cases = (
        PropagatorModel(tau=4096.0, kappa=0.808, regime="scaling"),
        PropagatorModel(tau=8.0, kappa=0.9, regime="exponential"),
    )
    for i, model in enumerate(cases):
        path = lm.gaussian_process_from_propagator(model, 2 ** 14,
                                                   seed=91 + i)
        inc = np.diff(path)
        rho = float(np.corrcoef(inc[1:], inc[:-1])[0, 1])
        z = rho * math.sqrt(inc.size - 1)
        z_scores.append(z)
        assert z < -2.326   # one-sided 99% confidence
    report(9, f"-Delta'' <= 0 on the grid; increment lag-1 z-scores "
              f"{np.round(z_scores, 1)} (< -2.326)")
