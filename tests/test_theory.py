"""Exponent tables, dimension interpolation and propagator predictions."""

import decimal
import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.interpolate import PchipInterpolator
from scipy.special import gamma as gamma_fn, gammainc

import latticemarket as lm
from latticemarket import theory
from latticemarket.theory import (
    DomainError,
    PUBLISHED_EXPONENT_TABLE,
    PropagatorModel,
    kappa_for_dimension,
)

EXPECTED_TABLE = {
    4.0: (0.00, 2.000, 1.000),
    3.5: (0.002, 2.001, 0.998),
    3.0: (0.036, 2.024, 0.970),
    2.5: (0.106, 2.071, 0.915),
    2.0: (0.250, 2.167, 0.808),
    1.5: (0.523, 2.352, 0.628),
}


class TestExponentTable:
    def test_published_numbers(self):
        assert len(PUBLISHED_EXPONENT_TABLE) == 6
        for d, eta, z, kappa in PUBLISHED_EXPONENT_TABLE:
            exp_eta, exp_z, exp_kappa = EXPECTED_TABLE[d]
            assert eta == exp_eta
            assert z == exp_z
            assert kappa == exp_kappa

    def test_rows_satisfy_identity(self):
        for row in lm.critical_exponent_table():
            assert abs(row.kappa - (2.0 - row.eta) / row.z) < 1e-9
            assert 0.0 < row.kappa <= 1.0

    def test_rows_match_published_precision(self):
        published = {d: kappa for d, _, _, kappa in PUBLISHED_EXPONENT_TABLE}
        for row in lm.critical_exponent_table():
            # the published column is rounded (truncated at D=3.5)
            assert abs(row.kappa - published[row.dimension]) < 5.2e-4

    def test_specific_rows(self):
        rows = {r.dimension: r for r in lm.critical_exponent_table()}
        assert rows[3.0].eta == 0.036 and rows[3.0].z == 2.024
        assert rows[2.0].eta == 0.250 and rows[2.0].z == 2.167
        assert rows[4.0].kappa == 1.0

    def test_invalid_exponents_rejected(self):
        with pytest.raises(ValueError):
            lm.CriticalExponents(dimension=3.0, eta=0.036, z=2.024,
                                 kappa=0.93)


class TestDimensionInterpolation:
    def test_nodes_eta_exact_z_close(self):
        for d, eta, z, _ in PUBLISHED_EXPONENT_TABLE:
            row = lm.exponents_for_dimension(d)
            assert row.eta == pytest.approx(eta, abs=1e-12)
            assert abs(row.z - z) <= 0.005

    def test_kappa_at_three(self):
        assert lm.exponents_for_dimension(3.0).kappa == pytest.approx(
            0.970, abs=0.005)
        assert lm.exponents_for_dimension(3.0).kappa == pytest.approx(
            0.9703557312252964, rel=1e-12)

    def test_kappa_at_four_is_one(self):
        assert lm.exponents_for_dimension(4.0).kappa == 1.0

    def test_interpolant_is_monotone(self):
        grid = np.linspace(1.5, 4.0, 101)
        kappas = [kappa_for_dimension(d) for d in grid]
        assert np.all(np.diff(kappas) > 0)
        k325 = kappa_for_dimension(3.25)
        assert kappa_for_dimension(3.0) < k325 < kappa_for_dimension(3.5)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lm.exponents_for_dimension(1.0)
        with pytest.raises(ValueError):
            lm.exponents_for_dimension(4.5)

    def test_matches_scipy_pchip(self):
        rows = sorted(PUBLISHED_EXPONENT_TABLE)
        pchip = PchipInterpolator([r[0] for r in rows], [r[1] for r in rows])
        grid = np.linspace(1.5, 4.0, 10001)
        ours = [lm.exponents_for_dimension(d).eta for d in grid]
        np.testing.assert_allclose(ours, pchip(grid), rtol=0, atol=1e-14)


class TestDimensionForKappa:
    def test_published_inversion(self):
        d = lm.dimension_for_kappa(0.96)
        assert abs(d - 2.9) <= 0.1

    def test_table_value_roundtrip(self):
        assert lm.dimension_for_kappa(0.9703557312252964) == pytest.approx(
            3.0, abs=1e-6)

    def test_boundary(self):
        assert lm.dimension_for_kappa(1.0) == 4.0

    def test_identity_on_grid(self):
        for d in np.linspace(1.5, 4.0, 2501):
            kappa = kappa_for_dimension(d)
            back = lm.dimension_for_kappa(kappa)
            # kappa(D) is flat at D = 4 (eta'(4) = 0): there one rounding
            # of kappa moves D by more than 1e-12, so only kappa round-trips
            if d <= 3.99:
                assert back == pytest.approx(d, abs=1e-12)
            assert kappa_for_dimension(back) == pytest.approx(kappa,
                                                              abs=2e-14)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lm.dimension_for_kappa(0.5)
        with pytest.raises(ValueError):
            lm.dimension_for_kappa(1.01)


class TestPropagator:
    def test_static_limit_both_regimes(self):
        for regime in ("scaling", "exponential"):
            m = PropagatorModel(tau=100.0, kappa=0.9, regime=regime)
            assert lm.propagator(m, 0.0) == pytest.approx(
                0.5 * 100.0 ** 0.9, rel=1e-12)

    def test_exponential_at_tau(self):
        m = PropagatorModel(tau=50.0, kappa=1.0, regime="exponential")
        assert lm.propagator(m, 50.0) == pytest.approx(
            25.0 * math.exp(-1.0), rel=1e-12)

    def test_scaling_reference_value(self):
        m = PropagatorModel(tau=2048.0, kappa=0.97, regime="scaling")
        assert lm.propagator(m, 64.0) == pytest.approx(
            786.3828634837356, rel=1e-12)

    def test_even_in_time(self):
        m = PropagatorModel(tau=64.0, kappa=0.8, regime="exponential")
        assert lm.propagator(m, -5.0) == lm.propagator(m, 5.0)

    def test_scaling_domain(self):
        m = PropagatorModel(tau=32.0, kappa=0.9, regime="scaling")
        with pytest.raises(DomainError):
            lm.propagator(m, 33.0)

    def test_non_increasing(self):
        grid = np.linspace(0.0, 64.0, 200)
        for regime in ("scaling", "exponential"):
            m = PropagatorModel(tau=64.0, kappa=0.75, regime=regime)
            vals = [lm.propagator(m, t) for t in grid]
            assert np.all(np.diff(vals) <= 1e-12)

    def test_matched_regime_continuity(self):
        m = PropagatorModel(tau=64.0, kappa=0.8, regime="matched",
                            t_star=16.0)
        left = lm.propagator(m, 16.0 - 1e-9)
        right = lm.propagator(m, 16.0 + 1e-9)
        assert left == pytest.approx(right, rel=1e-6)
        vals = [lm.propagator(m, t) for t in np.linspace(0, 200, 400)]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            PropagatorModel(tau=-1.0, kappa=0.9)
        with pytest.raises(ValueError):
            PropagatorModel(tau=10.0, kappa=1.2)
        with pytest.raises(ValueError):
            PropagatorModel(tau=10.0, kappa=0.9, regime="matched")
        with pytest.raises(ValueError):
            PropagatorModel(tau=10.0, kappa=0.9, regime="scaling",
                            t_star=5.0)


class TestDerivatives:
    def test_kappa_one_scaling_curvature_vanishes(self):
        m = PropagatorModel(tau=100.0, kappa=1.0, regime="scaling")
        for t in (0.5, 3.0, 50.0):
            _, second = lm.propagator_derivatives(m, t)
            assert second == 0.0

    def test_exponential_reference(self):
        tau = 37.0
        m = PropagatorModel(tau=tau, kappa=1.0, regime="exponential")
        _, second = lm.propagator_derivatives(m, tau)
        assert second == pytest.approx(math.exp(-1.0) / (2.0 * tau),
                                       rel=1e-12)

    @pytest.mark.parametrize("regime", ["scaling", "exponential"])
    def test_finite_difference_oracle(self, regime):
        m = PropagatorModel(tau=256.0, kappa=0.9, regime=regime)
        t = 64.0
        h = t * 1e-4
        first, second = lm.propagator_derivatives(m, t)
        fd_first = (lm.propagator(m, t + h) - lm.propagator(m, t - h)) / (2 * h)
        fd_second = (lm.propagator(m, t + h) - 2 * lm.propagator(m, t)
                     + lm.propagator(m, t - h)) / h ** 2
        assert first == pytest.approx(fd_first, rel=1e-6)
        assert second == pytest.approx(fd_second, rel=1e-6)

    def test_invalid_time(self):
        m = PropagatorModel(tau=10.0, kappa=0.9, regime="exponential")
        with pytest.raises(DomainError):
            lm.propagator_derivatives(m, 0.0)
        with pytest.raises(DomainError):
            lm.propagator_derivatives(m, -1.0)


class TestReturnAutocorrelation:
    def test_kappa_one_scaling_is_zero(self):
        m = PropagatorModel(tau=100.0, kappa=1.0, regime="scaling")
        assert lm.predicted_return_autocorrelation(m, 3.0) == 0.0

    def test_reference_value(self):
        m = PropagatorModel(tau=100.0, kappa=0.97, regime="scaling")
        assert lm.predicted_return_autocorrelation(m, 1.0) == pytest.approx(
            -0.014550, abs=1e-6)

    @pytest.mark.parametrize("regime", ["scaling", "exponential"])
    @pytest.mark.parametrize("kappa", [0.6, 0.808, 0.97])
    def test_purely_negative(self, regime, kappa):
        m = PropagatorModel(tau=512.0, kappa=kappa, regime=regime)
        for t in (0.5, 1.0, 8.0, 100.0):
            assert lm.predicted_return_autocorrelation(m, t) < 0.0


class TestTrendReturnCorrelation:
    def test_kappa_one_scaling_is_zero(self):
        m = PropagatorModel(tau=2048.0, kappa=1.0, regime="scaling")
        val = lm.predicted_trend_return_correlation(m, 2.0 / 16.0)
        assert val == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("kappa", [0.1, 0.2, 0.3, 0.6, 0.9, 0.97])
    def test_scaling_gamma_integral_oracle(self, kappa):
        m = PropagatorModel(tau=4096.0, kappa=kappa, regime="scaling")
        for horizon in (4.0, 64.0):
            omega = 2.0 / horizon
            closed = -2 * omega ** 1.5 * (kappa * (1 - kappa) / 2) \
                * gamma_fn(kappa) * omega ** (-kappa)
            assert lm.predicted_trend_return_correlation(m, omega) == \
                pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("kappa", [0.6, 0.9, 1.0])
    def test_exponential_laplace_oracle(self, kappa):
        tau = 64.0
        m = PropagatorModel(tau=tau, kappa=kappa, regime="exponential")
        for horizon in (4.0, 256.0):
            omega = 2.0 / horizon
            closed = -2 * omega ** 1.5 * (tau ** (kappa - 2) / 2) \
                / (omega + 1 / tau) ** 2
            assert lm.predicted_trend_return_correlation(m, omega) == \
                pytest.approx(closed, rel=1e-12)

    def test_matched_regime_quadrature_runs(self):
        m = PropagatorModel(tau=256.0, kappa=0.9, regime="matched",
                            t_star=64.0)
        val = lm.predicted_trend_return_correlation(m, 2.0 / 16.0)
        assert val < 0.0
        # the package integrates nothing, so it exports no quadrature error
        assert not hasattr(lm, "QuadratureError")

    def test_invalid_omega(self):
        m = PropagatorModel(tau=64.0, kappa=0.9, regime="exponential")
        with pytest.raises(ValueError):
            lm.predicted_trend_return_correlation(m, 0.0)


class TestTrendVariance:
    def test_tilde_scaling_power_law(self):
        m = PropagatorModel(tau=4096.0, kappa=0.9, regime="scaling")
        for horizon in (2.0, 16.0, 256.0):
            assert lm.predicted_trend_variance(m, horizon, "tilde") == \
                pytest.approx(horizon ** (0.9 - 1.0), rel=1e-12)

    def test_phi_scaling_gamma_closed_form(self):
        for kappa in (0.6, 0.9, 0.97):
            m = PropagatorModel(tau=4096.0, kappa=kappa, regime="scaling")
            for horizon in (4.0, 64.0):
                omega = 2.0 / horizon
                closed = kappa * gamma_fn(kappa + 1) * omega ** (1 - kappa)
                assert lm.predicted_trend_variance(m, horizon, "phi") == \
                    pytest.approx(closed, rel=1e-12)

    def test_phi_kappa_one_is_unity(self):
        m = PropagatorModel(tau=4096.0, kappa=1.0, regime="scaling")
        for horizon in (2.0, 32.0, 1024.0):
            assert lm.predicted_trend_variance(m, horizon, "phi") == \
                pytest.approx(1.0, rel=1e-12)

    def test_exponential_closed_forms_match_quadrature(self):
        tau = 64.0
        for kappa in (0.6, 0.97, 1.0):
            m = PropagatorModel(tau=tau, kappa=kappa, regime="exponential")
            for horizon in (8.0, 512.0):
                omega = 2.0 / horizon
                for estimator, closed in (
                    ("phi", omega ** 2 / (omega + 1 / tau) ** 2
                     * tau ** (kappa - 1)),
                    ("tilde", (tau / horizon)
                     * (1 - math.exp(-horizon / tau)) * tau ** (kappa - 1)),
                ):
                    assert lm.predicted_trend_variance(
                        m, horizon, estimator) == pytest.approx(
                        closed, rel=1e-12)

    def test_scaling_domain_enforced(self):
        m = PropagatorModel(tau=64.0, kappa=0.9, regime="scaling")
        with pytest.raises(DomainError):
            lm.predicted_trend_variance(m, 17.0, "tilde")
        with pytest.raises(DomainError):
            lm.predicted_trend_variance(m, 64.0, "phi")

    def test_matched_quadrature_between_regimes(self):
        kappa, tau = 0.9, 256.0
        matched = PropagatorModel(tau=tau, kappa=kappa, regime="matched",
                                  t_star=64.0)
        val = lm.predicted_trend_variance(matched, 16.0, "phi")
        assert val > 0.0

    def test_invalid_estimator(self):
        m = PropagatorModel(tau=64.0, kappa=0.9, regime="exponential")
        with pytest.raises(ValueError):
            lm.predicted_trend_variance(m, 8.0, "wedge")


def reference_derivatives(model, t):
    """(Delta'(t), Delta''(t)) at one t > 0 in scalar math."""
    k, tau = model.kappa, model.tau
    if model.regime == "exponential":
        e = math.exp(-t / tau)
        return -0.5 * tau ** (k - 1.0) * e, 0.5 * tau ** (k - 2.0) * e
    if model.regime == "scaling" or t <= model.t_star:
        return (-0.5 * k * t ** (k - 1.0),
                0.5 * k * (1.0 - k) * t ** (k - 2.0))
    d = lm.propagator(model, t)
    return -d / tau, d / tau ** 2


def quadpack(f, model, hi=math.inf):
    """integrate.quad split at t_star; None unless QUADPACK converged."""
    knees = [model.t_star] if model.regime == "matched" else []
    edges = [0.0] + [b for b in knees if b < hi] + [hi]
    total = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        for a, b in zip(edges, edges[1:]):
            try:
                total += integrate.quad(f, a, b, epsrel=1e-10, epsabs=0.0,
                                        limit=200)[0]
            except integrate.IntegrationWarning:
                return None
    return total


def quadpack_predictions(model, horizon):
    """(<phi_w R>, phi variance, tilde variance) at T = horizon, w = 2/T,
    by QUADPACK over the regime derivatives; None where it did not
    converge."""
    w = 2.0 / horizon
    return (
        quadpack(lambda z: -2.0 * w ** 1.5 * z * math.exp(-w * z)
                 * reference_derivatives(model, z)[1], model),
        quadpack(lambda v: -2.0 * w ** 2 * v * math.exp(-w * v)
                 * reference_derivatives(model, v)[0], model),
        quadpack(lambda v: -2.0 / horizon * reference_derivatives(model, v)[0],
                 model, horizon))


def nested_phi_variance(model, horizon):
    """-2 w^3 Int_0^inf du e^(-w u) Int_0^u dv v Delta'(v), quad inside quad."""
    omega = 2.0 / horizon

    def inner(u):
        value = quadpack(
            lambda v: v * lm.propagator_derivatives(model, v)[0], model, u)
        assert value is not None, u
        return value

    outer = quadpack(lambda u: math.exp(-omega * u) * inner(u), model)
    assert outer is not None
    return -2.0 * omega ** 3 * outer


class TestPhiVarianceNestedOracle:
    @pytest.mark.parametrize("k", [1, 5, 9, 13])
    def test_matched_single_integral_equals_nested(self, k):
        tau = 2.0 ** 15
        m = PropagatorModel(tau=tau, kappa=0.9, regime="matched",
                            t_star=tau / 2.0)
        assert lm.predicted_trend_variance(m, 2.0 ** k, "phi") == \
            pytest.approx(nested_phi_variance(m, 2.0 ** k), rel=1e-9)

    def test_exponential_single_integral_equals_nested(self):
        m = PropagatorModel(tau=64.0, kappa=0.6, regime="exponential")
        assert lm.predicted_trend_variance(m, 16.0, "phi") == \
            pytest.approx(nested_phi_variance(m, 16.0), rel=1e-9)


class TestQuadratureOracle:
    """The closed forms against QUADPACK where it converges."""

    @pytest.mark.parametrize("regime", ["scaling", "exponential", "matched"])
    @pytest.mark.parametrize("kappa", [0.6, 0.808, 0.9, 0.97, 1.0])
    def test_matches_quadpack(self, regime, kappa):
        compared = 0
        for tau in (2.0 ** 6, 2.0 ** 11, 2.0 ** 15):
            m = PropagatorModel(
                tau=tau, kappa=kappa, regime=regime,
                t_star=tau / 2.0 if regime == "matched" else None)
            for k in range(1, 14):
                horizon = 2.0 ** k
                closed = [lm.predicted_trend_return_correlation(
                    m, 2.0 / horizon)]
                if regime != "scaling" or horizon <= tau / 4.0:
                    closed += [lm.predicted_trend_variance(m, horizon, "phi"),
                               lm.predicted_trend_variance(m, horizon, "tilde")]
                for ours, ref in zip(closed, quadpack_predictions(m, horizon)):
                    if ref is not None:
                        assert ours == pytest.approx(ref, rel=1e-10,
                                                     abs=1e-300)
                        compared += 1
        assert compared >= 50


class TestMatchedScalingLimit:
    """Below t_star = tau/2 the matched curves are the scaling closed forms.

    With tau = 2^15 and k <= 10, e^(-w t_star) <= e^(-32), so the tail
    past t_star moves no prediction at 1e-9.
    """

    @pytest.mark.parametrize("kappa", [0.1, 0.2, 0.3, 0.6, 0.9])
    def test_matched_equals_scaling_closed_forms(self, kappa):
        tau = 2.0 ** 15
        matched = PropagatorModel(tau=tau, kappa=kappa, regime="matched",
                                  t_star=tau / 2.0)
        scaling = PropagatorModel(tau=tau, kappa=kappa, regime="scaling")
        for k in range(1, 11):
            horizon = 2.0 ** k
            omega = 2.0 / horizon
            assert lm.predicted_trend_return_correlation(
                matched, omega) == pytest.approx(
                lm.predicted_trend_return_correlation(scaling, omega),
                rel=1e-9)
            for estimator in ("phi", "tilde"):
                assert lm.predicted_trend_variance(
                    matched, horizon, estimator) == pytest.approx(
                    lm.predicted_trend_variance(scaling, horizon, estimator),
                    rel=1e-9)


def substituted_quadpack(model, horizon, kind):
    """The matched trend/return correlation ("corr") or the phi or tilde
    variance at horizon T by QUADPACK, with z = u^(1/kappa) on
    (0, min(32/w, t_star, hi)) to take the z^(kappa-1) end out of the
    integrand, and the rest split at 1024/w (past which e^(-w z) leaves
    nothing), t_star and hi."""
    w, k = 2.0 / horizon, model.kappa
    hi = horizon if kind == "tilde" else math.inf
    if kind == "tilde":
        scale = -2.0 / horizon

        def f(z):
            return reference_derivatives(model, z)[0]
    else:
        scale, order = (-2.0 * w ** 1.5, 1) if kind == "corr" else \
            (-2.0 * w ** 2, 0)

        def f(z):
            return z * math.exp(-w * z) * reference_derivatives(model, z)[order]

    first = min(hi, 32.0 / w, model.t_star)
    edges = sorted([first] + [b for b in (1024.0 / w, model.t_star, hi)
                              if first < b <= hi])
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        total = integrate.quad(
            lambda u: f(u ** (1.0 / k)) * u ** (1.0 / k - 1.0) / k,
            0.0, first ** k, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for a, b in zip(edges, edges[1:]):
            total += integrate.quad(f, a, b, epsabs=1e-16 * abs(total),
                                    epsrel=1e-10, limit=200)[0]
    return scale * total


class TestMatchedLargeTau:
    """predict's matched regime (t_star = tau/2) for tau up to 1e12.

    The integrands decay as e^(-w z) with 1/w far below t_star, so the
    reference splits where the weight is.
    """

    @pytest.mark.parametrize("tau", [2.0 ** 15, 1e6, 1e7, 1e9, 1e12])
    @pytest.mark.parametrize("kappa", [0.6, 0.808, 0.9, 0.97])
    def test_converges_and_matches_quadpack(self, tau, kappa):
        m = PropagatorModel(tau=tau, kappa=kappa, regime="matched",
                            t_star=tau / 2.0)
        for k in range(1, 14):
            horizon = 2.0 ** k
            ours = {
                "corr": lm.predicted_trend_return_correlation(m, 2.0 / horizon),
                "phi": lm.predicted_trend_variance(m, horizon, "phi"),
                "tilde": lm.predicted_trend_variance(m, horizon, "tilde")}
            for kind, value in ours.items():
                assert value == pytest.approx(
                    substituted_quadpack(m, horizon, kind), rel=1e-12), \
                    (kind, k)


CLOSED_FORM_KAPPAS = (0.01, 0.05, 0.08, 0.15, 0.3, 0.6, 0.808, 0.9, 0.97,
                      1.0)


def decimal_lower_gamma(s, x):
    """gamma(s, x) by its series x^s e^(-x) Sum_n x^n / (s (s+1) ... (s+n))
    in 40-digit decimal arithmetic; every term is positive."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        s, x = decimal.Decimal(s), decimal.Decimal(x)
        term = total = 1 / s
        n = s
        while term > total * decimal.Decimal("1e-38"):
            n += 1
            term *= x / n
            total += term
        return float(total * (s * x.ln() - x).exp())


class TestLowerGamma:
    """theory._lower_gamma across both branches and the switch at s + 1."""

    @staticmethod
    def points(kappa, top):
        for s in (kappa, kappa + 1.0):
            for x in [10.0 ** (e / 4.0) for e in range(-48, 4 * top + 1)] \
                    + [s + 1.0 - 1e-9, s + 1.0 + 1e-9]:
                yield s, x

    @pytest.mark.parametrize("kappa", CLOSED_FORM_KAPPAS)
    def test_matches_scipy(self, kappa):
        # scipy's gammainc * gamma is itself off by up to 9.6e-15 from
        # 40-digit values at x <= 1e-10, s > 1
        for s, x in self.points(kappa, 12):
            assert theory._lower_gamma(s, x) == pytest.approx(
                gammainc(s, x) * gamma_fn(s), rel=2e-14, abs=0.0), (s, x)

    @pytest.mark.parametrize("kappa", CLOSED_FORM_KAPPAS)
    def test_matches_decimal_series(self, kappa):
        # up to x = 56: past it gamma(s, x) is Gamma(s) to 1e-22
        for s, x in self.points(kappa, 1):
            assert theory._lower_gamma(s, x) == pytest.approx(
                decimal_lower_gamma(s, x), rel=2e-15, abs=0.0), (s, x)


def decimal_power_law(tau, kappa, t):
    """Delta(t) = (tau^kappa - t^kappa)/2 in 50-digit arithmetic: in floats
    the two powers cancel at small kappa (2.2e-14 relative at kappa = 0.01,
    t = tau/2)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        tau, kappa, t = (decimal.Decimal(v) for v in (tau, kappa, t))
        return float((tau ** kappa - t ** kappa) / 2)


def scipy_matched(model, horizon):
    """The matched trend/return correlation and phi variance, split at
    t_star, with scipy's lower incomplete gamma function."""
    k, tau, t_star = model.kappa, model.tau, model.t_star
    w = 2.0 / horizon
    a = w + 1.0 / tau
    tail = decimal_power_law(tau, k, t_star) * math.exp(-w * t_star) \
        * (t_star / a + 1.0 / a ** 2)
    corr = -2.0 * w ** 1.5 * (
        0.5 * k * (1.0 - k) * gammainc(k, w * t_star) * gamma_fn(k)
        * w ** -k + tail / tau ** 2)
    phi = k * gammainc(k + 1.0, w * t_star) * gamma_fn(k + 1.0) \
        * w ** (1.0 - k) + 2.0 * w ** 2 * tail / tau
    return corr, phi


class TestMatchedClosedForms:
    """The matched closed forms against the same split evaluated with
    scipy, over t_star from 10 to tau/2 and T = 2^k up to 2^40."""

    @pytest.mark.parametrize("tau", [2.0 ** 6, 2.0 ** 11, 2.0 ** 15, 1e6,
                                     1e9, 1e12])
    def test_matches_scipy_gamma(self, tau):
        compared = 0
        for kappa in CLOSED_FORM_KAPPAS:
            for t_star in (10.0, tau / 64.0, tau / 2.0):
                m = PropagatorModel(tau=tau, kappa=kappa, regime="matched",
                                    t_star=t_star)
                for k in range(1, 41):
                    horizon = 2.0 ** k
                    ours = (lm.predicted_trend_return_correlation(
                        m, 2.0 / horizon),
                            lm.predicted_trend_variance(m, horizon, "phi"))
                    for got, ref in zip(ours, scipy_matched(m, horizon)):
                        if abs(ref) > 1e-290:
                            assert got == pytest.approx(
                                ref, rel=1e-14, abs=0.0), (kappa, t_star, k)
                            compared += 1
        assert compared >= 2340


class TestAdjacentWindowCorrelation:
    def test_kappa_one_scaling_telescopes(self):
        m = PropagatorModel(tau=4096.0, kappa=1.0, regime="scaling")
        assert lm.predicted_adjacent_window_correlation(m, 32.0) == \
            pytest.approx(0.0, abs=1e-12)

    def test_scaling_algebra(self):
        for kappa in (0.7, 0.9, 0.97):
            m = PropagatorModel(tau=4096.0, kappa=kappa, regime="scaling")
            for horizon in (8.0, 64.0):
                closed = 0.5 * horizon ** (kappa - 1) * (2 ** kappa - 2)
                got = lm.predicted_adjacent_window_correlation(m, horizon)
                assert got == pytest.approx(closed, rel=1e-12)
                assert got < 0.0

    def test_reference_value(self):
        m = PropagatorModel(tau=4096.0, kappa=0.97, regime="scaling")
        assert lm.predicted_adjacent_window_correlation(m, 64.0) == \
            pytest.approx(-0.0181657649827897, rel=1e-10)

    def test_domain(self):
        m = PropagatorModel(tau=64.0, kappa=0.9, regime="scaling")
        with pytest.raises(DomainError):
            lm.predicted_adjacent_window_correlation(m, 16.1)


def decimal_adjacent_and_tilde(model, horizon):
    """-(1/T) [Delta(0) - 2 Delta(T) + Delta(2T)] and (2/T) (Delta(0) -
    Delta(T)), from the propagator's definition in 50-digit decimal
    arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        tau, k, t = (decimal.Decimal(v) for v in (model.tau, model.kappa,
                                                  horizon))
        level = tau ** k / 2

        def delta(x):
            if model.regime == "exponential":
                return level * (-x / tau).exp()
            if model.regime == "scaling" or x <= decimal.Decimal(
                    model.t_star):
                return level - (x ** k if x else x) / 2
            star = decimal.Decimal(model.t_star)
            return (level - star ** k / 2) * (-(x - star) / tau).exp()

        adjacent = -(delta(0 * t) - 2 * delta(t) + delta(2 * t)) / t
        tilde = 2 * (delta(0 * t) - delta(t)) / t
        return float(adjacent), float(tilde)


class TestNoCancellation:
    """The closed forms against 50-digit arithmetic where tau >> T, which
    subtracting propagator values near tau^kappa/2 gets wrong."""

    @pytest.mark.parametrize("tau", [2.0 ** 15, 1e9, 1e12])
    @pytest.mark.parametrize("regime,kappa", [
        ("scaling", 0.97), ("scaling", 0.9), ("exponential", 0.9),
        ("matched", 0.9)])
    def test_adjacent_window_correlation(self, tau, regime, kappa):
        m = PropagatorModel(tau=tau, kappa=kappa, regime=regime,
                            t_star=tau / 2.0 if regime == "matched" else None)
        for k in range(1, 14):
            exact = decimal_adjacent_and_tilde(m, 2.0 ** k)[0]
            got = lm.predicted_adjacent_window_correlation(m, 2.0 ** k)
            assert got < 0.0, k
            assert got == pytest.approx(exact, rel=1e-12, abs=0.0), k

    @pytest.mark.parametrize("tau", [2.0 ** 15, 1e9, 1e12])
    def test_exponential_tilde_variance(self, tau):
        m = PropagatorModel(tau=tau, kappa=0.9, regime="exponential")
        for k in range(1, 14):
            exact = decimal_adjacent_and_tilde(m, 2.0 ** k)[1]
            got = lm.predicted_trend_variance(m, 2.0 ** k, "tilde")
            assert got == pytest.approx(exact, rel=1e-12, abs=0.0), k

    @pytest.mark.parametrize("tau", [2.0 ** 15, 1e9, 1e12])
    @pytest.mark.parametrize("kappa", [0.6, 0.9, 0.97, 1.0])
    @pytest.mark.parametrize("knee", ["10", "tau/64", "tau/2"])
    def test_matched_past_half_the_knee(self, tau, kappa, knee):
        # every T = 2^e with 2T > t_star, up to 4 tau.  At kappa = 1 the
        # power law's t_star/2 cancels against the tail's first order
        # (about 2e-6 relative at t_star = 10, tau = 1e12): only the sign
        # of the correlation is held there.  The tilde variance, closed-form
        # too, holds at every kappa
        t_star = {"10": 10.0, "tau/64": tau / 64.0, "tau/2": tau / 2.0}[knee]
        m = PropagatorModel(tau=tau, kappa=kappa, regime="matched",
                            t_star=t_star)
        horizons = [2.0 ** e for e in range(64)
                    if t_star < 2.0 ** (e + 1) <= 8.0 * tau]
        assert horizons
        for horizon in horizons:
            got = lm.predicted_adjacent_window_correlation(m, horizon)
            assert got < 0.0, horizon
            if kappa < 1.0:
                exact = decimal_adjacent_and_tilde(m, horizon)[0]
                assert got == pytest.approx(exact, rel=1e-12, abs=0.0), \
                    horizon
            assert lm.predicted_trend_variance(m, horizon, "tilde") == \
                pytest.approx(decimal_adjacent_and_tilde(m, horizon)[1],
                              rel=1e-12, abs=0.0), horizon

    def test_matched_past_the_knee(self):
        # 2T > t_star: the tail enters at 2T, and the differences stay
        m = PropagatorModel(tau=64.0, kappa=0.9, regime="matched",
                            t_star=32.0)
        for horizon in (17.0, 24.0, 32.0, 100.0):
            exact = decimal_adjacent_and_tilde(m, horizon)[0]
            got = lm.predicted_adjacent_window_correlation(m, horizon)
            assert got == pytest.approx(exact, rel=1e-12, abs=0.0), horizon

    @pytest.mark.parametrize("tau", [2.0 ** 15, 1e6, 1e9, 1e12])
    def test_power_law_propagator_at_small_kappa(self, tau):
        # the matched regime's Delta(t_star) is this power law
        m = PropagatorModel(tau=tau, kappa=0.01)
        for t in (10.0, tau / 64.0, tau / 2.0):
            assert lm.propagator(m, t) == pytest.approx(
                decimal_power_law(tau, 0.01, t), rel=1e-15, abs=0.0), t
        assert lm.propagator(m, 0.0) == 0.5 * tau ** 0.01


class TestPredictedHurst:
    def test_published_values(self):
        assert round(lm.predicted_hurst(2.0), 2) == 0.40
        assert round(lm.predicted_hurst(3.0), 3) == 0.485
        assert round(lm.predicted_hurst(4.0), 2) == 0.50

    def test_range(self):
        with pytest.raises(ValueError):
            lm.predicted_hurst(1.0)
