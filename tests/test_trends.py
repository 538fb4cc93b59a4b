"""Return normalization, weight functions and trend estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import lfilter
from scipy.special import lambertw

import latticemarket as lm
from latticemarket import trends


def iid_returns(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return lm.normalize_raw_returns(scale * rng.standard_normal(n))


class TestNormalizeReturns:
    def test_log_return_definition(self):
        rets = lm.normalize_returns([100.0, 110.0, 125.0])
        raw = rets.values * rets.sigma
        assert raw[0] == pytest.approx(math.log(1.1), rel=1e-14)
        assert raw[1] == pytest.approx(math.log(125.0 / 110.0), rel=1e-14)

    def test_unit_sample_variance(self):
        rets = iid_returns(500, 0, scale=0.02)
        assert np.var(rets.values, ddof=1) == pytest.approx(1.0, abs=1e-12)
        assert np.mean(rets.excess()) == pytest.approx(0.0, abs=1e-12)

    def test_constant_prices_rejected(self):
        with pytest.raises(ValueError):
            lm.normalize_returns([100.0, 100.0, 100.0])

    def test_non_positive_price_rejected(self):
        with pytest.raises(ValueError):
            lm.normalize_returns([100.0, -1.0, 100.0])
        with pytest.raises(ValueError):
            lm.normalize_returns([100.0, 0.0, 100.0])

    def test_too_few_prices(self):
        with pytest.raises(ValueError):
            lm.normalize_returns([100.0, 110.0])

    def test_sigma_recovery_on_lognormal(self):
        rng = np.random.default_rng(3)
        sigma_true = 0.01
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, sigma_true, 10000)))
        rets = lm.normalize_returns(prices)
        assert rets.sigma == pytest.approx(sigma_true, rel=0.05)


class TestWeightFunctions:
    def test_step_single_day(self):
        w = lm.weight_step(1)
        assert np.allclose(w.weights, [1.0])

    def test_step_four_days(self):
        w = lm.weight_step(4)
        assert np.allclose(w.weights, [0.5] * 4)
        assert np.dot(w.weights, w.weights) == pytest.approx(1.0)

    def test_psi_normalization_constant(self):
        w = lm.weight_psi(2.0)
        assert w.weights[0] == pytest.approx(0.9298734950321937, rel=1e-10)
        assert w.weights[0] == pytest.approx(
            math.sqrt(1.0 - math.exp(-2.0)), rel=1e-12)

    def test_psi_geometric_sum_is_one(self):
        # square-sum identity checked by direct summation
        for t in (1.5, 4.0, 37.0, 256.0):
            m_t = math.sqrt(1.0 - math.exp(-4.0 / t))
            n = np.arange(int(20 * t))
            direct = np.sum((m_t * np.exp(-2.0 * n / t)) ** 2)
            assert direct == pytest.approx(1.0, abs=1e-12)

    def test_phi_square_sum_identity(self):
        # sum (n+1)^2 x^n = (1+x)/(1-x)^3 makes the square sum exactly 1
        for t in (2.0, 16.0, 256.0):
            y = math.exp(-4.0 / t)
            n_t = (1.0 - y) ** 2 / math.sqrt(1.0 - y * y)
            n = np.arange(int(25 * t))
            direct = np.sum((n_t * (n + 1) * np.exp(-2.0 * n / t)) ** 2)
            assert direct == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("k", range(1, 14))
    def test_square_normalization_all_kinds(self, k):
        horizon = 2 ** k
        for w in (lm.weight_step(horizon), lm.weight_psi(horizon),
                  lm.weight_phi(horizon)):
            assert abs(np.dot(w.weights, w.weights) - 1.0) < 1e-10

    def test_gain_is_the_closed_form(self):
        # the first weight is the gain of the trend recursions; at large T
        # a renormalization by the summed squares would add rounding
        t = 2.0 ** 13
        m_t = math.sqrt(1.0 - math.exp(-4.0 / t))
        y = math.exp(-4.0 / t)
        n_t = (1.0 - y) ** 2 / math.sqrt(1.0 - y * y)
        assert abs(lm.weight_psi(t).weights[0] / m_t - 1.0) <= 1e-15
        assert abs(lm.weight_phi(t).weights[0] / n_t - 1.0) <= 1e-15

    def test_average_lookback_psi(self):
        w = lm.weight_psi(256.0)
        assert w.average_lookback() == pytest.approx(128.0, rel=0.02)
        # exact closed form 1 / (1 - e^(-2/T))
        expected = 1.0 / (1.0 - math.exp(-2.0 / 256.0))
        assert w.average_lookback() == pytest.approx(expected, rel=1e-6)

    def test_average_lookback_phi(self):
        w = lm.weight_phi(256.0)
        assert w.average_lookback() == pytest.approx(256.0, rel=0.02)

    def test_phi_peak_position(self):
        w = lm.weight_phi(256.0)
        assert w.peak_index() == 127  # T/2 - 1

    def test_nonnegative_and_decaying_past_peak(self):
        for w in (lm.weight_psi(32.0), lm.weight_phi(32.0)):
            assert np.all(w.weights >= 0)
            tail = w.weights[w.peak_index():]
            assert np.all(np.diff(tail) <= 1e-15)

    def test_invalid_horizons(self):
        with pytest.raises(ValueError):
            lm.weight_step(0)
        with pytest.raises(ValueError):
            lm.weight_psi(0.0)
        with pytest.raises(ValueError):
            lm.weight_phi(-2.0)


class TestTrendStrength:
    def test_zero_returns_zero_trend(self):
        rets = trends.ReturnSeries(values=np.zeros(50), mu=0.0, sigma=1.0)
        trend = lm.trend_strength(rets, lm.weight_step(4))
        assert np.all(trend.values == 0.0)

    def test_impulse_response_step(self):
        values = np.zeros(30)
        values[10] = 1.0
        rets = trends.ReturnSeries(values=values, mu=0.0, sigma=1.0)
        trend = lm.trend_strength(rets, lm.weight_step(4))
        assert np.allclose(trend.values[10:14], 0.5)
        assert np.allclose(trend.values[:10], 0.0)
        assert np.allclose(trend.values[14:], 0.0)

    def test_step_equals_price_differencing(self):
        rng = np.random.default_rng(8)
        prices = 40.0 * np.exp(np.cumsum(rng.normal(0.0003, 0.01, 400)))
        rets = lm.normalize_returns(prices)
        horizon = 16
        trend = lm.trend_strength(rets, lm.weight_step(horizon))
        log_p = np.log(prices)
        for t in range(horizon - 1, len(rets.values)):
            # return index t spans prices t+1 and t-horizon+1
            window = (log_p[t + 1] - log_p[t + 1 - horizon]
                      - horizon * rets.mu) / (rets.sigma * math.sqrt(horizon))
            assert trend.values[t] == pytest.approx(window, abs=1e-10)

    def test_variance_one_on_iid_input(self):
        rets = iid_returns(20000, 1)
        for weights in (lm.weight_step(32), lm.weight_psi(32.0),
                        lm.weight_phi(32.0)):
            trend = lm.trend_strength(rets, weights)
            x = trend.values[weights.n_max:]
            # effective sample count from the filter autocorrelation
            rho = np.correlate(weights.weights, weights.weights, "full")
            n_eff = x.size / np.sum(rho * rho)
            tol = 3.0 * math.sqrt(2.0 / n_eff)
            assert np.var(x, ddof=1) == pytest.approx(1.0, abs=tol)

    def test_linearity_with_fixed_weights(self):
        rng = np.random.default_rng(9)
        x1 = rng.standard_normal(300)
        x2 = rng.standard_normal(300)
        w = lm.weight_psi(8.0)

        def trend_of(v):
            rets = trends.ReturnSeries(values=v, mu=0.0, sigma=1.0)
            return lm.trend_strength(rets, w).values

        combo = trend_of(2.0 * x1 - 3.0 * x2)
        parts = 2.0 * trend_of(x1) - 3.0 * trend_of(x2)
        assert np.allclose(combo, parts, atol=1e-12)

    def test_causality(self):
        rets_a = iid_returns(200, 10)
        values_b = rets_a.values.copy()
        values_b[150:] += 5.0
        rets_b = trends.ReturnSeries(values=values_b, mu=rets_a.mu,
                                     sigma=rets_a.sigma)
        for w in (lm.weight_psi(8.0), lm.weight_phi(8.0), lm.weight_step(8)):
            trend_a = lm.trend_strength(rets_a, w)
            trend_b = lm.trend_strength(rets_b, w)
            assert np.allclose(trend_a.values[:150], trend_b.values[:150],
                               atol=1e-12)

    def test_warmup_flag(self):
        rets = iid_returns(2000, 11)
        w = lm.weight_psi(16.0)
        trend = lm.trend_strength(rets, w)
        assert trend.warmup == w.n_max


def direct_convolution(rets, weights):
    excess = rets.excess()
    out = np.zeros_like(excess)
    w = weights.weights
    for t in range(len(excess)):
        lo = max(0, t - len(w) + 1)
        out[t] = np.dot(w[: t - lo + 1], excess[t:lo - 1 if lo else None:-1])
    return out


def weighted_sum(rets, weights):
    """Explicit sum_n w(n) Rhat(t - n) over the whole available history."""
    excess = rets.excess()
    return np.convolve(excess, weights.weights[:excess.size])[:excess.size]


class TestRecursiveTrend:
    """trend_strength evaluates psi/phi by their exact recursions."""

    def test_impulse_reproduces_weights(self):
        values = np.zeros(60)
        values[0] = 1.0
        rets = trends.ReturnSeries(values=values, mu=0.0, sigma=1.0)
        t = 8.0
        psi = lm.trend_strength(rets, lm.weight_psi(t))
        m_t = math.sqrt(1.0 - math.exp(-4.0 / t))
        n = np.arange(60)
        assert np.allclose(psi.values, m_t * np.exp(-2.0 * n / t), atol=1e-12)
        phi = lm.trend_strength(rets, lm.weight_phi(t))
        y = math.exp(-4.0 / t)
        n_t = (1.0 - y) ** 2 / math.sqrt(1.0 - y * y)
        assert np.allclose(phi.values, n_t * (n + 1) * np.exp(-2.0 * n / t),
                           atol=1e-12)

    def test_decay_multiplier(self):
        # impulse response ratio w(1)/w(0) gives the recursion multiplier
        values = np.zeros(10)
        values[0] = 1.0
        rets = trends.ReturnSeries(values=values, mu=0.0, sigma=1.0)
        psi = lm.trend_strength(rets, lm.weight_psi(2.0))
        assert psi.values[1] / psi.values[0] == pytest.approx(
            math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("kind", ["psi", "phi"])
    def test_matches_convolution(self, kind):
        rets = iid_returns(1000, 12)
        w = lm.weight_psi(16.0) if kind == "psi" else lm.weight_phi(16.0)
        trend = lm.trend_strength(rets, w)
        assert np.max(np.abs(trend.values - weighted_sum(rets, w))) < 1e-12

    def test_matches_bruteforce_convolution(self):
        rets = iid_returns(300, 13)
        w = lm.weight_phi(8.0)
        conv = lm.trend_strength(rets, w)
        brute = direct_convolution(rets, w)
        assert np.max(np.abs(conv.values - brute)) < 1e-10

    def test_large_horizon_agreement(self):
        # the direct second-order phi filter [1, -2x, x^2] drifts past
        # 1e-11 here; two cascaded first-order stages stay near 1e-13
        rets = iid_returns(2 ** 15, 14)
        for horizon in (2.0 ** 10, 2.0 ** 13):
            for w in (lm.weight_psi(horizon), lm.weight_phi(horizon)):
                trend = lm.trend_strength(rets, w)
                dev = np.max(np.abs(trend.values - weighted_sum(rets, w)))
                assert dev < 1e-12, (w.kind, horizon, dev)

    def test_unknown_kind(self):
        rets = iid_returns(200, 15)
        wedge = trends.WeightFunction(kind="wedge", horizon=8.0,
                                      weights=np.ones(8) / math.sqrt(8.0))
        with pytest.raises(ValueError):
            lm.trend_strength(rets, wedge)


class TestScanOracle:
    """The numpy scan and cut-off search against scipy references."""

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 4000])
    def test_first_order_matches_lfilter(self, n):
        # T = 0.01 makes x^64 underflow to zero
        u = np.random.default_rng(n).standard_normal(n)
        for horizon in [0.01, 0.5] + [2.0 ** k for k in range(14)]:
            x = math.exp(-2.0 / horizon)
            expected = lfilter([1.0], [1.0, -x], u)
            got = trends._first_order(u, x)
            assert got.shape == expected.shape
            tol = 1e-13 * np.max(np.abs(expected))
            assert np.max(np.abs(got - expected)) <= tol, horizon

    @staticmethod
    def lambertw_n_max(horizon):
        """Last kept phi index: the Lambert-W root, then a forward scan."""
        tol = trends.TRUNCATION_REL_TOL
        arg = -(2.0 / horizon) * tol * math.exp(-2.0 / horizon)
        n_cut = max(1, int(-horizon / 2.0 * float(lambertw(arg, k=-1).real)))
        while (n_cut + 1) * math.exp(-2.0 * n_cut / horizon) >= tol:
            n_cut += 1
        return n_cut - 1

    def test_phi_cutoff_matches_lambertw(self):
        rng = np.random.default_rng(20)
        horizons = [2.0 ** k for k in range(16)]
        horizons += np.exp(rng.uniform(math.log(0.01), math.log(2.0 ** 15),
                                       3000)).tolist()
        for horizon in horizons:
            assert lm.weight_phi(horizon).n_max == \
                self.lambertw_n_max(horizon), horizon


def _trend_of(values, weights):
    rets = trends.ReturnSeries(values=np.asarray(values, dtype=float),
                               mu=0.0, sigma=1.0)
    return lm.trend_strength(rets, weights).values


_KINDS = {"step": lm.weight_step, "psi": lm.weight_psi, "phi": lm.weight_phi}
_FINITE = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


class TestTrendProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(sorted(_KINDS)),
           horizon=st.integers(1, 256),
           data=st.data())
    def test_causal(self, kind, horizon, data):
        # bit-unchanged, so padding the last scan block leaks nothing back
        values = data.draw(st.lists(_FINITE, min_size=1, max_size=300))
        t = data.draw(st.integers(0, len(values) - 1))
        tail = data.draw(st.lists(_FINITE, min_size=len(values) - t - 1,
                                  max_size=len(values) - t - 1))
        weights = _KINDS[kind](horizon)
        before = _trend_of(values, weights)
        after = _trend_of(values[:t + 1] + tail, weights)
        np.testing.assert_array_equal(before[:t + 1], after[:t + 1])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(sorted(_KINDS)),
           horizon=st.integers(1, 256),
           a=st.floats(-10.0, 10.0),
           data=st.data())
    def test_linear(self, kind, horizon, a, data):
        n = data.draw(st.integers(1, 300))
        u = np.array(data.draw(st.lists(_FINITE, min_size=n, max_size=n)))
        v = np.array(data.draw(st.lists(_FINITE, min_size=n, max_size=n)))
        weights = _KINDS[kind](horizon)
        combo = _trend_of(a * u + v, weights)
        parts = a * _trend_of(u, weights) + _trend_of(v, weights)
        scale = (abs(a) * np.max(np.abs(u)) + np.max(np.abs(v))) \
            * weights.weights.sum()
        assert np.max(np.abs(combo - parts)) <= 1e-12 * scale


class TestAdjacentWindows:
    def test_minimal_pair_count(self):
        rets = iid_returns(8, 16)
        adj = lm.adjacent_window_trends(rets, 4)
        assert adj.pairs.shape == (1, 2)

    def test_window_counts_power_of_two(self):
        rets = iid_returns(2 ** 13, 17)
        for k in (3, 6):
            adj = lm.adjacent_window_trends(rets, 2 ** k)
            assert adj.values.size == 2 ** (13 - k)
            assert adj.pairs.shape == (2 ** (13 - k) - 1, 2)

    def test_iid_pairs_uncorrelated(self):
        rets = iid_returns(2 ** 13, 18)
        adj = lm.adjacent_window_trends(rets, 8)
        n_pairs = adj.pairs.shape[0]
        corr = np.corrcoef(adj.pairs[:, 0], adj.pairs[:, 1])[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(n_pairs)

    def test_too_short_series(self):
        rets = iid_returns(7, 19)
        with pytest.raises(ValueError):
            lm.adjacent_window_trends(rets, 4)

    def test_windows_anchored_at_series_end(self):
        values = np.arange(10, dtype=float)
        rets = trends.ReturnSeries(values=values, mu=0.0, sigma=1.0)
        adj = lm.adjacent_window_trends(rets, 4)
        # length 10 -> 2 windows covering indices 2..5 and 6..9
        assert adj.values[0] == pytest.approx(np.sum(values[2:6]) / 2.0)
        assert adj.values[1] == pytest.approx(np.sum(values[6:10]) / 2.0)


class TestStatisticalWarmup:
    def test_step_is_exact_window(self):
        assert trends.statistical_warmup("step", 64) == 63

    def test_exponential_kinds_scale_linearly(self):
        w = trends.statistical_warmup("psi", 256)
        assert 4 * 256 < w < 5 * 256
        assert trends.statistical_warmup("phi", 256) == w

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            trends.statistical_warmup("wedge", 8)
