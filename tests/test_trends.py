"""Return normalization, trend estimators and their weights.

The weights w(n) are read as the impulse response of trend_strength, and
the closed-form weights written out below are the convolution reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import lfilter

import latticemarket as lm
from latticemarket import trends

KINDS = ("step", "psi", "phi")


def iid_returns(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return lm.normalize_raw_returns(scale * rng.standard_normal(n))


def closed_form_weights(kind, horizon, n):
    """w(0..n-1): T^(-1/2) for n < T, M_T e^(-2n/T) or N_T (n+1) e^(-2n/T)."""
    lags = np.arange(n)
    if kind == "step":
        return np.where(lags < int(horizon), 1.0 / math.sqrt(horizon), 0.0)
    t = float(horizon)
    y = math.exp(-4.0 / t)
    if kind == "psi":
        return math.sqrt(1.0 - y) * np.exp(-2.0 * lags / t)
    n_t = (1.0 - y) ** 2 / math.sqrt(1.0 - y * y)
    return n_t * (lags + 1) * np.exp(-2.0 * lags / t)


def impulse_weights(kind, horizon, n=None):
    """w(0..n-1) as trend_strength's response to a unit return at t = 0;
    the default n = 16 T + 1 leaves a tail below 1e-11 of the peak."""
    n = 16 * int(horizon) + 1 if n is None else n
    unit = np.zeros(n)
    unit[0] = 1.0
    rets = trends.ReturnSeries(values=unit, mu=0.0, sigma=1.0)
    return lm.trend_strength(rets, kind, horizon).values


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
        w = impulse_weights("step", 1)
        assert w[0] == pytest.approx(1.0) and np.all(w[1:] == 0.0)

    def test_step_four_days(self):
        w = impulse_weights("step", 4)
        assert np.allclose(w[:4], 0.5) and np.all(w[4:] == 0.0)
        assert np.dot(w, w) == pytest.approx(1.0)

    def test_psi_normalization_constant(self):
        w = impulse_weights("psi", 2.0)
        assert w[0] == pytest.approx(0.9298734950321937, rel=1e-10)
        assert w[0] == pytest.approx(
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
        for kind in KINDS:
            w = impulse_weights(kind, 2 ** k)
            assert abs(np.dot(w, w) - 1.0) < 1e-10

    def test_gain_is_the_closed_form(self):
        # the first weight is the gain of the trend recursions; at large T
        # a renormalization by the summed squares would add rounding
        t = 2.0 ** 13
        m_t = math.sqrt(1.0 - math.exp(-4.0 / t))
        y = math.exp(-4.0 / t)
        n_t = (1.0 - y) ** 2 / math.sqrt(1.0 - y * y)
        assert abs(impulse_weights("psi", t, 2)[0] / m_t - 1.0) <= 1e-15
        assert abs(impulse_weights("phi", t, 2)[0] / n_t - 1.0) <= 1e-15

    @staticmethod
    def average_lookback(w):
        """E[n+1] under the raw weights (today counts as a 1-day lookback)."""
        return float(np.dot(np.arange(1, w.size + 1), w) / w.sum())

    def test_average_lookback_psi(self):
        lookback = self.average_lookback(impulse_weights("psi", 256.0))
        assert lookback == pytest.approx(128.0, rel=0.02)
        # exact closed form 1 / (1 - e^(-2/T))
        expected = 1.0 / (1.0 - math.exp(-2.0 / 256.0))
        assert lookback == pytest.approx(expected, rel=1e-6)

    def test_average_lookback_phi(self):
        lookback = self.average_lookback(impulse_weights("phi", 256.0))
        assert lookback == pytest.approx(256.0, rel=0.02)

    def test_phi_peak_position(self):
        assert np.argmax(impulse_weights("phi", 256.0)) == 127  # T/2 - 1

    def test_nonnegative_and_decaying_past_peak(self):
        for kind in ("psi", "phi"):
            w = impulse_weights(kind, 32.0)
            assert np.all(w >= 0)
            tail = w[np.argmax(w):]
            assert np.all(np.diff(tail) <= 1e-15)

    def test_invalid_horizons(self):
        rets = iid_returns(50, 0)
        for kind, horizon in (("step", 0), ("psi", 0.0), ("phi", -2.0)):
            with pytest.raises(ValueError):
                lm.trend_strength(rets, kind, horizon)


class TestTrendStrength:
    def test_zero_returns_zero_trend(self):
        rets = trends.ReturnSeries(values=np.zeros(50), mu=0.0, sigma=1.0)
        trend = lm.trend_strength(rets, "step", 4)
        assert np.all(trend.values == 0.0)

    def test_impulse_response_step(self):
        values = np.zeros(30)
        values[10] = 1.0
        rets = trends.ReturnSeries(values=values, mu=0.0, sigma=1.0)
        trend = lm.trend_strength(rets, "step", 4)
        assert np.allclose(trend.values[10:14], 0.5)
        assert np.allclose(trend.values[:10], 0.0)
        assert np.allclose(trend.values[14:], 0.0)

    def test_step_equals_price_differencing(self):
        rng = np.random.default_rng(8)
        prices = 40.0 * np.exp(np.cumsum(rng.normal(0.0003, 0.01, 400)))
        rets = lm.normalize_returns(prices)
        horizon = 16
        trend = lm.trend_strength(rets, "step", horizon)
        log_p = np.log(prices)
        for t in range(horizon - 1, len(rets.values)):
            # return index t spans prices t+1 and t-horizon+1
            window = (log_p[t + 1] - log_p[t + 1 - horizon]
                      - horizon * rets.mu) / (rets.sigma * math.sqrt(horizon))
            assert trend.values[t] == pytest.approx(window, abs=1e-10)

    def test_variance_one_on_iid_input(self):
        rets = iid_returns(20000, 1)
        for kind in KINDS:
            trend = lm.trend_strength(rets, kind, 32)
            x = trend.values[trends.statistical_warmup(kind, 32):]
            # effective sample count from the filter autocorrelation
            w = closed_form_weights(kind, 32, 16 * 32)
            rho = np.correlate(w, w, "full")
            n_eff = x.size / np.sum(rho * rho)
            tol = 3.0 * math.sqrt(2.0 / n_eff)
            assert np.var(x, ddof=1) == pytest.approx(1.0, abs=tol)

    def test_linearity_with_fixed_weights(self):
        rng = np.random.default_rng(9)
        x1 = rng.standard_normal(300)
        x2 = rng.standard_normal(300)

        def trend_of(v):
            rets = trends.ReturnSeries(values=v, mu=0.0, sigma=1.0)
            return lm.trend_strength(rets, "psi", 8.0).values

        combo = trend_of(2.0 * x1 - 3.0 * x2)
        parts = 2.0 * trend_of(x1) - 3.0 * trend_of(x2)
        assert np.allclose(combo, parts, atol=1e-12)

    def test_causality(self):
        rets_a = iid_returns(200, 10)
        values_b = rets_a.values.copy()
        values_b[150:] += 5.0
        rets_b = trends.ReturnSeries(values=values_b, mu=rets_a.mu,
                                     sigma=rets_a.sigma)
        for kind in KINDS:
            trend_a = lm.trend_strength(rets_a, kind, 8)
            trend_b = lm.trend_strength(rets_b, kind, 8)
            assert np.allclose(trend_a.values[:150], trend_b.values[:150],
                               atol=1e-12)

    def test_warmup_flag(self):
        # the L2 weight a trend misses at its statistical warm-up
        limits = {"step": 0.0, "psi": 1e-4, "phi": 1.5e-3}
        for k in range(1, 11):
            for kind, limit in limits.items():
                w = impulse_weights(kind, 2 ** k, 40 * 2 ** k)
                missing = w[trends.statistical_warmup(kind, 2 ** k) + 1:]
                assert math.sqrt(np.dot(missing, missing)) <= limit, (kind, k)


def direct_convolution(rets, weights):
    excess = rets.excess()
    out = np.zeros_like(excess)
    w = weights
    for t in range(len(excess)):
        lo = max(0, t - len(w) + 1)
        out[t] = np.dot(w[: t - lo + 1], excess[t:lo - 1 if lo else None:-1])
    return out


def weighted_sum(rets, kind, horizon):
    """Explicit sum_n w(n) Rhat(t - n) over the whole available history."""
    excess = rets.excess()
    weights = closed_form_weights(kind, horizon, excess.size)
    return np.convolve(excess, weights)[:excess.size]


class TestRecursiveTrend:
    """trend_strength evaluates psi/phi by their exact recursions."""

    def test_impulse_reproduces_weights(self):
        values = np.zeros(60)
        values[0] = 1.0
        rets = trends.ReturnSeries(values=values, mu=0.0, sigma=1.0)
        t = 8.0
        psi = lm.trend_strength(rets, "psi", t)
        m_t = math.sqrt(1.0 - math.exp(-4.0 / t))
        n = np.arange(60)
        assert np.allclose(psi.values, m_t * np.exp(-2.0 * n / t), atol=1e-12)
        phi = lm.trend_strength(rets, "phi", t)
        y = math.exp(-4.0 / t)
        n_t = (1.0 - y) ** 2 / math.sqrt(1.0 - y * y)
        assert np.allclose(phi.values, n_t * (n + 1) * np.exp(-2.0 * n / t),
                           atol=1e-12)

    def test_decay_multiplier(self):
        # impulse response ratio w(1)/w(0) gives the recursion multiplier
        values = np.zeros(10)
        values[0] = 1.0
        rets = trends.ReturnSeries(values=values, mu=0.0, sigma=1.0)
        psi = lm.trend_strength(rets, "psi", 2.0)
        assert psi.values[1] / psi.values[0] == pytest.approx(
            math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("kind", ["psi", "phi"])
    def test_matches_convolution(self, kind):
        rets = iid_returns(1000, 12)
        trend = lm.trend_strength(rets, kind, 16.0)
        assert np.max(np.abs(trend.values
                             - weighted_sum(rets, kind, 16.0))) < 1e-12

    def test_matches_bruteforce_convolution(self):
        rets = iid_returns(300, 13)
        conv = lm.trend_strength(rets, "phi", 8.0)
        brute = direct_convolution(rets, closed_form_weights("phi", 8.0, 300))
        assert np.max(np.abs(conv.values - brute)) < 1e-10

    def test_large_horizon_agreement(self):
        # the direct second-order phi filter [1, -2x, x^2] drifts past
        # 1e-11 here; two cascaded first-order stages stay near 1e-13
        rets = iid_returns(2 ** 15, 14)
        for horizon in (2.0 ** 10, 2.0 ** 13):
            for kind in ("psi", "phi"):
                trend = lm.trend_strength(rets, kind, horizon)
                dev = np.max(np.abs(trend.values
                                    - weighted_sum(rets, kind, horizon)))
                assert dev < 1e-12, (kind, horizon, dev)

    def test_unknown_kind(self):
        rets = iid_returns(200, 15)
        with pytest.raises(ValueError):
            lm.trend_strength(rets, "wedge", 8.0)


class TestScanOracle:
    """The numpy scan against scipy's lfilter."""

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


def _trend_of(values, kind, horizon):
    rets = trends.ReturnSeries(values=np.asarray(values, dtype=float),
                               mu=0.0, sigma=1.0)
    return lm.trend_strength(rets, kind, horizon).values


_FINITE = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


class TestTrendProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(sorted(KINDS)),
           horizon=st.integers(1, 256),
           data=st.data())
    def test_causal(self, kind, horizon, data):
        # bit-unchanged, so padding the last scan block leaks nothing back
        values = data.draw(st.lists(_FINITE, min_size=1, max_size=300))
        t = data.draw(st.integers(0, len(values) - 1))
        tail = data.draw(st.lists(_FINITE, min_size=len(values) - t - 1,
                                  max_size=len(values) - t - 1))
        before = _trend_of(values, kind, horizon)
        after = _trend_of(values[:t + 1] + tail, kind, horizon)
        np.testing.assert_array_equal(before[:t + 1], after[:t + 1])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(sorted(KINDS)),
           horizon=st.integers(1, 256),
           a=st.floats(-10.0, 10.0),
           data=st.data())
    def test_linear(self, kind, horizon, a, data):
        n = data.draw(st.integers(1, 300))
        u = np.array(data.draw(st.lists(_FINITE, min_size=n, max_size=n)))
        v = np.array(data.draw(st.lists(_FINITE, min_size=n, max_size=n)))
        combo = _trend_of(a * u + v, kind, horizon)
        parts = a * _trend_of(u, kind, horizon) + _trend_of(v, kind, horizon)
        scale = (abs(a) * np.max(np.abs(u)) + np.max(np.abs(v))) \
            * closed_form_weights(kind, horizon, 16 * horizon).sum()
        assert np.max(np.abs(combo - parts)) <= 1e-12 * scale


class TestAdjacentWindows:
    def test_minimal_pair_count(self):
        rets = iid_returns(8, 16)
        w = lm.adjacent_window_trends(rets, 4)
        assert w[1:].shape == w[:-1].shape == (1,)

    def test_window_counts_power_of_two(self):
        rets = iid_returns(2 ** 13, 17)
        for k in (3, 6):
            w = lm.adjacent_window_trends(rets, 2 ** k)
            assert w.size == 2 ** (13 - k)
            assert w[1:].shape == w[:-1].shape == (2 ** (13 - k) - 1,)

    def test_iid_pairs_uncorrelated(self):
        rets = iid_returns(2 ** 13, 18)
        w = lm.adjacent_window_trends(rets, 8)
        n_pairs = w[1:].size
        corr = np.corrcoef(w[1:], w[:-1])[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(n_pairs)

    def test_too_short_series(self):
        rets = iid_returns(7, 19)
        with pytest.raises(ValueError):
            lm.adjacent_window_trends(rets, 4)

    def test_windows_anchored_at_series_end(self):
        values = np.arange(10, dtype=float)
        rets = trends.ReturnSeries(values=values, mu=0.0, sigma=1.0)
        w = lm.adjacent_window_trends(rets, 4)
        # length 10 -> 2 windows covering indices 2..5 and 6..9
        assert w[0] == pytest.approx(np.sum(values[2:6]) / 2.0)
        assert w[1] == pytest.approx(np.sum(values[6:10]) / 2.0)


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
