"""analyze internals checked against brute-force, date-keyed references."""

import datetime

import numpy as np
import pytest

from latticemarket import io, stats
from latticemarket.pipeline import PipelineConfig, _combined_factor, \
    _market_scale_data, analyze_price_table

N_MARKETS = 12          # >= 11: string and numeric market order differ
HORIZONS = [1, 2, 3, 4]


@pytest.fixture(scope="module")
def panel():
    """Seeded ragged panel: late starts, early ends and weekend gaps."""
    rng = np.random.default_rng(2024)
    start = datetime.date(2003, 1, 6).toordinal()
    calendar = [datetime.date.fromordinal(start + i) for i in range(900)]
    calendar = [d for d in calendar if d.weekday() < 5]
    markets = []
    for m in range(N_MARKETS):
        first = int(rng.integers(0, 120))
        last = len(calendar) - int(rng.integers(0, 60))
        dates = calendar[first:last]
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, len(dates))))
        markets.append(io.MarketSeries(name=f"M{m}", dates=dates,
                                       prices=prices))
    table = io.PriceTable(markets=markets)
    scales, _, _, _ = _market_scale_data(table, HORIZONS, "phi")
    assert [s.k for s in scales] == HORIZONS
    return scales


def _stacked(scales):
    return (np.concatenate([s.x for s in scales]),
            np.concatenate([s.y for s in scales]),
            np.concatenate([s.dates for s in scales]))


def reference_cv(x, y, days, folds):
    """Per-fold scores from one boolean mask per date block and one lstsq
    fit per fold."""
    scores = []
    for block in np.array_split(np.unique(days), folds):
        val = np.zeros(days.size, dtype=bool)
        for day in block:
            val |= days == day
        train = ~val
        design = np.column_stack([np.ones(train.sum()), x[train],
                                  x[train] ** 3])
        coef = np.linalg.lstsq(design, y[train], rcond=None)[0]
        pred = coef[0] + coef[1] * x[val] + coef[2] * x[val] ** 3
        ss_res = np.sum((y[val] - pred) ** 2)
        ss_tot = np.sum((y[val] - y[train].mean()) ** 2)
        scores.append(1.0 - ss_res / ss_tot)
    return np.array(scores)


def assert_matches_reference(x, y, days, folds):
    cv = stats.cross_validate_xy(x, y, folds, blocks=days)
    expected = reference_cv(x, y, days, folds)
    np.testing.assert_allclose(cv.r_squared_folds, expected, rtol=1e-10)
    assert cv.r_squared_adj == pytest.approx(expected.mean(), rel=1e-10)


class TestDateBlockCv:
    @pytest.mark.parametrize("folds", [2, 5, 15])
    def test_matches_brute_force_reference(self, panel, folds):
        assert_matches_reference(*_stacked(panel), folds)

    @pytest.mark.parametrize("folds", [2, 5, 15])
    def test_combined_factor_matches_brute_force_reference(self, panel,
                                                           folds):
        assert_matches_reference(*_combined_factor(panel, N_MARKETS), folds)

    def test_folds_are_whole_date_blocks(self, panel):
        _, _, days = _stacked(panel)
        order, bounds = stats._block_folds(days, 15)
        sorted_days = days[order]
        blocks = np.array_split(np.unique(days), 15)
        for i, block in enumerate(blocks):
            fold = sorted_days[bounds[i]:bounds[i + 1]]
            np.testing.assert_array_equal(np.unique(fold), block)
        # no calendar day on both sides of a fold boundary
        inner = bounds[1:-1]
        assert np.all(sorted_days[inner - 1] < sorted_days[inner])

    def test_constant_trend_rejected(self, panel):
        x, y, days = _stacked(panel)
        with pytest.raises(ValueError, match="rank"):
            stats.cross_validate_xy(np.full_like(x, 0.5), y, 5, blocks=days)

    def test_fold_too_small_rejected(self, panel):
        x, y, days = _stacked(panel)
        keep = days <= np.unique(days)[40]
        with pytest.raises(ValueError, match="too small"):
            stats.cross_validate_xy(x[keep], y[keep], 20,
                                    blocks=days[keep])


class TestCombinedFactor:
    def test_matches_dict_reference(self, panel):
        x_c, y_c, d_c = _combined_factor(panel, N_MARKETS)
        per_scale = [
            {(int(d), int(m)): (xi, yi) for d, m, xi, yi
             in zip(s.dates, s.market_idx, s.x, s.y)}
            for s in panel]
        shared = set(per_scale[0]).intersection(*per_scale[1:])
        keys = sorted(shared)
        x_ref = [np.mean([obs[key][0] for obs in per_scale]) for key in keys]
        y_ref = [per_scale[0][key][1] for key in keys]
        np.testing.assert_array_equal(d_c, [d for d, _ in keys])
        np.testing.assert_allclose(x_c, x_ref, rtol=1e-12)
        np.testing.assert_array_equal(y_c, y_ref)

    def test_bootstrap_groups_iso_or_ordinal(self, panel):
        x, y, days = _stacked(panel)
        iso = np.array([datetime.date.fromordinal(int(d)).isoformat()
                        for d in days])
        by_iso = stats.bootstrap_errors_xy(x, y, 200, 7, groups=iso)
        by_day = stats.bootstrap_errors_xy(x, y, 200, 7, groups=days)
        np.testing.assert_array_equal(by_iso.samples, by_day.samples)


# Headline numbers of the analyze report on the panel below, recorded with
# the truncated-convolution trend filter; any refactor must keep them.
PINNED_REPORT = {
    "phi": {
        "regression": {
            "a": -0.006831354676132329, "b": -0.04740357181542733,
            "c": -0.0030275320239490653, "se_a": 0.01318558270562165,
            "se_b": 0.015474772423578177, "se_c": 0.0046842292713987115,
            "r_squared_cv": 0.001734902333043394},
        "aggregated_factor": {
            "a": -0.009399359245724524, "b": -0.06241869180517365,
            "c": -0.014043493054914159, "r_squared": 0.001760610904605553,
            "r_squared_cv": -0.0023356581433560636},
        "by_scale": {
            2: {"b": -0.09060327364223844, "c": 0.007341723292233053,
                "se_b": 0.021801182916923328, "se_c": 0.006560772032578459},
            6: {"b": -0.025169590660703976, "c": 0.003327887093015822,
                "se_b": 0.031716093144245235, "se_c": 0.013261466270737042}},
    },
    "step": {
        "regression": {
            "a": -0.006611672536117, "b": -0.05154976365304417,
            "c": -0.0031684370600469514, "se_a": 0.012888777810583415,
            "se_b": 0.01377839046899382, "se_c": 0.0036338316855851634,
            "r_squared_cv": 0.002289635483510044},
        "aggregated_factor": {
            "a": -0.0024417084212646043, "b": -0.11654093461614679,
            "c": -0.005194431466628472, "r_squared": 0.004999309811351105,
            "r_squared_cv": 0.004324066643254584},
        "by_scale": {
            2: {"b": -0.05823629758053626, "c": -0.001877663564820832,
                "se_b": 0.021064955535963648, "se_c": 0.0060683502535921075},
            6: {"b": -0.0360370052081902, "c": -0.0002361822113508361,
                "se_b": 0.027398467356811566, "se_c": 0.011627470066414495}},
    },
}
PINNED_KAPPA = {"estimate": 0.9172600783775501, "se": 0.01112769813915589}


@pytest.fixture(scope="module")
def fgn_panel():
    """4 markets x 1500 weekdays of H = 0.45 fractional Gaussian noise."""
    start = datetime.date(2010, 1, 4).toordinal()
    calendar = [datetime.date.fromordinal(start + i) for i in range(2100)]
    calendar = [d for d in calendar if d.weekday() < 5][:1500]
    markets = []
    for m in range(4):
        noise = stats.fractional_gaussian_noise(1500, 0.45, 700 + m)
        prices = 100.0 * np.exp(0.01 * np.cumsum(noise))
        markets.append(io.MarketSeries(name=f"F{m}", dates=calendar,
                                       prices=prices))
    return io.PriceTable(markets=markets)


@pytest.mark.parametrize("estimator", ["phi", "step"])
def test_analyze_report_pinned(fgn_panel, estimator):
    config = PipelineConfig(horizons=list(range(1, 9)), estimator=estimator,
                            bootstrap_samples=200, seed=11)
    report = analyze_price_table(fgn_panel, config)
    assert report["horizons_used"] == list(range(1, 9))
    expected = PINNED_REPORT[estimator]
    for section in ("regression", "aggregated_factor"):
        for key, value in expected[section].items():
            assert report[section][key] == pytest.approx(value, rel=1e-9), \
                (section, key)
    rows = {row["k"]: row for row in report["by_scale"]}
    for k, values in expected["by_scale"].items():
        for key, value in values.items():
            assert rows[k][key] == pytest.approx(value, rel=1e-9), (k, key)
    for key, value in PINNED_KAPPA.items():
        assert report["kappa"][key] == pytest.approx(value, rel=1e-9), key
