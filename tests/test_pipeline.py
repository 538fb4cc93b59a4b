"""analyze internals checked against brute-force, date-keyed references."""

import datetime

import numpy as np
import pytest

from latticemarket import io, stats
from latticemarket.pipeline import _combined_factor, _date_block_cv, \
    _date_folds, _market_scale_data

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
    scales, _, _ = _market_scale_data(table, HORIZONS, "phi")
    assert [s.k for s in scales] == HORIZONS
    return scales


def _stacked(scales):
    return (np.concatenate([s.x for s in scales]),
            np.concatenate([s.y for s in scales]),
            np.concatenate([s.dates for s in scales]))


def reference_cv(x, y, days, folds):
    """One boolean mask per date block and one lstsq fit per fold."""
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
    return float(np.mean(scores))


class TestDateBlockCv:
    @pytest.mark.parametrize("folds", [2, 5, 15])
    def test_matches_brute_force_reference(self, panel, folds):
        x, y, days = _stacked(panel)
        assert _date_block_cv(x, y, days, folds) == pytest.approx(
            reference_cv(x, y, days, folds), rel=1e-10)

    def test_folds_are_whole_date_blocks(self, panel):
        _, _, days = _stacked(panel)
        order, bounds = _date_folds(days, 15)
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
            _date_block_cv(np.full_like(x, 0.5), y, days, 5)

    def test_fold_too_small_rejected(self, panel):
        x, y, days = _stacked(panel)
        keep = days <= np.unique(days)[40]
        with pytest.raises(ValueError, match="too small"):
            _date_block_cv(x[keep], y[keep], days[keep], 20)


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
