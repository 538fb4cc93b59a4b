"""analyze checked against the pooled-row path and brute-force references.

The row path is the assembly analyze used before it reduced a dense
panel: per scale, every market's (phi(t), R(t+1), day of R(t+1)) pairs
concatenated, turned into rows by `stats.moment_sums` (per pair, or per
day for the bootstrap and the CV) and sent through the fits.
"""

import datetime
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latticemarket import io, pipeline, stats, trends
from latticemarket.pipeline import PipelineConfig, analyze_price_table

N_MARKETS = 12          # >= 11: string and numeric market order differ
HORIZONS = [1, 2, 3, 4]


def ragged_table(gapped: bool = False) -> io.PriceTable:
    """Seeded ragged panel: late starts, early ends and weekend gaps; with
    `gapped`, three markets also miss one interior trading day each."""
    rng = np.random.default_rng(2024)
    start = datetime.date(2003, 1, 6).toordinal()
    calendar = [datetime.date.fromordinal(start + i) for i in range(900)]
    calendar = np.array([d for d in calendar if d.weekday() < 5],
                        dtype="datetime64[D]")
    markets = []
    for m in range(N_MARKETS):
        first = int(rng.integers(0, 120))
        last = len(calendar) - int(rng.integers(0, 60))
        dates = calendar[first:last]
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, len(dates))))
        if gapped and m in (2, 5, 9):
            keep = np.arange(dates.size) != 200 + 7 * m
            dates, prices = dates[keep], prices[keep]
        markets.append(io.MarketSeries(name=f"M{m}", dates=dates,
                                       prices=prices))
    return io.PriceTable(markets=markets)


def reference_rows(table, horizons, estimator):
    """Pooled rows per usable scale, and the dropped horizons."""
    returns_all = [trends.normalize_returns(m.prices) for m in table.markets]
    days_all = [np.array([d.toordinal() for d in
                          np.asarray(m.dates, "datetime64[D]").tolist()])
                for m in table.markets]
    scales, dropped = [], []
    for k in horizons:
        warmup = trends.statistical_warmup(estimator, 2 ** k)
        xs, ys, ds, ms = [], [], [], []
        for m_idx, (days, rets) in enumerate(zip(days_all, returns_all)):
            n = len(rets.values)
            if n - 1 - warmup < 30:
                continue
            trend = trends.trend_strength(rets, estimator, 2 ** k)
            xs.append(trend.values[warmup:n - 1])
            ys.append(rets.values[warmup + 1:n])
            # return index i carries the date of its later price
            ds.append(days[warmup + 2:n + 1])
            ms.append(np.full(n - 1 - warmup, m_idx))
        n_pooled = sum(len(v) for v in xs)
        if not xs:
            dropped.append({"k": k, "reason": "no market has enough history"})
        elif n_pooled < 100:
            dropped.append({"k": k,
                            "reason": f"only {n_pooled} pooled observations"})
        else:
            scales.append({"k": k, "warmup": warmup, "x": np.concatenate(xs),
                           "y": np.concatenate(ys), "days": np.concatenate(ds),
                           "market": np.concatenate(ms)})
    return scales, dropped


def reference_combined(scales):
    """Dict-keyed combined factor: the mean trend over scales on the
    (day, market) keys every scale shares, in key order."""
    per_scale = [{(int(d), int(m)): (xi, yi) for d, m, xi, yi
                  in zip(s["days"], s["market"], s["x"], s["y"])}
                 for s in scales]
    keys = sorted(set(per_scale[0]).intersection(*per_scale[1:]))
    x = np.array([np.mean([obs[key][0] for obs in per_scale])
                  for key in keys])
    y = np.array([per_scale[0][key][1] for key in keys])
    return x, y, np.array([d for d, _ in keys]), keys


def _stacked(scales):
    return tuple(np.concatenate([s[name] for s in scales])
                 for name in ("x", "y", "days"))


def reference_report(table, config):
    """The regression sections of the report from pooled rows, and the
    stacked bootstrap's samples."""
    scales, dropped = reference_rows(table, config.horizons,
                                     config.estimator)
    by_scale = []
    for s in scales:
        fit = stats.fit_cubic(stats.moment_sums(s["x"], s["y"]))
        by_scale.append({
            "k": s["k"], "T": 2 ** s["k"], "warmup": s["warmup"],
            "n_obs": fit.n_obs, "a": fit.a, "b": fit.b, "c": fit.c,
            "se_b": fit.se_b, "se_c": fit.se_c,
            "trend_return_covariance": float(np.mean(s["x"] * s["y"])),
            "r_squared": fit.r_squared})
    x, y, days = _stacked(scales)
    fit = stats.fit_cubic(stats.moment_sums(x, y))
    boot = stats.bootstrap_errors(stats.moment_sums(x, y, days),
                                  config.bootstrap_samples, config.seed)
    cv = stats.cross_validate(stats.moment_sums(x, y, days), config.cv_folds)
    report = {
        "horizons_used": [s["k"] for s in scales],
        "horizons_dropped": dropped, "by_scale": by_scale,
        "regression": {
            "a": fit.a, "b": fit.b, "c": fit.c,
            "se_a": boot.se_a, "se_b": boot.se_b, "se_c": boot.se_c,
            "t_a": fit.a / boot.se_a, "t_b": fit.b / boot.se_b,
            "t_c": fit.c / boot.se_c, "r_squared": fit.r_squared,
            "r_squared_cv": cv.r_squared,
            "cv_fold_sizes": cv.fold_sizes.tolist(), "n_obs": fit.n_obs,
            "gram_condition": fit.gram_condition,
            "bootstrap_samples": config.bootstrap_samples,
            "bootstrap_skipped": boot.n_skipped,
            "cv_folds": config.cv_folds}}
    xc, yc, dc, _ = reference_combined(scales)
    cfit = stats.fit_cubic(stats.moment_sums(xc, yc))
    ccv = stats.cross_validate(stats.moment_sums(xc, yc, dc), config.cv_folds)
    report["aggregated_factor"] = {
        "a": cfit.a, "b": cfit.b, "c": cfit.c, "r_squared": cfit.r_squared,
        "r_squared_cv": ccv.r_squared,
        "cv_fold_sizes": ccv.fold_sizes.tolist(), "n_obs": cfit.n_obs}
    return report, boot.samples


def assert_same(got, want, path=""):
    """Equal structure; floats at rtol 1e-9, everything else exactly."""
    if isinstance(want, dict):
        assert set(got) == set(want), path
        for key in want:
            assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-9), path
    else:
        assert got == want, path


@pytest.fixture(scope="module")
def panel():
    scales, dropped = reference_rows(ragged_table(), HORIZONS, "phi")
    assert [s["k"] for s in scales] == HORIZONS and not dropped
    return scales


class TestRowPath:
    @pytest.mark.parametrize("estimator", ["phi", "step"])
    @pytest.mark.parametrize("gapped", [False, True],
                             ids=["ragged", "interior-gaps"])
    def test_report_matches_row_path(self, monkeypatch, gapped, estimator):
        table = ragged_table(gapped)
        config = PipelineConfig(horizons=HORIZONS + [10], estimator=estimator,
                                bootstrap_samples=200, cv_folds=15, seed=5)
        original, boots = stats.bootstrap_errors, []

        def recording(*args):
            boots.append(original(*args))
            return boots[-1]
        monkeypatch.setattr(stats, "bootstrap_errors", recording)
        report = analyze_price_table(table, config)
        want, samples = reference_report(table, config)
        assert [row["k"] for row in report["horizons_dropped"]] == [10]
        assert_same({key: report[key] for key in want}, want)
        # the day groups and their sums are those of the pooled rows
        np.testing.assert_array_equal(boots[0].samples, samples)

    @pytest.mark.parametrize("estimator", ["phi", "step"])
    @pytest.mark.parametrize("gapped", [False, True],
                             ids=["ragged", "interior-gaps"])
    def test_moment_sums_are_the_pooled_rows(self, monkeypatch, gapped,
                                             estimator):
        # exact: each scale's sums are the pooled rows' moment columns
        # summed in the panel layout (a market's row of union-calendar
        # cells, zero elsewhere), and the stacked day sums are the pooled
        # rows' grouped by day in row order (scale, then market)
        table = ragged_table(gapped)
        config = PipelineConfig(horizons=HORIZONS, estimator=estimator,
                                bootstrap_samples=100, cv_folds=5)
        seen = {}
        for name in ("fit_cubic", "bootstrap_errors"):
            original = getattr(stats, name)

            def recording(rows, *args, _original=original, _name=name):
                seen.setdefault(_name, []).append(np.array(rows))
                return _original(rows, *args)
            monkeypatch.setattr(stats, name, recording)
        report = analyze_price_table(table, config)
        scales, _ = reference_rows(table, HORIZONS, estimator)
        calendar = np.unique(np.concatenate([
            [d.toordinal() for d in m.dates[1:].tolist()]
            for m in table.markets]))
        for s, row, got in zip(scales, report["by_scale"],
                               seen["fit_cubic"]):
            cols = stats.moment_sums(s["x"], s["y"])
            layout = np.zeros((10, len(table.markets), calendar.size))
            layout[:, s["market"], np.searchsorted(calendar, s["days"])] = \
                cols.T
            want = layout.reshape(10, -1).sum(axis=1)
            np.testing.assert_array_equal(got, want[None])
            assert row["n_obs"] == s["x"].size
            assert row["trend_return_covariance"] == want[7] / s["x"].size
        x, y, days = _stacked(scales)
        np.testing.assert_array_equal(
            seen["bootstrap_errors"][0], stats.moment_sums(x, y, days))

    def test_warmup_excluded(self):
        # one market of 400 returns: the step window 2^k starts at
        # T - 1 = 2^k - 1, leaving 400 - 1 - (2^k - 1) pairs
        dates = np.arange(401).astype("datetime64[D]")
        prices = 100.0 * np.exp(np.cumsum(
            np.random.default_rng(4).normal(0.0, 0.01, 401)))
        table = io.PriceTable([io.MarketSeries("A", dates, prices)])
        config = PipelineConfig(horizons=[1, 7], estimator="step",
                                bootstrap_samples=100, cv_folds=5)
        rows = analyze_price_table(table, config)["by_scale"]
        assert [(r["warmup"], r["n_obs"]) for r in rows] == \
            [(1, 398), (127, 272)]

    def test_repeated_horizons_rejected(self):
        # a repeated k would pool its pairs again into the stacked fit
        config = PipelineConfig(horizons=[1, 1, 2, 3], bootstrap_samples=100,
                                cv_folds=5)
        with pytest.raises(ValueError, match="horizons must not repeat"):
            analyze_price_table(ragged_table(False), config)


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
    cv = stats.cross_validate(stats.moment_sums(x, y, days), folds)
    expected = reference_cv(x, y, days, folds)
    np.testing.assert_allclose(cv.r_squared_folds, expected, rtol=1e-10)
    assert cv.r_squared == pytest.approx(expected.mean(), rel=1e-10)


class TestDateBlockCv:
    @pytest.mark.parametrize("folds", [2, 5, 15])
    def test_matches_brute_force_reference(self, panel, folds):
        assert_matches_reference(*_stacked(panel), folds)

    @pytest.mark.parametrize("folds", [2, 5, 15])
    def test_combined_factor_matches_brute_force_reference(self, panel,
                                                           folds):
        assert_matches_reference(*reference_combined(panel)[:3], folds)

    def test_folds_are_whole_date_blocks(self, panel):
        x, y, days = _stacked(panel)
        cv = stats.cross_validate(stats.moment_sums(x, y, days), 15)
        blocks = np.array_split(np.unique(days), 15)
        np.testing.assert_array_equal(
            cv.fold_sizes, [np.isin(days, block).sum() for block in blocks])

    def test_constant_trend_rejected(self, panel):
        x, y, days = _stacked(panel)
        with pytest.raises(ValueError, match="rank"):
            stats.cross_validate(
                stats.moment_sums(np.full_like(x, 0.5), y, days), 5)

    def test_fold_too_small_rejected(self, panel):
        x, y, days = _stacked(panel)
        keep = days <= np.unique(days)[40]
        with pytest.raises(ValueError, match="too small"):
            stats.cross_validate(
                stats.moment_sums(x[keep], y[keep], days[keep]), 20)


class TestCombinedFactor:
    def test_matches_dict_reference(self, panel):
        # the mean of the scale panels on the cells every scale fills
        returns_all, cells, y_panel = pipeline._union_panel(ragged_table())
        panels = [pipeline._trend_panel(returns_all, cells, y_panel.shape[1],
                                        "phi", k)
                  for k in HORIZONS]
        shared = np.logical_and.reduce([mask for _, _, mask in panels])
        x_sum = np.zeros(shared.shape)
        for _, x_panel, _ in panels:
            x_sum += x_panel
        x_ref, _, _, keys = reference_combined(panel)
        # day ordinal -> union-calendar cell, from any market's own days
        cell_of = {}
        for m, market in enumerate(ragged_table().markets):
            ordinals = [d.toordinal() for d in market.dates[1:].tolist()]
            cell_of.update(zip(ordinals, cells[m].tolist()))
        got = {(int(c), int(m)): x_sum[m, c] / len(panels)
               for m, c in zip(*np.nonzero(shared))}
        want = {(cell_of[d], m): x for (d, m), x in zip(keys, x_ref)}
        assert got.keys() == want.keys()
        np.testing.assert_allclose([got[key] for key in want],
                                   list(want.values()), rtol=1e-12)

    def test_bootstrap_groups_iso_or_ordinal(self, panel):
        x, y, days = _stacked(panel)
        iso = np.array([datetime.date.fromordinal(int(d)).isoformat()
                        for d in days])
        by_iso = stats.bootstrap_errors(stats.moment_sums(x, y, iso), 200, 7)
        by_day = stats.bootstrap_errors(stats.moment_sums(x, y, days), 200, 7)
        np.testing.assert_array_equal(by_iso.samples, by_day.samples)


# day numbers (from 1970-01-01) of 0001-01-01 and 9999-12-31
FIRST_DAY, LAST_DAY = -719_162, 2_932_896


@st.composite
def ragged_days(draw):
    """1-6 markets of strictly increasing int64 days: each starts near
    day 0, anywhere from year 1 to 9999 (disjoint ranges), or on the last
    day of the market before it (a single-day overlap)."""
    markets = []
    for i in range(draw(st.integers(1, 6))):
        start = draw(st.one_of(
            st.integers(0, 60), st.integers(FIRST_DAY, LAST_DAY - 200),
            *([st.just(int(markets[-1][-1]))] if i else [])))
        gaps = draw(st.lists(st.integers(1, 4), max_size=40))
        markets.append(start + np.cumsum([0] + gaps, dtype=np.int64))
    return markets


class TestCalendar:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(days=ragged_days())
    def test_bitmap_equals_unique(self, days):
        calendar, cells = pipeline._calendar(days)
        want, inverse = np.unique(np.concatenate(days), return_inverse=True)
        np.testing.assert_array_equal(calendar, want)
        assert len(cells) == len(days)
        for got, ref in zip(cells, np.split(
                inverse.ravel(), np.cumsum([d.size for d in days])[:-1])):
            assert got.dtype == ref.dtype
            np.testing.assert_array_equal(got, ref)

    def test_single_day_overlap_and_far_market(self):
        days = [np.arange(5, dtype=np.int64), np.arange(4, 8, dtype=np.int64),
                np.array([FIRST_DAY, LAST_DAY], dtype=np.int64)]
        calendar, cells = pipeline._calendar(days)
        np.testing.assert_array_equal(
            calendar, [FIRST_DAY, 0, 1, 2, 3, 4, 5, 6, 7, LAST_DAY])
        assert [c.tolist() for c in cells] == [[1, 2, 3, 4, 5],
                                               [5, 6, 7, 8], [0, 9]]


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


# -- the scaling estimators: window sums for kappa, pooled moments for H ------

def reference_window_sums(returns_all, ks):
    """(markets, scales, 4) by a per-(market, k) loop: windows of T = 2^k
    cut one by one from the series end, then (sum of squared trends,
    windows, sum of adjacent products, pairs); zero below 2T returns."""
    table = np.zeros((len(returns_all), len(ks), 4))
    for m, rets in enumerate(returns_all):
        excess = rets.excess()
        n = excess.size
        for s, k in enumerate(ks):
            t = 2 ** k
            if n < 2 * t:
                continue
            ends = range(n - (n // t - 1) * t, n + 1, t)
            w = np.array([excess[end - t:end].sum() for end in ends]) \
                / math.sqrt(t)
            table[m, s] = (np.sum(w ** 2), w.size, np.sum(w[1:] * w[:-1]),
                           w.size - 1)
    return table


def reference_pooled_moments(returns_all, horizons, qs=(1.0, 2.0, 3.0, 4.0)):
    """analyze's moment pooling as one market at a time: M_q(T) of each
    market's path at its sorted k with 10 T <= len, if 3 or more, pooled
    per k as sum M_q n / sum n with n = len - T; a log-log line per q."""
    rows = {q: {} for q in qs}
    for rets in returns_all:
        path = np.cumsum(rets.excess())
        usable = sorted(k for k in horizons if 2 ** k * 10 <= path.size)
        if len(usable) < 3:
            continue
        for q in qs:
            for k in usable:
                t = 2 ** k
                stat = np.mean(np.abs(path[t:] - path[:-t]) ** q)
                rows[q].setdefault(k, []).append((stat, path.size - t))
    out = {"qs": list(qs), "curves": [], "hurst": {}}
    for q in qs:
        curve = []
        for k in sorted(rows[q]):
            pairs = rows[q][k]
            pooled = sum(s * n for s, n in pairs) / sum(n for _, n in pairs)
            curve.append({"q": q, "k": k, "T": 2 ** k, "M_q": pooled})
        out["curves"].extend(curve)
        if len(curve) >= 3:
            slope, slope_se = stats._line_fit(
                np.log([row["T"] for row in curve]),
                np.log([row["M_q"] for row in curve]), None)
            out["hurst"][str(q)] = {"H": slope / q, "se": slope_se / q}
    return out


def ragged_returns():
    """The ragged panel's returns (499 to 620 a market), then a market of
    200 returns, which covers 10 T up to T = 16, and one of 49, which
    covers it at only T = 2 and 4."""
    prices = [m.prices for m in ragged_table().markets]
    return [trends.normalize_returns(p)
            for p in prices + [prices[0][:201], prices[0][:50]]]


class TestScalingEstimators:
    KS = list(range(1, 10))

    def test_window_sums_match_per_market_loop(self):
        returns_all = ragged_returns()
        got = pipeline._window_sums(returns_all, self.KS)
        np.testing.assert_array_equal(
            got, reference_window_sums(returns_all, self.KS))
        # markets under 2T returns are zero rows; none reaches 2 * 2^9
        lengths = np.array([len(r.values) for r in returns_all])
        assert np.array_equal(got[:, 7, 1] == 0, lengths < 512)
        assert not got[:, 8].any()

    def test_report_rows_are_the_pooled_sums(self):
        table = ragged_table()
        config = PipelineConfig(horizons=self.KS, estimator="step",
                                bootstrap_samples=100, cv_folds=5)
        report = analyze_price_table(table, config)
        assert [row["k"] for row in report["by_scale"]] == self.KS
        returns_all = [trends.normalize_returns(m.prices)
                       for m in table.markets]
        sums = reference_window_sums(returns_all, self.KS)
        want = []
        for k, scale in zip(self.KS, sums.transpose(1, 0, 2)):
            sq_sum, n_win, pair_prod, n_pair = 0.0, 0, 0.0, 0
            for market in scale:            # markets in order, from 0
                sq_sum += market[0]
                n_win += int(market[1])
                pair_prod += market[2]
                n_pair += int(market[3])
            if n_win >= 4:
                variance = sq_sum / n_win
                want.append({"k": k, "T": 2 ** k, "variance_tilde": variance,
                             "n_windows": n_win, "adjacent_correlation":
                                 pair_prod / n_pair / variance})
        assert [row["k"] for row in want] == self.KS[:-1]
        assert report["variance_by_scale"] == want
        assert all(type(row["n_windows"]) is int
                   for row in report["variance_by_scale"])

    def test_pooled_moments_match_per_market_pooling(self):
        returns_all = ragged_returns()
        horizons = [6, 2, 4, 1, 3, 5]
        want = reference_pooled_moments(returns_all, horizons)
        assert pipeline._pooled_moments(returns_all, horizons) == want
        # T = 32 needs 320 returns, which one market lacks; no market
        # reaches the 640 of T = 64
        assert [row["T"] for row in want["curves"]] == [2, 4, 8, 16, 32] * 4
        assert sorted(len(r.values) for r in returns_all)[:3] == \
            [49, 200, 499]
        fits = stats.moment_scaling(
            [np.cumsum(r.excess()) for r in returns_all], (1.0, 2.0),
            [2 ** k for k in horizons])
        for q, fit in fits.items():
            curve = [row for row in want["curves"] if row["q"] == q]
            assert fit.horizons.tolist() == [row["T"] for row in curve]
            assert fit.statistics.tolist() == [row["M_q"] for row in curve]

    def test_no_market_with_three_horizons_gives_no_curve(self):
        returns_all = ragged_returns()[-1:]
        assert pipeline._pooled_moments(returns_all, [1, 2, 3]) == \
            {"qs": [1.0, 2.0, 3.0, 4.0], "curves": [], "hurst": {}}
