"""Regression, bootstrap, cross-validation and scaling estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import lfilter

import latticemarket as lm
from latticemarket import stats
from latticemarket.theory import PropagatorModel

TABLE_COEFFS = (0.0133, 0.0129, -0.0062)


def synthetic_xy(n, seed, noise=1.0, coeffs=TABLE_COEFFS):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    a, b, c = coeffs
    y = a + b * x + c * x ** 3 + noise * rng.standard_normal(n)
    return x, y


def lstsq_fit(x, y):
    """The lstsq fit with an explicit inverse: the reference for fit_cubic.

    Returns (coef, se, r2, gram condition).
    """
    n = x.size
    design = np.column_stack([np.ones_like(x), x, x ** 3])
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    resid = y - design @ coef
    ssr = resid @ resid
    r2 = 1.0 - ssr / np.sum((y - y.mean()) ** 2)
    gram = design.T @ design
    se = np.sqrt(np.diag(ssr / (n - 3) * np.linalg.inv(gram)))
    return coef, se, r2, np.linalg.cond(gram)


class TestFitCubic:
    @pytest.mark.parametrize("shift", [0.0, 3.0])
    def test_matches_lstsq_reference(self, shift):
        # shift 3 puts the Gram condition near 8e4
        x, y = synthetic_xy(5000, 26)
        rep = lm.fit_cubic(lm.moment_sums(x + shift, y))
        coef, se, r2, cond = lstsq_fit(x + shift, y)
        np.testing.assert_allclose(rep.coefficients, coef, rtol=1e-9)
        np.testing.assert_allclose(rep.standard_errors, se, rtol=1e-9)
        assert rep.r_squared == pytest.approx(r2, rel=1e-9)
        assert rep.gram_condition == pytest.approx(cond, rel=1e-9)

    def test_gram_condition_cut_is_the_rank_rule(self):
        # lstsq finds full rank here, but the Gram condition is ~1.4e14,
        # past the 1e12 cut that the bootstrap and the CV also apply
        x, y = synthetic_xy(2000, 5)
        assert np.linalg.matrix_rank(
            np.column_stack([np.ones_like(x), x + 30, (x + 30) ** 3])) == 3
        with pytest.raises(ValueError, match="rank"):
            lm.fit_cubic(lm.moment_sums(x + 30, y))

    def test_moment_columns_match_stacked_reference(self):
        x, y = synthetic_xy(1001, 27)
        x2 = x * x
        x3 = x2 * x
        stacked = np.array([np.ones_like(x), x, x2, x3, x2 * x2, x3 * x3,
                            y, x * y, x3 * y, y * y]).T
        cols = lm.moment_sums(x, y)
        assert cols.flags.f_contiguous
        np.testing.assert_array_equal(cols, stacked)

    @pytest.mark.parametrize("x,y,groups,message", [
        (np.arange(200.0), np.arange(200.0), np.arange(199),
         "mark every observation"),
        (np.ones((100, 2)), np.ones((100, 2)), None, "equal length"),
        (np.arange(200.0), np.arange(199.0), None, "equal length"),
    ], ids=["short-labels", "2d-x", "unequal-lengths"])
    def test_moment_sums_rejects_misaligned_input(self, x, y, groups,
                                                  message):
        with pytest.raises(ValueError, match=message):
            lm.moment_sums(x, y, groups)

    def test_noiseless_exact_recovery(self):
        x, y = synthetic_xy(5000, 0, noise=0.0)
        rep = lm.fit_cubic(lm.moment_sums(x, y))
        assert rep.a == pytest.approx(0.0133, abs=1e-10)
        assert rep.b == pytest.approx(0.0129, abs=1e-10)
        assert rep.c == pytest.approx(-0.0062, abs=1e-10)
        assert rep.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_null_model_no_significance(self):
        rng = np.random.default_rng(100)
        rep = lm.fit_cubic(lm.moment_sums(rng.standard_normal(2000),
                                          rng.standard_normal(2000)))
        assert np.all(np.abs(rep.coefficients) < 3.0 * rep.standard_errors)

    def test_noisy_recovery_within_errors(self):
        x, y = synthetic_xy(20000, 1)
        rep = lm.fit_cubic(lm.moment_sums(x, y))
        for got, want, se in zip(rep.coefficients, TABLE_COEFFS,
                                 rep.standard_errors):
            assert abs(got - want) < 3 * se

    def test_rank_deficiency_reported(self):
        with pytest.raises(ValueError, match="rank"):
            lm.fit_cubic(lm.moment_sums(np.ones(500), np.arange(500.0)))

    def test_minimum_observations(self):
        with pytest.raises(ValueError):
            lm.fit_cubic(lm.moment_sums(np.arange(50.0), np.arange(50.0)))

    def test_group_sums_give_the_pair_fit(self):
        # only the column sums of the rows matter: 400 pairs summed in
        # 37 groups fit as the pairs do, up to the sums' rounding
        x, y = synthetic_xy(400, 3)
        groups = np.random.default_rng(3).integers(0, 37, x.size)
        by_pair = lm.fit_cubic(lm.moment_sums(x, y))
        by_group = lm.fit_cubic(lm.moment_sums(x, y, groups))
        assert by_group.n_obs == by_pair.n_obs == 400
        for name in ("a", "b", "c", "se_a", "se_b", "se_c", "r_squared",
                     "gram_condition"):
            assert getattr(by_group, name) == pytest.approx(
                getattr(by_pair, name), rel=1e-12), name

    def test_r_squared_from_sums_matches_residual_pass(self):
        # SS_res = sum y^2 - 2 b.(sum y, sum xy, sum x^3 y) + b' G b cancels
        # at a few ulp of sum y^2: the R^2 error is near 1e-16 absolute
        x, y = synthetic_xy(20000, 28)
        rep = lm.fit_cubic(lm.moment_sums(x, y))
        resid = y - (rep.a + rep.b * x + rep.c * x ** 3)
        r2 = 1.0 - (resid @ resid) / np.sum((y - y.mean()) ** 2)
        assert abs(rep.r_squared - r2) < 1e-14


def loop_bootstrap(x, y, n_samples, seed, groups=None):
    """One gather, sum, cond and solve per resample: the reference loop."""
    cols = np.ascontiguousarray(lm.moment_sums(x, y))
    if groups is None:
        group_sums = cols
    else:
        _, codes = np.unique(groups, return_inverse=True)
        group_sums = np.zeros((codes.max() + 1, cols.shape[1]))
        np.add.at(group_sums, codes, cols)
    n_groups = group_sums.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    kept, skipped = [], 0
    for _ in range(n_samples):
        s = group_sums[rng.integers(0, n_groups, n_groups)].sum(axis=0)
        gram = np.array([[s[0], s[1], s[3]],
                         [s[1], s[2], s[4]],
                         [s[3], s[4], s[5]]])
        if not np.all(np.isfinite(gram)) \
                or np.linalg.cond(gram) > stats._COND_LIMIT:
            skipped += 1
        else:
            kept.append(np.linalg.solve(gram, s[6:9]))
    return np.asarray(kept), skipped


def degenerate_panel():
    """4 groups, each holding one distinct x: resamples that draw fewer
    than 3 distinct groups have a rank-2 Gram and are skipped."""
    rng = np.random.default_rng(77)
    groups = np.repeat(np.arange(4), 30)
    x = np.array([0.3, 1.1, 1.7, 2.9])[groups]
    return x, rng.standard_normal(x.size), groups


class TestBootstrap:
    @pytest.mark.parametrize("case", [
        "ungrouped", "grouped", "ragged_chunks", "degenerate"])
    def test_matches_per_resample_loop(self, case):
        groups = None
        n_samples = 200
        if case == "ungrouped":
            x, y = synthetic_xy(1500, 21)
        elif case == "grouped":
            x, y = synthetic_xy(3000, 22)
            groups = np.repeat(np.arange(1000), 3)
        elif case == "ragged_chunks":
            # 2**18 // 5000 = 52 resamples per chunk: chunks 52, 52, 26
            x, y = synthetic_xy(5000, 23)
            n_samples = 130
            assert n_samples % (stats._CHUNK_COUNTS // x.size) != 0
        else:
            x, y, groups = degenerate_panel()
        boot = lm.bootstrap_errors(lm.moment_sums(x, y, groups), n_samples,
                                   seed=31)
        samples, skipped = loop_bootstrap(x, y, n_samples, 31, groups)
        assert boot.n_skipped == skipped
        if case == "degenerate":
            assert skipped > 0
        # sums change order (counts @ group_sums), so a coefficient that
        # lands near zero in one resample carries the rounding of its
        # column's scale: the tolerance is 1e-12 of that scale
        scale = np.abs(samples).max(axis=0)
        np.testing.assert_allclose(boot.samples / scale, samples / scale,
                                   rtol=1e-12, atol=1e-12)

    def test_mismatched_inputs_rejected(self):
        x, y = synthetic_xy(500, 24)
        with pytest.raises(ValueError, match="equal length"):
            lm.bootstrap_errors(lm.moment_sums(x, y[:-1]), 150, seed=1)

    def test_non_finite_inputs_rejected(self):
        # counts @ group_sums would spread a non-finite row into every
        # resample as 0 * inf, so such data is refused up front
        x, y = synthetic_xy(500, 25)
        x[7] = np.inf
        with pytest.raises(ValueError, match="finite"):
            lm.bootstrap_errors(lm.moment_sums(x, y), 150, seed=1)
        x[7] = 1e60   # finite, but x^6 overflows
        with pytest.raises(ValueError, match="finite"), \
                np.errstate(over="ignore"):
            lm.bootstrap_errors(lm.moment_sums(x, y), 150, seed=1)

    def test_noiseless_relation_zero_se(self):
        x, y = synthetic_xy(2000, 5, noise=0.0)
        boot = lm.bootstrap_errors(lm.moment_sums(x, y), 150, seed=8)
        assert np.all(boot.standard_errors < 1e-10)
        assert boot.n_skipped == 0

    def test_deterministic_given_seed(self):
        x, y = synthetic_xy(2000, 6)
        a = lm.bootstrap_errors(lm.moment_sums(x, y), 200, seed=9)
        b = lm.bootstrap_errors(lm.moment_sums(x, y), 200, seed=9)
        assert np.array_equal(a.samples, b.samples)
        c = lm.bootstrap_errors(lm.moment_sums(x, y), 200, seed=10)
        assert not np.array_equal(a.samples, c.samples)

    def test_matches_classical_se_on_iid_data(self):
        x, y = synthetic_xy(5000, 7)
        classical = lm.fit_cubic(lm.moment_sums(x, y)).standard_errors
        boot = lm.bootstrap_errors(lm.moment_sums(x, y), 400, seed=7)
        ratio = boot.standard_errors / classical
        assert np.all(ratio > 0.85) and np.all(ratio < 1.15)

    def test_group_resampling(self):
        x, y = synthetic_xy(3000, 9)
        groups = np.repeat(np.arange(1000), 3)
        rows = lm.moment_sums(x, y, groups)
        boot = lm.bootstrap_errors(rows, 200, seed=12)
        assert np.all(boot.standard_errors > 0)
        again = lm.bootstrap_errors(rows, 200, seed=12)
        assert np.array_equal(boot.samples, again.samples)

    def test_minimum_samples(self):
        x, y = synthetic_xy(1000, 10)
        with pytest.raises(ValueError):
            lm.bootstrap_errors(lm.moment_sums(x, y), 50, seed=1)

    def test_sums_form_is_the_pair_form(self):
        # a group's row is its pairs' rows added in pair order
        x, y = synthetic_xy(500, 11)
        groups = np.random.default_rng(11).permutation(
            np.repeat(np.arange(250), 2))
        summed = np.zeros((250, 10))
        for label, row in zip(groups, lm.moment_sums(x, y)):
            summed[label] += row
        rows = lm.moment_sums(x, y, groups)
        np.testing.assert_array_equal(rows, summed)
        by_pair = lm.bootstrap_errors(summed, 150, seed=2)
        by_rows = lm.bootstrap_errors(rows, 150, 2)
        np.testing.assert_array_equal(by_rows.samples, by_pair.samples)
        assert by_rows.samples.shape == (150, 3)


def offset_bootstrap(rows, n_samples, seed):
    """The bootstrap with one (c, G) draw per chunk, counted by one
    bincount of the draws offset by row and converted to float: the
    formulation the sub-draws replaced.  Returns samples, standard errors
    and the skipped count."""
    group_sums = np.ascontiguousarray(np.asarray(rows, np.float64)[:, :9])
    n_groups = group_sums.shape[0]
    chunk = max(1, stats._CHUNK_COUNTS // n_groups)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sums = np.empty((n_samples, 9))
    for start in range(0, n_samples, chunk):
        c = min(chunk, n_samples - start)
        draws = rng.integers(0, n_groups, (c, n_groups))
        draws += np.arange(0, c * n_groups, n_groups)[:, None]
        counts = np.bincount(draws.ravel(), minlength=c * n_groups)
        sums[start:start + c] = (
            counts.reshape(c, n_groups).astype(np.float64) @ group_sums)
    coef, cond = stats._solve_from_sums(sums)
    samples = coef[cond <= stats._COND_LIMIT]
    return samples, samples.std(axis=0, ddof=1), n_samples - len(samples)


def grouped_rows(n_groups, seed):
    """(G, 10) moment sums of 3 noisy cubic pairs per group."""
    x, y = synthetic_xy(3 * n_groups, seed)
    return lm.moment_sums(x, y, np.repeat(np.arange(n_groups), 3))


class TestBootstrapSubDraws:
    # G = 137: chunks of 1913 resamples drawn 239 at a time; G = 3999:
    # chunks of 65 drawn 8 at a time; G = 2**18 + 3: one resample a chunk
    @pytest.mark.parametrize("n_groups, n_samples, seed", [
        (g, n, seed) for g in (137, 3999) for n in (100, 131, 5000)
        for seed in (5, 6)] + [(2 ** 18 + 3, 100, 5), (2 ** 18 + 3, 131, 6)])
    def test_bit_equal_to_one_draw_per_chunk(self, n_groups, n_samples,
                                             seed):
        rows = grouped_rows(n_groups, 40 + seed)
        boot = lm.bootstrap_errors(rows, n_samples, seed)
        samples, se, skipped = offset_bootstrap(rows, n_samples, seed)
        assert np.array_equal(boot.samples, samples)
        assert np.array_equal(boot.standard_errors, se)
        assert boot.n_skipped == skipped

    @pytest.mark.parametrize("n_groups", [137, 3999, 70001])
    def test_row_draws_are_the_chunk_draw(self, n_groups):
        chunk = stats._CHUNK_COUNTS // n_groups
        step = max(1, stats._DRAW_CELLS // n_groups)
        whole = np.random.default_rng(9)
        parts = np.random.default_rng(9)
        for _ in range(2):              # the stream goes on equal after it
            expect = whole.integers(0, n_groups, (chunk, n_groups))
            got = np.concatenate([
                parts.integers(0, n_groups, (min(step, chunk - r), n_groups))
                for r in range(0, chunk, step)])
            assert np.array_equal(got, expect)


class TestCrossValidate:
    def test_noiseless_cubic_perfect_score(self):
        x, y = synthetic_xy(3000, 12, noise=0.0)
        cv = lm.cross_validate(lm.moment_sums(x, y), 15)
        assert cv.r_squared == pytest.approx(1.0, abs=1e-10)

    def test_pure_noise_non_positive(self):
        rng = np.random.default_rng(50)
        x = rng.standard_normal(3000)
        _ = rng.standard_normal(3000)  # keep stream aligned with pilot
        y = rng.standard_normal(3000)
        cv = lm.cross_validate(lm.moment_sums(x, y), 15)
        assert cv.r_squared <= 0.005

    def test_single_fold_rejected(self):
        x, y = synthetic_xy(3000, 13)
        with pytest.raises(ValueError):
            lm.cross_validate(lm.moment_sums(x, y), 1)

    def test_fold_size_precondition(self):
        # 15 folds of 50 observations hold 3 or 4 each, under the 4 needed
        x, y = synthetic_xy(50, 14)
        with pytest.raises(ValueError, match="too small"):
            lm.cross_validate(lm.moment_sums(x, y), 15)

    @pytest.mark.parametrize("folds", [2, 7])
    def test_unblocked_folds_match_lstsq_reference(self, folds):
        x, y = synthetic_xy(1000, 15)
        scores = []
        for val in np.array_split(np.arange(x.size), folds):
            train = np.ones(x.size, dtype=bool)
            train[val] = False
            design = np.column_stack([np.ones(train.sum()), x[train],
                                      x[train] ** 3])
            coef = np.linalg.lstsq(design, y[train], rcond=None)[0]
            pred = coef[0] + coef[1] * x[val] + coef[2] * x[val] ** 3
            ss_tot = np.sum((y[val] - y[train].mean()) ** 2)
            scores.append(1.0 - np.sum((y[val] - pred) ** 2) / ss_tot)
        cv = lm.cross_validate(lm.moment_sums(x, y), folds)
        np.testing.assert_allclose(cv.r_squared_folds, scores, rtol=1e-10)


def _increasing_map(labels, rng):
    """labels under a random strictly increasing map onto sparse int64s."""
    unique, codes = np.unique(labels, return_inverse=True)
    images = rng.integers(-10 ** 6, 10 ** 6) \
        + np.cumsum(rng.integers(1, 10 ** 6, unique.size))
    return images[codes]


class TestBlockProperties:
    """Fold and resample sets depend on block order, not on label values;
    row order only changes the rounding of the moment sums."""

    @staticmethod
    def _panel(seed, n_blocks):
        rng = np.random.default_rng(seed)
        blocks = np.sort(rng.integers(0, n_blocks, 600)) * 7 + 3
        x, y = synthetic_xy(blocks.size, seed)
        return x, y, blocks, rng

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_blocks=st.integers(40, 300),
           folds=st.integers(2, 12))
    def test_cv_relabel_and_row_order(self, seed, n_blocks, folds):
        x, y, blocks, rng = self._panel(seed, n_blocks)
        base = lm.cross_validate(lm.moment_sums(x, y, blocks), folds)
        relabelled = lm.cross_validate(
            lm.moment_sums(x, y, _increasing_map(blocks, rng)), folds)
        np.testing.assert_array_equal(relabelled.r_squared_folds,
                                      base.r_squared_folds)
        perm = rng.permutation(x.size)
        permuted = lm.cross_validate(
            lm.moment_sums(x[perm], y[perm], blocks[perm]), folds)
        # a score is 1 - SS_res / SS_tot, so its scale is that of 1
        np.testing.assert_allclose(permuted.r_squared_folds,
                                   base.r_squared_folds, rtol=0, atol=1e-12)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_blocks=st.integers(3, 300))
    def test_bootstrap_relabel_and_row_order(self, seed, n_blocks):
        x, y, groups, rng = self._panel(seed, n_blocks)
        base = lm.bootstrap_errors(lm.moment_sums(x, y, groups), 100, seed)
        relabelled = lm.bootstrap_errors(
            lm.moment_sums(x, y, _increasing_map(groups, rng)), 100, seed)
        np.testing.assert_array_equal(relabelled.samples, base.samples)
        perm = rng.permutation(x.size)
        permuted = lm.bootstrap_errors(
            lm.moment_sums(x[perm], y[perm], groups[perm]), 100, seed)
        assert permuted.n_skipped == base.n_skipped
        scale = np.abs(base.samples).max(axis=0)
        np.testing.assert_allclose(permuted.samples / scale,
                                   base.samples / scale, rtol=0, atol=1e-12)


class TestParabolicFit:
    KS = np.arange(1, 11, dtype=float)

    def test_exact_recovery(self):
        b = 0.02 * (1.0 - (self.KS - 6.0) ** 2 / 25.0)
        fit = lm.fit_parabolic_b(list(zip(self.KS, b)),
                                 [(k, -0.006) for k in self.KS])
        assert not fit.degenerate
        assert fit.amplitude == pytest.approx(0.02, rel=1e-9)
        assert fit.k0 == pytest.approx(6.0, rel=1e-9)
        assert fit.delta_k == pytest.approx(5.0, rel=1e-9)
        assert fit.c_const == pytest.approx(-0.006)

    def test_constant_b_flagged_degenerate(self):
        fit = lm.fit_parabolic_b([(k, 0.01) for k in self.KS],
                                 [(k, -0.006) for k in self.KS])
        assert fit.degenerate
        assert fit.delta_k == math.inf

    def test_too_few_scales(self):
        with pytest.raises(ValueError):
            lm.fit_parabolic_b([(1, 0.1), (2, 0.2), (3, 0.1)], [])


class TestMomentScaling:
    HORIZONS = [2 ** k for k in range(1, 9)]

    def test_brownian_scaling(self):
        path = np.cumsum(np.random.default_rng(0).standard_normal(100000))
        fits = lm.moment_scaling([path], [1.0, 2.0, 3.0, 4.0], self.HORIZONS)
        for q, fit in fits.items():
            assert fit.exponent == pytest.approx(0.5, abs=0.02)

    def test_scrambling_restores_half(self):
        rng = np.random.default_rng(301)
        ar = lfilter([1.0], [1.0, -0.6], rng.standard_normal(30000))
        scrambled = np.random.default_rng(302).permutation(ar)
        fits = lm.moment_scaling([np.cumsum(scrambled)], [1.0, 2.0, 3.0, 4.0],
                                 self.HORIZONS)
        for fit in fits.values():
            assert fit.exponent == pytest.approx(0.5, abs=0.02)

    def test_fractional_noise_oracle(self):
        fgn = lm.fractional_gaussian_noise(2 ** 15, 0.7, seed=9)
        fits = lm.moment_scaling([np.cumsum(fgn)], [2.0], self.HORIZONS)
        assert fits[2.0].exponent == pytest.approx(0.7, abs=0.03)

    def test_too_short_series(self):
        with pytest.raises(ValueError):
            lm.moment_scaling([np.arange(100.0)], [2.0], [16, 32, 64])

    def test_needs_three_distinct_horizons(self):
        path = np.cumsum(np.random.default_rng(3).standard_normal(3000))
        with pytest.raises(ValueError, match="3 distinct horizons"):
            lm.moment_scaling([path], [2.0], [8, 8, 16, 16])
        assert lm.moment_scaling([path], [2.0], [4, 8, 8, 16])[2.0].horizons \
            .size == 4

    def test_single_path_is_its_window_mean(self):
        # pooled as M_q (len - T) / (len - T): within one ulp of the mean
        path = np.cumsum(np.random.default_rng(4).standard_normal(5000))
        fits = lm.moment_scaling([path], [1.0, 2.0, 3.0, 4.0], self.HORIZONS)
        for q, fit in fits.items():
            for t, m in zip(fit.horizons.astype(int), fit.statistics):
                want = np.mean(np.abs(path[t:] - path[:-t]) ** q)
                assert abs(m - want) <= np.spacing(want), (q, t)

    def test_horizons_past_a_tenth_are_dropped(self):
        path = np.cumsum(np.random.default_rng(5).standard_normal(100))
        fit = lm.moment_scaling([path], [2.0], [8, 2, 4, 16])[2.0]
        assert fit.horizons.tolist() == [2.0, 4.0, 8.0]
        with pytest.raises(ValueError, match="no path covers"):
            lm.moment_scaling([path[:79]], [2.0], [8, 2, 4, 16])


class TestFitKappa:
    def test_exact_power_law(self):
        ks = np.arange(1, 11, dtype=float)
        points = [(k, (2.0 ** k) ** (0.9 - 1.0)) for k in ks]
        fit = lm.fit_kappa(points)
        assert fit.exponent == pytest.approx(0.9, abs=1e-12)
        assert fit.exponent_se == pytest.approx(0.0, abs=1e-10)

    def test_weighted_fit(self):
        ks = np.arange(1, 11, dtype=float)
        points = [(k, (2.0 ** k) ** (-0.1)) for k in ks]
        weights = 2.0 ** (10 - ks)
        fit = lm.fit_kappa(points, weights=weights)
        assert fit.exponent == pytest.approx(0.9, abs=1e-12)

    def test_non_positive_variance_rejected(self):
        with pytest.raises(ValueError):
            lm.fit_kappa([(1, 1.0), (2, 0.0), (3, 0.5)])

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            lm.fit_kappa([(1, 1.0), (2, 0.9)])

    def test_needs_three_distinct_k(self):
        # repeated k add rows, not scales: one or two k fix no slope error
        for ks in ([3, 3, 3], [2, 3, 3, 2]):
            with pytest.raises(ValueError, match="3 or more distinct k"):
                lm.fit_kappa([(k, 0.9 + 0.01 * i) for i, k in enumerate(ks)])
        fit = lm.fit_kappa([(1, 0.9), (2, 0.8), (2, 0.82), (3, 0.7)])
        assert fit.statistics.size == 4

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        points = [(1, 0.9), (2, 0.8), (3, 0.7)]
        with pytest.raises(ValueError, match="finite"):
            lm.fit_kappa([(1, 0.9), (2, bad), (3, 0.7)])
        with pytest.raises(ValueError, match="finite"):
            lm.fit_kappa([(1, 0.9), (bad, 0.8), (3, 0.7)])
        with pytest.raises(ValueError, match="finite"):
            lm.fit_kappa(points, weights=[1.0, bad, 1.0])

    def test_closed_loop_with_theory(self):
        model = PropagatorModel(tau=2 ** 12, kappa=0.9, regime="scaling")
        points = [(k, lm.predicted_trend_variance(model, 2.0 ** k, "tilde"))
                  for k in range(1, 9)]
        fit = lm.fit_kappa(points)
        assert fit.exponent == pytest.approx(0.9, abs=1e-9)


class TestGaussianProcess:
    def test_exponential_covariance_matches_delta(self):
        model = PropagatorModel(tau=64.0, kappa=0.9, regime="exponential")
        paths = np.array([
            lm.gaussian_process_from_propagator(model, 512, seed=i)
            for i in range(200)])
        for lag in (0, 1, 4, 16):
            if lag:
                emp = float(np.mean(paths[:, lag:] * paths[:, :-lag]))
            else:
                emp = float(np.mean(paths * paths))
            assert emp == pytest.approx(lm.propagator(model, lag), rel=0.05)

    def test_ou_lag_one_autocorrelation(self):
        tau = 32.0
        model = PropagatorModel(tau=tau, kappa=1.0, regime="exponential")
        path = lm.gaussian_process_from_propagator(model, 2 ** 15, seed=3)
        rho = np.corrcoef(path[1:], path[:-1])[0, 1]
        assert rho == pytest.approx(math.exp(-1.0 / tau), abs=0.02)

    def test_scaling_structure_function(self):
        model = PropagatorModel(tau=4096.0, kappa=0.808, regime="scaling")
        path = lm.gaussian_process_from_propagator(model, 2 ** 15, seed=5)
        for horizon in (1, 4, 16):
            diffs = path[horizon:] - path[:-horizon]
            assert np.mean(diffs ** 2) == pytest.approx(
                horizon ** 0.808, rel=0.05)

    def test_increment_anticorrelation_for_kappa_below_one(self):
        model = PropagatorModel(tau=4096.0, kappa=0.808, regime="scaling")
        path = lm.gaussian_process_from_propagator(model, 2 ** 14, seed=6)
        inc = np.diff(path)
        rho = np.corrcoef(inc[1:], inc[:-1])[0, 1]
        assert rho < 0.0

    def test_indefinite_covariance_rejected(self):
        # an alternating pseudo-covariance is far from PSD
        bad = np.array([1.0, -2.0, 1.5, -1.0])
        with pytest.raises(ValueError, match="positive semi-definite"):
            stats._stationary_gaussian(bad, np.random.default_rng(0))

    def test_path_length_cap(self):
        model = PropagatorModel(tau=64.0, kappa=0.9, regime="exponential")
        with pytest.raises(ValueError):
            lm.gaussian_process_from_propagator(model, 2 ** 15 + 1, seed=0)

    def test_matched_regime_unsupported(self):
        model = PropagatorModel(tau=64.0, kappa=0.9, regime="matched",
                                t_star=16.0)
        with pytest.raises(ValueError):
            lm.gaussian_process_from_propagator(model, 256, seed=0)

    def test_fgn_requires_valid_hurst(self):
        with pytest.raises(ValueError):
            lm.fractional_gaussian_noise(100, 1.0, seed=0)

    def test_fgn_unit_variance_and_sign(self):
        for hurst, sign in ((0.3, -1), (0.7, +1)):
            fgn = lm.fractional_gaussian_noise(2 ** 14, hurst, seed=4)
            assert fgn.var() == pytest.approx(1.0, rel=0.06)
            rho = np.corrcoef(fgn[1:], fgn[:-1])[0, 1]
            theory_rho = 2.0 ** (2 * hurst - 1) - 1.0
            assert rho == pytest.approx(theory_rho, abs=0.03)
            assert rho * sign > 0
