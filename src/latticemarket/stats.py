"""Empirical estimation: trend regressions, bootstrap, scaling exponents.

The core regression models tomorrow's normalized return as a cubic
polynomial of today's trend strength,

    R(t+1) = a + b phi(t) + c phi(t)^3 + noise,

with quadratic and quartic terms deliberately absent (they carry no
statistical significance on market data).  Every cubic fit (the point
fit, each bootstrap resample and each cross-validation training set)
solves the normal equations from sums of the same ten moment columns,
and its residual sum of squares comes from those sums too, so the fits
run on rows of per-group sums as well as on per-observation rows.
Standard errors come from i.i.d. day bootstrapping, out-of-sample
explanatory power from contiguous-block cross-validation.  Scaling
exponents (kappa, Hurst) are read off log-log regressions of variance
and moment curves, and a seeded Gaussian-process generator provides
oracle paths whose two-point statistics follow a given propagator model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .theory import PropagatorModel

_MIN_OBSERVATIONS = 100
_COND_LIMIT = 1e12
_CHUNK_COUNTS = 2 ** 18     # bootstrap count-matrix cells per chunk
_DRAW_CELLS = 2 ** 15       # bootstrap group draws per generator call
# (1, x, x^3) Gram entries, row-major, as indices into the moment sums
_GRAM = [0, 1, 3, 1, 2, 4, 3, 4, 5]


# -- cubic regression --------------------------------------------------------

@dataclass(frozen=True)
class RegressionReport:
    """Cubic-regression coefficients with classical errors and fit quality.

    The out-of-sample figure comes from cross_validate.  R-squared values
    are fractions; multiply by 1e4 to read them in basis points.
    """
    a: float
    b: float
    c: float
    se_a: float
    se_b: float
    se_c: float
    r_squared: float
    n_obs: int
    gram_condition: float     # 2-norm condition of the (1, x, x^3) Gram

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c])

    @property
    def standard_errors(self) -> np.ndarray:
        return np.array([self.se_a, self.se_b, self.se_c])


def _moments(x, y, one):
    """The ten cubic normal-equation moments of pairs (x, y) in column
    order: one, x, x^2, x^3, x^4, x^6, y, x y, x^3 y and y^2, where `one`
    counts the pairs (1.0, or a 0/1 mask).  Each is computed as it is
    asked for, from the same products, so a caller that drops each before
    asking for the next holds few at once."""
    yield one
    del one                 # the caller's reference is then the only one
    yield x
    x2 = x * x
    yield x2
    x3 = x2 * x
    yield x3
    yield x2 * x2
    del x2
    yield x3 * x3
    yield y
    yield x * y
    yield x3 * y
    yield y * y


def moment_sums(x, y, groups=None) -> np.ndarray:
    """Rows of the ten moments (_moments) of pre-aligned pairs (x, y): one
    row per pair, or with `groups` labels (e.g. dates shared by several
    markets) one row of sums per distinct label, in ascending label order,
    np.bincount adding each group's pairs in pair order.  These rows are
    what fit_cubic, bootstrap_errors and cross_validate read."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if groups is not None and np.shape(groups) != x.shape:
        raise ValueError("labels must mark every observation")
    rows = np.empty((x.size, 10), order="F")
    for col, moment in zip(rows.T, _moments(x, y, 1.0)):
        col[:] = moment
    if groups is None:
        return rows
    codes = np.unique(groups, return_inverse=True)[1]
    return np.array([np.bincount(codes, weights=col) for col in rows.T]).T


def _ss_res(sums: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Residual sums of squares, sum y^2 - 2 coef.(sum y, sum x y, sum x^3 y)
    + coef' G coef, of (k, 3) coefficients on (k, 10) moment sums."""
    gram = sums[:, _GRAM].reshape(-1, 3, 3)
    return (sums[:, 9] - 2.0 * np.einsum("ki,ki->k", coef, sums[:, 6:9])
            + np.einsum("ki,kij,kj->k", coef, gram, coef))


def fit_cubic(rows) -> RegressionReport:
    """OLS of y on (1, x, x^3) from (n, 10) rows of moment sums.

    Only the column sums matter: the per-pair or per-group rows of
    moment_sums give the same fit.  A Gram that is non-finite or has a
    condition number above 1e12 is rejected as rank-deficient.  SS_res and
    SS_tot = sum y^2 - (sum y)^2 / n carry a few ulp of sum y^2 of rounding.
    """
    sums = np.asarray(rows, dtype=np.float64).sum(axis=0)
    n = int(sums[0])
    if n < _MIN_OBSERVATIONS:
        raise ValueError(
            f"need at least {_MIN_OBSERVATIONS} observations, got {n}")
    coef, cond = _solve_from_sums(sums[None])
    coef, cond = coef[0], float(cond[0])
    if not cond <= _COND_LIMIT:
        raise ValueError("rank-deficient design (constant trend strength?)")
    ssr = max(float(_ss_res(sums[None], coef[None])[0]), 0.0)
    sst = float(sums[9] - sums[6] ** 2 / n)
    sigma2 = ssr / (n - 3)
    cov = sigma2 * np.linalg.inv(sums[_GRAM].reshape(3, 3))
    se = np.sqrt(np.diag(cov))
    r2 = 1.0 - ssr / sst if sst > 0 else 0.0
    return RegressionReport(
        a=float(coef[0]), b=float(coef[1]), c=float(coef[2]),
        se_a=float(se[0]), se_b=float(se[1]), se_c=float(se[2]),
        r_squared=r2, n_obs=n, gram_condition=cond)


# -- bootstrap ---------------------------------------------------------------

@dataclass(frozen=True)
class BootstrapResult:
    """Resampled coefficient spread for the cubic regression."""
    se_a: float
    se_b: float
    se_c: float
    samples: np.ndarray       # (n_kept, 3) resampled coefficients
    n_skipped: int

    @property
    def standard_errors(self) -> np.ndarray:
        return np.array([self.se_a, self.se_b, self.se_c])


def _solve_from_sums(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, 3) coefficients and (k,) Gram conditions from the first nine
    columns of (k, 10) moment sums.

    Rows whose Gram is non-finite (condition inf) or has condition above
    _COND_LIMIT are not solved: their coefficients are NaN.
    """
    gram = sums[:, _GRAM].reshape(-1, 3, 3)
    finite = np.isfinite(gram).all(axis=(1, 2))
    cond = np.full(len(sums), np.inf)
    cond[finite] = np.linalg.cond(gram[finite])
    ok = cond <= _COND_LIMIT
    coef = np.full((len(sums), 3), np.nan)
    # the trailing axis keeps rhs a stack of vectors on numpy 1.x and 2.x
    coef[ok] = np.linalg.solve(gram[ok], sums[ok, 6:9, None])[..., 0]
    return coef, cond


def bootstrap_errors(rows, n_samples: int, seed) -> BootstrapResult:
    """Group-resampled standard errors from (G, 10) rows of moment sums.

    The G rows (groups, e.g. days holding several markets) are resampled
    i.i.d. with replacement and the regression refit on each sample; the
    per-coefficient standard deviation is reported.  Deterministic for a
    fixed seed; degenerate resamples (Gram non-finite or condition above
    1e12) are skipped and counted.

    The groups are resampled in chunks of c = max(1, 2**18 // G): a
    chunk's moment sums are counts @ rows, with counts the (c, G) matrix of
    how often each group was drawn, and the sums of all resamples are
    solved at once.  The chunk boundaries fix the rows of each product, and
    with them its floating-point rounding.  Within a chunk the draws are
    taken r = max(1, 2**15 // G) resamples at a time,
    rng.integers(0, G, (r, G)), the same integers as one (c, G) draw, and
    each resample's counts are tallied into one float block reused by
    every chunk.
    """
    if n_samples < 100:
        raise ValueError("need at least 100 bootstrap samples")
    group_sums = np.ascontiguousarray(
        np.asarray(rows, dtype=np.float64)[:, :9])
    n_obs = int(group_sums[:, 0].sum())
    if n_obs < _MIN_OBSERVATIONS:
        raise ValueError(
            f"need at least {_MIN_OBSERVATIONS} observations, got {n_obs}")
    if not np.isfinite(group_sums).all():
        raise ValueError("x and y must give finite moment sums up to x^6")
    n_groups = group_sums.shape[0]
    chunk = max(1, _CHUNK_COUNTS // n_groups)
    step = max(1, _DRAW_CELLS // n_groups)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    counts = np.empty((min(chunk, n_samples), n_groups))
    sums = np.empty((n_samples, 9))
    for start in range(0, n_samples, chunk):
        c = min(chunk, n_samples - start)
        for row in range(0, c, step):
            draws = rng.integers(0, n_groups, (min(step, c - row), n_groups))
            for i, drawn in enumerate(draws, row):
                counts[i] = np.bincount(drawn, minlength=n_groups)
        sums[start:start + c] = counts[:c] @ group_sums
    coef, cond = _solve_from_sums(sums)
    samples = coef[cond <= _COND_LIMIT]
    if samples.size == 0:
        raise ValueError("all bootstrap resamples were degenerate")
    se = samples.std(axis=0, ddof=1)
    return BootstrapResult(se_a=float(se[0]), se_b=float(se[1]),
                           se_c=float(se[2]), samples=samples,
                           n_skipped=n_samples - samples.shape[0])


# -- cross-validation ---------------------------------------------------------

@dataclass(frozen=True)
class CrossValidationResult:
    """Out-of-sample R-squared from contiguous-block folds; r_squared is
    the mean of the folds' scores."""
    r_squared_folds: np.ndarray
    r_squared: float
    fold_sizes: np.ndarray    # held-out observations per fold


def cross_validate(rows, folds: int) -> CrossValidationResult:
    """Contiguous-block CV of the cubic regression from (B, 10) rows of
    moment sums, one row per block in block order (moment_sums with
    labels, e.g. calendar day ordinals, that sort into the blocks).

    The B blocks are split into `folds` runs as by np.array_split, so no
    block is split across two folds; each fold holds at least 4
    observations and leaves at least 30 for training.  The training fits
    solve from the total sums minus each held-out fold's, in one stacked
    solve, and a training Gram that is non-finite or has a condition
    number above 1e12 is rank-deficient.  Each fold scores 1 - SS_res /
    SS_tot from its sums, with SS_tot against the training mean.
    """
    if folds < 2:
        raise ValueError("need at least 2 folds")
    rows = np.asarray(rows, dtype=np.float64)
    if len(rows) < folds:
        raise ValueError("fewer distinct blocks than folds")
    q, r = divmod(len(rows), folds)
    fold = np.arange(folds)
    fold_sums = np.add.reduceat(rows, fold * q + np.minimum(fold, r))
    sizes = fold_sums[:, 0]
    n = sizes.sum()
    if np.any(sizes < 4) or np.any(n - sizes < 30):
        raise ValueError("fold too small: need at least 4 held-out and "
                         "30 training observations per fold")
    train = fold_sums.sum(axis=0) - fold_sums
    coef, _ = _solve_from_sums(train)
    if np.isnan(coef).any():
        raise ValueError("rank-deficient design (constant trend strength?)")
    mean = train[:, 6] / train[:, 0]
    ss_tot = fold_sums[:, 9] - 2.0 * mean * fold_sums[:, 6] + sizes * mean ** 2
    ss_res = _ss_res(fold_sums, coef)
    scores = 1.0 - ss_res / np.where(ss_tot > 0, ss_tot, 1.0)
    scores[ss_tot <= 0] = 0.0
    return CrossValidationResult(r_squared_folds=scores,
                                 r_squared=float(scores.mean()),
                                 fold_sizes=sizes.astype(np.int64))


# -- parabolic scale dependence ------------------------------------------------

@dataclass(frozen=True)
class ParabolicFit:
    """b(k) = amplitude * (1 - (k - k0)^2 / delta_k^2) plus a constant c.

    Fitted by the exact quadratic-in-k reparametrization of the same
    least-squares objective; degenerate curvature (flat or convex b)
    is flagged with delta_k = inf.
    """
    amplitude: float
    k0: float
    delta_k: float
    c_const: float
    degenerate: bool = False


def fit_parabolic_b(b_by_scale, c_by_scale) -> ParabolicFit:
    """Fit the peaked horizon dependence of b and the constant level of c.

    b_by_scale and c_by_scale are sequences of (k, value) with
    k = log2(horizon).
    """
    b_pts = np.asarray(list(b_by_scale), dtype=np.float64)
    c_pts = np.asarray(list(c_by_scale), dtype=np.float64)
    if b_pts.ndim != 2 or b_pts.shape[1] != 2 or b_pts.shape[0] < 4:
        raise ValueError("need at least 4 (k, b) points")
    k = b_pts[:, 0]
    b = b_pts[:, 1]
    design = np.column_stack([np.ones_like(k), k, k * k])
    beta, _, rank, _ = np.linalg.lstsq(design, b, rcond=None)
    c_const = float(c_pts[:, 1].mean()) if c_pts.size else 0.0
    scale = float(np.abs(b).max()) + 1e-300
    b0, b1, b2 = beta
    if rank < 3 or b2 >= -1e-10 * scale \
            or (amp := float(b0 - b1 * b1 / (4.0 * b2))) <= 0:
        return ParabolicFit(amplitude=float("nan"), k0=float("nan"),
                            delta_k=math.inf, c_const=c_const,
                            degenerate=True)
    return ParabolicFit(amplitude=amp, k0=float(-b1 / (2.0 * b2)),
                        delta_k=math.sqrt(-amp / b2), c_const=c_const)


# -- scaling fits ---------------------------------------------------------------

@dataclass(frozen=True)
class ScalingFit:
    """A scaling exponent and its standard error, read off the log-log
    slope of the statistics over the horizons."""
    horizons: np.ndarray
    statistics: np.ndarray
    exponent: float
    exponent_se: float


def _line_fit(x: np.ndarray, y: np.ndarray,
              weights: np.ndarray | None) -> tuple[float, float]:
    """Slope of the (weighted) least-squares line of y on x and its
    standard error from the weighted residual scatter."""
    design = np.column_stack([x, np.ones_like(x)])
    w = np.ones_like(x) if weights is None else np.asarray(weights, float)
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    wd = design * w[:, None]
    gram = design.T @ wd
    beta = np.linalg.solve(gram, wd.T @ y)
    resid = y - design @ beta
    dof = max(x.size - 2, 1)
    sigma2 = float((w * resid * resid).sum() / dof)
    cov = sigma2 * np.linalg.inv(gram)
    return float(beta[0]), float(math.sqrt(cov[0, 0]))


def moment_scaling(paths, qs, horizons) -> dict[float, ScalingFit]:
    """Generalized Hurst exponents from moment curves M_q(T) pooled over
    paths; a single path is passed as [path].

    A path's M_q(T) is the mean over its len - T sliding windows (step 1)
    of |pi(t+T) - pi(t)|^q.  A path enters at every T with 10 T <= len,
    provided it has 3 distinct such T, and adds M_q(T) (len - T), one path
    at a time; the pooled M_q(T) is that sum over the summed len - T.  H_q
    is slope(log M_q vs log T) / q over the T that some path entered.
    """
    horizons = np.asarray(sorted(int(t) for t in horizons))
    if len(set(horizons.tolist())) < 3:
        raise ValueError("need at least 3 distinct horizons")
    if np.any(horizons < 1):
        raise ValueError("horizons must be >= 1")
    if any(q <= 0 for q in qs):
        raise ValueError("moment orders must be positive")
    sums = np.zeros((len(qs), horizons.size))
    windows = np.zeros(horizons.size, dtype=np.int64)
    for path in paths:
        x = np.asarray(path, dtype=np.float64)
        usable = horizons[10 * horizons <= x.size]
        if len(set(usable.tolist())) < 3:
            continue
        for j, t in enumerate(usable.tolist()):
            diff = np.abs(x[t:] - x[:-t])
            for i, q in enumerate(qs):
                sums[i, j] += np.mean(diff ** q) * (x.size - t)
            windows[j] += x.size - t
    entered = windows > 0
    if not entered.any():
        raise ValueError("no path covers 10 T at 3 distinct horizons")
    log_t = np.log(horizons[entered].astype(float))
    out: dict[float, ScalingFit] = {}
    for q, row in zip(qs, sums):
        mq = row[entered] / windows[entered]
        slope, slope_se = _line_fit(log_t, np.log(mq), None)
        out[float(q)] = ScalingFit(
            horizons=horizons[entered].astype(float), statistics=mq,
            exponent=slope / q, exponent_se=slope_se / q)
    return out


def fit_kappa(variances_by_scale, weights=None) -> ScalingFit:
    """Read kappa off the scale dependence of the trend variance.

    Input points are (k, var) with k = log2(horizon).  ln(var) is
    regressed on k ln 2, whose slope is kappa - 1 (exact for the power
    law var = T^(kappa-1)).  Optional per-point weights (e.g. effective
    window counts) give a weighted fit.  Points and weights must be
    finite, and variances positive.
    """
    pts = np.asarray(list(variances_by_scale), dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(set(pts[:, 0].tolist())) < 3:
        raise ValueError("need (k, variance) points at 3 or more distinct k")
    w = None if weights is None else np.asarray(weights, dtype=np.float64)
    if not (np.isfinite(pts).all() and (w is None or np.isfinite(w).all())):
        raise ValueError("k, variances and weights must be finite")
    k = pts[:, 0]
    var = pts[:, 1]
    if np.any(var <= 0):
        raise ValueError("variances must be positive for the log fit")
    slope, slope_se = _line_fit(k * math.log(2.0), np.log(var), w)
    return ScalingFit(horizons=2.0 ** k, statistics=var,
                      exponent=1.0 + slope, exponent_se=slope_se)


# -- Gaussian-process oracle ---------------------------------------------------

_EIG_CLIP_REL = 1e-10
_MAX_PATH = 2 ** 15


def _stationary_gaussian(cov: np.ndarray, rng: np.random.Generator
                         ) -> np.ndarray:
    """One sample of a stationary Gaussian vector by circulant embedding.

    cov[h] is the autocovariance at lag h.  The covariance is embedded in
    a circulant whose eigenvalues come from one FFT; eigenvalues below
    -1e-10 * cov[0] mean the embedding is indefinite and raise, small
    negatives are clipped to zero (the documented jitter).
    """
    n = cov.size
    emb = np.concatenate([cov, cov[-2:0:-1]])
    lam = np.fft.fft(emb).real
    if lam.min() < -_EIG_CLIP_REL * abs(cov[0]):
        raise ValueError(
            "covariance is not positive semi-definite beyond clip tolerance")
    lam = np.clip(lam, 0.0, None)
    m = emb.size
    # The real part of one complex draw carries half the circulant
    # covariance, hence the 1/m (not 1/2m) scaling.
    z = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return np.fft.fft(np.sqrt(lam / m) * z).real[:n]


def fractional_gaussian_noise(n: int, hurst: float, seed) -> np.ndarray:
    """Exact unit-variance fractional Gaussian noise (Davies-Harte).

    The autocovariance rho(h) = (|h+1|^2H - 2|h|^2H + |h-1|^2H) / 2 is
    realized exactly; cumulating the output gives fractional Brownian
    motion with E[(B(t+T) - B(t))^2] = T^(2H).
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError("hurst must lie in (0, 1)")
    if n < 2:
        raise ValueError("need n >= 2")
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(np.random.SeedSequence(seed))
    if hurst == 0.5:
        return rng.standard_normal(n)
    h = np.arange(n, dtype=np.float64)
    two_h = 2.0 * hurst
    rho = 0.5 * ((h + 1.0) ** two_h + np.abs(h - 1.0) ** two_h
                 - 2.0 * h ** two_h)
    return _stationary_gaussian(rho, rng)


def gaussian_process_from_propagator(model: PropagatorModel, n: int,
                                     seed) -> np.ndarray:
    """Sample a path pi(0..n-1) whose two-point statistics follow the model.

    exponential regime: the stationary Gaussian process with covariance
    Delta(h) itself (an Ornstein-Uhlenbeck kernel), sampled exactly by
    circulant embedding.

    scaling regime: the stationary kernel only exists as an increment
    law, E[(pi(t+T) - pi(t))^2] = T^kappa, matching fractional Brownian
    motion with H = kappa/2; the path is built by cumulating exact
    fractional Gaussian noise.  All return-based statistics (trend
    variances, increment autocorrelations, moment scaling) follow the
    propagator; the absolute level Delta(0) is set by the far boundary
    tau and is not realized by a finite nonstationary path.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if n > _MAX_PATH:
        raise ValueError(f"path length capped at {_MAX_PATH}")
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(np.random.SeedSequence(seed))
    if model.regime == "scaling":
        increments = fractional_gaussian_noise(n - 1, model.kappa / 2.0, rng)
        path = np.empty(n)
        path[0] = 0.0
        np.cumsum(increments, out=path[1:])
        return path
    if model.regime == "exponential":
        h = np.arange(n, dtype=np.float64)
        cov = 0.5 * model.tau ** model.kappa * np.exp(-h / model.tau)
        return _stationary_gaussian(cov, rng)
    raise ValueError("path sampling supports scaling and exponential regimes")
