"""Reproducible analysis pipelines behind the command-line interface.

Every command is a pure function of (inputs, config, master seed): output
files carry a provenance header and reruns are byte-identical.  Defaults
match the standard study protocol: horizons 2^k for k = 1..10, 5000
bootstrap samples, 15 cross-validation folds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import logging
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import dynamics, io, stats, theory, trends

log = logging.getLogger("latticemarket")


@dataclass
class PipelineConfig:
    """Analysis defaults; CLI flags > config file > these values."""
    horizons: list[int] = field(default_factory=lambda: list(range(1, 11)))
    estimator: str = "phi"            # phi | psi | step
    bootstrap_samples: int = 5000
    cv_folds: int = 15
    seed: int = 0
    # simulate
    dims: int = 2
    side: int = 32
    init: str = "random"
    temperature: float = dynamics.CRITICAL_TEMPERATURE_2D
    sweeps: int = 20000
    burn_in: int = 2000
    thin: int = 1
    # predict
    dimension: float | None = 3.0
    kappa: float | None = None
    tau: float = 2.0 ** 15
    regime: str = "scaling"
    predict_horizons: list[int] = field(default_factory=lambda: list(range(1, 14)))

    def validate(self) -> "PipelineConfig":
        for name in ("horizons", "predict_horizons"):
            ks = getattr(self, name)
            if not ks or min(ks) < 1:
                raise ValueError(f"{name} must be positive k values")
            if max(ks) > 62:            # T = 2^k must fit in an int64
                raise ValueError(f"{name} must be k values up to 62")
            if len(set(ks)) < len(ks):
                raise ValueError(f"{name} must not repeat")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.estimator not in ("phi", "psi", "step"):
            raise ValueError("estimator must be phi, psi or step")
        if self.bootstrap_samples < 100:
            raise ValueError("bootstrap_samples must be >= 100")
        if self.cv_folds < 2:
            raise ValueError("cv_folds must be >= 2")
        if self.regime not in ("scaling", "exponential", "matched"):
            raise ValueError("regime must be scaling, exponential or matched")
        if self.dimension is None and self.kappa is None:
            raise ValueError("need dimension or kappa for predictions")
        return self

    @classmethod
    def from_file(cls, path) -> "PipelineConfig":
        data = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(data) - set(types)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in data.items():
            if not _fits(value, types[key]):
                raise ValueError(f"config key {key!r} must be {types[key]},"
                                 f" got {value!r}")
        return cls(**data)

    def overridden(self, **kwargs) -> "PipelineConfig":
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return dataclasses.replace(self, **updates)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def _fits(value, annotation: str) -> bool:
    """Whether a JSON value has the type of a PipelineConfig annotation."""
    if isinstance(value, bool):
        return False
    if annotation == "list[int]":
        return isinstance(value, list) and all(_fits(v, "int") for v in value)
    if value is None:
        return annotation.endswith("| None")
    return isinstance(value, {"int": int, "str": str}.get(
        annotation.split(" |")[0], (int, float)))


def _propagator_from_config(config: PipelineConfig) -> theory.PropagatorModel:
    if config.kappa is not None:
        kappa = config.kappa
    else:
        kappa = theory.kappa_for_dimension(config.dimension)
    t_star = config.tau / 2.0 if config.regime == "matched" else None
    return theory.PropagatorModel(tau=config.tau, kappa=kappa,
                                  regime=config.regime, t_star=t_star)


def _config_hash(config: PipelineConfig) -> str:
    return io.sha256_of_text(json.dumps(config.as_dict(), sort_keys=True))


def _table(records: list[dict], header: list[str]) -> tuple:
    """(header, columns) of a CSV whose columns are keys of the records."""
    return header, [[r[name] for r in records] for name in header]


def _publish(out_dir, provenance: dict, files: dict) -> list[Path]:
    """Write every output file into out_dir, or none of them.

    files maps a name to (header, columns) for a .csv and to a payload for
    a .json.  All are written into a staging directory in the nearest
    existing ancestor of out_dir, which with its missing parents is made
    only after the last write, and then moved in; so a failed write leaves
    out_dir and its parents as they were, or absent.  A crash between two
    moves can still leave part of the set.
    """
    out = Path(out_dir)
    base = out.parent
    while not base.exists():
        base = base.parent
    stage = Path(tempfile.mkdtemp(dir=base, prefix=".latticemarket-"))
    try:
        for name, content in files.items():
            if name.endswith(".csv"):
                io.write_csv(stage / name, *content, provenance)
            else:
                io.write_json(stage / name, content, provenance)
        out.mkdir(parents=True, exist_ok=True)
        # a file cannot replace a directory: check every name first
        for name in files:
            if (out / name).is_dir():
                raise IsADirectoryError(f"output {out / name} is a directory")
        for name in files:
            os.replace(stage / name, out / name)
    finally:
        shutil.rmtree(stage)
    return [out / name for name in files]


# -- simulate -------------------------------------------------------------

def cmd_simulate(config: PipelineConfig, out_dir) -> list[Path]:
    """Run the lattice simulation; write magnetization, returns, params."""
    config.validate()
    params = dynamics.SimulationParams(
        dims=config.dims, side=config.side, init=config.init,
        temperature=config.temperature, sweeps=config.sweeps,
        burn_in=config.burn_in, thin=config.thin, seed=config.seed)
    # the returns need two recorded values: fail before the first sweep
    if (params.sweeps - params.burn_in) // params.thin < 2:
        raise ValueError("need at least 2 recorded sweeps")
    series = dynamics.run_simulation(params)
    # a frozen run has no return variance: fail before writing any file
    returns = dynamics.magnetization_to_returns(series)
    n_sites = config.side ** config.dims
    m = series.values
    sweep = np.arange(1, m.size + 1) * params.thin + params.burn_in
    prov = io.make_provenance(config.seed,
                              inputs={"config": _config_hash(config)})
    return _publish(out_dir, prov, {
        "magnetization.csv": (["sweep", "M", "price"],
                              [sweep, m, 1.0 + 2.0 * m / n_sites]),
        "returns.csv": (["t", "R"],
                        [np.arange(returns.values.size), returns.values]),
        "params.json": {"params": dataclasses.asdict(params),
                        "n_sites": n_sites,
                        "returns_mu": returns.mu,
                        "returns_sigma": returns.sigma,
                        "diagnostics": _mixing_diagnostics(series)},
    })


def _mixing_diagnostics(series: dynamics.MagnetizationSeries) -> dict:
    """Deterministic mixing diagnostics of a run; None where undefined.

    tau_int is in sweeps (the recorded series' estimate times thin);
    effective_samples counts recorded values, n / (2 tau_int).
    """
    params = series.params
    diag = dict.fromkeys(("tau_int", "tau_int_reliable", "burn_in_over_tau_int",
                          "effective_samples", "binder_cumulant"))
    diag["acceptance_rate"] = series.acceptance_rate
    with contextlib.suppress(ValueError):
        diag["binder_cumulant"] = dynamics.binder_cumulant(series.values)
    with contextlib.suppress(ValueError):
        est = dynamics.autocorrelation_time(series.values)
        tau = est.tau * params.thin
        diag.update(tau_int=tau, tau_int_reliable=est.reliable)
        if tau > 0:
            diag.update(burn_in_over_tau_int=params.burn_in / tau,
                        effective_samples=len(series.values) / (2.0 * est.tau))
            if params.burn_in < 20.0 * tau:
                log.warning("burn-in %d is below 20 tau_int (tau_int = "
                            "%.3g sweeps)", params.burn_in, tau)
    return diag


# -- predict --------------------------------------------------------------

def cmd_predict(config: PipelineConfig, out_dir) -> list[Path]:
    """Emit the theory curves over the prediction horizons; a horizon
    outside the model's domain is left out and listed with its reason
    under params.json's horizons_dropped."""
    config.validate()
    model = _propagator_from_config(config)
    prov = io.make_provenance(
        config.seed, inputs={"config": _config_hash(config)},
        extra={"kappa": model.kappa, "tau": model.tau,
               "regime": model.regime
               + (" (heuristic)" if model.regime == "matched" else "")})
    rows, dropped = [], []
    for k in config.predict_horizons:
        horizon = 2.0 ** k
        try:
            rows.append((
                k, horizon,
                theory.predicted_return_autocorrelation(model, horizon),
                theory.predicted_trend_return_correlation(model, 2.0 / horizon),
                theory.predicted_trend_variance(model, horizon, "phi"),
                theory.predicted_trend_variance(model, horizon, "tilde"),
                theory.predicted_adjacent_window_correlation(model, horizon),
            ))
        except theory.DomainError as exc:
            log.warning("dropping k=%d: %s", k, exc)
            dropped.append({"k": k, "reason": str(exc)})
    hurst = model.kappa / 2.0
    try:
        dim = theory.dimension_for_kappa(model.kappa)
    except ValueError:
        dim = None
    header = ["k", "T", "return_autocorrelation", "trend_return_correlation",
              "variance_phi", "variance_tilde", "adjacent_window_correlation"]
    return _publish(out_dir, prov, {
        # no row left: the header's width of empty columns
        "predictions.csv": (header, list(zip(*rows)) or [()] * len(header)),
        "hurst.csv": (["dimension", "kappa", "hurst"],
                      [["" if dim is None else dim], [model.kappa], [hurst]]),
        "params.json": {"config": config.as_dict(), "kappa": model.kappa,
                        "hurst": hurst, "dimension": dim,
                        "horizons_dropped": dropped},
    })


# -- analyze ----------------------------------------------------------------

def _calendar(days: list[np.ndarray]) -> tuple:
    """The sorted union of int64 day arrays, and each day's index in it
    (np.unique's inverse, split per array): the set bits of a bitmap over
    the day span, at most 3.7 MB from year 1 to 9999, and the days'
    ranks among them."""
    lo = min(map(np.min, days))
    seen = np.zeros(max(map(np.max, days)) - lo + 1, dtype=bool)
    for d in days:
        seen[d - lo] = True
    calendar = np.flatnonzero(seen) + lo
    return calendar, [np.searchsorted(calendar, d) for d in days]


def _union_panel(table: io.PriceTable) -> tuple:
    """Normalized returns per market, the cell of each return's day in
    the union calendar (_calendar of every market's return dates; return
    i carries the date of price i + 1), and the (markets, days) returns."""
    returns_all = []
    for m in table.markets:
        try:
            returns_all.append(trends.normalize_returns(m.prices))
        except ValueError as exc:
            raise ValueError(f"market {m.name!r}: {exc}") from None
    calendar, cells = _calendar([
        np.asarray(m.dates, dtype="datetime64[D]")[1:].view(np.int64)
        for m in table.markets])
    y_panel = np.zeros((len(cells), calendar.size))
    for m, (rets, pos) in enumerate(zip(returns_all, cells)):
        y_panel[m, pos] = rets.values
    return returns_all, cells, y_panel


def _trend_panel(returns_all: list, cells: list[np.ndarray], n_days: int,
                 estimator: str, k: int) -> tuple:
    """Warm-up, (markets, days) trend panel and mask of horizon 2^k:
    phi(t) at the cell of R(t + 1) from the statistical warm-up on;
    markets under 30 pairs stay empty.
    """
    warmup = trends.statistical_warmup(estimator, 2 ** k)
    x_panel = np.zeros((len(returns_all), n_days))
    mask = np.zeros(x_panel.shape, dtype=bool)
    for m, (rets, pos) in enumerate(zip(returns_all, cells)):
        if len(rets.values) - 1 - warmup >= 30:
            trend = trends.trend_strength(rets, estimator, 2 ** k).values
            x_panel[m, pos[warmup + 1:]] = trend[warmup:-1]
            mask[m, pos[warmup + 1:]] = True
    return warmup, x_panel, mask


def _moment_panels(x, y, mask: np.ndarray):
    """The ten moments (stats._moments) of a masked panel of pairs as
    (markets, days) panels, zero off the mask, one at a time; x must be
    zero off the mask already."""
    return stats._moments(x, np.where(mask, y, 0.0), mask.astype(np.float64))


def analyze_price_table(table: io.PriceTable,
                        config: PipelineConfig) -> dict:
    """Full empirical pipeline on a loaded price table; returns the report.

    The regressions read only moment sums of the (markets, days) panels,
    reduced one moment panel at a time: a scale's fit sums its panels,
    and the stacked fit, the day bootstrap and the date-block CV read
    per-day sums added in the pooled row order (scale, then market), so
    the day groups and their sums are the rows'.

    Each large intermediate is dropped after its last reader: the table
    once the panel is built (a caller that passes it straight in frees
    its dates and prices then), the panels after the combined factor,
    the returns after the moment scaling.  The day bootstrap, whose
    count block is the largest transient, runs last, on the stacked
    per-day rows alone.
    """
    config.validate()
    names = table.names()
    returns_all, cells, y_panel = _union_panel(table)
    del table
    n_markets, n_days = y_panel.shape
    stacked = np.zeros((10, n_days))
    x_sum, shared = np.zeros(y_panel.shape), np.ones(y_panel.shape, bool)
    by_scale, dropped = [], []
    for k in config.horizons:
        warmup, x_panel, mask = _trend_panel(returns_all, cells, n_days,
                                             config.estimator, k)
        n_obs = int(mask.sum())
        if n_obs < stats._MIN_OBSERVATIONS:
            reason = (f"only {n_obs} pooled observations" if n_obs else
                      "no market has enough history")
            log.warning("dropping k=%d: %s", k, reason)
            dropped.append({"k": k, "reason": reason})
            continue
        sums = np.empty(10)
        for i, panel in enumerate(_moment_panels(x_panel, y_panel, mask)):
            sums[i] = panel.sum()
            for market in range(n_markets):
                stacked[i] += panel[market]
            del panel                   # before the next panel is made
        fit = stats.fit_cubic(sums[None])
        by_scale.append({
            "k": k, "T": 2 ** k, "warmup": warmup, "n_obs": fit.n_obs,
            "a": fit.a, "b": fit.b, "c": fit.c,
            "se_b": fit.se_b, "se_c": fit.se_c,
            "trend_return_covariance": float(sums[7] / fit.n_obs),
            "r_squared": fit.r_squared,
        })
        x_sum += x_panel
        shared &= mask
    del x_panel, mask, cells
    if not by_scale:
        raise ValueError("no usable horizon: price history too short")
    report: dict = {"markets": names,
                    "estimator": config.estimator,
                    "horizons_requested": list(config.horizons),
                    "horizons_used": [row["k"] for row in by_scale],
                    "horizons_dropped": dropped,
                    "by_scale": by_scale}

    # stacked regression across markets and scales (the headline fit);
    # its bootstrap errors are added last
    rows = stacked[:, stacked[0] > 0].T       # the days with data
    del stacked
    fit = stats.fit_cubic(rows)
    cv = stats.cross_validate(rows, config.cv_folds)

    # combined factor: equally weighted mean trend across scales, on the
    # observations that every scale shares
    if len(by_scale) >= 2 and shared.sum() >= stats._MIN_OBSERVATIONS:
        x_sum /= len(by_scale)
        x_sum[~shared] = 0.0
        combined = np.array([panel.sum(axis=0) for panel in _moment_panels(
            x_sum, y_panel, shared)])
        combined = combined[:, combined[0] > 0].T
        cfit = stats.fit_cubic(combined)
        ccv = stats.cross_validate(combined, config.cv_folds)
        del combined
        report["aggregated_factor"] = {
            "a": cfit.a, "b": cfit.b, "c": cfit.c,
            "r_squared": cfit.r_squared,
            "r_squared_cv": ccv.r_squared,
            "cv_fold_sizes": ccv.fold_sizes.tolist(),
            "n_obs": cfit.n_obs,
        }
    del x_sum, shared, y_panel

    # horizon dependence of b and c
    if len(by_scale) >= 4:
        para = stats.fit_parabolic_b(
            [(row["k"], row["b"]) for row in by_scale],
            [(row["k"], row["c"]) for row in by_scale])
        report["parabolic_b"] = {
            "amplitude": para.amplitude, "k0": para.k0,
            "delta_k": para.delta_k, "c_const": para.c_const,
            "degenerate": para.degenerate,
        }

    # step-trend variance over non-overlapping windows, pooled per scale
    pooled = _window_sums(returns_all, [row["k"] for row in by_scale])
    var_rows = []
    for row, (sq_sum, n_win, pair_prod, n_pair) in zip(
            by_scale, pooled.sum(axis=0).tolist()):
        if n_win < 4:
            continue
        variance = sq_sum / n_win
        var_rows.append({
            "k": row["k"], "T": row["T"], "variance_tilde": variance,
            "n_windows": int(n_win),
            "adjacent_correlation":
                (pair_prod / n_pair / variance) if n_pair else 0.0,
        })
    report["variance_by_scale"] = var_rows

    # kappa and network dimension from the variance curve
    if len(var_rows) >= 3:
        kappa_hat, kappa_se, (dim, low, high) = _kappa_fit(
            [(row["k"], row["variance_tilde"]) for row in var_rows],
            weights=np.array([row["n_windows"] for row in var_rows], float))
        report["kappa"] = {"estimate": kappa_hat, "se": kappa_se}
        report["dimension"] = {"estimate": dim, "low": low, "high": high}
        if dim is not None:
            report["hurst_predicted"] = kappa_hat / 2.0

    # moment scaling (generalized Hurst exponents), pooled per observation
    report["moment_scaling"] = _pooled_moments(returns_all, config.horizons)
    del returns_all

    boot = stats.bootstrap_errors(rows, config.bootstrap_samples, config.seed)
    report["regression"] = {
        "a": fit.a, "b": fit.b, "c": fit.c,
        "se_a": boot.se_a, "se_b": boot.se_b, "se_c": boot.se_c,
        "t_a": fit.a / boot.se_a if boot.se_a > 0 else math.inf,
        "t_b": fit.b / boot.se_b if boot.se_b > 0 else math.inf,
        "t_c": fit.c / boot.se_c if boot.se_c > 0 else math.inf,
        "r_squared": fit.r_squared,
        "r_squared_cv": cv.r_squared,
        "cv_fold_sizes": cv.fold_sizes.tolist(),
        "n_obs": fit.n_obs,
        "gram_condition": fit.gram_condition,
        "bootstrap_samples": config.bootstrap_samples,
        "bootstrap_skipped": boot.n_skipped,
        "cv_folds": config.cv_folds,
    }
    return report


def _kappa_fit(points, weights=None) -> tuple:
    """kappa and its standard error from (k, variance) points
    (stats.fit_kappa), and [dimension, low, high]: the network dimensions
    at kappa, kappa - se and kappa + se, each capped at kappa = 1, and
    None where the table has no dimension."""
    fit = stats.fit_kappa(points, weights=weights)
    kappa, se = fit.exponent, fit.exponent_se
    dims = []
    for value in (kappa, kappa - se, kappa + se):
        try:
            dims.append(theory.dimension_for_kappa(min(value, 1.0)))
        except ValueError:
            dims.append(None)
    return kappa, se, dims


def _window_sums(returns_all, ks: list[int]) -> np.ndarray:
    """(markets, scales, 4) step-window sums at T = 2^k: the sum of squared
    window trends (trends.adjacent_window_trends), their count, the sum of
    adjacent-window products and their count.  A market shorter than 2T
    has a zero row."""
    table = np.zeros((len(returns_all), len(ks), 4))
    for m, rets in enumerate(returns_all):
        for s, t in enumerate(2 ** k for k in ks):
            if len(rets.values) >= 2 * t:
                w = trends.adjacent_window_trends(rets, t)
                table[m, s] = (np.sum(w ** 2), w.size,
                               np.sum(w[1:] * w[:-1]), w.size - 1)
    return table


def _pooled_moments(returns_all, horizons: list[int],
                    qs=(1.0, 2.0, 3.0, 4.0)) -> dict:
    """M_q(T) pooled across markets with H_q fits (stats.moment_scaling);
    no curve and no fit when no market covers 10 T at 3 horizons."""
    out = {"qs": list(qs), "curves": [], "hurst": {}}
    ks = {2 ** k: k for k in horizons}
    try:
        fits = stats.moment_scaling(
            (np.cumsum(rets.excess()) for rets in returns_all), qs, list(ks))
    except ValueError:
        return out
    for q, fit in fits.items():
        out["curves"].extend(
            {"q": q, "k": ks[t], "T": t, "M_q": m}
            for t, m in zip(fit.horizons.astype(int).tolist(),
                            fit.statistics.tolist()))
        out["hurst"][str(q)] = {"H": fit.exponent, "se": fit.exponent_se}
    return out


def cmd_analyze(config: PipelineConfig, price_path, out_dir,
                schema: str = "long") -> list[Path]:
    """Load prices, run the full pipeline, write the report and figures."""
    config.validate()
    # passed straight in, so analyze_price_table frees the table early
    report = analyze_price_table(io.load_price_csv(price_path, schema=schema),
                                 config)
    prov = io.make_provenance(
        config.seed,
        inputs={Path(price_path).name: io.sha256_of_file(price_path),
                "config": _config_hash(config)})
    reg = report["regression"]
    return _publish(out_dir, prov, {
        "report.json": {"report": report, "config": config.as_dict()},
        "coefficients_by_scale.csv": _table(
            report["by_scale"], ["k", "T", "b", "se_b", "c", "se_c", "n_obs"]),
        "trend_autocorrelation.csv": _table(
            report["by_scale"], ["k", "T", "trend_return_covariance"]),
        "variance_by_scale.csv": _table(
            report["variance_by_scale"],
            ["k", "T", "variance_tilde", "adjacent_correlation", "n_windows"]),
        "moments.csv": _table(report["moment_scaling"]["curves"],
                              ["q", "k", "T", "M_q"]),
        "coefficient_table.csv": (
            ["Coefficient", "Value", "Error", "t-statistic"],
            [["a", "b", "c", "R2", "R2_adj_cv"],
             [reg["a"], reg["b"], reg["c"], reg["r_squared"],
              reg["r_squared_cv"]],
             [reg["se_a"], reg["se_b"], reg["se_c"], "", ""],
             [reg["t_a"], reg["t_b"], reg["t_c"], "", ""]]),
    })


# -- fit-kappa ----------------------------------------------------------------

def cmd_fit_kappa(config: PipelineConfig, variance_csv,
                  out_dir) -> list[Path]:
    """Fit kappa from a (k, variance) CSV and invert to the dimension."""
    config.validate()
    points = io.load_variance_csv(variance_csv)
    kappa_hat, kappa_se, (dim, low, high) = _kappa_fit(points)
    result = {"kappa": kappa_hat, "kappa_se": kappa_se, "dimension": dim,
              "dimension_low": low, "dimension_high": high,
              "n_points": len(points)}
    prov = io.make_provenance(
        config.seed,
        inputs={Path(variance_csv).name: io.sha256_of_file(variance_csv)})
    return _publish(out_dir, prov, {"kappa_fit.json": result})
