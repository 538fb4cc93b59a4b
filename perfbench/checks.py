"""Output checks made apart from the program.

Each check reads the files a CLI command wrote and returns a list of
problems; an empty list means the output is correct.  Physical constants
are for the package's energy convention, where the coupling is
J = 1/(4D) and |M|/N = m/2 for the standard Ising magnetization m.
Statistical checks need full-size runs; the smoke mode skips them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

U_STAR_2D = 0.61069          # universal Binder cumulant, 2D periodic square
BINDER_SIGMAS = 4.0          # allowed distance in jackknife standard errors
# At T_c the jackknife error of U is unreliable: tau_int of M is hundreds
# of sweeps at L=16, longer than a jackknife block, and a run that stays
# ordered for long stretches reads U near 2/3 with a small error.  The
# error used is at least 0.015, above the seed-to-seed standard deviation
# of U over ten seeds of the 8 000-sweep L=16 run (0.013; U from 0.587
# to 0.628, jackknife errors from 0.007 to 0.018).
BINDER_SIGMA_FLOOR_2D = 0.015
YANG_TOLERANCE = 0.01        # on |M|/N against Yang's m/2
KAPPA_TOLERANCE = 0.05       # analyze's weighted kappa against the planted 2H
FIT_KAPPA_TOLERANCE = 0.1    # fit-kappa's unweighted kappa against 2H
HURST_TOLERANCE = 0.04       # moment-scaling H_q against the planted H
DIMENSION_MARGIN = 0.15      # on the inferred dimension interval
EXACT_RTOL = 1e-9
PREDICT_HORIZONS = range(1, 14)   # the CLI's default k list for predict


def read_rows(path) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a CSV, skipping '#' comment lines."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    if not rows:
        raise ValueError(f"{path}: no header")
    return rows[0], rows[1:]


def read_report(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def binder(m: np.ndarray) -> float:
    m2 = np.mean(m * m)
    return float(1.0 - np.mean(m ** 4) / (3.0 * m2 * m2))


def binder_jackknife(m, blocks: int = 40) -> tuple[float, float]:
    """Binder cumulant and its blocked-jackknife standard error."""
    m = np.asarray(m, dtype=np.float64)
    size = m.size // blocks
    m = m[: size * blocks]
    leave_out = np.array([binder(np.delete(m, np.s_[i * size:(i + 1) * size]))
                          for i in range(blocks)])
    sigma = math.sqrt((blocks - 1) / blocks
                      * float(np.sum((leave_out - leave_out.mean()) ** 2)))
    return binder(m), sigma


def yang_half_magnetization(temperature: float, dims: int = 2) -> float:
    """m/2 from Yang's m = (1 - sinh(2J/T)^-4)^(1/8), with J = 1/(4D)."""
    coupling = 1.0 / (4.0 * dims)
    s = math.sinh(2.0 * coupling / temperature)
    return 0.5 * max(0.0, 1.0 - s ** -4) ** 0.125


def _close(a: float, b: float, rtol: float = EXACT_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def check_simulate(out_dir: str, label: str, dims: int, side: int,
                   temperature: float, sweeps: int, burn_in: int,
                   statistical: bool) -> list[str]:
    """Checks of one `simulate` run recorded every sweep (thin = 1)."""
    problems = []
    header, rows = read_rows(os.path.join(out_dir, "magnetization.csv"))
    if header != ["sweep", "M", "price"]:
        return [f"{label}: magnetization.csv header {header}"]
    expected_rows = sweeps - burn_in          # floor((sweeps - burn_in) / 1)
    if len(rows) != expected_rows:
        problems.append(f"{label}: {len(rows)} rows, expected {expected_rows}")
    n_sites = side ** dims
    sweep_no = [int(r[0]) for r in rows]
    m = np.array([float(r[1]) for r in rows])
    price = [float(r[2]) for r in rows]
    if sweep_no != list(range(burn_in + 1, burn_in + 1 + len(rows))):
        problems.append(f"{label}: sweep column is not burn_in + 1, + 2, ...")
    bad = sum(p != 1.0 + 2.0 * mi / n_sites for mi, p in zip(m.tolist(), price))
    if bad:
        problems.append(f"{label}: price != 1 + 2M/N in {bad} rows")
    if np.any(np.abs(m) > n_sites / 2) or np.any(m * 2 != np.round(m * 2)):
        problems.append(f"{label}: M is not a half-integer within +-N/2")
    _, ret_rows = read_rows(os.path.join(out_dir, "returns.csv"))
    if len(ret_rows) != len(rows) - 1:
        problems.append(f"{label}: {len(ret_rows)} returns for {len(rows)} rows")
    if not statistical or problems:
        return problems
    if label == "2d-L16":
        u, sigma = binder_jackknife(m)
        sigma = max(sigma, BINDER_SIGMA_FLOOR_2D)
        if abs(u - U_STAR_2D) > BINDER_SIGMAS * sigma:
            problems.append(f"{label}: Binder {u:.4f} +- {sigma:.4f} is not "
                            f"within {BINDER_SIGMAS} sigma of U* = {U_STAR_2D}")
    elif label == "2d-L128":
        mean_abs = float(np.mean(np.abs(m))) / n_sites
        yang = yang_half_magnetization(temperature)
        if abs(mean_abs - yang) > YANG_TOLERANCE:
            problems.append(f"{label}: <|M|>/N = {mean_abs:.4f}, Yang gives "
                            f"{yang:.4f}")
    elif label == "3d-L16":
        u, sigma = binder_jackknife(m)
        if abs(u) > BINDER_SIGMAS * sigma:
            problems.append(f"{label}: high-T Binder {u:.4f} +- {sigma:.4f} "
                            f"is not within {BINDER_SIGMAS} sigma of 0")
    return problems


def _log_slope(k, var, weights) -> float:
    """Weighted least-squares slope of ln(var) on k ln 2."""
    x = np.asarray(k, dtype=np.float64) * math.log(2.0)
    y = np.log(np.asarray(var, dtype=np.float64))
    w = np.asarray(weights, dtype=np.float64)
    xm = np.sum(w * x) / np.sum(w)
    ym = np.sum(w * y) / np.sum(w)
    return float(np.sum(w * (x - xm) * (y - ym)) / np.sum(w * (x - xm) ** 2))


def _variance_curve(out_dir: str):
    header, rows = read_rows(os.path.join(out_dir, "variance_by_scale.csv"))
    col = {name: i for i, name in enumerate(header)}
    return ([float(r[col["k"]]) for r in rows],
            [float(r[col["variance_tilde"]]) for r in rows],
            [float(r[col["n_windows"]]) for r in rows])


def check_analyze(out_dir: str, hurst: float, wide: bool,
                  statistical: bool) -> list[str]:
    problems = []
    report = read_report(os.path.join(out_dir, "report.json"))["report"]
    k, var, n_win = _variance_curve(out_dir)
    if len(k) < 3 or "kappa" not in report:
        return ["analyze: fewer than 3 variance scales, no kappa"]
    kappa = report["kappa"]["estimate"]
    refit = 1.0 + _log_slope(k, var, n_win)
    if not _close(kappa, refit):
        problems.append(f"analyze: kappa {kappa!r} is not the window-weighted "
                        f"fit {refit!r} of variance_by_scale.csv")
    if not statistical:
        return problems
    if abs(kappa - 2.0 * hurst) > KAPPA_TOLERANCE:
        problems.append(f"analyze: kappa {kappa:.4f}, planted {2 * hurst}")
    for q, fit in report["moment_scaling"]["hurst"].items():
        if abs(fit["H"] - hurst) > HURST_TOLERANCE:
            problems.append(f"analyze: H_{q} = {fit['H']:.4f}, planted {hurst}")
    if not report["regression"]["b"] < 0:
        problems.append(f"analyze: stacked b = {report['regression']['b']} "
                        "is not negative")
    if wide:
        dim = report["dimension"]
        if dim["low"] is None or dim["high"] is None or not (
                dim["low"] - DIMENSION_MARGIN <= 2.0
                <= dim["high"] + DIMENSION_MARGIN):
            problems.append(f"analyze: dimension interval {dim} does not "
                            f"contain 2 within {DIMENSION_MARGIN}")
    return problems


def check_fit_kappa(out_dir: str, analyze_dir: str, hurst: float,
                    statistical: bool) -> list[str]:
    problems = []
    kappa = read_report(os.path.join(out_dir, "kappa_fit.json"))["kappa"]
    k, var, _ = _variance_curve(analyze_dir)
    refit = 1.0 + _log_slope(k, var, [1.0] * len(k))
    if not _close(kappa, refit):
        problems.append(f"fit-kappa: kappa {kappa!r} is not the unweighted fit "
                        f"{refit!r}")
    if statistical and abs(kappa - 2.0 * hurst) > FIT_KAPPA_TOLERANCE:
        problems.append(f"fit-kappa: kappa {kappa:.4f}, planted {2 * hurst}")
    return problems


def check_predict(out_dir: str, kappa: float, tau: float = 2.0 ** 15,
                  horizons=PREDICT_HORIZONS) -> list[str]:
    """Matched regime, t* = tau/2: below t* the curves are the power law."""
    problems = []
    t_star = tau / 2.0
    header, rows = read_rows(os.path.join(out_dir, "predictions.csv"))
    col = {name: i for i, name in enumerate(header)}
    if [int(r[col["k"]]) for r in rows] != list(horizons):
        return [f"predict: horizons {[r[0] for r in rows]}"]
    for r in rows:
        t = float(r[col["T"]])
        if t != 2.0 ** int(r[col["k"]]):
            problems.append(f"predict: T = {t} at k = {r[col['k']]}")
        got = {name: float(r[i]) for name, i in col.items()}
        if t <= t_star:
            if not _close(got["variance_tilde"], t ** (kappa - 1.0)):
                problems.append(f"predict: variance_tilde({t}) = "
                                f"{got['variance_tilde']!r}")
            want = -kappa * (1.0 - kappa) / 2.0 * t ** (kappa - 2.0)
            if not _close(got["return_autocorrelation"], want):
                problems.append(f"predict: return_autocorrelation({t}) = "
                                f"{got['return_autocorrelation']!r}, want {want!r}")
        if 2.0 * t <= t_star:
            want = t ** (kappa - 1.0) / 2.0 * (2.0 ** kappa - 2.0)
            if not _close(got["adjacent_window_correlation"], want):
                problems.append(f"predict: adjacent_window_correlation({t}) = "
                                f"{got['adjacent_window_correlation']!r}")
        for name in ("return_autocorrelation", "trend_return_correlation",
                     "adjacent_window_correlation"):
            if not got[name] < 0:
                problems.append(f"predict: {name}({t}) = {got[name]!r} >= 0")
    _, hurst_rows = read_rows(os.path.join(out_dir, "hurst.csv"))
    if len(hurst_rows) != 1 or float(hurst_rows[0][2]) != kappa / 2.0:
        problems.append(f"predict: hurst.csv {hurst_rows} is not kappa/2")
    return problems


def digest_dir(path: str) -> dict[str, str]:
    """sha256 of every file under path, keyed by relative name."""
    out = {}
    for root, _, files in os.walk(path):
        for name in files:
            full = os.path.join(root, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = hashlib.sha256(
                    fh.read()).hexdigest()
    return out
