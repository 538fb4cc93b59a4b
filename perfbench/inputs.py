"""Seeded input files for the benchmark workloads.

The program under test only ever sees the CSV files written here.  The
returns are fractional Gaussian noise drawn by this module's own
circulant-embedding (Davies-Harte) sampler, so the generator shares no
code with `latticemarket.stats`.
"""

from __future__ import annotations

import datetime

import numpy as np

START_DATE = datetime.date(2000, 1, 3)  # a Monday
DAILY_VOLATILITY = 0.01
START_PRICE = 100.0


def fgn(n: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    """n samples of unit-variance fractional Gaussian noise.

    The autocovariance g(h) = (|h+1|^2H - 2|h|^2H + |h-1|^2H) / 2 is
    embedded in a circulant of size 2(n-1), whose eigenvalues are
    non-negative for every H in (0, 1); one complex FFT of weighted
    complex normals gives an exact sample in its real part.
    """
    if not 0.0 < hurst < 1.0 or n < 2:
        raise ValueError("need 0 < hurst < 1 and n >= 2")
    lag = np.arange(n, dtype=np.float64)
    two_h = 2.0 * hurst
    acov = 0.5 * ((lag + 1.0) ** two_h - 2.0 * lag ** two_h
                  + np.abs(lag - 1.0) ** two_h)
    row = np.concatenate([acov, acov[-2:0:-1]])
    eig = np.fft.fft(row).real
    if eig.min() < -1e-9:
        raise ValueError("circulant embedding is not positive semi-definite")
    m = row.size
    noise = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return np.fft.fft(np.sqrt(np.clip(eig, 0.0, None) / m) * noise).real[:n]


def business_days(count: int) -> list[str]:
    """ISO dates of `count` consecutive weekdays from START_DATE."""
    days, day = [], START_DATE
    while len(days) < count:
        if day.weekday() < 5:
            days.append(day.isoformat())
        day += datetime.timedelta(days=1)
    return days


def _prices(n_days: int, hurst: float, rng: np.random.Generator) -> np.ndarray:
    steps = DAILY_VOLATILITY * fgn(n_days - 1, hurst, rng)
    return START_PRICE * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))


def write_long_csv(path, seed: int, markets: int, days: int,
                   hurst: float) -> None:
    """market,date,price rows; every market covers the same `days` weekdays."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    dates = business_days(days)
    lines = ["market,date,price"]
    for j in range(markets):
        name = f"M{j:02d}"
        lines.extend(f"{name},{d},{p!r}"
                     for d, p in zip(dates, _prices(days, hurst, rng).tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def late_starts(markets: int, max_late_start: int) -> list[int]:
    """First priced day of each market, spread evenly over
    [0, max_late_start].  The pattern does not depend on the seed, so every
    seed gives the same amount of work."""
    return [j * max_late_start // max(markets - 1, 1) for j in range(markets)]


def write_wide_csv(path, seed: int, markets: int, days: int, hurst: float,
                   max_late_start: int) -> None:
    """date + one column per market; the cells before a market's late
    start are empty."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    columns = []
    for start in late_starts(markets, max_late_start):
        cells = [""] * start
        cells.extend(repr(p) for p in _prices(days - start, hurst, rng).tolist())
        columns.append(cells)
    lines = ["date," + ",".join(f"W{j:02d}" for j in range(markets))]
    for i, d in enumerate(business_days(days)):
        lines.append(d + "," + ",".join(col[i] for col in columns))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
