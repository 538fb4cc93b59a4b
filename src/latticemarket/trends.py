"""Normalized returns and variance-one trend-strength estimators.

A trend strength is a weighted average of past excess returns,

    phi_T(t) = sum_{n>=0} w_T(n) * Rhat(t - n),

with the weights normalized so that sum_n w_T(n)^2 = 1; on independent
unit-variance returns the trend strength then has variance one and reads
as the t-statistic of the trend.  Three weight shapes are provided:

    step:  w(n) = T^(-1/2)                 for n < T
    psi:   w(n) = M_T exp(-2n/T)           M_T = sqrt(1 - e^(-4/T))
    phi:   w(n) = N_T (n+1) exp(-2n/T)     N_T = (1-e^(-4/T))^2 / sqrt(1-e^(-8/T))

The psi and phi shapes admit exact linear recursions, which is also how
a continuous-time Langevin description arises; trend_strength evaluates
them that way, and the step window by a cumulative-sum difference, so a
trend costs O(n) whatever the horizon.  The average lookback E[n+1]
under the raw weights tends to T/2 for psi and T for phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Block length of the first-order scan and its lag table: _LAG[i, j] is
# i - j on and below the diagonal and points at a zero slot above it.
_BLOCK = 64
_LAG = np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK))
_LAG[_LAG < 0] = _BLOCK + 1
_EXPONENTS = np.arange(_BLOCK + 1)


@dataclass(frozen=True)
class ReturnSeries:
    """Variance-normalized returns R = r / sigma.

    mu and sigma are the full-sample mean and standard deviation of the
    raw returns r; the excess view Rhat = R - mu/sigma subtracts the
    normalized risk premium and has exactly zero mean.
    """
    values: np.ndarray
    mu: float
    sigma: float

    def excess(self) -> np.ndarray:
        return self.values - self.mu / self.sigma


def normalize_raw_returns(raw) -> ReturnSeries:
    """Normalize raw returns to unit sample variance (ddof=1)."""
    r = np.asarray(raw, dtype=np.float64)
    if r.size < 2:
        raise ValueError("need at least 2 returns")
    if not np.all(np.isfinite(r)):
        raise ValueError("returns must be finite")
    sigma = float(np.std(r, ddof=1))
    if sigma == 0.0:
        raise ValueError("zero-variance returns cannot be normalized")
    return ReturnSeries(values=r / sigma, mu=float(np.mean(r)), sigma=sigma)


def normalize_returns(prices) -> ReturnSeries:
    """Log-returns r(t) = ln(P(t)/P(t-1)) normalized to unit variance."""
    p = np.asarray(prices, dtype=np.float64)
    if p.size < 3:
        raise ValueError("need at least 3 prices")
    if np.any(p <= 0) or not np.all(np.isfinite(p)):
        raise ValueError("prices must be positive and finite")
    return normalize_raw_returns(np.diff(np.log(p)))


def statistical_warmup(kind: str, horizon: float) -> int:
    """History needed before a trend value is statistically trustworthy.

    Exactly T - 1 for the step window, which then misses no weight.  For
    the exponential shapes it is about 4.6 T, where the weight psi misses
    for lack of history is below 1e-4 in L2; phi's tail decays at the
    same rate with a prefactor of about 8 (W/T)^2 in L2^2, so phi misses
    up to 1.4e-3.
    """
    if kind == "step":
        return int(horizon) - 1
    if kind in ("psi", "phi"):
        # psi tail L2^2 = e^(-4W/T)
        return int(math.ceil(horizon * math.log(1e8) / 4.0))
    raise ValueError(f"unknown weight kind {kind!r}")


@dataclass(frozen=True)
class TrendSeries:
    """Trend strengths aligned to the return index.

    values[t] uses returns at t, t-1, ... only, with zero history before
    the series start: the last T returns for step, the whole history for
    psi and phi.  Entries before statistical_warmup(kind, horizon) lack
    enough history for a regression.
    """
    values: np.ndarray


def _first_order(values: np.ndarray, x: float) -> np.ndarray:
    """Exact recursion A(t) = x A(t-1) + values(t), with A(-1) = 0.

    A blocked linear scan (Blelloch, Prefix Sums and Their Applications,
    CMU-CS-90-190, 1990) over blocks of B = 64: every block is solved from
    zero history by one product with the lower-triangular Toeplitz matrix
    of x^(i-j), then each block's incoming value A(start - 1) is carried
    across the block ends with factor x^B and added as carry x^(j+1).
    """
    n = values.size
    n_blocks = -(-n // _BLOCK)
    padded = np.zeros(n_blocks * _BLOCK)
    padded[:n] = values
    powers = np.append(x ** _EXPONENTS, 0.0)   # x^0 .. x^B, then zero
    local = padded.reshape(n_blocks, _BLOCK) @ powers[_LAG].T
    decay = powers[1:_BLOCK + 1]               # x^(j+1)
    x_block = float(powers[_BLOCK])
    carries = [0.0]
    for end in local[:-1, -1].tolist():
        carries.append(carries[-1] * x_block + end)
    local += np.array(carries)[:, None] * decay
    return local.reshape(-1)[:n]


def trend_strength(returns: ReturnSeries, kind: str,
                   horizon: float) -> TrendSeries:
    """Trend strength of the excess returns, in O(n) for every horizon.

    With x = e^(-2/T) and Rhat the excess return,

        psi:   A(t) = x A(t-1) + Rhat(t),    psi = M_T A
        phi:   B(t) = x B(t-1) + A(t),       phi = N_T B
        step:  C(t) = sum_{s<=t} Rhat(s),    step = (C(t) - C(t-T)) / sqrt(T)

    which are the untruncated weighted sums.  phi cascades two first-order
    stages: the direct second-order form [1, -2x, x^2] drifts by 1e-10
    and more from the weighted sum at T = 2^13.  The gain M_T, N_T or
    T^(-1/2) is the first weight.
    """
    excess = returns.excess()
    if kind == "step":
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        t = int(horizon)
        raw = np.cumsum(excess)
        raw[t:] = raw[t:] - raw[:-t]
        gain = 1.0 / math.sqrt(horizon)
    elif kind in ("psi", "phi"):
        if horizon <= 0:
            raise ValueError("horizon must be > 0")
        x, y = math.exp(-2.0 / horizon), math.exp(-4.0 / horizon)
        raw = _first_order(excess, x)
        if kind == "psi":
            gain = math.sqrt(1.0 - y)
        else:
            raw = _first_order(raw, x)
            gain = (1.0 - y) ** 2 / math.sqrt(1.0 - y * y)
    else:
        raise ValueError(f"unknown weight kind {kind!r}")
    return TrendSeries(values=gain * raw)


def adjacent_window_trends(returns: ReturnSeries, horizon: int) -> np.ndarray:
    """Step trends phi_tilde on consecutive non-overlapping windows of
    length T, oldest first; adjacent pairs are (w[1:], w[:-1]).

    The series is partitioned into windows counted from the end; a series
    of length 2^13 yields 2^(13-k) windows and one fewer pairs for T = 2^k.
    """
    t = int(horizon)
    if t < 1:
        raise ValueError("horizon must be >= 1")
    excess = returns.excess()
    n = len(excess)
    if n < 2 * t:
        raise ValueError(f"need at least 2*T = {2 * t} returns, got {n}")
    n_win = n // t
    start = n - n_win * t
    return excess[start:].reshape(n_win, t).sum(axis=1) / math.sqrt(t)
