"""Stochastic time evolution of the lattice.

The lattice relaxes by single-spin-flip Glauber heat-bath updates, the
discrete realization of purely dissipative (non-conserved order
parameter) critical dynamics.  Updates follow the checkerboard
decomposition (Preis et al., J. Comput. Phys. 228 (2009) 4468): a
periodic lattice with an even side is bipartite, so all sites of one
sublattice (even or odd coordinate sum) see only the other sublattice
and update at once.  One time unit is one Monte Carlo sweep, i.e. two
half-sweeps, N attempted flips in all.  Each half-sweep satisfies
detailed balance, so the chain samples the Gibbs measure with model-A
dynamics; an odd side is rejected.

Randomness: all entropy flows through numpy SeedSequence.  A master seed
is split into named child streams (lattice init, dynamics), so runs are
reproducible bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .lattice import _neighbor_table, new_lattice
from . import trends

# Onsager critical temperature mapped to this energy normalization:
# spins +-1/2 and coupling 1/D rescale the standard +-1 Ising coupling by
# 1/(4D), so T_c(2D) = 2 * (1/8) / ln(1 + sqrt 2).
CRITICAL_TEMPERATURE_2D = 0.25 / math.log(1.0 + math.sqrt(2.0))


# Sites per block of sweeps: the kernel draws its uniforms, turns them
# into flip levels and tallies flips and M once per block, not per sweep.
_BLOCK_SITES = 1 << 14


def _check_even_side(side: int) -> None:
    if side % 2:
        raise ValueError(f"side {side} is odd: the checkerboard update "
                         "needs a bipartite periodic lattice (even side)")


def _check_recorded_sweeps(n: int) -> None:
    # n values give n - 1 returns, and normalizing them needs two
    if n < 3:
        raise ValueError("need at least 3 recorded sweeps")


@dataclass(frozen=True)
class SimulationParams:
    """Glauber run description; temperature in k=1 units, time in sweeps."""
    dims: int = 2
    side: int = 32
    init: str = "random"
    temperature: float = CRITICAL_TEMPERATURE_2D
    sweeps: int = 10_000
    burn_in: int = 0
    thin: int = 1
    seed: int = 0

    def __post_init__(self):
        _check_even_side(self.side)
        if not 0 < self.temperature < math.inf:
            raise ValueError("temperature must be positive and finite")
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1")
        if not 0 <= self.burn_in < self.sweeps:
            raise ValueError("burn_in must satisfy 0 <= burn_in < sweeps")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if self.init not in ("all_up", "all_down", "random"):
            raise ValueError(f"unknown init {self.init!r}")


@dataclass(frozen=True)
class MagnetizationSeries:
    """Recorded M(t), one value per kept sweep.

    acceptance_rate is the fraction of flip attempts accepted after
    burn-in (None when not recorded).
    """
    values: np.ndarray
    params: SimulationParams
    acceptance_rate: float | None = None


def glauber_flip_probability(delta_e: float, temperature: float) -> float:
    """Heat-bath acceptance 1 / (1 + exp(dE/T)).

    Satisfies detailed balance w.r.t. the Gibbs weight exp(-E/T):
    p(dE)/p(-dE) = exp(-dE/T).  Saturates to 0/1 instead of overflowing.
    """
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    x = delta_e / temperature
    if x >= 0:
        e = math.exp(-x) if x < 700 else 0.0
        return e / (1.0 + e)
    e = math.exp(x) if x > -700 else 0.0
    return 1.0 / (1.0 + e)


def _flip_thresholds(dims: int, temperature: float) -> np.ndarray:
    """Acceptance p(m) for m = -2D, -2D + 2, ..., 2D.

    m = sigma_site * sum sigma_nbr with sigma = 2s in {-1,+1}, and the
    flip energy is dE = m / (2D).
    """
    return np.array([glauber_flip_probability(m / (2.0 * dims), temperature)
                     for m in range(-2 * dims, 2 * dims + 1, 2)])


@functools.cache
def _checkerboard(dims: int, side: int):
    """Site order with the even sublattice first, and its neighbour tables.

    A permuted state holds the sites order[:N/2] (even coordinate sum)
    first; nbrs[0] and nbrs[1], shape (2D, N/2), index the neighbours of
    each half in permuted order.  Cached per shape and shared, so never
    written; left writeable, as `take` is slower with a read-only index.
    The tables are permuted from `_neighbor_table` one column at a time.
    """
    _check_even_side(side)
    n = side ** dims
    order = np.argsort(sum(np.unravel_index(np.arange(n), (side,) * dims)) % 2,
                       kind="stable")
    inverse = np.argsort(order)
    table = _neighbor_table(dims, side)
    nbrs = np.empty((2, 2 * dims, n // 2), np.int64)
    for column in range(2 * dims):
        nbrs[:, column] = inverse[table[order, column]].reshape(2, n // 2)
    return order, nbrs


def _flip_levels(u: np.ndarray, thresholds: np.ndarray,
                 out: np.ndarray) -> None:
    """Odd int8 flip levels h = 2 #{m : u < p(m)} - 2D - 1, into out.

    With p non-increasing, {m : u < p(m)} is the run of m below h, so for
    every even m in -2D..2D, m < h exactly where u < p(m); h - 1 is the
    largest m that flips.
    """
    np.add.reduce(np.less(u, thresholds[:, None]), axis=0, dtype=np.int8,
                  out=out)
    out *= 2
    out -= thresholds.size


def _run_sweeps(sigma: np.ndarray, nbrs, thresholds: np.ndarray,
                rng: np.random.Generator, sweeps: int, record_every: int,
                skip: int = 0):
    """Checkerboard Glauber sweeps over an (N,) sigma = +-1 int8 array.

    sigma is in the permuted order of `_checkerboard` and is mutated in
    place.  Each sweep uses one uniform per site, the even half-sweep's
    before the odd one's; the uniforms of a block of sweeps are drawn in
    one call, the same stream as one draw per sweep.  A site flips where
    u < p(m), m = sigma * sum sigma_nbr, so a global flip of the start
    state mirrors the trajectory.  Each block turns its uniforms into
    int8 flip levels h (`_flip_levels`), and a half-sweep sets
    sigma' = sign(s - sigma h), s the neighbour sum: m is even and h
    odd, so that is -sigma exactly where m < h, i.e. where u < p(m).
    (|s - sigma h| <= 4D + 1 fits int8 for D <= 31, far past any
    lattice that fits in memory.)

    The state after each sweep of a block is one row of a (block + 1, N)
    history.  Returns (M, flips): M = sum(sigma)/2 after every
    record_every-th sweep past `skip`, taken as row sums, and the
    accepted flips after `skip` sweeps, counted as sites that differ
    between consecutive rows; every site is updated once per sweep, so
    that count is exact.

    thresholds holds p(m) for m = -2D, ..., 2D (`_flip_thresholds`); the
    level rule needs it non-increasing in m, and a table that is not is a
    ValueError before any draw, never a different chain.
    """
    rises = np.flatnonzero(np.diff(thresholds) > 0)
    if rises.size:
        m = 2 * int(rises[0]) - thresholds.size + 1
        raise ValueError(f"acceptance p(m) rises from m={m} to m={m + 2}: "
                         "the flip-level rule needs p non-increasing in m")
    n = sigma.size
    half = n // 2
    values = np.empty((sweeps - skip) // record_every)
    block = max(1, min(sweeps, _BLOCK_SITES // n))
    coins = np.empty(block * n)
    levels = np.empty((block, 2, half), np.int8)
    hist = np.empty((block + 1, n), np.int8)
    hist[0] = sigma
    scratch = np.empty(half, np.int8)
    # per half-sweep: (state the fields read, neighbour table, spins
    # before, spins after, levels); the odd half reads the even half's
    # new spins
    steps = [((hist[j], nbrs[0], hist[j, :half], hist[j + 1, :half],
               levels[j, 0]),
              (hist[j + 1], nbrs[1], hist[j, half:], hist[j + 1, half:],
               levels[j, 1])) for j in range(block)]
    flips = 0
    for start in range(0, sweeps, block):
        c = min(block, sweeps - start)
        rng.random(out=coins[:c * n])
        _flip_levels(coins[:c * n], thresholds, levels.reshape(-1)[:c * n])
        for j in range(c):
            for state, nbr, old, new, h in steps[j]:
                np.add.reduce(state.take(nbr), axis=0, dtype=np.int8,
                              out=new)
                np.multiply(old, h, out=scratch)
                np.subtract(new, scratch, out=new)
                np.sign(new, out=new)
        # row r holds the state after sweep start + r
        first = max(0, skip - start)
        if first < c:
            flips += np.count_nonzero(hist[first + 1:c + 1] != hist[first:c])
        i = max(1, -((skip - start - 1) // record_every))
        rows = hist[skip + i * record_every - start:c + 1:record_every]
        values[i - 1:i - 1 + len(rows)] = rows.sum(axis=1) / 2.0
        hist[0] = hist[c]
    sigma[:] = hist[0]
    return values, flips


def run_simulation(params: SimulationParams) -> MagnetizationSeries:
    """Run Glauber dynamics and record M every `thin` sweeps after burn-in.

    The recorded length is floor((sweeps - burn_in) / thin).  The master
    seed is split into an init stream and a dynamics stream, so identical
    params give bit-identical output.
    """
    ss_init, ss_dyn = np.random.SeedSequence(params.seed).spawn(2)
    lattice = new_lattice(params.dims, params.side, params.init,
                          seed=ss_init if params.init == "random" else None)
    order, nbrs = _checkerboard(params.dims, params.side)
    values, flips = _run_sweeps(
        2 * lattice.occupations[order] - 1, nbrs,
        _flip_thresholds(params.dims, params.temperature),
        np.random.default_rng(ss_dyn), params.sweeps,
        record_every=params.thin, skip=params.burn_in)
    attempts = (params.sweeps - params.burn_in) * lattice.n_sites
    return MagnetizationSeries(values=values, params=params,
                               acceptance_rate=int(flips) / attempts)


def magnetization_to_returns(series: MagnetizationSeries) -> trends.ReturnSeries:
    """First differences of M, normalized to unit sample variance.

    This is the direct identification of market returns with the time
    derivative of the price deviation.  A deterministic (constant-step)
    series has zero difference variance and is rejected.
    """
    values = np.asarray(series.values, dtype=np.float64)
    _check_recorded_sweeps(values.size)
    return trends.normalize_raw_returns(np.diff(values))


def binder_cumulant(m_samples) -> float:
    """1 - <M^4> / (3 <M^2>^2), a finite-size locator of T_c."""
    m = np.asarray(m_samples, dtype=np.float64)
    if m.size < 100:
        raise ValueError("need at least 100 samples")
    m2 = np.mean(m * m)
    if m2 == 0:
        raise ValueError("<M^2> is zero")
    m4 = np.mean(m ** 4)
    return float(1.0 - m4 / (3.0 * m2 * m2))


@dataclass(frozen=True)
class AutocorrelationEstimate:
    """Integrated autocorrelation time and whether its window converged."""
    tau: float
    reliable: bool


def autocorrelation_time(series) -> AutocorrelationEstimate:
    """Integrated autocorrelation time tau_int = 1/2 + sum_h rho(h) of a
    1-d array.

    The sum is cut at the smallest window W >= 6 * tau_int(W)
    (self-consistent windowing).  White noise gives ~0.5 in sweep units.
    If no window converges below a third of the series length the
    estimate is flagged unreliable.
    """
    x = np.asarray(series, dtype=np.float64)
    n = x.size
    if n < 16:
        raise ValueError("series too short for autocorrelation analysis")
    x = x - x.mean()
    # biased autocovariances via FFT
    m = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, m)
    acov = np.fft.irfft(f * np.conj(f), m)[:n] / n
    if acov[0] <= 0:
        raise ValueError("zero-variance series")
    rho = acov / acov[0]
    max_lag = n // 3
    tau = 0.5
    for w in range(1, max_lag + 1):
        tau += float(rho[w])
        if w >= 6.0 * tau:
            return AutocorrelationEstimate(tau=tau, reliable=True)
    return AutocorrelationEstimate(tau=tau, reliable=False)
