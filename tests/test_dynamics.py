"""Glauber dynamics and its diagnostics, against exact results."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import lfilter
from scipy.special import ellipk

import latticemarket as lm
from latticemarket import dynamics
from latticemarket.lattice import SpinLattice, _neighbor_table, new_lattice

TC = dynamics.CRITICAL_TEMPERATURE_2D


class TestGlauberProbability:
    def test_symmetric_move_is_half(self):
        for t in (0.1, 1.0, 37.0):
            assert lm.glauber_flip_probability(0.0, t) == pytest.approx(0.5)

    def test_infinite_temperature_limit(self):
        assert lm.glauber_flip_probability(1.0, 1e12) == pytest.approx(
            0.5, abs=1e-6)

    def test_reference_value(self):
        expected = 1.0 / (1.0 + math.exp(4.0))
        assert lm.glauber_flip_probability(1.0, 0.25) == pytest.approx(
            expected, rel=1e-12)

    def test_detailed_balance(self):
        for x in np.linspace(-30.0, 30.0, 41):
            p_fwd = lm.glauber_flip_probability(x, 1.0)
            p_bwd = lm.glauber_flip_probability(-x, 1.0)
            assert p_fwd / p_bwd == pytest.approx(math.exp(-x), rel=1e-12)

    def test_overflow_saturates(self):
        assert lm.glauber_flip_probability(1e9, 1.0) == 0.0
        assert lm.glauber_flip_probability(-1e9, 1.0) == 1.0

    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            lm.glauber_flip_probability(1.0, 0.0)


def sweep(lattice: SpinLattice, temperature: float,
          rng: np.random.Generator) -> SpinLattice:
    """One Monte Carlo sweep of the lattice in place through the kernel:
    both checkerboard half-sweeps, N uniforms drawn."""
    order, nbrs = dynamics._checkerboard(lattice.dims, lattice.side)
    sigma = 2 * lattice.occupations[order] - 1
    dynamics._run_sweeps(sigma, nbrs,
                         dynamics._flip_thresholds(lattice.dims, temperature),
                         rng, 1, record_every=1)
    lattice.occupations[order] = (sigma + 1) // 2
    return lattice


class TestSweep:
    def test_frozen_at_tiny_temperature(self):
        lat = new_lattice(2, 8, "all_up")
        rng = np.random.default_rng(1)
        for _ in range(100):
            sweep(lat, 1e-6, rng)
        assert np.all(lat.occupations == 1)

    def test_infinite_temperature_disorders(self):
        lat = new_lattice(2, 16, "all_up")
        rng = np.random.default_rng(2)
        for _ in range(200):
            sweep(lat, 1e12, rng)
        frac_up = lat.occupations.mean()
        # i.i.d. +-1/2 spins: sd of the fraction is 0.5/sqrt(256)
        assert abs(frac_up - 0.5) < 5 * 0.5 / 16

    def test_replay_is_bit_identical(self):
        runs = []
        for _ in range(2):
            lat = new_lattice(2, 8, "random", seed=5)
            rng = np.random.default_rng(17)
            for _ in range(20):
                sweep(lat, 0.3, rng)
            runs.append(lat.occupations.copy())
        assert np.array_equal(runs[0], runs[1])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(dims=st.integers(1, 3), side=st.sampled_from([2, 4, 6, 8]),
           temperature=st.floats(0.01, 100.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_global_flip_mirrors_trajectory(self, dims, side, temperature,
                                            seed):
        # dE depends on sigma_site * sum sigma_nbr, which is flip invariant,
        # so the same coins drive the mirrored trajectory
        occ = np.random.default_rng(seed).integers(0, 2, side ** dims,
                                                   dtype=np.int8)
        traces = []
        for start in (occ, 1 - occ):
            lat = SpinLattice(dims, side, start)
            rng = np.random.default_rng(seed + 1)
            trace = []
            for _ in range(12):
                sweep(lat, temperature, rng)
                trace.append(lat.occupations.sum() - lat.n_sites / 2)
            traces.append(trace)
        assert traces[0] == [-m for m in traces[1]]


def replicas(p, n):
    """n independent runs of p, seeded from p.seed."""
    return [lm.run_simulation(replace(p, seed=int(s)))
            for s in np.random.SeedSequence(p.seed).generate_state(
                n, dtype=np.uint64)]


def onsager_energy_per_site(temperature, coupling=1.0 / 8.0):
    """Onsager's internal energy per site, -J coth(2K)[1 + (2/pi)(2 tanh^2
    (2K) - 1) K(k)] with K = J/T and k = 2 sinh(2K) / cosh^2(2K); the spin
    energy here is the +-1 Ising energy with J = 1/(4D) = 1/8."""
    two_k = 2.0 * coupling / temperature
    k = 2.0 * math.sinh(two_k) / math.cosh(two_k) ** 2
    return -coupling / math.tanh(two_k) * (
        1.0 + 2.0 / math.pi * (2.0 * math.tanh(two_k) ** 2 - 1.0)
        * ellipk(k * k))


def mean_and_error(samples):
    """Sample mean and its standard error from the measured tau_int."""
    x = np.asarray(samples, dtype=np.float64)
    est = dynamics.autocorrelation_time(x)
    assert est.reliable
    return x.mean(), x.std(ddof=1) * math.sqrt(2.0 * est.tau / x.size)


class TestCheckerboardKernel:
    def test_odd_side_rejected(self):
        with pytest.raises(ValueError, match="side 7"):
            lm.SimulationParams(side=7)
        with pytest.raises(ValueError, match="side 5"):
            sweep(new_lattice(2, 5, "all_up"), 1.0,
                  np.random.default_rng(0))
        # the lattice itself keeps odd sides (energy tests use side 3)
        assert new_lattice(2, 3, "all_up").n_sites == 9

    def test_acceptance_rate_at_infinite_temperature(self):
        # every attempt is an independent fair coin: sd 0.5 / sqrt(attempts)
        p = lm.SimulationParams(dims=2, side=16, temperature=1e12,
                                sweeps=400, burn_in=100, seed=2)
        attempts = 300 * 256
        rate = lm.run_simulation(p).acceptance_rate
        assert abs(rate - 0.5) < 4.0 * 0.5 / math.sqrt(attempts)

    def test_exact_gibbs_moments_on_4x4_torus(self):
        # <M^2> at T_c by enumerating all 2^16 states; 8 replicas of 19 000
        # recorded sweeps measured tau_int ~1.7 and a standard error ~0.09
        # against <M^2> = 48.73
        bits = np.arange(1 << 16)[:, None] >> np.arange(16) & 1
        sigma = 2 * bits - 1
        plus = _neighbor_table(2, 4)[:, 0::2]
        links = sum((sigma * sigma[:, plus[:, a]]).sum(axis=1)
                    for a in range(2))
        weight = np.exp(links / 8.0 / TC)
        m = sigma.sum(axis=1) / 2.0
        exact = float(np.dot(weight, m * m) / weight.sum())
        p = lm.SimulationParams(dims=2, side=4, temperature=TC, sweeps=20000,
                                burn_in=1000, seed=4)
        means, errors = zip(*(mean_and_error(r.values ** 2)
                              for r in replicas(p, 8)))
        error = math.hypot(*errors) / len(errors)
        assert abs(np.mean(means) - exact) < 4.0 * error

    @pytest.mark.parametrize("fraction,init,expected",
                             [(0.8, "all_up", -0.23155), (1.5, "random",
                                                          -0.08562)])
    def test_onsager_internal_energy(self, fraction, init, expected):
        # L = 64 is many correlation lengths away from T_c, so the
        # finite-size shift is far below the statistical error; 2 000
        # sweeps measured tau_int ~1.4 (0.8 T_c) and ~1.0 (1.5 T_c),
        # standard errors ~1e-4
        temperature = fraction * TC
        exact = onsager_energy_per_site(temperature)
        assert exact == pytest.approx(expected, abs=1e-5)
        lat = new_lattice(2, 64, init, seed=1)
        rng = np.random.default_rng(5)
        for _ in range(200):
            sweep(lat, temperature, rng)
        energies = []
        for _ in range(2000):
            sweep(lat, temperature, rng)
            energies.append(lat.spin_energy() / lat.n_sites)
        mean, error = mean_and_error(energies)
        assert abs(mean - exact) < 4.0 * error

    def test_yang_magnetization(self):
        # <|M|>/N = m/2 with m = (1 - sinh(2J/T)^-4)^(1/8), J = 1/8; at
        # 0.9 T_c and L = 64 3 800 sweeps measured tau_int ~6, error ~5e-4
        temperature = 0.9 * TC
        yang = 0.5 * (1.0 - math.sinh(0.25 / temperature) ** -4) ** 0.125
        series = lm.run_simulation(lm.SimulationParams(
            dims=2, side=64, init="all_up", temperature=temperature,
            sweeps=4000, burn_in=200, seed=3))
        mean, error = mean_and_error(np.abs(series.values) / 64 ** 2)
        assert abs(mean - yang) < 4.0 * error


def reference_sweeps(sigma: np.ndarray, nbrs, thresholds: np.ndarray,
                     rng: np.random.Generator, sweeps: int,
                     record_every: int = 0, skip: int = 0):
    """Checkerboard Glauber sweeps over an (N,) sigma = +-1 int8 array.

    sigma is in the permuted order of `_checkerboard` and is mutated in
    place.  Each sweep draws one uniform per site, the even half-sweep's
    before the odd one's.  A site flips where u < p(sigma * sum
    sigma_nbr), so a global flip of the start state mirrors the
    trajectory.  Returns (M, flips): M = sum(sigma)/2 after each recorded
    sweep, and the number of accepted flips after `skip` sweeps.

    The thresholds p(-2D), ..., p(2D) go into a table that m indexes
    directly: the 2D + 1 even m are distinct modulo 2D + 1, so negative
    m wrap onto free entries.
    """
    dims = thresholds.size // 2
    ptab = np.empty(thresholds.size)
    ptab[np.arange(-2 * dims, 2 * dims + 1, 2)] = thresholds
    half = sigma.size // 2
    coins = np.empty(sigma.size)
    halves = ((sigma[:half], nbrs[0], coins[:half]),
              (sigma[half:], nbrs[1], coins[half:]))
    values = np.empty((sweeps - skip) // record_every if record_every else 0)
    flips = 0
    for done in range(1 - skip, sweeps - skip + 1):
        rng.random(out=coins)
        for spins, nbr, u in halves:
            m = spins * sigma[nbr].sum(axis=0, dtype=np.int8)
            flip = u < ptab.take(m)
            np.negative(spins, out=spins, where=flip)
            if done > 0:
                flips += np.count_nonzero(flip)
        if record_every and done > 0 and done % record_every == 0:
            values[done // record_every - 1] = sigma.sum() / 2.0
    return values, flips


class TestBlockKernel:
    """The block kernel against the one-sweep-at-a-time reference."""

    @pytest.mark.parametrize("dims,side", [
        (1, 64), (2, 16), (3, 8),              # many sweeps per block
        (1, 1 << 15), (2, 192), (3, 32)])      # one sweep per block
    @pytest.mark.parametrize("temperature", [1e-6, TC, 1.0, 1e12])
    def test_matches_reference(self, dims, side, temperature):
        lat = new_lattice(dims, side, "random", seed=dims)
        order, nbrs = dynamics._checkerboard(lat.dims, lat.side)
        start = 2 * lat.occupations[order] - 1
        thresholds = dynamics._flip_thresholds(dims, temperature)
        block = max(1, dynamics._BLOCK_SITES // lat.n_sites)
        # burn-in ends one sweep before, at, and after a block boundary;
        # records fall on both sides of later boundaries, and a thin of
        # more than a block skips whole blocks
        for sweeps, skip, thin in [(2 * block + 3, block - 1, 1),
                                   (2 * block + 1, block, 3),
                                   (3 * block + 2, block + 1, block + 1),
                                   (2 * block, 0, 2)]:
            runs = []
            for kernel in (reference_sweeps, dynamics._run_sweeps):
                sigma, rng = start.copy(), np.random.default_rng(side)
                values, flips = kernel(sigma, nbrs, thresholds, rng, sweeps,
                                       record_every=thin, skip=skip)
                runs.append((values, flips, sigma, rng.bit_generator.state))
            (v_ref, f_ref, s_ref, r_ref), (v, f, s, r) = runs
            assert v.size == (sweeps - skip) // thin
            assert np.array_equal(v, v_ref)
            assert f == f_ref
            assert np.array_equal(s, s_ref)
            assert r == r_ref

    @pytest.mark.parametrize("dims", [1, 2, 3, 4])
    def test_acceptance_table_non_increasing(self, dims):
        for temperature in np.logspace(-6, 12, 181):
            p = dynamics._flip_thresholds(dims, temperature)
            assert np.all(np.diff(p) <= 0), temperature

    @pytest.mark.parametrize("dims", [1, 2, 3, 4])
    def test_level_rule_is_the_comparison(self, dims):
        # m < h reproduces u < p(m) at u = 0, at each p(m) and just below
        m = np.arange(-2 * dims, 2 * dims + 1, 2)
        for temperature in np.logspace(-6, 12, 37):
            p = dynamics._flip_thresholds(dims, temperature)
            u = np.concatenate([[0.0], p, np.nextafter(p, 0.0)])
            h = np.empty(u.size, np.int8)
            dynamics._flip_levels(u, p, h)
            assert np.array_equal(m < h[:, None], u[:, None] < p)

    def test_rising_table_fails_before_any_draw(self):
        lat = new_lattice(2, 4, "all_up")
        order, nbrs = dynamics._checkerboard(lat.dims, lat.side)
        sigma = 2 * lat.occupations[order] - 1
        thresholds = dynamics._flip_thresholds(2, TC)
        thresholds[3] = 0.9  # p(2) above p(0) = 0.5
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="rises from m=0 to m=2"):
            dynamics._run_sweeps(sigma, nbrs, thresholds, rng, 10, 1)
        assert rng.bit_generator.state == before
        assert np.all(sigma == 1)

    def test_checkerboard_tables_cached_and_left_unchanged(self):
        order, nbrs = dynamics._checkerboard(2, 8)
        saved = order.copy(), nbrs.copy()
        lm.run_simulation(lm.SimulationParams(dims=2, side=8, sweeps=50,
                                              burn_in=5, seed=1))
        sweep(new_lattice(2, 8, "random", seed=1), TC,
              np.random.default_rng(0))
        again = dynamics._checkerboard(2, 8)
        assert again[0] is order and again[1] is nbrs
        assert np.array_equal(order, saved[0])
        assert np.array_equal(nbrs, saved[1])
        # a read-only index array makes `take` slower
        assert nbrs.flags.writeable


class TestRunSimulation:
    def test_recorded_length(self):
        p = lm.SimulationParams(dims=2, side=8, init="random",
                                temperature=1.0, sweeps=103, burn_in=10,
                                thin=4, seed=0)
        series = lm.run_simulation(p)
        assert len(series.values) == (103 - 10) // 4

    def test_reproducible(self):
        p = lm.SimulationParams(dims=2, side=8, init="random",
                                temperature=0.3, sweeps=200, seed=42)
        a = lm.run_simulation(p)
        b = lm.run_simulation(p)
        assert np.array_equal(a.values, b.values)

    def test_high_temperature_mean_zero(self):
        p = lm.SimulationParams(dims=2, side=32, init="random",
                                temperature=10 * TC, sweeps=3000,
                                burn_in=200, seed=7)
        series = lm.run_simulation(p)
        est = dynamics.autocorrelation_time(series.values)
        n_eff = len(series.values) / (2 * est.tau)
        se = series.values.std(ddof=1) / math.sqrt(n_eff)
        assert abs(series.values.mean()) < 3 * se

    def test_low_temperature_plateau(self):
        p = lm.SimulationParams(dims=2, side=32, init="all_up",
                                temperature=0.5 * TC, sweeps=1200,
                                burn_in=200, seed=8)
        series = lm.run_simulation(p)
        n_sites = 32 * 32
        assert series.values.mean() / n_sites > 0.4

    def test_critical_temperature_value(self):
        assert TC == pytest.approx(0.2836481642766277, rel=1e-12)
        # Onsager mapping: J_eff = 1/(4D) rescales the +-1 Ising coupling
        assert TC == pytest.approx((1 / 8) * 2 / math.log(1 + math.sqrt(2)))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            lm.SimulationParams(temperature=-1.0)
        with pytest.raises(ValueError):
            lm.SimulationParams(sweeps=0)
        with pytest.raises(ValueError):
            lm.SimulationParams(sweeps=10, burn_in=10)
        with pytest.raises(ValueError):
            lm.SimulationParams(thin=0)


class TestMagnetizationToReturns:
    def test_deterministic_trend_rejected(self):
        series = dynamics.MagnetizationSeries(
            values=np.array([0.0, 1.0, 2.0, 3.0]), params=None)
        with pytest.raises(ValueError):
            lm.magnetization_to_returns(series)

    def test_alternating_series(self):
        series = dynamics.MagnetizationSeries(
            values=np.array([0.0, 1.0, 0.0, 1.0]), params=None)
        rets = lm.magnetization_to_returns(series)
        # raw differences recoverable from the stored normalization
        assert np.allclose(rets.values * rets.sigma, [1.0, -1.0, 1.0])
        assert np.var(rets.values, ddof=1) == pytest.approx(1.0, abs=1e-12)

    def test_high_temperature_return_structure(self):
        p = lm.SimulationParams(dims=2, side=16, init="random",
                                temperature=1e12, sweeps=4000,
                                burn_in=200, seed=9)
        series = lm.run_simulation(p)
        rets = lm.magnetization_to_returns(series)
        assert np.var(rets.values, ddof=1) == pytest.approx(1.0, abs=1e-12)
        # at T = inf every checkerboard update flips its site with
        # probability 1/2 whatever the neighbours, so successive M are
        # i.i.d. and their differences have lag-1 autocorrelation exactly
        # -1/2; the sample value has standard error below 1/sqrt(n)
        r = rets.values
        lag1 = np.corrcoef(r[:-1], r[1:])[0, 1]
        assert abs(lag1 + 0.5) < 4.0 / math.sqrt(r.size)


class TestBinderCumulant:
    def test_gaussian_near_zero(self):
        rng = np.random.default_rng(5)
        u = dynamics.binder_cumulant(rng.standard_normal(50000))
        assert abs(u) < 0.03

    def test_two_point_distribution(self):
        samples = np.array([1.7, -1.7] * 100)
        assert dynamics.binder_cumulant(samples) == pytest.approx(2.0 / 3.0)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            dynamics.binder_cumulant(np.ones(99))

    def test_zero_moment(self):
        with pytest.raises(ValueError):
            dynamics.binder_cumulant(np.zeros(200))


class TestAutocorrelationTime:
    def test_white_noise(self):
        rng = np.random.default_rng(6)
        est = dynamics.autocorrelation_time(rng.standard_normal(100000))
        assert est.reliable
        assert est.tau == pytest.approx(0.5, abs=0.05)

    def test_ar1_matches_decay_constant(self):
        theta = 0.1
        rng = np.random.default_rng(7)
        series = lfilter([1.0], [1.0, -math.exp(-theta)],
                         rng.standard_normal(300000))
        est = dynamics.autocorrelation_time(series)
        assert est.reliable
        assert est.tau == pytest.approx(1.0 / theta, rel=0.10)

    def test_too_short_series(self):
        with pytest.raises(ValueError):
            dynamics.autocorrelation_time(np.arange(8.0))

    def test_critical_slowing_grows_with_size(self):
        # single-run tau estimates at T_c carry ~50% noise, so compare
        # replica means across a 2x size step (expected ratio ~2^z ~ 4.5)
        taus = {}
        for side, sweeps, seed in ((8, 20000, 12), (16, 30000, 13)):
            p = lm.SimulationParams(dims=2, side=side, init="random",
                                    temperature=TC, sweeps=sweeps,
                                    burn_in=sweeps // 10, seed=seed)
            taus[side] = np.mean([
                dynamics.autocorrelation_time(r.values).tau
                for r in replicas(p, 3)])
        assert taus[16] > 2.0 * taus[8]


class TestExactChain1D:
    @pytest.mark.parametrize("temperature,side", [(1.0, 64), (0.5, 128)])
    def test_magnetization_autocorrelation_is_glauber(self, temperature,
                                                      side):
        # with J = 1/4 the heat bath gives E[sigma_i | nbrs] = (gamma/2)
        # (sigma_i-1 + sigma_i+1), gamma = tanh(1/(2T)) (Glauber, J. Math.
        # Phys. 4, 294, 1963); the even half then the odd half give
        # E[M_even'] = gamma M_odd and E[M_odd'] = gamma^2 M_odd, so the
        # M recorded per sweep has rho(tau) = (1 + gamma) gamma^(2 tau - 1)
        # / 2 and tau_int = 1 / (2 (1 - gamma)).  Ten master seeds gave a
        # spread of at most 0.0085 in rho(1..4) and 2.6% in tau_int, so
        # the bounds are about 4 sd; a synchronous update (rho = gamma^tau)
        # or gamma = tanh(1/T) misses by 0.14 or more at some lag
        gamma = math.tanh(0.5 / temperature)
        lags = np.arange(1, 5)
        exact = (1.0 + gamma) * gamma ** (2 * lags - 1) / 2.0
        p = lm.SimulationParams(dims=1, side=side, temperature=temperature,
                                sweeps=10000, burn_in=100, seed=21)
        runs = replicas(p, 4)
        rho = []
        for r in runs:
            x = r.values - r.values.mean()
            rho.append([x[:-k] @ x[k:] / (x @ x) for k in lags])
        assert np.abs(np.mean(rho, axis=0) - exact).max() < 0.035
        tau = np.mean([dynamics.autocorrelation_time(r.values).tau for r in runs])
        assert tau == pytest.approx(0.5 / (1.0 - gamma), rel=0.10)
