"""Lattice construction, neighbour table, energies and flip acceptance."""

import itertools

import numpy as np
import pytest

from latticemarket.dynamics import _flip_thresholds, glauber_flip_probability
from latticemarket.lattice import SpinLattice, _neighbor_table, new_lattice


def coordinate_neighbor(site, axis, step, dims, side):
    """The site one step along an axis, from coordinates taken mod side."""
    coords = list(np.unravel_index(site, (side,) * dims))
    coords[axis] = (coords[axis] + step) % side
    return int(np.ravel_multi_index(coords, (side,) * dims))


def brute_force_spin_energy(lattice):
    """Link-by-link oracle for the spin energy, each link once."""
    s = lattice.occupations - 0.5
    total = 0.0
    for site in range(lattice.n_sites):
        for axis in range(lattice.dims):
            j = coordinate_neighbor(site, axis, +1, lattice.dims, lattice.side)
            total += s[site] * s[j]
    return -total / lattice.dims


class TestConstruction:
    def test_all_up_2d(self):
        lat = new_lattice(2, 4, "all_up")
        assert lat.n_sites == 16
        assert np.all(lat.occupations == 1)

    def test_all_down_1d(self):
        lat = new_lattice(1, 8, "all_down")
        assert lat.n_sites == 8
        assert np.all(lat.occupations == 0)

    def test_random_seeded_reproducible(self):
        a = new_lattice(3, 8, "random", seed=7)
        b = new_lattice(3, 8, "random", seed=7)
        assert np.array_equal(a.occupations, b.occupations)
        assert set(np.unique(a.occupations)) == {0, 1}
        c = new_lattice(3, 8, "random", seed=8)
        assert not np.array_equal(a.occupations, c.occupations)

    def test_random_requires_seed(self):
        with pytest.raises(ValueError):
            new_lattice(2, 4, "random")

    def test_side_below_two_rejected(self):
        with pytest.raises(ValueError):
            new_lattice(2, 1, "all_up")

    def test_dims_below_one_rejected(self):
        with pytest.raises(ValueError):
            new_lattice(0, 4, "all_up")

    def test_overflowing_site_count_rejected(self):
        with pytest.raises(ValueError):
            new_lattice(64, 3, "all_up")

    def test_neighbor_counts(self):
        table = _neighbor_table(3, 4)
        assert table.shape == (64, 6) and table.dtype == np.int64
        # every site is the +axis neighbour of exactly one site per axis,
        # so the even columns hold D*N distinct links
        for axis in range(3):
            assert np.array_equal(np.sort(table[:, 2 * axis]), np.arange(64))

    @pytest.mark.parametrize("dims,side", [
        (1, 2), (1, 5), (1, 6), (2, 3), (2, 4), (3, 3), (3, 4)])
    def test_neighbor_table_matches_coordinates(self, dims, side):
        table = _neighbor_table(dims, side)
        expected = [[coordinate_neighbor(site, axis, step, dims, side)
                     for axis in range(dims) for step in (+1, -1)]
                    for site in range(side ** dims)]
        assert np.array_equal(table, expected)


def fig_cluster_lattice():
    """Five occupied sites forming a plus on a 4x4 grid: 4 occupied links."""
    occ = np.zeros(16, dtype=np.int8)
    occ[[5, 1, 9, 4, 6]] = 1
    return SpinLattice(2, 4, occ)


class TestEnergies:
    def test_five_site_cluster_energy(self):
        lat = fig_cluster_lattice()
        assert lat.occupation_energy(mu=0.0) == pytest.approx(-2.0)

    def test_empty_lattice_energy_zero(self):
        lat = new_lattice(2, 4, "all_down")
        for mu in (0.0, 1.0, 2.5):
            assert lat.occupation_energy(mu) == 0.0

    def test_single_occupied_site(self):
        occ = np.zeros(16, dtype=np.int8)
        occ[3] = 1
        lat = SpinLattice(2, 4, occ)
        assert lat.occupation_energy(mu=1.0) == pytest.approx(1.0)

    def test_spin_energy_ground_state(self):
        lat = new_lattice(2, 6, "all_up")
        assert lat.spin_energy() == pytest.approx(-lat.n_sites / 4.0)

    def test_spin_energy_checkerboard(self):
        side = 4
        occ = np.fromfunction(lambda r, c: (r + c) % 2, (side, side))
        lat = SpinLattice(2, side, occ.reshape(-1).astype(np.int8))
        assert lat.spin_energy() == pytest.approx(lat.n_sites / 4.0)

    @pytest.mark.parametrize("dims,side", [(2, 2), (1, 8), (2, 3), (3, 2)])
    def test_energy_offset_exhaustive(self, dims, side):
        # occupation form at mu=1 minus spin form is exactly N/4 for
        # every configuration
        n = side ** dims
        for bits in itertools.product((0, 1), repeat=n):
            lat = SpinLattice(dims, side, np.array(bits, dtype=np.int8))
            offset = lat.occupation_energy(mu=1.0) - lat.spin_energy()
            assert offset == pytest.approx(n / 4.0, abs=1e-12)

    def test_global_flip_leaves_spin_energy_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            occ = rng.integers(0, 2, 27, dtype=np.int8)
            lat = SpinLattice(3, 3, occ)
            flipped = SpinLattice(3, 3, 1 - occ)
            assert lat.spin_energy() == pytest.approx(flipped.spin_energy())

    def test_spin_energy_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        lat = SpinLattice(2, 5, rng.integers(0, 2, 25, dtype=np.int8))
        assert lat.spin_energy() == pytest.approx(
            brute_force_spin_energy(lat), abs=1e-12)


def flip_acceptance(lattice, temperature):
    """Per site: the kernel's table entry at m = sigma_site * sum sigma_nbr,
    the heat-bath probability of the brute-force spin_energy change of
    flipping that site, and that change."""
    sigma = 2 * lattice.occupations.astype(np.int64) - 1
    table = _flip_thresholds(lattice.dims, temperature)
    nbrs = _neighbor_table(lattice.dims, lattice.side)
    rows = []
    for site in range(lattice.n_sites):
        m = sigma[site] * sigma[nbrs[site]].sum()
        flipped = lattice.occupations.copy()
        flipped[site] ^= 1
        d_e = (SpinLattice(lattice.dims, lattice.side, flipped).spin_energy()
               - lattice.spin_energy())
        rows.append((table[(m + 2 * lattice.dims) // 2],
                     glauber_flip_probability(d_e, temperature),
                     d_e))
    return rows


class TestFlipDelta:
    def test_all_up_flip(self):
        lat = new_lattice(2, 4, "all_up")
        for kernel, brute, d_e in flip_acceptance(lat, 0.3):
            assert d_e == pytest.approx(1.0)
            assert kernel == pytest.approx(brute, rel=1e-12)

    def test_balanced_neighborhood(self):
        # 1D half-and-half pattern: every site has one up, one down neighbor
        occ = np.array([1, 1, 0, 0], dtype=np.int8)
        lat = SpinLattice(1, 4, occ)
        for kernel, brute, d_e in flip_acceptance(lat, 0.3):
            assert d_e == pytest.approx(0.0)
            assert kernel == brute == 0.5

    def test_matches_full_recomputation(self):
        rng = np.random.default_rng(3)
        for dims, side in ((1, 6), (2, 3), (2, 4), (3, 4)):
            lat = SpinLattice(dims, side, rng.integers(
                0, 2, side ** dims, dtype=np.int8))
            for temperature in (0.1, 0.2836, 2.0):
                for kernel, brute, _ in flip_acceptance(lat, temperature):
                    assert kernel == pytest.approx(brute, rel=1e-12)
