"""Periodic hypercubic spin lattice with occupation/spin duality.

Each node of the network holds either one share (occupation n_i = 1) or
cash (n_i = 0).  The equivalent spin variable s_i = n_i - 1/2 marks the
investor as over- or under-weight in the asset.  Energies follow the
convention

    E_occ  = -(1/D) * sum_<ij> n_i n_j + mu * sum_i n_i
    E_spin = -(1/D) * sum_<ij> s_i s_j

where <ij> runs over nearest-neighbour links, each counted once, and the
1/D prefactor compensates for every node sitting on 2D links.  The two
forms differ by the configuration-independent constant N/4 when mu = 1.

The total magnetization M = sum_i s_i = n - N/2 is proportional to the
deviation of the implied share price P = n / (N/2) from its long-term
value 1.
"""

from __future__ import annotations

import numpy as np

_MAX_SITES_BITS = 62  # reject L**D beyond int64 territory


def _neighbor_tables(dims: int, side: int):
    """Neighbor indices, row-major site order with periodic wrap.

    Returns (all_neighbors, plus_neighbors): shape (N, 2*dims) listing
    the +axis and -axis neighbor of every site, and shape (N, dims)
    with only +axis neighbors so that each link appears exactly once.
    """
    n_sites = side ** dims
    coords = np.indices((side,) * dims).reshape(dims, n_sites)
    all_nbr = np.empty((n_sites, 2 * dims), dtype=np.int64)
    for axis in range(dims):
        for step, col in ((+1, 2 * axis), (-1, 2 * axis + 1)):
            shifted = coords.copy()
            shifted[axis] = (shifted[axis] + step) % side
            idx = np.zeros(n_sites, dtype=np.int64)
            for b in range(dims):
                idx = idx * side + shifted[b]
            all_nbr[:, col] = idx
    return all_nbr, all_nbr[:, 0::2].copy()


def _check_shape(dims: int, side: int) -> int:
    """Site count L**D of a valid lattice shape, before any allocation."""
    if dims < 1:
        raise ValueError("dims must be >= 1")
    if side < 2:
        raise ValueError("side must be >= 2 (neighbor pairs degenerate)")
    if dims * np.log2(side) > _MAX_SITES_BITS:
        raise ValueError(f"lattice size {side}^{dims} overflows")
    return side ** dims


class SpinLattice:
    """D-dimensional periodic lattice of binary occupations.

    Occupations are stored as 0/1 integers; the +-1/2 spin semantics are
    applied in arithmetic only, so the state itself never touches
    floating point.  The Glauber kernel in `dynamics` writes the
    occupations in place.
    """

    def __init__(self, dims: int, side: int, occupations: np.ndarray):
        n_sites = _check_shape(dims, side)
        occ = np.asarray(occupations, dtype=np.int8)
        if occ.shape != (n_sites,):
            raise ValueError(f"expected {n_sites} occupations, got {occ.shape}")
        if not np.all((occ == 0) | (occ == 1)):
            raise ValueError("occupations must be 0 or 1")
        self.dims = dims
        self.side = side
        self.n_sites = n_sites
        self._occ = occ
        self._nbr, self._nbr_plus = _neighbor_tables(dims, side)

    # -- views ------------------------------------------------------------

    @property
    def occupations(self) -> np.ndarray:
        """Occupation numbers n_i in {0, 1} (site order, row-major)."""
        return self._occ

    @property
    def spins(self) -> np.ndarray:
        """Spins s_i = n_i - 1/2 in {-1/2, +1/2}."""
        return self._occ.astype(np.float64) - 0.5

    @property
    def neighbor_table(self) -> np.ndarray:
        """(N, 2*dims) neighbor indices; every site has exactly 2D entries."""
        return self._nbr

    def shares(self) -> int:
        """Total number of shares n = sum_i n_i."""
        return int(self._occ.sum())

    # -- observables -------------------------------------------------------

    def magnetization(self) -> float:
        """M = sum_i s_i = n - N/2."""
        return self.shares() - self.n_sites / 2.0

    def implied_price(self) -> float:
        """P = n / n0 with long-term value n0 = N/2, i.e. P = 1 + 2M/N."""
        return self.shares() / (self.n_sites / 2.0)

    def occupation_energy(self, mu: float = 1.0) -> float:
        """E = -(1/D) sum_<ij> n_i n_j + mu sum_i n_i, links counted once.

        mu is the issuance/redemption cost ("chemical potential");
        mu = 1 corresponds to zero external field in the spin form.
        """
        occ = self._occ.astype(np.int64)
        link_sum = 0
        for axis in range(self.dims):
            link_sum += int(np.dot(occ, occ[self._nbr_plus[:, axis]]))
        return -link_sum / self.dims + mu * int(occ.sum())

    def spin_energy(self) -> float:
        """E = -(1/D) sum_<ij> s_i s_j, links counted once."""
        sigma = 2 * self._occ.astype(np.int64) - 1  # 2*s in {-1, +1}
        link_sum = 0
        for axis in range(self.dims):
            link_sum += int(np.dot(sigma, sigma[self._nbr_plus[:, axis]]))
        return -link_sum / (4.0 * self.dims)


def new_lattice(dims: int, side: int, init: str = "all_up",
                seed=None) -> SpinLattice:
    """Create a lattice in a uniform or seeded random configuration.

    init is one of "all_up", "all_down", "random"; random assigns each
    spin +-1/2 with probability 1/2 and requires a seed for
    reproducibility.
    """
    n_sites = _check_shape(dims, side)
    if init == "all_up":
        occ = np.ones(n_sites, dtype=np.int8)
    elif init == "all_down":
        occ = np.zeros(n_sites, dtype=np.int8)
    elif init == "random":
        if seed is None:
            raise ValueError("random init requires a seed")
        rng = np.random.default_rng(seed)
        occ = rng.integers(0, 2, n_sites, dtype=np.int8)
    else:
        raise ValueError(f"unknown init {init!r}")
    return SpinLattice(dims, side, occ)
