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
"""

from __future__ import annotations

import numpy as np

_MAX_SITES_BITS = 62  # reject L**D beyond int64 territory


def _neighbor_table(dims: int, side: int) -> np.ndarray:
    """(N, 2D) int64 neighbour indices in row-major site order, periodic:
    column 2a is the +axis neighbour and 2a + 1 the -axis one, so the even
    columns hold each link once.  Built one column at a time."""
    grid = np.arange(side ** dims, dtype=np.int64).reshape((side,) * dims)
    table = np.empty((grid.size, 2 * dims), np.int64)
    for axis in range(dims):
        for column, step in ((2 * axis, 1), (2 * axis + 1, -1)):
            table[:, column] = np.roll(grid, -step, axis=axis).ravel()
    return table


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
    floating point.  `dynamics.run_simulation` reads them into a +-1 spin
    copy in checkerboard order and sweeps that copy; the lattice itself
    is left unchanged.
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

    @property
    def occupations(self) -> np.ndarray:
        """Occupation numbers n_i in {0, 1} (site order, row-major)."""
        return self._occ

    def _link_sum(self, values: np.ndarray) -> int:
        """sum_<ij> v_i v_j over integer site values, links counted once."""
        plus = _neighbor_table(self.dims, self.side)[:, 0::2]
        return int(np.dot(values, values[plus].sum(axis=1)))

    def occupation_energy(self, mu: float = 1.0) -> float:
        """E = -(1/D) sum_<ij> n_i n_j + mu sum_i n_i, links counted once.

        mu is the issuance/redemption cost ("chemical potential");
        mu = 1 corresponds to zero external field in the spin form.
        """
        occ = self._occ.astype(np.int64)
        return -self._link_sum(occ) / self.dims + mu * int(occ.sum())

    def spin_energy(self) -> float:
        """E = -(1/D) sum_<ij> s_i s_j, links counted once."""
        sigma = 2 * self._occ.astype(np.int64) - 1  # 2*s in {-1, +1}
        return -self._link_sum(sigma) / (4.0 * self.dims)


def new_lattice(dims: int, side: int, init: str = "all_up",
                seed=None) -> SpinLattice:
    """A lattice with init "all_up", "all_down" or "random" (each spin
    +-1/2 with probability 1/2, drawn from a seed that it requires)."""
    n_sites = _check_shape(dims, side)
    if init == "random":
        if seed is None:
            raise ValueError("random init requires a seed")
        rng = np.random.default_rng(seed)
        occ = rng.integers(0, 2, n_sites, dtype=np.int8)
    elif init in ("all_up", "all_down"):
        occ = np.full(n_sites, init == "all_up", dtype=np.int8)
    else:
        raise ValueError(f"unknown init {init!r}")
    return SpinLattice(dims, side, occ)
