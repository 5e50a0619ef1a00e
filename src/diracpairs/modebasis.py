"""Free Dirac eigenmodes on the momentum lattice n*k*e_z + k0.

The monochromatic counterpropagating waves couple only modes whose momenta
differ by one photon momentum, so a single simulation lives on a chain of
lattice momenta.  At each lattice point the four eigenvectors of the free
Dirac Hamiltonian alpha.p + beta (Dirac representation) have the closed
form norm * [[1, -T], [T, 1]] with T = sigma.p/(E+1): the two-spinor
chi = up or down is the upper half of a positive-energy mode and the
lower half of a negative-energy mode, so that component is real and
positive by construction and no phase has to be fixed.

``ModeBasis`` is one table of arrays over the chain: per mode its lattice
index n, band, spin, momentum, signed energy, spinor, spin-z and
helicity.  Basis ordering is n ascending, band plus before minus, spin up
before down; the flattened index is a bijection onto [0, 4*(2*n_cut+1)).
Result files name a mode by ``label(i)``, its lattice index and spin as
in "+1u"; the band follows from the electron or positron column.
"""

from __future__ import annotations

import numpy as np

from .physconfig import FieldParams, NumericsParams

# Pauli matrices and the Dirac-representation alpha/beta set.
SIGMA = np.array([
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, -1.0j], [1.0j, 0.0]],
    [[1.0, 0.0], [0.0, -1.0]],
], dtype=complex)

ALPHA = np.zeros((3, 4, 4), dtype=complex)
for _c in range(3):
    ALPHA[_c, :2, 2:] = SIGMA[_c]
    ALPHA[_c, 2:, :2] = SIGMA[_c]

BETA = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)

# 4x4 spin operator (1/2)*Sigma_z and helpers for helicity.
SIGMA_BIG = np.zeros((3, 4, 4), dtype=complex)
for _c in range(3):
    SIGMA_BIG[_c, :2, :2] = SIGMA[_c]
    SIGMA_BIG[_c, 2:, 2:] = SIGMA[_c]


def free_hamiltonian(p: np.ndarray) -> np.ndarray:
    """alpha.p + beta for momenta p of shape (..., 3)."""
    return np.tensordot(p, ALPHA, axes=(-1, 0)) + BETA


def free_spinors(p: np.ndarray) -> np.ndarray:
    """Orthonormal eigenmodes of alpha.p + beta for momenta p of shape (..., 3).

    Returns shape (..., 4, 4) whose columns are (plus up, plus down, minus
    up, minus down): norm * [[1, -T], [T, 1]] with T = sigma.p/(E+1) and
    norm = sqrt((E+1)/(2E)), E = sqrt(1 + |p|^2).
    """
    p = np.asarray(p, dtype=float)
    energy = np.sqrt(1.0 + np.linalg.norm(p, axis=-1) ** 2)[..., None, None]
    t = np.tensordot(p, SIGMA, axes=(-1, 0)) / (energy + 1.0)
    one = np.broadcast_to(np.eye(2), t.shape)
    norm = np.sqrt((energy + 1.0) / (2.0 * energy))
    return norm * np.block([[one, -t], [t, one]])


class ModeBasis:
    """Ordered table of free modes over the truncated momentum chain.

    Per mode i: lattice index ``n[i]``, ``band_plus[i]``, ``spin_up[i]``,
    ``momenta[i]`` (units of m0), signed ``energies[i]``, unit-norm spinor
    ``spinors[:, i]``, ``spin_z[i]`` = <(1/2) Sigma_z> and ``helicity[i]``
    = <(1/2) Sigma.p/|p|> (0 at p = 0).  Both expectation values are in
    closed form, (1/2)(+-1)(1 - p_perp^2/(E(E+1))) and (1/2)(+-1) p_z/|p|
    for spin up/down, so for momenta along z they are exact halves.

    Immutable after construction.
    """

    def __init__(self, n_cut: int, k: float, k0: tuple):
        self.n_cut = n_cut
        self.k = k
        self.k0 = tuple(float(x) for x in k0)
        sites = 2 * n_cut + 1
        self.dim = 4 * sites
        self.n = np.repeat(np.arange(-n_cut, n_cut + 1), 4)
        self.band_plus = np.tile([True, True, False, False], sites)
        self.spin_up = np.tile([True, False], 2 * sites)
        self.momenta = np.tile(self.k0, (self.dim, 1))
        self.momenta[:, 2] += self.n * k

        p_abs = np.linalg.norm(self.momenta, axis=1)
        energy = np.sqrt(1.0 + p_abs ** 2)
        self.energies = np.where(self.band_plus, energy, -energy)
        # free_spinors' columns follow the (band, spin) order of one site
        self.spinors = np.concatenate(free_spinors(self.momenta[::4]), axis=1)
        half = np.where(self.spin_up, 0.5, -0.5)
        p_perp2 = self.momenta[:, 0] ** 2 + self.momenta[:, 1] ** 2
        self.spin_z = half * (1.0 - p_perp2 / (energy * (energy + 1.0)))
        cos_theta = np.divide(self.momenta[:, 2], p_abs,
                              out=np.zeros(self.dim), where=p_abs > 0.0)
        # 0.0 at p = 0 for both spins, not -0.0: dump-basis writes the sign
        self.helicity = np.where(p_abs > 0.0, half * cos_theta, 0.0)

        self.plus_indices = np.flatnonzero(self.band_plus)
        self.minus_indices = np.flatnonzero(~self.band_plus)
        # ``label`` of the electron and of the positron modes, for pair lists
        self.pair_labels = tuple([self.label(i) for i in half] for half
                                 in (self.plus_indices, self.minus_indices))

    def label(self, i: int) -> str:
        """Lattice index and spin of mode i, as in "+1u"."""
        return f"{self.n[i]:+d}{'u' if self.spin_up[i] else 'd'}"

    @property
    def n_electron_modes(self) -> int:
        return len(self.plus_indices)

    @property
    def n_positron_modes(self) -> int:
        return len(self.minus_indices)


def build_basis(numerics: NumericsParams, field: FieldParams) -> ModeBasis:
    """Basis over momenta n*k*e_z + k0 for n in [-n_cut, n_cut].

    An out-of-range wavenumber or k0 overflows to non-finite entries
    without a warning; ``dynamics`` refuses their non-finite step bound.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return ModeBasis(n_cut=numerics.n_cut, k=field.wavenumber,
                         k0=numerics.k0_offset)
