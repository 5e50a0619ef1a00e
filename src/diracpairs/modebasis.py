"""Free Dirac eigenmodes on the momentum lattice n*k*e_z + k0.

The monochromatic counterpropagating waves couple only modes whose momenta
differ by one photon momentum, so a single simulation lives on a chain of
lattice momenta.  At each lattice point the four eigenvectors of the free
Dirac Hamiltonian alpha.p + beta (Dirac representation) are constructed
analytically from the standard two-spinor form, which pins the phase
convention: the dominant upper component of a positive-energy mode and the
dominant lower component of a negative-energy mode are real and positive.

Basis ordering is n ascending, band plus before minus, spin up before
down; the flattened index is a bijection onto [0, 4*(2*n_cut+1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

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


class Band(Enum):
    PLUS = "plus"
    MINUS = "minus"


class Spin(Enum):
    UP = "up"
    DOWN = "down"


@dataclass(frozen=True)
class ModeLabel:
    n: int
    band: Band
    spin: Spin


@dataclass(frozen=True)
class FreeMode:
    label: ModeLabel
    momentum: tuple          # 3-vector, units of m0
    energy: float            # signed, units of m0
    spinor: np.ndarray       # unit-norm 4-spinor
    spin_z: float            # <(1/2) Sigma_z>
    helicity: float          # <(1/2) Sigma.p/|p|>, 0 at p = 0


def free_hamiltonian(p: np.ndarray) -> np.ndarray:
    """alpha.p + beta for one momentum."""
    return np.tensordot(p, ALPHA, axes=(0, 0)) + BETA


def _fix_phase(spinor: np.ndarray, band: Band) -> np.ndarray:
    half = spinor[:2] if band is Band.PLUS else spinor[2:]
    pivot = half[int(np.argmax(np.abs(half)))]
    if abs(pivot) == 0.0:
        return spinor
    return spinor * (abs(pivot) / pivot)


def free_modes_at(p: np.ndarray) -> list:
    """The four orthonormal eigenmodes at momentum p, ordered (band, spin).

    For momenta along z the modes are exact Sigma_z (and helicity)
    eigenstates, so those labels are written as exact halves rather than
    through a lossy floating-point expectation value.
    """
    p = np.asarray(p, dtype=float)
    p_abs = float(np.linalg.norm(p))
    energy = math.sqrt(1.0 + p_abs * p_abs)
    sp = np.tensordot(p, SIGMA, axes=(0, 0))
    norm = math.sqrt((energy + 1.0) / (2.0 * energy))
    on_axis = p[0] == 0.0 and p[1] == 0.0
    if p_abs > 0.0 and not on_axis:
        hel_op = np.tensordot(p / p_abs, SIGMA_BIG, axes=(0, 0))
    else:
        hel_op = None

    out = []
    for band, sign in ((Band.PLUS, +1.0), (Band.MINUS, -1.0)):
        for spin, chi in ((Spin.UP, np.array([1.0, 0.0], dtype=complex)),
                          (Spin.DOWN, np.array([0.0, 1.0], dtype=complex))):
            tail = sp @ chi / (energy + 1.0)
            if band is Band.PLUS:
                spinor = norm * np.concatenate([chi, tail])
            else:
                spinor = norm * np.concatenate([-tail, chi])
            spinor = _fix_phase(spinor, band)
            if on_axis:
                spin_z = 0.5 if spin is Spin.UP else -0.5
                helicity = 0.0 if p[2] == 0.0 else spin_z * math.copysign(1.0, p[2])
            else:
                spin_z = 0.5 * float(np.real(spinor.conj() @ SIGMA_BIG[2] @ spinor))
                helicity = 0.5 * float(np.real(spinor.conj() @ hel_op @ spinor))
            out.append(FreeMode(
                label=None,  # filled by build_basis with the lattice index
                momentum=tuple(p),
                energy=sign * energy,
                spinor=spinor,
                spin_z=spin_z,
                helicity=helicity,
            ))
    return out


class ModeBasis:
    """Ordered table of free modes over the truncated momentum chain.

    Immutable after construction; identity hashing makes it usable as a
    cache key for derived coupling matrices.
    """

    def __init__(self, n_cut: int, k: float, k0: tuple):
        self.n_cut = n_cut
        self.k = k
        self.k0 = tuple(float(x) for x in k0)
        # free_modes_at returns (plus up, plus down, minus up, minus down),
        # matching the (band, spin) ordering used for labels here
        self.modes = []
        for n in range(-n_cut, n_cut + 1):
            p = np.array([0.0, 0.0, n * k]) + np.asarray(self.k0)
            raw = free_modes_at(p)
            labels = [ModeLabel(n=n, band=band, spin=spin)
                      for band in (Band.PLUS, Band.MINUS)
                      for spin in (Spin.UP, Spin.DOWN)]
            self.modes.extend(replace(mode, label=label)
                              for label, mode in zip(labels, raw))

        self.dim = len(self.modes)
        self.energies = np.array([m.energy for m in self.modes])
        self.spinors = np.column_stack([m.spinor for m in self.modes])
        self._index = {m.label: i for i, m in enumerate(self.modes)}

        self.plus_indices = np.array(
            [i for i, m in enumerate(self.modes) if m.label.band is Band.PLUS])
        self.minus_indices = np.array(
            [i for i, m in enumerate(self.modes) if m.label.band is Band.MINUS])
        self.spin_z_plus = np.array([self.modes[i].spin_z for i in self.plus_indices])
        self.spin_z_minus = np.array([self.modes[i].spin_z for i in self.minus_indices])
        self.helicity_plus = np.array([self.modes[i].helicity for i in self.plus_indices])
        self.helicity_minus = np.array([self.modes[i].helicity for i in self.minus_indices])

    def index_of(self, label: ModeLabel) -> int:
        return self._index[label]

    def electron_label(self, half_index: int) -> ModeLabel:
        return self.modes[self.plus_indices[half_index]].label

    def positron_label(self, half_index: int) -> ModeLabel:
        return self.modes[self.minus_indices[half_index]].label

    @property
    def n_electron_modes(self) -> int:
        return len(self.plus_indices)

    @property
    def n_positron_modes(self) -> int:
        return len(self.minus_indices)

    def table_rows(self):
        """(index, n, band, spin, energy, spin_z, helicity) per mode."""
        for i, m in enumerate(self.modes):
            yield (i, m.label.n, m.label.band.value, m.label.spin.value,
                   m.energy, m.spin_z, m.helicity)

    def to_csv(self) -> str:
        lines = ["index,n,band,spin,energy,spin_z,helicity"]
        for row in self.table_rows():
            lines.append(",".join(repr(x) if isinstance(x, float) else str(x)
                                  for x in row))
        return "\n".join(lines) + "\n"


def build_basis(numerics: NumericsParams, field: FieldParams) -> ModeBasis:
    """Basis over momenta n*k*e_z + k0 for n in [-n_cut, n_cut]."""
    return ModeBasis(n_cut=numerics.n_cut, k=field.wavenumber,
                     k0=numerics.k0_offset)
