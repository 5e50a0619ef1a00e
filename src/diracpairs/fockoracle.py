"""Exact Fock-space cross-check for the determinant-based pair extraction.

The oracle holds the whole fermionic field state over the d modes of the
mode table: a many-body basis state is an occupation of the modes with
d/2 particles, one d-bit mask whose bit i is mode i, and the vacuum |0>
is the filled Dirac sea, every minus mode occupied.  A single-particle
matrix h is second-quantized as Gamma(h) = sum_ij h_ij c+_i c_j, with the
one Jordan-Wigner sign rule of the basis order: c_i and c+_i count -1 for
each occupied mode before i.  The sea's energy tr(H--) is the full
field-theory vacuum phase, so amplitudes are comparable to the
determinant path including their phases.  An electron is a particle above
the sea and a positron a hole in it, a+_m = c+_{plus[m]} and
b+_n = c_{minus[n]}; the pair ket b+_{n1}..b+_{nN} a+_{mN}..a+_{m1} |0>
applies these with the labels in the order given, so an unsorted label
list carries the permutation sign that the determinant path gives it.

Gamma is linear in h and takes h^dag to Gamma(h)^dag.  With
H(t) = H0 + c(t) K + h.c. (see ``dynamics``), Gamma(H0) and Gamma(K) are
built once, and the vacuum is stepped with Gamma(H0) + c Gamma(K) +
conj(c) Gamma(K)^dag along the chain integrator's (c, dt) midpoint steps
over the full window, by a Taylor series of one order per run.  Only small
bases are accepted: this is a test oracle, not a solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.sparse import coo_matrix

from .dynamics import SUBSTEP_BOUND, field_coupling, midpoint_steps, taylor_order
from .errors import FockDimensionError, NormDriftError
from .modebasis import ModeBasis
from .multipair import check_labels
from .physconfig import RunConfig

MAX_SINGLE_PARTICLE_DIM = 16
NORM_TOL = 1e-8


def _mask(modes) -> int:
    return sum(1 << int(i) for i in modes)


class FockBasis:
    """Occupations of the modes with as many particles as minus modes.

    State k is the bit mask ``masks[k]`` (occupations ``occupations[k]``,
    pairs ``pair_counts[k]``); ``index[mask]`` is its position, -1 for a
    mask outside the charge-zero sector; ``sea`` is the vacuum's mask.
    """

    def __init__(self, plus_indices, minus_indices):
        self.plus = [int(i) for i in plus_indices]
        self.minus = [int(i) for i in minus_indices]
        d = len(self.plus) + len(self.minus)
        self.masks = np.array([_mask(c) for c in
                               combinations(range(d), len(self.minus))])
        self.dim = len(self.masks)
        self.index = np.full(1 << d, -1)
        self.index[self.masks] = np.arange(self.dim)
        self.sea = _mask(self.minus)
        self.occupations = self.masks[:, None] >> np.arange(d) & 1
        # each electron above the sea leaves one hole in it
        self.pair_counts = self.occupations[:, self.plus].sum(axis=1)


@dataclass
class ManyBodyState:
    amplitudes: np.ndarray
    fock: FockBasis
    norm_drift: float = 0.0


def check_dimension(basis: ModeBasis):
    """Refuse a basis too large for the exact Fock space (exit 2)."""
    if basis.dim > MAX_SINGLE_PARTICLE_DIM:
        raise FockDimensionError(
            f"fockoracle: single-particle dimension {basis.dim} exceeds the "
            f"hard cap {MAX_SINGLE_PARTICLE_DIM}; use n_cut=1 for oracle runs")


def second_quantize(h: np.ndarray, basis: ModeBasis,
                    fock: FockBasis | None = None):
    """Many-body matrix (sparse CSR) sum_ij h_ij c+_i c_j.

    The map is linear in h and takes h^dag to its adjoint; only the
    nonzero couplings of h are materialized.
    """
    check_dimension(basis)
    if fock is None:
        fock = FockBasis(basis.plus_indices, basis.minus_indices)
    i, j = np.nonzero(h)
    occ = fock.occupations
    below = np.cumsum(occ, axis=1) - occ    # occupied modes before each mode
    # c_j needs mode j occupied; c+_i then needs mode i empty, unless i == j
    col, term = np.nonzero((occ[:, j] == 1) & (occ[:, i] == (i == j)))
    i, j = i[term], j[term]
    # c_j counts the modes before j; c+_i those before i, j gone
    sign = 1 - 2 * ((below[col, j] + below[col, i] - (j < i)) & 1)
    row = fock.index[fock.masks[col] ^ (1 << j) ^ (1 << i)]
    return coo_matrix((sign * h[i, j], (row, col)),
                      shape=(fock.dim, fock.dim)).tocsr()


def propagate_vacuum(config: RunConfig, basis: ModeBasis) -> ManyBodyState:
    """Evolve |0> over the full window with the midpoint rule.

    The (c, dt) steps are ``dynamics.midpoint_steps`` through every cycle,
    with no composition or fold: the oracle is an independent reference.  A
    step sets one matrix's data to -i dt (Gamma(H0) + c Gamma(K) + h.c.) and
    sums its Taylor series to one order m for the run.  With the bound b =
    max|dt| (||Gamma(H0)||_1 + max|c| (||Gamma(K)||_1 + ||Gamma(K)^dag||_1)),
    a step is s = ceil(b / SUBSTEP_BOUND) equal sub-steps (exact for constant
    H) and m is ``dynamics.taylor_order(b, s, len(steps))``.
    """
    check_dimension(basis)
    fock = FockBasis(basis.plus_indices, basis.minus_indices)
    with np.errstate(invalid="ignore"):     # a non-finite H fails the bound
        h0 = second_quantize(np.diag(basis.energies.astype(complex)), basis, fock)
        k = second_quantize(field_coupling(basis, config.field), basis, fock)
    terms = (h0, k, k.conj().T.tocsr())
    steps = list(midpoint_steps(config, 0.0, float(config.window.total_cycles)))
    n_h0, n_k, n_kdag = (abs(m).sum(axis=0).max() for m in terms)
    bound = (max(abs(dt) for _, dt in steps)
             * (n_h0 + max(abs(c) for c, _ in steps) * (n_k + n_kdag)))
    if not math.isfinite(bound):
        raise NormDriftError("fockoracle: the many-body H0 or K is not finite")
    splits = max(1, math.ceil(bound / SUBSTEP_BOUND))
    order = taylor_order(bound, splits, len(steps))
    # summed magnitudes keep every stored entry: no cancellation drops one
    op = sum(abs(m) for m in terms).astype(complex)
    pattern = op.tocoo()
    h0, k, k_dag = (np.asarray(m[pattern.row, pattern.col]).ravel()
                    for m in terms)

    psi = np.zeros(fock.dim, dtype=complex)
    psi[fock.index[fock.sea]] = 1.0
    for c, dt in steps:
        op.data[:] = (-1.0j * dt / splits) * (h0 + c * k + np.conj(c) * k_dag)
        for _ in range(splits):
            term = psi
            for j in range(1, order + 1):
                psi = psi + (term := op @ term / j)

    drift = abs(float(np.linalg.norm(psi)) - 1.0)
    if not drift <= NORM_TOL:     # NaN fails too
        raise NormDriftError(
            f"fockoracle: norm drift {drift:.3e} exceeds {NORM_TOL:.1e}")
    return ManyBodyState(amplitudes=psi, fock=fock, norm_drift=drift)


def _ket_sign(fock: FockBasis, electrons, positrons):
    """(mask, sign) of b+_{n1}..b+_{nN} a+_{mN}..a+_{m1} |0>, None if zero.

    Operators are applied right to left: the electron creators c+_plus[m]
    in the order given, then the positron creators c_minus[n] from last to
    first.  A repeated label finds its mode already filled or emptied.
    """
    bits, sign = fock.sea, 1
    steps = ([(fock.plus[m], 0) for m in electrons]
             + [(fock.minus[n], 1) for n in reversed(positrons)])
    for mode, needs in steps:      # the occupation the operator acts on
        if bits >> mode & 1 != needs:
            return None
        if (bits & ((1 << mode) - 1)).bit_count() & 1:
            sign = -sign
        bits ^= 1 << mode
    return bits, sign


def read_amplitude(state: ManyBodyState, electrons, positrons) -> complex:
    """<N_{m,n}|out> against the pair ket with the labels in the order given.

    Labels that are not integers in the half basis raise ValueError; a
    repeated label, or unequal electron and positron counts, give 0j.
    """
    fock = state.fock
    ket = _ket_sign(fock, check_labels("electron", electrons, len(fock.plus)),
                    check_labels("positron", positrons, len(fock.minus)))
    if ket is None or fock.index[ket[0]] < 0:
        return 0j
    return complex(ket[1] * state.amplitudes[fock.index[ket[0]]])


def vacuum_overlap(state: ManyBodyState) -> complex:
    return complex(state.amplitudes[state.fock.index[state.fock.sea]])


def sector_probabilities_exact(state: ManyBodyState) -> np.ndarray:
    """c_N from direct |amplitude|^2 sums over the whole Fock sector."""
    fock = state.fock
    return np.bincount(fock.pair_counts, weights=np.abs(state.amplitudes) ** 2,
                       minlength=min(len(fock.plus), len(fock.minus)) + 1)


def amplitude_table(state: ManyBodyState):
    """(N, electrons, positrons, amplitude) over all canonical states."""
    rows = []
    m_e, m_p = len(state.fock.plus), len(state.fock.minus)
    for n in range(1, min(m_e, m_p) + 1):
        for es in combinations(range(m_e), n):
            for ps in combinations(range(m_p), n):
                rows.append((n, es, ps, read_amplitude(state, es, ps)))
    return rows
