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
built once per block of K's pattern, which H never couples, and the sea
is stepped as one state per block with Gamma(H0) + c Gamma(K) + h.c.
along the chain integrator's midpoint carriers, by a Taylor series of one
order per run.  Only small bases are accepted: this is a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .dynamics import (SUBSTEP_BOUND, coupled_blocks, field_coupling,
                       midpoint_steps, taylor_order)
from .errors import (FockDimensionError, NormDriftError,
                     NumericalToleranceError, ValidationError)
from .modebasis import ModeBasis
from .multipair import check_labels
from .physconfig import MAX_STEPS, RunConfig

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


def check_limits(config: RunConfig, basis: ModeBasis):
    """Refuse an oracle run past the Fock dimension cap or MAX_STEPS steps."""
    if basis.dim > MAX_SINGLE_PARTICLE_DIM:
        raise FockDimensionError(
            f"config.numerics.n_cut: single-particle dimension {basis.dim} "
            f"exceeds the hard cap {MAX_SINGLE_PARTICLE_DIM}; use n_cut=1")
    if config.numerics.steps_per_cycle * config.window.total_cycles > MAX_STEPS:
        raise ValidationError("config.numerics.steps_per_cycle: times "
                              "window.total_cycles must be <= 2^26")


def second_quantize(h: np.ndarray, basis: ModeBasis,
                    fock: FockBasis | None = None):
    """Many-body matrix sum_ij h_ij c+_i c_j as COO triplets (rows, cols,
    values), one per stored entry.

    The map is linear in h and takes h^dag to its adjoint; only the
    nonzero couplings of h are materialized, and the diagonal only where
    it is nonzero.
    """
    if basis.dim > MAX_SINGLE_PARTICLE_DIM:
        raise FockDimensionError(f"fockoracle: dimension {basis.dim} > hard cap")
    if fock is None:
        fock = FockBasis(basis.plus_indices, basis.minus_indices)
    i, j = np.nonzero((h != 0) & ~np.eye(len(h), dtype=bool))
    occ = fock.occupations
    below = np.cumsum(occ, axis=1) - occ    # occupied modes before each mode
    # c_j needs mode j occupied; c+_i then needs mode i empty
    col, term = np.nonzero((occ[:, j] == 1) & (occ[:, i] == 0))
    i, j = i[term], j[term]
    # c_j counts the modes before j; c+_i those before i, j gone
    sign = 1 - 2 * ((below[col, j] + below[col, i] - (j < i)) & 1)
    row = fock.index[fock.masks[col] ^ (1 << j) ^ (1 << i)]
    diagonal = occ @ np.diag(h)     # c+_i c_i counts mode i's occupation
    kept = np.flatnonzero(diagonal)
    return (np.concatenate([row, kept]), np.concatenate([col, kept]),
            np.concatenate([sign * h[i, j], diagonal[kept]]))


def propagate_vacuum(config: RunConfig, basis: ModeBasis) -> ManyBodyState:
    """Evolve |0> over the full window with the midpoint rule.

    The carriers c and the step dt are ``dynamics.midpoint_steps`` through
    every cycle, with no composition or fold: the oracle is an independent
    reference.  H couples no two of ``dynamics.coupled_blocks(K)`` (a K
    entry between two is refused), so the sea evolves as one state per
    block over the block's FockBasis, all of it reached by K's hops.  A
    step sums the Taylor series of -i dt (Gamma(H0) + c Gamma(K) + h.c.)
    over the blocks' stacked states to one order m, rows padded to one
    length (a gather and a row sum per product).  With b = |dt|
    (||Gamma(H0)||_1 + max|c| (||Gamma(K)||_1 + ||Gamma(K)^dag||_1)), a
    step is s = ceil(b / SUBSTEP_BOUND) sub-steps (exact for constant H)
    and m is ``dynamics.taylor_order(b, s, n_steps)``.  An amplitude is
    its blocks' product times the sign (-1)^(inv(mask) + inv(sea)) of
    ordering the modes block by block, inv counting the occupied pairs
    i < j with j in an earlier block.
    """
    check_limits(config, basis)
    fock = FockBasis(basis.plus_indices, basis.minus_indices)
    coupling = field_coupling(basis, config.field)
    blocks = [b for same_size in coupled_blocks(coupling) for b in same_size]
    block_of = np.argmax([np.isin(np.arange(basis.dim), b) for b in blocks], 0)
    if np.any(coupling[block_of[:, None] != block_of] != 0):
        raise NumericalToleranceError("fockoracle: K couples two of its blocks")
    focks = [FockBasis(np.flatnonzero(basis.band_plus[b]),
                       np.flatnonzero(~basis.band_plus[b])) for b in blocks]
    start = np.cumsum([0] + [f.dim for f in focks])     # in the stacked states
    dim, seas = start[-1], start[:-1] + [f.index[f.sea] for f in focks]
    with np.errstate(invalid="ignore"):     # a non-finite H fails the bound
        h0, k = (tuple(map(np.concatenate, zip(*[   # block-diagonal
            (r + s, c + s, v) for b, f, s in zip(blocks, focks, start)
            for r, c, v in [second_quantize(h[np.ix_(b, b)], basis, f)]])))
            for h in (np.diag(basis.energies.astype(complex)), coupling))
    terms = (h0, k, (k[1], k[0], k[2].conj()))
    carriers, dt = midpoint_steps(config, 0.0, float(config.window.total_cycles))
    n_h0, n_k, n_kdag = (np.bincount(cols, np.abs(values), dim).max()
                         for _, cols, values in terms)
    bound = abs(dt) * (n_h0 + np.abs(carriers).max() * (n_k + n_kdag))
    if not math.isfinite(bound):
        raise NormDriftError("fockoracle: the many-body H0 or K is not finite")
    splits = max(1, math.ceil(bound / SUBSTEP_BOUND))
    order = taylor_order(bound, splits, len(carriers))

    # the entries, row-major: one slot per entry of any of the three
    terms = [(r * dim + c, v) for r, c, v in terms]
    slots = np.sort(np.concatenate([key for key, _ in terms]))
    slots = slots[np.r_[True, slots[1:] != slots[:-1]]]
    rows, cols = np.divmod(slots, dim)
    at = np.arange(len(slots)) - np.searchsorted(rows, rows)    # in its row
    gather = np.zeros((dim, at.max() + 1), dtype=int)
    gather[rows, at] = cols
    ell = np.zeros((3,) + gather.shape, dtype=complex)
    for coef, (key, values) in zip(ell, terms):
        slot = np.searchsorted(slots, key)
        coef[rows[slot], at[slot]] = values

    psi = np.zeros(dim, dtype=complex)
    psi[seas] = 1.0
    for c in carriers:
        op = (-1.0j * dt / splits) * (ell[0] + c * ell[1] + np.conj(c) * ell[2])
        for _ in range(splits):
            term = psi
            for j in range(1, order + 1):
                psi = psi + (term := np.einsum("ij,ij->i", op, term[gather]) / j)
    occ = fock.occupations
    amplitudes = np.prod([np.where(  # 0 where the block holds another charge
        (i := f.index[occ[:, b] @ (1 << np.arange(len(b)))]) < 0, 0,
        psi[s + i]) for b, f, s in zip(blocks, focks, start)], axis=0)
    inv = (occ @ np.triu(block_of[:, None] > block_of) * occ).sum(axis=1)
    amplitudes[(inv - inv[fock.index[fock.sea]]) % 2 == 1] *= -1

    drift = abs(float(np.linalg.norm(amplitudes)) - 1.0)
    if not drift <= NORM_TOL:     # NaN fails too
        raise NormDriftError(
            f"fockoracle: norm drift {drift:.3e} exceeds {NORM_TOL:.1e}")
    return ManyBodyState(amplitudes=amplitudes, fock=fock, norm_drift=drift)


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
    fock, amp, rows = state.fock, state.amplitudes, []
    m_e, m_p = len(fock.plus), len(fock.minus)
    for n in range(1, min(m_e, m_p) + 1):
        for es in combinations(range(m_e), n):
            for ps in combinations(range(m_p), n):     # distinct labels
                bits, sign = _ket_sign(fock, es, ps)
                rows.append((n, es, ps, complex(sign * amp[fock.index[bits]])))
    return rows
