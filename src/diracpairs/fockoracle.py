"""Exact Fock-space cross-check for the determinant-based pair extraction.

The same single-particle Hamiltonian H(t) is second-quantized over the
electron/positron mode split,

    H_many = tr(H--) + sum H_mm' a+_m a_m' - sum H_n'n b+_n b_n'
             + sum H_mn a+_m b+_n + sum H_nm b_n a_m,

with m, m' over positive-energy and n, n' over negative-energy modes.  The
scalar tr(H--) keeps the full field-theory phase so vacuum and pair
amplitudes are comparable to the determinant path including their phases,
not just in magnitude.

States live in the charge-zero sector (equal electron and positron
counts).  Operators use a Jordan-Wigner ordering with all electron modes
before all positron modes; multi-pair kets are built by applying the
positron creators in front of the electron creators, matching the
canonical ordering of the amplitude readout.  Only small bases are
accepted: this is a test oracle, not a solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import expm_multiply

from .dynamics import assemble_hamiltonian
from .errors import FockDimensionError, NormDriftError
from .fieldmodel import potential_at
from .modebasis import ModeBasis
from .physconfig import RunConfig

MAX_SINGLE_PARTICLE_DIM = 16
NORM_TOL = 1e-8


class FockBasis:
    """Charge-zero occupation patterns over the electron/positron modes."""

    def __init__(self, m_electron: int, m_positron: int):
        self.m_electron = m_electron
        self.m_positron = m_positron
        patterns = []
        for n in range(min(m_electron, m_positron) + 1):
            e_masks = [_mask(c) for c in combinations(range(m_electron), n)]
            p_masks = [_mask(c) for c in combinations(range(m_positron), n)]
            for e in e_masks:
                for p in p_masks:
                    patterns.append((e, p))
        self.patterns = patterns
        self.dim = len(patterns)
        self._index = {pat: i for i, pat in enumerate(patterns)}

    def index(self, e_bits: int, p_bits: int) -> int:
        return self._index[(e_bits, p_bits)]

    def pair_count(self, i: int) -> int:
        return self.patterns[i][0].bit_count()


def _mask(positions) -> int:
    bits = 0
    for pos in positions:
        bits |= 1 << pos
    return bits


def _below(bits: int, pos: int) -> int:
    """Jordan-Wigner sign from the occupied modes with lower index."""
    return -1 if (bits & ((1 << pos) - 1)).bit_count() & 1 else 1


def _apply_a_dag(e: int, p: int, m: int):
    if e & (1 << m):
        return None
    return e | (1 << m), p, _below(e, m)


def _apply_a(e: int, p: int, m: int):
    if not e & (1 << m):
        return None
    return e ^ (1 << m), p, _below(e, m)


def _apply_b_dag(e: int, p: int, n: int):
    if p & (1 << n):
        return None
    sign = _below(p, n) * (-1 if e.bit_count() & 1 else 1)
    return e, p | (1 << n), sign


def _apply_b(e: int, p: int, n: int):
    if not p & (1 << n):
        return None
    sign = _below(p, n) * (-1 if e.bit_count() & 1 else 1)
    return e, p ^ (1 << n), sign


class _TermTable:
    """Precomputed sparse structure of the second-quantized Hamiltonian.

    Holds COO entries (row, col) together with the single-particle matrix
    position (alpha, beta) and a weight, so that for any H the many-body
    matrix is sum of weight * H[alpha, beta] over the entries.  ``mask``
    restricts which single-particle couplings are materialized.
    """

    def __init__(self, fock: FockBasis, basis: ModeBasis, mask: np.ndarray):
        plus = basis.plus_indices
        minus = basis.minus_indices
        m_e, m_p = fock.m_electron, fock.m_positron
        rows, cols, alphas, betas, weights = [], [], [], [], []

        def add(r, c, a, b, w):
            rows.append(r)
            cols.append(c)
            alphas.append(a)
            betas.append(b)
            weights.append(w)

        for col, (e, p) in enumerate(fock.patterns):
            # scalar tr(H--) on the diagonal
            for n in range(m_p):
                add(col, col, minus[n], minus[n], 1.0)
            # a+_i a_j
            for j in range(m_e):
                hit = _apply_a(e, p, j)
                if hit is None:
                    continue
                e1, p1, s1 = hit
                for i in range(m_e):
                    if not mask[plus[i], plus[j]]:
                        continue
                    hit2 = _apply_a_dag(e1, p1, i)
                    if hit2 is None:
                        continue
                    e2, p2, s2 = hit2
                    add(fock.index(e2, p2), col, plus[i], plus[j], s1 * s2)
            # -H[n', n] b+_n b_n'
            for n_prime in range(m_p):
                hit = _apply_b(e, p, n_prime)
                if hit is None:
                    continue
                e1, p1, s1 = hit
                for n in range(m_p):
                    if not mask[minus[n_prime], minus[n]]:
                        continue
                    hit2 = _apply_b_dag(e1, p1, n)
                    if hit2 is None:
                        continue
                    e2, p2, s2 = hit2
                    add(fock.index(e2, p2), col, minus[n_prime], minus[n],
                        -s1 * s2)
            # H[m, n] a+_m b+_n
            for n in range(m_p):
                hit = _apply_b_dag(e, p, n)
                if hit is None:
                    continue
                e1, p1, s1 = hit
                for m in range(m_e):
                    if not mask[plus[m], minus[n]]:
                        continue
                    hit2 = _apply_a_dag(e1, p1, m)
                    if hit2 is None:
                        continue
                    e2, p2, s2 = hit2
                    add(fock.index(e2, p2), col, plus[m], minus[n], s1 * s2)
            # H[n, m] b_n a_m
            for m in range(m_e):
                hit = _apply_a(e, p, m)
                if hit is None:
                    continue
                e1, p1, s1 = hit
                for n in range(m_p):
                    if not mask[minus[n], plus[m]]:
                        continue
                    hit2 = _apply_b(e1, p1, n)
                    if hit2 is None:
                        continue
                    e2, p2, s2 = hit2
                    add(fock.index(e2, p2), col, minus[n], plus[m], s1 * s2)

        self.fock = fock
        self.rows = np.array(rows, dtype=np.int64)
        self.cols = np.array(cols, dtype=np.int64)
        self.alphas = np.array(alphas, dtype=np.int64)
        self.betas = np.array(betas, dtype=np.int64)
        self.weights = np.array(weights, dtype=complex)

    def assemble(self, h: np.ndarray):
        data = self.weights * h[self.alphas, self.betas]
        return coo_matrix((data, (self.rows, self.cols)),
                          shape=(self.fock.dim, self.fock.dim)).tocsr()


@dataclass
class ManyBodyState:
    amplitudes: np.ndarray
    fock: FockBasis
    norm_drift: float = 0.0


def _check_dim(basis: ModeBasis):
    if basis.dim > MAX_SINGLE_PARTICLE_DIM:
        raise FockDimensionError(
            f"fockoracle: single-particle dimension {basis.dim} exceeds the "
            f"hard cap {MAX_SINGLE_PARTICLE_DIM}; use n_cut=1 for oracle runs")


def second_quantize(h: np.ndarray, basis: ModeBasis,
                    fock: FockBasis | None = None):
    """Many-body matrix (sparse CSR) for one single-particle H."""
    _check_dim(basis)
    if fock is None:
        fock = FockBasis(basis.n_electron_modes, basis.n_positron_modes)
    mask = np.abs(h) > 0.0
    np.fill_diagonal(mask, True)
    return _TermTable(fock, basis, mask).assemble(h)


def _structural_mask(basis: ModeBasis) -> np.ndarray:
    """Couplings allowed by the plane-wave chain: |site difference| <= 1."""
    sites = np.array([m.label.n for m in basis.modes])
    return np.abs(sites[:, None] - sites[None, :]) <= 1


def propagate_vacuum(config: RunConfig, basis: ModeBasis) -> ManyBodyState:
    """Evolve |0> over the full window with the midpoint rule.

    Steps directly through all 2*ramp + plateau cycles on the midpoint grid
    of the single-particle segments (1/steps_per_cycle cycles), so it is an
    independent reference for the composed propagator and the comparison
    is free of discretization error.
    """
    _check_dim(basis)
    fock = FockBasis(basis.n_electron_modes, basis.n_positron_modes)
    table = _TermTable(fock, basis, _structural_mask(basis))

    field = config.field
    total = config.window.total_cycles
    steps_per_cycle = config.numerics.steps_per_cycle
    n_steps = total * steps_per_cycle
    dt_cycles = 1.0 / steps_per_cycle
    dt = dt_cycles * field.cycle_duration

    psi = np.zeros(fock.dim, dtype=complex)
    psi[fock.index(0, 0)] = 1.0
    for s in range(n_steps):
        t_mid = (s + 0.5) * dt_cycles * field.cycle_duration
        h = assemble_hamiltonian(t_mid, basis,
                                 potential_at(t_mid, field, config.window))
        h_many = table.assemble(h)
        psi = expm_multiply(-1.0j * dt * h_many, psi)

    drift = abs(float(np.linalg.norm(psi)) - 1.0)
    if drift > NORM_TOL:
        raise NormDriftError(
            f"fockoracle: norm drift {drift:.3e} exceeds {NORM_TOL:.1e}")
    return ManyBodyState(amplitudes=psi, fock=fock, norm_drift=drift)


def _ket_sign(electrons, positrons):
    """Sign and pattern of b+_{n1}..b+_{nN} a+_{mN}..a+_{m1} |0>.

    Operators are applied right to left: electron creators in ascending
    label order, then positron creators descending.  Returns None for a
    repeated label (Pauli).
    """
    e, p, sign = 0, 0, 1
    for m in electrons:
        hit = _apply_a_dag(e, p, m)
        if hit is None:
            return None
        e, p, s = hit
        sign *= s
    for n in reversed(list(positrons)):
        hit = _apply_b_dag(e, p, n)
        if hit is None:
            return None
        e, p, s = hit
        sign *= s
    return e, p, sign


def read_amplitude(state: ManyBodyState, electrons, positrons) -> complex:
    """<N_{m,n}|out> against the canonically ordered multi-pair ket."""
    electrons = sorted(int(m) for m in electrons)
    positrons = sorted(int(n) for n in positrons)
    for m in electrons:
        if not 0 <= m < state.fock.m_electron:
            raise ValueError(f"unknown electron label {m}")
    for n in positrons:
        if not 0 <= n < state.fock.m_positron:
            raise ValueError(f"unknown positron label {n}")
    if (len(set(electrons)) != len(electrons)
            or len(set(positrons)) != len(positrons)):
        return complex(0.0)
    hit = _ket_sign(electrons, positrons)
    if hit is None:
        return complex(0.0)
    e, p, sign = hit
    return complex(sign * state.amplitudes[state.fock.index(e, p)])


def vacuum_overlap(state: ManyBodyState) -> complex:
    return complex(state.amplitudes[state.fock.index(0, 0)])


def sector_probabilities_exact(state: ManyBodyState) -> np.ndarray:
    """c_N from direct |amplitude|^2 sums over the whole Fock sector."""
    n_max = min(state.fock.m_electron, state.fock.m_positron)
    out = np.zeros(n_max + 1)
    for i, amp in enumerate(state.amplitudes):
        out[state.fock.pair_count(i)] += abs(amp) ** 2
    return out


def amplitude_table(state: ManyBodyState):
    """(N, electrons, positrons, amplitude) over all canonical states."""
    rows = []
    m_e, m_p = state.fock.m_electron, state.fock.m_positron
    for n in range(1, min(m_e, m_p) + 1):
        for es in combinations(range(m_e), n):
            for ps in combinations(range(m_p), n):
                rows.append((n, es, ps, read_amplitude(state, es, ps)))
    return rows
