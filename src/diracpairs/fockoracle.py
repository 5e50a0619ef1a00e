"""Exact Fock-space cross-check for the determinant-based pair extraction.

The same single-particle Hamiltonian H(t) is second-quantized over the
electron/positron mode split,

    H_many = tr(H--) + sum H_mm' a+_m a_m' - sum H_n'n b+_n b_n'
             + sum H_mn a+_m b+_n + sum H_nm b_n a_m,

with m, m' over positive-energy and n, n' over negative-energy modes.  The
scalar tr(H--) keeps the full field-theory phase so vacuum and pair
amplitudes are comparable to the determinant path including their phases,
not just in magnitude.

This map Gamma is linear in H and takes H^dag to Gamma(H)^dag.  With
H(t) = H0 + c(t) K + h.c. (see ``dynamics``), Gamma(H0) and Gamma(K) are
built once, and the vacuum is stepped with Gamma(H0) + c Gamma(K) +
conj(c) Gamma(K)^dag along the same (c, dt) midpoint sequence as the
chain integrator, directly over the full window.

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

from .dynamics import field_coupling, midpoint_steps
from .errors import FockDimensionError, NormDriftError
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
    """Many-body matrix (sparse CSR) for one single-particle matrix h.

    The map is linear in h and takes h^dag to its adjoint; only the
    nonzero couplings of h are materialized.
    """
    _check_dim(basis)
    if fock is None:
        fock = FockBasis(basis.n_electron_modes, basis.n_positron_modes)
    plus, minus = basis.plus_indices, basis.minus_indices
    # (second operator, first operator, coefficient[second label, first label])
    terms = ((_apply_a_dag, _apply_a, h[np.ix_(plus, plus)]),
             (_apply_b_dag, _apply_b, -h[np.ix_(minus, minus)].T),
             (_apply_a_dag, _apply_b_dag, h[np.ix_(plus, minus)]),
             (_apply_b, _apply_a, h[np.ix_(minus, plus)]))
    # scalar tr(h--) on the diagonal
    rows, cols = list(range(fock.dim)), list(range(fock.dim))
    data = [np.trace(h[np.ix_(minus, minus)])] * fock.dim
    for col, (e, p) in enumerate(fock.patterns):
        for second, first, coeff in terms:
            for y in range(coeff.shape[1]):
                hit = first(e, p, y)
                if hit is None:
                    continue
                e1, p1, s1 = hit
                for x in np.flatnonzero(coeff[:, y]).tolist():
                    hit2 = second(e1, p1, x)
                    if hit2 is None:
                        continue
                    e2, p2, s2 = hit2
                    rows.append(fock.index(e2, p2))
                    cols.append(col)
                    data.append(s1 * s2 * coeff[x, y])
    return coo_matrix((data, (rows, cols)), shape=(fock.dim, fock.dim)).tocsr()


def propagate_vacuum(config: RunConfig, basis: ModeBasis) -> ManyBodyState:
    """Evolve |0> over the full window with the midpoint rule.

    Second quantization is linear, so the many-body Hamiltonian of each
    step is Gamma(H0) + c Gamma(K) + conj(c) Gamma(K)^dag, with Gamma(H0)
    and Gamma(K) built once on one sparsity pattern, so that a step only
    rewrites the data of one matrix.  The (c, dt) steps are those of
    ``dynamics.midpoint_steps``, taken directly through all 2*ramp +
    plateau cycles with no composition and no time-reversal fold, so the
    oracle is an independent reference for the composed propagator and the
    comparison is free of discretization error.
    """
    _check_dim(basis)
    fock = FockBasis(basis.n_electron_modes, basis.n_positron_modes)
    h0 = second_quantize(np.diag(basis.energies.astype(complex)), basis, fock)
    k = second_quantize(field_coupling(basis, config.field), basis, fock)
    terms = (h0, k, k.conj().T.tocsr())
    # summed magnitudes keep every stored entry: no cancellation drops one
    op = sum(abs(m) for m in terms).astype(complex)
    pattern = op.tocoo()
    h0, k, k_dag = (np.asarray(m[pattern.row, pattern.col]).ravel()
                    for m in terms)

    psi = np.zeros(fock.dim, dtype=complex)
    psi[fock.index(0, 0)] = 1.0
    for c, dt in midpoint_steps(config, 0.0, float(config.window.total_cycles)):
        op.data[:] = -1.0j * dt * (h0 + c * k + np.conj(c) * k_dag)
        psi = expm_multiply(op, psi)

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
