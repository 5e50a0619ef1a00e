"""Pair content of the out-state: amplitudes, sector probabilities, observables.

From the propagator blocks the relative single-pair amplitude matrix is

    omega = -G_pm  G_mm^{-1}

and the vacuum amplitude is C_v = det(G_mm), phase retained.  The
amplitude of a canonical multi-pair state (both label lists strictly
ascending) is C_v times the determinant of the corresponding omega
submatrix; non-canonical orderings pick up the product of the two
permutation parities, and any repeated label gives exactly zero (Pauli).

By Cauchy-Binet the N-pair sector probability (|amplitude|^2 summed over
all canonical N-pair states) is c_N = |C_v|^2 e_N(sigma^2), e_N the
elementary symmetric polynomial and sigma the singular values of omega;
sector means of spin and helicity are its Hellmann-Feynman derivatives,
read from the same SVD: O(d^3) in all.
Electron/positron labels are half-basis indices (band plus / band minus,
momentum ascending, spin up before down).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IllConditionedError
from .dynamics import GBlocks
from .modebasis import ModeBasis
from .physconfig import NumericsParams

DEFAULT_COND_CAP = 1e12


@dataclass(frozen=True)
class PairAmplitudes:
    """Relative single-pair amplitudes over (electron, positron) half-indices."""

    omega: np.ndarray
    cond_mm: float


@dataclass(frozen=True)
class VacuumAmplitude:
    c_v: complex
    log_abs: float

    @property
    def probability(self) -> float:
        return float(abs(self.c_v) ** 2)


@dataclass(frozen=True)
class MultiPairAmplitude:
    electrons: tuple
    positrons: tuple
    amplitude: complex
    pauli_excluded: bool = False


@dataclass
class SectorReport:
    """Per-sector probabilities and averaged observables.

    ``c[N]`` is the probability of exactly N pairs (c[0] the vacuum);
    observables are dicts keyed by N and omitted where c_N vanishes.
    ``discarded_mass_bound`` is the exact tail sum_{N > n_sector_max} c_N.
    The prune threshold plays no part here; it trims ``single_pair_list``.
    """

    n_sector_max: int
    c: np.ndarray
    s_plus: dict = field(default_factory=dict)
    s_minus: dict = field(default_factory=dict)
    h_plus: dict = field(default_factory=dict)
    h_minus: dict = field(default_factory=dict)
    discarded_mass_bound: float = 0.0


def pair_amplitudes(g: GBlocks) -> PairAmplitudes:
    """omega = -G_pm G_mm^{-1}; cond(G_mm) must not exceed DEFAULT_COND_CAP."""
    cond = float(np.linalg.cond(g.g_mm))
    if not np.isfinite(cond) or cond > DEFAULT_COND_CAP:
        raise IllConditionedError(
            f"G_mm condition number {cond:.3e} exceeds cap "
            f"{DEFAULT_COND_CAP:.1e}; "
            "increase n_cut or reduce the field strength")
    omega = -np.linalg.solve(g.g_mm.T, g.g_pm.T).T
    return PairAmplitudes(omega=omega, cond_mm=cond)


def vacuum_amplitude(g: GBlocks) -> VacuumAmplitude:
    """C_v = det(G_mm), accumulated through the log-determinant."""
    sign, log_abs = np.linalg.slogdet(g.g_mm)
    return VacuumAmplitude(c_v=complex(sign * np.exp(log_abs)),
                           log_abs=float(log_abs))


def multi_pair_amplitude(pairs: PairAmplitudes, vac: VacuumAmplitude,
                         electrons, positrons) -> MultiPairAmplitude:
    """Amplitude of the multi-pair state with the given mode labels.

    Repeated labels give a bitwise-zero amplitude rather than an error;
    unsorted label lists permute the rows and columns of the omega
    submatrix, so its determinant carries the fermionic sign.
    """
    electrons = tuple(int(m) for m in electrons)
    positrons = tuple(int(n) for n in positrons)
    if len(electrons) != len(positrons) or not electrons:
        raise ValueError("need equally many electron and positron labels, N >= 1")
    if len(set(electrons)) != len(electrons) or len(set(positrons)) != len(positrons):
        return MultiPairAmplitude(electrons=electrons, positrons=positrons,
                                  amplitude=complex(0.0), pauli_excluded=True)
    sub = pairs.omega[np.ix_(electrons, positrons)]
    return MultiPairAmplitude(electrons=electrons, positrons=positrons,
                              amplitude=complex(vac.c_v * np.linalg.det(sub)))


def single_pair_list(pairs: PairAmplitudes, vac: VacuumAmplitude,
                     numerics: NumericsParams):
    """Retained single-pair amplitudes, sorted by probability, descending."""
    keep = np.abs(pairs.omega) ** 2 >= numerics.prune_threshold
    rows, cols = np.nonzero(keep)
    amps = vac.c_v * pairs.omega[rows, cols]
    order = np.argsort(-np.abs(amps) ** 2, kind="stable")
    return [MultiPairAmplitude(electrons=(int(rows[i]),),
                               positrons=(int(cols[i]),),
                               amplitude=complex(amps[i]))
            for i in order]


def _elementary(lam: np.ndarray) -> np.ndarray:
    """e_0..e_d of non-negative ``lam`` by the all-positive recurrence."""
    e = np.zeros(len(lam) + 1)
    e[0] = 1.0
    for x in lam:
        e[1:] += x * e[:-1]
    return e


def _leave_one_out(lam: np.ndarray, k: int) -> np.ndarray:
    """Row i holds e_0..e_k of ``lam`` with entry i left out."""
    d = len(lam)
    e = np.zeros((d, k + 1))
    e[:, 0] = 1.0
    for j, x in enumerate(lam):
        step = np.full(d, x)
        step[j] = 0.0
        e[:, 1:] += step[:, None] * e[:, :-1]
    return e


def sector_observables(pairs: PairAmplitudes, vac: VacuumAmplitude,
                       basis: ModeBasis, numerics: NumericsParams) -> SectorReport:
    """c_N and per-sector mean spin_z/helicity of electrons and positrons.

    Closed form over the full omega = U diag(sigma) V^dag.  A sector mean
    of S is the derivative at x = 0 of the z^N coefficient of
    det(1 + z omega^dag e^{xS} omega) (electrons; omega e^{xS} omega^dag for
    positrons) over e_N: the per-mode values of S dotted into the mean mode
    occupations sum_i |U_ki|^2 p_Ni electrons (|V_ki|^2 positrons), with
    p_Ni = lam_i e_{N-1}(lam without lam_i) / e_N(lam), lam = sigma^2.
    Sectors with c_N = 0 have their observables omitted.
    """
    k_max = numerics.n_sector_max
    cv2 = vac.probability
    u, sigma, vh = np.linalg.svd(pairs.omega, full_matrices=False)
    lam = sigma ** 2
    e = _elementary(lam)

    n_top = min(k_max, len(lam))
    c = np.zeros(k_max + 1)
    c[0] = cv2
    c[1:n_top + 1] = cv2 * e[1:n_top + 1]
    sectors = [n for n in range(1, n_top + 1) if e[n] > 0.0]
    loo = _leave_one_out(lam, max(sectors, default=1) - 1)
    p = loo[:, [n - 1 for n in sectors]] * lam[:, None] / e[sectors]
    occ_e = np.abs(u) ** 2 @ p
    occ_p = np.abs(vh.T) ** 2 @ p

    def means(mode_values, occ):
        return {n: float(x) for n, x in zip(sectors, mode_values @ occ)}

    return SectorReport(
        n_sector_max=k_max, c=c,
        s_plus=means(basis.spin_z_plus, occ_e),
        h_plus=means(basis.helicity_plus, occ_e),
        s_minus=means(basis.spin_z_minus, occ_p),
        h_minus=means(basis.helicity_minus, occ_p),
        discarded_mass_bound=float(cv2 * e[k_max + 1:].sum()))
