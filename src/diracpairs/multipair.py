"""Pair content of the out-state: amplitudes, sector probabilities, observables.

The minus-in columns of the propagator are orthonormal, so by the CS
decomposition G_pm = A sin(theta) B^dag and G_mm = C cos(theta) B^dag with
A, B, C unitary.  Mode i is an independent Bernoulli variable: it holds a
pair, electron in orbital A_i and positron in C_i, with probability
p_i = sigma_i(G_pm)^2.  The N-pair sector probability c_N is the
Poisson-binomial distribution of the p_i, and sector means weigh each
orbital by its occupation in the sector.  One SVD and one QR give all of
it, the single-pair list and cond(G_mm) too; none of it needs an inverse.

Amplitudes need no inverse either.  A multi-pair amplitude is det(G_mm)
with row positrons[k] replaced by -G_pm[electrons[k]]: the fermionic sign
follows the label order, a repeated label gives exactly zero (Pauli), and
no labels give the vacuum amplitude C_v = det(G_mm), phase retained.  By
Jacobi's complementary-minor identity this is C_v det(omega[E, P]) wherever
omega = -G_pm G_mm^{-1} exists; ``pair_amplitudes`` and ``vacuum_amplitude``
keep that path, with its condition cap, as a reference.  Labels are
half-basis indices (band plus / band minus, momentum ascending, spin up
before down); ``ModeBasis.label`` names the modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IllConditionedError
from .dynamics import GBlocks
from .modebasis import ModeBasis
from .physconfig import NumericsParams

DEFAULT_COND_CAP = 1e12
TIE_RTOL = 1e-9      # degenerate single-pair probabilities differ by ~1e-11


@dataclass(frozen=True)
class PairAmplitudes:
    """Relative single-pair amplitudes over (electron, positron) half-indices."""

    omega: np.ndarray


@dataclass(frozen=True)
class VacuumAmplitude:
    c_v: complex

    @property
    def probability(self) -> float:
        return float(abs(self.c_v) ** 2)


@dataclass
class SectorReport:
    """Per-sector probabilities, averaged observables and single pairs.

    ``c[N]`` is the probability of exactly N pairs for N = 0..n_sector_max
    (c[0] the vacuum); observables are dicts keyed by N and omitted where
    c_N vanishes.  ``discarded_mass_bound`` is the exact tail
    sum_{N > n_sector_max} c_N.  ``pairs`` holds the retained (electron,
    positron, probability), most probable first; the prune threshold trims
    it and nothing else.  ``cond_gmm`` is inf where G_mm is singular.
    """

    c: np.ndarray
    pairs: list[tuple[int, int, float]]
    cond_gmm: float
    s_plus: dict = field(default_factory=dict)
    s_minus: dict = field(default_factory=dict)
    h_plus: dict = field(default_factory=dict)
    h_minus: dict = field(default_factory=dict)
    discarded_mass_bound: float = 0.0


def pair_amplitudes(g: GBlocks) -> PairAmplitudes:
    """Reference omega = -G_pm G_mm^{-1}; cond(G_mm) must not exceed
    DEFAULT_COND_CAP."""
    cond = float(np.linalg.cond(g.g_mm))
    if not np.isfinite(cond) or cond > DEFAULT_COND_CAP:
        raise IllConditionedError(
            f"G_mm condition number {cond:.3e} exceeds cap "
            f"{DEFAULT_COND_CAP:.1e}; "
            "increase n_cut or reduce the field strength")
    omega = -np.linalg.solve(g.g_mm.T, g.g_pm.T).T
    return PairAmplitudes(omega=omega)


def vacuum_amplitude(g: GBlocks) -> VacuumAmplitude:
    """Reference C_v = det(G_mm), accumulated through the log-determinant."""
    sign, logdet = np.linalg.slogdet(g.g_mm)
    return VacuumAmplitude(c_v=complex(sign * np.exp(logdet)))


def check_labels(kind: str, labels, count: int) -> list[int]:
    """``labels`` as ints; a non-integer (bool, float) or one outside
    [0, count) raises ValueError."""
    out = []
    for label in labels:
        if isinstance(label, bool) or not isinstance(label, (int, np.integer)):
            raise ValueError(f"{kind} label {label!r} is not an integer")
        if not 0 <= label < count:
            raise ValueError(f"unknown {kind} label {label}")
        out.append(int(label))
    return out


def multi_pair_amplitude(g: GBlocks, electrons, positrons) -> complex:
    """det(G_mm) with row positrons[k] replaced by -G_pm[electrons[k]]; no
    labels give C_v.  Labels that are not integers in the half basis raise
    ValueError; a repeated label gives a bitwise-zero amplitude (a repeated
    positron would otherwise just overwrite its row)."""
    electrons = check_labels("electron", electrons, g.g_pm.shape[0])
    positrons = check_labels("positron", positrons, g.g_mm.shape[0])
    if len(electrons) != len(positrons):
        raise ValueError("need equally many electron and positron labels")
    if len(set(electrons)) != len(electrons) or len(set(positrons)) != len(positrons):
        return 0j
    minor = g.g_mm.copy()
    minor[positrons] = -g.g_pm[electrons]
    return complex(np.linalg.det(minor))


def _poisson_binomial(p: np.ndarray) -> np.ndarray:
    """table[k, N, i] = P_N, N = 0..d, the distribution of the number of
    successes of the independent Bernoulli variables ``p[k]`` (p is (n, d)):
    column i with p[k, i] left out, the last column with all of them."""
    d = p.shape[1]
    steps = np.where(np.eye(d, d + 1, dtype=bool)[:, None, None],
                     0.0, p.T[:, :, None, None])
    table = np.zeros((len(p), d + 1, d + 1))
    table[:, 0] = 1.0
    head, tail, carry = table[:, :-1], table[:, 1:], np.empty((len(p), d, d + 1))
    for step, keep in zip(steps, 1.0 - steps):    # mode j in every column
        np.multiply(head, step, out=carry)
        table *= keep
        tail += carry
    return table


def _ranked_pairs(probs: np.ndarray, floor: float) -> list:
    """(electron, positron, probability) of the probs >= floor, most probable
    first; ties within TIE_RTOL by ascending (electron, positron)."""
    rows, cols = np.nonzero(probs >= floor)   # row-major: (electron, positron)
    kept = probs[rows, cols]
    order = np.argsort(-kept, kind="stable")
    ranked = kept[order]
    new_group = ranked[1:] < ranked[:-1] * (1.0 - TIE_RTOL)
    tie_group = np.empty(len(order), dtype=int)
    tie_group[order] = np.cumsum(np.r_[False, new_group])
    return [(int(rows[i]), int(cols[i]), float(kept[i]))
            for i in np.argsort(tie_group, kind="stable")]


def sector_observables(g, basis: ModeBasis, numerics: NumericsParams):
    """c_N, per-sector mean spin_z/helicity, the single pairs and cond(G_mm)
    of a GBlocks, or a list of reports of a sequence of them, from one SVD
    G_pm = A sin(theta) B^dag and one QR G_mm B = Q R of their stack.

    p = sin^2, and A holds the electron orbitals.  The positron orbitals
    C = G_mm B / cos(theta) are Q, columns by descending cos, so a mode that
    surely holds a pair (cos = 0) takes the direction left over by the
    others.  Mode i is occupied in sector N with weight p_i P^(i)_{N-1} / P_N,
    where P^(i) leaves mode i out: P_N = P^(i)_N (1 - p_i) + P^(i)_{N-1} p_i.
    Sectors with c_N = 0 have their observables omitted.

    R is diagonal to within U's unitarity defect, so G_mm = C diag(r) B^dag
    with r = diag(R), phases kept: -G_pm adj(G_mm) is, but for a unit phase,
    A diag(sin_i prod_{j != i} r_j) C^dag, and cond(G_mm) = max|r| / min|r|
    (inf where min |r| = 0).  A pair stays where
    |amp|^2 >= prune_threshold |C_v|^2 = prune_threshold prod |r_j|^2.
    All but the pair ranking is stacked, so memory grows with the length.
    """
    gs = [g] if isinstance(g, GBlocks) else g
    k_max = numerics.n_sector_max
    orb_e, sin, bh = np.linalg.svd([x.g_pm for x in gs], full_matrices=False)
    q, r = np.linalg.qr(np.array([x.g_mm for x in gs])
                        @ bh[:, ::-1].conj().swapaxes(1, 2))
    orb_p, r = q[:, :, ::-1], np.diagonal(r, axis1=1, axis2=2)[:, ::-1]
    cos = np.abs(r)
    others = np.where(np.eye(r.shape[1], dtype=bool), 1.0, r[:, None]).prod(2)
    probs = np.abs((orb_e * (sin * others)[:, None])
                   @ orb_p.conj().swapaxes(1, 2)) ** 2
    floors = numerics.prune_threshold * np.prod(cos, axis=1) ** 2
    p = np.minimum(sin ** 2, 1.0)      # U's unitarity defect can pass 1
    table = _poisson_binomial(p)
    dist = table[:, :, -1]
    c = np.pad(dist, ((0, 0), (0, k_max)))[:, :k_max + 1]
    k = min(k_max, p.shape[1])      # no more pairs than modes
    with np.errstate(divide="ignore", invalid="ignore"):    # c_N = 0: omitted
        occ = (table[:, :k, :-1].swapaxes(1, 2) * p[:, :, None]
               / c[:, None, 1:k + 1])
    occ_e = np.abs(orb_e) ** 2 @ occ
    occ_p = np.abs(orb_p) ** 2 @ occ
    plus, minus = basis.plus_indices, basis.minus_indices
    means = {"s_plus": basis.spin_z[plus] @ occ_e,
             "h_plus": basis.helicity[plus] @ occ_e,
             "s_minus": basis.spin_z[minus] @ occ_p,
             "h_minus": basis.helicity[minus] @ occ_p}
    reports = [SectorReport(
        c=c[i], pairs=_ranked_pairs(probs[i], floors[i]),
        cond_gmm=float(cos[i].max() / cos[i].min()) if cos[i].min() > 0.0
        else np.inf,
        discarded_mass_bound=float(dist[i, k_max + 1:].sum()),
        **{name: {n: float(x[i, n - 1]) for n in range(1, k + 1) if c[i, n] > 0.0}
           for name, x in means.items()}) for i in range(len(gs))]
    return reports[0] if isinstance(g, GBlocks) else reports
