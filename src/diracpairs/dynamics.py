"""Single-particle Dirac dynamics over the mode basis.

The Hamiltonian in the free-mode basis is block tridiagonal in the
momentum index: diagonal blocks hold the free energies, and the coupling
of lattice point n to n+1 is the spinor sandwich of alpha.a(t) with
a(t) = C_plus(t) + conj(C_minus(t)), the total e^{+ikz} Fourier amplitude
of the vector potential (charge sign folded into the m0/e units of A).

Propagation uses the exponential midpoint rule, with each substep
exponential evaluated by eigendecomposition of the Hermitian H(t_mid), so
every step is unitary to roundoff.  Every propagator of the window is
composed from three integrated segments, turn-on, one plateau cycle and
turn-off: since the carrier phase repeats exactly on integer-cycle
boundaries, a plateau of j whole cycles is Q diag(lambda^j) Q^dag, read
from the Floquet form (one complex Schur factorization) of the one-cycle
propagator.  A run integrates 2*ramp + 1 cycles whatever its plateau length.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
from scipy import linalg

from .errors import UnitarityError, ValidationError
from .fieldmodel import envelope, potential_at, FourierPotential
from .modebasis import ALPHA, ModeBasis
from .physconfig import RunConfig

DEFAULT_UNITARITY_TOL = 1e-10


@dataclass(frozen=True)
class Propagator:
    """Dense unitary over the mode basis, t0 -> t1 (times in cycles)."""

    matrix: np.ndarray
    t_span_cycles: tuple
    steps: int
    unitarity_defect: float

    @cached_property
    def floquet(self) -> tuple:
        """(Q, lam): matrix = Q diag(lam) Q^dag by the complex Schur form,
        diagonal for a unitary matrix; |lam| is set to 1 so that powers stay
        unitary to roundoff whatever the exponent."""
        t, q = linalg.schur(self.matrix, output="complex")
        lam = np.diag(t)
        return q, lam / np.abs(lam)


@dataclass(frozen=True)
class GBlocks:
    """Propagator submatrices between in/out band sectors.

    Rows are out modes, columns in modes, both in half-basis order
    (momentum ascending, spin up before down).
    """

    g_pm: np.ndarray   # band plus  <- band minus
    g_mm: np.ndarray   # band minus <- band minus
    column_defect: float = 0.0


@lru_cache(maxsize=8)
def _raising_blocks(basis: ModeBasis):
    """R[c][i, j] = spinor_i^dag alpha_c spinor_j for lattice(i) = lattice(j)+1."""
    dim = basis.dim
    blocks = np.zeros((3, dim, dim), dtype=complex)
    n_sites = 2 * basis.n_cut + 1
    for site in range(n_sites - 1):
        rows = slice(4 * (site + 1), 4 * (site + 2))
        cols = slice(4 * site, 4 * (site + 1))
        upper = basis.spinors[:, rows]
        lower = basis.spinors[:, cols]
        for c in range(3):
            blocks[c, rows, cols] = upper.conj().T @ ALPHA[c] @ lower
    return blocks


def assemble_hamiltonian(t: float, basis: ModeBasis,
                         pot: FourierPotential) -> np.ndarray:
    """H(t) over the mode basis for the given instantaneous potential."""
    h = np.diag(basis.energies.astype(complex))
    a = pot.c_plus_k + pot.c_minus_k.conj()
    if np.any(a != 0.0):
        blocks = _raising_blocks(basis)
        raise_part = np.tensordot(a, blocks, axes=(0, 0))
        h += raise_part + raise_part.conj().T
    return h


def unitarity_defect(u: np.ndarray) -> float:
    dim = u.shape[0]
    return float(np.max(np.abs(u.conj().T @ u - np.eye(dim))))


def _step_exponential(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i H dt) for Hermitian H via eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1.0j * w * dt)) @ v.conj().T


def _integrate(basis: ModeBasis, config: RunConfig, t0_cycles: float,
               t1_cycles: float, window=None) -> tuple:
    """Time-ordered midpoint product over [t0, t1] in cycles.

    Supports t1 < t0 (reversed stepping).  Returns (matrix, n_steps).
    Over the whole window of ``config`` (the default) it is the direct
    reference that composed propagators are tested against.
    """
    field = config.field
    window = config.window if window is None else window
    steps_per_cycle = config.numerics.steps_per_cycle
    span = t1_cycles - t0_cycles
    n_steps = max(1, round(abs(span) * steps_per_cycle))
    dt_cycles = span / n_steps
    dt = dt_cycles * field.cycle_duration
    u = np.eye(basis.dim, dtype=complex)
    for s in range(n_steps):
        t_mid = (t0_cycles + (s + 0.5) * dt_cycles) * field.cycle_duration
        h = assemble_hamiltonian(t_mid, basis, potential_at(t_mid, field, window))
        u = _step_exponential(h, dt) @ u
    return u, n_steps


def propagate(config: RunConfig, basis: ModeBasis) -> Propagator:
    """Full propagator over [0, 2*ramp + plateau] cycles."""
    return cycle_compose(*propagator_segments(config, basis),
                         config.window.plateau_cycles)


def propagator_segments(config: RunConfig, basis: ModeBasis):
    """(u_on, u_cycle, u_off) for plateau composition.

    The turn-off segment is integrated from a zero-plateau window so its
    carrier phase matches any integer-cycle plateau end.  u_cycle covers
    exactly one period starting at the plateau phase.
    """
    ramp = config.window.ramp_cycles
    window_one = replace(config.window, plateau_cycles=1)
    window_zero = replace(config.window, plateau_cycles=0)

    m_on, s_on = _integrate(basis, config, 0.0, float(ramp), window=window_one)
    m_cyc, s_cyc = _integrate(basis, config, float(ramp), float(ramp + 1), window=window_one)
    m_off, s_off = _integrate(basis, config, float(ramp), float(2 * ramp), window=window_zero)

    def wrap(m, steps, span, part):
        defect = unitarity_defect(m)
        if defect > DEFAULT_UNITARITY_TOL:
            raise UnitarityError(
                f"{part} segment unitarity defect {defect:.3e} exceeds "
                f"{DEFAULT_UNITARITY_TOL:.1e} after {steps} steps at "
                f"steps_per_cycle={config.numerics.steps_per_cycle}; each step "
                "is unitary to roundoff, so more steps cannot restore it: H was "
                "non-finite or non-Hermitian, or roundoff accumulated")
        return Propagator(matrix=m, t_span_cycles=span, steps=steps,
                          unitarity_defect=defect)

    return (wrap(m_on, s_on, (0.0, float(ramp)), "on"),
            wrap(m_cyc, s_cyc, (float(ramp), float(ramp + 1)), "cycle"),
            wrap(m_off, s_off, (float(ramp), float(2 * ramp)), "off"))


def cycle_compose(u_on: Propagator, u_cycle: Propagator, u_off: Propagator,
                  j: int) -> Propagator:
    """u_off (u_cycle)^j u_on from the Floquet form of u_cycle.

    With u_cycle = Q diag(lam) Q^dag, factorized once per segment set, any
    plateau costs two products, (u_off Q diag(lam^j)) (Q^dag u_on); since
    |lam| = 1 the roundoff defect of u_cycle is not raised to the j-th power.
    """
    if j < 0:
        raise ValidationError("cycle_compose: plateau cycle count j must be >= 0")
    q, lam = u_cycle.floquet
    matrix = (u_off.matrix @ q * lam ** j) @ (q.conj().T @ u_on.matrix)
    ramp = u_on.t_span_cycles[1]
    total = 2 * ramp + j
    steps = u_on.steps + j * u_cycle.steps + u_off.steps
    return Propagator(matrix=matrix, t_span_cycles=(0.0, total), steps=steps,
                      unitarity_defect=unitarity_defect(matrix))


def extract_g_blocks(u: Propagator, basis: ModeBasis, config: RunConfig = None) -> GBlocks:
    """Band-sector submatrices of the propagator.

    Requires the field to be off at both endpoints so the in/out eigenbases
    coincide with the free basis; extraction is then pure submatrix
    selection.
    """
    if config is not None:
        for t_c in u.t_span_cycles:
            if envelope(t_c, config.window) != 0.0:
                raise ValidationError(
                    "extract_g_blocks: envelope must vanish at both endpoints")
    m = u.matrix
    plus, minus = basis.plus_indices, basis.minus_indices
    g_pm = m[np.ix_(plus, minus)]
    g_mm = m[np.ix_(minus, minus)]
    col_sums = np.sum(np.abs(g_pm) ** 2, axis=0) + np.sum(np.abs(g_mm) ** 2, axis=0)
    return GBlocks(g_pm=g_pm, g_mm=g_mm,
                   column_defect=float(np.max(np.abs(col_sums - 1.0))))


# ---------------------------------------------------------------------------
# Binary dumps: uint64 rows, uint64 cols, then row-major complex128 payload.
# ---------------------------------------------------------------------------

def dump_complex_matrix(path, m: np.ndarray) -> None:
    m = np.ascontiguousarray(m, dtype=complex)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<QQ", m.shape[0], m.shape[1]))
        fh.write(m.tobytes())


def load_complex_matrix(path) -> np.ndarray:
    with open(path, "rb") as fh:
        rows, cols = struct.unpack("<QQ", fh.read(16))
        data = np.frombuffer(fh.read(), dtype=complex)
    return data.reshape(rows, cols).copy()
