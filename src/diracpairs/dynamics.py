"""Single-particle Dirac dynamics over the mode basis.

The Hamiltonian in the free-mode basis is

    H(t) = H0 + c(t) K + conj(c(t)) K^dag,

with H0 the diagonal of free energies, c(t) = env(t) e^{-i w t} the
``fieldmodel.carrier`` and K the spinor sandwich of
alpha.(X_plus e^{+ikz} + X_minus e^{-ikz}) with the
``fieldmodel.beam_amplitudes`` X_pm.  K couples lattice point n to n+1
through the +z beam and to n-1 through the -z beam; it is built once per
basis and field.

Propagation uses the exponential midpoint rule.  ``midpoint_steps`` gives
the (c, dt) sequence of a time span, the one step scheme that both this
chain integrator and the Fock oracle read; each dense step exponential is
evaluated by eigendecomposition of the Hermitian H, so every step is
unitary to roundoff.  Every propagator of the window is composed from
the turn-on, one plateau cycle and the turn-off, the consecutive spans of
the window with a one-cycle plateau: c(t + 1) = c(t) on the plateau, so a
plateau of j whole cycles is Q diag(lambda^j) Q^dag, read from the Floquet
form (one complex Schur factorization) of the one-cycle propagator.

That window, of T = 2*ramp + 1 cycles, is time-reversal symmetric:
c(T - t) = conj(c(t)).  Where the coupling is too, D conj(K) D = K with
D = diag((-1)^n) (real free spinors, i.e. k0_y = 0), the second half of
the window is the transpose mirror of the first, U -> D U^T D, exactly
for the discrete product since the midpoint grid is mirror-symmetric.  A
run then integrates ramp + 1/2 cycles, otherwise 2*ramp + 1, whatever its
plateau length.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import linalg

from .errors import UnitarityError, ValidationError
from .fieldmodel import beam_amplitudes, carrier, envelope
from .modebasis import ALPHA, ModeBasis
from .physconfig import FieldParams, RunConfig, with_plateau

DEFAULT_UNITARITY_TOL = 1e-10
# D conj(K) D = K to this fraction of max|K| selects the time-reversal fold.
FOLD_TOL = 1e-14


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
def field_coupling(basis: ModeBasis, field: FieldParams) -> np.ndarray:
    """K of H = H0 + c K + conj(c) K^dag, built once per basis and field.

    K[i, j] = spinor_i^dag alpha.X_pm spinor_j where n_i - n_j = +-1 (X_pm
    from ``beam_amplitudes``); zero elsewhere.
    """
    s = basis.spinors
    raising, lowering = (s.conj().T @ np.tensordot(x, ALPHA, axes=(0, 0)) @ s
                         for x in beam_amplitudes(field))
    step = basis.n[:, None] - basis.n[None, :]
    return (np.where(step == 1, raising, 0.0)
            + np.where(step == -1, lowering, 0.0))


def assemble_hamiltonian(c: complex, basis: ModeBasis,
                         field: FieldParams) -> np.ndarray:
    """H = H0 + c K + conj(c) K^dag over the mode basis."""
    h = c * field_coupling(basis, field)
    h += h.conj().T
    h[np.diag_indices(basis.dim)] += basis.energies
    return h


def midpoint_steps(config: RunConfig, t0_cycles: float, t1_cycles: float):
    """Yield (c, dt) at the midpoints of the steps over [t0, t1] in cycles.

    The span is cut into round(|t1 - t0| * steps_per_cycle) equal steps
    (at least one); t1 < t0 gives negative dt.
    """
    span = t1_cycles - t0_cycles
    n_steps = max(1, round(abs(span) * config.numerics.steps_per_cycle))
    dt_cycles = span / n_steps
    for s in range(n_steps):
        yield (carrier(t0_cycles + (s + 0.5) * dt_cycles, config.window),
               dt_cycles * config.field.cycle_duration)


def unitarity_defect(u: np.ndarray) -> float:
    dim = u.shape[0]
    return float(np.max(np.abs(u.conj().T @ u - np.eye(dim))))


def _step_exponential(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i H dt) for Hermitian H via eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1.0j * w * dt)) @ v.conj().T


def _integrate(basis: ModeBasis, config: RunConfig, t0_cycles: float,
               t1_cycles: float) -> tuple:
    """Time-ordered midpoint product over [t0, t1] in cycles.

    Supports t1 < t0 (reversed stepping).  Returns (matrix, n_steps).
    Over the whole window of ``config`` it is the direct reference that
    composed propagators are tested against.
    """
    u = np.eye(basis.dim, dtype=complex)
    n_steps = 0
    for n_steps, (c, dt) in enumerate(
            midpoint_steps(config, t0_cycles, t1_cycles), 1):
        h = assemble_hamiltonian(c, basis, config.field)
        u = _step_exponential(h, dt) @ u
    return u, n_steps


def propagate(config: RunConfig, basis: ModeBasis) -> Propagator:
    """Full propagator over [0, 2*ramp + plateau] cycles."""
    return cycle_compose(*propagator_segments(config, basis),
                         config.window.plateau_cycles)


def propagator_segments(config: RunConfig, basis: ModeBasis):
    """(u_on, u_cycle, u_off) for plateau composition.

    The three are the consecutive spans [0, R], [R, R + 1] and
    [R + 1, 2R + 1] of the window with a one-cycle plateau (R the ramp).
    c(t + 1) = c(t) on the plateau and the turn-off depends only on the
    time left to the window end, so u_off (u_cycle)^j u_on is the
    propagator of a j-cycle plateau for every j.

    When D conj(K) D = K (to FOLD_TOL of max|K|), H(T - t) = D conj(H(t)) D
    on that window and each midpoint step maps to its mirror as
    E -> D E^T D, so only [0, R] and the half cycle [R, R + 1/2] are
    integrated: u_off = D u_on^T D and u_cycle = D u_half^T D u_half.
    Otherwise the three spans are integrated.  Either way ``steps`` is the
    number of grid steps a segment spans.
    """
    ramp = config.window.ramp_cycles
    one = with_plateau(config, 1)
    k = field_coupling(basis, config.field)
    if not (np.isfinite(basis.energies).all() and np.isfinite(k).all()):
        raise UnitarityError(
            "the free energies H0 or the field coupling K are not finite; "
            "field.omega, field.e_peak or numerics.k0_offset is out of range")
    d = (-1.0) ** basis.n
    fold = (np.max(np.abs(d[:, None] * k.conj() * d - k))
            <= FOLD_TOL * np.max(np.abs(k)))

    def checked(part, m, t0, t1):
        steps = round((t1 - t0) * config.numerics.steps_per_cycle)
        defect = unitarity_defect(m)
        if not defect <= DEFAULT_UNITARITY_TOL:    # NaN fails too
            raise UnitarityError(
                f"{part} segment unitarity defect {defect:.3e} exceeds "
                f"{DEFAULT_UNITARITY_TOL:.1e} after {steps} steps at "
                f"steps_per_cycle={config.numerics.steps_per_cycle}; each step "
                "is unitary to roundoff, so more steps cannot restore it: H was "
                "non-finite or non-Hermitian, or roundoff accumulated")
        return Propagator(matrix=m, t_span_cycles=(float(t0), float(t1)),
                          steps=steps, unitarity_defect=defect)

    def span(part, t0, t1):
        # an out-of-range time step overflows in the step exponentials;
        # the NaN-aware unitarity gate in ``checked`` reports it
        with np.errstate(over="ignore", invalid="ignore"):
            m = _integrate(basis, one, float(t0), float(t1))[0]
        return checked(part, m, t0, t1)

    def mirror(u):
        return d[:, None] * u.T * d

    u_on = span("on", 0, ramp)
    if not fold:
        return (u_on, span("cycle", ramp, ramp + 1),
                span("off", ramp + 1, 2 * ramp + 1))
    half = span("half-cycle", ramp, ramp + 0.5).matrix
    return (u_on, checked("cycle", mirror(half) @ half, ramp, ramp + 1),
            checked("off", mirror(u_on.matrix), ramp + 1, 2 * ramp + 1))


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
