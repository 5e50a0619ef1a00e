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
chain integrator and the Fock oracle read, with ``taylor_order`` the one
Taylor rule of both: a dense step is a Taylor polynomial with squaring on
the ``coupled_blocks`` of H, unitary to TAYLOR_TOL over a span.  Every
propagator of the window is composed from the turn-on, one plateau cycle
and the turn-off, the consecutive spans of the window with a one-cycle
plateau: c(t + 1) = c(t) on the plateau, so a plateau of j whole cycles is
Q diag(lambda^j) Q^dag, read from the Floquet form (one complex Schur
factorization) of the one-cycle propagator.

That window, of T = 2*ramp + 1 cycles, is time-reversal symmetric:
c(T - t) = conj(c(t)).  Where the coupling is too, D conj(K) D = K with
D = diag((-1)^n) (real free spinors, i.e. k0_y = 0), the second half of
the window is the transpose mirror of the first, U -> D U^T D, exactly
for the discrete product since the midpoint grid is mirror-symmetric.  A
run then integrates ramp + 1/2 cycles, otherwise 2*ramp + 1, whatever its
plateau length.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy import linalg

from .errors import UnitarityError, ValidationError
from .fieldmodel import beam_amplitudes, carrier
from .modebasis import ALPHA, ModeBasis
from .physconfig import FieldParams, RunConfig, with_plateau

DEFAULT_UNITARITY_TOL = 1e-10
TAYLOR_TOL = 1e-14      # summed truncation bound over all steps of a span
SUBSTEP_BOUND = 4.0     # theta: largest ||-i dt H||_1 of one Taylor piece
# D conj(K) D = K to this fraction of max|K| selects the time-reversal fold.
FOLD_TOL = 1e-14


@dataclass(frozen=True)
class Propagator:
    """Dense unitary over the mode basis, t0 -> t1 (times in cycles), and
    ``steps``, the number of step exponentials evaluated to build it."""

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


@lru_cache(maxsize=8)
def coupled_blocks(basis: ModeBasis, field: FieldParams) -> tuple:
    """Components of K's nonzero pattern, which H = H0 + c K + h.c. never
    couples: their modes as one (n, size) array per size, smallest first."""
    k = field_coupling(basis, field)
    reach = (k != 0) | (k.T != 0) | np.eye(basis.dim, dtype=bool)
    for _ in range(basis.dim.bit_length()):     # paths up to 2^that long
        reach = reach @ reach
    blocks = np.unique(reach, axis=0)       # one row per component
    return tuple(np.nonzero(blocks[blocks.sum(1) == s])[1].reshape(-1, s)
                 for s in np.unique(blocks.sum(1)))


def taylor_order(bound: float, parts: int, n_steps: int) -> int:
    """Least order m with n_steps parts (b/parts)^(m+1)/(m+1)! < TAYLOR_TOL:
    n_steps exponentials of norm <= b, each taken as ``parts`` pieces."""
    order, tail = 0, bound / parts      # (b/parts)^(m+1)/(m+1)! at m = order
    while n_steps * parts * tail >= TAYLOR_TOL:
        order, tail = order + 1, tail * bound / parts / (order + 2)
    return order


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


def _integrate(basis: ModeBasis, config: RunConfig, t0_cycles: float,
               t1_cycles: float) -> tuple:
    """Time-ordered midpoint product over [t0, t1] in cycles.

    Supports t1 < t0 (reversed stepping).  Returns (matrix, n_steps).
    Over the whole window of ``config`` it is the direct reference that
    composed propagators are tested against.

    A step exp(A), A = -i dt H, is the Taylor polynomial of A / 2^s squared
    s times on each group of ``coupled_blocks``; b = |dt| (max|H0| + ||K||_1
    + ||K^dag||_1) >= ||A||_1 (|c| <= 1) sets the least s with b / 2^s <=
    SUBSTEP_BOUND and the order ``taylor_order(b, 2^s, n_steps)``.
    """
    span = t1_cycles - t0_cycles        # the grid of ``midpoint_steps``
    n_steps = max(1, round(abs(span) * config.numerics.steps_per_cycle))
    dt = span / n_steps * config.field.cycle_duration
    k = np.abs(field_coupling(basis, config.field))
    bound = abs(dt) * (max(abs(basis.energies)) + k.sum(0).max() + k.sum(1).max())
    if not np.isfinite(bound):      # the unitarity gate reports the NaN
        return np.full((basis.dim, basis.dim), np.nan, dtype=complex), 0
    squarings = int(np.ceil(np.log2(max(bound / SUBSTEP_BOUND, 1.0))))
    order = taylor_order(bound, 2 ** squarings, n_steps)
    scale = -1.0j * dt / 2 ** squarings
    blocks = coupled_blocks(basis, config.field)
    u = np.eye(basis.dim, dtype=complex)
    for c, _ in midpoint_steps(config, t0_cycles, t1_cycles):
        h = assemble_hamiltonian(c, basis, config.field)
        for b in blocks:
            a = term = scale * h[b[:, :, None], b[:, None, :]]
            e = a + np.eye(b.shape[1])
            for j in range(2, order + 1):   # * (1 / j): dividing is slower
                e += (term := term @ a * (1.0 / j))
            u[b] = np.linalg.matrix_power(e, 2 ** squarings) @ u[b]
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
    Otherwise the three spans are integrated.  Either way ``steps`` counts
    the step exponentials evaluated; a mirror adds none.
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

    def segment(part, t0, t1, m=None, steps=0):
        if m is None:
            # an out-of-range step overflows; the unitarity gate reports it
            with np.errstate(over="ignore", invalid="ignore"):
                m, steps = _integrate(basis, one, float(t0), float(t1))
        defect = unitarity_defect(m)
        if not defect <= DEFAULT_UNITARITY_TOL:    # NaN fails too
            raise UnitarityError(
                f"{part} segment unitarity defect {defect:.3e} exceeds "
                f"{DEFAULT_UNITARITY_TOL:.1e} after {steps} steps at "
                f"steps_per_cycle={config.numerics.steps_per_cycle}; a span is "
                f"unitary to {TAYLOR_TOL:.0e} plus roundoff growing with |dt| ||H||, "
                "so unless that is large more steps cannot restore it: H was "
                "non-finite or non-Hermitian, or roundoff accumulated")
        return Propagator(matrix=m, t_span_cycles=(float(t0), float(t1)),
                          steps=steps, unitarity_defect=defect)

    def mirror(u):
        return d[:, None] * u.matrix.T * d

    u_on = segment("on", 0, ramp)
    if not fold:
        return (u_on, segment("cycle", ramp, ramp + 1),
                segment("off", ramp + 1, 2 * ramp + 1))
    half = segment("half-cycle", ramp, ramp + 0.5)
    return (u_on, segment("cycle", ramp, ramp + 1, mirror(half) @ half.matrix,
                          half.steps),
            segment("off", ramp + 1, 2 * ramp + 1, mirror(u_on)))


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
    total = 2 * u_on.t_span_cycles[1] + j
    return Propagator(matrix=matrix, t_span_cycles=(0.0, total),
                      steps=u_on.steps + u_cycle.steps + u_off.steps,
                      unitarity_defect=unitarity_defect(matrix))


def extract_g_blocks(u: Propagator, basis: ModeBasis, config: RunConfig) -> GBlocks:
    """Band-sector submatrices of the propagator.

    Requires ``u`` to span the window of ``config``, whose envelope is off
    at both endpoints, so the in/out eigenbases coincide with the free
    basis; extraction is then pure submatrix selection.
    """
    if u.t_span_cycles != (0.0, float(config.window.total_cycles)):
        raise ValidationError("extract_g_blocks: u must span the window, "
                              "whose envelope vanishes at both endpoints")
    plus, minus = basis.plus_indices, basis.minus_indices
    return GBlocks(g_pm=u.matrix[np.ix_(plus, minus)],
                   g_mm=u.matrix[np.ix_(minus, minus)])
