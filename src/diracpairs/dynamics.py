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
the carriers c of a time span's steps, from one ``carrier`` call, and their
dt: the one step scheme that both this chain integrator and the Fock oracle
read, with ``taylor_order`` the one Taylor rule of both.  A dense step is a
Taylor polynomial with squaring on the ``coupled_blocks`` of H, unitary to
TAYLOR_TOL over a span.  H0 is diagonal, so on a block group that
polynomial is 1 + sum x^p y^q M_pq in x = Re c and y = Im c, with the M_pq
built once per span.  The monomials are real, so the step exponentials of a
chunk of carriers are one real product of their monomials with the M_pq;
the chunk's steps are then multiplied pairwise down to one product, and U,
kept as its blocks, takes one product per chunk.  The 1 is added to each
step apart from the monomial product: folded into M_00 its rounding repeats
identically at every step, and the defect of the fig2 turn-on grows
coherently from 4e-14 to 5e-13.

Every propagator of the window is composed from the turn-on, one plateau
cycle and the turn-off, the consecutive spans of the window with a
one-cycle plateau: c(t + 1) = c(t) on the plateau, so a plateau of j whole
cycles is Q diag(lambda^j) Q^dag, read from the Floquet form (one complex
Schur factorization) of the one-cycle propagator, with lambda^j =
exp(i j arg lambda) unit-modulus to roundoff for any j.

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

from .errors import UnitarityError, ValidationError
from .fieldmodel import beam_amplitudes, carrier
from .modebasis import ALPHA, ModeBasis
from .physconfig import FieldParams, RunConfig, with_plateau

DEFAULT_UNITARITY_TOL = 1e-10
TAYLOR_TOL = 1e-14      # summed truncation bound over all steps of a span
SUBSTEP_BOUND = 4.0     # theta: largest ||-i dt H||_1 of one Taylor piece
# D conj(K) D = K to this fraction of max|K| selects the time-reversal fold.
FOLD_TOL = 1e-14
_CHUNK = 64             # steps whose exponentials are formed together


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
        """(Q, lam): matrix = Q diag(lam) Q^dag, a complex Schur form with Q
        from the QR of the eigenvectors, which span nested invariant subspaces
        whatever the degeneracy, so lam are the eigenvalues in their order,
        with |lam| set to 1."""
        lam, vectors = np.linalg.eig(self.matrix)
        return np.linalg.qr(vectors)[0], lam / np.abs(lam)


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
    couples: their modes as one (n, size) array per size, smallest first,
    each size's components by descending first mode."""
    k = field_coupling(basis, field)
    reach = (k != 0) | (k.T != 0) | np.eye(basis.dim, dtype=bool)
    for _ in range(basis.dim.bit_length()):     # paths up to 2^that long
        reach = reach @ reach
    # a component's row in reach is that of its first mode
    blocks = reach[np.flatnonzero(reach.argmax(1) == np.arange(basis.dim))[::-1]]
    sizes = blocks.sum(1)
    return tuple(np.nonzero(blocks[sizes == s])[1].reshape(-1, s)
                 for s in sorted(set(sizes.tolist())))


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


def midpoint_steps(config: RunConfig, t0_cycles: float,
                   t1_cycles: float) -> tuple:
    """(c, dt) of [t0, t1] in cycles cut into round(|t1 - t0| *
    steps_per_cycle) equal steps, at least one: c the carriers at their
    midpoints, one array from one ``carrier`` call, and dt the step length
    in natural units, negative for t1 < t0."""
    span = t1_cycles - t0_cycles
    n_steps = max(1, round(abs(span) * config.numerics.steps_per_cycle))
    dt_cycles = span / n_steps
    times = t0_cycles + (np.arange(n_steps) + 0.5) * dt_cycles
    return (carrier(times, config.window),
            dt_cycles * config.field.cycle_duration)


def unitarity_defect(u: np.ndarray):
    """max |u^dag u - 1| of a matrix, or one per matrix of a stack."""
    gram = u.conj().swapaxes(-1, -2) @ u
    return np.abs(gram - np.eye(u.shape[-1])).max(axis=(-2, -1))


def _taylor_terms(h0: np.ndarray, k: np.ndarray, scale: complex,
                  order: int) -> tuple:
    """(p, q, m) with sum_i x^p[i] y^q[i] m[i] the Taylor polynomial to
    ``order``, less its 1, of A = scale (diag(h0) + c k + conj(c) k^dag) at
    c = x + i y.

    h0 is an (n, s) and k an (n, s, s) stack of blocks, and m[i] an (n, s, s)
    stack.  c k + conj(c) k^dag = x (k + k^dag) + y i (k - k^dag), so
    T_j = A T_{j-1} / j is carried split by powers of x and y, whose
    monomials are real.
    """
    d = scale * h0[..., None]       # d * t = scale diag(h0) t
    k_dag = k.conj().swapaxes(-1, -2)
    x, y = scale * (k + k_dag), scale * 1j * (k - k_dag)
    term, total = {(0, 0): np.eye(k.shape[-1])}, {}
    for j in range(1, order + 1):
        parts = {}
        for (p, q), t in term.items():
            for key, part in (((p, q), d * t), ((p + 1, q), x @ t),
                              ((p, q + 1), y @ t)):
                parts[key] = parts.get(key, 0) + part
        term = {key: t * (1.0 / j) for key, t in parts.items()}
        total = {key: total.get(key, 0) + t for key, t in term.items()}
    p, q = np.array(list(total)).T
    return p, q, np.array(list(total.values()))


def _integrate(basis: ModeBasis, config: RunConfig, t0_cycles: float,
               t1_cycles: float) -> tuple:
    """Time-ordered midpoint product over [t0, t1] in cycles.

    Supports t1 < t0 (reversed stepping).  Returns (matrix, n_steps).
    Over the whole window of ``config`` it is the direct reference that
    composed propagators are tested against.

    A step exp(A), A = -i dt H, is the Taylor polynomial of A / 2^s squared
    s times on each group of ``coupled_blocks``; b = |dt| (max|H0| + ||K||_1
    + ||K^dag||_1) >= ||A||_1 (|c| <= 1) sets the least s with b / 2^s <=
    SUBSTEP_BOUND and the order ``taylor_order(b, 2^s, n_steps)``.  The
    polynomial is expanded in x = Re c and y = Im c once per span
    (``_taylor_terms``).  The steps of a chunk of _CHUNK carriers are then one
    real product of their monomials with the coefficients, plus the 1, and
    after the squarings the chunk's steps are multiplied pairwise, later on
    the left, down to one product, which is applied to U once; U is kept as
    its blocks.
    """
    carriers, dt = midpoint_steps(config, t0_cycles, t1_cycles)
    n_steps = len(carriers)
    coupling = field_coupling(basis, config.field)
    k = np.abs(coupling)
    bound = abs(dt) * (max(abs(basis.energies)) + k.sum(0).max() + k.sum(1).max())
    if not np.isfinite(bound):      # the unitarity gate reports the NaN
        return np.full((basis.dim, basis.dim), np.nan, dtype=complex), 0
    squarings = int(np.ceil(np.log2(max(bound / SUBSTEP_BOUND, 1.0))))
    order = taylor_order(bound, 2 ** squarings, n_steps)
    scale = -1.0j * dt / 2 ** squarings
    blocks = coupled_blocks(basis, config.field)
    terms = [_taylor_terms(basis.energies[b],
                           coupling[b[:, :, None], b[:, None, :]], scale, order)
             for b in blocks]
    ubs = [np.tile(np.eye(b.shape[1], dtype=complex), (len(b), 1, 1))
           for b in blocks]
    for start in range(0, n_steps, _CHUNK):
        cs = carriers[start:start + _CHUNK]
        xs, ys = (np.vander(v, order + 1, increasing=True)
                  for v in (cs.real, cs.imag))
        for i, (p, q, m) in enumerate(terms):
            n, s = m.shape[1:3]
            e = ((xs[:, p] * ys[:, q]) @ m.reshape(len(m), -1).view(float))
            e = e.view(complex).reshape(-1, s * s)
            e[:, ::s + 1] += 1      # the 1 apart: see the module docstring
            e = e.reshape(len(cs), n, s, s)
            for _ in range(squarings):
                e = e @ e
            while len(e) > 1:       # pairwise, an odd last step carried up
                pairs = e[1::2] @ e[:-1:2]
                # copying at every level lifts a chunk's temporaries past
                # malloc's trim threshold: a cold fig2 run then re-faults
                # its heap pages every chunk and takes twice as long
                e = np.concatenate([pairs, e[-1:]]) if len(e) % 2 else pairs
            ubs[i] = e[0] @ ubs[i]
    u = np.zeros((basis.dim, basis.dim), dtype=complex)
    for b, ub in zip(blocks, ubs):
        u[b[:, :, None], b[:, None, :]] = ub
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
        defect = float(unitarity_defect(m))
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
                  j):
    """u_off (u_cycle)^j u_on from the Floquet form of u_cycle: one
    propagator for one plateau length j, a list for a sequence of them.

    With u_cycle = Q diag(lam) Q^dag, factorized once per segment set, all
    plateaus take two batched products, (u_off Q diag(lam^j)) (Q^dag u_on),
    into one (len(j), d, d) stack.  lam^j = exp(i j arg lam) has modulus 1
    to roundoff for any j, where ``lam ** j`` compounds |lam|'s last ulp.
    """
    plateaus = np.atleast_1d(j)
    if (plateaus < 0).any():
        raise ValidationError("cycle_compose: plateau cycle count j must be >= 0")
    q, lam = u_cycle.floquet
    # Im log lam is arg lam; np.angle's arctan2 loop pages in 0.2 MB more
    powers = np.exp(1j * np.log(lam).imag * plateaus[:, None, None])
    stack = (u_off.matrix @ q * powers) @ (q.conj().T @ u_on.matrix)
    steps = u_on.steps + u_cycle.steps + u_off.steps
    composed = [Propagator(m, (0.0, 2 * u_on.t_span_cycles[1] + n), steps,
                           float(defect)) for m, n, defect
                in zip(stack, plateaus.tolist(), unitarity_defect(stack))]
    return composed if np.ndim(j) else composed[0]


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
