r"""Windowed vector potential of the two counterpropagating beams.

Each beam is parametrized in the circular Jones basis
``l = (e_x + i e_y)/sqrt(2)``, ``r = (e_x - i e_y)/sqrt(2)``.  The electric
field of the beam running along +/- z is

    E_pm(z, t) = Re[ E (cos(alpha_pm) l + sin(alpha_pm) r) e^{i(\pm k z - w t)} ]

and the vector potential follows in temporal gauge from the analytic
antiderivative of the monochromatic carrier, A = E/(i w) per beam.  The
turn-on/off window multiplies A, not E, so the physical electric field
-dA/dt picks up an envelope-derivative term during the ramps.

A(z, t) is held as two complex Fourier amplitudes,

    A = C_plus e^{i k z} + C_minus e^{-i k z} + c.c. of both terms,

which keeps A real by construction and makes the mode-space coupling of
the Dirac Hamiltonian a direct read-off.  Vector potentials are stored in
units of m0/e, so the plateau amplitude per beam is the nonlinearity
parameter xi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .physconfig import FieldParams, WindowParams

JONES_LEFT = np.array([1.0, 1.0j, 0.0]) / math.sqrt(2.0)
JONES_RIGHT = np.array([1.0, -1.0j, 0.0]) / math.sqrt(2.0)


@dataclass(frozen=True)
class JonesAmplitude:
    """Complex amplitudes multiplying the left/right circular Jones vectors."""

    c_left: complex
    c_right: complex

    def vector(self) -> np.ndarray:
        return self.c_left * JONES_LEFT + self.c_right * JONES_RIGHT


@dataclass(frozen=True)
class FourierPotential:
    """Vector potential at one instant, resolved into e^{+-ikz} components."""

    c_plus_k: np.ndarray    # complex 3-vector, coefficient of e^{+ikz}
    c_minus_k: np.ndarray   # complex 3-vector, coefficient of e^{-ikz}


def envelope(t_cycles: float, window: WindowParams) -> float:
    """Window value at a time given in laser cycles.

    Zero outside [0, 2*ramp + plateau], sin^2 ramps, flat plateau; C^1 at
    the joints because sin^2 has zero slope there.
    """
    ramp = window.ramp_cycles
    total = window.total_cycles
    if t_cycles <= 0.0 or t_cycles >= total:
        return 0.0
    if t_cycles < ramp:
        return math.sin(math.pi * t_cycles / (2.0 * ramp)) ** 2
    if t_cycles <= total - ramp:
        return 1.0
    return math.sin(math.pi * (total - t_cycles) / (2.0 * ramp)) ** 2


def envelope_derivative(t_cycles: float, window: WindowParams) -> float:
    """d(envelope)/dt with t in cycles."""
    ramp = window.ramp_cycles
    total = window.total_cycles
    if t_cycles <= 0.0 or t_cycles >= total:
        return 0.0
    if t_cycles < ramp:
        arg = math.pi * t_cycles / (2.0 * ramp)
        return math.pi / ramp * math.sin(arg) * math.cos(arg)
    if t_cycles <= total - ramp:
        return 0.0
    arg = math.pi * (total - t_cycles) / (2.0 * ramp)
    return -math.pi / ramp * math.sin(arg) * math.cos(arg)


def beam_jones(field: FieldParams, direction: int) -> JonesAmplitude:
    """Unwindowed complex A-amplitude of one beam in the Jones basis.

    ``direction`` is +1 for the beam along +z, -1 for the counterpropagating
    one.  The common factor E/(i w) converts the electric-field amplitude to
    the vector-potential amplitude in units of m0/e.
    """
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 or -1")
    alpha = field.alpha_plus if direction == +1 else field.alpha_minus
    scale = field.e_peak / (1.0j * field.omega)
    return JonesAmplitude(c_left=scale * math.cos(alpha),
                          c_right=scale * math.sin(alpha))


def potential_at(t: float, field: FieldParams, window: WindowParams) -> FourierPotential:
    """Windowed Fourier amplitudes of A at natural time t.

    Both beams carry the carrier e^{-i w t}; the beam direction only selects
    the spatial factor e^{+-ikz}.  The 1/2 splits each real beam between its
    Fourier component and the conjugate term.
    """
    t_cycles = t / field.cycle_duration
    env = envelope(t_cycles, window)
    if env == 0.0:
        zero = np.zeros(3, dtype=complex)
        return FourierPotential(c_plus_k=zero, c_minus_k=zero.copy())
    carrier = np.exp(-1.0j * field.omega * t)
    factor = 0.5 * env * carrier
    c_plus = factor * beam_jones(field, +1).vector()
    c_minus = factor * beam_jones(field, -1).vector()
    return FourierPotential(c_plus_k=c_plus, c_minus_k=c_minus)


def reconstruct_potential(pot: FourierPotential, kz) -> np.ndarray:
    """Real A from the Fourier amplitudes at phase(s) kz = k*z.

    Accepts a scalar or an array of kz values; the trailing axis of the
    result holds the three Cartesian components.
    """
    kz = np.asarray(kz, dtype=float)
    up = np.exp(1.0j * kz)[..., None]
    a = pot.c_plus_k * up + pot.c_minus_k / up
    return np.squeeze((a + a.conj()).real)


def potential_vector_at(z: float, t: float, field: FieldParams,
                        window: WindowParams) -> np.ndarray:
    """Real A(z, t) in units of m0/e."""
    pot = potential_at(t, field, window)
    return reconstruct_potential(pot, field.wavenumber * z)


def electric_field_at(z: float, t: float, field: FieldParams,
                      window: WindowParams) -> np.ndarray:
    """Real E(z, t) = -dA/dt, in units of E_S.

    Product rule: the windowed monochromatic field plus the envelope
    derivative acting on the unwindowed A.
    """
    t_cycles = t / field.cycle_duration
    env = envelope(t_cycles, window)
    denv_dt = envelope_derivative(t_cycles, window) / field.cycle_duration

    kz = field.wavenumber * z
    carrier = np.exp(-1.0j * field.omega * t)
    e_field = np.zeros(3)
    for direction, sign in ((+1, +1.0), (-1, -1.0)):
        jones = beam_jones(field, direction).vector()
        spatial = np.exp(1.0j * sign * kz)
        # monochromatic E amplitude is i*w times the A amplitude
        e_mono = 0.5 * (1.0j * field.omega) * jones * spatial * carrier
        a_mono = 0.5 * jones * spatial * carrier
        contrib = env * e_mono - denv_dt * a_mono
        e_field = e_field + (contrib + contrib.conj()).real
    return e_field
