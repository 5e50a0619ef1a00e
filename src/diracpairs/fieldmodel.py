r"""Windowed vector potential of the two counterpropagating beams.

Each beam is parametrized in the circular Jones basis
``l = (e_x + i e_y)/sqrt(2)``, ``r = (e_x - i e_y)/sqrt(2)``.  The electric
field of the beam running along +/- z is

    E_pm(z, t) = Re[ E (cos(alpha_pm) l + sin(alpha_pm) r) e^{i(\pm k z - w t)} ]

and the vector potential follows in temporal gauge from the analytic
antiderivative of the monochromatic carrier, A = E/(i w) per beam.  The
turn-on/off window multiplies A, not E, so the physical electric field
-dA/dt picks up an envelope-derivative term during the ramps.

The whole field is one carrier and two constant amplitudes,

    A(z, t) = c(t) (X_plus e^{i k z} + X_minus e^{-i k z}) + c.c.,
    c(t) = env(t) e^{-i w t},

with X_pm (``beam_amplitudes``) half the unwindowed A-amplitude of the
beam along +-z and c (``carrier``) taken at a time in cycles, where
w t = 2 pi t_cycles.  A is real by construction, E = -dA/dt is read from
the same pieces, and the mode-space coupling of the Dirac Hamiltonian is
built from X_pm once (see ``dynamics``).  Every function of time here
takes one time or an array of them.  Vector potentials are stored in
units of m0/e, so the plateau amplitude per beam is the nonlinearity
parameter xi.
"""

from __future__ import annotations

import math

import numpy as np

from .physconfig import FieldParams, WindowParams

JONES_LEFT = np.array([1.0, 1.0j, 0.0]) / math.sqrt(2.0)
JONES_RIGHT = np.array([1.0, -1.0j, 0.0]) / math.sqrt(2.0)


def _ramp_time(t_cycles, window: WindowParams):
    """tau = clip(min(t, T - t), 0, R): min(t, T - t, R) inside the window
    (0, T), exactly 0 outside, so that env(T - t) = env(t) by construction.
    Takes an array of times or one time."""
    return np.clip(np.minimum(t_cycles, window.total_cycles - t_cycles),
                   0.0, window.ramp_cycles)


def envelope(t_cycles, window: WindowParams):
    """sin^2(pi tau / 2R) at a time in cycles, or elementwise at an array of
    them: zero outside [0, T], sin^2 ramps, flat plateau; C^1 at the joints,
    where sin^2 has zero slope."""
    tau = _ramp_time(t_cycles, window)
    return np.sin(np.pi * tau / (2.0 * window.ramp_cycles)) ** 2


def envelope_derivative(t_cycles, window: WindowParams):
    """d(envelope)/dt with t in cycles; negative while tau = T - t < t."""
    tau, ramp = _ramp_time(t_cycles, window), window.ramp_cycles
    arg = np.pi * tau / (2.0 * ramp)
    slope = np.pi / ramp * np.sin(arg) * np.cos(arg)
    return np.where((0.0 < tau) & (tau < ramp),
                    np.where(tau == t_cycles, slope, -slope), 0.0)


def beam_amplitudes(field: FieldParams) -> tuple:
    """(X_plus, X_minus): complex 3-vectors in units of m0/e.

    E/(i w) converts each beam's electric-field amplitude to its
    A-amplitude; the 1/2 splits the real beam between its Fourier
    component and the conjugate term.
    """
    scale = field.e_peak / (1.0j * field.omega)
    return tuple(0.5 * (scale * math.cos(alpha) * JONES_LEFT
                        + scale * math.sin(alpha) * JONES_RIGHT)
                 for alpha in (field.alpha_plus, field.alpha_minus))


def carrier(t_cycles, window: WindowParams):
    """c = env e^{-i w t} at a time in cycles, or elementwise at an array of
    them; c(t + 1) = c(t) on the plateau."""
    return envelope(t_cycles, window) * np.exp(-2j * np.pi * t_cycles)


def _spatial(z: float, field: FieldParams) -> np.ndarray:
    """X_plus e^{ikz} + X_minus e^{-ikz}."""
    x_plus, x_minus = beam_amplitudes(field)
    up = np.exp(1j * field.wavenumber * z)
    return x_plus * up + x_minus / up


def potential_vector_at(z: float, t, field: FieldParams,
                        window: WindowParams) -> np.ndarray:
    """Real A(z, t) in units of m0/e, t in natural units; (n, 3) at n times."""
    c = carrier(t / field.cycle_duration, window)
    return 2.0 * np.multiply.outer(c, _spatial(z, field)).real


def electric_field_at(z: float, t, field: FieldParams,
                      window: WindowParams) -> np.ndarray:
    """Real E(z, t) = -dA/dt in units of E_S, t in natural units.

    dc/dt = (env' - i w env) e^{-i w t}: the windowed monochromatic field
    plus the envelope derivative acting on the unwindowed A.
    """
    t_cycles = t / field.cycle_duration
    dc_dt = (envelope_derivative(t_cycles, window) / field.cycle_duration
             * np.exp(-2j * np.pi * t_cycles)
             - 1.0j * field.omega * carrier(t_cycles, window))
    return -2.0 * np.multiply.outer(dc_dt, _spatial(z, field)).real
