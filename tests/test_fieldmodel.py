import math

import numpy as np
import pytest

from diracpairs import (JONES_LEFT, JONES_RIGHT, FieldParams,
                        HelicityRelation, WindowParams, beam_amplitudes,
                        carrier, electric_field_at, envelope,
                        envelope_derivative, field_from_si,
                        potential_vector_at, xi)

WINDOW = WindowParams(ramp_cycles=2, plateau_cycles=4)


def circular_field(alpha_plus=0.0, e_si=4.9e17, omega=0.746,
                   relation=HelicityRelation.OPPOSITE):
    return field_from_si(e_si, omega, alpha_plus, relation)


class TestEnvelope:
    def test_turn_on_start_is_zero(self):
        assert envelope(0.0, WINDOW) == 0.0

    def test_ramp_midpoint_is_half(self):
        assert envelope(WINDOW.ramp_cycles / 2, WINDOW) == pytest.approx(0.5, abs=1e-15)

    def test_plateau_is_one(self):
        t = WINDOW.ramp_cycles + WINDOW.plateau_cycles / 2
        assert envelope(t, WINDOW) == 1.0

    def test_mirror_symmetry(self):
        total = WINDOW.total_cycles
        for t in np.linspace(0, total, 97):
            assert envelope(t, WINDOW) == pytest.approx(
                envelope(total - t, WINDOW), abs=1e-14)

    def test_continuity_everywhere(self):
        # probe across joints and interior with a shrinking epsilon
        eps = 1e-9
        for t in [0.0, WINDOW.ramp_cycles, WINDOW.ramp_cycles + WINDOW.plateau_cycles,
                  WINDOW.total_cycles, 0.73, 3.1]:
            left = envelope(t - eps, WINDOW)
            right = envelope(t + eps, WINDOW)
            assert abs(right - left) < 1e-7

    def test_derivative_matches_finite_difference(self):
        for t in np.linspace(-0.5, WINDOW.total_cycles + 0.5, 197):
            h = 1e-6
            fd = (envelope(t + h, WINDOW) - envelope(t - h, WINDOW)) / (2 * h)
            assert envelope_derivative(t, WINDOW) == pytest.approx(fd, abs=1e-7)

    def test_smooth_joints(self):
        # sin^2 ramps have zero slope at both ends of each ramp
        for t in (0.0, WINDOW.ramp_cycles,
                  WINDOW.ramp_cycles + WINDOW.plateau_cycles, WINDOW.total_cycles):
            assert envelope_derivative(t, WINDOW) == pytest.approx(0.0, abs=1e-12)


def one_beam_potential(t_cycles, field):
    """A(z=0, t) of the +z beam alone: c X_plus + c.c."""
    a = carrier(t_cycles, WINDOW) * beam_amplitudes(field)[0]
    return (a + a.conj()).real


class TestCarrier:
    def test_matches_envelope_times_phase(self):
        # the phase argument carries the roundoff of w t itself, so the
        # bound is 1e-15 relative to the phase
        field = circular_field(0.3)
        for t_c in np.linspace(-0.5, WINDOW.total_cycles + 0.5, 301):
            t = t_c * field.cycle_duration
            ref = envelope(t_c, WINDOW) * np.exp(-1j * field.omega * t)
            bound = 1e-15 * max(1.0, field.omega * abs(t))
            assert abs(carrier(t_c, WINDOW) - ref) <= bound

    def test_periodic_on_plateau(self):
        start = WINDOW.ramp_cycles
        for t_c in np.linspace(start, start + WINDOW.plateau_cycles - 1, 97):
            bound = 1e-15 * 2 * math.pi * (t_c + 1)
            assert abs(carrier(t_c + 1, WINDOW) - carrier(t_c, WINDOW)) <= bound
            assert abs(carrier(t_c, WINDOW)) == pytest.approx(1.0, abs=1e-15)


class TestArrays:
    """``envelope`` and ``carrier`` take an array of times as well as one."""

    TOTAL, RAMP = WINDOW.total_cycles, WINDOW.ramp_cycles
    GRID = np.sort(np.concatenate([
        np.linspace(-1.5, TOTAL + 1.5, 211),
        [0.0, RAMP, TOTAL - RAMP, TOTAL, -1e-300, TOTAL + 1e-12]]))

    @pytest.mark.parametrize("fn", [envelope, carrier])
    def test_array_matches_scalar(self, fn):
        values = fn(self.GRID, WINDOW)
        assert values.shape == self.GRID.shape
        for t, value in zip(self.GRID, values):
            assert abs(value - fn(float(t), WINDOW)) <= 1e-15

    @pytest.mark.parametrize("fn", [envelope, carrier])
    def test_exactly_zero_outside_window(self, fn):
        outside = self.GRID[(self.GRID <= 0.0) | (self.GRID >= self.TOTAL)]
        assert outside.size > 50
        assert np.all(fn(outside, WINDOW) == 0.0)
        assert all(fn(float(t), WINDOW) == 0.0 for t in outside)


class TestPotential:
    def test_zero_outside_window(self):
        field = circular_field(0.3)
        assert carrier(-1.0, WINDOW) == 0.0
        a = potential_vector_at(0.4, -1.0 * field.cycle_duration, field, WINDOW)
        assert np.all(a == 0.0)

    def test_transversality_exact(self):
        field = circular_field(0.3)
        for x in beam_amplitudes(field):
            assert x[2] == 0.0
        for t_c in np.linspace(0, WINDOW.total_cycles, 37):
            a = potential_vector_at(0.4, t_c * field.cycle_duration, field, WINDOW)
            assert a[2] == 0.0

    def test_realness_on_grid(self):
        # c (X_plus e^{ikz} + X_minus e^{-ikz}) plus its conjugate is real,
        # and potential_vector_at is its real part
        field = circular_field(0.4)
        t_c = WINDOW.ramp_cycles + 0.37
        x_plus, x_minus = beam_amplitudes(field)
        c = carrier(t_c, WINDOW)
        z = np.linspace(0, 2 * np.pi / field.wavenumber, 64)
        up = np.exp(1j * field.wavenumber * z)[:, None]
        half = c * (x_plus * up + x_minus / up)
        a_complex = half + half.conj()
        scale = np.abs(a_complex.real).max()
        assert np.abs(a_complex.imag).max() < 1e-14 * scale
        a = np.array([potential_vector_at(zi, t_c * field.cycle_duration,
                                          field, WINDOW) for zi in z])
        assert np.max(np.abs(a - a_complex.real)) < 1e-14 * scale

    def test_linear_polarization_amplitudes(self):
        # alpha = pi/4: both beams linear along x, |X_pm| = E/(2 omega)
        # with the half from the conjugate split; |c| = 1 on the plateau
        field = circular_field(math.pi / 4)
        expected = field.e_peak / (2 * field.omega)
        for x in beam_amplitudes(field):
            assert np.linalg.norm(x) == pytest.approx(expected, rel=1e-12)
        assert abs(carrier(WINDOW.ramp_cycles + 1.25, WINDOW)) \
            == pytest.approx(1.0, rel=1e-15)

    def test_peak_potential_equals_xi_for_linear_polarization(self):
        # scan A(z=0, t) of a single +z beam over one plateau cycle
        field = circular_field(math.pi / 4)
        single = FieldParams(omega=field.omega, e_peak=field.e_peak,
                             alpha_plus=math.pi / 4,
                             helicity_relation=HelicityRelation.OPPOSITE)
        peak = max(float(np.linalg.norm(one_beam_potential(t_c, single)))
                   for t_c in np.linspace(WINDOW.ramp_cycles,
                                          WINDOW.ramp_cycles + 1, 4001))
        assert peak == pytest.approx(xi(single), rel=1e-6)

    def test_general_alpha_peak_closed_form(self):
        # ellipse semi-axes (cos a +- sin a)/sqrt(2) scale the A amplitude E/w
        rng = np.random.default_rng(11)
        for alpha in rng.uniform(0, math.pi / 2, 5):
            field = FieldParams(omega=0.8, e_peak=0.3, alpha_plus=alpha,
                                helicity_relation=HelicityRelation.OPPOSITE)
            peak = max(float(np.linalg.norm(one_beam_potential(t_c, field)))
                       for t_c in np.linspace(WINDOW.ramp_cycles,
                                              WINDOW.ramp_cycles + 1, 8001))
            expected = (field.e_peak / field.omega) * max(
                abs(math.cos(alpha) + math.sin(alpha)),
                abs(math.cos(alpha) - math.sin(alpha))) / math.sqrt(2)
            assert peak == pytest.approx(expected, rel=1e-5)

    def test_helicity_swap_exchanges_jones_components(self):
        alpha = 0.3
        f1 = FieldParams(omega=1.0, e_peak=0.2, alpha_plus=alpha,
                         helicity_relation=HelicityRelation.OPPOSITE)
        f2 = FieldParams(omega=1.0, e_peak=0.2, alpha_plus=math.pi / 2 - alpha,
                         helicity_relation=HelicityRelation.OPPOSITE)
        # components in the orthonormal circular basis
        x1, x2 = beam_amplitudes(f1)[0], beam_amplitudes(f2)[0]
        left1, right1 = np.vdot(JONES_LEFT, x1), np.vdot(JONES_RIGHT, x1)
        left2, right2 = np.vdot(JONES_LEFT, x2), np.vdot(JONES_RIGHT, x2)
        assert left1 == pytest.approx(right2, rel=1e-14)
        assert right1 == pytest.approx(left2, rel=1e-14)


class TestElectricField:
    def test_zero_envelope_gives_zero_vector(self):
        field = circular_field(0.2)
        e = electric_field_at(0.3, -0.5, field, WINDOW)
        assert np.all(e == 0.0)

    def test_single_circular_beam_rotates_with_constant_magnitude(self):
        # alpha = 0: one circular beam has |E| = E/sqrt(2) at fixed z
        field = circular_field(0.0)
        single = FieldParams(omega=field.omega, e_peak=field.e_peak,
                             alpha_plus=0.0,
                             helicity_relation=HelicityRelation.OPPOSITE)

        def one_beam_e(z, t_cycles):
            # on the plateau -dA/dt = i w c X_plus e^{ikz} + c.c.
            e_mono = (1j * single.omega * carrier(t_cycles, WINDOW)
                      * beam_amplitudes(single)[0]
                      * np.exp(1j * single.wavenumber * z))
            return (e_mono + e_mono.conj()).real

        expected = single.e_peak / math.sqrt(2)
        samples = []
        for t_c in np.linspace(WINDOW.ramp_cycles, WINDOW.ramp_cycles + 1, 50):
            e = one_beam_e(0.1, t_c)
            samples.append(e)
            assert np.linalg.norm(e) == pytest.approx(expected, rel=1e-12)
        # the field direction actually rotates
        samples = np.array(samples)
        assert np.ptp(samples[:, 0]) > expected

    def test_matches_finite_difference_of_potential(self):
        field = circular_field(0.3, relation=HelicityRelation.SAME)
        z = 0.7
        errors = []
        for dt in (1e-3, 5e-4):
            worst = 0.0
            for t_c in (0.9, 2.3, 5.1, 7.2):
                t = t_c * field.cycle_duration
                a_plus = potential_vector_at(z, t + dt, field, WINDOW)
                a_minus = potential_vector_at(z, t - dt, field, WINDOW)
                fd = -(a_plus - a_minus) / (2 * dt)
                exact = electric_field_at(z, t, field, WINDOW)
                worst = max(worst, np.max(np.abs(fd - exact)))
            errors.append(worst)
        # second-order stencil: error drops ~4x when dt halves
        assert errors[1] < errors[0] / 3.0
        assert errors[0] < 1e-4
