import math
from dataclasses import replace

import numpy as np
import pytest

from diracpairs import (ALPHA, FieldParams, HelicityRelation, NumericsParams,
                        RunConfig, UnitarityError, ValidationError,
                        WindowParams, assemble_hamiltonian, build_basis,
                        carrier, cycle_compose, extract_g_blocks,
                        field_from_si, figure_configs, potential_vector_at,
                        propagate, propagator_segments, unitarity_defect,
                        with_plateau)
from diracpairs import dynamics
from diracpairs.dynamics import _integrate

FIG2_FIELD = field_from_si(4.9e17, 0.746, 0.2 * math.pi / 4,
                           HelicityRelation.SAME)
FIG4_FIELD = field_from_si(3.1e17, 0.4715, 0.7 * math.pi / 4,
                           HelicityRelation.OPPOSITE)


def make_config(n_cut=2, steps_per_cycle=128, ramp=1, plateau=1, field=None):
    return RunConfig(
        field=FIG2_FIELD if field is None else field,
        window=WindowParams(ramp_cycles=ramp, plateau_cycles=plateau),
        numerics=NumericsParams(n_cut=n_cut, steps_per_cycle=steps_per_cycle))


def zero_field(omega=0.746):
    return FieldParams(omega=omega, e_peak=0.0, alpha_plus=0.2,
                       helicity_relation=HelicityRelation.SAME)


def fourier_hamiltonian(t_cycles, basis, field, window):
    """H0 + sum_c a_c R_c + h.c. with a the e^{+ikz} Fourier coefficient of
    ``potential_vector_at``, projected from 4 samples per wavelength (A
    holds only e^{+-ikz}), and R_c the alpha_c raising blocks (n <- n-1)."""
    t = t_cycles * field.cycle_duration
    kz = np.arange(4) * np.pi / 2
    a = sum(potential_vector_at(phase / field.wavenumber, t, field, window)
            * np.exp(-1j * phase) for phase in kz) / 4
    raising = basis.n[:, None] == basis.n[None, :] + 1
    r = np.einsum("c,ai,cab,bj->ij", a, basis.spinors.conj(), ALPHA,
                  basis.spinors) * raising
    return np.diag(basis.energies).astype(complex) + r + r.conj().T


class TestHamiltonian:
    def test_free_limit_is_diagonal(self):
        config = make_config()
        basis = build_basis(config.numerics, config.field)
        h = assemble_hamiltonian(0.0, basis, config.field)
        assert np.array_equal(h, np.diag(basis.energies).astype(complex))

    def test_hermiticity_at_random_times(self):
        config = make_config()
        basis = build_basis(config.numerics, config.field)
        rng = np.random.default_rng(0)
        for t_c in rng.uniform(0, config.window.total_cycles, 100):
            h = assemble_hamiltonian(carrier(t_c, config.window), basis,
                                     config.field)
            assert np.max(np.abs(h - h.conj().T)) < 1e-13

    def test_chain_sparsity_exact(self):
        config = make_config(n_cut=3)
        basis = build_basis(config.numerics, config.field)
        h = assemble_hamiltonian(0.3 - 0.8j, basis, config.field)
        far = np.abs(basis.n[:, None] - basis.n[None, :]) >= 2
        assert np.all(h[far] == 0.0)

    def test_circular_beam_photon_spin_selection(self):
        # +z beam at alpha=0: its raising matrix (the n <- n-1 part of K)
        # only flips spin down->up, and it is not identically zero
        field = FieldParams(omega=0.746, e_peak=0.37, alpha_plus=0.0,
                            helicity_relation=HelicityRelation.OPPOSITE)
        config = make_config(field=field)
        basis = build_basis(config.numerics, config.field)
        k = dynamics.field_coupling(basis, field)
        flips = 0
        for i in range(basis.dim):
            for j in range(basis.dim):
                if basis.n[i] == basis.n[j] + 1:
                    if basis.spin_up[i] and not basis.spin_up[j]:
                        flips += abs(k[i, j]) > 1e-3
                    else:
                        assert k[i, j] == 0.0
        assert flips > 0

    @pytest.mark.parametrize("field, k0", [
        (FIG2_FIELD, (0.0, 0.0, 0.0)),
        (FIG4_FIELD, (0.0, 0.0, 0.0)),
        (FIG2_FIELD, (0.0, 0.0, 0.0013)),
        (FIG4_FIELD, (0.21, -0.13, 0.05)),
    ], ids=["fig2", "fig4", "fig2_k0z", "fig4_transverse"])
    def test_coupling_matches_fourier_potential(self, field, k0):
        # H0 + c K + h.c. is the Fourier-amplitude Hamiltonian at every
        # time, ramps included
        config = make_config(field=field, ramp=2, plateau=1)
        config = replace(config, numerics=replace(config.numerics, k0_offset=k0))
        basis = build_basis(config.numerics, config.field)
        rng = np.random.default_rng(4)
        for t_c in rng.uniform(0, config.window.total_cycles, 25):
            h = assemble_hamiltonian(carrier(t_c, config.window), basis, field)
            ref = fourier_hamiltonian(t_c, basis, field, config.window)
            assert np.max(np.abs(h - ref)) < 1e-13


class TestPropagate:
    def test_zero_field_gives_free_phases(self):
        config = make_config(field=zero_field(), plateau=2)
        basis = build_basis(config.numerics, config.field)
        u = propagate(config, basis)
        duration = config.window.total_cycles * config.field.cycle_duration
        expected = np.diag(np.exp(-1j * basis.energies * duration))
        assert np.max(np.abs(u.matrix - expected)) < 1e-11

    def test_unitarity_and_metadata(self):
        # the folded run evaluates ramp + 1/2 cycles of step exponentials
        config = make_config(plateau=2)
        basis = build_basis(config.numerics, config.field)
        u = propagate(config, basis)
        assert u.unitarity_defect < 1e-10
        assert type(u.steps) is int
        assert u.steps == ((config.window.ramp_cycles + 0.5)
                           * config.numerics.steps_per_cycle)
        assert u.t_span_cycles == (0.0, float(config.window.total_cycles))
        assert unitarity_defect(u.matrix) == u.unitarity_defect

    def test_tolerance_failure_raises_with_diagnosis(self, monkeypatch):
        # the message names the step setting but does not suggest refining
        # it: each step exponential is unitary to roundoff
        config = make_config(plateau=2)
        basis = build_basis(config.numerics, config.field)
        monkeypatch.setattr(dynamics, "DEFAULT_UNITARITY_TOL", 1e-18)
        with pytest.raises(UnitarityError,
                           match="steps_per_cycle=128;.*cannot restore"):
            propagate(config, basis)

    def test_second_order_convergence(self):
        # Richardson: with a 2nd-order step, halving dt cuts the distance to
        # the extrapolated reference by ~4x
        basis = None
        mats = []
        for spc in (32, 64, 128):
            config = make_config(n_cut=2, steps_per_cycle=spc, ramp=1, plateau=0)
            if basis is None:
                basis = build_basis(config.numerics, config.field)
            mats.append(propagate(config, basis).matrix)
        u_h, u_h2, u_h4 = mats
        ref = u_h4 + (u_h4 - u_h2) / 3.0
        e1 = np.max(np.abs(u_h - ref))
        e2 = np.max(np.abs(u_h2 - ref))
        assert e1 / e2 == pytest.approx(4.0, rel=0.4)

    def test_time_reversal_composition(self):
        config = make_config(plateau=1)
        basis = build_basis(config.numerics, config.field)
        total = float(config.window.total_cycles)
        forward, _ = _integrate(basis, config, 0.0, total)
        backward, _ = _integrate(basis, config, total, 0.0)
        assert np.max(np.abs(backward @ forward - np.eye(basis.dim))) < 1e-9


class TestCycleCompose:
    def setup_method(self):
        self.config = make_config(n_cut=2, steps_per_cycle=128, ramp=2, plateau=0)
        self.basis = build_basis(self.config.numerics, self.config.field)
        self.segments = propagator_segments(self.config, self.basis)

    def direct(self, j):
        """Step-by-step integration over the whole window of plateau j."""
        config = with_plateau(self.config, j)
        u, _ = _integrate(self.basis, config, 0.0,
                          float(config.window.total_cycles))
        return u

    def test_zero_plateau_is_off_times_on(self):
        u_on, _, u_off = self.segments
        composed = cycle_compose(*self.segments, 0)
        assert np.max(np.abs(composed.matrix - u_off.matrix @ u_on.matrix)) \
            <= 1e-13
        assert np.max(np.abs(composed.matrix - self.direct(0))) < 1e-12

    @pytest.mark.parametrize("j", [1, 7, 32])
    def test_matches_direct_propagation(self, j):
        composed = cycle_compose(*self.segments, j)
        assert np.max(np.abs(composed.matrix - self.direct(j))) < 1e-10
        assert composed.unitarity_defect < 1e-10

    def test_long_powering_stays_unitary(self):
        # powering u_cycle itself would multiply its roundoff defect by j
        # (1.7e-10 here); its Floquet eigenvalues are put on the unit
        # circle, so diag(lam^j) stays unitary
        composed = cycle_compose(*self.segments, 4096)
        assert composed.unitarity_defect < 1e-10

    def test_floquet_form_reproduces_cycle(self):
        u_cycle = self.segments[1]
        q, lam = u_cycle.floquet
        assert np.max(np.abs(q.conj().T @ q - np.eye(len(lam)))) < 1e-13
        assert np.max(np.abs(np.abs(lam) - 1.0)) < 1e-15
        assert np.max(np.abs((q * lam) @ q.conj().T - u_cycle.matrix)) < 1e-12
        assert u_cycle.floquet is u_cycle.floquet

    def test_negative_power_rejected(self):
        with pytest.raises(ValidationError):
            cycle_compose(*self.segments, -1)

    def test_steps_are_those_of_the_segments(self):
        # composing evaluates no step exponential, whatever the plateau
        total = sum(seg.steps for seg in self.segments)
        assert [cycle_compose(*self.segments, j).steps
                for j in (0, 7, 120)] == [total] * 3


class TestTimeReversalFold:
    """The second half of the one-cycle-plateau window is the transpose
    mirror D U^T D of the first when D conj(K) D = K (real free spinors)."""

    @staticmethod
    def preset(name, k0=(0.0, 0.0, 0.0)):
        config, _ = figure_configs()[name]
        return replace(config, numerics=replace(
            config.numerics, n_cut=2, steps_per_cycle=64, k0_offset=k0))

    @staticmethod
    def integrated_spans(monkeypatch):
        """([(t0, t1)], [steps]) of every ``_integrate`` call from now on."""
        spans, counts = [], []
        real = dynamics._integrate

        def spy(basis, config, t0, t1):
            spans.append((t0, t1))
            u, steps = real(basis, config, t0, t1)
            counts.append(steps)
            return u, steps

        monkeypatch.setattr(dynamics, "_integrate", spy)
        return spans, counts

    @pytest.mark.parametrize("name, k0", [
        ("fig2", (0.0, 0.0, 0.0)), ("fig4", (0.0, 0.0, 0.0)),
        ("fig2", (0.0, 0.0, 0.0013)), ("fig2", (0.21, 0.0, 0.05))])
    def test_fold_matches_three_span_integration(self, monkeypatch, name, k0):
        config = self.preset(name, k0)
        basis = build_basis(config.numerics, config.field)
        ramp = config.window.ramp_cycles
        spans, counts = self.integrated_spans(monkeypatch)
        segments = propagator_segments(config, basis)
        assert spans == [(0.0, ramp), (ramp, ramp + 0.5)]
        # the mirrored cycle costs the half cycle it is built from, the
        # mirrored turn-off nothing
        spc = config.numerics.steps_per_cycle
        assert [seg.steps for seg in segments] == [ramp * spc, spc // 2, 0]
        assert sum(seg.steps for seg in segments) == sum(counts)

        one = with_plateau(config, 1)
        edges = (0.0, float(ramp), ramp + 1.0, 2.0 * ramp + 1.0)
        for seg, t0, t1 in zip(segments, edges, edges[1:]):
            direct, _ = _integrate(basis, one, t0, t1)
            assert np.max(np.abs(seg.matrix - direct)) <= 1e-12
            assert seg.t_span_cycles == (t0, t1)
            assert seg.unitarity_defect == unitarity_defect(seg.matrix)

    def test_transverse_k0y_integrates_the_whole_window(self, monkeypatch):
        # complex free spinors break D conj(K) D = K: three spans, 2R + 1
        # cycles, as the unfolded integrator
        config = self.preset("fig4", (0.21, -0.13, 0.05))
        basis = build_basis(config.numerics, config.field)
        ramp = config.window.ramp_cycles
        spans, _ = self.integrated_spans(monkeypatch)
        propagator_segments(config, basis)
        assert spans == [(0.0, ramp), (ramp, ramp + 1),
                         (ramp + 1, 2 * ramp + 1)]
        assert sum(t1 - t0 for t0, t1 in spans) == 2 * ramp + 1

    @pytest.mark.parametrize("name, k0", [
        ("fig2", (0.0, 0.0, 0.0)), ("fig4", (0.0, 0.0, 0.0)),
        ("fig2", (0.0, 0.0, 0.0013)), ("fig4", (0.0, 0.0, 0.0013)),
        ("fig4", (0.21, -0.13, 0.05))])
    def test_steps_count_the_exponentials_evaluated(self, monkeypatch, name,
                                                    k0):
        # each segment reports the Hamiltonians assembled since the segment
        # before it was built, one per step exponential
        config = self.preset(name, k0)
        basis = build_basis(config.numerics, config.field)
        assembled, built = [], {}
        real_assemble, real_propagator = (dynamics.assemble_hamiltonian,
                                          dynamics.Propagator)

        def assemble(*args):
            assembled.append(args[0])
            return real_assemble(*args)

        def propagator(**fields):
            built[fields["t_span_cycles"]] = len(assembled)
            return real_propagator(**fields)

        monkeypatch.setattr(dynamics, "assemble_hamiltonian", assemble)
        monkeypatch.setattr(dynamics, "Propagator", propagator)
        segments = propagator_segments(config, basis)
        before = 0
        for seg in segments:
            assert type(seg.steps) is int
            assert seg.steps == built[seg.t_span_cycles] - before
            before = built[seg.t_span_cycles]
        assert sum(seg.steps for seg in segments) == len(assembled) > 0


class TestGBlocks:
    def test_zero_field_blocks(self):
        config = make_config(field=zero_field(), plateau=1)
        basis = build_basis(config.numerics, config.field)
        u = propagate(config, basis)
        g = extract_g_blocks(u, basis, config)
        assert np.max(np.abs(g.g_pm)) < 1e-12
        g_mp = u.matrix[np.ix_(basis.minus_indices, basis.plus_indices)]
        assert np.max(np.abs(g_mp)) < 1e-12
        duration = config.window.total_cycles * config.field.cycle_duration
        neg = basis.energies[basis.minus_indices]
        expected = np.diag(np.exp(-1j * neg * duration))
        assert np.max(np.abs(g.g_mm - expected)) < 1e-11

    def test_column_unitarity(self):
        config = make_config(n_cut=3, steps_per_cycle=256, ramp=2, plateau=4)
        basis = build_basis(config.numerics, config.field)
        u = propagate(config, basis)
        g = extract_g_blocks(u, basis, config)
        # every minus in-mode ends up in one of the two out bands
        col_sums = (np.sum(np.abs(g.g_pm) ** 2, axis=0)
                    + np.sum(np.abs(g.g_mm) ** 2, axis=0))
        assert np.max(np.abs(col_sums - 1.0)) < 1e-10
        assert u.unitarity_defect < 1e-10

    def test_endpoint_check(self):
        config = make_config(plateau=1)
        basis = build_basis(config.numerics, config.field)
        u = propagate(config, basis)
        bad = type(u)(matrix=u.matrix, t_span_cycles=(0.0, 1.5),
                      steps=u.steps, unitarity_defect=u.unitarity_defect)
        with pytest.raises(ValidationError, match="envelope"):
            extract_g_blocks(bad, basis, config)

    @pytest.mark.parametrize("plateau", [1, 5])
    def test_propagator_of_another_window_rejected(self, plateau):
        # the envelope is also off past the end of the window, so only the
        # span tells a longer propagator apart
        config = make_config(n_cut=1, steps_per_cycle=64, plateau=2)
        basis = build_basis(config.numerics, config.field)
        u = propagate(with_plateau(config, plateau), basis)
        with pytest.raises(ValidationError, match="envelope"):
            extract_g_blocks(u, basis, config)

    def test_truncation_edge_decay(self):
        # converged truncation: edge rows of |g_pm| are far below the interior
        config = make_config(n_cut=6, steps_per_cycle=256, ramp=2, plateau=2)
        basis = build_basis(config.numerics, config.field)
        u = propagate(config, basis)
        g = extract_g_blocks(u, basis, config)
        edge = np.abs(basis.n[basis.plus_indices]) == config.numerics.n_cut
        mags = np.abs(g.g_pm)
        assert mags[edge].max() < 1e-3 * mags[~edge].max()

