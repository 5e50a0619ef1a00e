import math
import time
import tracemalloc
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
from diracpairs import dynamics, fockoracle
from diracpairs.dynamics import _integrate
from synthetic import haar_unitary

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
        # it at a small |dt| ||H||: a span is unitary to TAYLOR_TOL there
        config = make_config(plateau=2)
        basis = build_basis(config.numerics, config.field)
        monkeypatch.setattr(dynamics, "DEFAULT_UNITARITY_TOL", 1e-18)
        with pytest.raises(UnitarityError,
                           match="steps_per_cycle=128;.*cannot restore"):
            propagate(config, basis)

    def test_unsteppable_hamiltonian_is_refused(self):
        # omega 1e-300: K is finite, but the step bound |dt| ||K|| is not;
        # the integrator raises rather than return a NaN matrix
        config = make_config(n_cut=1, field=replace(FIG2_FIELD, omega=1e-300))
        basis = build_basis(config.numerics, config.field)
        assert np.isfinite(dynamics.field_coupling(basis, config.field)).all()
        with np.errstate(over="ignore"):
            with pytest.raises(UnitarityError,
                               match="out of range: the step bound is not "
                                     "finite$"):
                _integrate(basis, config, [(0.0, 1.0)])

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
        [(forward, _)] = _integrate(basis, config, [(0.0, total)])
        [(backward, _)] = _integrate(basis, config, [(total, 0.0)])
        assert np.max(np.abs(backward @ forward - np.eye(basis.dim))) < 1e-9


class TestCycleCompose:
    def setup_method(self):
        self.config = make_config(n_cut=2, steps_per_cycle=128, ramp=2, plateau=0)
        self.basis = build_basis(self.config.numerics, self.config.field)
        self.segments = propagator_segments(self.config, self.basis)

    def direct(self, j):
        """Step-by-step integration over the whole window of plateau j."""
        config = with_plateau(self.config, j)
        [(u, _)] = _integrate(self.basis, config,
                              [(0.0, float(config.window.total_cycles))])
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
        # (1.7e-10 here); lam^j is formed as exp(i j arg lam), unit-modulus
        # to roundoff, so diag(lam^j) stays unitary
        composed = cycle_compose(*self.segments, 4096)
        assert composed.unitarity_defect < 1e-10

    def test_fig2_powers_stay_unitary_at_any_plateau(self):
        # lam / |lam| is still up to an ulp off 1, and lam ** j compounded
        # that: a defect of about 4.7e-16 j on fig2 (4.7e-6 at j = 1e10) and
        # a NaN stack at 2^62
        config = figure_configs()["fig2"][0]
        segments = propagator_segments(
            config, build_basis(config.numerics, config.field))
        for u in cycle_compose(*segments, [10 ** 10, 2 ** 62]):
            assert u.unitarity_defect < 1e-12

    def test_floquet_form_reproduces_cycle(self):
        u_cycle = self.segments[1]
        q, lam = u_cycle.floquet
        assert np.max(np.abs(q.conj().T @ q - np.eye(len(lam)))) < 1e-13
        assert np.max(np.abs(np.abs(lam) - 1.0)) < 1e-15
        assert np.max(np.abs((q * lam) @ q.conj().T - u_cycle.matrix)) < 1e-12
        assert u_cycle.floquet is u_cycle.floquet

    def test_floquet_form_of_a_degenerate_cycle(self):
        # every eigenvalue exactly twice: blockdiag(V, V) with its rows and
        # columns permuted alike; the QR of the eigenvectors still gives
        # Schur vectors, and the composed powers are U's
        rng = np.random.default_rng(3)
        perm = rng.permutation(18)
        u = np.kron(np.eye(2), haar_unitary(rng, 9))[np.ix_(perm, perm)]
        cycle = dynamics.Propagator(u, (0.0, 1.0), 0, float(unitarity_defect(u)))
        q, lam = cycle.floquet
        t = q.conj().T @ u @ q
        assert np.max(np.abs(t - np.diag(np.diag(t)))) <= 1e-13
        one = dynamics.Propagator(np.eye(18), (0.0, 0.0), 0, 0.0)
        power = cycle_compose(one, cycle, one, 64).matrix
        assert np.max(np.abs(power - np.linalg.matrix_power(u, 64))) <= 1e-12

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
        """([the spans of each ``_integrate`` call], [the steps of each
        span]) of every call from now on."""
        calls, counts = [], []
        real = dynamics._integrate

        def spy(basis, config, spans):
            calls.append(list(spans))
            products = real(basis, config, spans)
            counts.extend(steps for _, steps in products)
            return products

        monkeypatch.setattr(dynamics, "_integrate", spy)
        return calls, counts

    @pytest.mark.parametrize("name, k0", [
        ("fig2", (0.0, 0.0, 0.0)), ("fig4", (0.0, 0.0, 0.0)),
        ("fig2", (0.0, 0.0, 0.0013)), ("fig2", (0.21, 0.0, 0.05))])
    def test_fold_matches_three_span_integration(self, monkeypatch, name, k0):
        config = self.preset(name, k0)
        basis = build_basis(config.numerics, config.field)
        ramp = config.window.ramp_cycles
        calls, counts = self.integrated_spans(monkeypatch)
        segments = propagator_segments(config, basis)
        assert calls == [[(0.0, ramp), (ramp, ramp + 0.5)]]
        # the mirrored cycle costs the half cycle it is built from, the
        # mirrored turn-off nothing
        spc = config.numerics.steps_per_cycle
        assert [seg.steps for seg in segments] == [ramp * spc, spc // 2, 0]
        assert sum(seg.steps for seg in segments) == sum(counts)

        one = with_plateau(config, 1)
        edges = (0.0, float(ramp), ramp + 1.0, 2.0 * ramp + 1.0)
        for seg, t0, t1 in zip(segments, edges, edges[1:]):
            [(direct, _)] = _integrate(basis, one, [(t0, t1)])
            assert np.max(np.abs(seg.matrix - direct)) <= 1e-12
            assert seg.t_span_cycles == (t0, t1)
            assert seg.unitarity_defect == unitarity_defect(seg.matrix)

    def test_transverse_k0y_integrates_the_whole_window(self, monkeypatch):
        # complex free spinors break D conj(K) D = K: three spans, 2R + 1
        # cycles, as the unfolded integrator, in one call
        config = self.preset("fig4", (0.21, -0.13, 0.05))
        basis = build_basis(config.numerics, config.field)
        ramp = config.window.ramp_cycles
        calls, _ = self.integrated_spans(monkeypatch)
        propagator_segments(config, basis)
        assert calls == [[(0.0, ramp), (ramp, ramp + 1),
                          (ramp + 1, 2 * ramp + 1)]]
        assert sum(t1 - t0 for t0, t1 in calls[0]) == 2 * ramp + 1

    @pytest.mark.parametrize("name, k0", [
        ("fig2", (0.0, 0.0, 0.0)), ("fig4", (0.0, 0.0, 0.0)),
        ("fig2", (0.0, 0.0, 0.0013)), ("fig4", (0.0, 0.0, 0.0013)),
        ("fig4", (0.21, -0.13, 0.05))])
    def test_steps_count_the_exponentials_evaluated(self, monkeypatch, name,
                                                    k0):
        # each integrated segment reports the carriers of its own span, one
        # per step exponential; a mirrored turn-off reports none
        config = self.preset(name, k0)
        basis = build_basis(config.numerics, config.field)
        taken = []
        real_carrier = dynamics.carrier

        def carrier_at(*args):
            taken.append(np.ravel(args[0]))     # a span's times in one call
            return real_carrier(*args)

        monkeypatch.setattr(dynamics, "carrier", carrier_at)
        segments = propagator_segments(config, basis)
        folded = k0[1] == 0.0
        assert len(taken) == (2 if folded else 3)
        counts = [len(times) for times in taken] + [0] * folded
        assert [seg.steps for seg in segments] == counts
        for seg, times in zip(segments, taken):
            t0, t1 = seg.t_span_cycles
            assert type(seg.steps) is int
            assert t0 < times.min() and times.max() < t1
        assert sum(seg.steps for seg in segments) == sum(counts) > 0

    @pytest.mark.parametrize("name, k0", [
        ("fig2", (0.0, 0.0, 0.0)), ("fig4", (0.21, -0.13, 0.05))],
        ids=["fold", "no_fold"])
    def test_one_taylor_expansion_per_segment_set(self, monkeypatch, name,
                                                  k0):
        # the order and the coefficient stacks of every block group are
        # worked out once for all the spans, the order from all their steps
        config = self.preset(name, k0)
        basis = build_basis(config.numerics, config.field)
        shapes, counts = [], []
        real_terms, real_order = dynamics._taylor_terms, dynamics.taylor_order

        def terms(h0, k, scale, order):
            shapes.append(k.shape)
            return real_terms(h0, k, scale, order)

        def taylor_order(bound, parts, n_steps):
            counts.append(n_steps)
            return real_order(bound, parts, n_steps)

        monkeypatch.setattr(dynamics, "_taylor_terms", terms)
        monkeypatch.setattr(dynamics, "taylor_order", taylor_order)
        propagator_segments(config, basis)
        groups = dynamics.coupled_blocks(
            dynamics.field_coupling(basis, config.field))
        assert shapes == [(len(g), g.shape[1], g.shape[1]) for g in groups]
        ramp = config.window.ramp_cycles
        cycles = ramp + 0.5 if k0[1] == 0.0 else 2 * ramp + 1
        assert counts == [cycles * config.numerics.steps_per_cycle]

    @pytest.mark.parametrize("name, tol", [("fig2", 0.0), ("fig4", 1e-13)])
    def test_set_matches_its_spans_alone(self, name, tol):
        # on the fig2 preset the 5,632 steps of the set take the order of
        # each span alone, 8; on fig4 the half cycle's rises from 8 to 9
        config = with_plateau(figure_configs()[name][0], 1)
        basis = build_basis(config.numerics, config.field)
        ramp = config.window.ramp_cycles
        spans = [(0.0, ramp), (ramp, ramp + 0.5)]
        for span, (u, steps) in zip(spans, _integrate(basis, config, spans)):
            [(alone, alone_steps)] = _integrate(basis, config, [span])
            assert steps == alone_steps
            assert np.max(np.abs(u - alone)) <= tol


def eigh_product(basis, config, t0, t1):
    """The midpoint product with each step exponential taken from the
    eigendecomposition of the dense H: unitary to roundoff at any |dt|."""
    u = np.eye(basis.dim, dtype=complex)
    carriers, dt = dynamics.midpoint_steps(config, t0, t1)
    for c in carriers:
        w, v = np.linalg.eigh(assemble_hamiltonian(c, basis, config.field))
        u = (v * np.exp(-1j * w * dt)) @ v.conj().T @ u
    return u


def taylor_sum(a, order):
    """1 + sum_{j <= order} a^j / j!, summed term by term."""
    term = total = np.eye(a.shape[-1])
    for j in range(1, order + 1):
        term = term @ a / j
        total = total + term
    return total


def step_bound(basis, config):
    """b = |dt| (max|H0| + ||K||_1 + ||K^dag||_1) of one step of ``config``."""
    k = np.abs(dynamics.field_coupling(basis, config.field))
    dt = config.field.cycle_duration / config.numerics.steps_per_cycle
    return dt * (np.max(np.abs(basis.energies)) + k.sum(axis=0).max()
                 + k.sum(axis=1).max())


class TestTaylorBlocks:
    """Dense steps are Taylor polynomials on the connected components of
    K's nonzero pattern, checked against the eigh product."""

    CASES = {"fig2": ("fig2", (0.0, 0.0, 0.0), None),
             "fig4": ("fig4", (0.0, 0.0, 0.0), None),
             "fig2_k0z": ("fig2", (0.0, 0.0, 0.0013), None),
             "fig4_k0z": ("fig4", (0.0, 0.0, 0.0013), None),
             "fig2_transverse": ("fig2", (0.21, -0.13, 0.05), None),
             "fig4_transverse": ("fig4", (0.21, -0.13, 0.05), None),
             "fig2_alpha0": ("fig2", (0.0, 0.0, 0.0), 0.0)}

    # field change, squarings and tolerance of steps far past SUBSTEP_BOUND
    EXTREMES = {"e_peak_x40": ({"e_peak": 40 * FIG2_FIELD.e_peak}, 3, 1e-12),
                "omega_0.06": ({"omega": 0.06}, 5, 1e-12),
                "omega_1e-2": ({"omega": 1e-2}, 10, 5e-11)}

    @classmethod
    def extreme(cls, name):
        config = make_config(steps_per_cycle=16, ramp=2, plateau=1,
                             field=replace(FIG2_FIELD, **cls.EXTREMES[name][0]))
        return config, build_basis(config.numerics, config.field)

    @classmethod
    def case(cls, name, n_cut=2):
        preset, k0, alpha_plus = cls.CASES[name]
        config, _ = figure_configs()[preset]
        config = replace(config, numerics=replace(
            config.numerics, n_cut=n_cut, steps_per_cycle=64, k0_offset=k0))
        if alpha_plus is not None:
            config = replace(config, field=replace(config.field,
                                                   alpha_plus=alpha_plus))
        return config, build_basis(config.numerics, config.field)

    @pytest.mark.parametrize("n_cut", [2, 4])
    @pytest.mark.parametrize("name", ["fig2", "fig4", "fig2_k0z", "fig4_k0z"])
    def test_k0_along_z_splits_by_parity(self, name, n_cut):
        # P = (-1)^n sigma commutes with H(t) when k0 lies along z: two
        # halves, each of one parity
        config, basis = self.case(name, n_cut)
        (group,) = dynamics.coupled_blocks(
            dynamics.field_coupling(basis, config.field))
        assert group.shape == (2, basis.dim // 2)
        parity = (-1.0) ** basis.n * np.where(basis.spin_up, 1, -1)
        signs = sorted(tuple(set(parity[block])) for block in group)
        assert signs == [(-1.0,), (1.0,)]

    @pytest.mark.parametrize("name, sizes", [
        ("fig2_transverse", {20: 1}), ("fig4_transverse", {20: 1}),
        ("fig2_alpha0", {1: 4, 4: 4})])
    def test_block_sizes(self, name, sizes):
        config, basis = self.case(name)
        groups = dynamics.coupled_blocks(
            dynamics.field_coupling(basis, config.field))
        assert {g.shape[1]: len(g) for g in groups} == sizes
        assert np.array_equal(np.sort(np.concatenate(
            [g.ravel() for g in groups])), np.arange(basis.dim))

    @pytest.mark.parametrize("name, n_cut", [
        ("fig2", 4), ("fig4", 4), ("fig2", 1), ("fig2_alpha0", 2),
        ("fig2_transverse", 2)])
    def test_blocks_in_the_order_of_unique_rows(self, name, n_cut):
        # the components, their order and their modes' order are those of
        # np.unique over the rows of the closure, which they replaced
        config, basis = self.case(name, n_cut)
        k = dynamics.field_coupling(basis, config.field)
        reach = (k != 0) | (k.T != 0) | np.eye(basis.dim, dtype=bool)
        for _ in range(basis.dim.bit_length()):
            reach = reach @ reach
        rows = np.unique(reach, axis=0)
        expected = [np.nonzero(rows[rows.sum(1) == s])[1].reshape(-1, s)
                    for s in np.unique(rows.sum(1))]
        blocks = dynamics.coupled_blocks(k)
        assert len(blocks) == len(expected)
        for got, want in zip(blocks, expected):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("name", list(CASES))
    def test_hamiltonian_vanishes_between_blocks(self, name):
        config, basis = self.case(name)
        block_of = np.empty(basis.dim, dtype=int)
        blocks = [block for group in dynamics.coupled_blocks(
            dynamics.field_coupling(basis, config.field)) for block in group]
        for i, block in enumerate(blocks):
            block_of[block] = i
        apart = block_of[:, None] != block_of[None, :]
        rng = np.random.default_rng(7)
        for c in rng.normal(size=5) + 1j * rng.normal(size=5):
            h = assemble_hamiltonian(c, basis, config.field)
            assert np.all(h[apart] == 0.0)

    @pytest.mark.parametrize("name", list(CASES))
    def test_integrate_matches_eigh_product(self, name):
        config, basis = self.case(name)
        t1 = config.window.ramp_cycles + 1.0
        [(u, steps)] = _integrate(basis, config, [(0.0, t1)])
        assert steps == t1 * config.numerics.steps_per_cycle
        assert np.max(np.abs(u - eigh_product(basis, config, 0.0, t1))) <= 1e-11

    @pytest.mark.parametrize("name", list(EXTREMES))
    def test_extreme_steps_square_in_bounded_time(self, name):
        # 16 steps per cycle put ||-i dt H||_1 far past SUBSTEP_BOUND; the
        # squarings keep the cost to a few products per step.  Each squaring
        # doubles the roundoff of the step it squares: ten of them leave
        # about 5e-12 (b = 2446), where the eigh product stays at roundoff
        _, squarings, tol = self.EXTREMES[name]
        config, basis = self.extreme(name)
        bound = step_bound(basis, config)
        assert np.ceil(np.log2(bound / dynamics.SUBSTEP_BOUND)) == squarings
        total = float(config.window.total_cycles)
        start = time.perf_counter()
        [(u, _)] = _integrate(basis, config, [(0.0, total)])
        assert time.perf_counter() - start < 1.0
        assert np.max(np.abs(u - eigh_product(basis, config, 0.0, total))) <= tol
        assert unitarity_defect(u) <= tol

    @pytest.mark.parametrize("name", list(CASES) + list(EXTREMES))
    def test_expansion_in_c_matches_taylor_sum(self, name):
        # the span's coefficients give, at any |c| <= 1, the Taylor
        # polynomial of A = -i dt H(c) / 2^s that a direct sum gives, from
        # the real monomials of x = Re c and y = Im c
        config, basis = (self.case if name in self.CASES else self.extreme)(name)
        bound = step_bound(basis, config)
        parts = 2 ** int(np.ceil(np.log2(max(bound / dynamics.SUBSTEP_BOUND,
                                             1.0))))
        order = dynamics.taylor_order(bound, parts, config.window.total_cycles
                                      * config.numerics.steps_per_cycle)
        scale = (-1j * config.field.cycle_duration
                 / config.numerics.steps_per_cycle / parts)
        rng = np.random.default_rng(5)
        cs = np.concatenate([[0.0, 1.0, np.exp(2.1j)], np.sqrt(
            rng.uniform(size=6)) * np.exp(2j * np.pi * rng.uniform(size=6))])
        k = dynamics.field_coupling(basis, config.field)
        for b in dynamics.coupled_blocks(k):
            pair = (b[:, :, None], b[:, None, :])
            p, q, m = dynamics._taylor_terms(basis.energies[b], k[pair], scale,
                                             order)
            for c in cs:
                a = scale * assemble_hamiltonian(c, basis, config.field)[pair]
                expanded = np.tensordot(c.real ** p * c.imag ** q, m, axes=1)
                assert np.max(np.abs(np.eye(b.shape[1]) + expanded
                                     - taylor_sum(a, order))) <= 1e-14

    @pytest.mark.parametrize("name", ["fig2_k0z", "fig2_alpha0"])
    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_chunk_length_leaves_the_span_unchanged(self, monkeypatch, name,
                                                    chunk):
        # 83 steps, a prime: every chunk but 1 leaves a short last chunk, a
        # chunk of 1 is the sequential product, and the product trees of 3,
        # 7 and the default 64 (last chunk 19) carry an odd step up a level
        config, basis = self.case(name)
        [(u, steps)] = _integrate(basis, config, [(0.0, 1.3)])
        monkeypatch.setattr(dynamics, "_CHUNK", chunk)
        [(again, _)] = _integrate(basis, config, [(0.0, 1.3)])
        assert steps == 83
        assert np.max(np.abs(again - u)) <= 1e-14

    def test_integrate_reads_the_oracle_carriers(self, monkeypatch):
        # one carrier call per span, and over the window the dense chain and
        # the Fock oracle step through the same carriers, bit for bit
        config = make_config(n_cut=1, steps_per_cycle=32)
        basis = build_basis(config.numerics, config.field)
        total = float(config.window.total_cycles)
        consumed, given = [], []
        real_carrier = dynamics.carrier
        real_steps = fockoracle.midpoint_steps

        def carrier_at(*args):
            consumed.append(real_carrier(*args))
            return consumed[-1]

        def oracle_steps(*args):
            given.append(real_steps(*args))
            return given[-1]

        monkeypatch.setattr(dynamics, "carrier", carrier_at)
        _integrate(basis, config, [(0.0, total)])
        monkeypatch.setattr(dynamics, "carrier", real_carrier)
        monkeypatch.setattr(fockoracle, "midpoint_steps", oracle_steps)
        fockoracle.propagate_vacuum(config, basis)
        assert len(consumed) == len(given) == 1
        assert consumed[0].shape == (total * 32,)
        assert np.array_equal(consumed[0], given[0][0])

    @staticmethod
    def fig2_ramp():
        """(basis, config, ramp) of the fig2 preset: n_cut 4, 1024 steps per
        cycle, a turn-on of 5,120 steps."""
        config, _ = figure_configs()["fig2"]
        assert config.numerics.n_cut == 4
        basis = build_basis(config.numerics, config.field)
        return basis, with_plateau(config, 1), config.window.ramp_cycles

    def test_fig2_ramp_stays_unitary(self):
        # the 1 of every step is added apart from the expanded terms; folded
        # into them, its rounding repeats at every step and the defect grows
        # coherently (5e-13 measured, against 4e-14)
        basis, config, ramp = self.fig2_ramp()
        [(u, _)] = _integrate(basis, config, [(0.0, ramp)])
        assert unitarity_defect(u) <= 1e-13

    def test_fig2_ramp_memory_is_bounded(self):
        # the steps of one chunk live at once: 64 of them peak near 2 MB,
        # 256 near 6 MB
        basis, config, ramp = self.fig2_ramp()
        _integrate(basis, config, [(0.0, 0.01)])    # numpy's first-call allocations
        tracemalloc.start()
        try:
            _integrate(basis, config, [(0.0, ramp)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4e6


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

