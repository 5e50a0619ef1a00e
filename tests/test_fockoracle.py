import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from diracpairs import (FieldParams, FockBasis, FockDimensionError,
                        HelicityRelation, assemble_hamiltonian, envelope,
                        NumericsParams, RunConfig, WindowParams, build_basis,
                        extract_g_blocks, field_from_si, multi_pair_amplitude,
                        pair_amplitudes, propagate, propagate_vacuum,
                        read_amplitude, second_quantize,
                        sector_observables, sector_probabilities_exact,
                        vacuum_amplitude, vacuum_overlap, amplitude_table)
from diracpairs.dynamics import field_coupling
from diracpairs.fockoracle import ManyBodyState, _ket_sign
from diracpairs.physconfig import validate

FIG2_FIELD = field_from_si(4.9e17, 0.746, 0.2 * math.pi / 4,
                           HelicityRelation.SAME)


def small_config(plateau=1, ramp=1, steps_per_cycle=96):
    return RunConfig(
        field=FIG2_FIELD,
        window=WindowParams(ramp_cycles=ramp, plateau_cycles=plateau),
        numerics=NumericsParams(n_cut=1, steps_per_cycle=steps_per_cycle))


class TestFockBasis:
    def test_charge_zero_dimension(self):
        fock = FockBasis(6, 6)
        assert fock.dim == sum(math.comb(6, n) ** 2 for n in range(7))
        assert fock.dim == math.comb(12, 6)

    def test_index_round_trip(self):
        fock = FockBasis(3, 3)
        for i, (e, p) in enumerate(fock.patterns):
            assert fock.index(e, p) == i
            assert e.bit_count() == p.bit_count() == fock.pair_count(i)


class TestKetConvention:
    def test_sign_closed_form(self):
        # applying ascending electron creators then descending positron
        # creators gives sign (-1)^{N(N+1)/2}
        for n in range(1, 5):
            electrons = list(range(n))
            positrons = list(range(n))
            e, p, sign = _ket_sign(electrons, positrons)
            assert e.bit_count() == p.bit_count() == n
            assert sign == (-1) ** (n * (n + 1) // 2)

    def test_repeated_label_returns_none(self):
        assert _ket_sign([0, 0], [0, 1]) is None
        assert _ket_sign([0, 1], [2, 2]) is None


class TestSecondQuantize:
    def basis(self):
        return build_basis(NumericsParams(n_cut=1), FIG2_FIELD)

    def test_free_hamiltonian_vacuum_phase(self):
        # free evolution: the scalar tr(H--) drives the vacuum phase
        basis = self.basis()
        h = np.diag(basis.energies).astype(complex)
        h_many = second_quantize(h, basis)
        fock = FockBasis(basis.n_electron_modes, basis.n_positron_modes)
        vac_idx = fock.index(0, 0)
        tr_minus = basis.energies[basis.minus_indices].sum()
        assert h_many[vac_idx, vac_idx] == pytest.approx(tr_minus, rel=1e-14)
        t = 0.37
        u = expm(-1j * t * h_many.toarray())
        assert u[vac_idx, vac_idx] == pytest.approx(
            np.exp(-1j * tr_minus * t), abs=1e-12)

    def test_free_many_body_energies(self):
        # diagonal entries are (sum of occupied |E|) + tr(H--)
        basis = self.basis()
        h = np.diag(basis.energies).astype(complex)
        h_many = second_quantize(h, basis).toarray()
        fock = FockBasis(basis.n_electron_modes, basis.n_positron_modes)
        e_plus = basis.energies[basis.plus_indices]
        e_minus = basis.energies[basis.minus_indices]
        off_diag = h_many - np.diag(np.diag(h_many))
        assert np.max(np.abs(off_diag)) == 0.0
        for i, (e_bits, p_bits) in enumerate(fock.patterns):
            expected = e_minus.sum()
            expected += sum(e_plus[m] for m in range(6) if e_bits >> m & 1)
            expected -= sum(e_minus[n] for n in range(6) if p_bits >> n & 1)
            assert h_many[i, i] == pytest.approx(expected, rel=1e-13)

    def test_hermiticity(self):
        basis = self.basis()
        rng = np.random.default_rng(21)
        z = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        h = (z + z.conj().T) / 2
        h_many = second_quantize(h, basis).toarray()
        assert np.max(np.abs(h_many - h_many.conj().T)) < 1e-12

    def test_single_coupling_selection(self):
        # one +- matrix element: only pair creation/annihilation between the
        # corresponding modes (plus the scalar diagonal)
        basis = self.basis()
        h = np.zeros((12, 12), dtype=complex)
        m, n = 2, 1  # electron half-index 2, positron half-index 1
        v = 0.3 + 0.1j
        h[basis.plus_indices[m], basis.minus_indices[n]] = v
        h[basis.minus_indices[n], basis.plus_indices[m]] = v.conjugate()
        h_many = second_quantize(h, basis).tocoo()
        fock = FockBasis(6, 6)
        for r, c, val in zip(h_many.row, h_many.col, h_many.data):
            if r == c:
                continue  # scalar tr(H--) = 0 here, so none expected anyway
            e_r, p_r = fock.patterns[r]
            e_c, p_c = fock.patterns[c]
            assert e_r ^ e_c == 1 << m
            assert p_r ^ p_c == 1 << n
            assert abs(val) == pytest.approx(abs(v), rel=1e-14)

    def test_dimension_cap(self):
        basis = build_basis(NumericsParams(n_cut=2), FIG2_FIELD)
        with pytest.raises(FockDimensionError, match="hard cap"):
            second_quantize(np.zeros((20, 20), dtype=complex), basis)


class TestTwoModeToy:
    """Constant single-particle H over one +/- mode pair, solved by hand.

    With coupling v between one positive and one negative mode, the
    determinant path must reproduce the exact many-body amplitudes
    including the sign that comes from the b+ a+ ordering of the pair ket.
    """

    def setup_method(self):
        self.basis = build_basis(NumericsParams(n_cut=1), FIG2_FIELD)
        self.h = np.diag(self.basis.energies).astype(complex)
        self.m, self.n = 0, 0
        self.v = 0.45 - 0.2j
        i_plus = self.basis.plus_indices[self.m]
        i_minus = self.basis.minus_indices[self.n]
        self.h[i_plus, i_minus] = self.v
        self.h[i_minus, i_plus] = self.v.conjugate()
        self.t = 1.7

    def evolve(self):
        fock = FockBasis(6, 6)
        h_many = second_quantize(self.h, self.basis)
        psi = np.zeros(fock.dim, dtype=complex)
        psi[fock.index(0, 0)] = 1.0
        psi = expm(-1j * self.t * h_many.toarray()) @ psi
        return ManyBodyState(amplitudes=psi, fock=fock)

    def test_matches_determinant_path_with_sign(self):
        state = self.evolve()
        u_single = expm(-1j * self.t * self.h)
        plus, minus = self.basis.plus_indices, self.basis.minus_indices
        from diracpairs import GBlocks
        g = GBlocks(g_pm=u_single[np.ix_(plus, minus)],
                    g_mm=u_single[np.ix_(minus, minus)])
        pa = pair_amplitudes(g)
        vac = vacuum_amplitude(g)
        assert vacuum_overlap(state) == pytest.approx(vac.c_v, abs=1e-12)
        fock_amp = read_amplitude(state, [self.m], [self.n])
        det_amp = multi_pair_amplitude(pa, vac, [self.m], [self.n])
        assert fock_amp == pytest.approx(det_amp, abs=1e-12)
        assert abs(fock_amp) > 1e-3  # the toy actually creates pairs

    def test_two_level_closed_form(self):
        # the pair sector reduces to a 2x2 Rabi problem over the patterns
        # {vacuum, (e_m, p_n)}; a+_m b+_n |0> = +(pattern vector), so the
        # pattern-basis coupling is +v, and the ket b+ a+ |0> flips sign
        state = self.evolve()
        e_plus = self.basis.energies[self.basis.plus_indices[self.m]]
        e_minus = self.basis.energies[self.basis.minus_indices[self.n]]
        tr_minus = self.basis.energies[self.basis.minus_indices].sum()
        h2 = np.array([[tr_minus, np.conj(self.v)],
                       [self.v, tr_minus + e_plus - e_minus]])
        u2 = expm(-1j * self.t * h2)
        assert vacuum_overlap(state) == pytest.approx(u2[0, 0], abs=1e-12)
        ket_sign = -1.0  # b+ a+ |0> = -(pattern basis vector)
        assert read_amplitude(state, [self.m], [self.n]) == pytest.approx(
            ket_sign * u2[1, 0], abs=1e-12)


class TestPropagateVacuum:
    def test_zero_field_stays_vacuum_with_sea_phase(self):
        config = small_config()
        field = replace(config.field, e_peak=0.0)
        config = replace(config, field=field)
        basis = build_basis(config.numerics, config.field)
        state = propagate_vacuum(config, basis)
        overlap = vacuum_overlap(state)
        duration = config.window.total_cycles * config.field.cycle_duration
        tr_minus = basis.energies[basis.minus_indices].sum()
        assert abs(overlap) == pytest.approx(1.0, abs=1e-10)
        assert overlap == pytest.approx(np.exp(-1j * tr_minus * duration),
                                        abs=1e-9)

    def test_norm_conserved(self):
        config = small_config()
        basis = build_basis(config.numerics, config.field)
        state = propagate_vacuum(config, basis)
        assert state.norm_drift < 1e-10

    def test_vacuum_probability_matches_determinant(self):
        config = small_config()
        basis = build_basis(config.numerics, config.field)
        state = propagate_vacuum(config, basis)
        u = propagate(config, basis)
        g = extract_g_blocks(u, basis, config)
        vac = vacuum_amplitude(g)
        assert abs(vacuum_overlap(state)) ** 2 == pytest.approx(
            vac.probability, abs=1e-8)

    def test_charge_conservation_structural(self):
        config = small_config()
        basis = build_basis(config.numerics, config.field)
        fock = FockBasis(6, 6)
        t = 0.9 * config.field.cycle_duration
        coupling = (envelope(0.9, config.window)
                    * np.exp(-1j * config.field.omega * t))
        h = assemble_hamiltonian(coupling, basis, config.field)
        h_many = second_quantize(h, basis, fock).tocoo()
        for r, c in zip(h_many.row, h_many.col):
            assert fock.patterns[r][0].bit_count() == fock.patterns[r][1].bit_count()
            assert fock.patterns[c][0].bit_count() == fock.patterns[c][1].bit_count()

    def test_linear_in_the_field_coupling(self):
        # Gamma(H0) + c Gamma(K) + conj(c) Gamma(K)^dag, the operator the
        # oracle steps with, is Gamma(H) of the assembled H
        config = small_config()
        basis = build_basis(config.numerics, config.field)
        fock = FockBasis(6, 6)
        h0 = second_quantize(np.diag(basis.energies).astype(complex), basis, fock)
        k = second_quantize(field_coupling(basis, config.field), basis, fock)
        rng = np.random.default_rng(8)
        for c in rng.normal(size=4) + 1j * rng.normal(size=4):
            combined = (h0 + c * k + np.conj(c) * k.conj().T).toarray()
            h = assemble_hamiltonian(c, basis, config.field)
            direct = second_quantize(h, basis, fock).toarray()
            assert np.max(np.abs(combined - direct)) < 1e-13


class TestReadAmplitude:
    def make_state(self):
        fock = FockBasis(3, 3)
        rng = np.random.default_rng(33)
        amp = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
        return ManyBodyState(amplitudes=amp, fock=fock)

    def test_vacuum_has_no_pairs(self):
        fock = FockBasis(3, 3)
        amp = np.zeros(fock.dim, dtype=complex)
        amp[fock.index(0, 0)] = 1.0
        state = ManyBodyState(amplitudes=amp, fock=fock)
        assert read_amplitude(state, [0], [1]) == 0.0

    def test_repeated_label_bitwise_zero(self):
        state = self.make_state()
        assert read_amplitude(state, [1, 1], [0, 2]) == 0.0

    def test_unknown_label(self):
        state = self.make_state()
        with pytest.raises(ValueError, match="unknown"):
            read_amplitude(state, [7], [0])

    def test_amplitude_table_covers_all_sectors(self):
        state = self.make_state()
        rows = amplitude_table(state)
        counts = {}
        for n, es, ps, amp in rows:
            counts[n] = counts.get(n, 0) + 1
        assert counts == {1: 9, 2: 9, 3: 1}


def cross_path_differences(config):
    """(max |determinant-path - oracle| over C_v and all N <= 2 amplitudes,
    max |c_N - sector_probabilities_exact|) on an n_cut = 1 run."""
    basis = build_basis(config.numerics, config.field)
    g = extract_g_blocks(propagate(config, basis), basis, config)
    pa = pair_amplitudes(g)
    vac = vacuum_amplitude(g)
    state = propagate_vacuum(config, basis)

    worst = abs(vacuum_overlap(state) - vac.c_v)
    for n in (1, 2):
        for es in combinations(range(6), n):
            for ps in combinations(range(6), n):
                det_amp = multi_pair_amplitude(pa, vac, es, ps)
                fock_amp = read_amplitude(state, es, ps)
                worst = max(worst, abs(det_amp - fock_amp))
    numerics = replace(config.numerics, prune_threshold=0.0, n_sector_max=6)
    rep = sector_observables(pa, vac, basis, numerics)
    exact = sector_probabilities_exact(state)
    return worst, float(np.max(np.abs(rep.c - exact)))


class TestCrossPathEquivalence:
    def test_amplitudes_and_sectors_agree(self):
        # the oracle's reason to exist: determinant path vs exact Fock
        # propagation on a shared small run, signs included
        amplitudes, sectors = cross_path_differences(
            small_config(plateau=1, ramp=1, steps_per_cycle=96))
        assert amplitudes < 1e-8
        assert sectors < 1e-8


@st.composite
def oracle_configs(draw):
    """Small runs around the two presets: either helicity relation, any
    polarization angle, k0 shifted along z and, in about a third of the
    draws, transverse (k0_y != 0 disables the time-reversal fold).

    The values come from a drawn seed, which spreads 20 examples over the
    whole box more evenly than hypothesis's own mutations of a few."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    transverse = rng.integers(3) == 0
    relation = rng.choice(list(HelicityRelation))
    alpha_plus = rng.uniform(0.0, math.pi / 2)
    field = FieldParams(omega=rng.uniform(0.45, 0.78),
                        e_peak=rng.uniform(0.2, 0.4),
                        alpha_plus=alpha_plus,
                        helicity_relation=relation)
    k0 = (0.0, 0.0, rng.uniform(-0.05, 0.05))
    if transverse:
        k0 = (rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2), k0[2])
    return validate(RunConfig(
        field=field,
        window=WindowParams(ramp_cycles=int(rng.integers(1, 3)),
                            plateau_cycles=int(rng.integers(0, 4))),
        numerics=NumericsParams(n_cut=1, steps_per_cycle=32,
                                k0_offset=tuple(map(float, k0)))))


class TestOracleProperty:
    # the composed (and, where the symmetry holds, folded) determinant path
    # against the oracle, which steps the same grid through the whole window
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(config=oracle_configs())
    def test_determinant_path_matches_oracle(self, config):
        amplitudes, sectors = cross_path_differences(config)
        assert amplitudes <= 1e-10
        assert sectors <= 1e-10
