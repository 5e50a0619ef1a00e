import math
from dataclasses import replace
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

import diracpairs.dynamics as dynamics_mod
import diracpairs.fockoracle as fockoracle_mod
from diracpairs import (FieldParams, FockBasis, FockDimensionError,
                        HelicityRelation, NormDriftError, assemble_hamiltonian,
                        envelope, figure_configs,
                        NumericsParams, RunConfig, WindowParams, build_basis,
                        extract_g_blocks, field_from_si, multi_pair_amplitude,
                        propagate, propagate_vacuum,
                        read_amplitude, second_quantize, ValidationError,
                        sector_observables, sector_probabilities_exact,
                        vacuum_amplitude, vacuum_overlap, amplitude_table)
from diracpairs.dynamics import field_coupling, midpoint_steps
from diracpairs.fockoracle import ManyBodyState, _ket_sign
from diracpairs.physconfig import validate

FIG2_FIELD = field_from_si(4.9e17, 0.746, 0.2 * math.pi / 4,
                           HelicityRelation.SAME)


def small_config(plateau=1, ramp=1, steps_per_cycle=96):
    return RunConfig(
        field=FIG2_FIELD,
        window=WindowParams(ramp_cycles=ramp, plateau_cycles=plateau),
        numerics=NumericsParams(n_cut=1, steps_per_cycle=steps_per_cycle))


def oracle_basis():
    """The n_cut = 1 mode table: 12 modes, plus and minus interleaved."""
    return build_basis(NumericsParams(n_cut=1), FIG2_FIELD)


def fock_of(basis):
    return FockBasis(basis.plus_indices, basis.minus_indices)


def dense(triplets, dim):
    """The dim x dim matrix of ``second_quantize``'s (rows, cols, values)."""
    rows, cols, values = triplets
    m = np.zeros((dim, dim), dtype=complex)
    np.add.at(m, (rows, cols), values)
    return m


def csr(triplets, dim):
    """The same matrix as scipy CSR, for scipy's sparse reference stepping."""
    rows, cols, values = triplets
    return sparse.csr_matrix((values, (rows, cols)), shape=(dim, dim))


def block_fock(m):
    """m electron modes 0..m-1, then m positron modes m..2m-1."""
    return FockBasis(range(m), range(m, 2 * m))


def dense_annihilators(d):
    """Textbook Jordan-Wigner c_i over all 2^d occupations, the state
    index being the mask (bit i = mode i): Z on the modes before i."""
    lower, z, one = (sparse.csr_matrix(np.array(m, dtype=float)) for m in
                     ([[0, 1], [0, 0]], [[1, 0], [0, -1]], [[1, 0], [0, 1]]))
    ops = []
    for i in range(d):
        c = sparse.csr_matrix(np.ones((1, 1)))
        for k in reversed(range(d)):    # most significant bit first
            c = sparse.kron(c, one if k > i else lower if k == i else z,
                            format="csr")
        ops.append(c)
    return ops


class TestFockBasis:
    def test_charge_zero_dimension(self):
        fock = fock_of(oracle_basis())
        assert fock.dim == sum(math.comb(6, n) ** 2 for n in range(7))
        assert fock.dim == math.comb(12, 6)
        # N pairs: N of 6 electron modes filled and N of 6 sea modes emptied
        assert np.bincount(fock.pair_counts).tolist() == [
            math.comb(6, n) ** 2 for n in range(7)]

    def test_index_round_trip(self):
        fock = FockBasis([0, 1, 4], [2, 3, 5])
        assert np.array_equal(fock.index[fock.masks], np.arange(fock.dim))
        assert np.count_nonzero(fock.index >= 0) == fock.dim == math.comb(6, 3)
        assert fock.masks[fock.index[fock.sea]] == 0b101100
        for mask, occ, pairs in zip(fock.masks.tolist(), fock.occupations,
                                    fock.pair_counts):
            assert mask.bit_count() == 3
            assert occ.tolist() == [mask >> i & 1 for i in range(6)]
            electrons = sum(mask >> i & 1 for i in fock.plus)
            holes = sum(1 - (mask >> i & 1) for i in fock.minus)
            assert electrons == holes == pairs


class TestKetConvention:
    def test_sign_closed_form(self):
        # electrons ahead of positrons in the mode order: the ascending
        # electron creators c+_m pass m electrons, the descending positron
        # creators c_{M+n} pass N electrons and n sea modes, so the ket
        # b+_{n1}..b+_{nN} a+_{mN}..a+_{m1} |0> is (-1)^N times its mask
        m = 5
        fock = block_fock(m)
        for n in range(1, m + 1):
            bits, sign = _ket_sign(fock, list(range(n)), list(range(n)))
            assert bits == fock.sea ^ ((1 << n) - 1) ^ (((1 << n) - 1) << m)
            assert sign == (-1) ** n

    def test_repeated_label_returns_none(self):
        fock = block_fock(3)
        assert _ket_sign(fock, [0, 0], [0, 1]) is None
        assert _ket_sign(fock, [0, 1], [2, 2]) is None
        assert _ket_sign(fock, [1, 0], [2, 1]) is not None

    def test_matches_dense_operator_products(self):
        # the ket from the textbook operators on the interleaved n_cut = 1
        # table, label lists in any order: sign times the basis vector
        basis = oracle_basis()
        fock = fock_of(basis)
        c = dense_annihilators(basis.dim)
        rng = np.random.default_rng(4)
        for _ in range(12):
            n = int(rng.integers(1, 4))
            electrons = rng.permutation(6)[:n].tolist()
            positrons = rng.permutation(6)[:n].tolist()
            ket = np.zeros(1 << basis.dim)
            ket[fock.sea] = 1.0
            for m in electrons:                  # a+_m = c+_plus[m]
                ket = c[fock.plus[m]].T @ ket
            for p in reversed(positrons):        # b+_n = c_minus[n]
                ket = c[fock.minus[p]] @ ket
            bits, sign = _ket_sign(fock, electrons, positrons)
            expected = np.zeros(1 << basis.dim)
            expected[bits] = sign
            assert np.array_equal(ket, expected)


class TestSecondQuantize:
    def basis(self):
        return oracle_basis()

    def test_free_hamiltonian_vacuum_phase(self):
        # free evolution: the sea's energy tr(H--) drives the vacuum phase
        basis = self.basis()
        h = np.diag(basis.energies).astype(complex)
        fock = fock_of(basis)
        h_many = dense(second_quantize(h, basis), fock.dim)
        vac_idx = fock.index[fock.sea]
        tr_minus = basis.energies[basis.minus_indices].sum()
        assert h_many[vac_idx, vac_idx] == pytest.approx(tr_minus, rel=1e-14)
        t = 0.37
        u = expm(-1j * t * h_many)
        assert u[vac_idx, vac_idx] == pytest.approx(
            np.exp(-1j * tr_minus * t), abs=1e-12)

    def test_free_many_body_energies(self):
        # diagonal entries are tr(H--) + sum over electrons of E
        # - sum over holes in the sea of E, each |E| counted positive
        basis = self.basis()
        h = np.diag(basis.energies).astype(complex)
        fock = fock_of(basis)
        triplets = second_quantize(h, basis)
        h_many = dense(triplets, fock.dim)
        e_plus = basis.energies[basis.plus_indices]
        e_minus = basis.energies[basis.minus_indices]
        off_diag = h_many - np.diag(np.diag(h_many))
        assert np.max(np.abs(off_diag)) == 0.0
        # one stored entry per state whose energy is nonzero, each summed
        # once (in some states the occupied +E and -E modes cancel exactly)
        rows, cols, _ = triplets
        assert np.array_equal(rows, cols)
        assert np.array_equal(rows, np.flatnonzero(np.diag(h_many)))
        for i, mask in enumerate(fock.masks.tolist()):
            expected = e_minus.sum()
            expected += sum(e_plus[m] for m in range(6)
                            if mask >> fock.plus[m] & 1)
            expected -= sum(e_minus[n] for n in range(6)
                            if not mask >> fock.minus[n] & 1)
            assert h_many[i, i] == pytest.approx(expected, rel=1e-13)

    def test_hermiticity(self):
        basis = self.basis()
        rng = np.random.default_rng(21)
        z = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        h = (z + z.conj().T) / 2
        h_many = dense(second_quantize(h, basis), fock_of(basis).dim)
        assert np.max(np.abs(h_many - h_many.conj().T)) < 1e-12

    def test_single_coupling_selection(self):
        # one +- matrix element: only pair creation/annihilation between the
        # corresponding modes, and no diagonal (tr(H--) = 0 stores nothing)
        basis = self.basis()
        h = np.zeros((12, 12), dtype=complex)
        m, n = 2, 1  # electron half-index 2, positron half-index 1
        v = 0.3 + 0.1j
        h[basis.plus_indices[m], basis.minus_indices[n]] = v
        h[basis.minus_indices[n], basis.plus_indices[m]] = v.conjugate()
        rows, cols, values = second_quantize(h, basis)
        fock = fock_of(basis)
        pair = (1 << int(basis.plus_indices[m])) | (1 << int(basis.minus_indices[n]))
        # creation from every state with plus[m] empty and minus[n] filled
        # (5 particles over the other 10 modes), and back
        assert len(rows) == 2 * math.comb(10, 5)
        for r, c, val in zip(rows, cols, values):
            assert fock.masks[r] ^ fock.masks[c] == pair
            assert abs(val) == pytest.approx(abs(v), rel=1e-14)

    def test_matches_dense_jordan_wigner(self):
        # sum_ij h_ij c+_i c_j from the textbook operators on all 2^12
        # occupations, restricted to the sector: equal to roundoff
        basis = self.basis()
        rng = np.random.default_rng(5)
        z = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        h = (z + z.conj().T) / 2
        fock = fock_of(basis)
        c = dense_annihilators(basis.dim)
        full = sum(h[i, j] * (c[i].T.tocsr() @ c[j])
                   for i in range(12) for j in range(12))
        sector = full[fock.masks][:, fock.masks].toarray()
        h_many = dense(second_quantize(h, basis, fock), fock.dim)
        assert np.max(np.abs(h_many - sector)) < 1e-13

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
        fock = fock_of(self.basis)
        h_many = csr(second_quantize(self.h, self.basis), fock.dim)
        psi = np.zeros(fock.dim, dtype=complex)
        psi[fock.index[fock.sea]] = 1.0
        psi = expm_multiply(-1j * self.t * h_many, psi)
        return ManyBodyState(amplitudes=psi, fock=fock)

    def test_matches_determinant_path_with_sign(self):
        state = self.evolve()
        u_single = expm(-1j * self.t * self.h)
        plus, minus = self.basis.plus_indices, self.basis.minus_indices
        from diracpairs import GBlocks
        g = GBlocks(g_pm=u_single[np.ix_(plus, minus)],
                    g_mm=u_single[np.ix_(minus, minus)])
        assert vacuum_overlap(state) == pytest.approx(
            multi_pair_amplitude(g, [], []), abs=1e-12)
        fock_amp = read_amplitude(state, [self.m], [self.n])
        det_amp = multi_pair_amplitude(g, [self.m], [self.n])
        assert fock_amp == pytest.approx(det_amp, abs=1e-12)
        assert abs(fock_amp) > 1e-3  # the toy actually creates pairs

    def closed_form(self):
        """(<0|out>, <b+_n a+_m 0|out>) of the 2x2 Rabi problem."""
        # the pair sector reduces to a 2x2 Rabi problem over
        # {|0>, a+_m b+_n |0>}, where the coupling is +v (the h_mn a+_m b+_n
        # term of Gamma(h)), and the ket b+ a+ |0> flips sign
        e_plus = self.basis.energies[self.basis.plus_indices[self.m]]
        e_minus = self.basis.energies[self.basis.minus_indices[self.n]]
        tr_minus = self.basis.energies[self.basis.minus_indices].sum()
        h2 = np.array([[tr_minus, np.conj(self.v)],
                       [self.v, tr_minus + e_plus - e_minus]])
        u2 = expm(-1j * self.t * h2)
        ket_sign = -1.0  # b+ a+ |0> = -a+ b+ |0>
        return u2[0, 0], ket_sign * u2[1, 0]

    def test_two_level_closed_form(self):
        state = self.evolve()
        vacuum, pair = self.closed_form()
        assert vacuum_overlap(state) == pytest.approx(vacuum, abs=1e-12)
        assert read_amplitude(state, [self.m], [self.n]) == pytest.approx(
            pair, abs=1e-12)

    @pytest.mark.parametrize("n_steps", [1, 3])
    def test_oracle_stepping_reaches_closed_form(self, monkeypatch, n_steps):
        # the toy's constant h as the oracle's H0 + c K + conj(c) K^dag with
        # c = v, stepped by propagate_vacuum: its Taylor order and sub-step
        # rule (b = 13.6 for the single step, so 4 sub-steps) must reach
        # the closed form; a looser truncation target drops terms, and the
        # norm gate sees it
        k = np.zeros_like(self.h)
        k[self.basis.plus_indices[self.m], self.basis.minus_indices[self.n]] = 1
        monkeypatch.setattr(fockoracle_mod, "field_coupling", lambda *_: k)
        monkeypatch.setattr(fockoracle_mod, "midpoint_steps", lambda *_: (
            np.full(n_steps, self.v, dtype=complex), self.t / n_steps))
        vacuum, pair = self.closed_form()
        state = propagate_vacuum(small_config(), self.basis)
        assert vacuum_overlap(state) == pytest.approx(vacuum, abs=1e-12)
        assert read_amplitude(state, [self.m], [self.n]) == pytest.approx(
            pair, abs=1e-12)
        # the one Taylor rule lives in dynamics, shared with the dense steps
        monkeypatch.setattr(dynamics_mod, "TAYLOR_TOL", 1e-4)
        with pytest.raises(NormDriftError, match="norm drift"):
            propagate_vacuum(small_config(), self.basis)


def bench_oracle_config():
    """The benchmark's oracle_check input at seed 0: fig2 at n_cut 1 and 256
    steps per cycle over ramp 1 and plateau 2, b = 0.366."""
    config = figure_configs()["fig2"][0]
    return validate(replace(
        config, window=WindowParams(ramp_cycles=1, plateau_cycles=2),
        numerics=replace(config.numerics, n_cut=1, steps_per_cycle=256,
                         prune_threshold=0.0, n_sector_max=6)))


def stepping_terms(config, basis):
    """(Fock basis, Gamma(H0), Gamma(K) as scipy CSR, the whole window's
    carriers, dt)."""
    fock = fock_of(basis)
    h0, k = (csr(second_quantize(h, basis, fock), fock.dim) for h in
             (np.diag(basis.energies).astype(complex),
              field_coupling(basis, config.field)))
    carriers, dt = midpoint_steps(config, 0.0,
                                  float(config.window.total_cycles))
    return fock, h0, k, carriers, dt


def step_bound(config, basis):
    """|dt| (||Gamma(H0)||_1 + max|c| (||Gamma(K)||_1 + ||Gamma(K)^dag||_1))
    over the midpoint steps of the whole window."""
    _, h0, k, carriers, dt = stepping_terms(config, basis)
    return abs(dt) * (abs(h0).sum(axis=0).max() + np.abs(carriers).max()
                      * (abs(k).sum(axis=0).max() + abs(k).sum(axis=1).max()))


def expm_multiply_state(config, basis):
    """The vacuum stepped by scipy's expm_multiply, one call per midpoint
    step: the stepping the fixed-order Taylor loop replaced."""
    fock, h0, k, carriers, dt = stepping_terms(config, basis)
    k_dag = k.conj().T.tocsr()
    psi = np.zeros(fock.dim, dtype=complex)
    psi[fock.index[fock.sea]] = 1.0
    for c in carriers:
        psi = expm_multiply(-1j * dt * (h0 + c * k + np.conj(c) * k_dag), psi)
    return psi


class TestPropagateVacuum:
    @pytest.mark.parametrize("make_config, splits", [
        (bench_oracle_config, False),
        (lambda: oracle_config(1), True),       # b = 6.74 over 160 steps
    ], ids=["bench-input", "past-substep-bound"])
    def test_matches_expm_multiply_stepping(self, make_config, splits):
        config = make_config()
        basis = build_basis(config.numerics, config.field)
        bound = step_bound(config, basis)
        assert (bound > dynamics_mod.SUBSTEP_BOUND) == splits
        state = propagate_vacuum(config, basis)
        reference = expm_multiply_state(config, basis)
        assert np.max(np.abs(state.amplitudes - reference)) <= 1e-13

    def test_amplitudes_outside_the_reachable_sector_are_zero(self):
        # the states that Gamma(H0), Gamma(K) and Gamma(K)^dag connect to
        # the sea, by a dense boolean closure: 400 of the 924 on the bench
        # input, and no amplitude outside them
        config = bench_oracle_config()
        basis = build_basis(config.numerics, config.field)
        fock, h0, k, _, _ = stepping_terms(config, basis)
        pattern = (h0 != 0) + (k != 0) + (k.T != 0)
        reached = np.zeros(fock.dim, dtype=bool)
        reached[fock.index[fock.sea]] = True
        while (grown := reached | (pattern @ reached > 0)).sum() > reached.sum():
            reached = grown
        assert np.count_nonzero(reached) == 400
        state = propagate_vacuum(config, basis)
        assert np.all(state.amplitudes[~reached] == 0)
        assert np.count_nonzero(state.amplitudes) == 400

    def test_non_finite_hamiltonian_refused(self):
        # validate accepts k0 = 1e200, whose energies overflow to inf
        config = figure_configs()["fig2"][0]
        config = validate(replace(config, numerics=replace(
            config.numerics, n_cut=1, k0_offset=(0.0, 0.0, 1e200))))
        basis = build_basis(config.numerics, config.field)
        with pytest.raises(NormDriftError, match="H0 or K is not finite"):
            propagate_vacuum(config, basis)

    def test_window_past_the_step_limit_refused_before_allocating(
            self, monkeypatch):
        # the library call holds the oracle-check limit: 2^40 plateau
        # cycles asked numpy for 8 PiB of carriers
        config = bench_oracle_config()
        config = replace(config, window=replace(config.window,
                                                plateau_cycles=2 ** 40))
        basis = build_basis(config.numerics, config.field)
        calls = []
        monkeypatch.setattr(fockoracle_mod, "midpoint_steps",
                            lambda *args: calls.append(args))
        with pytest.raises(ValidationError,
                           match="^config.numerics.steps_per_cycle: times "
                                 "window.total_cycles must be <= 2"):
            propagate_vacuum(config, basis)
        assert calls == []

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
        # every entry joins states with as many electrons as sea holes, and
        # one term c+_i c_j creates or annihilates at most one pair
        config = small_config()
        basis = build_basis(config.numerics, config.field)
        fock = fock_of(basis)
        t = 0.9 * config.field.cycle_duration
        coupling = (envelope(0.9, config.window)
                    * np.exp(-1j * config.field.omega * t))
        h = assemble_hamiltonian(coupling, basis, config.field)
        rows, cols, _ = second_quantize(h, basis, fock)
        occ = fock.occupations
        electrons = occ[:, fock.plus].sum(axis=1)
        holes = (1 - occ[:, fock.minus]).sum(axis=1)
        for r, c in zip(rows, cols):
            assert electrons[r] == holes[r] and electrons[c] == holes[c]
            assert abs(electrons[r] - electrons[c]) <= 1
            assert bin(fock.masks[r] ^ fock.masks[c]).count("1") in (0, 2)

    def test_linear_in_the_field_coupling(self):
        # Gamma(H0) + c Gamma(K) + conj(c) Gamma(K)^dag, the operator the
        # oracle steps with, is Gamma(H) of the assembled H
        config = small_config()
        basis = build_basis(config.numerics, config.field)
        fock = fock_of(basis)
        h0, k = (dense(second_quantize(h, basis, fock), fock.dim) for h in
                 (np.diag(basis.energies).astype(complex),
                  field_coupling(basis, config.field)))
        rng = np.random.default_rng(8)
        for c in rng.normal(size=4) + 1j * rng.normal(size=4):
            combined = h0 + c * k + np.conj(c) * k.conj().T
            h = assemble_hamiltonian(c, basis, config.field)
            direct = dense(second_quantize(h, basis, fock), fock.dim)
            assert np.max(np.abs(combined - direct)) < 1e-13


class TestReadAmplitude:
    def make_state(self):
        fock = block_fock(3)
        rng = np.random.default_rng(33)
        amp = rng.normal(size=fock.dim) + 1j * rng.normal(size=fock.dim)
        return ManyBodyState(amplitudes=amp, fock=fock)

    def test_vacuum_has_no_pairs(self):
        fock = block_fock(3)
        amp = np.zeros(fock.dim, dtype=complex)
        amp[fock.index[fock.sea]] = 1.0
        state = ManyBodyState(amplitudes=amp, fock=fock)
        assert read_amplitude(state, [0], [1]) == 0.0
        assert vacuum_overlap(state) == 1.0

    def test_repeated_label_bitwise_zero(self):
        state = self.make_state()
        for electrons, positrons in (([1, 1], [0, 2]), ([0, 2], [1, 1]),
                                     ([0, 1], [2])):   # the last off-sector
            amp = read_amplitude(state, electrons, positrons)
            assert type(amp) is complex and amp == 0j
        assert read_amplitude(state, [1, 0], [0, 2]) != 0j

    def test_unknown_label(self):
        state = self.make_state()
        with pytest.raises(ValueError, match="unknown"):
            read_amplitude(state, [7], [0])
        with pytest.raises(ValueError, match="^unknown positron label -1$"):
            read_amplitude(state, [0], [-1])

    @pytest.mark.parametrize("electrons, positrons, kind", [
        ([1.7], [0], "electron"), ([True], [0], "electron"),
        ([0], [np.float64(1.0)], "positron"), ([0], [np.bool_(True)], "positron"),
    ])
    def test_non_integer_label_rejected(self, electrons, positrons, kind):
        # int() used to turn 1.7 and True into mode 1
        state = self.make_state()
        with pytest.raises(ValueError, match=f"^{kind} label .* is not an integer$"):
            read_amplitude(state, electrons, positrons)

    def test_numpy_integer_labels_accepted(self):
        state = self.make_state()
        assert read_amplitude(state, np.array([2, 0]), [np.int32(1), 2]) == \
            read_amplitude(state, [2, 0], [1, 2])

    def test_swapping_labels_flips_sign(self):
        state = self.make_state()
        base = read_amplitude(state, [0, 1, 2], [0, 1, 2])
        assert read_amplitude(state, [1, 0, 2], [0, 1, 2]) == -base
        assert read_amplitude(state, [0, 1, 2], [2, 1, 0]) == -base
        assert read_amplitude(state, [2, 0, 1], [1, 2, 0]) == base

    def test_amplitude_table_covers_all_sectors(self):
        state = self.make_state()
        rows = amplitude_table(state)
        counts = {}
        for n, es, ps, amp in rows:
            counts[n] = counts.get(n, 0) + 1
        assert counts == {1: 9, 2: 9, 3: 1}


def both_paths(config):
    """(basis, G blocks, oracle state) of one run."""
    basis = build_basis(config.numerics, config.field)
    g = extract_g_blocks(propagate(config, basis), basis, config)
    return basis, g, propagate_vacuum(config, basis)


def cross_path_differences(config):
    """(max |determinant-path - oracle| over C_v and all 923 canonical
    amplitudes, N = 1..6, max |c_N - sector_probabilities_exact|) on an
    n_cut = 1 run."""
    basis, g, state = both_paths(config)
    table = amplitude_table(state)
    assert len(table) == math.comb(12, 6) - 1
    worst = abs(vacuum_overlap(state) - multi_pair_amplitude(g, [], []))
    for n, es, ps, fock_amp in table:
        det_amp = multi_pair_amplitude(g, es, ps)
        worst = max(worst, abs(det_amp - fock_amp))
    numerics = replace(config.numerics, prune_threshold=0.0, n_sector_max=6)
    rep = sector_observables(g, basis, numerics)
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

    def test_unsorted_labels_agree_and_swaps_flip_sign(self):
        # the labels are applied in the order given on both paths
        config = small_config(plateau=1, ramp=1, steps_per_cycle=64)
        basis, g, state = both_paths(config)
        for electrons, positrons in (([1, 0], [0, 1]), ([0, 1], [1, 0]),
                                     ([2, 0, 1], [1, 2, 0])):
            det_amp = multi_pair_amplitude(g, electrons, positrons)
            fock_amp = read_amplitude(state, electrons, positrons)
            assert abs(fock_amp) > 1e-12
            assert abs(det_amp - fock_amp) < 1e-8 * max(1.0, abs(det_amp))
            swapped = [electrons[1], electrons[0]] + electrons[2:]
            assert multi_pair_amplitude(g, swapped, positrons) == \
                pytest.approx(-det_amp, rel=1e-12)
            assert read_amplitude(state, swapped, positrons) == -fock_amp


def oracle_config(seed):
    """A small run around the two presets: either helicity relation, any
    polarization angle, k0 shifted along z and, in about a third of the
    seeds, transverse (k0_y != 0 disables the time-reversal fold)."""
    rng = np.random.default_rng(seed)
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


@st.composite
def oracle_configs(draw):
    """``oracle_config`` of a drawn seed, which spreads 20 examples over the
    whole box more evenly than hypothesis's own mutations of a few."""
    return oracle_config(draw(st.integers(0, 2 ** 32 - 1)))


class TestOracleProperty:
    # the composed (and, where the symmetry holds, folded) determinant path
    # against the oracle, which steps the same grid through the whole window
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(config=oracle_configs())
    def test_determinant_path_matches_oracle(self, config):
        amplitudes, sectors = cross_path_differences(config)
        assert amplitudes <= 1e-10
        assert sectors <= 1e-10
