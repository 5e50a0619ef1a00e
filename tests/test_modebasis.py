import math

import numpy as np
import pytest

from diracpairs import (Band, HelicityRelation, ModeLabel, NumericsParams,
                        Spin, build_basis, field_from_si, free_hamiltonian,
                        free_modes_at)

FIELD = field_from_si(4.9e17, 0.746, 0.2 * math.pi / 4, HelicityRelation.SAME)


def small_basis(n_cut=1, k0=(0.0, 0.0, 0.0)):
    return build_basis(NumericsParams(n_cut=n_cut, k0_offset=k0), FIELD)


class TestBasisTable:
    def test_size_and_flat_index_bijection(self):
        basis = small_basis()
        assert basis.dim == 12
        seen = {basis.index_of(m.label) for m in basis.modes}
        assert seen == set(range(12))

    def test_energies_follow_lattice(self):
        basis = small_basis()
        expected = math.sqrt(1.0 + 0.746 ** 2)
        values = sorted(set(basis.energies))
        assert values == pytest.approx([-expected, -1.0, 1.0, expected],
                                       rel=1e-14)
        assert expected == pytest.approx(1.2476, abs=5e-5)

    def test_deterministic_ordering(self):
        basis = small_basis()
        labels = [m.label for m in basis.modes[:4]]
        assert labels == [
            ModeLabel(n=-1, band=Band.PLUS, spin=Spin.UP),
            ModeLabel(n=-1, band=Band.PLUS, spin=Spin.DOWN),
            ModeLabel(n=-1, band=Band.MINUS, spin=Spin.UP),
            ModeLabel(n=-1, band=Band.MINUS, spin=Spin.DOWN),
        ]

    def test_zero_momentum_modes(self):
        basis = small_basis()
        for mode in basis.modes:
            if mode.label.n == 0:
                assert abs(mode.energy) == 1.0
                assert mode.helicity == 0.0

    def test_csv_dump_columns(self):
        text = small_basis().to_csv()
        header = text.splitlines()[0].split(",")
        assert header == ["index", "n", "band", "spin", "energy", "spin_z",
                          "helicity"]
        assert len(text.splitlines()) == 13


class TestSpinors:
    def test_eigenvector_residual(self):
        rng = np.random.default_rng(5)
        momenta = [np.zeros(3), np.array([0.0, 0.0, 0.746])]
        momenta += [rng.normal(0, 1, 3) for _ in range(10)]
        for p in momenta:
            h = free_hamiltonian(p)
            for mode in free_modes_at(p):
                residual = h @ mode.spinor - mode.energy * mode.spinor
                assert np.max(np.abs(residual)) < 1e-12

    def test_gram_matrix_is_identity(self):
        rng = np.random.default_rng(6)
        for p in [np.zeros(3)] + [rng.normal(0, 2, 3) for _ in range(10)]:
            spinors = np.column_stack([m.spinor for m in free_modes_at(p)])
            gram = spinors.conj().T @ spinors
            assert np.max(np.abs(gram - np.eye(4))) < 1e-12

    def test_completeness_rank(self):
        p = np.array([0.3, -0.2, 0.9])
        spinors = np.column_stack([m.spinor for m in free_modes_at(p)])
        assert np.linalg.matrix_rank(spinors) == 4

    def test_phase_convention_pivot_real_positive(self):
        rng = np.random.default_rng(8)
        for p in [rng.normal(0, 1, 3) for _ in range(8)]:
            for mode in free_modes_at(p):
                band_plus = mode.energy > 0
                half = mode.spinor[:2] if band_plus else mode.spinor[2:]
                pivot = half[int(np.argmax(np.abs(half)))]
                assert pivot.imag == pytest.approx(0.0, abs=1e-15)
                assert pivot.real > 0.0


class TestSpinHelicity:
    def test_spin_z_exact_halves_on_axis(self):
        basis = small_basis()
        for mode in basis.modes:
            assert mode.spin_z in (0.5, -0.5)
            sign = 1.0 if mode.label.spin is Spin.UP else -1.0
            assert mode.spin_z == 0.5 * sign

    def test_helicity_sign_convention(self):
        basis = small_basis(n_cut=2)
        for mode in basis.modes:
            n = mode.label.n
            if n == 0:
                continue
            spin_sign = 1.0 if mode.label.spin is Spin.UP else -1.0
            expected = 0.5 * spin_sign * (1.0 if n > 0 else -1.0)
            assert mode.helicity == pytest.approx(expected, abs=1e-12)

    def test_helicity_magnitude_half_off_zero(self):
        # spin-z eigenstates remain helicity eigenstates for motion along z
        basis = small_basis(n_cut=3)
        for mode in basis.modes:
            if mode.label.n != 0:
                assert abs(mode.helicity) == pytest.approx(0.5, abs=1e-12)

    def test_transverse_k0_bounds(self):
        basis = small_basis(n_cut=1, k0=(0.4, -0.1, 0.05))
        for mode in basis.modes:
            assert -0.5 - 1e-12 <= mode.spin_z <= 0.5 + 1e-12
            assert -0.5 - 1e-12 <= mode.helicity <= 0.5 + 1e-12

    def test_charge_conjugation_pairing(self):
        basis = small_basis(n_cut=2)
        table = {(m.label.n, m.label.band, m.label.spin) for m in basis.modes}
        for mode in basis.modes:
            if mode.label.band is Band.PLUS:
                mirrored = Spin.DOWN if mode.label.spin is Spin.UP else Spin.UP
                assert (-mode.label.n, Band.MINUS, mirrored) in table
