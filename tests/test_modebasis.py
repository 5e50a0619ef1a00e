import itertools
import math

import numpy as np
import pytest

from diracpairs import (SIGMA_BIG, HelicityRelation, NumericsParams,
                        build_basis, field_from_si, free_hamiltonian,
                        free_spinors)

FIELD = field_from_si(4.9e17, 0.746, 0.2 * math.pi / 4, HelicityRelation.SAME)


def small_basis(n_cut=1, k0=(0.0, 0.0, 0.0)):
    return build_basis(NumericsParams(n_cut=n_cut, k0_offset=k0), FIELD)


def random_momenta(seed, count=12, scale=1.0):
    rng = np.random.default_rng(seed)
    return np.vstack([np.zeros(3), [0.0, 0.0, 0.746],
                      rng.normal(0, scale, (count, 3))])


def transverse_basis(seed=9, n_cut=2):
    k0 = tuple(np.random.default_rng(seed).normal(0, 0.3, 3))
    return small_basis(n_cut=n_cut, k0=k0)


def mode_keys(basis):
    """(n, band plus, spin up) of every mode, in basis order."""
    return [(int(n), bool(plus), bool(up)) for n, plus, up
            in zip(basis.n, basis.band_plus, basis.spin_up)]


class TestBasisTable:
    def test_size_and_flat_index_bijection(self):
        every = set(itertools.product((-1, 0, 1), (True, False),
                                      (True, False)))
        for k0 in [(0.0, 0.0, 0.0), (0.4, -0.1, 0.05)]:
            basis = small_basis(k0=k0)
            assert basis.dim == 12
            keys = mode_keys(basis)
            assert len(set(keys)) == 12 and set(keys) == every

    def test_energies_follow_lattice(self):
        basis = small_basis()
        expected = math.sqrt(1.0 + 0.746 ** 2)
        values = sorted(set(basis.energies))
        assert values == pytest.approx([-expected, -1.0, 1.0, expected],
                                       rel=1e-14)
        assert expected == pytest.approx(1.2476, abs=5e-5)

    def test_deterministic_ordering(self):
        basis = small_basis()
        assert mode_keys(basis)[:4] == [(-1, True, True), (-1, True, False),
                                        (-1, False, True), (-1, False, False)]
        assert [basis.label(i) for i in range(4)] == ["-1u", "-1d", "-1u", "-1d"]
        assert [basis.label(i) for i in (4, 7, 10)] == ["+0u", "+0d", "+1u"]
        # electron and positron half-indices walk the two bands in order
        assert basis.plus_indices.tolist() == [0, 1, 4, 5, 8, 9]
        assert basis.minus_indices.tolist() == [2, 3, 6, 7, 10, 11]

    def test_zero_momentum_modes(self):
        basis = small_basis()
        zero = basis.n == 0
        assert np.all(np.abs(basis.energies[zero]) == 1.0)
        assert np.all(basis.helicity[zero] == 0.0)

    def test_csv_dump_columns(self):
        text = small_basis().to_csv()
        header = text.splitlines()[0].split(",")
        assert header == ["index", "n", "band", "spin", "energy", "spin_z",
                          "helicity"]
        assert len(text.splitlines()) == 13


class TestSpinors:
    def test_eigenvector_residual(self):
        p = random_momenta(5)
        spinors = free_spinors(p)
        energy = np.sqrt(1.0 + np.sum(p * p, axis=1))[:, None, None]
        signs = np.array([1.0, 1.0, -1.0, -1.0])
        residual = free_hamiltonian(p) @ spinors - spinors * signs * energy
        assert np.max(np.abs(residual)) < 1e-12

    def test_basis_eigenvector_residual(self):
        basis = transverse_basis()
        h = free_hamiltonian(basis.momenta)
        residual = (np.einsum("iab,bi->ai", h, basis.spinors)
                    - basis.spinors * basis.energies)
        assert np.max(np.abs(residual)) < 1e-12

    def test_gram_matrix_is_identity(self):
        spinors = free_spinors(random_momenta(6, scale=2.0))
        gram = np.swapaxes(spinors.conj(), -1, -2) @ spinors
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12
        # per lattice site of a basis at a transverse k0
        basis = transverse_basis()
        for site in np.unique(basis.n):
            s = basis.spinors[:, basis.n == site]
            assert np.max(np.abs(s.conj().T @ s - np.eye(4))) < 1e-12

    def test_completeness_rank(self):
        spinors = free_spinors(np.array([0.3, -0.2, 0.9]))
        assert np.linalg.matrix_rank(spinors) == 4

    def test_phase_convention_pivot_real_positive(self):
        # the dominant upper (plus) or lower (minus) component, from a batch
        # of momenta and from a basis at a transverse k0
        batch = np.concatenate(free_spinors(random_momenta(8)), axis=1)
        basis = transverse_basis()
        columns = np.hstack([batch, basis.spinors])
        band_plus = np.concatenate([
            np.tile([True, True, False, False], batch.shape[1] // 4),
            basis.band_plus])
        for spinor, plus in zip(columns.T, band_plus):
            half = spinor[:2] if plus else spinor[2:]
            pivot = half[int(np.argmax(np.abs(half)))]
            assert pivot.imag == pytest.approx(0.0, abs=1e-15)
            assert pivot.real > 0.0


class TestSpinHelicity:
    def test_spin_z_exact_halves_on_axis(self):
        basis = small_basis()
        assert np.array_equal(basis.spin_z, np.where(basis.spin_up, 0.5, -0.5))

    def test_helicity_sign_convention(self):
        basis = small_basis(n_cut=2)
        moving = basis.n != 0
        expected = 0.5 * np.where(basis.spin_up, 1.0, -1.0) * np.sign(basis.n)
        assert np.max(np.abs(basis.helicity - expected)[moving]) < 1e-12

    def test_helicity_magnitude_half_off_zero(self):
        # spin-z eigenstates remain helicity eigenstates for motion along z
        basis = small_basis(n_cut=3)
        moving = basis.n != 0
        assert np.all(np.abs(np.abs(basis.helicity[moving]) - 0.5) < 1e-12)

    def test_transverse_k0_bounds(self):
        basis = small_basis(n_cut=1, k0=(0.4, -0.1, 0.05))
        assert np.all(np.abs(basis.spin_z) <= 0.5 + 1e-12)
        assert np.all(np.abs(basis.helicity) <= 0.5 + 1e-12)

    def test_closed_forms_are_expectation_values(self):
        # spin_z = <(1/2) Sigma_z> and helicity = <(1/2) Sigma.p/|p|>
        basis = transverse_basis()
        s = basis.spinors
        p_hat = basis.momenta / np.linalg.norm(basis.momenta, axis=1)[:, None]
        hel_ops = np.tensordot(p_hat, SIGMA_BIG, axes=(1, 0))
        spin_z = 0.5 * np.einsum("ai,ab,bi->i", s.conj(), SIGMA_BIG[2], s).real
        helicity = 0.5 * np.einsum("ai,iab,bi->i", s.conj(), hel_ops, s).real
        assert np.max(np.abs(basis.spin_z - spin_z)) < 1e-14
        assert np.max(np.abs(basis.helicity - helicity)) < 1e-14

    def test_charge_conjugation_pairing(self):
        basis = small_basis(n_cut=2)
        table = set(mode_keys(basis))
        for n, plus, up in table:
            if plus:
                assert (-n, False, not up) in table
