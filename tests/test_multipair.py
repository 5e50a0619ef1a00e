import math
from itertools import combinations, permutations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracpairs import (GBlocks, HelicityRelation, IllConditionedError,
                        NumericsParams, build_basis, field_from_si,
                        multi_pair_amplitude, pair_amplitudes,
                        sector_observables, single_pair_list,
                        vacuum_amplitude)
from diracpairs.multipair import PairAmplitudes, VacuumAmplitude

FIELD = field_from_si(4.9e17, 0.746, 0.2 * math.pi / 4, HelicityRelation.SAME)


def haar_unitary(rng, dim):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_unitary_gblocks(rng, m_plus, m_minus):
    """GBlocks carved out of a Haar-ish random unitary, so the usual
    column-unitarity constraints hold exactly."""
    dim = m_plus + m_minus
    u = haar_unitary(rng, dim)
    plus = np.arange(m_plus)
    minus = np.arange(m_plus, dim)
    return GBlocks(g_pm=u[np.ix_(plus, minus)], g_mm=u[np.ix_(minus, minus)])


def cs_unitary_gblocks(rng, angles):
    """GBlocks of the unitary diag(A, C) [[cos, sin], [-sin, cos]] diag(D, B)^dag
    with Haar A, B, C (the minus-sector columns do not involve D):
    omega = -A tan(angles) C^dag, so the spectrum of omega^dag omega is
    tan(angles)^2, degeneracies included."""
    m = len(angles)
    a, b, c = (haar_unitary(rng, m) for _ in range(3))
    cos, sin = np.diag(np.cos(angles)), np.diag(np.sin(angles))
    return GBlocks(g_pm=a @ sin @ b.conj().T, g_mm=c @ cos @ b.conj().T)


def brute_force_sectors(omega, cv2, electron_values, positron_values):
    """Reference readout by explicit subset enumeration (omega up to 6x6).

    Returns c_N for every N and, per N with c_N > 0, the probability-weighted
    mean over canonical states of each additive observable summed over the
    occupied electron (positron) labels.
    """
    m_e, m_p = omega.shape
    assert max(m_e, m_p) <= 6
    n_max = min(m_e, m_p)
    c = np.zeros(n_max + 1)
    c[0] = cv2
    means_e = [{} for _ in electron_values]
    means_p = [{} for _ in positron_values]
    for n in range(1, n_max + 1):
        acc_e = np.zeros(len(electron_values))
        acc_p = np.zeros(len(positron_values))
        for es in combinations(range(m_e), n):
            for ps in combinations(range(m_p), n):
                prob = cv2 * abs(np.linalg.det(omega[np.ix_(es, ps)])) ** 2
                c[n] += prob
                acc_e += prob * np.array([v[list(es)].sum()
                                          for v in electron_values])
                acc_p += prob * np.array([v[list(ps)].sum()
                                          for v in positron_values])
        if c[n] > 0.0:
            for means, acc in ((means_e, acc_e), (means_p, acc_p)):
                for mean, total in zip(means, acc):
                    mean[n] = total / c[n]
    return c, means_e, means_p


def mode_table(rng, m):
    """Stand-in for ModeBasis: spin_z = +-1/2 and arbitrary helicities."""
    return SimpleNamespace(spin_z_plus=rng.choice([-0.5, 0.5], size=m),
                           spin_z_minus=rng.choice([-0.5, 0.5], size=m),
                           helicity_plus=rng.uniform(-0.5, 0.5, size=m),
                           helicity_minus=rng.uniform(-0.5, 0.5, size=m))


def zero_field_gblocks(m):
    eye = np.eye(m, dtype=complex)
    return GBlocks(g_pm=np.zeros((m, m), dtype=complex), g_mm=eye)


def synthetic_state(omega):
    """PairAmplitudes/VacuumAmplitude with |C_v|^2 = 1/det(1+w^H w), the
    normalization a unitary evolution would enforce."""
    omega = np.asarray(omega, dtype=complex)
    gram = np.eye(omega.shape[1]) + omega.conj().T @ omega
    cv2 = 1.0 / float(np.linalg.det(gram).real)
    c_v = math.sqrt(cv2)
    return (PairAmplitudes(omega=omega, cond_mm=1.0),
            VacuumAmplitude(c_v=complex(c_v), log_abs=math.log(c_v)))


def permutation_amplitude(omega, c_v, electrons, positrons):
    """Independent oracle: explicit sum over pairings with signs."""
    total = 0.0j
    n = len(electrons)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            while seen[i] != i:
                j = seen[i]
                seen[i], seen[j] = seen[j], seen[i]
                sign = -sign
        term = sign
        for i in range(n):
            term = term * omega[electrons[i], positrons[perm[i]]]
        total += term
    return c_v * total


class TestPairAmplitudes:
    def test_zero_field_gives_zero_matrix(self):
        g = zero_field_gblocks(4)
        pa = pair_amplitudes(g)
        assert np.all(pa.omega == 0.0)

    def test_synthetic_closed_form(self):
        a, d1, d2 = 0.3 + 0.1j, 0.9, 0.8
        g = GBlocks(g_pm=np.array([[a, 0.0], [0.0, 0.0]]),
                    g_mm=np.diag([d1, d2]).astype(complex))
        pa = pair_amplitudes(g)
        expected = np.array([[-a / d1, 0.0], [0.0, 0.0]])
        assert np.allclose(pa.omega, expected, atol=1e-15)

    def test_ill_conditioned_raises_with_estimate(self):
        g = GBlocks(g_pm=np.eye(2, dtype=complex),
                    g_mm=np.diag([1.0, 1e-15]).astype(complex))
        with pytest.raises(IllConditionedError, match="condition number"):
            pair_amplitudes(g)


class TestVacuumAmplitude:
    def test_zero_field_unit_probability(self):
        vac = vacuum_amplitude(zero_field_gblocks(5))
        assert vac.probability == pytest.approx(1.0, abs=1e-15)
        assert vac.log_abs == pytest.approx(0.0, abs=1e-15)

    def test_hadamard_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            g = random_unitary_gblocks(rng, 3, 4)
            vac = vacuum_amplitude(g)
            col_norms = np.sum(np.abs(g.g_mm) ** 2, axis=0)
            assert vac.probability <= float(np.prod(col_norms)) + 1e-12
            assert vac.probability <= 1.0 + 1e-12

    def test_phase_retained(self):
        g = zero_field_gblocks(3)
        g = GBlocks(g_pm=g.g_pm, g_mm=np.diag([1j, 1.0, 1.0]))
        vac = vacuum_amplitude(g)
        assert vac.c_v == pytest.approx(1j, abs=1e-15)


class TestMultiPairAmplitude:
    def test_single_pair_reduction(self):
        rng = np.random.default_rng(1)
        pa, vac = synthetic_state(rng.normal(size=(3, 3))
                                  + 1j * rng.normal(size=(3, 3)))
        amp = multi_pair_amplitude(pa, vac, [1], [2])
        assert amp.amplitude == pytest.approx(vac.c_v * pa.omega[1, 2], rel=1e-14)

    def test_two_pair_determinant(self):
        pa, vac = synthetic_state(np.array([[1.0, 2.0], [3.0, 4.0]],
                                           dtype=complex))
        amp = multi_pair_amplitude(pa, vac, [0, 1], [0, 1])
        assert amp.amplitude == pytest.approx(vac.c_v * (1 * 4 - 2 * 3), rel=1e-12)

    def test_repeated_label_is_bitwise_zero(self):
        rng = np.random.default_rng(2)
        pa, vac = synthetic_state(rng.normal(size=(4, 4)) + 0j)
        excluded = multi_pair_amplitude(pa, vac, [1, 1], [0, 2])
        assert excluded.amplitude == 0.0
        assert excluded.pauli_excluded
        assert multi_pair_amplitude(pa, vac, [0, 1], [2, 2]).amplitude == 0.0
        assert not multi_pair_amplitude(pa, vac, [0, 1], [2, 3]).pauli_excluded

    def test_unsorted_input_sign_is_parity_product(self):
        rng = np.random.default_rng(3)
        pa, vac = synthetic_state(rng.normal(size=(4, 4))
                                  + 1j * rng.normal(size=(4, 4)))
        base = multi_pair_amplitude(pa, vac, [0, 1, 2], [0, 1, 3]).amplitude
        swapped_e = multi_pair_amplitude(pa, vac, [1, 0, 2], [0, 1, 3]).amplitude
        swapped_both = multi_pair_amplitude(pa, vac, [1, 0, 2], [1, 0, 3]).amplitude
        assert swapped_e == pytest.approx(-base, rel=1e-12)
        assert swapped_both == pytest.approx(base, rel=1e-12)

    def test_determinant_equals_permutation_sum(self):
        # the acceptance-grade equivalence, at test scale
        rng = np.random.default_rng(4)
        for trial in range(100):
            dim = rng.integers(3, 7)
            omega = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            pa, vac = synthetic_state(omega)
            n = int(rng.integers(1, 4))
            electrons = sorted(rng.choice(dim, size=n, replace=False).tolist())
            positrons = sorted(rng.choice(dim, size=n, replace=False).tolist())
            det_amp = multi_pair_amplitude(pa, vac, electrons, positrons).amplitude
            ref = permutation_amplitude(pa.omega, vac.c_v, electrons, positrons)
            assert det_amp == pytest.approx(ref, rel=1e-10)


class TestSectorProbabilities:
    def numerics(self, **kw):
        base = dict(n_cut=1, prune_threshold=0.0, n_sector_max=4)
        base.update(kw)
        return NumericsParams(**base)

    def basis(self):
        return build_basis(NumericsParams(n_cut=1), FIELD)

    def test_zero_omega_pure_vacuum(self):
        pa, vac = synthetic_state(np.zeros((6, 6)))
        rep = sector_observables(pa, vac, self.basis(), self.numerics())
        assert rep.c[0] == 1.0
        assert np.all(rep.c[1:] == 0.0)

    def test_single_entry(self):
        omega = np.zeros((6, 6), dtype=complex)
        omega[2, 3] = 0.7 - 0.2j
        pa, vac = synthetic_state(omega)
        rep = sector_observables(pa, vac, self.basis(), self.numerics())
        assert rep.c[1] == pytest.approx(abs(vac.c_v * omega[2, 3]) ** 2, rel=1e-12)
        assert np.all(rep.c[2:] == 0.0)
        assert rep.c.sum() == pytest.approx(1.0, abs=1e-12)

    def test_two_disjoint_entries(self):
        omega = np.zeros((6, 6), dtype=complex)
        w1, w2 = 0.5 + 0.1j, -0.3 + 0.4j
        omega[0, 1] = w1
        omega[4, 2] = w2
        pa, vac = synthetic_state(omega)
        rep = sector_observables(pa, vac, self.basis(), self.numerics())
        cv2 = vac.probability
        assert rep.c[1] == pytest.approx(cv2 * (abs(w1) ** 2 + abs(w2) ** 2),
                                         rel=1e-12)
        assert rep.c[2] == pytest.approx(cv2 * abs(w1 * w2) ** 2, rel=1e-12)
        assert rep.c.sum() == pytest.approx(1.0, abs=1e-12)

    def test_normalization_random_unitary(self):
        rng = np.random.default_rng(12)
        basis = self.basis()
        for _ in range(5):
            g = random_unitary_gblocks(rng, 6, 6)
            pa = pair_amplitudes(g)
            vac = vacuum_amplitude(g)
            rep = sector_observables(pa, vac, basis,
                                     self.numerics(n_sector_max=6))
            assert rep.c.sum() == pytest.approx(1.0, abs=1e-8)
            assert rep.discarded_mass_bound < 1e-8

    def test_against_symmetric_function_identity(self):
        # independent route: c_N = |C_v|^2 e_N(eigenvalues of w^H w)
        rng = np.random.default_rng(13)
        g = random_unitary_gblocks(rng, 6, 6)
        pa = pair_amplitudes(g)
        vac = vacuum_amplitude(g)
        rep = sector_observables(pa, vac, self.basis(),
                                 self.numerics(n_sector_max=6))
        lam = np.linalg.eigvalsh(pa.omega.conj().T @ pa.omega)
        poly = np.poly(lam)  # [1, -e1, +e2, ...]
        for n in range(0, 7):
            e_n = float(((-1) ** n) * poly[n])
            assert rep.c[n] == pytest.approx(vac.probability * e_n, rel=1e-10)

    def test_no_clamping_of_large_omega(self):
        # |omega| > 1 makes multi-pair amplitudes exceed single-pair ones
        # before normalization; the report must preserve that ordering
        omega = np.zeros((6, 6), dtype=complex)
        omega[0, 0] = 2.0
        omega[1, 1] = 3.0
        pa, vac = synthetic_state(omega)
        a1 = multi_pair_amplitude(pa, vac, [0], [0]).amplitude
        a2 = multi_pair_amplitude(pa, vac, [0, 1], [0, 1]).amplitude
        assert abs(a2) > abs(a1)
        rep = sector_observables(pa, vac, self.basis(), self.numerics())
        assert rep.c[2] > rep.c[1]
        assert rep.c.sum() == pytest.approx(1.0, abs=1e-12)

    def test_fig4_size_omega_at_prune_zero(self):
        # 18x18 labels all retained: 324 single pairs, as in the fig4 preset
        rng = np.random.default_rng(14)
        g = random_unitary_gblocks(rng, 18, 18)
        pa = pair_amplitudes(g)
        vac = vacuum_amplitude(g)
        numerics = NumericsParams(n_cut=4, prune_threshold=0.0, n_sector_max=4)
        basis = build_basis(numerics, FIELD)
        rep = sector_observables(pa, vac, basis, numerics)
        assert len(single_pair_list(pa, vac, numerics)) == 18 * 18
        assert rep.discarded_mass_bound > 0.0
        assert abs(rep.c.sum() + rep.discarded_mass_bound - 1.0) <= 1e-10
        assert sorted(rep.s_plus) == [1, 2, 3, 4]

    def test_prune_threshold_only_trims_pair_list(self):
        rng = np.random.default_rng(15)
        g = random_unitary_gblocks(rng, 6, 6)
        pa = pair_amplitudes(g)
        vac = vacuum_amplitude(g)
        basis = self.basis()
        full_numerics = self.numerics(n_sector_max=3)
        pruned_numerics = self.numerics(n_sector_max=3, prune_threshold=0.05)
        full = sector_observables(pa, vac, basis, full_numerics)
        pruned = sector_observables(pa, vac, basis, pruned_numerics)
        assert len(single_pair_list(pa, vac, full_numerics)) == 36
        assert 0 < len(single_pair_list(pa, vac, pruned_numerics)) < 36
        assert np.array_equal(pruned.c, full.c)
        for name in ("s_plus", "s_minus", "h_plus", "h_minus"):
            assert getattr(pruned, name) == getattr(full, name)
        assert pruned.discarded_mass_bound == full.discarded_mass_bound
        c_ref, _, _ = brute_force_sectors(pa.omega, vac.probability, [], [])
        assert pruned.discarded_mass_bound == pytest.approx(c_ref[4:].sum(),
                                                            abs=1e-12)


class TestSectorObservables:
    def basis(self):
        return build_basis(NumericsParams(n_cut=1), FIELD)

    def test_single_pair_observables_match_mode_values(self):
        basis = self.basis()
        omega = np.zeros((6, 6), dtype=complex)
        omega[0, 1] = 0.4  # electron half-index 0, positron half-index 1
        pa, vac = synthetic_state(omega)
        rep = sector_observables(pa, vac, basis,
                                 NumericsParams(n_cut=1, prune_threshold=0.0,
                                                n_sector_max=2))
        assert rep.s_plus[1] == pytest.approx(basis.spin_z_plus[0], abs=1e-14)
        assert rep.s_minus[1] == pytest.approx(basis.spin_z_minus[1], abs=1e-14)
        assert rep.h_plus[1] == pytest.approx(basis.helicity_plus[0], abs=1e-14)
        assert rep.h_minus[1] == pytest.approx(basis.helicity_minus[1], abs=1e-14)
        assert 2 not in rep.s_plus  # c_2 = 0 -> omitted

    def test_balanced_spins_cancel(self):
        basis = self.basis()
        up = [i for i in range(6) if basis.spin_z_plus[i] > 0]
        down = [i for i in range(6) if basis.spin_z_plus[i] < 0]
        omega = np.zeros((6, 6), dtype=complex)
        omega[up[0], up[0]] = 0.3
        omega[down[0], down[0]] = 0.3
        pa, vac = synthetic_state(omega)
        rep = sector_observables(pa, vac, basis,
                                 NumericsParams(n_cut=1, prune_threshold=0.0,
                                                n_sector_max=2))
        assert rep.s_plus[2] == 0.0
        assert rep.s_minus[2] == 0.0

    def test_four_pair_spin_zero_with_two_plus_two_structure(self):
        # exactly two spin-up and two spin-down electron (and positron)
        # labels retained: every 4-pair state sums its spins to exactly zero
        basis = self.basis()
        e_up = [i for i in range(6) if basis.spin_z_plus[i] > 0][:2]
        e_dn = [i for i in range(6) if basis.spin_z_plus[i] < 0][:2]
        p_up = [i for i in range(6) if basis.spin_z_minus[i] > 0][:2]
        p_dn = [i for i in range(6) if basis.spin_z_minus[i] < 0][:2]
        omega = np.zeros((6, 6), dtype=complex)
        for e, p in zip(e_up, p_up):
            omega[e, p] = 0.8
        for e, p in zip(e_dn, p_dn):
            omega[e, p] = 0.5
        pa, vac = synthetic_state(omega)
        rep = sector_observables(pa, vac, basis,
                                 NumericsParams(n_cut=1, prune_threshold=1e-6,
                                                n_sector_max=4))
        assert rep.c[4] > 0.0
        assert rep.s_plus[4] == 0.0
        assert rep.s_minus[4] == 0.0


class TestSinglePairList:
    def test_sorted_and_pruned(self):
        omega = np.zeros((4, 4), dtype=complex)
        omega[0, 0] = 0.2
        omega[1, 2] = 0.9
        omega[3, 3] = 1e-2
        pa, vac = synthetic_state(omega)
        numerics = NumericsParams(n_cut=1, prune_threshold=1e-6)
        pairs = single_pair_list(pa, vac, numerics)
        assert [(p.electrons[0], p.positrons[0]) for p in pairs] == \
            [(1, 2), (0, 0), (3, 3)]
        top = single_pair_list(pa, vac, numerics)[:2]
        assert len(top) == 2
        assert abs(top[0].amplitude) >= abs(top[1].amplitude)
        # |omega|^2 = 1e-4 falls below a 1e-2 threshold
        tight = NumericsParams(n_cut=1, prune_threshold=1e-2)
        assert [(p.electrons[0], p.positrons[0])
                for p in single_pair_list(pa, vac, tight)] == [(1, 2), (0, 0)]


angle = st.one_of(st.just(0.0), st.floats(0.1, 1.2))


class TestClosedFormAgainstEnumeration:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           angles=st.lists(angle, min_size=1, max_size=6),
           four_fold=st.booleans(), data=st.data())
    def test_matches_brute_force(self, seed, angles, four_fold, data):
        # tan(angle)^2 is the spectrum of omega^dag omega; the four-fold case
        # makes four of its eigenvalues equal
        if four_fold and len(angles) >= 4:
            angles[1:4] = [angles[0]] * 3
        k_max = data.draw(st.integers(1, len(angles)), label="n_sector_max")
        rng = np.random.default_rng(seed)
        g = cs_unitary_gblocks(rng, np.array(angles))
        pa = pair_amplitudes(g)
        vac = vacuum_amplitude(g)
        modes = mode_table(rng, len(angles))
        rep = sector_observables(pa, vac, modes,
                                 NumericsParams(n_cut=1, prune_threshold=0.0,
                                                n_sector_max=k_max))
        c_ref, (s_e, h_e), (s_p, h_p) = brute_force_sectors(
            pa.omega, vac.probability,
            [modes.spin_z_plus, modes.helicity_plus],
            [modes.spin_z_minus, modes.helicity_minus])

        assert rep.c[0] == vac.probability
        assert np.max(np.abs(rep.c - c_ref[:k_max + 1])) <= 1e-12
        assert abs(rep.discarded_mass_bound - c_ref[k_max + 1:].sum()) <= 1e-12
        # sectors past the rank of omega hold roundoff only
        rank = sum(a > 0.0 for a in angles)
        for got, ref in ((rep.s_plus, s_e), (rep.h_plus, h_e),
                         (rep.s_minus, s_p), (rep.h_minus, h_p)):
            for n in range(1, min(k_max, rank) + 1):
                assert abs(got[n] - ref[n]) <= 1e-12
