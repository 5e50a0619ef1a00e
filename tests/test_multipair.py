import math
import warnings
from itertools import combinations, permutations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracpairs import (GBlocks, HelicityRelation, IllConditionedError,
                        NumericsParams, build_basis, field_from_si,
                        multi_pair_amplitude, pair_amplitudes,
                        sector_observables, vacuum_amplitude)
from synthetic import cs_unitary_gblocks, haar_unitary, synthetic_gblocks

FIELD = field_from_si(4.9e17, 0.746, 0.2 * math.pi / 4, HelicityRelation.SAME)


def random_unitary_gblocks(rng, m_plus, m_minus):
    """GBlocks carved out of a Haar-ish random unitary, so the usual
    column-unitarity constraints hold exactly."""
    dim = m_plus + m_minus
    u = haar_unitary(rng, dim)
    plus = np.arange(m_plus)
    minus = np.arange(m_plus, dim)
    return GBlocks(g_pm=u[np.ix_(plus, minus)], g_mm=u[np.ix_(minus, minus)])


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
    """Stand-in for ModeBasis: spin_z = +-1/2 and arbitrary helicities, the
    m electron modes interleaved with the m positron modes."""
    return SimpleNamespace(spin_z=rng.choice([-0.5, 0.5], size=2 * m),
                           helicity=rng.uniform(-0.5, 0.5, size=2 * m),
                           plus_indices=np.arange(0, 2 * m, 2),
                           minus_indices=np.arange(1, 2 * m, 2))


def zero_field_gblocks(m):
    eye = np.eye(m, dtype=complex)
    return GBlocks(g_pm=np.zeros((m, m), dtype=complex), g_mm=eye)


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
        assert vac.c_v == 1.0

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

    def test_empty_minor_is_c_v(self):
        rng = np.random.default_rng(10)
        for g in [random_unitary_gblocks(rng, 3, 4), synthetic_gblocks(
                      rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))]:
            assert abs(multi_pair_amplitude(g, [], [])
                       - vacuum_amplitude(g).c_v) <= 1e-14


class TestMultiPairAmplitude:
    def test_single_pair_reduction(self):
        rng = np.random.default_rng(1)
        omega = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        g = synthetic_gblocks(omega)
        amp = multi_pair_amplitude(g, [1], [2])
        assert amp == pytest.approx(vacuum_amplitude(g).c_v * omega[1, 2],
                                    rel=1e-14)

    def test_two_pair_determinant(self):
        g = synthetic_gblocks(np.array([[1.0, 2.0], [3.0, 4.0]]))
        amp = multi_pair_amplitude(g, [0, 1], [0, 1])
        assert amp == pytest.approx(vacuum_amplitude(g).c_v * (1 * 4 - 2 * 3),
                                    rel=1e-12)

    def test_repeated_label_is_bitwise_zero(self):
        rng = np.random.default_rng(2)
        g = synthetic_gblocks(rng.normal(size=(4, 4)) + 0j)
        excluded = multi_pair_amplitude(g, [1, 1], [0, 2])
        assert type(excluded) is complex and excluded == 0j
        assert multi_pair_amplitude(g, [0, 1], [2, 2]) == 0j
        assert multi_pair_amplitude(g, [0, 1], [2, 3]) != 0j

    @pytest.mark.parametrize("electrons, positrons, kind, label", [
        ([-1], [0], "electron", -1), ([4], [0], "electron", 4),
        ([0], [-1], "positron", -1), ([0], [4], "positron", 4),
        ([0, 1], [2, 4], "positron", 4), ([4, 4], [0, 1], "electron", 4),
    ])
    def test_out_of_range_label_is_rejected(self, electrons, positrons,
                                            kind, label):
        # -1 would index the last mode and dim would raise a bare IndexError
        g = synthetic_gblocks(np.ones((4, 4)) * 0.1)
        with pytest.raises(ValueError,
                           match=f"^unknown {kind} label {label}$"):
            multi_pair_amplitude(g, electrons, positrons)

    @pytest.mark.parametrize("electrons, positrons, kind", [
        ([1.7], [0], "electron"), ([True], [0], "electron"),
        ([0], [np.float64(1.0)], "positron"), ([0, 1], [2, np.bool_(0)], "positron"),
    ])
    def test_non_integer_label_is_rejected(self, electrons, positrons, kind):
        # int() used to turn 1.7 and True into mode 1
        g = synthetic_gblocks(np.ones((4, 4)) * 0.1)
        with pytest.raises(ValueError,
                           match=f"^{kind} label .* is not an integer$"):
            multi_pair_amplitude(g, electrons, positrons)

    def test_unequal_label_counts_are_rejected(self):
        g = synthetic_gblocks(np.ones((4, 4)) * 0.1)
        with pytest.raises(ValueError, match="^need equally many electron and "
                                             "positron labels$"):
            multi_pair_amplitude(g, [0, 1], [2])

    def test_numpy_integer_labels_accepted(self):
        rng = np.random.default_rng(4)
        g = synthetic_gblocks(rng.normal(size=(4, 4)) + 0j)
        assert multi_pair_amplitude(g, np.array([2, 0]),
                                    [np.int32(1), np.uint8(3)]) == \
            multi_pair_amplitude(g, [2, 0], [1, 3])

    def test_unsorted_input_sign_is_parity_product(self):
        rng = np.random.default_rng(3)
        g = synthetic_gblocks(rng.normal(size=(4, 4))
                              + 1j * rng.normal(size=(4, 4)))
        base = multi_pair_amplitude(g, [0, 1, 2], [0, 1, 3])
        swapped_e = multi_pair_amplitude(g, [1, 0, 2], [0, 1, 3])
        swapped_both = multi_pair_amplitude(g, [1, 0, 2], [1, 0, 3])
        assert swapped_e == pytest.approx(-base, rel=1e-12)
        assert swapped_both == pytest.approx(base, rel=1e-12)

    def test_determinant_equals_permutation_sum(self):
        # the acceptance-grade equivalence, at test scale
        rng = np.random.default_rng(4)
        for trial in range(100):
            dim = rng.integers(3, 7)
            omega = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            g = synthetic_gblocks(omega)
            n = int(rng.integers(1, 4))
            electrons = sorted(rng.choice(dim, size=n, replace=False).tolist())
            positrons = sorted(rng.choice(dim, size=n, replace=False).tolist())
            det_amp = multi_pair_amplitude(g, electrons, positrons)
            ref = permutation_amplitude(omega, vacuum_amplitude(g).c_v,
                                        electrons, positrons)
            assert det_amp == pytest.approx(ref, rel=1e-10)


class TestSectorProbabilities:
    def numerics(self, **kw):
        base = dict(n_cut=1, prune_threshold=0.0, n_sector_max=4)
        base.update(kw)
        return NumericsParams(**base)

    def basis(self):
        return build_basis(NumericsParams(n_cut=1), FIELD)

    def test_zero_omega_pure_vacuum(self):
        g = synthetic_gblocks(np.zeros((6, 6)))
        rep = sector_observables(g, self.basis(), self.numerics())
        assert rep.c[0] == 1.0
        assert np.all(rep.c[1:] == 0.0)

    def test_single_entry(self):
        omega = np.zeros((6, 6), dtype=complex)
        omega[2, 3] = 0.7 - 0.2j
        g = synthetic_gblocks(omega)
        rep = sector_observables(g, self.basis(), self.numerics())
        assert rep.c[1] == pytest.approx(
            abs(vacuum_amplitude(g).c_v * omega[2, 3]) ** 2, rel=1e-12)
        assert np.all(rep.c[2:] == 0.0)
        assert rep.c.sum() == pytest.approx(1.0, abs=1e-12)

    def test_two_disjoint_entries(self):
        omega = np.zeros((6, 6), dtype=complex)
        w1, w2 = 0.5 + 0.1j, -0.3 + 0.4j
        omega[0, 1] = w1
        omega[4, 2] = w2
        g = synthetic_gblocks(omega)
        rep = sector_observables(g, self.basis(), self.numerics())
        cv2 = vacuum_amplitude(g).probability
        assert rep.c[1] == pytest.approx(cv2 * (abs(w1) ** 2 + abs(w2) ** 2),
                                         rel=1e-12)
        assert rep.c[2] == pytest.approx(cv2 * abs(w1 * w2) ** 2, rel=1e-12)
        assert rep.c.sum() == pytest.approx(1.0, abs=1e-12)

    def test_normalization_random_unitary(self):
        rng = np.random.default_rng(12)
        basis = self.basis()
        for _ in range(5):
            g = random_unitary_gblocks(rng, 6, 6)
            rep = sector_observables(g, basis, self.numerics(n_sector_max=6))
            assert rep.c.sum() == pytest.approx(1.0, abs=1e-12)
            assert rep.discarded_mass_bound < 1e-8

    def test_against_symmetric_function_identity(self):
        # independent route: c_N = |C_v|^2 e_N(eigenvalues of w^H w)
        rng = np.random.default_rng(13)
        g = random_unitary_gblocks(rng, 6, 6)
        pa = pair_amplitudes(g)
        vac = vacuum_amplitude(g)
        rep = sector_observables(g, self.basis(), self.numerics(n_sector_max=6))
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
        g = synthetic_gblocks(omega)
        a1 = multi_pair_amplitude(g, [0], [0])
        a2 = multi_pair_amplitude(g, [0, 1], [0, 1])
        assert abs(a2) > abs(a1)
        rep = sector_observables(synthetic_gblocks(omega), self.basis(),
                                 self.numerics())
        assert rep.c[2] > rep.c[1]
        assert rep.c.sum() == pytest.approx(1.0, abs=1e-12)

    def test_fig4_size_omega_at_prune_zero(self):
        # 18x18 labels all retained: 324 single pairs, as in the fig4 preset
        rng = np.random.default_rng(14)
        g = random_unitary_gblocks(rng, 18, 18)
        numerics = NumericsParams(n_cut=4, prune_threshold=0.0, n_sector_max=4)
        basis = build_basis(numerics, FIELD)
        rep = sector_observables(g, basis, numerics)
        assert len(rep.pairs) == 18 * 18
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
        full = sector_observables(g, basis, full_numerics)
        pruned = sector_observables(g, basis, pruned_numerics)
        assert len(full.pairs) == 36
        assert 0 < len(pruned.pairs) < 36
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
        rep = sector_observables(synthetic_gblocks(omega), basis,
                                 NumericsParams(n_cut=1, prune_threshold=0.0,
                                                n_sector_max=2))
        e, p = basis.plus_indices[0], basis.minus_indices[1]
        assert rep.s_plus[1] == pytest.approx(basis.spin_z[e], abs=1e-14)
        assert rep.s_minus[1] == pytest.approx(basis.spin_z[p], abs=1e-14)
        assert rep.h_plus[1] == pytest.approx(basis.helicity[e], abs=1e-14)
        assert rep.h_minus[1] == pytest.approx(basis.helicity[p], abs=1e-14)
        assert 2 not in rep.s_plus  # c_2 = 0 -> omitted

    def test_balanced_spins_cancel(self):
        basis = self.basis()
        spin_e = basis.spin_z[basis.plus_indices]
        up = [i for i in range(6) if spin_e[i] > 0]
        down = [i for i in range(6) if spin_e[i] < 0]
        omega = np.zeros((6, 6), dtype=complex)
        omega[up[0], up[0]] = 0.3
        omega[down[0], down[0]] = 0.3
        rep = sector_observables(synthetic_gblocks(omega), basis,
                                 NumericsParams(n_cut=1, prune_threshold=0.0,
                                                n_sector_max=2))
        assert rep.s_plus[2] == 0.0
        assert rep.s_minus[2] == 0.0

    def test_four_pair_spin_zero_with_two_plus_two_structure(self):
        # exactly two spin-up and two spin-down electron (and positron)
        # labels retained: every 4-pair state sums its spins to exactly zero
        basis = self.basis()
        spin_e = basis.spin_z[basis.plus_indices]
        spin_p = basis.spin_z[basis.minus_indices]
        e_up = [i for i in range(6) if spin_e[i] > 0][:2]
        e_dn = [i for i in range(6) if spin_e[i] < 0][:2]
        p_up = [i for i in range(6) if spin_p[i] > 0][:2]
        p_dn = [i for i in range(6) if spin_p[i] < 0][:2]
        omega = np.zeros((6, 6), dtype=complex)
        for e, p in zip(e_up, p_up):
            omega[e, p] = 0.8
        for e, p in zip(e_dn, p_dn):
            omega[e, p] = 0.5
        rep = sector_observables(synthetic_gblocks(omega), basis,
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
        g = synthetic_gblocks(omega)
        modes = mode_table(np.random.default_rng(16), 4)
        numerics = NumericsParams(n_cut=1, prune_threshold=1e-6)
        pairs = sector_observables(g, modes, numerics).pairs
        assert [(e, p) for e, p, _ in pairs] == [(1, 2), (0, 0), (3, 3)]
        c_v = vacuum_amplitude(g).c_v
        for e, p, prob in pairs:
            assert prob == pytest.approx(abs(c_v * omega[e, p]) ** 2, rel=1e-12)
        # |omega|^2 = 1e-4 falls below a 1e-2 threshold
        tight = NumericsParams(n_cut=1, prune_threshold=1e-2)
        assert [(e, p) for e, p, _ in
                sector_observables(g, modes, tight).pairs] == [(1, 2), (0, 0)]

    def test_ties_ordered_by_labels_whatever_the_roundoff(self):
        # four probabilities equal to ~1e-15 relative, as in a degenerate
        # quadruple; which of them roundoff makes largest must not matter
        slots = [(3, 0), (0, 2), (2, 3), (1, 1)]
        wiggle = [1.0, 1.0 + 2e-15, 1.0 - 1e-15, 1.0 + 1e-15]
        numerics = NumericsParams(n_cut=1, prune_threshold=0.0)
        modes = mode_table(np.random.default_rng(17), 4)
        lists = []
        for perm in ([0, 1, 2, 3], [2, 0, 3, 1]):
            omega = np.zeros((4, 4), dtype=complex)
            omega[0, 3] = 0.5                       # a distinct top pair
            for (e, p), w in zip(slots, np.array(wiggle)[perm]):
                omega[e, p] = 0.3 * w
            lists.append(sector_observables(synthetic_gblocks(omega), modes,
                                            numerics).pairs)
        first, second = lists
        expected = [(0, 3), (0, 2), (1, 1), (2, 3), (3, 0)]
        assert [(e, p) for e, p, _ in first][:5] == expected
        assert [(e, p) for e, p, _ in second][:5] == expected
        for (_, _, a), (_, _, b) in zip(first, second):
            assert a == pytest.approx(b, rel=1e-14)

    def test_unpruned_probabilities_sum_to_c1(self):
        # the single-pair states span the N = 1 sector; a filled mode
        # (pi/2) and an empty one (0) included
        rng = np.random.default_rng(18)
        numerics = NumericsParams(n_cut=1, prune_threshold=0.0)
        for angles in ([0.3, 1.0, 0.7], [0.4, math.pi / 2, 0.0, 1.1, 0.7],
                       rng.uniform(0.0, 1.4, size=6)):
            g, _, _ = cs_unitary_gblocks(rng, np.array(angles))
            modes = mode_table(rng, len(angles))
            rep = sector_observables(g, modes, numerics)
            total = sum(prob for _, _, prob in rep.pairs)
            assert total == pytest.approx(rep.c[1], rel=1e-12)

    def test_cond_gmm_matches_numpy_cond(self):
        # cond(G_mm) from the QR diagonal against numpy's SVD of G_mm
        rng = np.random.default_rng(20)
        numerics = NumericsParams(n_cut=1, prune_threshold=0.0)
        for angles in ([0.3, 1.0, 0.7], [0.4, 1.4, 0.0, 1.1, 0.7],
                       rng.uniform(0.0, 1.4, size=6)):
            g, _, _ = cs_unitary_gblocks(rng, np.array(angles))
            rep = sector_observables(g, mode_table(rng, len(angles)), numerics)
            assert rep.cond_gmm == pytest.approx(np.linalg.cond(g.g_mm),
                                                 rel=1e-12)

    def test_every_mode_filled(self):
        # G_mm = 0: C_v = 0, so every pair stays and each has amplitude 0;
        # all six modes surely hold a pair
        rng = np.random.default_rng(21)
        g = GBlocks(g_pm=haar_unitary(rng, 6), g_mm=np.zeros((6, 6), complex))
        numerics = NumericsParams(n_cut=1, prune_threshold=1e-6,
                                  n_sector_max=6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = sector_observables(g, build_basis(numerics, FIELD), numerics)
        assert rep.cond_gmm == math.inf
        assert len(rep.pairs) == 36
        assert all(prob == 0.0 for _, _, prob in rep.pairs)
        assert rep.c[6] == pytest.approx(1.0, abs=1e-12)


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
        g, _, _ = cs_unitary_gblocks(rng, np.array(angles))
        pa = pair_amplitudes(g)
        vac = vacuum_amplitude(g)
        modes = mode_table(rng, len(angles))
        rep = sector_observables(g, modes,
                                 NumericsParams(n_cut=1, prune_threshold=0.0,
                                                n_sector_max=k_max))
        c_ref, (s_e, h_e), (s_p, h_p) = brute_force_sectors(
            pa.omega, vac.probability,
            [modes.spin_z[modes.plus_indices],
             modes.helicity[modes.plus_indices]],
            [modes.spin_z[modes.minus_indices],
             modes.helicity[modes.minus_indices]])

        assert abs(rep.c[0] - vac.probability) <= 1e-12
        assert np.max(np.abs(rep.c - c_ref[:k_max + 1])) <= 1e-12
        assert abs(rep.discarded_mass_bound - c_ref[k_max + 1:].sum()) <= 1e-12
        # sectors past the rank of omega hold roundoff only
        rank = sum(a > 0.0 for a in angles)
        for got, ref in ((rep.s_plus, s_e), (rep.h_plus, h_e),
                         (rep.s_minus, s_p), (rep.h_minus, h_p)):
            for n in range(1, min(k_max, rank) + 1):
                assert abs(got[n] - ref[n]) <= 1e-12

    def test_filled_mode_without_omega(self):
        # sin(theta) = 1 on one mode: G_mm is singular and omega does not
        # exist, yet that mode holds a pair for sure and the others are read
        # as the enumeration of omega over them alone
        rng = np.random.default_rng(16)
        angles = np.array([0.4, math.pi / 2, 0.0, 1.1, 0.7])
        g, a, c = cs_unitary_gblocks(rng, angles)
        modes = mode_table(rng, len(angles))
        k_max = 4
        numerics = NumericsParams(n_cut=1, prune_threshold=0.0,
                                  n_sector_max=k_max)
        rep = sector_observables(g, modes, numerics)
        rest = np.arange(len(angles)) != 1
        omega = -(a[:, rest] * np.tan(angles[rest])) @ c[:, rest].conj().T
        values = [modes.spin_z[modes.plus_indices],
                  modes.helicity[modes.plus_indices],
                  modes.spin_z[modes.minus_indices],
                  modes.helicity[modes.minus_indices]]
        c_ref, means_e, means_p = brute_force_sectors(
            omega, np.prod(np.cos(angles[rest]) ** 2), values[:2], values[2:])

        assert abs(rep.c[0]) <= 1e-12
        assert np.max(np.abs(rep.c[1:] - c_ref[:k_max])) <= 1e-12
        assert abs(rep.c.sum() + rep.discarded_mass_bound - 1.0) <= 1e-12
        # the filled mode adds its orbital's value to every sector
        for got, v, orbital, ref in zip(
                (rep.s_plus, rep.h_plus, rep.s_minus, rep.h_minus), values,
                (a[:, 1], a[:, 1], c[:, 1], c[:, 1]), means_e + means_p):
            filled = float(v @ np.abs(orbital) ** 2)
            assert abs(got[1] - filled) <= 1e-12
            for n in range(2, k_max + 1):
                assert abs(got[n] - filled - ref[n - 1]) <= 1e-12
        with pytest.raises(IllConditionedError):
            pair_amplitudes(g)
        # a column norm past 1 by roundoff leaves no probability negative
        over = sector_observables(GBlocks(g_pm=g.g_pm * (1.0 + 1e-13),
                                          g_mm=g.g_mm), modes, numerics)
        assert over.c[0] == 0.0 and np.all(over.c >= 0.0)

    def test_weak_modes_keep_their_positron_orbitals(self):
        # cos(theta) of these modes differ by ~1e-8 only: orbitals read off
        # G_mm's own singular vectors would mix them at that level, while
        # G_mm B keeps the sin(theta) spacing of G_pm's
        rng = np.random.default_rng(17)
        angles = np.array([1e-4, 2e-4, 3.5e-4, 0.0, 5e-5])
        g, _, _ = cs_unitary_gblocks(rng, angles)
        modes = mode_table(rng, len(angles))
        rep = sector_observables(g, modes,
                                 NumericsParams(n_cut=1, prune_threshold=0.0,
                                                n_sector_max=4))
        pa, vac = pair_amplitudes(g), vacuum_amplitude(g)
        c_ref, (s_e, h_e), (s_p, h_p) = brute_force_sectors(
            pa.omega, vac.probability,
            [modes.spin_z[modes.plus_indices],
             modes.helicity[modes.plus_indices]],
            [modes.spin_z[modes.minus_indices],
             modes.helicity[modes.minus_indices]])
        assert np.max(np.abs(rep.c - c_ref[:5])) <= 1e-12
        for got, ref in ((rep.s_plus, s_e), (rep.h_plus, h_e),
                         (rep.s_minus, s_p), (rep.h_minus, h_p)):
            for n in range(1, 5):
                assert abs(got[n] - ref[n]) <= 1e-12
