"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Full figure-scale reproduction (hundreds of cycles at converged
truncation) is a documented long-running experiment, not part of this
suite; these are property checks plus desk-scale quantitative gates.
"""

import time
from dataclasses import replace
from itertools import combinations, permutations

import numpy as np
import pytest

from diracpairs import (FieldParams, HelicityRelation,
                        NumericsParams, RunConfig, WindowParams, build_basis,
                        cycle_compose, extract_g_blocks,
                        figure_configs, multi_pair_amplitude, pair_amplitudes,
                        propagate, propagator_segments, propagate_vacuum,
                        read_amplitude, sector_observables, unitarity_defect,
                        vacuum_amplitude, vacuum_overlap, with_plateau)
from diracpairs.dynamics import _integrate
from diracpairs.multipair import PairAmplitudes, VacuumAmplitude


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def readout(config, basis=None, u=None):
    basis = basis if basis is not None else build_basis(config.numerics,
                                                        config.field)
    u = u if u is not None else propagate(config, basis)
    g = extract_g_blocks(u, basis, config)
    return basis, u, g, pair_amplitudes(g), vacuum_amplitude(g)


@pytest.fixture(scope="module")
def fig2_run10():
    """fig2 preset at 10 plateau cycles (the preset default)."""
    config, _ = figure_configs()["fig2"]
    t0 = time.perf_counter()
    basis, u, g, pairs, vac = readout(config)
    return {"config": config, "basis": basis, "u": u, "g": g, "pairs": pairs,
            "vac": vac, "seconds": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def fig2_run20():
    """fig2 preset at 20 plateau cycles, for the degeneracy criteria."""
    config, _ = figure_configs()["fig2"]
    config = with_plateau(config, 20)
    basis, u, g, pairs, vac = readout(config)
    return {"config": config, "basis": basis, "pairs": pairs, "vac": vac}


@pytest.fixture(scope="module")
def oracle_run():
    """fig2 field scaled to 2 plateau cycles, ramp 1, 12 modes.

    steps_per_cycle is a test choice; both paths share the grid exactly, so
    the comparison is discretization-free.
    """
    config, _ = figure_configs()["fig2"]
    config = replace(
        config,
        window=WindowParams(ramp_cycles=1, plateau_cycles=2),
        numerics=NumericsParams(n_cut=1, steps_per_cycle=256,
                                prune_threshold=0.0, n_sector_max=6))
    t0 = time.perf_counter()
    basis, u, g, pairs, vac = readout(config)
    state = propagate_vacuum(config, basis)
    return {"config": config, "basis": basis, "pairs": pairs, "vac": vac,
            "state": state, "seconds": time.perf_counter() - t0}


def test_criterion_1_free_field_identity():
    t0 = time.perf_counter()
    field = FieldParams(omega=0.746, e_peak=0.0, alpha_plus=0.2,
                        helicity_relation=HelicityRelation.SAME)
    config = RunConfig(field=field,
                       window=WindowParams(ramp_cycles=1, plateau_cycles=3),
                       numerics=NumericsParams(n_cut=2, steps_per_cycle=64,
                                               prune_threshold=0.0,
                                               n_sector_max=4))
    basis, u, g, pairs, vac = readout(config)
    rep = sector_observables(pairs, vac, basis, config.numerics)
    elapsed = time.perf_counter() - t0
    # c_0 is |C_v|^2 identically; "c_0 = 1" shares the stated 1e-12 window
    # (bitwise unity is unattainable for any propagation that actually runs)
    ok = (np.max(np.abs(pairs.omega)) < 1e-12
          and abs(vac.probability - 1.0) < 1e-12
          and rep.c[0] == vac.probability
          and abs(rep.c[0] - 1.0) < 1e-12
          and np.all(rep.c[1:] < 1e-20)
          and elapsed < 1.0)
    report(1, ok, f"free field: max|omega|={np.max(np.abs(pairs.omega)):.2e}, "
                  f"||C_v|^2-1|={abs(vac.probability - 1.0):.2e}, "
                  f"c_0=|C_v|^2 exactly, {elapsed:.2f}s (budget 1s)")


def test_criterion_2_unitarity(fig2_run10):
    u = fig2_run10["u"]
    config = fig2_run10["config"]
    defect = unitarity_defect(u.matrix)
    assert config.numerics.n_cut == 4
    assert config.numerics.steps_per_cycle == 1024
    assert config.window.plateau_cycles == 10
    ok = defect < 1e-10 and fig2_run10["seconds"] < 60.0
    report(2, ok, f"fig2 n_cut=4, 10 plateau cycles: "
                  f"max|U+U - I|={defect:.2e} (tol 1e-10), "
                  f"{fig2_run10['seconds']:.1f}s (budget 60s)")


def test_criterion_3_oracle_equivalence(oracle_run):
    pairs, vac, state = (oracle_run["pairs"], oracle_run["vac"],
                         oracle_run["state"])
    worst = abs(vac.c_v - vacuum_overlap(state))
    m = oracle_run["basis"].n_electron_modes
    for n in (1, 2):
        for es in combinations(range(m), n):
            for ps in combinations(range(m), n):
                det_amp = multi_pair_amplitude(pairs, vac, es, ps).amplitude
                fock_amp = read_amplitude(state, es, ps)
                worst = max(worst, abs(det_amp - fock_amp))
    ok = worst < 1e-8 and oracle_run["seconds"] < 120.0
    report(3, ok, f"determinant vs Fock paths, all N<=2 amplitudes and C_v: "
                  f"max diff {worst:.2e} (tol 1e-8), "
                  f"{oracle_run['seconds']:.1f}s (budget 120s)")


def test_criterion_4_normalization(oracle_run):
    rep = sector_observables(oracle_run["pairs"], oracle_run["vac"],
                             oracle_run["basis"],
                             oracle_run["config"].numerics)
    total = float(rep.c.sum())
    ok = abs(total - 1.0) < 1e-8
    report(4, ok, f"pruning disabled: sum_N c_N = {total!r} (tol 1e-8)")


def test_criterion_5_pauli_zeros(oracle_run):
    pairs, vac, state = (oracle_run["pairs"], oracle_run["vac"],
                         oracle_run["state"])
    det_vals = [
        multi_pair_amplitude(pairs, vac, [1, 1], [0, 2]).amplitude,
        multi_pair_amplitude(pairs, vac, [0, 2], [3, 3]).amplitude,
        multi_pair_amplitude(pairs, vac, [4, 4, 1], [0, 1, 2]).amplitude,
    ]
    fock_vals = [read_amplitude(state, [1, 1], [0, 2]),
                 read_amplitude(state, [0, 2], [3, 3])]
    ok = all(v == 0.0 for v in det_vals + fock_vals)
    report(5, ok, "repeated labels give bitwise-zero amplitudes on both paths")


def test_criterion_6_determinant_permutation_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(3, 7))
        omega = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        pairs = PairAmplitudes(omega=omega, cond_mm=1.0)
        vac = VacuumAmplitude(c_v=complex(rng.normal() + 1j * rng.normal()),
                              log_abs=0.0)
        n = int(rng.integers(1, 4))
        es = sorted(rng.choice(dim, size=n, replace=False).tolist())
        ps = sorted(rng.choice(dim, size=n, replace=False).tolist())
        det_amp = multi_pair_amplitude(pairs, vac, es, ps).amplitude
        ref = 0.0j
        for perm in permutations(range(n)):
            sign = 1
            seen = list(perm)
            for i in range(n):
                while seen[i] != i:
                    j = seen[i]
                    seen[i], seen[j] = seen[j], seen[i]
                    sign = -sign
            term = sign + 0.0j
            for i in range(n):
                term *= omega[es[i], ps[perm[i]]]
            ref += term
        ref *= vac.c_v
        if abs(ref) > 0:
            worst = max(worst, abs(det_amp - ref) / abs(ref))
    ok = worst < 1e-10
    report(6, ok, f"100 random omega (dim<=6, N<=3): "
                  f"max relative diff {worst:.2e} (tol 1e-10)")


def test_criterion_7_cycle_composition():
    config, _ = figure_configs()["fig2"]
    config = replace(config,
                     window=WindowParams(ramp_cycles=2, plateau_cycles=0),
                     numerics=replace(config.numerics, n_cut=2,
                                      steps_per_cycle=128))
    basis = build_basis(config.numerics, config.field)
    segments = propagator_segments(config, basis)
    worst = 0.0
    for j in (1, 7, 32):
        plateau_j = with_plateau(config, j)
        direct, _ = _integrate(basis, plateau_j, 0.0,
                               float(plateau_j.window.total_cycles))
        composed = cycle_compose(*segments, j)
        worst = max(worst, float(np.max(np.abs(direct - composed.matrix))))
    ok = worst < 1e-9
    report(7, ok, f"composed vs direct integration for j in (1, 7, 32): "
                  f"max |diff| {worst:.2e} (tol 1e-9)")

    # speedup benchmark (report only, not a gate): same integrator cost
    # model at reduced steps, j <= 400
    bench = replace(config, numerics=replace(config.numerics, n_cut=4,
                                             steps_per_cycle=128))
    bench_basis = build_basis(bench.numerics, bench.field)
    t0 = time.perf_counter()
    bench_segments = propagator_segments(bench, bench_basis)
    for j in range(0, 401):
        cycle_compose(*bench_segments, j)
    composed_time = time.perf_counter() - t0
    bench_20 = with_plateau(bench, 20)
    total = bench_20.window.total_cycles
    t0 = time.perf_counter()
    _integrate(bench_basis, bench_20, 0.0, float(total))
    per_cycle = (time.perf_counter() - t0) / total
    direct_estimate = sum(per_cycle * (j + 2 * bench.window.ramp_cycles)
                          for j in range(0, 401))
    print(f"\nACCEPTANCE 7 (benchmark report): composed sweep j<=400 took "
          f"{composed_time:.2f}s vs estimated {direct_estimate:.1f}s direct "
          f"({direct_estimate / composed_time:.0f}x)")


def _degenerate_groups(probs, cutoff_rel=1e-3, equal_rel=1e-6):
    """Cluster the dominant probabilities by relative equality."""
    flat = np.sort(probs.ravel())[::-1]
    cutoff = cutoff_rel * flat[0]
    selected = [float(p) for p in flat if p >= cutoff]
    # never bisect a degenerate group at the cutoff
    rest = [float(p) for p in flat if p < cutoff]
    while rest and (selected[-1] - rest[0]) < equal_rel * selected[-1]:
        selected.append(rest.pop(0))
    groups = [[selected[0]]]
    for p in selected[1:]:
        if (groups[-1][-1] - p) < equal_rel * groups[-1][-1]:
            groups[-1].append(p)
        else:
            groups.append([p])
    return groups


def test_criterion_8_four_fold_degeneracy(fig2_run20):
    pairs, vac = fig2_run20["pairs"], fig2_run20["vac"]
    probs = np.abs(vac.c_v * pairs.omega) ** 2
    groups = _degenerate_groups(probs)
    sizes = [len(g) for g in groups]
    spreads = [(g[0] - g[-1]) / g[0] for g in groups]
    ok = (all(size % 4 == 0 for size in sizes)
          and all(s < 1e-6 for s in spreads))
    report(8, ok, f"fig2 at 20 plateau cycles: dominant single-pair "
                  f"probabilities group as {sizes} "
                  f"(quadruples, spread <= {max(spreads):.1e}, tol 1e-6)")


def test_criterion_9_symmetry_selection_rules(fig2_run10):
    # same helicity: averaged spin vanishes, electron/positron helicities equal
    config = fig2_run10["config"]
    rep2 = sector_observables(fig2_run10["pairs"], fig2_run10["vac"],
                              fig2_run10["basis"], config.numerics)
    s_max = max(max(abs(v) for v in rep2.s_plus.values()),
                max(abs(v) for v in rep2.s_minus.values()))
    h_split = max(abs(rep2.h_plus[n] - rep2.h_minus[n]) for n in rep2.h_plus)

    # opposite helicity: averaged helicity vanishes (fig4 preset as is)
    config4, _ = figure_configs()["fig4"]
    basis4, _, _, pairs4, vac4 = readout(config4)
    rep4 = sector_observables(pairs4, vac4, basis4, config4.numerics)
    h_max = max(max(abs(v) for v in rep4.h_plus.values()),
                max(abs(v) for v in rep4.h_minus.values()))
    s_seen = max(abs(v) for v in rep4.s_plus.values())

    ok = s_max < 1e-8 and h_max < 1e-8 and h_split < 1e-8
    report(9, ok, f"same-helicity max|s|={s_max:.2e}, "
                  f"max|h+ - h-|={h_split:.2e}; opposite-helicity "
                  f"max|h|={h_max:.2e} (tol 1e-8 each; "
                  f"opposite-helicity spin magnitude {s_seen:.3f})")


def test_criterion_10_rabi_like_non_monotonicity():
    t0 = time.perf_counter()
    config, _ = figure_configs()["fig2"]
    basis = build_basis(config.numerics, config.field)
    segments = propagator_segments(config, basis)
    trajectories = []
    for j in range(0, 121):
        u = cycle_compose(*segments, j)
        g = extract_g_blocks(u, basis)
        pairs = pair_amplitudes(g)
        vac = vacuum_amplitude(g)
        trajectories.append(np.abs(vac.c_v * pairs.omega) ** 2)
    trajectories = np.stack(trajectories)
    elapsed = time.perf_counter() - t0

    # follow the single pair that dominates anywhere in the sweep
    peak_j, m_star, n_star = np.unravel_index(np.argmax(trajectories),
                                              trajectories.shape)
    track = trajectories[:, m_star, n_star]
    peak = track[peak_j]
    later_min = track[peak_j:].min()
    ok = (peak_j > 0 and later_min < 0.5 * peak and elapsed < 1800.0)
    report(10, ok, f"dominant pair probability peaks at plateau={peak_j} "
                   f"({peak:.4f}) then falls to {later_min:.4f} "
                   f"(< 50% of peak required); sweep of 121 points took "
                   f"{elapsed:.1f}s (budget 1800s)")


def test_criterion_11_truncation_convergence(fig2_run20):
    pairs4, vac4 = fig2_run20["pairs"], fig2_run20["vac"]
    c1_ncut4 = vac4.probability * float(np.sum(np.abs(pairs4.omega) ** 2))

    config6 = replace(fig2_run20["config"],
                      numerics=replace(fig2_run20["config"].numerics, n_cut=6))
    _, _, _, pairs6, vac6 = readout(config6)
    c1_ncut6 = vac6.probability * float(np.sum(np.abs(pairs6.omega) ** 2))

    change = abs(c1_ncut6 - c1_ncut4) / c1_ncut6
    ok = change < 0.05
    report(11, ok, f"c_1(n_cut=4) = {c1_ncut4:.6g}, "
                   f"c_1(n_cut=6) = {c1_ncut6:.6g}, "
                   f"relative change {change:.3%} (tol 5%)")
