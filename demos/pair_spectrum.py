"""Pair content of a single desk-scale run with two same-helicity beams.

Propagates the fig2 preset over its window and prints the vacuum
persistence, a minor of the propagator blocks, then the strongest
single-pair states (note the four-fold degeneracy), the pair-number
probabilities and the averaged spin and helicity per sector, all read
from one SVD and one QR of the blocks.  None of it needs an inverse.
"""

import numpy as np

from diracpairs import (build_basis, extract_g_blocks, figure_configs,
                        multi_pair_amplitude, propagate, sector_observables,
                        with_plateau, xi)

config, meta = figure_configs()["fig2"]
config = with_plateau(config, 10)
print(f"omega = {config.field.omega} m0, xi = {xi(config.field):.3f}, "
      f"window = {config.window.ramp_cycles}+{config.window.plateau_cycles}"
      f"+{config.window.ramp_cycles} cycles")

basis = build_basis(config.numerics, config.field)
u = propagate(config, basis)
print(f"propagated: {u.steps} step exponentials evaluated, "
      f"unitarity defect {u.unitarity_defect:.1e}")

g = extract_g_blocks(u, basis, config)
c_v = multi_pair_amplitude(g, [], [])
print(f"\nvacuum persistence |C_v|^2 = {abs(c_v) ** 2:.6f}")

report = sector_observables(g, basis, config.numerics)
print("\nstrongest single-pair states (|amplitude|^2, fourfold degenerate):")
for e, p, prob in report.pairs[:8]:
    print(f"  e {basis.label(basis.plus_indices[e]):>3}  "
          f"p {basis.label(basis.minus_indices[p]):>3}   {prob:.6f}")
print("\npair-number sectors:")
print(f"  {'N':>2} {'c_N':>12} {'s+':>10} {'s-':>10} {'h+':>10} {'h-':>10}")
for n in range(len(report.c)):
    s_p = report.s_plus.get(n)
    row = f"  {n:>2} {report.c[n]:>12.3e}"
    if n == 0 or s_p is None:
        print(row)
        continue
    print(row + f" {report.s_plus[n]:>10.2e} {report.s_minus[n]:>10.2e}"
                f" {report.h_plus[n]:>10.4f} {report.h_minus[n]:>10.4f}")
print(f"\nprobability of more than {len(report.c) - 1} pairs: "
      f"{report.discarded_mass_bound:.2e}")
print("same-helicity beams: averaged spin vanishes, helicities are equal "
      "for electrons and positrons")
