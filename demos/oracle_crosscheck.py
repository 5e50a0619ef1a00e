"""Cross-check: determinant combinatorics against exact Fock propagation.

On a 12-mode basis the charge-zero Fock sector has 924 states, small
enough to propagate the vacuum exactly.  Every multi-pair amplitude then
has two independent routes:

  1. a minor of the propagator blocks: det(G_mm) with the positron rows
     replaced by the electron rows of -G_pm,
  2. a direct overlap with the evolved many-body state.

They must agree to near machine precision, signs included; any mismatch
would point at the fermionic ordering conventions.
The same comparison runs from the command line as `diracpairs
oracle-check --config ...`.
"""

from dataclasses import replace
from itertools import combinations

import numpy as np

from diracpairs import (NumericsParams, WindowParams, build_basis,
                        extract_g_blocks, figure_configs,
                        multi_pair_amplitude, propagate, propagate_vacuum,
                        read_amplitude, sector_observables,
                        sector_probabilities_exact, vacuum_overlap)

config, _ = figure_configs()["fig2"]
config = replace(config,
                 window=WindowParams(ramp_cycles=1, plateau_cycles=2),
                 numerics=NumericsParams(n_cut=1, steps_per_cycle=256,
                                         prune_threshold=0.0, n_sector_max=6))
basis = build_basis(config.numerics, config.field)

u = propagate(config, basis)
g = extract_g_blocks(u, basis, config)
c_v = multi_pair_amplitude(g, [], [])

state = propagate_vacuum(config, basis)
print(f"Fock dimension {state.fock.dim}, norm drift {state.norm_drift:.1e}")
print(f"C_v (determinant path): {c_v:.12f}")
print(f"C_v (Fock path):        {vacuum_overlap(state):.12f}")

worst = abs(c_v - vacuum_overlap(state))
checked = 0
for n in (1, 2):
    for es in combinations(range(basis.n_electron_modes), n):
        for ps in combinations(range(basis.n_positron_modes), n):
            det_amp = multi_pair_amplitude(g, es, ps)
            fock_amp = read_amplitude(state, es, ps)
            worst = max(worst, abs(det_amp - fock_amp))
            checked += 1
print(f"\nchecked {checked} amplitudes with N <= 2: "
      f"max |difference| = {worst:.2e}")

rep = sector_observables(g, basis, config.numerics)
exact = sector_probabilities_exact(state)
print("\npair-number probabilities, both routes:")
for n in range(7):
    print(f"  c_{n}: closed form {rep.c[n]:.12e}   Fock {exact[n]:.12e}")
print(f"sum over sectors (closed form): {rep.c.sum():.12f}")
