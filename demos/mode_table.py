"""The truncated mode chain: momenta, energies, spin and helicity labels.

Each lattice point n carries four free Dirac modes (two bands times two
spin projections).  For the k0 = 0 subspace all momenta lie on the z axis,
so spin-z and helicity labels are exact. The same table is available from
the command line via `diracpairs dump-basis`.
"""

import math

import numpy as np

from diracpairs import (HelicityRelation, NumericsParams, build_basis,
                        field_from_si, free_hamiltonian)

field = field_from_si(4.9e17, 0.746, 0.2 * math.pi / 4, HelicityRelation.SAME)
numerics = NumericsParams(n_cut=2)
basis = build_basis(numerics, field)

print(f"{basis.dim} modes on the chain n in [-2, 2], k = {basis.k}\n")
print(f"{'idx':>3} {'n':>3} {'band':>6} {'spin':>5} "
      f"{'energy':>10} {'spin_z':>7} {'helicity':>9}")
for idx in range(basis.dim):
    label = basis.label(idx)
    print(f"{idx:>3} {label.n:>3} {label.band.value:>6} {label.spin.value:>5} "
          f"{basis.energies[idx]:>10.6f} {basis.spin_z[idx]:>7.2f} "
          f"{basis.helicity[idx]:>9.2f}")

# every stored spinor is an exact eigenvector of alpha.p + beta
residual = (np.einsum("iab,bi->ai", free_hamiltonian(basis.momenta),
                      basis.spinors) - basis.spinors * basis.energies)
print(f"\nmax eigenvector residual over the table: "
      f"{np.max(np.abs(residual)):.2e}")
