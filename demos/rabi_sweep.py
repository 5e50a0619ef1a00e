"""Interaction-time sweep: Rabi-like oscillation of the pair content.

The plateau is time-periodic, so its one-cycle propagator is computed and
brought into Floquet form Q diag(lambda) Q^dag once; a plateau of j cycles
is then Q diag(lambda^j) Q^dag, so all 121 interaction times are one stacked
composition and one stacked readout (``sector_observables``), as a plateau
sweep reads them, instead of a fresh integration each.  The dominant
single-pair probability rises and falls (transitions back into the sea),
while the vacuum probability decays and multi-pair sectors take over.
"""

import numpy as np

from diracpairs import (build_basis, cycle_compose, extract_g_blocks,
                        figure_configs, propagator_segments,
                        sector_observables, with_plateau)

config, _ = figure_configs()["fig2"]
basis = build_basis(config.numerics, config.field)
u_on, u_cycle, u_off = propagator_segments(config, basis)
print(f"segment propagators ready ({u_on.steps + u_cycle.steps + u_off.steps}"
      f" step exponentials evaluated)")

plateaus = list(range(121))
us = cycle_compose(u_on, u_cycle, u_off, plateaus)
reports = sector_observables(
    [extract_g_blocks(u, basis, with_plateau(config, j))
     for u, j in zip(us, plateaus)], basis, config.numerics)
# c[0] is |C_v|^2, and the pair list is ranked most probable first
rows = [(j, float(report.c[0]), float(report.pairs[0][2]))
        for j, report in zip(plateaus, reports)]

with open("rabi_sweep.csv", "w") as fh:
    fh.write("plateau_cycles,cv_abs2,max_pair_prob\n")
    for j, cv2, mx in rows:
        fh.write(f"{j},{cv2!r},{mx!r}\n")
print(f"wrote rabi_sweep.csv ({len(rows)} points)")

arr = np.array(rows)
peak = arr[:, 2].argmax()
print(f"dominant pair probability peaks at plateau = {int(arr[peak, 0])} "
      f"cycles ({arr[peak, 2]:.4f}) and later falls to "
      f"{arr[peak:, 2].min():.4f}")
print(f"vacuum probability decays from {arr[0, 1]:.4f} to {arr[:, 1].min():.4f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(8, 4))
    ax.plot(arr[:, 0], arr[:, 1], label=r"$|C_v|^2$")
    ax.plot(arr[:, 0], arr[:, 2], label="strongest single pair")
    ax.set_xlabel("plateau length [cycles]")
    ax.set_ylabel("probability")
    ax.set_yscale("log")
    ax.legend()
    fig.tight_layout()
    fig.savefig("rabi_sweep.png", dpi=150)
    print("wrote rabi_sweep.png")
except ImportError:
    print("matplotlib not available; skipped the plot")
