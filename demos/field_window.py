"""Windowed two-beam field: envelope shape and vector-potential samples.

The vector potential of each beam is the analytic antiderivative of its
monochromatic electric field, multiplied by a sin^2/plateau window; the
whole field is one carrier c(t) = env(t) e^{-i w t} times the two beam
amplitudes X_pm.  This script prints the envelope at its landmarks,
verifies that the reassembled A(z) is real to machine precision, and writes
a CSV of A(t) and E(t) at z = 0 (the same data `diracpairs dump-field`
produces).
"""

import math

import numpy as np

from diracpairs import (HelicityRelation, WindowParams, beam_amplitudes,
                        carrier, electric_field_at, envelope, field_from_si,
                        potential_vector_at, xi)

field = field_from_si(4.9e17, 0.746, 0.2 * math.pi / 4, HelicityRelation.SAME)
window = WindowParams(ramp_cycles=2, plateau_cycles=4)

print(f"nonlinearity parameter xi = {xi(field):.4f}")
print(f"cycle duration = {field.cycle_duration:.4f} (units of 1/m0)")

print("\nenvelope landmarks (time in cycles):")
for t_c in (0.0, window.ramp_cycles / 2, window.ramp_cycles,
            window.ramp_cycles + window.plateau_cycles / 2,
            window.total_cycles):
    print(f"  w({t_c:4.1f}) = {envelope(t_c, window):.6f}")

# A(z) = c (X_plus e^{ikz} + X_minus e^{-ikz}) + c.c. must be real: the
# e^{+ikz} and e^{-ikz} coefficients are conjugate.  Check the worst
# imaginary remainder over a z grid, and potential_vector_at against it
t_c = window.ramp_cycles + 0.3
c = carrier(t_c, window)
x_plus, x_minus = beam_amplitudes(field)
kz = np.linspace(0.0, 2.0 * np.pi, 256)[:, None]
a_complex = ((c * x_plus + np.conj(c * x_minus)) * np.exp(1j * kz)
             + (c * x_minus + np.conj(c * x_plus)) * np.exp(-1j * kz))
a_grid = np.array([potential_vector_at(k / field.wavenumber,
                                       t_c * field.cycle_duration, field, window)
                   for k in kz[:, 0]])
print(f"\nmax |Im A| on a z grid: {np.abs(a_complex.imag).max():.2e}  "
      f"(|A| scale {np.abs(a_grid).max():.3f} m0/e)")
print(f"max |potential_vector_at - Re A|: "
      f"{np.abs(a_grid - a_complex.real).max():.2e}")

rows = ["t_cycles,Ax,Ay,Az,Ex,Ey,Ez"]
for i in range(window.total_cycles * 32 + 1):
    t_c = i / 32
    t = t_c * field.cycle_duration
    a = potential_vector_at(0.0, t, field, window)
    e = electric_field_at(0.0, t, field, window)
    rows.append(",".join(f"{v:.9e}" for v in (t_c, *a, *e)))
with open("field_window.csv", "w") as fh:
    fh.write("\n".join(rows) + "\n")
print(f"\nwrote field_window.csv ({len(rows) - 1} samples at z=0)")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    data = np.array([[float(x) for x in r.split(",")] for r in rows[1:]])
    fig, ax = plt.subplots(2, 1, sharex=True, figsize=(8, 5))
    ax[0].plot(data[:, 0], data[:, 1], label="$A_x$")
    ax[0].plot(data[:, 0], data[:, 2], label="$A_y$")
    ax[0].set_ylabel("A  [$m_0/e$]")
    ax[0].legend()
    ax[1].plot(data[:, 0], data[:, 4], label="$E_x$")
    ax[1].plot(data[:, 0], data[:, 5], label="$E_y$")
    ax[1].set_xlabel("time [cycles]")
    ax[1].set_ylabel("E  [$E_S$]")
    ax[1].legend()
    fig.tight_layout()
    fig.savefig("field_window.png", dpi=150)
    print("wrote field_window.png")
except ImportError:
    print("matplotlib not available; skipped the plot")
