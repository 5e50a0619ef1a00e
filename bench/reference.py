"""Reference pair-number probabilities c_N^ref for the benchmark's err_c.

For each workload and each seed index the script integrates the workload's
input at ``FACTOR`` x its ``steps_per_cycle`` with the package's own
midpoint rule (``propagator_segments`` plus ``cycle_compose``) and reads
out c_N in closed form,

    c_N = |C_v|^2 e_N(eigenvalues of omega^dag omega),

the identity ``test_against_symmetric_function_identity`` checks, with the
elementary symmetric polynomials e_N from the all-positive recurrence.  The
reference therefore needs neither the subset enumeration nor its budget,
nor any pruning.  The midpoint error falls as dt^2, so the reference error
is about 1/FACTOR^2 of the benchmarked run's.

Run from the root of a checkout:

    OPENBLAS_NUM_THREADS=1 python3 bench/reference.py

It rewrites ``bench/reference.json`` with the values, the commit, the step
counts and the method.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import replace

import harness

FACTOR = 8
METHOD = ("exponential midpoint rule (dynamics.propagator_segments + "
          "cycle_compose) at FACTOR x steps_per_cycle; c_N = |C_v|^2 "
          "e_N(eig(omega^dag omega)) by the all-positive recurrence")


def elementary_symmetric(lam, n_max):
    e = [1.0] + [0.0] * n_max
    for x in lam:
        x = max(float(x), 0.0)
        for n in range(n_max, 0, -1):
            e[n] += x * e[n - 1]
    return e


def reference_c(config_dict: dict, plateau_values, factor: int = FACTOR):
    """{plateau: [c_0 .. c_{n_sector_max}]} at factor x the config's steps."""
    dp = harness.import_package()
    import numpy as np
    config = dp.config_from_dict(config_dict)
    fine = replace(config, numerics=replace(
        config.numerics,
        steps_per_cycle=factor * config.numerics.steps_per_cycle))
    basis = dp.build_basis(fine.numerics, fine.field)
    segments = dp.propagator_segments(fine, basis)
    out = {}
    for j in plateau_values:
        u = dp.cycle_compose(*segments, int(j))
        g = dp.extract_g_blocks(u, basis, dp.with_plateau(fine, int(j)))
        pairs = dp.pair_amplitudes(g)
        vac = dp.vacuum_amplitude(g)
        lam = np.linalg.eigvalsh(pairs.omega.conj().T @ pairs.omega)
        e = elementary_symmetric(lam, fine.numerics.n_sector_max)
        out[int(j)] = [vac.probability * x for x in e]
    return out


def workload_reference(workload, seed: int, factor: int = FACTOR):
    """Reference in the shape ``harness.check_rep`` expects."""
    directory = os.path.join(harness.WORK_DIR, "reference",
                             f"{workload.name}-{seed}")
    _, config = harness.workload_input(workload, seed, directory)
    if workload.kind == "sweep":
        values = reference_c(config, workload.values, factor)
        return config, {str(j): c for j, c in values.items()}
    plateau = config["window"]["plateau_cycles"]
    return config, reference_c(config, [plateau], factor)[plateau]


def main() -> int:
    out = {"commit": harness.environment()["git_commit"],
           "method": METHOD, "factor": FACTOR,
           "shift_table_size": harness.SHIFT_TABLE_SIZE,
           "max_k0_shift": harness.MAX_K0_SHIFT, "workloads": {}}
    for workload in harness.WORKLOADS.values():
        entries = {}
        for index in range(harness.SHIFT_TABLE_SIZE):
            t0 = time.perf_counter()
            config, c = workload_reference(workload, index)
            entries[str(index)] = {"k0_z": harness.k0_shift(index), "c": c}
            print(f"{workload.name} index {index}: "
                  f"{time.perf_counter() - t0:.1f}s", file=sys.stderr)
        out["workloads"][workload.name] = {
            "steps_per_cycle": FACTOR * config["numerics"]["steps_per_cycle"],
            "entries": entries}
    with open(os.path.join(harness.BENCH_DIR, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
