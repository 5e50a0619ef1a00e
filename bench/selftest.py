"""Self-test of the benchmark harness on reduced-size inputs (seconds).

    python3 bench/selftest.py

Runs reduced versions of the workloads (n_cut 1, 32 steps per cycle, a
three-point sweep) through the same harness path as ``run.py``, with
references computed on the spot at 2x steps, and asserts that:

* every end-to-end and per-layer metric named in BENCHMARK.json is emitted
  with its unit, and every output check passes;
* the traced self times add up to the traced wall time;
* an EnumerationBudgetError (n_cut 4 at prune 0) is counted as a failed
  operation and in ``failed_ratio`` instead of aborting the benchmark;
* in a directory holding only BENCHMARK.json and the benchmark files,
  ``run.py`` exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import harness
import reference

SMALL = {"window": {"ramp_cycles": 1, "plateau_cycles": 1},
         "numerics": {"n_cut": 1, "steps_per_cycle": 32}}

SMALL_WORKLOADS = (
    harness.Workload("small_run", "run", "fig2", **SMALL),
    harness.Workload("small_sweep", "sweep", "fig2", values=(0, 1, 2), **SMALL),
    harness.Workload("small_oracle", "oracle", "fig2", window=SMALL["window"],
                     numerics={"n_cut": 1, "steps_per_cycle": 32,
                               "prune_threshold": 0.0, "n_sector_max": 6}),
    # all 18x18 labels retained at prune 0: the enumeration exceeds its budget
    harness.Workload("small_budget", "run", "fig2", window=SMALL["window"],
                     numerics={"n_cut": 4, "steps_per_cycle": 16,
                               "prune_threshold": 0.0, "n_sector_max": 4}),
)


def _expect(ok, message):
    if not ok:
        raise AssertionError(message)


def _check_names(line, declared, label):
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    _expect(got == want, f"{label}: metrics {sorted(set(got) ^ set(want))} "
                         f"differ or units differ: {got} vs {want}")
    for name, metric in line["metrics"].items():
        _expect(isinstance(metric["value"], float), f"{label}: {name} value")


def _check_empty_directory():
    root = os.path.join(harness.WORK_DIR, "selftest_empty")
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    shutil.copy("BENCHMARK.json", root)
    with open("BENCHMARK.json") as fh:
        paths = json.load(fh)["paths"]
    for path in paths:
        shutil.copytree(path, os.path.join(root, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    with open("BENCHMARK.json") as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run(command + ["--workload", "fig2_run", "--seed", "0",
                                     "--seconds", "1", "--trace", "0"],
                          cwd=root, capture_output=True, text=True,
                          timeout=120)
    shutil.rmtree(root, ignore_errors=True)
    _expect(proc.returncode != 0, "run.py succeeded without the program")
    _expect('"metrics"' not in proc.stdout, "run.py printed a result")


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    for workload in SMALL_WORKLOADS:
        for seed in (0, 1):
            _, ref = reference.workload_reference(workload, seed, factor=2)
            for trace in (False, True):
                line, info = harness.run_workload(workload, seed, 0.0, trace,
                                                  reference=ref)
                label = f"{workload.name} seed {seed} trace {int(trace)}"
                _expect(line["correct"], f"{label}: {info['problems']}")
                _expect(line["attempted"] == workload.ops_per_rep
                        * info["reps"], f"{label}: attempted")
                _check_names(line, bench["per_layer" if trace
                                         else "end_to_end"], label)
                metrics = {k: v["value"] for k, v in line["metrics"].items()}
                if workload.name == "small_budget":
                    _expect(line["failed"] == line["attempted"],
                            f"{label}: budget failure not counted")
                    if trace:
                        _expect(metrics["failed_ratio"] == 1.0, label)
                        _expect(metrics["multipair.sectors.failed"] >= 1,
                                f"{label}: sectors.failed")
                else:
                    _expect(line["failed"] == 0, f"{label}: failed ops")
                if trace:
                    _expect(abs(metrics["trace.self_sum_s"]
                                - metrics["trace.wall_s"]) < 1e-6,
                            f"{label}: self times do not add up")
                else:
                    _expect(metrics["err_c"] > 0.0, f"{label}: err_c")
                print(f"ok {label}: attempted {line['attempted']} failed "
                      f"{line['failed']}", flush=True)
    _check_empty_directory()
    print("ok run.py refuses a directory without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
