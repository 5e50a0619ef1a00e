"""Benchmark harness for diracpairs: workloads, repetitions, checks, metrics.

Every repetition runs one public CLI command (``diracpairs.cli.main``) in a
fresh ``python3 bench/rep.py`` process with its own output directory,
``DIRACPAIRS_OUTDIR`` pointing at it and the BLAS/OpenMP thread variables
pinned to ``THREADS``.  The harness checks the outputs of every repetition
and compares c_N with stored reference values (``reference.json``).

Operations: one ``run``, one sweep point, or one ``oracle-check``.  A failed
operation is an exit code 2 or 3 (validation or numerical-tolerance
failure) or a sweep row with an ``error`` string; it counts in ``failed``
and its readout counts as missing in ``err_c``.  A failed check (wrong
output, crash, byte-different rerun) makes the result ``correct: false``.

``err_c`` is max over operations and N of |c_N - c_N^ref|.  An operation
without a readout contributes sum_N c_N^ref, the whole probability mass it
failed to deliver, so making a failing operation succeed can only lower it.
"""

from __future__ import annotations

import glob
import itertools
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = "src"
WORK_DIR = ".bench_run"
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Seeds pick one of SHIFT_TABLE_SIZE inputs: index = seed % size.  Index 0
# runs the presets unchanged; index i > 0 shifts k0_z by a fixed draw from
# random.Random(i) in [-MAX_K0_SHIFT, MAX_K0_SHIFT] (units of m0).  Shifts
# that large keep each workload's failure pattern (measured up to 0.003;
# at 0.01 the fig2 sweep fails at 27 points instead of 93).
SHIFT_TABLE_SIZE = 8
MAX_K0_SHIFT = 0.002

SETUP_REPS = 7
DEADLINE_S = 170.0       # every child must end by then
ROW_TOL = 1e-10          # unitarity defect; sum(c) + discarded_mass = 1
HELICITY_TOL = 1e-8      # criterion 9, opposite helicity at k0 = 0
ORACLE_TOL = 1e-8

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "err_c": "prob"}
COUNT_LAYER_METRICS = (
    "physconfig.hash.calls", "fieldmodel.potential.calls",
    "dynamics.assemble.calls", "dynamics.steps", "dynamics.compose.calls",
    "multipair.sectors.calls", "multipair.sectors.failed",
    "multipair.retained_pairs", "multipair.multi_amp.calls",
    "cli.cache.misses", "cli.cache.hits", "trace.spans")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                    # run | sweep | oracle
    preset: str
    window: dict = field(default_factory=dict)
    numerics: dict = field(default_factory=dict)
    values: tuple = ()           # sweep plateau_cycles values

    @property
    def ops_per_rep(self) -> int:
        return len(self.values) if self.kind == "sweep" else 1


# Why each workload is in the benchmark: BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("fig2_run", "run", "fig2"),
    Workload("fig2_sweep", "sweep", "fig2", values=tuple(range(121))),
    Workload("fig4_run", "run", "fig4"),
    Workload("oracle_check", "oracle", "fig2",
             window={"ramp_cycles": 1, "plateau_cycles": 2},
             numerics={"n_cut": 1, "steps_per_cycle": 256,
                       "prune_threshold": 0.0, "n_sector_max": 6}),
)}


class BenchError(Exception):
    """The benchmark cannot run here (missing program or reference)."""


def seed_index(seed: int) -> int:
    return seed % SHIFT_TABLE_SIZE


def k0_shift(seed: int) -> float:
    index = seed_index(seed)
    if index == 0:
        return 0.0
    return round(random.Random(index).uniform(-MAX_K0_SHIFT, MAX_K0_SHIFT),
                 12)


def import_package():
    """Import diracpairs from src/, as the test command does."""
    if not os.path.isfile(os.path.join(SRC_DIR, "diracpairs", "__init__.py")):
        raise BenchError(f"no {SRC_DIR}/diracpairs in {os.getcwd()}; "
                         "run from the root of a checkout")
    src = os.path.abspath(SRC_DIR)
    if src not in sys.path:
        sys.path.insert(0, src)
    import diracpairs.cli
    return diracpairs


def workload_input(workload: Workload, seed: int, directory: str):
    """Write the workload's config or sweep spec; returns (path, config dict)."""
    cli = import_package().cli
    os.makedirs(directory, exist_ok=True)
    preset = os.path.join(directory, f"{workload.preset}.json")
    if cli.main(["preset", "--name", workload.preset, "--emit-config",
                 "--out", preset]) != 0:
        raise BenchError(f"preset {workload.preset} could not be emitted")
    with open(preset) as fh:
        config = json.load(fh)
    config["window"].update(workload.window)
    config["numerics"].update(workload.numerics)
    k0 = list(config["numerics"].get("k0_offset", [0.0, 0.0, 0.0]))
    k0[2] += k0_shift(seed)
    config["numerics"]["k0_offset"] = k0
    data = config
    if workload.kind == "sweep":
        data = {"base": config, "sweep_axis": "plateau_cycles",
                "values": list(workload.values),
                "outputs": os.path.join(directory, "out"),
                "emit": {"sectors": True, "pairs": True, "gdump": False}}
    path = os.path.join(directory, f"{workload.name}.json")
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
    return path, config


def cli_argv(workload: Workload, input_path: str, rep_dir: str) -> list:
    if workload.kind == "run":
        return ["run", "--config", input_path, "--out", rep_dir]
    if workload.kind == "sweep":
        return ["sweep", "--spec", input_path]
    return ["oracle-check", "--config", input_path, "--nmax", "2",
            "--dump-amplitudes", os.path.join(rep_dir, "amplitudes.csv")]


def child_env(rep_dir: str) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    env["DIRACPAIRS_OUTDIR"] = rep_dir
    src = os.path.abspath(SRC_DIR)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list, rep_dir: str, timeout: float) -> dict:
    """Run bench/rep.py in a fresh process; returns its result dict."""
    os.makedirs(rep_dir, exist_ok=True)
    result_path = os.path.join(rep_dir, "result.json")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "rep.py"), args[0],
           "--result", result_path] + args[1:]
    with open(os.path.join(rep_dir, "stdout.txt"), "w") as out, \
            open(os.path.join(rep_dir, "stderr.txt"), "w") as err:
        try:
            proc = subprocess.run(cmd, env=child_env(rep_dir), stdout=out,
                                  stderr=err, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            return {"problem": f"timed out after {timeout:.0f}s: "
                               f"{' '.join(cmd)}"}
    if proc.returncode != 0 or not os.path.exists(result_path):
        with open(os.path.join(rep_dir, "stderr.txt")) as fh:
            tail = fh.read()[-400:]
        return {"problem": f"{args[0]} process exited {proc.returncode}: "
                           f"{tail}"}
    with open(result_path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Output checks.  Each returns (failed ops, err_c, list of problems).
# ---------------------------------------------------------------------------

def _c_error(c, ref) -> float:
    return max(abs(float(c[n]) - ref[n]) for n in range(len(ref)))


def _row_problems(row: dict) -> list:
    c = row["c"]
    if any(x is None for x in c):
        return [f"row {row['sweep_value']}: c has missing entries"]
    bad = []
    if not row["unitarity_defect"] <= ROW_TOL:
        bad.append(f"unitarity_defect {row['unitarity_defect']}")
    if c[0] != row["cv_abs2"]:
        bad.append(f"c[0]={c[0]!r} != cv_abs2={row['cv_abs2']!r}")
    total = sum(c) + row["discarded_mass"]
    if not abs(total - 1.0) <= ROW_TOL:
        bad.append(f"sum(c)+discarded_mass-1 = {total - 1.0:.3e}")
    return [f"row {row['sweep_value']}: {b}" for b in bad]


def _check_run(result, rep_dir, ref, config, check_helicity):
    rc = result["rc"]
    if rc in (2, 3):
        return 1, sum(ref), []
    if rc != 0:
        return 0, 0.0, [f"run exited {rc}"]
    paths = glob.glob(os.path.join(rep_dir, "run_*.json"))
    if len(paths) != 1:
        return 0, 0.0, [f"expected one run_*.json, found {len(paths)}"]
    with open(paths[0]) as fh:
        row = json.load(fh)["row"]
    problems = _row_problems(row)
    if (check_helicity
            and config["field"]["helicity_relation"] == "opposite"):
        for key in ("h_plus", "h_minus"):
            for n, h in row[key].items():
                if not abs(h) < HELICITY_TOL:
                    problems.append(f"{key}[{n}] = {h:.3e} (opposite "
                                    f"helicity requires < {HELICITY_TOL})")
    if problems:
        return 0, 0.0, problems
    return 0, _c_error(row["c"], ref), []


def _check_sweep(result, rep_dir, ref, values):
    rc = result["rc"]
    if rc in (2, 3):
        return len(values), max(sum(r) for r in ref.values()), []
    if rc != 0:
        return 0, 0.0, [f"sweep exited {rc}"]
    problems = []
    if not result.get("rerun_identical"):
        problems.append("rerun on the filled cache did not give "
                        "byte-identical CSV and JSON")
    with open(os.path.join(rep_dir, "sweep_plateau_cycles.json")) as fh:
        rows = json.load(fh)["rows"]
    if [row["sweep_value"] for row in rows] != [float(v) for v in values]:
        return 0, 0.0, problems + ["sweep rows do not match the values"]
    failed, err = 0, 0.0
    for row, value in zip(rows, values):
        point_ref = ref[str(value)]
        if row["error"]:
            failed += 1
            err = max(err, sum(point_ref))
            continue
        row_bad = _row_problems(row)
        problems += row_bad
        if not row_bad:
            err = max(err, _c_error(row["c"], point_ref))
    return failed, err, problems


def _check_oracle(result, rep_dir, ref):
    if result["rc"] != 0:
        return 0, 0.0, [f"oracle-check exited {result['rc']}"]
    problems = []
    diff = None
    for line in result["stdout"].splitlines():
        if "amplitude difference" in line:
            diff = float(line.rsplit(":", 1)[1])
    if diff is None or not diff <= ORACLE_TOL:
        problems.append(f"oracle amplitude difference {diff} "
                        f"(tolerance {ORACLE_TOL})")
    c = [0.0] * len(ref)
    with open(os.path.join(rep_dir, "amplitudes.csv")) as fh:
        next(fh)
        for line in fh:
            n, _, _, re, im = line.rstrip("\n").split(",")
            c[int(n)] += float(re) ** 2 + float(im) ** 2
    # the table holds N >= 1; c_0 = |C_v|^2 is not part of it
    err = max(abs(c[n] - ref[n]) for n in range(1, len(ref)))
    return 0, err, problems


def check_rep(workload, result, rep_dir, ref, config, check_helicity):
    if "problem" in result:
        return 0, 0.0, [result["problem"]]
    try:
        if workload.kind == "run":
            return _check_run(result, rep_dir, ref, config, check_helicity)
        if workload.kind == "sweep":
            return _check_sweep(result, rep_dir, ref, workload.values)
        return _check_oracle(result, rep_dir, ref)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return 0, 0.0, [f"unreadable output: {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# References and environment
# ---------------------------------------------------------------------------

def load_reference(workload: Workload, seed: int):
    """Stored c_N^ref for this workload and seed (checked against k0_z)."""
    with open(os.path.join(BENCH_DIR, "reference.json")) as fh:
        data = json.load(fh)
    try:
        entry = data["workloads"][workload.name]["entries"][
            str(seed_index(seed))]
    except KeyError as exc:
        raise BenchError(f"reference.json has no entry {exc} for "
                         f"{workload.name} seed {seed}") from exc
    if entry["k0_z"] != k0_shift(seed):
        raise BenchError(f"reference.json k0_z {entry['k0_z']} does not match "
                         f"the input shift {k0_shift(seed)}")
    return entry["c"]


def _git_commit() -> str:
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True,
                              timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: str(THREADS) for var in THREAD_VARS},
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------

def _median(values):
    return float(statistics.median(values)) if values else float("nan")


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 reference=None) -> tuple:
    """Measure one workload; returns (result line dict, info dict).

    ``reference`` overrides the stored c_N^ref (the self-test computes its
    own for reduced inputs).
    """
    run_dir = os.path.join(WORK_DIR, workload.name)
    shutil.rmtree(run_dir, ignore_errors=True)
    input_path, config = workload_input(workload, seed,
                                        os.path.join(run_dir, "inputs"))
    ref = reference if reference is not None else load_reference(workload,
                                                                 seed)
    check_helicity = k0_shift(seed) == 0.0
    counter = itertools.count()

    def rep(traced: bool) -> dict:
        rep_dir = os.path.join(run_dir, f"rep{next(counter):03d}")
        args = ["cli"] + (["--trace"] if traced else [])
        if workload.kind == "sweep":
            args.append("--rerun")
        result = run_child(args + ["--"] + cli_argv(workload, input_path,
                                                     rep_dir),
                           rep_dir, deadline - time.monotonic())
        failed, err, problems = check_rep(workload, result, rep_dir, ref,
                                          config, check_helicity)
        result.update(seed=seed, traced=traced, failed=failed, err_c=err,
                      problems=problems)
        result.pop("stdout", None)
        with open(os.path.join(rep_dir, "checked.json"), "w") as fh:
            json.dump(result, fh, indent=1)
        return result

    def more(start) -> bool:
        now = time.monotonic()
        return now - start < seconds and now < deadline

    setups, reps = [], []
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        start = time.monotonic()
        while not reps or more(start):
            reps += [rep(False), rep(True)]
    else:
        kind_input = ["--kind", workload.kind, "--input", input_path]
        for i in range(-1, SETUP_REPS):     # setup-1 warms the .pyc cache
            setup = run_child(["setup"] + kind_input,
                              os.path.join(run_dir, f"setup{i}"),
                              deadline - time.monotonic())
            if i >= 0:
                setups.append(setup)
        start = time.monotonic()
        while not reps or more(start):
            reps.append(rep(False))

    problems = [p for r in reps for p in r["problems"]]
    problems += [s["problem"] for s in setups if "problem" in s]
    attempted = workload.ops_per_rep * len(reps)
    failed = sum(r["failed"] for r in reps)
    plain = [r for r in reps if not r["traced"] and "wall_s" in r]
    traced = [r for r in reps if r["traced"] and "layers" in r]
    if trace:
        metrics = {}
        if traced:
            for name in traced[0]["layers"]:
                metrics[name] = _median([r["layers"][name] for r in traced])
        untraced_wall = _median([r["wall_s"] for r in plain])
        metrics["trace.untraced_wall_s"] = untraced_wall
        metrics["trace.overhead_s"] = metrics.get("trace.wall_s",
                                                  math.nan) - untraced_wall
        metrics["cli.rerun_s"] = _median([r["rerun_s"] for r in reps
                                          if "rerun_s" in r]) \
            if workload.kind == "sweep" else 0.0
        metrics["failed_ratio"] = failed / attempted
    else:
        metrics = {
            "wall_s": _median([r["wall_s"] for r in plain]),
            "setup_s": _median([s["setup_s"] for s in setups
                                if "setup_s" in s]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
            "err_c": _median([r["err_c"] for r in reps]),
        }
    missing = [k for k, v in metrics.items() if not math.isfinite(v)]
    problems += [f"metric {k} not measured" for k in missing]
    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }
    info = {"workload": workload.name, "seed": seed,
            "seed_index": seed_index(seed), "k0_z_shift": k0_shift(seed),
            "trace": trace, "seconds": seconds, "reps": len(reps),
            "rep_wall_s": [r.get("wall_s") for r in reps],
            "setups": len(setups), "problems": problems[:20],
            "elapsed_s": time.monotonic() - start,
            "environment": environment()}
    return line, info


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name == "failed_ratio":
        return "ratio"
    if name in COUNT_LAYER_METRICS:
        return "count"
    if name.endswith("_s"):
        return "s"
    raise KeyError(name)
