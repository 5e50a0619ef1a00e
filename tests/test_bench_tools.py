"""The benchmark's own tools still work against the package.

``bench/reference.py`` recomputes c_N^ref through the package's public API
and ``bench/tracer.py`` reads ``Propagator.steps`` from the propagators that
``propagator_segments`` returns; a refactor that breaks either would only
show when the reference is next regenerated or a traced run is made.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from diracpairs import (Propagator, SweepSpec, WindowParams, build_basis,
                        config_from_dict, figure_configs, propagator_segments,
                        run_once, sweep_spec_to_dict)

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_tools(monkeypatch, tmp_path):
    """(harness, reference, tracer) modules and the n_cut 1 oracle config."""
    monkeypatch.chdir(BENCH.parent)       # the tools find src/ from the root
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("harness", "reference", "tracer"):
        sys.modules.pop(name, None)
    import harness
    import reference
    import tracer
    _, config = harness.workload_input(harness.WORKLOADS["oracle_check"], 0,
                                       str(tmp_path))
    yield harness, reference, tracer, config
    for name in ("harness", "reference", "tracer"):
        sys.modules.pop(name, None)


def test_reference_c_matches_run_once(bench_tools):
    _, reference, _, config = bench_tools
    plateau = config["window"]["plateau_cycles"]
    ref = reference.reference_c(config, [plateau], factor=1)[plateau]
    row = run_once(config_from_dict(config))
    assert config["numerics"]["n_cut"] == 1 and len(ref) == len(row.c) == 7
    assert np.max(np.abs(np.array(ref) - np.array(row.c))) <= 1e-12


def test_tracer_reads_segment_steps(bench_tools):
    _, _, tracer, config = bench_tools
    config = config_from_dict(config)
    segments = propagator_segments(config, build_basis(config.numerics,
                                                       config.field))
    assert all(isinstance(p, Propagator) for p in segments)
    steps = tracer.NOTES["dynamics.propagator_segments"](segments)
    assert steps == sum(p.steps for p in segments) > 0


def test_traced_sweep_counts_each_exponential_once(tmp_path):
    # a plateau sweep integrates its segments once, (ramp 1 + 1/2) * 64
    # steps, and takes the carriers of each integrated span in one call
    config, _ = figure_configs()["fig2"]
    config = replace(config, window=WindowParams(ramp_cycles=1,
                                                 plateau_cycles=0),
                     numerics=replace(config.numerics, n_cut=1,
                                      steps_per_cycle=64))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(sweep_spec_to_dict(SweepSpec(
        base=config, sweep_axis="plateau_cycles", values=[0, 1, 2]))))
    result = tmp_path / "result.json"
    env = {**os.environ, "DIRACPAIRS_OUTDIR": str(tmp_path / "out"),
           "PYTHONPATH": str(BENCH.parent / "src")}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "rep.py"), "cli", "--result", str(result),
         "--trace", "--", "sweep", "--spec", str(spec)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    layers = json.loads(result.read_text())["layers"]
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    carriers = sum(span[0] == "fieldmodel.carrier" for span in spans)
    integrated = sum(span[0] == "dynamics.midpoint_steps" for span in spans)
    assert layers["dynamics.steps"] == 96
    assert carriers == integrated == 2
