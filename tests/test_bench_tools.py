"""The benchmark's own tools still work against the package.

``bench/reference.py`` recomputes c_N^ref through the package's public API
and ``bench/tracer.py`` reads ``Propagator.steps`` from the propagators that
``propagator_segments`` returns; a refactor that breaks either would only
show when the reference is next regenerated or a traced run is made.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from diracpairs import (Propagator, build_basis, config_from_dict,
                        propagator_segments, run_once)

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
