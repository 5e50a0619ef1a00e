"""In-memory span tracer around the public functions of the diracpairs modules.

``Tracer.install()`` wraps every public function that a package module
defines and rebinds the wrapper under every name a module of the package
looks it up by (``diracpairs.dynamics.potential_at``,
``diracpairs.fockoracle.assemble_hamiltonian``, ``diracpairs.cli.build_basis``
and so on), so calls made inside the package are traced too.  Each call
records a span ``[name, start_ns, end_ns, parent, note]``; ``note`` holds
the exception class name when the call raised, or a count taken from the
return value (steps of a propagator, retained pairs of a support).

Spans stay in memory until ``write`` dumps them; ``layer_metrics`` turns
them into the benchmark's per-layer metrics.  A span's self time is its
duration minus the durations of its direct children, so the self times of
all spans under the root ``cli.main`` add up to the root's duration.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

LAYERS = ("physconfig", "fieldmodel", "modebasis", "dynamics", "multipair",
          "fockoracle", "cli")


def _propagator_steps(result):
    if isinstance(result, tuple):
        return sum(p.steps for p in result)
    return result.steps


# Counts read from return values: span name -> function of the result.
NOTES = {
    "dynamics.propagate": _propagator_steps,
    "dynamics.propagator_segments": _propagator_steps,
    "multipair.retained_support": lambda result: result[2],
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[4] = type(exc).__name__
                raise
            finally:
                stack.pop()
                record[2] = clock()
            if note is not None:
                record[4] = note(result)
            return result

        return traced

    def install(self):
        """Wrap the public functions of every layer wherever they are bound."""
        package = [m for n, m in sys.modules.items()
                   if n == "diracpairs" or n.startswith("diracpairs.")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"diracpairs.{layer}"]
            for attr, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType)
                        and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for module in package:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])
        return self

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "note"], "spans": self.spans}, fh)


def layer_metrics(spans) -> dict:
    """Per-layer metrics from one traced ``cli.main`` call."""
    n = len(spans)
    duration = [(s[2] - s[1]) * 1e-9 for s in spans]
    child_time = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += duration[i]
    self_time = [duration[i] - child_time[i] for i in range(n)]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield spans[p][0]
            p = spans[p][3]

    def select(names, outermost=True):
        names = set(names)
        return [i for i, s in enumerate(spans) if s[0] in names
                and not (outermost and any(a in names for a in ancestors(i)))]

    def incl(*names):
        return sum(duration[i] for i in select(names))

    def count(*names):
        return len(select(names, outermost=False))

    def notes(*names):
        return sum(spans[i][4] for i in select(names, outermost=False)
                   if isinstance(spans[i][4], int))

    def layer_self(layer):
        return sum(self_time[i] for i, s in enumerate(spans)
                   if s[0].split(".", 1)[0] == layer)

    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    sectors = ("multipair.sector_observables", "multipair.sector_probabilities")
    sweep_points = [i for i in select(("dynamics.cycle_compose", "cli.run_once"),
                                      outermost=False)
                    if "cli.run_sweep" in set(ancestors(i))]
    metrics = {
        "physconfig.load_s": incl("physconfig.config_from_dict",
                                  "physconfig.validate"),
        "physconfig.hash.calls": count("physconfig.config_hash"),
        "modebasis.build_s": incl("modebasis.build_basis"),
        "fieldmodel.potential.calls": count("fieldmodel.potential_at"),
        "fieldmodel.potential_s": incl("fieldmodel.potential_at"),
        "dynamics.assemble.calls": count("dynamics.assemble_hamiltonian"),
        "dynamics.assemble_s": incl("dynamics.assemble_hamiltonian"),
        "dynamics.steps": notes("dynamics.propagate",
                                "dynamics.propagator_segments"),
        "dynamics.integrate_self_s": sum(
            self_time[i] for i in select(("dynamics.propagate",
                                          "dynamics.propagator_segments"),
                                         outermost=False)),
        "dynamics.compose.calls": count("dynamics.cycle_compose"),
        "dynamics.compose_s": incl("dynamics.cycle_compose"),
        "dynamics.gblocks_s": incl("dynamics.extract_g_blocks"),
        "multipair.omega_s": incl("multipair.pair_amplitudes"),
        "multipair.vacuum_s": incl("multipair.vacuum_amplitude"),
        "multipair.pairlist_s": incl("multipair.single_pair_list"),
        "multipair.sectors.calls": count(*sectors),
        "multipair.sectors_s": incl(*sectors),
        "multipair.sectors.failed": sum(1 for i in select(sectors)
                                        if isinstance(spans[i][4], str)),
        "multipair.retained_pairs": notes("multipair.retained_support"),
        "multipair.multi_amp.calls": count("multipair.multi_pair_amplitude"),
        "multipair.multi_amp_s": incl("multipair.multi_pair_amplitude"),
        "fockoracle.propagate_vacuum_s": incl("fockoracle.propagate_vacuum"),
        "fockoracle.read_amplitude_s": incl("fockoracle.read_amplitude"),
        "cli.write_s": incl("cli.row_to_dict", "cli.csv_row"),
        "cli.cache.misses": len(sweep_points),
        "cli.cache.hits": count("cli.row_from_dict"),
        "trace.wall_s": sum(duration[i] for i in roots),
        "trace.spans": n,
        "trace.self_sum_s": sum(self_time),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self(layer)
    return metrics
