"""Run/sweep orchestration, result files, figure presets, and the CLI.

Results go out as one CSV per sweep (plot-ready time series, columns up to
its points' largest n_sector_max) plus one JSON with full per-point detail.
Sweep points are cached as ``<outputs>/points/<code digest>/<config
hash>.json``, so a rerun reuses finished points byte-identically and any
change to the package's source or to numpy's version recomputes them; with
``emit.gdump`` each point also stores its propagator next to its row as
``<config hash>-u.npy``.
The ``DIRACPAIRS_OUTDIR`` environment variable overrides the output
directory.  Every CSV cell the CLI writes goes through ``_fmt``.

Exit codes: 0 success, 2 validation error or an output path that cannot be
written, 3 numerical-tolerance failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from . import dynamics, fockoracle, multipair
from .errors import NumericalToleranceError, ValidationError
from .fieldmodel import electric_field_at, potential_vector_at
from .modebasis import ModeBasis, build_basis
from .physconfig import (RunConfig, WindowParams, NumericsParams,
                         HelicityRelation, config_from_dict, config_to_dict,
                         config_hash, field_from_si, validate, with_plateau,
                         _parse, _plain)

Pair = tuple[str, str, float]    # (electron label, positron label, probability)
CHUNK = 8       # sweep points composed and read out in one stacked call


@dataclass
class ResultRow:
    """Flat readout of one run; a failed sweep point keeps the NaN defaults.

    ``pair_list`` holds every retained single pair, most probable first; the
    CSV reads its top pair and pair count from it.
    """

    sweep_value: float           # NaN outside a sweep
    plateau_cycles: int
    total_cycles: int
    cv_abs2: float = math.nan
    c: list[float] = field(default_factory=list)
    s_plus: dict[int, float] = field(default_factory=dict)
    s_minus: dict[int, float] = field(default_factory=dict)
    h_plus: dict[int, float] = field(default_factory=dict)
    h_minus: dict[int, float] = field(default_factory=dict)
    unitarity_defect: float = math.nan
    cond_gmm: float = math.nan
    discarded_mass: float = math.nan
    pair_list: list[Pair] = field(default_factory=list)
    error: str = ""


@dataclass
class SweepSpec:
    base: RunConfig
    sweep_axis: str              # dotted path to a config leaf, or an alias
    values: list[float]
    outputs: str = "out"
    # gdump, which is not part of a point's cache key; other keys are ignored
    emit: dict[str, bool] = field(default_factory=dict)


def _readout(configs: list, basis: ModeBasis, us: list,
             sweep_values: list) -> list:
    """Rows of the propagators ``us`` of points of one basis and numerics."""
    gs = [dynamics.extract_g_blocks(u, basis, c) for u, c in zip(us, configs)]
    reports = multipair.sector_observables(gs, basis, configs[0].numerics)
    electrons, positrons = basis.pair_labels
    return [ResultRow(
        value, config.window.plateau_cycles, config.window.total_cycles,
        cv_abs2=float(report.c[0]), c=report.c.tolist(),
        s_plus=report.s_plus, s_minus=report.s_minus,
        h_plus=report.h_plus, h_minus=report.h_minus,
        unitarity_defect=u.unitarity_defect, cond_gmm=report.cond_gmm,
        discarded_mass=report.discarded_mass_bound,
        pair_list=[(electrons[e], positrons[p], prob)
                   for e, p, prob in report.pairs],
    ) for config, u, report, value in zip(configs, us, reports, sweep_values)]


def run_once(config: RunConfig) -> ResultRow:
    """Propagate one configuration and read out the full pair content."""
    validate(config)
    basis = build_basis(config.numerics, config.field)
    u = dynamics.propagate(config, basis)
    return _readout([config], basis, [u], [math.nan])[0]


# ---------------------------------------------------------------------------
# CSV / JSON serialization
# ---------------------------------------------------------------------------

def _csv_cells(row: ResultRow, n_sector_max: int) -> dict:
    """CSV column -> value; the columns depend on n_sector_max only."""
    sectors = range(1, n_sector_max + 1)
    c = list(row.c) + [math.nan] * (n_sector_max + 1)
    e_lbl, p_lbl, prob = row.pair_list[0] if row.pair_list else ("", "", None)
    cells = {"sweep_value": row.sweep_value, "plateau_cycles": row.plateau_cycles,
             "total_cycles": row.total_cycles, "cv_abs2": row.cv_abs2}
    cells.update((f"c_{n}", c[n]) for n in sectors)
    for name in ("s_plus", "s_minus", "h_plus", "h_minus"):
        cells.update((f"{name}_{n}", getattr(row, name).get(n)) for n in sectors)
    cells.update(top_pair_prob=prob, top_pair_electron=e_lbl,
                 top_pair_positron=p_lbl, unitarity_defect=row.unitarity_defect,
                 cond_gmm=row.cond_gmm, discarded_mass=row.discarded_mass,
                 n_retained_pairs=len(row.pair_list), error=row.error)
    return cells


def csv_header(n_sector_max: int) -> str:
    return ",".join(_csv_cells(ResultRow(math.nan, 0, 0), n_sector_max))


def _fmt(x) -> str:
    """The one CSV cell rule: empty for None or NaN, repr of a float, str
    otherwise."""
    if isinstance(x, (float, np.floating)):
        return "" if math.isnan(x) else repr(float(x))
    return "" if x is None else str(x)


def _csv_line(cells) -> str:
    return ",".join(map(_fmt, cells))


def _csv_text(header: str, lines) -> str:
    return "".join(f"{line}\n" for line in [header, *lines])


def csv_row(row: ResultRow, n_sector_max: int) -> str:
    return _csv_line(_csv_cells(row, n_sector_max).values())


def row_to_dict(row: ResultRow) -> dict:
    return _plain(row)


def row_from_dict(d: dict) -> ResultRow:
    return _parse(ResultRow, d, "row")


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

AXIS_ALIASES = {"plateau_cycles": "window.plateau_cycles",
                "alpha_plus": "field.alpha_plus", "k0_z": "numerics.k0_offset.2"}


def _leaves(node, path=""):
    """(dotted path, container, key) of each scalar leaf of a JSON form."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _leaves(value, f"{path}{key}.")
        else:
            yield f"{path}{key}", node, key


def _point_config(spec: SweepSpec, i: int) -> RunConfig:
    """The base with the leaf that ``spec.sweep_axis`` names set to
    ``spec.values[i]``, read back through the schema, which checks its type."""
    data = config_to_dict(spec.base)
    for path, node, key in _leaves(data):
        if path == AXIS_ALIASES.get(spec.sweep_axis, spec.sweep_axis):
            node[key] = spec.values[i]
            return _parse(RunConfig, data, f"spec.values[{i}]")
    raise ValidationError("spec.sweep_axis: must name a scalar config leaf")


def _write_whole(path: str, write) -> None:
    """``write(fh)`` into a binary temporary file of its own next to
    ``path``, then rename it into place: the file is written whole or not
    at all, and sweeps that write the same point never share a temporary."""
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=os.path.dirname(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
    except BaseException:
        os.remove(tmp)
        raise
    os.replace(tmp, path)


@functools.cache
def _code_digest() -> str:
    """Hash of the package's sources and numpy's version: the point cache's
    directory, so points of other code are never read back."""
    here = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(f for f in os.listdir(here) if f.endswith(".py")):
        with open(os.path.join(here, name), "rb") as fh:
            digest.update(f"{name}\0".encode() + fh.read() + b"\0")
    digest.update(np.__version__.encode())
    return digest.hexdigest()[:16]


def run_sweep(spec: SweepSpec) -> dict:
    """Run all sweep points; returns {"csv": path, "json": path}.

    Uncached points that differ in their plateau length alone are composed
    and read out in stacks of up to CHUNK points, which bounds the memory
    (about four d x d complex matrices a point, d the mode count).  Their
    segments are integrated again only for a new field, window ramp or
    numerics other than n_sector_max and prune_threshold, and a failing set
    only once.  Failed points keep their error string; a point file that
    cannot be read back, or with gdump on a point without its dump, is redone.
    """
    if not spec.values:
        raise ValidationError("spec.values: must be non-empty")
    validate(spec.base, "spec.base")
    configs = [_point_config(spec, i) for i in range(len(spec.values))]
    outdir = os.environ.get("DIRACPAIRS_OUTDIR", spec.outputs)
    points_dir = os.path.join(outdir, "points", _code_digest())
    os.makedirs(points_dir, exist_ok=True)
    gdump = bool(spec.emit.get("gdump", False))
    points = [os.path.join(points_dir, config_hash(c)) for c in configs]
    rows, texts, groups = [None] * len(configs), [None] * len(configs), {}

    def finish(i, row):
        rows[i], texts[i] = row, json.dumps(row_to_dict(row), sort_keys=True)
        _write_whole(points[i] + ".json",
                     lambda fh: fh.write(texts[i].encode()))

    def failed(i, exc):
        window = configs[i].window
        return ResultRow(float(spec.values[i]), window.plateau_cycles,
                         window.total_cycles,
                         error=f"{type(exc).__name__}: {exc}")

    for i, config in enumerate(configs):
        try:
            with open(points[i] + ".json") as fh:
                row = row_from_dict(json.load(fh))
        except (FileNotFoundError, ValueError):
            row = None    # not cached, or a write cut short: redo the point
        # with gdump on, a point whose dump is gone is redone as well
        if row is not None and (not gdump or row.error
                                or os.path.exists(points[i] + "-u.npy")):
            # the same point may have been cached by a sweep along another axis
            rows[i] = replace(row, sweep_value=float(spec.values[i]))
            texts[i] = json.dumps(row_to_dict(rows[i]), sort_keys=True)
            continue
        try:
            validate(config, f"spec.values[{i}]")
        except ValidationError as exc:
            finish(i, failed(i, exc))
        else:   # grouped with the points that differ in plateau length alone
            groups.setdefault(with_plateau(config, 0), []).append(i)

    segments_for = None
    for bare, group in groups.items():
        # the readout's inputs leave the segments as they are
        key = replace(bare, numerics=replace(bare.numerics, n_sector_max=1,
                                             prune_threshold=0.0))
        if key != segments_for:
            segments_for, basis = key, build_basis(key.numerics, key.field)
            try:
                segments = dynamics.propagator_segments(key, basis)
            except (ValidationError, NumericalToleranceError) as exc:
                segments = exc      # every chunk of the set fails from it
        for chunk in (group[k:k + CHUNK] for k in range(0, len(group), CHUNK)):
            cs = [configs[i] for i in chunk]
            try:
                if isinstance(segments, Exception):
                    raise segments
                us = dynamics.cycle_compose(
                    *segments, [c.window.plateau_cycles for c in cs])
                chunk_rows = _readout(cs, basis, us,
                                      [float(spec.values[i]) for i in chunk])
                for i, u in zip(chunk, us) if gdump else ():
                    _write_whole(points[i] + "-u.npy",
                                 lambda fh: np.save(fh, u.matrix))
            except (ValidationError, NumericalToleranceError) as exc:
                chunk_rows = [failed(i, exc) for i in chunk]
            for i, row in zip(chunk, chunk_rows):
                finish(i, row)

    k = max(config.numerics.n_sector_max for config in configs)
    csv_path = os.path.join(outdir, f"sweep_{spec.sweep_axis}.csv")
    json_path = os.path.join(outdir, f"sweep_{spec.sweep_axis}.json")
    with open(csv_path, "w") as fh:
        fh.write(_csv_text(csv_header(k), [csv_row(row, k) for row in rows]))
    spec_text = json.dumps(sweep_spec_to_dict(spec), sort_keys=True)
    with open(json_path, "w") as fh:    # one row a line, in key order
        fh.write('{"rows": [\n' + ",\n".join(texts)
                 + f'\n],\n"spec": {spec_text}}}\n')
    return {"csv": csv_path, "json": json_path}


def sweep_spec_to_dict(spec: SweepSpec) -> dict:
    return _plain(spec)


def sweep_spec_from_dict(d: dict) -> SweepSpec:
    return _parse(SweepSpec, d, "spec")


# ---------------------------------------------------------------------------
# Figure presets.  Field values are taken from the reported setups; every
# field marked "artifact-default" below is our choice, not a published one.
# ---------------------------------------------------------------------------

def figure_configs() -> dict:
    """Named reproduction presets with provenance metadata."""
    numerics = NumericsParams(n_cut=4, steps_per_cycle=1024,
                              prune_threshold=1e-6, n_sector_max=4)
    window = WindowParams(ramp_cycles=5, plateau_cycles=10)
    fig2_field = field_from_si(4.9e17, 0.746, 0.2 * math.pi / 4.0,
                               HelicityRelation.SAME)
    fig4_field = field_from_si(3.1e17, 0.4715, 0.7 * math.pi / 4.0,
                               HelicityRelation.OPPOSITE)
    meta_common = {
        "field.omega": "published setup",
        "field.e_peak": "published setup (converted from V/m)",
        "field.alpha_plus": "published setup",
        "field.helicity_relation": "published setup",
        "window.ramp_cycles": "artifact-default",
        "window.plateau_cycles": "artifact-default (sweep this axis)",
        "numerics.n_cut": "artifact-default",
        "numerics.steps_per_cycle": "artifact-default",
        "numerics.prune_threshold": "artifact-default",
        "numerics.n_sector_max": "artifact-default",
    }
    fig2 = RunConfig(field=fig2_field, window=window, numerics=numerics)
    fig4 = RunConfig(field=fig4_field, window=window, numerics=numerics)
    fig3_meta = dict(meta_common)
    fig3_meta["_note"] = "same field setup as fig2; helicity readout emphasized"
    return {
        "fig2": (fig2, dict(meta_common)),
        "fig3": (fig2, fig3_meta),
        "fig4": (fig4, dict(meta_common)),
    }


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"{path}: cannot read JSON ({exc})") from exc


def _load_config(path: str) -> RunConfig:
    return validate(config_from_dict(_read_json(path)))


def _write_text(text: str, path) -> None:
    """Write to the file at ``path``, or to standard output without one."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_flag(flag: str, ok: bool, rule: str) -> None:
    if not ok:
        raise ValidationError(f"{flag}: must be {rule}")


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    outdir = os.environ.get("DIRACPAIRS_OUTDIR", args.out)
    os.makedirs(outdir, exist_ok=True)
    row = run_once(config)
    k = config.numerics.n_sector_max
    base = os.path.join(outdir, f"run_{config_hash(config)}")
    with open(base + ".csv", "w") as fh:
        fh.write(_csv_text(csv_header(k), [csv_row(row, k)]))
    with open(base + ".json", "w") as fh:
        json.dump({"config": config_to_dict(config), "row": row_to_dict(row)},
                  fh, indent=1, sort_keys=True)
    print(f"|C_v|^2 = {row.cv_abs2:.6g}")
    for n in range(1, k + 1):
        print(f"c_{n} = {row.c[n]:.6g}")
    print(f"wrote {base}.csv and {base}.json")
    return 0


def _cmd_sweep(args) -> int:
    spec = sweep_spec_from_dict(_read_json(args.spec))
    paths = run_sweep(spec)
    print(f"wrote {paths['csv']} and {paths['json']}")
    return 0


def _cmd_preset(args) -> int:
    _check_flag("--emit-config", args.emit_config,
                "given: emitting the config is all preset does")
    presets = figure_configs()
    if args.name not in presets:
        raise ValidationError(f"preset: unknown name {args.name!r}; "
                              f"have {sorted(presets)}")
    config, meta = presets[args.name]
    text = json.dumps({**config_to_dict(config), "_meta": meta},
                      indent=2, sort_keys=True)
    _write_text(text + "\n", args.out)
    return 0


def _oracle_difference(config: RunConfig, basis: ModeBasis, nmax: int):
    """(max |determinant-path - Fock-path| amplitude over N <= nmax, the
    Fock amplitude table)."""
    u = dynamics.propagate(config, basis)
    g = dynamics.extract_g_blocks(u, basis, config)
    state = fockoracle.propagate_vacuum(config, basis)
    table = fockoracle.amplitude_table(state)
    worst = abs(multipair.multi_pair_amplitude(g, [], [])
                - fockoracle.vacuum_overlap(state))
    for n, es, ps, fock_amp in table:
        if n <= nmax:
            det_amp = multipair.multi_pair_amplitude(g, es, ps)
            worst = max(worst, abs(det_amp - fock_amp))
    return worst, table


def _cmd_oracle_check(args) -> int:
    _check_flag("--tol", math.isfinite(args.tol) and args.tol > 0,
                "finite and > 0")
    _check_flag("--nmax", args.nmax >= 0, ">= 0")
    config = _load_config(args.config)
    basis = build_basis(config.numerics, config.field)
    fockoracle.check_limits(config, basis)  # before any propagation or output
    with (open(args.dump_amplitudes, "w") if args.dump_amplitudes
          else contextlib.nullcontext()) as dump:
        worst, table = _oracle_difference(config, basis, args.nmax)
        print(f"max |determinant-path - Fock-path| amplitude difference "
              f"(N <= {args.nmax}): {worst:.3e}")
        if dump:
            rows = ([n, "|".join(map(str, es)), "|".join(map(str, ps)),
                     amp.real, amp.imag] for n, es, ps, amp in table)
            dump.write(_csv_text("N,electrons,positrons,re,im",
                                 map(_csv_line, rows)))
            print(f"wrote {args.dump_amplitudes}")
    if worst > args.tol:
        raise NumericalToleranceError(
            f"oracle-check: amplitude difference {worst:.3e} exceeds "
            f"{args.tol:.1e}")
    print("oracle check passed")
    return 0


def _cmd_dump_basis(args) -> int:
    config = _load_config(args.config)
    b = build_basis(config.numerics, config.field)
    rows = zip(range(b.dim), b.n, np.where(b.band_plus, "plus", "minus"),
               np.where(b.spin_up, "up", "down"), b.energies, b.spin_z,
               b.helicity)
    _write_text(_csv_text("index,n,band,spin,energy,spin_z,helicity",
                          map(_csv_line, rows)), args.out)
    return 0


def _cmd_dump_field(args) -> int:
    _check_flag("--per-cycle", args.per_cycle >= 1, ">= 1")
    _check_flag("--z", math.isfinite(args.z), "finite")
    config = _load_config(args.config)
    field, window = config.field, config.window
    t_cycles = np.arange(window.total_cycles * args.per_cycle + 1) / args.per_cycle
    t = t_cycles * field.cycle_duration
    samples = np.column_stack([t_cycles,
                               potential_vector_at(args.z, t, field, window),
                               electric_field_at(args.z, t, field, window)])
    _write_text(_csv_text("t_cycles,Ax,Ay,Az,Ex,Ey,Ez",
                          map(_csv_line, samples)), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracpairs",
        description="Pair creation in counterpropagating laser waves: "
                    "propagate, extract pair content, sweep.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="single run from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="out")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="sweep from a JSON spec")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("preset", help="named reproduction configs")
    p.add_argument("--name", required=True)
    p.add_argument("--emit-config", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_preset)

    p = sub.add_parser("oracle-check",
                       help="compare determinant path against exact Fock propagation")
    p.add_argument("--config", required=True)
    p.add_argument("--nmax", type=int, default=2)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--dump-amplitudes", default=None,
                   help="write the full Fock amplitude table as CSV")
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("dump-basis", help="mode table as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_dump_basis)

    p = sub.add_parser("dump-field", help="A(t), E(t) samples as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--z", type=float, default=0.0)
    p.add_argument("--per-cycle", type=int, default=64)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_dump_field)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:      # an output path that cannot be created
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except NumericalToleranceError as exc:
        print(f"numerical tolerance failure: {exc}", file=sys.stderr)
        return 3
