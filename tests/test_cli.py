import hashlib
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import diracpairs
from diracpairs import (GBlocks, HelicityRelation, NumericsParams, Propagator,
                        ResultRow, RunConfig, SweepSpec, UnitarityError,
                        ValidationError, WindowParams, build_basis,
                        config_from_dict, config_hash, config_to_dict,
                        cycle_compose, electric_field_at, field_from_si,
                        figure_configs, fockoracle, potential_vector_at,
                        propagator_segments, run_once, run_sweep,
                        with_plateau)
from diracpairs.cli import (AXIS_ALIASES, CHUNK, _readout, _write_whole,
                            build_parser, csv_header, csv_row, main,
                            row_from_dict, row_to_dict, sweep_spec_to_dict)
from synthetic import cs_unitary_gblocks


def desk_config(plateau=1, n_cut=1, steps=64, n_sector_max=2, field=None):
    return RunConfig(
        field=field or field_from_si(4.9e17, 0.746, 0.2 * math.pi / 4,
                                     HelicityRelation.SAME),
        window=WindowParams(ramp_cycles=1, plateau_cycles=plateau),
        numerics=NumericsParams(n_cut=n_cut, steps_per_cycle=steps,
                                n_sector_max=n_sector_max))


def window_propagator(g, basis, config):
    """A propagator over ``config``'s window whose G blocks are ``g``; its
    other entries are zero, which the readout never reads."""
    m = np.zeros((basis.dim, basis.dim), dtype=complex)
    m[np.ix_(basis.plus_indices, basis.minus_indices)] = g.g_pm
    m[np.ix_(basis.minus_indices, basis.minus_indices)] = g.g_mm
    return Propagator(matrix=m, t_span_cycles=(0.0, config.window.total_cycles),
                      steps=0, unitarity_defect=0.0)


def points_dir(outdir):
    """The one ``points/<code digest>/`` directory under a sweep's outputs."""
    (digest_dir,) = (Path(outdir) / "points").iterdir()
    return digest_dir


def file_tree(root):
    """Relative path -> bytes of every file under ``root``."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in Path(root).rglob("*") if p.is_file()}


@pytest.fixture
def composed(monkeypatch):
    """Plateau lengths of the sweep points composed, not read from cache (a
    sweep composes the lengths of a chunk of points in one call)."""
    import diracpairs.cli as cli_mod
    calls = []
    compose = cli_mod.dynamics.cycle_compose

    def counted(*args):
        calls.extend(np.ravel(args[-1]).tolist())
        return compose(*args)

    monkeypatch.setattr(cli_mod.dynamics, "cycle_compose", counted)
    return calls


# Runs `sweep --spec ARGV[1]` with cycle_compose counted and reports, as the
# last line of its output, which cli module ran and the points it composed.
SWEEP_COUNTING_COMPOSE = """\
import json, sys
import numpy as np
from diracpairs import cli
composed = []
compose = cli.dynamics.cycle_compose

def counted(*args):
    composed.extend(np.ravel(args[-1]).tolist())
    return compose(*args)

cli.dynamics.cycle_compose = counted
assert cli.main(["sweep", "--spec", sys.argv[1]]) == 0
print(json.dumps({"cli": cli.__file__, "composed": composed}))
"""


# Emits the fig2 preset through the CLI (its first argument parse loads
# argparse's lazy imports) and cuts it to n_cut 1, 64 steps per cycle and a
# one-cycle ramp; then runs each command named in ARGV[2:] on it and prints
# one JSON line per command: [name, exit code, modules it imported].  With
# ARGV[1] == "no-scipy" every scipy import fails.
REDUCED_FIG2_COMMANDS = """\
import contextlib, io, json, sys
if sys.argv[1] == "no-scipy":
    sys.modules["scipy"] = None
from diracpairs import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["preset", "--name", "fig2", "--emit-config",
                     "--out", "fig2.json"]) == 0
with open("fig2.json") as fh:
    config = json.load(fh)
config["numerics"].update(n_cut=1, steps_per_cycle=64)
config["window"].update(ramp_cycles=1, plateau_cycles=2)
with open("small.json", "w") as fh:
    json.dump(config, fh)
with open("spec.json", "w") as fh:
    json.dump({"base": config, "sweep_axis": "plateau_cycles",
               "values": [0, 1, 2], "outputs": "sweep"}, fh)
commands = {"run": ["run", "--config", "small.json", "--out", "run"],
            "sweep": ["sweep", "--spec", "spec.json"],
            "oracle-check": ["oracle-check", "--config", "small.json"]}
for name in sys.argv[2:]:
    before = set(sys.modules)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(commands[name])
    print(json.dumps([name, rc, sorted(set(sys.modules) - before)]))
"""


def reduced_fig2_commands(tmp_path, mode, *names):
    """[name, exit code, modules imported] of each command, run by
    REDUCED_FIG2_COMMANDS in a fresh interpreter in ``tmp_path``."""
    src = os.path.dirname(os.path.dirname(diracpairs.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", REDUCED_FIG2_COMMANDS, mode, *names],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


class TestFigureConfigs:
    def test_fig2_published_values(self):
        config, meta = figure_configs()["fig2"]
        assert config.field.omega == 0.746
        assert config.field.e_peak == pytest.approx(4.9e17 / 1.3e18)
        assert config.field.alpha_plus == pytest.approx(0.2 * math.pi / 4)
        assert config.field.helicity_relation is HelicityRelation.SAME
        assert config.field.alpha_minus == pytest.approx(
            math.pi / 2 - 0.2 * math.pi / 4)
        assert meta["field.omega"] == "published setup"

    def test_fig4_published_values(self):
        config, _ = figure_configs()["fig4"]
        assert config.field.omega == 0.4715
        assert config.field.e_peak == pytest.approx(3.1e17 / 1.3e18)
        assert config.field.alpha_minus == pytest.approx(0.7 * math.pi / 4)
        assert config.field.alpha_plus == config.field.alpha_minus
        assert config.field.helicity_relation is HelicityRelation.OPPOSITE

    def test_fig3_shares_fig2_field(self):
        presets = figure_configs()
        assert presets["fig3"][0].field == presets["fig2"][0].field

    def test_artifact_defaults_are_flagged(self):
        config, meta = figure_configs()["fig2"]
        assert config.window.ramp_cycles == 5
        assert meta["window.ramp_cycles"] == "artifact-default"
        assert all(meta[k] == "artifact-default"
                   for k in meta if k.startswith("numerics."))


class TestRunOnce:
    def test_zero_field_row(self):
        config = desk_config()
        config = replace(config, field=replace(config.field, e_peak=0.0))
        row = run_once(config)
        assert row.cv_abs2 == pytest.approx(1.0, abs=1e-12)
        assert all(c == 0.0 for c in row.c[1:])
        assert row.pair_list == []

    def test_determinism_bit_identical_rows(self):
        config = desk_config()
        k = config.numerics.n_sector_max
        r1 = csv_row(run_once(config), k)
        r2 = csv_row(run_once(config), k)
        assert r1 == r2

    def test_run_integrates_ramps_and_one_cycle(self, monkeypatch):
        # the plateau is composed from one integrated cycle and the second
        # half of the window is the mirror of the first, so a run integrates
        # ramp + 1/2 cycles whatever its plateau_cycles
        import diracpairs.dynamics as dynamics_mod
        real = dynamics_mod.carrier
        calls = []

        def counted(*args):     # one carrier per midpoint step consumed
            calls.extend(np.ravel(args[0]))     # a span's times in one call
            return real(*args)

        monkeypatch.setattr(dynamics_mod, "carrier", counted)
        config = desk_config(plateau=3)
        run_once(config)
        assert len(calls) == ((config.window.ramp_cycles + 0.5)
                              * config.numerics.steps_per_cycle)

    def test_row_round_trip(self):
        # a finished row, and a failed one whose NaN fields are written as null
        failed = ResultRow(sweep_value=2.0, plateau_cycles=2, total_cycles=4,
                           error="ValidationError: synthetic")
        for row in (run_once(desk_config()), failed):
            text = json.dumps(row_to_dict(row))
            assert "NaN" not in text
            again = row_from_dict(json.loads(text))
            assert csv_row(again, 2) == csv_row(row, 2)
            assert json.dumps(row_to_dict(again)) == text

    def test_row_with_a_non_integer_sector_key_is_refused(self):
        data = row_to_dict(ResultRow(sweep_value=2.0, plateau_cycles=2,
                                     total_cycles=4))
        data["s_plus"] = {"1": 0.25, "one": 0.5}
        with pytest.raises(ValidationError,
                           match=r"^row\.s_plus: every key must be an integer"):
            row_from_dict(data)

    @pytest.mark.parametrize("exact", [False, True])
    def test_filled_mode_reads_out(self, exact):
        # sin(theta) = 1 on one mode: G_mm is singular (to roundoff, or
        # exactly with diagonal blocks) and omega does not exist, yet the row
        # reads the mode as a sure pair, and its cached copy reads back
        angles = np.array([0.4, math.pi / 2, 0.0, 1.1, 0.7, 0.2])
        if exact:
            g = GBlocks(g_pm=np.diag(np.sin(angles)) + 0j,
                        g_mm=np.diag(np.cos(angles) * (angles != math.pi / 2))
                        + 0j)
        else:
            g, _, _ = cs_unitary_gblocks(np.random.default_rng(19), angles)
        config = replace(desk_config(), numerics=NumericsParams(
            n_cut=1, prune_threshold=0.0, n_sector_max=4))
        basis = build_basis(config.numerics, config.field)
        (row,) = _readout([config], basis,
                          [window_propagator(g, basis, config)], [math.nan])
        assert abs(row.c[0]) <= 1e-12
        assert row.cond_gmm >= 1e15 and (row.cond_gmm == math.inf) == exact
        assert sum(prob for _, _, prob in row.pair_list) == pytest.approx(
            row.c[1], rel=1e-12)
        text = json.dumps(row_to_dict(row), sort_keys=True)
        again = row_from_dict(json.loads(text))
        assert json.dumps(row_to_dict(again), sort_keys=True) == text
        assert csv_row(again, 4) == csv_row(row, 4)

    def test_readout_factors_the_blocks_once(self, monkeypatch):
        # one SVD and one QR per chunk of up to CHUNK rows; no inverse, solve,
        # determinant or condition number
        calls = []

        def spy(name):
            real = getattr(np.linalg, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return counted

        rng = np.random.default_rng(22)
        angles = np.array([0.4, 1.2, 0.0, 1.1, 0.7, 0.2])
        gs = [cs_unitary_gblocks(rng, angles + 0.01 * i)[0]
              for i in range(CHUNK)]
        config = desk_config()
        basis = build_basis(config.numerics, config.field)
        for name in ("svd", "qr", "inv", "solve", "det", "slogdet", "cond"):
            monkeypatch.setattr(np.linalg, name, spy(name))
        for n in (1, 5, CHUNK):
            del calls[:]
            rows = _readout([config] * n, basis,
                            [window_propagator(g, basis, config)
                             for g in gs[:n]], [math.nan] * n)
            assert sorted(calls) == ["qr", "svd"]
            assert len(rows) == n
            assert all(row.pair_list and math.isfinite(row.cond_gmm)
                       for row in rows)

    def test_csv_format_is_pinned(self):
        assert csv_header(4) == (
            "sweep_value,plateau_cycles,total_cycles,cv_abs2,"
            "c_1,c_2,c_3,c_4,s_plus_1,s_plus_2,s_plus_3,s_plus_4,"
            "s_minus_1,s_minus_2,s_minus_3,s_minus_4,"
            "h_plus_1,h_plus_2,h_plus_3,h_plus_4,"
            "h_minus_1,h_minus_2,h_minus_3,h_minus_4,"
            "top_pair_prob,top_pair_electron,top_pair_positron,"
            "unitarity_defect,cond_gmm,discarded_mass,n_retained_pairs,error")
        header = csv_header(2).split(",")
        row = run_once(desk_config())
        cells = dict(zip(header, csv_row(row, 2).split(",")))
        electron, positron, prob = row.pair_list[0]
        assert len(row.pair_list) > 1
        assert cells["n_retained_pairs"] == str(len(row.pair_list))
        assert (cells["top_pair_electron"], cells["top_pair_positron"],
                cells["top_pair_prob"]) == (electron, positron, repr(prob))
        failed = ResultRow(sweep_value=1.0, plateau_cycles=1, total_cycles=3,
                           error="ValidationError: synthetic")
        cells = dict(zip(header, csv_row(failed, 2).split(",")))
        assert cells["n_retained_pairs"] == "0"
        assert cells["top_pair_prob"] == cells["top_pair_electron"] == \
            cells["top_pair_positron"] == ""

    def test_csv_schema_depends_only_on_sector_max(self):
        header = csv_header(3)
        cols = header.split(",")
        assert cols.count("c_1") == 1 and "c_3" in cols and "c_4" not in cols
        assert "s_plus_2" in cols and "h_minus_3" in cols
        assert cols[-1] == "error"


class TestMomentumMirror:
    """k0_z -> -k0_z is a symmetry of the paired beams: a pi rotation about
    x for "same" helicity, the z mirror for "opposite".  The first flips
    spin_z and keeps helicity, the second keeps spin_z and flips helicity;
    both keep the pair content."""

    @staticmethod
    def rows(name, alpha_plus=None):
        config, _ = figure_configs()[name]
        field = config.field
        if alpha_plus is not None:
            field = replace(field, alpha_plus=alpha_plus)
        config = replace(config, field=field, window=WindowParams(
            ramp_cycles=2, plateau_cycles=3))
        return [run_once(replace(config, numerics=replace(
                    config.numerics, steps_per_cycle=128,
                    k0_offset=(0.0, 0.0, k0_z))))
                for k0_z in (0.0013, -0.0013)]

    @pytest.mark.parametrize("name, alpha_plus, odd, even", [
        ("fig2", None, ("s_plus", "s_minus"), ("h_plus", "h_minus")),
        ("fig2", 0.3, ("s_plus", "s_minus"), ("h_plus", "h_minus")),
        ("fig4", None, ("h_plus", "h_minus"), ("s_plus", "s_minus")),
        ("fig4", 1.1, ("h_plus", "h_minus"), ("s_plus", "s_minus"))],
        ids=["fig2", "fig2-alpha0.3", "fig4", "fig4-alpha1.1"])
    def test_k0z_parity(self, name, alpha_plus, odd, even):
        up, down = self.rows(name, alpha_plus)
        assert np.max(np.abs(np.subtract(up.c, down.c))) <= 1e-11
        for attr in odd + even:
            sign = -1.0 if attr in odd else 1.0
            a, b = getattr(up, attr), getattr(down, attr)
            assert a.keys() == b.keys()
            assert max(abs(a[n] - sign * b[n]) for n in a) <= 1e-11
        # the odd observables do not vanish away from k0 = 0
        assert max(abs(v) for attr in odd
                   for v in getattr(up, attr).values()) > 1e-4


    @pytest.mark.parametrize("name", ["fig2", "fig4"])
    def test_k0x_mirror_through_the_sweep_axis(self, tmp_path, name):
        # k0_x -> -k0_x at k0_y = 0 keeps c_N, spin_z and helicity, on the
        # electron and the positron side alike
        config, _ = figure_configs()[name]
        base = replace(config, window=WindowParams(ramp_cycles=2,
                                                   plateau_cycles=3),
                       numerics=replace(config.numerics, n_cut=2,
                                        steps_per_cycle=128,
                                        k0_offset=(0.0, 0.0, 0.0013)))
        spec = SweepSpec(base=base, sweep_axis="numerics.k0_offset.0",
                         values=[0.21, -0.21], outputs=str(tmp_path))
        with open(run_sweep(spec)["json"]) as fh:
            up, down = [row_from_dict(r) for r in json.load(fh)["rows"]]
        assert up.error == down.error == ""
        assert len(os.listdir(points_dir(tmp_path))) == 2
        assert np.max(np.abs(np.subtract(up.c, down.c))) <= 1e-11
        for attr in ("s_plus", "s_minus", "h_plus", "h_minus"):
            a, b = getattr(up, attr), getattr(down, attr)
            assert a.keys() == b.keys()
            assert max(abs(a[n] - b[n]) for n in a) <= 1e-11
            assert max(abs(v) for v in a.values()) > 1e-4


class TestFieldStrengthAxis:
    """Sweeps along field.e_peak, the axis from the multiphoton to the
    multi-pair regime."""

    @staticmethod
    def base():
        config, _ = figure_configs()["fig2"]
        return replace(config, window=WindowParams(ramp_cycles=2,
                                                   plateau_cycles=0),
                       numerics=replace(config.numerics, n_cut=2,
                                        steps_per_cycle=128))

    def test_weak_field_slope_is_multiphoton(self, tmp_path):
        # pair creation needs 3 photons (3 x 0.746 > 2), so at weak fields
        # c_1 grows as E^6: each doubling of E multiplies it by about 2^6.
        # The ramps read lower at the weakest field (2^4.95 measured, the
        # same to 0.01 at n_cut 3 with 256 steps per cycle).
        base = self.base()
        e = base.field.e_peak
        spec = SweepSpec(base=base, sweep_axis="field.e_peak",
                         values=[e / 8, e / 4, e / 2], outputs=str(tmp_path))
        with open(run_sweep(spec)["json"]) as fh:
            c1 = [r["c"][1] for r in json.load(fh)["rows"]]
        slopes = [math.log2(b / a) for a, b in zip(c1, c1[1:])]
        assert all(4.5 <= s <= 6.5 for s in slopes), slopes

    def test_single_point_is_the_run_row(self, tmp_path):
        base = self.base()
        e_peak = base.field.e_peak / 4
        spec = SweepSpec(base=base, sweep_axis="field.e_peak", values=[e_peak],
                         outputs=str(tmp_path))
        with open(run_sweep(spec)["json"]) as fh:
            (row,) = json.load(fh)["rows"]
        assert row.pop("sweep_value") == e_peak
        direct = row_to_dict(run_once(replace(
            base, field=replace(base.field, e_peak=e_peak))))
        assert direct.pop("sweep_value") is None
        assert row == direct


class TestSweep:
    def test_plateau_singleton_matches_run_once(self, tmp_path):
        config = desk_config(plateau=0)
        spec = SweepSpec(base=config, sweep_axis="plateau_cycles", values=[0],
                         outputs=str(tmp_path))
        paths = run_sweep(spec)
        with open(paths["json"]) as fh:
            data = json.load(fh)
        row = row_from_dict(data["rows"][0])
        direct = run_once(with_plateau(config, 0))
        assert row.cv_abs2 == pytest.approx(direct.cv_abs2, abs=1e-12)
        assert np.allclose(row.c, direct.c, atol=1e-12)

    def test_sector_columns_reach_the_largest_point_sector_max(self, tmp_path):
        # a sweep along n_sector_max writes the columns of its largest point,
        # not of the base, and leaves a smaller point's extra sectors empty
        spec = SweepSpec(base=desk_config(n_sector_max=2),
                         sweep_axis="numerics.n_sector_max", values=[1, 4],
                         outputs=str(tmp_path))
        with open(run_sweep(spec)["csv"]) as fh:
            header, *lines = fh.read().splitlines()
        assert header == csv_header(4)
        small, large = (dict(zip(header.split(","), line.split(",")))
                        for line in lines)
        assert small["c_1"] != "" and small["h_plus_1"] != ""
        assert all(small[f"{name}_{n}"] == "" for n in (2, 3, 4) for name in
                   ("c", "s_plus", "s_minus", "h_plus", "h_minus"))
        assert all(large[f"c_{n}"] != "" for n in (1, 2, 3, 4))

    def test_resumability_reuses_points(self, tmp_path, composed):
        config = desk_config()
        spec = SweepSpec(base=config, sweep_axis="plateau_cycles",
                         values=[0, 1, 2], outputs=str(tmp_path))
        paths = run_sweep(spec)
        first = {name: Path(path).read_bytes() for name, path in paths.items()}
        points = points_dir(tmp_path)
        stamps = {p: p.stat().st_mtime_ns for p in points.iterdir()}
        assert len(stamps) == 3 and composed == [0, 1, 2]
        paths = run_sweep(spec)
        assert {name: Path(path).read_bytes()
                for name, path in paths.items()} == first
        assert composed == [0, 1, 2]     # the rerun composed nothing
        assert {p: p.stat().st_mtime_ns for p in points.iterdir()} == stamps

    def test_interrupted_sweep_resumes(self, tmp_path):
        # a sweep killed while writing a point leaves a file cut short; one
        # of another shape is no more readable: both are redone
        spec = SweepSpec(base=desk_config(), sweep_axis="plateau_cycles",
                         values=[0, 1, 2], outputs=str(tmp_path / "out"))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(sweep_spec_to_dict(spec)))

        def sweep():
            assert main(["sweep", "--spec", str(spec_path)]) == 0
            return [(tmp_path / "out" / f"sweep_plateau_cycles.{ext}")
                    .read_bytes() for ext in ("csv", "json")]

        first = sweep()
        cut, misshapen = sorted(points_dir(tmp_path / "out").iterdir())[:2]
        whole = {p: p.read_bytes() for p in (cut, misshapen)}
        cut.write_bytes(whole[cut][:len(whole[cut]) // 2])
        misshapen.write_text(json.dumps({"plateau_cycles": "one"}))
        assert sweep() == first
        for path in (cut, misshapen):
            assert path.read_bytes() == whole[path]
            row_from_dict(json.loads(path.read_text()))
        assert len(os.listdir(points_dir(tmp_path / "out"))) == 3

    def test_points_of_other_code_are_not_read(self, tmp_path, monkeypatch):
        # points cached under another code digest stand in for points an
        # older numerical scheme computed
        import diracpairs.cli as cli_mod
        spec = SweepSpec(base=desk_config(), sweep_axis="plateau_cycles",
                         values=[0, 1], outputs=str(tmp_path))
        older = "0" * 16
        with monkeypatch.context() as m:
            m.setattr(cli_mod, "_code_digest", lambda: older)
            run_sweep(spec)
        for path in points_dir(tmp_path).glob("*.json"):
            row = json.loads(path.read_text())
            row.update(c=[], pair_list=[], error="stale cached row")
            path.write_text(json.dumps(row))
        stale = file_tree(tmp_path / "points" / older)
        with open(run_sweep(spec)["json"]) as fh:
            rows = [row_from_dict(r) for r in json.load(fh)["rows"]]
        assert all(r.error == "" and r.pair_list for r in rows)
        # the older directory is left as it was, beside the current one
        assert file_tree(tmp_path / "points" / older) == stale
        assert sorted(os.listdir(tmp_path / "points")) == sorted(
            [older, cli_mod._code_digest()])

    def test_code_digest_covers_every_module_and_library(self, tmp_path,
                                                         monkeypatch):
        import diracpairs.cli as cli_mod
        copy = tmp_path / "diracpairs"
        shutil.copytree(Path(cli_mod.__file__).parent, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(cli_mod, "__file__", str(copy / "cli.py"))
        digest = cli_mod._code_digest.__wrapped__   # uncached: reads the copy
        assert digest() == cli_mod._code_digest()
        modules = sorted(copy.glob("*.py"))
        assert {m.name for m in modules} >= {"__init__.py", "__main__.py",
                                             "cli.py", "dynamics.py"}
        seen = {digest()}
        for module in modules:
            text = module.read_bytes()
            module.write_bytes(text[:-1] + b" ")   # one byte: the last newline
            seen.add(digest())
            module.write_bytes(text)
        with monkeypatch.context() as m:
            m.setattr(np, "__version__", "0.0")
            seen.add(digest())
        assert len(seen) == 1 + len(modules) + 1
        assert all(re.fullmatch("[0-9a-f]{16}", d) for d in seen)

    def test_source_edit_recomputes_every_point(self, tmp_path):
        # a copy of the package, imported in a subprocess in place of this one
        copy = tmp_path / "copy"
        shutil.copytree(Path(diracpairs.__file__).parent, copy / "diracpairs",
                        ignore=shutil.ignore_patterns("__pycache__"))
        spec = SweepSpec(base=desk_config(), sweep_axis="plateau_cycles",
                         values=[0, 1, 2], outputs=str(tmp_path / "out"))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(sweep_spec_to_dict(spec)))
        env = {**os.environ, "PYTHONPATH": str(copy),
               "PYTHONDONTWRITEBYTECODE": "1"}
        env.pop("DIRACPAIRS_OUTDIR", None)

        def sweep():
            proc = subprocess.run(
                [sys.executable, "-c", SWEEP_COUNTING_COMPOSE, str(spec_path)],
                env=env, cwd=tmp_path, capture_output=True, text=True,
                check=True)
            report = json.loads(proc.stdout.splitlines()[-1])
            assert Path(report["cli"]).resolve() == (
                copy / "diracpairs" / "cli.py").resolve()
            return report["composed"], [
                (tmp_path / "out" / f"sweep_plateau_cycles.{ext}").read_bytes()
                for ext in ("csv", "json")]

        composed, first = sweep()
        assert composed == [0, 1, 2]
        older = points_dir(tmp_path / "out")
        cached = file_tree(older)
        assert sweep() == ([], first)        # no edit: every point is a hit

        module = copy / "diracpairs" / "multipair.py"
        text = module.read_bytes()
        at = text.index(b"    # ") + 6
        edited = text[:at] + text[at:at + 1].swapcase() + text[at + 1:]
        assert edited != text
        module.write_bytes(edited)           # one byte of a comment
        assert sweep() == ([0, 1, 2], first)
        assert file_tree(older) == cached
        assert len(os.listdir(tmp_path / "out" / "points")) == 2

    def test_gdump_sweep_dumps_points_cached_without(self, tmp_path,
                                                     composed):
        # rows do not depend on gdump: a gdump sweep over points cached
        # without it redoes exactly the points that lack a dump and rewrites
        # their rows byte for byte
        spec = SweepSpec(base=desk_config(), sweep_axis="plateau_cycles",
                         values=[0, 1, 2], outputs=str(tmp_path))
        csv = Path(run_sweep(spec)["csv"]).read_bytes()
        rows = file_tree(points_dir(tmp_path))
        del composed[:]
        paths = run_sweep(replace(spec, emit={"gdump": True}))
        assert composed == [0, 1, 2]
        assert Path(paths["csv"]).read_bytes() == csv
        points = file_tree(points_dir(tmp_path))
        assert set(points) == set(rows) | {
            name.replace(".json", "-u.npy") for name in rows}
        assert {name: points[name] for name in rows} == rows

    def test_plain_sweep_reuses_gdump_points(self, tmp_path, composed):
        spec = SweepSpec(base=desk_config(), sweep_axis="plateau_cycles",
                         values=[0, 1, 2], outputs=str(tmp_path),
                         emit={"gdump": True})
        csv = Path(run_sweep(spec)["csv"]).read_bytes()
        points = file_tree(points_dir(tmp_path))
        del composed[:]
        paths = run_sweep(replace(spec, emit={}))
        assert composed == []
        assert Path(paths["csv"]).read_bytes() == csv
        assert file_tree(points_dir(tmp_path)) == points

    def test_cached_point_takes_the_current_sweep_value(self, tmp_path,
                                                        composed):
        # plateau_cycles = 2, k0_z = 0 and the dotted spelling of the k0_z
        # alias at 0 name the same config, so the later sweeps read the
        # point the plateau sweep cached
        base = desk_config(plateau=2)
        rows = {}
        for axis, value in (("plateau_cycles", 2), ("k0_z", 0.0),
                            ("numerics.k0_offset.2", 0.0)):
            paths = run_sweep(SweepSpec(base=base, sweep_axis=axis,
                                        values=[value], outputs=str(tmp_path)))
            with open(paths["json"]) as fh:
                rows[axis] = row_from_dict(json.load(fh)["rows"][0])
            with open(paths["csv"]) as fh:
                assert fh.read().splitlines()[1].split(",")[0] == repr(float(value))
        assert len(os.listdir(points_dir(tmp_path))) == 1
        assert composed == [2]
        assert rows["k0_z"].sweep_value == 0.0
        assert rows["k0_z"].c == rows["plateau_cycles"].c
        assert rows["numerics.k0_offset.2"] == rows["k0_z"]

    def test_rows_cached_along_another_axis_read_as_computed(
            self, tmp_path, monkeypatch, composed):
        # a plateau sweep over points a k0_z sweep cached writes the bytes
        # it writes when it computes them, with its own sweep values, and
        # rewrites them on a rerun
        base = desk_config(plateau=2)
        spec = SweepSpec(base=base, sweep_axis="plateau_cycles", values=[2, 3])

        def outputs(spec, outdir):
            monkeypatch.setenv("DIRACPAIRS_OUTDIR", str(tmp_path / outdir))
            return {name: Path(path).read_bytes()
                    for name, path in run_sweep(spec).items()}

        computed = outputs(spec, "computed")
        outputs(replace(spec, sweep_axis="k0_z", values=[0.0, 0.02]), "cached")
        del composed[:]
        assert outputs(spec, "cached") == computed
        assert composed == [3]
        assert outputs(spec, "cached") == computed
        assert composed == [3]
        rows = json.loads(computed["json"])["rows"]
        assert [row["sweep_value"] for row in rows] == [2.0, 3.0]

    @pytest.mark.parametrize("alias", sorted(AXIS_ALIASES))
    def test_dotted_spelling_reuses_the_alias_points(self, tmp_path, composed,
                                                     alias):
        values = {"plateau_cycles": [0, 1, 3], "alpha_plus": [0.1, 0.4],
                  "k0_z": [0.0, 0.02]}[alias]
        spec = SweepSpec(base=desk_config(), sweep_axis=alias, values=values,
                         outputs=str(tmp_path))
        csv = Path(run_sweep(spec)["csv"]).read_bytes()
        points = file_tree(points_dir(tmp_path))
        del composed[:]
        dotted = replace(spec, sweep_axis=AXIS_ALIASES[alias])
        paths = run_sweep(dotted)
        assert composed == []
        assert Path(paths["csv"]).read_bytes() == csv
        assert Path(paths["csv"]).name == f"sweep_{AXIS_ALIASES[alias]}.csv"
        assert file_tree(points_dir(tmp_path)) == points

    def test_alpha_sweep_spin_selection(self, tmp_path):
        # opposite helicity: zero average spin exactly at linear polarization,
        # nonzero away from it
        field = field_from_si(3.1e17, 0.4715, 0.3, HelicityRelation.OPPOSITE)
        config = desk_config(plateau=2, n_cut=1, steps=64, n_sector_max=1,
                             field=field)
        spec = SweepSpec(base=config, sweep_axis="alpha_plus",
                         values=[0.0, math.pi / 8, math.pi / 4],
                         outputs=str(tmp_path))
        paths = run_sweep(spec)
        with open(paths["json"]) as fh:
            rows = [row_from_dict(r) for r in json.load(fh)["rows"]]
        by_alpha = {round(r.sweep_value, 6): r for r in rows}
        linear = by_alpha[round(math.pi / 4, 6)]
        assert abs(linear.s_plus[1]) < 1e-8
        assert abs(linear.s_minus[1]) < 1e-8
        elliptic = [by_alpha[round(a, 6)] for a in (0.0, math.pi / 8)]
        assert any(abs(r.s_plus.get(1, 0.0)) > 1e-6 for r in elliptic)

    def test_non_finite_point_fails_and_sweep_continues(self, tmp_path):
        spec = SweepSpec(base=desk_config(), sweep_axis="k0_z",
                         values=[0.0013, 1e160, 0.0026], outputs=str(tmp_path))
        with open(run_sweep(spec)["json"]) as fh:
            rows = json.load(fh)["rows"]
        assert [r["error"] == "" for r in rows] == [True, False, True]
        assert rows[1]["error"].startswith("UnitarityError: ")
        assert "not finite" in rows[1]["error"]

    def test_partial_failure_records_error(self, tmp_path):
        config = desk_config()
        spec = SweepSpec(base=config, sweep_axis="plateau_cycles",
                         values=[0, -3], outputs=str(tmp_path))
        paths = run_sweep(spec)
        with open(paths["json"]) as fh:
            rows = json.load(fh)["rows"]
        assert rows[0]["error"] == ""
        assert "ValidationError" in rows[1]["error"]

    def test_point_past_the_step_bound_is_an_error_row(self, tmp_path):
        # int64 step counts that no memory holds fail their own points
        # before anything is integrated; the sweep runs on
        spec = SweepSpec(base=desk_config(),
                         sweep_axis="numerics.steps_per_cycle",
                         values=[64, 2 ** 40, 2 ** 62], outputs=str(tmp_path))
        with open(run_sweep(spec)["json"]) as fh:
            errors = [row["error"] for row in json.load(fh)["rows"]]
        assert errors[0] == ""
        assert all(e.startswith(f"ValidationError: spec.values[{i}].numerics."
                                "steps_per_cycle: ")
                   for i, e in enumerate(errors) if i)

    def test_point_past_the_n_cut_bound_is_an_error_row(self, tmp_path):
        spec = SweepSpec(base=desk_config(), sweep_axis="numerics.n_cut",
                         values=[1, 100000, 1], outputs=str(tmp_path))
        with open(run_sweep(spec)["json"]) as fh:
            errors = [row["error"] for row in json.load(fh)["rows"]]
        assert errors == ["", "ValidationError: spec.values[1].numerics.n_cut:"
                          " must be in [1, 64]", ""]

    def test_failing_segment_set_is_integrated_once(self, tmp_path,
                                                     monkeypatch):
        # fig2 at omega 1e-4 on a coarse grid: the turn-on's unitarity
        # defect is about 2e-8, so every point of the set fails from the
        # one integration, whatever the number of chunks
        import diracpairs.dynamics as dynamics_mod
        fig2 = figure_configs()["fig2"][0]
        base = RunConfig(field=replace(fig2.field, omega=1e-4),
                         window=replace(fig2.window, ramp_cycles=1),
                         numerics=replace(fig2.numerics, n_cut=1,
                                          steps_per_cycle=64))
        integrations = []
        integrate = dynamics_mod._integrate

        def spy(*args):
            integrations.append(args[2:])
            return integrate(*args)

        monkeypatch.setattr(dynamics_mod, "_integrate", spy)
        errors = {}
        for n in (1, 40):
            spec = SweepSpec(base=base, sweep_axis="plateau_cycles",
                             values=list(range(n)), outputs=str(tmp_path / str(n)))
            with open(run_sweep(spec)["json"]) as fh:
                errors[n] = {row["error"] for row in json.load(fh)["rows"]}
        assert len(integrations) == 2
        assert errors[1] == errors[40]
        (error,) = errors[40]
        assert error.startswith("UnitarityError: on segment unitarity defect")

    def test_sweep_rows_equal_the_run_rows(self, tmp_path):
        # unsorted plateau lengths across a chunk boundary, one repeated and
        # one failing: every good row is the run row of its point, the
        # failing one keeps its error, and a rerun from the cache is
        # byte-identical
        base = desk_config()
        values = [7, 3, 0, 12, 5, 19, 1, 3, 8, -3, 14, 2, 11, 6, 17, 9, 4, 13,
                  10, 16, 15]
        assert len(set(values) - {-3}) > CHUNK
        spec = SweepSpec(base=base, sweep_axis="plateau_cycles",
                         values=values, outputs=str(tmp_path))
        paths = run_sweep(spec)
        first = {name: Path(path).read_bytes() for name, path in paths.items()}
        rows = json.loads(first["json"])["rows"]
        assert [row["sweep_value"] for row in rows] == [float(v) for v in values]
        for i, (j, row) in enumerate(zip(values, rows)):
            if j < 0:
                assert row["error"] == (f"ValidationError: spec.values[{i}]."
                                        "window.plateau_cycles: must be >= 0")
                continue
            direct = row_to_dict(run_once(with_plateau(base, j)))
            assert {**row, "sweep_value": None} == direct
        assert {name: Path(path).read_bytes()
                for name, path in run_sweep(spec).items()} == first

    @pytest.mark.parametrize("axis, values, factorizations", [
        ("plateau_cycles", [0, 1, 2, 5, 9], 1),
        ("k0_z", [0.0, 0.05, 0.1], 3),
        ("window.plateau_cycles", [0, 1, 2, 5, 9], 1),
        ("numerics.k0_offset.2", [0.0, 0.05, 0.1], 3),
        ("numerics.n_sector_max", [1, 2, 4], 1),
        ("numerics.prune_threshold", [0.0, 1e-3], 1),
    ])
    def test_one_schur_factorization_per_segment_set(
            self, tmp_path, monkeypatch, axis, values, factorizations):
        # the Schur form is the QR of one eigendecomposition's vectors
        calls = []
        eig = np.linalg.eig

        def spy(*args, **kwargs):
            calls.append(1)
            return eig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eig", spy)
        spec = SweepSpec(base=desk_config(plateau=1), sweep_axis=axis,
                         values=values, outputs=str(tmp_path))
        with open(run_sweep(spec)["json"]) as fh:
            assert all(r["error"] == "" for r in json.load(fh)["rows"])
        assert len(calls) == factorizations

    def test_k0_sweep_changes_subspace(self, tmp_path):
        config = desk_config(plateau=1)
        spec = SweepSpec(base=config, sweep_axis="k0_z", values=[0.0, 0.1],
                         outputs=str(tmp_path), emit={"gdump": True})
        paths = run_sweep(spec)
        with open(paths["json"]) as fh:
            rows = [row_from_dict(r) for r in json.load(fh)["rows"]]
        assert all(r.error == "" for r in rows)
        # moving the subspace origin changes the pair content
        assert rows[0].cv_abs2 != rows[1].cv_abs2
        # gdump holds on every sweep axis, not only plateau_cycles
        dumped = sorted(f for f in os.listdir(points_dir(tmp_path))
                        if not f.endswith(".json"))
        assert [f.rsplit("-", 1)[1] for f in dumped] == ["u.npy", "u.npy"]
        for f in dumped:
            m = np.load(points_dir(tmp_path) / f)
            assert m.shape == (12, 12) and m.dtype == np.complex128

    def test_emit_flags_control_outputs(self, tmp_path):
        config = desk_config(plateau=1)
        spec = SweepSpec(base=config, sweep_axis="plateau_cycles", values=[1],
                         outputs=str(tmp_path),
                         emit={"sectors": False, "pairs": False, "gdump": True})
        paths = run_sweep(spec)
        with open(paths["json"]) as fh:
            row = json.load(fh)["rows"][0]
        # "sectors" and "pairs" are no longer flags: unknown keys are ignored
        assert row["pair_list"]
        assert len(row["c"]) == 3 and all(x is not None for x in row["c"])
        dumped = [f for f in os.listdir(points_dir(tmp_path))
                  if not f.endswith(".json")]
        assert [f.rsplit("-", 1)[1] for f in dumped] == ["u.npy"]
        m = np.load(points_dir(tmp_path) / dumped[0])
        assert m.shape == (12, 12) and m.dtype == np.complex128

    def test_gdump_stores_the_propagator_alone(self, tmp_path):
        config = desk_config()
        values = [0, 57, 120]
        run_sweep(SweepSpec(base=config, sweep_axis="plateau_cycles",
                            values=values, outputs=str(tmp_path),
                            emit={"gdump": True}))
        basis = build_basis(config.numerics, config.field)
        segments = propagator_segments(with_plateau(config, 0), basis)
        names = set()
        for j in values:
            tag = config_hash(with_plateau(config, j))
            names |= {f"{tag}.json", f"{tag}-u.npy"}
            dumped = np.load(points_dir(tmp_path) / f"{tag}-u.npy")
            composed = cycle_compose(*segments, j).matrix
            assert dumped.dtype == composed.dtype == np.complex128
            assert dumped.shape == composed.shape
            assert dumped.tobytes() == composed.tobytes()
        assert set(os.listdir(points_dir(tmp_path))) == names

    def test_gdump_point_without_its_dump_is_redone(self, tmp_path,
                                                    composed):
        config = desk_config()
        spec = SweepSpec(base=config, sweep_axis="plateau_cycles",
                         values=[0, 1, 2], outputs=str(tmp_path),
                         emit={"gdump": True})
        paths = run_sweep(spec)
        first = {name: Path(path).read_bytes() for name, path in paths.items()}
        tag = config_hash(with_plateau(config, 1))
        dump = points_dir(tmp_path) / f"{tag}-u.npy"
        dump.unlink()
        del composed[:]
        assert {name: Path(path).read_bytes()
                for name, path in run_sweep(spec).items()} == first
        assert composed == [1]
        basis = build_basis(config.numerics, config.field)
        segments = propagator_segments(with_plateau(config, 0), basis)
        dumped = np.load(dump)
        assert dumped.tobytes() == cycle_compose(*segments, 1).matrix.tobytes()

    def test_gdump_error_point_stays_cached(self, tmp_path, monkeypatch):
        # a failed point has no dump to look for
        import diracpairs.cli as cli_mod
        spec = SweepSpec(base=desk_config(), sweep_axis="plateau_cycles",
                         values=[0, -3], outputs=str(tmp_path),
                         emit={"gdump": True})
        first = Path(run_sweep(spec)["json"]).read_bytes()
        assert len(os.listdir(points_dir(tmp_path))) == 3
        validated = []
        validate = cli_mod.validate

        def spy(config, path="config"):
            validated.append(config.window.plateau_cycles)
            return validate(config, path)

        monkeypatch.setattr(cli_mod, "validate", spy)
        assert Path(run_sweep(spec)["json"]).read_bytes() == first
        assert validated == [1]      # the spec's base alone: no point redone

    def test_failed_write_leaves_no_file(self, tmp_path):
        # a point file is written whole or not at all, and the temporary
        # of a write that raised is removed
        path = tmp_path / "point.json"

        def cut_short(fh):
            fh.write(b'{"plateau')
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            _write_whole(str(path), cut_short)
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("gdump", [False, True])
    def test_concurrent_sweeps_share_points(self, tmp_path, monkeypatch,
                                            gdump):
        # fig2 and fig3 have one config, so their sweeps into one output
        # directory write the same point files; here a second sweep runs to
        # completion just before the first renames its first file
        spec = SweepSpec(base=desk_config(), sweep_axis="plateau_cycles",
                         values=[0, 1, 2], outputs=str(tmp_path / "shared"),
                         emit={"gdump": gdump})
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(sweep_spec_to_dict(spec)))
        rename = os.replace
        nested = []

        def interleaved(src, dst):
            if not nested:
                nested.append(dst)
                assert main(["sweep", "--spec", str(spec_path)]) == 0
            rename(src, dst)

        with monkeypatch.context() as m:
            m.setattr(os, "replace", interleaved)
            assert main(["sweep", "--spec", str(spec_path)]) == 0
        assert nested
        monkeypatch.setenv("DIRACPAIRS_OUTDIR", str(tmp_path / "solo"))
        assert main(["sweep", "--spec", str(spec_path)]) == 0

        shared = file_tree(tmp_path / "shared")
        assert shared == file_tree(tmp_path / "solo")
        assert len(shared) == 2 + 3 * (2 if gdump else 1)
        assert not any(name.endswith(".tmp") for name in shared)

    def test_outdir_env_override(self, tmp_path, monkeypatch):
        override = tmp_path / "elsewhere"
        monkeypatch.setenv("DIRACPAIRS_OUTDIR", str(override))
        spec = SweepSpec(base=desk_config(plateau=0),
                         sweep_axis="plateau_cycles", values=[0],
                         outputs=str(tmp_path / "ignored"))
        paths = run_sweep(spec)
        assert str(override) in paths["csv"]
        assert not (tmp_path / "ignored").exists()


# Malformed inputs: (command, in-place edit of a valid input or a
# replacement top level, path the message must name).
MALFORMED = {
    "relation_typo": ("run", lambda d: d["field"].update(
        helicity_relation="sme"), "config.field.helicity_relation"),
    "missing_omega": ("run", lambda d: d["field"].pop("omega"),
                      "config.field.omega"),
    "n_cut_string": ("run", lambda d: d["numerics"].update(n_cut="nan"),
                     "config.numerics.n_cut"),
    "k0_string": ("run", lambda d: d["numerics"].update(k0_offset="abc"),
                  "config.numerics.k0_offset"),
    "top_level_list": ("run", lambda d: [d], "config:"),
    "key_typo": ("run", lambda d: d["numerics"].update(steps_per_cyle=64),
                 "config.numerics.steps_per_cyle"),
    "n_cut_fraction": ("run", lambda d: d["numerics"].update(n_cut=1.7),
                       "config.numerics.n_cut"),
    "n_cut_bool": ("run", lambda d: d["numerics"].update(n_cut=True),
                   "config.numerics.n_cut"),
    "e_peak_infinite": ("run", lambda d: d["field"].update(e_peak=math.inf),
                        "field.e_peak"),
    "k0_nan": ("run", lambda d: d["numerics"].update(
        k0_offset=[math.nan, 0, 0]), "numerics.k0_offset"),
    "steps_odd": ("run", lambda d: d["numerics"].update(steps_per_cycle=65),
                  "config.numerics.steps_per_cycle: must be even"),
    "sweep_base_steps_odd": ("sweep", lambda s: s["base"]["numerics"].update(
        steps_per_cycle=65), "spec.base.numerics.steps_per_cycle: must be even"),
    "omega_negative": ("run", lambda d: d["field"].update(omega=-0.746),
                       "config.field.omega: must be finite and > 0"),
    "prune_threshold_one": ("run", lambda d: d["numerics"].update(
        prune_threshold=1.0), "config.numerics.prune_threshold: must be in "
        "[0, 1)"),
    # the dense d x d matrices of n_cut 100000 would take 9.3 TiB
    **{f"n_cut_100000_{command}": (command, lambda d, base=command == "sweep": (
        d["base"] if base else d)["numerics"].update(n_cut=100000),
        f"{path}.numerics.n_cut: must be in [1, 64]")
       for command, path in [("run", "config"), ("dump-basis", "config"),
                             ("sweep", "spec.base")]},
    "values_empty": ("sweep", lambda s: s.update(values=[]),
                     "spec.values: must be non-empty"),
    "emit_string": ("sweep", lambda s: s.update(emit="yes"), "spec.emit"),
    "value_string": ("sweep", lambda s: s.update(values=["a"]),
                     "spec.values[0]"),
    "missing_axis": ("sweep", lambda s: s.pop("sweep_axis"),
                     "spec.sweep_axis"),
    "plateau_fraction": ("sweep", lambda s: s.update(values=[2.5]),
                         "spec.values"),
    **{f"axis_{name}": ("sweep", lambda s, axis=axis: s.update(
        sweep_axis=axis), "spec.sweep_axis") for name, axis in [
        ("negative_index", "numerics.k0_offset.-1"),
        ("index_out_of_range", "numerics.k0_offset.3"),
        ("zero_padded_index", "numerics.k0_offset.02"),
        ("list_node", "numerics.k0_offset"),
        ("dict_node", "field"),
        ("parent_dir", "../x"),
        ("empty", ""),
        ("missing_key", "window.plateau"),
        ("below_a_leaf", "field.omega.x"),
        ("field_shorthand", "field.e_si_v_per_m")]},
    "axis_value_type": ("sweep", lambda s: s.update(
        sweep_axis="field.helicity_relation"),
        "spec.values[0].field.helicity_relation"),
    "alpha_minus_inconsistent": ("run", lambda d: d["field"].update(
        alpha_minus=0.3), "config.field.alpha_minus: inconsistent with "
        "alpha_plus and helicity_relation"),
    # int leaves must fit numpy's int64, as plateau powers and step grids do
    "plateau_1e30": ("run", lambda d: d["window"].update(plateau_cycles=1e30),
                     "config.window.plateau_cycles: must be an integer in "
                     "[-2^63, 2^63)"),
    "plateau_10_pow_30": ("run", lambda d: d["window"].update(
        plateau_cycles=10 ** 30), "config.window.plateau_cycles"),
    "steps_2_pow_64": ("run", lambda d: d["numerics"].update(
        steps_per_cycle=2 ** 64), "config.numerics.steps_per_cycle"),
    "value_past_int64": ("sweep", lambda s: s.update(values=[3, 10 ** 30]),
                         "spec.values[1].window.plateau_cycles"),
    # int64 steps that no memory holds: the steps of a run are bounded
    **{f"steps_2_pow_{p}": ("run", lambda d, p=p: d["numerics"].update(
        steps_per_cycle=2 ** p), "config.numerics.steps_per_cycle: times 2 "
        "window.ramp_cycles + 1 must be <= 2^26") for p in (40, 62)},
    "sweep_base_steps_2_pow_40": ("sweep", lambda s: s["base"]["numerics"]
                                  .update(steps_per_cycle=2 ** 40),
                                  "spec.base.numerics.steps_per_cycle"),
    "oracle_plateau_2_pow_40": ("oracle-check", lambda d: d["window"].update(
        plateau_cycles=2 ** 40), "config.numerics.steps_per_cycle: times "
        "window.total_cycles must be <= 2^26"),
}


# dump-basis of desk_config(): n_cut 1 at k0 = 0, so spin_z and helicity are
# exact halves, and the n = 0 helicity is 0.0 for both spins
DESK_BASIS_CSV = """\
index,n,band,spin,energy,spin_z,helicity
0,-1,plus,up,1.2476041038726988,0.5,-0.5
1,-1,plus,down,1.2476041038726988,-0.5,0.5
2,-1,minus,up,-1.2476041038726988,0.5,-0.5
3,-1,minus,down,-1.2476041038726988,-0.5,0.5
4,0,plus,up,1.0,0.5,0.0
5,0,plus,down,1.0,-0.5,0.0
6,0,minus,up,-1.0,0.5,0.0
7,0,minus,down,-1.0,-0.5,0.0
8,1,plus,up,1.2476041038726988,0.5,0.5
9,1,plus,down,1.2476041038726988,-0.5,-0.5
10,1,minus,up,-1.2476041038726988,0.5,0.5
11,1,minus,down,-1.2476041038726988,-0.5,-0.5
"""

# sha256 of `dump-basis` on the emitted fig2 and fig4 presets (n_cut 4)
PRESET_BASIS_SHA256 = {
    "fig2": "6164d106cc5f2d35d9386d29674f18c72db43b316b119fcaf8e4d9d845055e46",
    "fig4": "92f41559969d2ebd0af83df6b565a2d500aa18cc98e74db74c8a2acd72449e79",
}


class TestCommandLine:
    def write_config(self, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(config)))
        return str(path)

    def test_preset_emit_and_reload(self, tmp_path, capsys):
        out = tmp_path / "fig2.json"
        assert main(["preset", "--name", "fig2", "--emit-config",
                     "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert "_meta" in data
        config = config_from_dict(data)
        assert config.field.omega == 0.746

    def test_module_entry_point(self):
        # `python -m diracpairs` runs the CLI with nothing on stderr (the
        # module form of cli.py warned that it was already imported)
        src = os.path.dirname(os.path.dirname(diracpairs.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "diracpairs", "preset", "--name", "fig2",
             "--emit-config"], capture_output=True, text=True, env=env,
            timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert config_from_dict(json.loads(proc.stdout)).field.omega == 0.746

    def test_cli_import_leaves_sparse_linalg_out(self):
        # scipy.sparse.linalg costs import time and memory, and nothing in
        # the package needs it
        src = os.path.dirname(os.path.dirname(diracpairs.__file__))
        code = ("import sys, diracpairs.cli; "
                "assert 'scipy.sparse.linalg' not in sys.modules")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr

    def test_commands_run_without_scipy(self, tmp_path):
        # no module of the package imports scipy, and none of numpy.ma
        # either (np.unique loads it lazily)
        results = reduced_fig2_commands(tmp_path, "no-scipy", "run", "sweep",
                                        "oracle-check")
        assert [(name, rc) for name, rc, _ in results] == [
            ("run", 0), ("sweep", 0), ("oracle-check", 0)]
        for _, _, imported in results:
            assert not [m for m in imported if m.startswith(("scipy", "numpy.ma"))]

    def test_run_imports_no_module(self, tmp_path):
        # whatever a run loads lazily, it pays inside its own wall time
        assert reduced_fig2_commands(tmp_path, "with-scipy", "run") == [
            ["run", 0, []]]

    def test_preset_unknown_name_exit_2(self, capsys):
        assert main(["preset", "--name", "fig9", "--emit-config"]) == 2

    def test_preset_without_emit_config_exit_2(self, capsys):
        # emitting is all the command does, so without the flag it would
        # silently do nothing
        assert main(["preset", "--name", "fig2"]) == 2
        captured = capsys.readouterr()
        assert "--emit-config: must be given" in captured.err
        assert captured.out == ""

    def test_readme_commands_parse(self):
        # every command line in the README's sh blocks is one the parser
        # takes, and together they show every subcommand
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        commands = []
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
            for line in block.splitlines():
                words = shlex.split(line, comments=True)
                if words[:1] == ["diracpairs"]:
                    commands.append(words[1:])
                elif words[:3] == ["python", "-m", "diracpairs"]:
                    commands.append(words[3:])
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv)
        subcommands = next(a.choices for a in parser._actions
                           if a.dest == "command")
        assert {argv[0] for argv in commands} == set(subcommands)

    def test_run_writes_outputs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DIRACPAIRS_OUTDIR", str(tmp_path / "out"))
        cfg_path = self.write_config(tmp_path, desk_config())
        assert main(["run", "--config", cfg_path]) == 0
        files = os.listdir(tmp_path / "out")
        assert any(f.endswith(".csv") for f in files)
        assert any(f.endswith(".json") for f in files)

    def test_validation_error_exit_2(self, tmp_path):
        bad = desk_config()
        data = config_to_dict(bad)
        data["numerics"]["n_cut"] = 0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize("command, mutate, path",
                             list(MALFORMED.values()), ids=list(MALFORMED))
    def test_malformed_input_exit_2(self, tmp_path, capsys, command, mutate,
                                    path):
        data = config_to_dict(desk_config())
        if command == "sweep":
            data = {"base": data, "sweep_axis": "plateau_cycles",
                    "values": [0, 1], "outputs": str(tmp_path / "out")}
        replaced = mutate(data)  # edits in place, or returns a new top level
        data = replaced if isinstance(replaced, list) else data
        in_path = tmp_path / "input.json"
        in_path.write_text(json.dumps(data))
        flag = "--spec" if command == "sweep" else "--config"
        assert main([command, flag, str(in_path)]) == 2
        err = capsys.readouterr().err
        assert path in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flags, message", [
        ("dump-field", ["--per-cycle", "0"], "--per-cycle: must be >= 1"),
        ("dump-field", ["--per-cycle", "-3"], "--per-cycle: must be >= 1"),
        ("dump-field", ["--z", "nan"], "--z: must be finite"),
        ("oracle-check", ["--tol", "nan"], "--tol: must be finite and > 0"),
        ("oracle-check", ["--tol", "0"], "--tol: must be finite and > 0"),
        ("oracle-check", ["--nmax", "-1"], "--nmax: must be >= 0"),
    ], ids=["per_cycle_zero", "per_cycle_negative", "z_nan", "tol_nan",
            "tol_zero", "nmax_negative"])
    def test_malformed_flag_exit_2(self, tmp_path, capsys, command, flags,
                                   message):
        cfg_path = self.write_config(tmp_path, desk_config())
        out = tmp_path / "out.csv"
        argv = [command, "--config", cfg_path] + flags
        if command == "dump-field":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "passed" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("command", ["preset", "dump-basis", "dump-field",
                                         "oracle-check", "run", "sweep"])
    def test_unwritable_output_exit_2(self, tmp_path, capsys, monkeypatch,
                                      command):
        # a path below a regular file cannot be created, not even by root;
        # it is found before anything is propagated
        import diracpairs.dynamics as dynamics_mod
        import diracpairs.fockoracle as fockoracle_mod

        def no_propagation(*args):
            raise AssertionError("propagated before the output was checked")

        monkeypatch.setattr(dynamics_mod, "propagator_segments", no_propagation)
        monkeypatch.setattr(fockoracle_mod, "propagate_vacuum", no_propagation)
        (tmp_path / "file.json").write_text("{}")
        out = str(tmp_path / "file.json" / "out")
        monkeypatch.delenv("DIRACPAIRS_OUTDIR", raising=False)
        cfg_path = self.write_config(tmp_path, desk_config())
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "base": config_to_dict(desk_config()), "sweep_axis": "plateau_cycles",
            "values": [0], "outputs": out}))
        argv = {
            "preset": ["preset", "--name", "fig2", "--emit-config", "--out", out],
            "dump-basis": ["dump-basis", "--config", cfg_path, "--out", out],
            "dump-field": ["dump-field", "--config", cfg_path, "--per-cycle",
                           "4", "--out", out],
            "oracle-check": ["oracle-check", "--config", cfg_path, "--nmax",
                             "1", "--dump-amplitudes", out],
            "run": ["run", "--config", cfg_path, "--out", out],
            "sweep": ["sweep", "--spec", str(spec_path)],
        }[command]
        assert main(argv) == 2
        assert out in capsys.readouterr().err

    def test_unreadable_json_exit_2(self, tmp_path, capsys):
        in_path = tmp_path / "input.json"
        in_path.write_text('{"field": ')
        assert main(["run", "--config", str(in_path)]) == 2
        assert str(in_path) in capsys.readouterr().err

    def test_tolerance_failure_exit_3(self, tmp_path, monkeypatch):
        cfg_path = self.write_config(tmp_path, desk_config())
        import diracpairs.cli as cli_mod

        def boom(config):
            raise UnitarityError("synthetic defect")

        monkeypatch.setattr(cli_mod, "run_once", boom)
        monkeypatch.delenv("DIRACPAIRS_OUTDIR", raising=False)
        assert main(["run", "--config", cfg_path,
                     "--out", str(tmp_path / "out")]) == 3

    @pytest.mark.parametrize("section, key, value", [
        ("field", "omega", 1e-300),     # K finite, |dt| ||K|| infinite
        ("field", "omega", 1e300),
        ("numerics", "k0_offset", [1e160, 0.0, 0.0]),
    ], ids=["omega_tiny", "omega_huge", "k0_huge"])
    def test_non_finite_propagation_exit_3(self, tmp_path, capsys, monkeypatch,
                                           section, key, value):
        data = config_to_dict(desk_config())
        data[section][key] = value
        in_path = tmp_path / "config.json"
        in_path.write_text(json.dumps(data))
        monkeypatch.delenv("DIRACPAIRS_OUTDIR", raising=False)
        assert main(["run", "--config", str(in_path),
                     "--out", str(tmp_path / "out")]) == 3
        # the one message line, with no numpy warning printed before it,
        # the same for each input: the step bound is refused, not the steps
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["numerical tolerance failure: field.omega, "
                         "field.e_peak or numerics.k0_offset is out of range: "
                         "the step bound is not finite"]
        assert "after 0 steps" not in lines[0]

    def test_oracle_check_passes_on_small_run(self, tmp_path):
        config = desk_config()
        cfg_path = self.write_config(tmp_path, config)
        table = tmp_path / "amps.csv"
        assert main(["oracle-check", "--config", cfg_path, "--nmax", "1",
                     "--dump-amplitudes", str(table)]) == 0
        header, *lines = table.read_text().splitlines()
        assert header == "N,electrons,positrons,re,im"
        assert len(lines) > 100  # all charge-zero sectors of the 6+6 basis
        # the dump reads back as the Fock amplitude table, exactly
        labels = lambda text: [int(x) for x in text.split("|") if x]
        read = [(int(n), labels(es), labels(ps), complex(float(re), float(im)))
                for n, es, ps, re, im in (line.split(",") for line in lines)]
        basis = build_basis(config.numerics, config.field)
        expected = fockoracle.amplitude_table(
            fockoracle.propagate_vacuum(config, basis))
        assert read == [(n, list(es), list(ps), amp)
                        for n, es, ps, amp in expected]

    def test_oracle_check_past_its_tolerance_exit_3(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path, desk_config())
        assert main(["oracle-check", "--config", cfg_path,
                     "--tol", "1e-300"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical tolerance failure: "
                                       "oracle-check: amplitude difference ")
        assert "exceeds 1.0e-300" in captured.err
        assert "passed" not in captured.out

    def test_oracle_check_norm_drift_exit_3(self, tmp_path, capsys,
                                            monkeypatch):
        import diracpairs.fockoracle as fockoracle_mod
        monkeypatch.setattr(fockoracle_mod, "NORM_TOL", 0.0)
        cfg_path = self.write_config(tmp_path, desk_config())
        assert main(["oracle-check", "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical tolerance failure: ")
        assert "norm drift" in err

    def test_dump_basis_columns(self, tmp_path):
        cfg_path = self.write_config(tmp_path, desk_config())
        out = tmp_path / "basis.csv"
        assert main(["dump-basis", "--config", cfg_path, "--out", str(out)]) == 0
        assert out.read_text() == DESK_BASIS_CSV

    @pytest.mark.parametrize("preset", sorted(PRESET_BASIS_SHA256))
    def test_dump_basis_presets_byte_for_byte(self, tmp_path, preset):
        cfg_path, out = tmp_path / "config.json", tmp_path / "basis.csv"
        assert main(["preset", "--name", preset, "--emit-config",
                     "--out", str(cfg_path)]) == 0
        assert main(["dump-basis", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == PRESET_BASIS_SHA256[preset]

    def test_oracle_check_refuses_large_basis_before_propagating(
            self, tmp_path, capsys, monkeypatch):
        import diracpairs.dynamics as dynamics_mod

        def no_propagation(*args):
            raise AssertionError("propagated before the Fock size was checked")

        monkeypatch.setattr(dynamics_mod, "propagator_segments", no_propagation)
        cfg_path = tmp_path / "fig2.json"
        assert main(["preset", "--name", "fig2", "--emit-config",
                     "--out", str(cfg_path)]) == 0
        dump = tmp_path / "amp.csv"
        assert main(["oracle-check", "--config", str(cfg_path),
                     "--dump-amplitudes", str(dump)]) == 2
        err = capsys.readouterr().err
        assert "config.numerics.n_cut: single-particle dimension 36 exceeds " \
            "the hard cap 16" in err
        assert not dump.exists()

    def test_dump_field_columns(self, tmp_path):
        config = desk_config()
        field, window = config.field, config.window
        cfg_path = self.write_config(tmp_path, config)
        out = tmp_path / "field.csv"
        assert main(["dump-field", "--config", cfg_path, "--out", str(out),
                     "--per-cycle", "8", "--z", "0.37"]) == 0
        header, *lines = out.read_text().splitlines()
        assert header == "t_cycles,Ax,Ay,Az,Ex,Ey,Ez"
        # window is 1+1+1 cycles at 8 samples per cycle, plus the endpoint
        rows = np.array([[float(x) for x in line.split(",")] for line in lines])
        assert rows[:, 0].tolist() == [i / 8 for i in range(3 * 8 + 1)]
        # one call per field over the grid writes what one call per sample
        # gives
        for t_cycles, *values in rows:
            t = t_cycles * field.cycle_duration
            sample = np.concatenate([potential_vector_at(0.37, t, field, window),
                                     electric_field_at(0.37, t, field, window)])
            assert np.allclose(values, sample, rtol=1e-15, atol=0.0)
