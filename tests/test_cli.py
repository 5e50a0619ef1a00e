import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from diracpairs import (HelicityRelation, NumericsParams, ResultRow, RunConfig,
                        SweepSpec, UnitarityError, WindowParams,
                        config_from_dict, config_to_dict, field_from_si,
                        figure_configs, run_once, run_sweep, with_plateau)
from diracpairs.cli import (csv_header, csv_row, main, row_from_dict,
                            row_to_dict)


def desk_config(plateau=1, n_cut=1, steps=64, n_sector_max=2, field=None):
    return RunConfig(
        field=field or field_from_si(4.9e17, 0.746, 0.2 * math.pi / 4,
                                     HelicityRelation.SAME),
        window=WindowParams(ramp_cycles=1, plateau_cycles=plateau),
        numerics=NumericsParams(n_cut=n_cut, steps_per_cycle=steps,
                                n_sector_max=n_sector_max))


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
        real = dynamics_mod.assemble_hamiltonian
        calls = []

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(dynamics_mod, "assemble_hamiltonian", counted)
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

    def test_resumability_reuses_points(self, tmp_path):
        config = desk_config()
        spec = SweepSpec(base=config, sweep_axis="plateau_cycles",
                         values=[0, 1, 2], outputs=str(tmp_path))
        paths = run_sweep(spec)
        with open(paths["csv"]) as fh:
            first = fh.read()
        points = sorted(os.listdir(tmp_path / "points"))
        stamps = {p: os.path.getmtime(tmp_path / "points" / p) for p in points}
        paths = run_sweep(spec)
        with open(paths["csv"]) as fh:
            second = fh.read()
        assert first == second
        for p in points:
            assert os.path.getmtime(tmp_path / "points" / p) == stamps[p]

    def test_cache_key_has_scheme_version_and_emit_flags(self, tmp_path,
                                                         monkeypatch):
        import diracpairs.cli as cli_mod

        def sweep_rows(spec):
            with open(run_sweep(spec)["json"]) as fh:
                return [row_from_dict(r) for r in json.load(fh)["rows"]]

        def poison_points(outdir):
            # stand-in for rows an older readout or other emit flags left
            for path in (outdir / "points").iterdir():
                row = json.loads(path.read_text())
                row.update(c=[], pair_list=[], error="stale cached row")
                path.write_text(json.dumps(row))

        def spec_in(outdir, **emit):
            return SweepSpec(base=desk_config(), sweep_axis="plateau_cycles",
                             values=[0, 1], outputs=str(outdir),
                             emit={"sectors": True, "pairs": True,
                                   "gdump": False, **emit})

        old_scheme = tmp_path / "old_scheme"
        with monkeypatch.context() as m:
            m.setattr(cli_mod, "SCHEME_VERSION", cli_mod.SCHEME_VERSION - 1)
            sweep_rows(spec_in(old_scheme))
        poison_points(old_scheme)
        rows = sweep_rows(spec_in(old_scheme))
        assert all(r.error == "" and r.pair_list for r in rows)

        # "sectors" and "pairs" are ignored keys; gdump is the only flag
        no_gdump = tmp_path / "no_gdump"
        sweep_rows(spec_in(no_gdump))
        poison_points(no_gdump)
        rows = sweep_rows(spec_in(no_gdump, gdump=True))
        assert all(r.error == "" and r.pair_list for r in rows)
        assert len([f for f in os.listdir(no_gdump / "points")
                    if f.endswith(".bin")]) == 6

    def test_cached_point_takes_the_current_sweep_value(self, tmp_path):
        # plateau_cycles = 2 and k0_z = 0 name the same config, so the k0_z
        # sweep reads the point the plateau sweep cached
        base = desk_config(plateau=2)
        rows = {}
        for axis, value in (("plateau_cycles", 2), ("k0_z", 0.0)):
            paths = run_sweep(SweepSpec(base=base, sweep_axis=axis,
                                        values=[value], outputs=str(tmp_path)))
            with open(paths["json"]) as fh:
                rows[axis] = row_from_dict(json.load(fh)["rows"][0])
            with open(paths["csv"]) as fh:
                assert fh.read().splitlines()[1].split(",")[0] == repr(float(value))
        assert len(os.listdir(tmp_path / "points")) == 1
        assert rows["k0_z"].sweep_value == 0.0
        assert rows["k0_z"].c == rows["plateau_cycles"].c

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

    @pytest.mark.parametrize("axis, values, factorizations", [
        ("plateau_cycles", [0, 1, 2, 5, 9], 1),
        ("k0_z", [0.0, 0.05, 0.1], 3),
    ])
    def test_one_schur_factorization_per_segment_set(
            self, tmp_path, monkeypatch, axis, values, factorizations):
        import scipy.linalg
        calls = []
        schur = scipy.linalg.schur

        def spy(*args, **kwargs):
            calls.append(1)
            return schur(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "schur", spy)
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
        dumped = [f for f in os.listdir(tmp_path / "points")
                  if f.endswith(".bin")]
        assert sorted(f.rsplit("-", 1)[1] for f in dumped) == \
            ["gmm.bin", "gmm.bin", "gpm.bin", "gpm.bin", "u.bin", "u.bin"]

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
        dumped = [f for f in os.listdir(tmp_path / "points")
                  if f.endswith(".bin")]
        assert {f.rsplit("-", 1)[1] for f in dumped} == \
            {"u.bin", "gpm.bin", "gmm.bin"}
        from diracpairs import load_complex_matrix
        u_file = next(f for f in dumped if f.endswith("u.bin"))
        m = load_complex_matrix(tmp_path / "points" / u_file)
        assert m.shape == (12, 12)

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
                  "numerics.steps_per_cycle: must be even"),
    "emit_string": ("sweep", lambda s: s.update(emit="yes"), "spec.emit"),
    "value_string": ("sweep", lambda s: s.update(values=["a"]),
                     "spec.values[0]"),
    "missing_axis": ("sweep", lambda s: s.pop("sweep_axis"),
                     "spec.sweep_axis"),
    "plateau_fraction": ("sweep", lambda s: s.update(values=[2.5]),
                         "spec.values"),
    "alpha_minus_inconsistent": ("run", lambda d: d["field"].update(
        alpha_minus=0.3), "config.field.alpha_minus: inconsistent with "
        "alpha_plus and helicity_relation"),
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

    def test_preset_unknown_name_exit_2(self, capsys):
        assert main(["preset", "--name", "fig9", "--emit-config"]) == 2

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
        flag = "--config" if command == "run" else "--spec"
        assert main([command, flag, str(in_path)]) == 2
        assert path in capsys.readouterr().err
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

    @pytest.mark.parametrize("section, key, value, message", [
        ("field", "omega", 1e-300, "unitarity defect nan exceeds"),
        ("field", "omega", 1e300, "not finite"),
        ("numerics", "k0_offset", [1e160, 0.0, 0.0], "not finite"),
    ], ids=["omega_tiny", "omega_huge", "k0_huge"])
    def test_non_finite_propagation_exit_3(self, tmp_path, capsys, monkeypatch,
                                           section, key, value, message):
        data = config_to_dict(desk_config())
        data[section][key] = value
        in_path = tmp_path / "config.json"
        in_path.write_text(json.dumps(data))
        monkeypatch.delenv("DIRACPAIRS_OUTDIR", raising=False)
        assert main(["run", "--config", str(in_path),
                     "--out", str(tmp_path / "out")]) == 3
        # the one message line, with no numpy warning printed before it
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("numerical tolerance failure: ")
        assert message in lines[0]

    def test_oracle_check_passes_on_small_run(self, tmp_path):
        cfg_path = self.write_config(tmp_path, desk_config())
        table = tmp_path / "amps.csv"
        assert main(["oracle-check", "--config", cfg_path, "--nmax", "1",
                     "--dump-amplitudes", str(table)]) == 0
        lines = table.read_text().splitlines()
        assert lines[0] == "N,electrons,positrons,re,im"
        assert len(lines) > 100  # all charge-zero sectors of the 6+6 basis

    def test_dump_basis_columns(self, tmp_path):
        cfg_path = self.write_config(tmp_path, desk_config())
        out = tmp_path / "basis.csv"
        assert main(["dump-basis", "--config", cfg_path, "--out", str(out)]) == 0
        assert out.read_text() == DESK_BASIS_CSV

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
        assert "dimension 36 exceeds the hard cap 16" in capsys.readouterr().err
        assert not dump.exists()

    def test_dump_field_columns(self, tmp_path):
        cfg_path = self.write_config(tmp_path, desk_config())
        out = tmp_path / "field.csv"
        assert main(["dump-field", "--config", cfg_path, "--out", str(out),
                     "--per-cycle", "8"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t_cycles,Ax,Ay,Az,Ex,Ey,Ez"
        # window is 1+1+1 cycles at 8 samples per cycle, plus the endpoint
        assert len(lines) == 3 * 8 + 2
