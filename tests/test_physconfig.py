import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracpairs import (E_SCHWINGER_V_PER_M, FieldParams, HelicityRelation,
                        NumericsParams, RunConfig, ValidationError,
                        WindowParams, config_from_dict, config_to_dict,
                        config_hash, field_from_si, figure_configs,
                        sweep_spec_from_dict, validate, validation_errors, xi)
from diracpairs.cli import AXIS_ALIASES, SweepSpec, _leaves, _point_config


def make_config(**overrides):
    field = overrides.pop("field", field_from_si(
        4.9e17, 0.746, 0.2 * math.pi / 4, HelicityRelation.SAME))
    window = overrides.pop("window", WindowParams(ramp_cycles=2, plateau_cycles=4))
    numerics = overrides.pop("numerics", NumericsParams(n_cut=2))
    assert not overrides
    return RunConfig(field=field, window=window, numerics=numerics)


class TestXi:
    def test_reported_setup_value(self):
        # arithmetic oracle: (E/E_S) / (omega/m0)
        field = field_from_si(4.9e17, 0.746, 0.1, HelicityRelation.SAME)
        expected = (4.9e17 / 1.3e18) / 0.746
        assert xi(field) == pytest.approx(expected, rel=1e-12)
        assert xi(field) == pytest.approx(0.505, abs=5e-4)

    def test_schwinger_field_at_unit_frequency(self):
        field = field_from_si(1.3e18, 1.0, math.pi / 4, HelicityRelation.OPPOSITE)
        assert xi(field) == pytest.approx(1.0, rel=1e-12)

    def test_second_reported_setup(self):
        field = field_from_si(3.1e17, 0.4715, 0.7 * math.pi / 4,
                              HelicityRelation.OPPOSITE)
        expected = (3.1e17 / 1.3e18) / 0.4715
        assert xi(field) == pytest.approx(expected, rel=1e-12)
        assert xi(field) == pytest.approx(0.5058, abs=5e-4)

    def test_homogeneity(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            e_si = rng.uniform(1e16, 1e18)
            omega = rng.uniform(0.1, 2.0)
            c = rng.uniform(0.01, 100.0)
            f1 = field_from_si(e_si, omega, 0.3, HelicityRelation.SAME)
            f2 = field_from_si(c * e_si, c * omega, 0.3, HelicityRelation.SAME)
            assert xi(f2) == pytest.approx(xi(f1), rel=1e-12)


class TestFieldFromSi:
    def test_same_helicity_derives_mirrored_angle(self):
        field = field_from_si(4.9e17, 0.746, 0.2 * math.pi / 4,
                              HelicityRelation.SAME)
        assert field.e_peak == pytest.approx(4.9e17 / 1.3e18, rel=1e-12)
        assert field.alpha_minus == pytest.approx(
            math.pi / 2 - 0.2 * math.pi / 4, rel=1e-12)

    def test_linear_polarization_fixed_point(self):
        for relation in HelicityRelation:
            field = field_from_si(1.3e18, 1.0, math.pi / 4, relation)
            assert field.e_peak == pytest.approx(1.0, rel=1e-12)
            assert field.alpha_minus == pytest.approx(math.pi / 4, rel=1e-12)

    def test_opposite_helicity_keeps_angle(self):
        field = field_from_si(3.1e17, 0.4715, 0.7 * math.pi / 4,
                              HelicityRelation.OPPOSITE)
        assert field.e_peak == pytest.approx(3.1e17 / 1.3e18, rel=1e-12)
        assert field.alpha_minus == pytest.approx(0.7 * math.pi / 4, rel=1e-12)

    def test_si_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            e_si = rng.uniform(1e15, 1e19)
            field = field_from_si(e_si, 1.0, 0.2, HelicityRelation.OPPOSITE)
            assert field.e_peak * E_SCHWINGER_V_PER_M == pytest.approx(
                e_si, rel=1e-12)

    def test_rejects_nonpositive_field(self):
        with pytest.raises(ValidationError):
            field_from_si(0.0, 1.0, 0.1, HelicityRelation.SAME)
        with pytest.raises(ValidationError):
            field_from_si(-1e17, 1.0, 0.1, HelicityRelation.SAME)
        for omega in (0.0, -0.746):
            with pytest.raises(ValidationError,
                               match="^field.omega: must be > 0$"):
                field_from_si(4.9e17, omega, 0.1, HelicityRelation.SAME)


class TestValidate:
    def test_default_config_passes_unchanged(self):
        config = make_config()
        assert validate(config) is config

    def test_n_cut_zero(self):
        config = make_config(numerics=NumericsParams(n_cut=0))
        with pytest.raises(ValidationError, match="n_cut"):
            validate(config)

    def test_alpha_out_of_range(self):
        field = FieldParams(omega=1.0, e_peak=0.1, alpha_plus=2 * math.pi,
                            helicity_relation=HelicityRelation.OPPOSITE)
        config = make_config(field=field)
        errors = validation_errors(config)
        assert any("alpha range" in e for e in errors)

    def test_helicity_consistency(self):
        # alpha_minus is derived; configs written with it (every preset
        # emitted while it was stored) load only where it is consistent
        data = config_to_dict(make_config())
        assert "alpha_minus" not in data["field"]
        inconsistent = (r"^config\.field\.alpha_minus: inconsistent with "
                        r"alpha_plus and helicity_relation$")
        for relation in HelicityRelation:
            data["field"]["helicity_relation"] = relation.value
            expected = config_from_dict(data)
            data["field"]["alpha_minus"] = expected.field.alpha_minus
            assert config_from_dict(data) == expected
            for wrong in (expected.field.alpha_minus + 1e-6, None):
                data["field"]["alpha_minus"] = wrong
                with pytest.raises(ValidationError, match=inconsistent):
                    config_from_dict(data)
            del data["field"]["alpha_minus"]
        assert make_config().field.alpha_minus == pytest.approx(
            math.pi / 2 - 0.2 * math.pi / 4, rel=1e-12)

    def test_sector_cap_is_electron_mode_count(self):
        # n_cut = 4: 18 electron modes, so every sector up to 18 is allowed
        assert validate(make_config(numerics=NumericsParams(
            n_cut=4, n_sector_max=18)))
        errors = validation_errors(make_config(numerics=NumericsParams(
            n_cut=1, n_sector_max=7)))
        assert errors == ["numerics.n_sector_max: must be in [1, 6] "
                          "(the electron mode count 2(2 n_cut + 1))"]
        assert not validation_errors(make_config(numerics=NumericsParams(
            n_cut=1, n_sector_max=6)))

    def test_step_count_is_bounded(self):
        # ramp 2: a run integrates at most 5 cycles of steps, 2^26 in all,
        # whatever its plateau, which is composed
        def steps(spc, plateau=4):
            return validation_errors(make_config(
                window=WindowParams(ramp_cycles=2, plateau_cycles=plateau),
                numerics=NumericsParams(n_cut=2, steps_per_cycle=spc)))
        assert not steps(2 ** 26 // 5) and not steps(64, plateau=2 ** 62)
        assert steps(2 ** 26 // 5 + 2) == [
            "numerics.steps_per_cycle: times 2 window.ramp_cycles + 1 must "
            "be <= 2^26"]

    def test_n_cut_is_bounded(self):
        # n_cut 64 is d = 516 modes; n_cut 100000 asked for 9.3 TiB
        assert not validation_errors(make_config(numerics=NumericsParams(
            n_cut=64)))
        for n_cut in (0, 65, 100000):
            assert validation_errors(make_config(numerics=NumericsParams(
                n_cut=n_cut, n_sector_max=1))) == [
                "numerics.n_cut: must be in [1, 64]"]

    def test_k0_offset_built_in_python_is_a_3_vector(self):
        # the JSON schema fixes its length; a NumericsParams built in Python
        # does not
        for k0 in ((0.0, 0.0), (0.0, 0.0, 0.0, 0.0)):
            assert validation_errors(make_config(numerics=NumericsParams(
                n_cut=2, k0_offset=k0))) == [
                "numerics.k0_offset: must be a 3-vector"]

    def test_validate_names_the_input_path(self):
        # validation_errors keeps its paths relative; validate puts them
        # under the config's place in the input
        config = make_config(numerics=NumericsParams(n_cut=2,
                                                     steps_per_cycle=65))
        relative = "numerics.steps_per_cycle: must be even"
        assert validation_errors(config) == [relative]
        for path in ("config", "spec.base", "spec.values[3]"):
            with pytest.raises(ValidationError) as info:
                validate(config, path)
            assert info.value.violations == [f"{path}.{relative}"]
        with pytest.raises(ValidationError, match=f"^config.{relative}$"):
            validate(config)

    def test_violations_aggregate_with_paths(self):
        config = make_config(
            window=WindowParams(ramp_cycles=0, plateau_cycles=-1),
            numerics=NumericsParams(n_cut=0, steps_per_cycle=4))
        errors = validation_errors(config)
        assert len(errors) >= 4
        assert all(":" in e for e in errors)


class TestJsonConfig:
    def test_round_trip(self):
        config = make_config()
        again = config_from_dict(json.loads(json.dumps(config_to_dict(config))))
        assert again == config
        assert config_hash(again) == config_hash(config)

    def test_preset_hashes_are_pinned(self):
        # cache keys and run_<hash> file names must not drift
        presets = figure_configs()
        assert config_hash(presets["fig2"][0]) == "ebf1a740cb03f7ab"
        assert config_hash(presets["fig4"][0]) == "6c9a7cafdbd8c093"

    def test_si_field_input(self):
        text = """
        {"field": {"omega": 0.746, "e_si_v_per_m": 4.9e17,
                   "alpha_plus": 0.15707963267948966,
                   "helicity_relation": "same"},
         "window": {"ramp_cycles": 2, "plateau_cycles": 4},
         "numerics": {"n_cut": 2}}
        """
        config = config_from_dict(json.loads(text))
        assert config.field.e_peak == pytest.approx(4.9e17 / E_SCHWINGER_V_PER_M)
        assert config.field.alpha_minus == pytest.approx(
            math.pi / 2 - 0.15707963267948966)
        validate(config)

    def test_missing_key_reports_path(self):
        with pytest.raises(ValidationError, match="config.window: missing required key"):
            config_from_dict({"field": {}})


# Arbitrary JSON, including what Python's json module reads beyond the
# standard (NaN, +-Infinity) and integers past the float range.
JSON_LEAVES = (st.none() | st.booleans() | st.integers()
               | st.floats(allow_nan=True, allow_infinity=True)
               | st.text(max_size=6))
JSON_VALUES = st.recursive(
    JSON_LEAVES, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4), max_leaves=12)
FIG2 = config_to_dict(figure_configs()["fig2"][0])
FIG2_LEAVES = {path: node[key] for path, node, key in _leaves(FIG2)}


def _containers(node, path=()):
    """Paths of every object and list in ``node``, itself included."""
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in children:
        if isinstance(child, (dict, list)):
            yield from _containers(child, path + (key,))


@st.composite
def mutated_fig2(draw):
    """The fig2 preset with one key dropped or added, or one leaf replaced."""
    data = copy.deepcopy(FIG2)
    parent = data
    for key in draw(st.sampled_from(list(_containers(data)))):
        parent = parent[key]
    keys = list(parent) if isinstance(parent, dict) else range(len(parent))
    action = draw(st.sampled_from(["drop", "add", "replace"]))
    if action == "add" or not keys:
        if isinstance(parent, dict):
            parent[draw(st.text(max_size=6))] = draw(JSON_VALUES)
        else:
            parent.append(draw(JSON_VALUES))
    elif action == "drop":
        del parent[draw(st.sampled_from(list(keys)))]
    else:
        parent[draw(st.sampled_from(list(keys)))] = draw(JSON_VALUES)
    return data


class TestStrictInput:
    """Any JSON input is accepted or refused with a ValidationError."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(JSON_VALUES, mutated_fig2()))
    def test_config_from_any_json(self, data):
        try:
            config = validate(config_from_dict(data))
        except ValidationError as exc:
            assert all(":" in v for v in exc.violations)
            return
        # an accepted config holds no NaN, so it round-trips exactly
        assert config_from_dict(json.loads(json.dumps(config_to_dict(config)))) \
            == config

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(JSON_VALUES, st.fixed_dictionaries(
        {"base": mutated_fig2(),
         "sweep_axis": st.sampled_from(["plateau_cycles", "k0_z"]) | JSON_VALUES,
         "values": st.lists(st.floats() | st.integers()) | JSON_VALUES},
        optional={"emit": JSON_VALUES, "outputs": JSON_VALUES})))
    def test_sweep_spec_from_any_json(self, data):
        try:
            sweep_spec_from_dict(data)
        except ValidationError as exc:
            assert all(":" in v for v in exc.violations)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(FIG2_LEAVES) + sorted(AXIS_ALIASES))
           | st.text(max_size=24)
           | st.builds(".".join, st.lists(st.sampled_from(
               ["field", "window", "numerics", "k0_offset", "e_peak", "0",
                "2", "3", "-1", "01", ""]) | st.text(max_size=4),
               max_size=4)),
           st.floats() | st.integers())
    def test_sweep_point_on_any_axis(self, axis, value):
        spec = SweepSpec(base=config_from_dict(FIG2), sweep_axis=axis,
                         values=[value])
        try:
            point = _point_config(spec, 0)
        except ValidationError as exc:
            assert all(":" in v for v in exc.violations)
            return
        # the point differs from the base in the one leaf the axis names
        leaf = AXIS_ALIASES.get(axis, axis)
        assert leaf in FIG2_LEAVES
        got = {path: node[key] for path, node, key
               in _leaves(config_to_dict(point))}
        assert {p: v for p, v in got.items() if p != leaf} == \
            {p: v for p, v in FIG2_LEAVES.items() if p != leaf}
