import math

import numpy as np
import pytest

from diracpairs import (E_SCHWINGER_V_PER_M, FieldParams, HelicityRelation,
                        NumericsParams, RunConfig, ValidationError,
                        WindowParams, config_from_json, config_to_json,
                        config_hash, e_peak_to_si, field_from_si, validate,
                        validation_errors, xi)


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
            assert e_peak_to_si(field) == pytest.approx(e_si, rel=1e-12)

    def test_rejects_nonpositive_field(self):
        with pytest.raises(ValidationError):
            field_from_si(0.0, 1.0, 0.1, HelicityRelation.SAME)
        with pytest.raises(ValidationError):
            field_from_si(-1e17, 1.0, 0.1, HelicityRelation.SAME)


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
                            alpha_minus=2 * math.pi,
                            helicity_relation=HelicityRelation.OPPOSITE)
        config = make_config(field=field)
        errors = validation_errors(config)
        assert any("alpha range" in e for e in errors)

    def test_helicity_consistency(self):
        field = FieldParams(omega=1.0, e_peak=0.1, alpha_plus=0.3,
                            alpha_minus=0.3 + 1e-6,
                            helicity_relation=HelicityRelation.OPPOSITE)
        errors = validation_errors(make_config(field=field))
        assert any("helicity_relation" in e for e in errors)

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
        again = config_from_json(config_to_json(config))
        assert again == config
        assert config_hash(again) == config_hash(config)

    def test_si_field_input(self):
        text = """
        {"field": {"omega": 0.746, "e_si_v_per_m": 4.9e17,
                   "alpha_plus": 0.15707963267948966,
                   "helicity_relation": "same"},
         "window": {"ramp_cycles": 2, "plateau_cycles": 4},
         "numerics": {"n_cut": 2}}
        """
        config = config_from_json(text)
        assert config.field.e_peak == pytest.approx(4.9e17 / E_SCHWINGER_V_PER_M)
        assert config.field.alpha_minus == pytest.approx(
            math.pi / 2 - 0.15707963267948966)
        validate(config)

    def test_missing_key_reports_path(self):
        with pytest.raises(ValidationError):
            config_from_json('{"field": {}}')
