"""Physical units, parameter conversions, and the validated run configuration.

Natural units with hbar = c = m0 = 1 are used throughout the package:
energies and frequencies in units of the electron rest energy, times in
1/m0, momenta in m0, and field strengths stored as fractions of the
Schwinger critical field E_S.  External inputs accept the field strength
in V/m and convert once, here.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from enum import Enum

from .errors import ValidationError

# Schwinger critical field strength in SI units (V/m).
E_SCHWINGER_V_PER_M = 1.3e18

# Tolerance for the consistency between stored polarization angles and the
# declared helicity relation.
ANGLE_TOL = 1e-12


class HelicityRelation(Enum):
    """How the two beams' polarization angles are tied together.

    Both beams share the same degree of ellipticity, which leaves two
    choices: equal angles give beams of opposite helicity, mirrored angles
    (alpha_plus = pi/2 - alpha_minus) give beams of the same helicity.
    """

    SAME = "same"
    OPPOSITE = "opposite"


@dataclass(frozen=True)
class FieldParams:
    """Two counterpropagating elliptically polarized plane waves."""

    omega: float                        # angular frequency, units of m0
    e_peak: float                       # peak field strength, fraction of E_S
    alpha_plus: float                   # polarization angle of the +z beam
    alpha_minus: float                  # polarization angle of the -z beam
    helicity_relation: HelicityRelation

    @property
    def wavenumber(self) -> float:
        # light-like waves: |k| = omega in natural units
        return self.omega

    @property
    def cycle_duration(self) -> float:
        """One laser period in natural time units."""
        return 2.0 * math.pi / self.omega


@dataclass(frozen=True)
class WindowParams:
    """sin^2 turn-on/off of ``ramp_cycles`` around a flat plateau."""

    ramp_cycles: int
    plateau_cycles: int

    @property
    def total_cycles(self) -> int:
        return 2 * self.ramp_cycles + self.plateau_cycles


@dataclass(frozen=True)
class NumericsParams:
    """Truncation, integrator, and readout controls."""

    n_cut: int                                  # momentum modes n in [-n_cut, n_cut]
    steps_per_cycle: int = 1024
    k0_offset: tuple = (0.0, 0.0, 0.0)          # subspace momentum origin, units of m0
    prune_threshold: float = 1e-6               # minimum |omega_mn|^2 in the pair list
    n_sector_max: int = 4                       # largest reported pair number


@dataclass(frozen=True)
class RunConfig:
    field: FieldParams
    window: WindowParams
    numerics: NumericsParams


def xi(field: FieldParams) -> float:
    """Classical nonlinearity parameter.

    With the peak field as a fraction of E_S and omega in units of m0 this
    is simply their ratio.
    """
    return field.e_peak / field.omega


def field_from_si(e_volts_per_meter: float, omega_in_m0: float,
                  alpha_plus: float,
                  helicity_relation: HelicityRelation) -> FieldParams:
    """Build FieldParams from an SI field strength; derives alpha_minus."""
    if e_volts_per_meter <= 0.0:
        raise ValidationError("field.e_volts_per_meter: must be > 0")
    if omega_in_m0 <= 0.0:
        raise ValidationError("field.omega: must be > 0")
    relation = HelicityRelation(helicity_relation)
    if relation is HelicityRelation.SAME:
        alpha_minus = math.pi / 2.0 - alpha_plus
    else:
        alpha_minus = alpha_plus
    return FieldParams(
        omega=omega_in_m0,
        e_peak=e_volts_per_meter / E_SCHWINGER_V_PER_M,
        alpha_plus=alpha_plus,
        alpha_minus=alpha_minus,
        helicity_relation=relation,
    )


def e_peak_to_si(field: FieldParams) -> float:
    """Peak field strength back in V/m."""
    return field.e_peak * E_SCHWINGER_V_PER_M


def validation_errors(config: RunConfig) -> list:
    """All violated invariants, as 'path: requirement' strings."""
    bad = []
    f, w, n = config.field, config.window, config.numerics

    if not f.omega > 0.0:
        bad.append("field.omega: must be > 0")
    if not f.e_peak >= 0.0:
        bad.append("field.e_peak: must be >= 0")
    for name, alpha in (("alpha_plus", f.alpha_plus), ("alpha_minus", f.alpha_minus)):
        if not 0.0 <= alpha <= math.pi / 2.0:
            bad.append(f"field.{name}: alpha range is [0, pi/2]")
    if f.helicity_relation is HelicityRelation.SAME:
        expected = math.pi / 2.0 - f.alpha_minus
    else:
        expected = f.alpha_minus
    if abs(f.alpha_plus - expected) > ANGLE_TOL:
        bad.append("field.helicity_relation: inconsistent with stored angles")

    if w.ramp_cycles < 1:
        bad.append("window.ramp_cycles: must be >= 1")
    if w.plateau_cycles < 0:
        bad.append("window.plateau_cycles: must be >= 0")

    if n.n_cut < 1:
        bad.append("numerics.n_cut: must be >= 1")
    if n.steps_per_cycle < 16:
        bad.append("numerics.steps_per_cycle: must be >= 16")
    if len(n.k0_offset) != 3:
        bad.append("numerics.k0_offset: must be a 3-vector")
    if not 0.0 <= n.prune_threshold < 1.0:
        bad.append("numerics.prune_threshold: must be in [0, 1)")
    n_electron_modes = 2 * (2 * n.n_cut + 1)
    if not 1 <= n.n_sector_max <= n_electron_modes:
        bad.append(f"numerics.n_sector_max: must be in [1, {n_electron_modes}]"
                   " (the electron mode count 2(2 n_cut + 1))")
    return bad


def validate(config: RunConfig) -> RunConfig:
    """Return the config unchanged if all invariants hold, else raise.

    The raised ValidationError carries the full list of violations.
    """
    bad = validation_errors(config)
    if bad:
        raise ValidationError(bad)
    return config


# ---------------------------------------------------------------------------
# JSON config files.  Top-level keys "field", "window", "numerics" mirror the
# dataclasses; keys starting with "_" are ignored (used for preset metadata).
# The field block accepts either "e_peak" (fraction of E_S) or
# "e_si_v_per_m"; "alpha_minus" may be omitted and is derived from the
# helicity relation.
# ---------------------------------------------------------------------------

def config_to_dict(config: RunConfig) -> dict:
    f, w, n = config.field, config.window, config.numerics
    return {
        "field": {
            "omega": f.omega,
            "e_peak": f.e_peak,
            "alpha_plus": f.alpha_plus,
            "alpha_minus": f.alpha_minus,
            "helicity_relation": f.helicity_relation.value,
        },
        "window": {
            "ramp_cycles": w.ramp_cycles,
            "plateau_cycles": w.plateau_cycles,
        },
        "numerics": {
            "n_cut": n.n_cut,
            "steps_per_cycle": n.steps_per_cycle,
            "k0_offset": list(n.k0_offset),
            "prune_threshold": n.prune_threshold,
            "n_sector_max": n.n_sector_max,
        },
    }


def config_from_dict(data: dict) -> RunConfig:
    try:
        fd = data["field"]
        wd = data["window"]
        nd = data["numerics"]
    except KeyError as exc:
        raise ValidationError(f"config: missing top-level key {exc}") from exc

    relation = HelicityRelation(fd.get("helicity_relation", "same"))
    if "e_peak" in fd:
        e_peak = float(fd["e_peak"])
    elif "e_si_v_per_m" in fd:
        e_peak = float(fd["e_si_v_per_m"]) / E_SCHWINGER_V_PER_M
    else:
        raise ValidationError("field: need one of e_peak, e_si_v_per_m")
    alpha_plus = float(fd["alpha_plus"])
    if "alpha_minus" in fd:
        alpha_minus = float(fd["alpha_minus"])
    elif relation is HelicityRelation.SAME:
        alpha_minus = math.pi / 2.0 - alpha_plus
    else:
        alpha_minus = alpha_plus

    field = FieldParams(
        omega=float(fd["omega"]),
        e_peak=e_peak,
        alpha_plus=alpha_plus,
        alpha_minus=alpha_minus,
        helicity_relation=relation,
    )
    window = WindowParams(
        ramp_cycles=int(wd["ramp_cycles"]),
        plateau_cycles=int(wd["plateau_cycles"]),
    )
    defaults = NumericsParams(n_cut=1)
    numerics = NumericsParams(
        n_cut=int(nd["n_cut"]),
        steps_per_cycle=int(nd.get("steps_per_cycle", defaults.steps_per_cycle)),
        k0_offset=tuple(float(x) for x in nd.get("k0_offset", defaults.k0_offset)),
        prune_threshold=float(nd.get("prune_threshold", defaults.prune_threshold)),
        n_sector_max=int(nd.get("n_sector_max", defaults.n_sector_max)),
    )
    return RunConfig(field=field, window=window, numerics=numerics)


def config_to_json(config: RunConfig, extra: dict | None = None) -> str:
    data = config_to_dict(config)
    if extra:
        data.update(extra)
    return json.dumps(data, indent=2, sort_keys=True)


def config_from_json(text: str) -> RunConfig:
    return config_from_dict(json.loads(text))


def config_hash(config: RunConfig) -> str:
    """Content hash of the canonical JSON form, for caching sweep points."""
    canonical = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def with_plateau(config: RunConfig, plateau_cycles: int) -> RunConfig:
    return replace(config, window=replace(config.window, plateau_cycles=plateau_cycles))
