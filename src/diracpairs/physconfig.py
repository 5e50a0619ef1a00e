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
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from enum import Enum
from functools import cache
from typing import get_args, get_origin, get_type_hints

from .errors import ValidationError

# Schwinger critical field strength in SI units (V/m).
E_SCHWINGER_V_PER_M = 1.3e18

# Tolerance to which an alpha_minus given on input must match the angle
# that alpha_plus and the helicity relation fix.
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
    helicity_relation: HelicityRelation

    @property
    def alpha_minus(self) -> float:
        """Polarization angle of the -z beam, fixed by the relation."""
        return paired_alpha(self.alpha_plus, self.helicity_relation)

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
    steps_per_cycle: int = 1024                 # even, >= 16
    k0_offset: tuple[float, float, float] = (0.0, 0.0, 0.0)  # subspace origin, m0
    # pair-list floor on |omega_mn|^2 = probability/|C_v|^2; C_v = 0 keeps all
    prune_threshold: float = 1e-6
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


def paired_alpha(alpha: float, relation: HelicityRelation) -> float:
    """The -z beam's polarization angle under ``relation``."""
    return math.pi / 2.0 - alpha if relation is HelicityRelation.SAME else alpha


def field_from_si(e_volts_per_meter: float, omega_in_m0: float,
                  alpha_plus: float,
                  helicity_relation: HelicityRelation) -> FieldParams:
    """Build FieldParams from an SI field strength."""
    if e_volts_per_meter <= 0.0:
        raise ValidationError("field.e_volts_per_meter: must be > 0")
    if omega_in_m0 <= 0.0:
        raise ValidationError("field.omega: must be > 0")
    return FieldParams(
        omega=omega_in_m0,
        e_peak=e_volts_per_meter / E_SCHWINGER_V_PER_M,
        alpha_plus=alpha_plus,
        helicity_relation=HelicityRelation(helicity_relation),
    )


def validation_errors(config: RunConfig) -> list:
    """All violated invariants, as 'path: requirement' strings."""
    bad = []
    f, w, n = config.field, config.window, config.numerics

    if not 0.0 < f.omega < math.inf:
        bad.append("field.omega: must be finite and > 0")
    if not 0.0 <= f.e_peak < math.inf:
        bad.append("field.e_peak: must be finite and >= 0")
    if not 0.0 <= f.alpha_plus <= math.pi / 2.0:
        bad.append("field.alpha_plus: alpha range is [0, pi/2]")

    if w.ramp_cycles < 1:
        bad.append("window.ramp_cycles: must be >= 1")
    if w.plateau_cycles < 0:
        bad.append("window.plateau_cycles: must be >= 0")

    if n.n_cut < 1:
        bad.append("numerics.n_cut: must be >= 1")
    if n.steps_per_cycle < 16:
        bad.append("numerics.steps_per_cycle: must be >= 16")
    if n.steps_per_cycle % 2:
        # the time-reversal fold of ``dynamics`` integrates half a cycle
        bad.append("numerics.steps_per_cycle: must be even")
    if len(n.k0_offset) != 3:
        bad.append("numerics.k0_offset: must be a 3-vector")
    elif not all(map(math.isfinite, n.k0_offset)):
        bad.append("numerics.k0_offset: entries must be finite")
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
# JSON forms.  The dataclasses are the schema: ``_plain`` writes them (and the
# result rows and sweep specs built from them), ``_parse`` reads them back by
# their field annotations.  Keys starting with "_" are ignored (preset
# metadata), other unknown keys are errors.  The field block accepts
# "e_si_v_per_m" in place of "e_peak", "helicity_relation" defaults to
# "same", and "alpha_minus", which alpha_plus and the relation fix, is
# accepted only where it matches them to ANGLE_TOL.
# ---------------------------------------------------------------------------

_KINDS = {int: "an integer in [-2^63, 2^63)", float: "a number",
          str: "a string", bool: "true or false"}
_INT64 = range(-2 ** 63, 2 ** 63)     # an int leaf must fit numpy's int64
_generic = cache(lambda kind: (get_origin(kind), get_args(kind)))


@cache
def _schema(cls) -> dict:
    """Field name -> (resolved annotation, required) of a dataclass."""
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is MISSING
                     and f.default_factory is MISSING) for f in fields(cls)}


def _plain(obj):
    """JSON value of a dataclass tree: enums by value, tuples as lists, dict
    keys as strings, NaN as null."""
    if isinstance(obj, float):
        return None if math.isnan(obj) else obj
    if isinstance(obj, (str, int, type(None))):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_plain(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, Enum):
        return obj.value
    return {k: _plain(getattr(obj, k)) for k in _schema(type(obj))}


def _where(path) -> str:
    """``path``, a string or a (path, key or index) pair, as a string."""
    return path if isinstance(path, str) else _where(path[0]) + (
        f"[{path[1]}]" if isinstance(path[1], int) else f".{path[1]}")


def _field_conveniences(fd: dict, path) -> dict:
    """The field block's shorthands, rewritten to the FieldParams keys; a
    derived alpha_minus is checked against alpha_plus and dropped."""
    fd = {"helicity_relation": "same", **fd}
    if "e_si_v_per_m" in fd:
        e_si = _parse(float, fd.pop("e_si_v_per_m"), (path, "e_si_v_per_m"))
        fd.setdefault("e_peak", e_si / E_SCHWINGER_V_PER_M)
    if "alpha_minus" in fd:
        given = _parse(float, fd.pop("alpha_minus"), (path, "alpha_minus"))
        if "alpha_plus" in fd:
            derived = paired_alpha(
                _parse(float, fd["alpha_plus"], (path, "alpha_plus")),
                _parse(HelicityRelation, fd["helicity_relation"],
                       (path, "helicity_relation")))
            if not abs(given - derived) <= ANGLE_TOL:
                raise ValidationError(f"{_where(path)}.alpha_minus: inconsistent "
                                      "with alpha_plus and helicity_relation")
    return fd


def _parse(kind, value, path):
    """Inverse of ``_plain`` for the annotation ``kind``.

    Raises ValidationError naming ``_where(path)`` for unknown or missing
    keys, wrong JSON types (a bool is not a number, an int is an integral
    int64) and values outside an enum.  null reads as NaN where a float belongs.
    A child's path is a (path, key) pair, made a string only to raise.
    """
    if kind in _KINDS:
        if type(value) is kind and (kind is not int or value in _INT64):
            return value                # the JSON type itself
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if kind is float and value is None:
            return math.nan
        if kind is float and number and (isinstance(value, float)
                                         or abs(value) < 2 ** 1023):
            return float(value)
        if kind is int and number and (isinstance(value, int)
                                       or value.is_integer()) and int(value) in _INT64:
            return int(value)
        if (kind is str or kind is bool) and isinstance(value, kind):
            return value
        raise ValidationError(f"{_where(path)}: must be {_KINDS[kind]}")
    origin, args = _generic(kind)
    if origin is list or origin is tuple:
        if not isinstance(value, list):
            raise ValidationError(f"{_where(path)}: must be a list")
        if origin is tuple and len(value) != len(args):
            raise ValidationError(f"{_where(path)}: must have {len(args)} entries")
        kinds = args if origin is tuple else args * len(value)
        return origin([_parse(t, v, (path, i))
                       for i, (t, v) in enumerate(zip(kinds, value))])
    if is_dataclass(kind):
        if not isinstance(value, dict):
            raise ValidationError(f"{_where(path)}: must be an object")
        if kind is FieldParams:
            value = _field_conveniences(value, path)
        schema = _schema(kind)
        bad = [f"{_where(path)}.{k}: unknown key" for k in value
               if k not in schema and not k.startswith("_")]
        bad += [f"{_where(path)}.{k}: missing required key"
                for k, (_, required) in schema.items()
                if required and k not in value]
        if bad:
            raise ValidationError(bad)
        return kind(**{k: _parse(t, value[k], (path, k))
                       for k, (t, _) in schema.items() if k in value})
    if isinstance(kind, type) and issubclass(kind, Enum):
        try:
            return kind(value)
        except ValueError:
            raise ValidationError(f"{_where(path)}: must be one of "
                                  f"{[m.value for m in kind]}") from None
    key_kind, item_kind = args       # dict
    if not isinstance(value, dict):
        raise ValidationError(f"{_where(path)}: must be an object")
    try:
        keys = [key_kind(k) for k in value]
    except ValueError:
        raise ValidationError(f"{_where(path)}: every key must be "
                              f"{_KINDS[key_kind]}") from None
    return {key: _parse(item_kind, v, (path, k))
            for key, (k, v) in zip(keys, value.items())}


def config_to_dict(config: RunConfig) -> dict:
    return _plain(config)


def config_from_dict(data) -> RunConfig:
    """RunConfig from its JSON form; see the schema notes above."""
    return _parse(RunConfig, data, "config")


def config_hash(config: RunConfig) -> str:
    """Content hash of the canonical JSON form, for caching sweep points."""
    canonical = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def with_plateau(config: RunConfig, plateau_cycles: int) -> RunConfig:
    return replace(config, window=replace(config.window, plateau_cycles=plateau_cycles))
