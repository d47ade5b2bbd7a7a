"""Scenario configuration: the validated scenario type and its file parser.

Every `ScenarioConfig` field is named by its config key and holds the
value in that key's unit, as written in a file, a flag or `with_updates`;
the SI values the package works in (Hz, watts) are derived properties.
`ScenarioConfig.__post_init__` holds every rule on a value, its type and
its range, so a config built by `parse_config`, by `with_updates` or
directly passes the same checks, and nothing downstream repeats them.
Errors name the config key. The parser only converts text: config files
are flat ``key = value`` lines (``#`` comments allowed), missing keys take
the documented defaults, and a single-valued key's value may carry its
unit as a suffix ("p_max_dbm = 23 dBm"). Command-line flags arrive as
``(key, text)`` overrides of the same keys.
"""

import math
import numbers
from dataclasses import dataclass, fields, replace

from .errors import ConfigError

SCHEME_NAMES = ("matching", "greedy", "random", "exhaustive")


def dbm_to_watt(dbm):
    """Watts of a dBm value; inf beyond the float range."""
    try:
        return 10.0 ** ((float(dbm) - 30.0) / 10.0)
    except OverflowError:
        return math.inf


# bound text -> check on the value in its key's unit; NaN fails every
# comparison, and the strict upper bound inf refuses inf
_POWER = "a positive, finite power in W"
_BOUNDS = {"> 0 and finite": lambda x: 0 < x < math.inf,
           ">= 0 and finite": lambda x: 0 <= x < math.inf,
           ">= 1 and finite": lambda x: 1 <= x < math.inf,
           "finite": math.isfinite,
           "in [0, 2^64)": lambda x: 0 <= x < 2 ** 64,
           _POWER: lambda x: 0.0 < dbm_to_watt(x) < math.inf}

# key: (unit suffix, bound)
_RANGES = {
    "carrier_freq_ghz": ("ghz", "> 0 and finite"),
    "num_antennas": ("", ">= 1 and finite"),
    "num_ius": ("", ">= 1 and finite"),
    "num_riss": ("", ">= 0 and finite"),
    "ris_elements_y": ("", ">= 1 and finite"),
    "ris_elements_z": ("", ">= 1 and finite"),
    "area_m2": ("m2", "> 0 and finite"),
    "p_max_dbm": ("dbm", _POWER),
    "noise_density_dbm_hz": ("dbm/hz", "finite"),
    "noise_figure_db": ("db", "finite"),
    "bandwidth_mhz": ("mhz", "> 0 and finite"),
    "ap_height_m": ("m", ">= 0 and finite"),
    "ris_height_m": ("m", ">= 0 and finite"),
    "iu_height_m": ("m", ">= 0 and finite"),
    "min_ap_iu_separation_m": ("m", ">= 0 and finite"),
    "pathloss_exponent": ("", "> 0 and finite"),
    "power_rounds": ("", ">= 1 and finite"),
    "exhaustive_cap": ("", ">= 1 and finite"),
    "realizations": ("", ">= 1 and finite"),
    "master_seed": ("", "in [0, 2^64)"),
}

# list key: type of its entries
_ITEMS = {"power_sweep_dbm": float, "element_sweep": int}


def _check_type(key, value, kind):
    """Raise unless `value` is an integer (kind int) or a real number (kind
    float); a bool is neither."""
    abc = numbers.Integral if kind is int else numbers.Real
    if not isinstance(value, abc) or isinstance(value, bool):
        noun = "an integer" if kind is int else "a real number"
        raise ConfigError(f"{key}: {value!r} is not {noun}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario in its keys' units, checked on construction."""

    carrier_freq_ghz: float = 15.0
    num_antennas: int = 64
    num_ius: int = 5
    num_riss: int = 3
    ris_elements_y: int = 100
    ris_elements_z: int = 100
    area_m2: float = 100.0
    p_max_dbm: float = 23.0
    noise_density_dbm_hz: float = -174.0
    noise_figure_db: float = 10.0
    bandwidth_mhz: float = 400.0
    ap_height_m: float = 10.0
    ris_height_m: float = 5.0
    iu_height_m: float = 1.5
    min_ap_iu_separation_m: float = 1.0
    pathloss_exponent: float = 2.0
    power_rounds: int = 2
    exhaustive_cap: int = 100_000
    schemes: tuple = SCHEME_NAMES
    realizations: int = 200
    master_seed: int = 42
    power_sweep_dbm: tuple = (10.0, 13.0, 16.0, 19.0, 23.0)
    element_sweep: tuple = (100, 625, 2500)
    # not a field and not settable: perfbench/verify.py reads it to decide
    # whether an SCA trace must be non-decreasing, which it always must
    rho_variant = "derivative"

    def __post_init__(self):
        for key, (_, bound) in _RANGES.items():
            value = getattr(self, key)
            _check_type(key, value, _TYPES[key])
            if not _BOUNDS[bound](value):
                raise ConfigError(
                    f"{key}: value {value} out of range, must be {bound}")
        for key in ("schemes", "power_sweep_dbm", "element_sweep"):
            values = getattr(self, key)
            if not isinstance(values, (list, tuple)):
                raise ConfigError(f"{key}: {values!r} is not a list")
            values = tuple(values)
            object.__setattr__(self, key, values)
            if not values:
                raise ConfigError(f"{key}: list needs at least one value")
        for s in self.schemes:
            if s not in SCHEME_NAMES:
                raise ConfigError(
                    f"schemes: {s!r} not one of {', '.join(SCHEME_NAMES)}")
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigError("schemes: duplicate entries")
        for key, kind in _ITEMS.items():
            values = getattr(self, key)
            for v in values:
                _check_type(key, v, kind)
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ConfigError(f"{key}: values must be strictly increasing")
        for v in self.power_sweep_dbm:
            if not _BOUNDS[_POWER](v):
                raise ConfigError(f"power_sweep_dbm: value {v} out of range, "
                                  f"must be {_POWER}")
        for v in self.element_sweep:
            if v < 1 or math.isqrt(v) ** 2 != v:
                raise ConfigError(f"element_sweep: {v} is not a perfect "
                                  "square >= 1 (the grid is y = z)")
        diagonal = math.sqrt(2.0) * self.area_side_m
        if self.min_ap_iu_separation_m >= diagonal:
            raise ConfigError(
                "min_ap_iu_separation_m: must be below the area diagonal "
                f"({diagonal:.3f} m), got {self.min_ap_iu_separation_m}")

    @property
    def carrier_freq_hz(self):
        return self.carrier_freq_ghz * 1e9

    @property
    def bandwidth_hz(self):
        return self.bandwidth_mhz * 1e6

    @property
    def p_max_w(self):
        return dbm_to_watt(self.p_max_dbm)

    @property
    def num_elements(self):
        return self.ris_elements_y * self.ris_elements_z

    @property
    def area_side_m(self):
        return math.sqrt(self.area_m2)

    @property
    def noise_power_w(self):
        dbm = (self.noise_density_dbm_hz
               + 10.0 * math.log10(self.bandwidth_hz)
               + self.noise_figure_db)
        return dbm_to_watt(dbm)

    def with_updates(self, **kw):
        return replace(self, **kw)


_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def _strip_unit(raw, unit):
    parts = raw.split()
    if len(parts) == 2 and unit and parts[1].lower() == unit:
        return parts[0]
    return raw


def _parse_number(raw, key, cast):
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {cast.__name__}") from None


def _split(raw):
    return [v.strip() for v in raw.split(",") if v.strip()]


def _apply_key(out, key, raw):
    """Convert one key's text to its value in `out`; type and range checks
    are left to ScenarioConfig."""
    raw = raw.strip()
    if key in _RANGES:
        out[key] = _parse_number(_strip_unit(raw, _RANGES[key][0]), key,
                                 _TYPES[key])
    elif key == "schemes":
        out[key] = tuple(_split(raw))
    elif key in _ITEMS:
        out[key] = tuple(_parse_number(v, key, _ITEMS[key])
                         for v in _split(raw))
    else:
        raise ConfigError(f"unknown config key: {key}")


def parse_config(text, overrides=()):
    """Parse flat key=value text into a ScenarioConfig, then apply the
    (key, text) pairs of `overrides` on top. Empty text gives defaults."""
    out = {}
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        _apply_key(out, key, raw)
    for key, raw in overrides:
        _apply_key(out, key, raw)
    return ScenarioConfig(**out)


def load_config(path, overrides=()):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text, overrides)


def format_config(cfg):
    """The config as a config file, for run logs; derived values follow as
    comments. Parsing the text gives back the config."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name} = {value}")
    for name in ("p_max_w", "num_elements", "area_side_m", "noise_power_w"):
        lines.append(f"# {name} = {getattr(cfg, name)}")
    return "\n".join(lines)
