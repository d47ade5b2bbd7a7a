"""Scenario configuration: the validated scenario type and its file parser.

`ScenarioConfig.__post_init__` holds every rule on a scenario value, so a
config built by `parse_config`, by `with_updates` or directly passes the
same checks, and nothing downstream repeats them. Errors name the config
key. The parser only converts text: config files are flat ``key = value``
lines (``#`` comments allowed), missing keys take the documented defaults,
and every value is converted to SI units once, here, so the rest of the
package works in Hz, meters, and linear watts. A value may carry the key's
unit as a suffix ("p_max_dbm = 23 dBm"). Command-line flags arrive as
``(key, text)`` overrides of the same keys.
"""

import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigError

SCHEME_NAMES = ("matching", "greedy", "random", "exhaustive")


def dbm_to_watt(dbm):
    """Watts of a dBm value; inf beyond the float range."""
    try:
        return 10.0 ** ((float(dbm) - 30.0) / 10.0)
    except OverflowError:
        return math.inf


def watt_to_dbm(watt):
    return 10.0 * math.log10(float(watt)) + 30.0


# bound text -> check on the SI value
_BOUNDS = {"> 0": lambda x: x > 0, ">= 0": lambda x: x >= 0,
           ">= 1": lambda x: x >= 1, "finite": math.isfinite,
           "in [0, 2^64)": lambda x: 0 <= x < 2 ** 64}

# field: (config key, unit suffix, scale from the key's unit to SI, bound)
_RANGES = {
    "carrier_freq_hz": ("carrier_freq_ghz", "ghz", 1e9, "> 0"),
    "num_antennas": ("num_antennas", "", 1, ">= 1"),
    "num_ius": ("num_ius", "", 1, ">= 1"),
    "num_riss": ("num_riss", "", 1, ">= 0"),
    "ris_elements_y": ("ris_elements_y", "", 1, ">= 1"),
    "ris_elements_z": ("ris_elements_z", "", 1, ">= 1"),
    "area_m2": ("area_m2", "m2", 1.0, "> 0"),
    "noise_density_dbm_hz": ("noise_density_dbm_hz", "dbm/hz", 1.0, "finite"),
    "noise_figure_db": ("noise_figure_db", "db", 1.0, "finite"),
    "bandwidth_hz": ("bandwidth_mhz", "mhz", 1e6, "> 0"),
    "ap_height_m": ("ap_height_m", "m", 1.0, ">= 0"),
    "ris_height_m": ("ris_height_m", "m", 1.0, ">= 0"),
    "iu_height_m": ("iu_height_m", "m", 1.0, ">= 0"),
    "min_ap_iu_separation_m": ("min_ap_iu_separation_m", "m", 1.0, ">= 0"),
    "pathloss_exponent": ("pathloss_exponent", "", 1.0, "> 0"),
    "power_rounds": ("power_rounds", "", 1, ">= 1"),
    "exhaustive_cap": ("exhaustive_cap", "", 1, ">= 1"),
    "realizations": ("realizations", "", 1, ">= 1"),
    "master_seed": ("master_seed", "", 1, "in [0, 2^64)"),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario in SI units, checked on construction."""

    carrier_freq_hz: float = 15e9
    num_antennas: int = 64
    num_ius: int = 5
    num_riss: int = 3
    ris_elements_y: int = 100
    ris_elements_z: int = 100
    area_m2: float = 100.0
    p_max_w: float = dbm_to_watt(23.0)
    noise_density_dbm_hz: float = -174.0
    noise_figure_db: float = 10.0
    bandwidth_hz: float = 400e6
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
        for field, (key, _, scale, bounds) in _RANGES.items():
            value = getattr(self, field)
            if not _BOUNDS[bounds](value):
                shown = value if scale == 1 else value / scale
                raise ConfigError(
                    f"{key}: value {shown} out of range, must be {bounds}")
        if not 0.0 < self.p_max_w < math.inf:
            raise ConfigError(f"p_max_dbm: budget of {self.p_max_w} W out "
                              "of range, must be positive and finite")
        for key in ("schemes", "power_sweep_dbm", "element_sweep"):
            values = tuple(getattr(self, key))
            object.__setattr__(self, key, values)
            if not values:
                raise ConfigError(f"{key}: list needs at least one value")
        for s in self.schemes:
            if s not in SCHEME_NAMES:
                raise ConfigError(
                    f"schemes: {s!r} not one of {', '.join(SCHEME_NAMES)}")
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigError("schemes: duplicate entries")
        for key in ("power_sweep_dbm", "element_sweep"):
            values = getattr(self, key)
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ConfigError(f"{key}: values must be strictly increasing")
        for v in self.power_sweep_dbm:
            if not 0.0 < dbm_to_watt(v) < math.inf:
                raise ConfigError(f"power_sweep_dbm: {v} is out of range")
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
    def p_max_dbm(self):
        """The budget in dBm, rounded to 10 decimals as it is written out."""
        return round(watt_to_dbm(self.p_max_w), 10)

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
# config key -> (field, unit suffix, scale to SI)
_KEYS = {key: (field, unit, scale)
         for field, (key, unit, scale, _) in _RANGES.items()}


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
    """Convert one key's text to its SI field value in `out`; range checks
    are left to ScenarioConfig."""
    raw = raw.strip()
    if key in _KEYS:
        field, unit, scale = _KEYS[key]
        out[field] = _parse_number(_strip_unit(raw, unit), key,
                                   _TYPES[field]) * scale
    elif key == "p_max_dbm":
        out["p_max_w"] = dbm_to_watt(
            _parse_number(_strip_unit(raw, "dbm"), key, float))
    elif key == "schemes":
        out[key] = tuple(_split(raw))
    elif key == "power_sweep_dbm":
        out[key] = tuple(_parse_number(v, key, float) for v in _split(raw))
    elif key == "element_sweep":
        out[key] = tuple(_parse_number(v, key, int) for v in _split(raw))
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
    """The config as a config file, each key in its file units, for run
    logs; derived values follow as comments. Parsing the text gives back
    the config."""
    lines = []
    for f in fields(cfg):
        key, value = f.name, getattr(cfg, f.name)
        if key in _RANGES:
            key, _, scale, _ = _RANGES[key]
            value = value if scale == 1 else value / scale
        elif key == "p_max_w":
            key, value = "p_max_dbm", cfg.p_max_dbm
        elif isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    for name in ("p_max_w", "num_elements", "area_side_m", "noise_power_w"):
        lines.append(f"# {name} = {getattr(cfg, name)}")
    return "\n".join(lines)
