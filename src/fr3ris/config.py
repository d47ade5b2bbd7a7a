"""Scenario configuration: flat key=value parsing, defaults, unit conversion.

Config files are flat ``key = value`` lines (``#`` comments allowed). Missing
keys take the documented defaults; every value is converted to SI units once,
here, so the rest of the package works in Hz, meters, and linear watts.
A value may carry the key's unit as a suffix ("p_max_dbm = 23 dBm").
"""

import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigError

SCHEME_NAMES = ("matching", "greedy", "random", "exhaustive")
RHO_VARIANTS = ("derivative", "log-denominator")

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def dbm_to_watt(dbm):
    return 10.0 ** ((float(dbm) - 30.0) / 10.0)


def watt_to_dbm(watt):
    return 10.0 * math.log10(float(watt)) + 30.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario in SI units."""

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
    inner_tol: float = 1e-8
    inner_max_iter: int = 500
    outer_tol: float = 1e-6
    outer_max_iter: int = 50
    rho_variant: str = "derivative"
    power_rounds: int = 2
    greedy_multi_round: bool = False
    exhaustive_cap: int = 100_000
    schemes: tuple = SCHEME_NAMES
    realizations: int = 200
    master_seed: int = 42
    power_sweep_dbm: tuple = (10.0, 13.0, 16.0, 19.0, 23.0)
    element_sweep: tuple = (100, 625, 2500)

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


# key -> (target field or None, converter, unit suffix, validator, bound text)
def _positive(x):
    return x > 0


def _nonneg(x):
    return x >= 0


def _at_least_1(x):
    return x >= 1


_INT_KEYS = {
    "num_antennas": (_at_least_1, ">= 1"),
    "num_ius": (_at_least_1, ">= 1"),
    "num_riss": (_nonneg, ">= 0"),
    "ris_elements_y": (_at_least_1, ">= 1"),
    "ris_elements_z": (_at_least_1, ">= 1"),
    "inner_max_iter": (_at_least_1, ">= 1"),
    "outer_max_iter": (_at_least_1, ">= 1"),
    "power_rounds": (_at_least_1, ">= 1"),
    "exhaustive_cap": (_at_least_1, ">= 1"),
    "realizations": (_at_least_1, ">= 1"),
    "master_seed": (lambda x: 0 <= x < 2 ** 64, "in [0, 2^64)"),
}

_FLOAT_KEYS = {
    # key: (field, unit suffix, scale to SI, validator, bound text)
    "carrier_freq_ghz": ("carrier_freq_hz", "ghz", 1e9, _positive, "> 0"),
    "area_m2": ("area_m2", "m2", 1.0, _positive, "> 0"),
    "noise_density_dbm_hz": ("noise_density_dbm_hz", "dbm/hz", 1.0,
                             math.isfinite, "finite"),
    "noise_figure_db": ("noise_figure_db", "db", 1.0, math.isfinite, "finite"),
    "bandwidth_mhz": ("bandwidth_hz", "mhz", 1e6, _positive, "> 0"),
    "ap_height_m": ("ap_height_m", "m", 1.0, _nonneg, ">= 0"),
    "ris_height_m": ("ris_height_m", "m", 1.0, _nonneg, ">= 0"),
    "iu_height_m": ("iu_height_m", "m", 1.0, _nonneg, ">= 0"),
    "min_ap_iu_separation_m": ("min_ap_iu_separation_m", "m", 1.0,
                               _nonneg, ">= 0"),
    "pathloss_exponent": ("pathloss_exponent", "", 1.0, _positive, "> 0"),
    "inner_tol": ("inner_tol", "", 1.0, _positive, "> 0"),
    "outer_tol": ("outer_tol", "", 1.0, _positive, "> 0"),
}


def _strip_unit(raw, key, unit):
    parts = raw.split()
    if len(parts) == 2 and unit and parts[1].lower() == unit:
        return parts[0]
    return raw


def _parse_number(raw, key, cast):
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {cast.__name__}") from None


def _parse_bool(raw, key):
    low = raw.strip().lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ConfigError(f"{key}: cannot parse {raw!r} as a boolean")


def parse_schemes(raw, label):
    """Comma list of distinct scheme names; `label` prefixes errors."""
    names = tuple(s.strip() for s in raw.split(",") if s.strip())
    if not names:
        raise ConfigError(f"{label}: list must not be empty")
    for s in names:
        if s not in SCHEME_NAMES:
            raise ConfigError(
                f"{label}: {s!r} not one of {', '.join(SCHEME_NAMES)}")
    if len(set(names)) != len(names):
        raise ConfigError(f"{label}: duplicate entries")
    return names


def _apply_key(out, key, raw):
    raw = raw.strip()
    if key in _INT_KEYS:
        check, bounds = _INT_KEYS[key]
        val = _parse_number(raw, key, int)
        if not check(val):
            raise ConfigError(f"{key}: value {val} out of range, must be {bounds}")
        out[key] = val
    elif key in _FLOAT_KEYS:
        field, unit, scale, check, bounds = _FLOAT_KEYS[key]
        val = _parse_number(_strip_unit(raw, key, unit), key, float)
        if not check(val):
            raise ConfigError(f"{key}: value {val} out of range, must be {bounds}")
        out[field] = val * scale
    elif key == "p_max_dbm":
        val = _parse_number(_strip_unit(raw, key, "dbm"), key, float)
        if not math.isfinite(val):
            raise ConfigError(f"{key}: value {val} out of range, must be finite")
        out["p_max_w"] = dbm_to_watt(val)
    elif key == "rho_variant":
        if raw not in RHO_VARIANTS:
            raise ConfigError(
                f"rho_variant: {raw!r} not one of {', '.join(RHO_VARIANTS)}")
        out[key] = raw
    elif key == "greedy_multi_round":
        out[key] = _parse_bool(raw, key)
    elif key == "schemes":
        out[key] = parse_schemes(raw, key)
    elif key == "power_sweep_dbm":
        vals = tuple(_parse_number(v.strip(), key, float)
                     for v in raw.split(",") if v.strip())
        if not vals:
            raise ConfigError("power_sweep_dbm: list must not be empty")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ConfigError("power_sweep_dbm: values must be strictly increasing")
        out[key] = vals
    elif key == "element_sweep":
        vals = tuple(_parse_number(v.strip(), key, int)
                     for v in raw.split(",") if v.strip())
        if not vals:
            raise ConfigError("element_sweep: list must not be empty")
        if any(v < 1 for v in vals):
            raise ConfigError("element_sweep: values must be >= 1")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ConfigError("element_sweep: values must be strictly increasing")
        for v in vals:
            side = math.isqrt(v)
            if side * side != v:
                raise ConfigError(
                    f"element_sweep: {v} is not a perfect square (grid is y=z)")
        out[key] = vals
    else:
        raise ConfigError(f"unknown config key: {key}")


def _cross_validate(cfg):
    if cfg.min_ap_iu_separation_m >= math.sqrt(2.0) * cfg.area_side_m:
        raise ConfigError(
            "min_ap_iu_separation_m: must be below the area diagonal "
            f"({math.sqrt(2.0) * cfg.area_side_m:.3f} m), "
            f"got {cfg.min_ap_iu_separation_m}")
    return cfg


def parse_config(text):
    """Parse flat key=value text into a ScenarioConfig. Empty text gives defaults."""
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
    return _cross_validate(ScenarioConfig(**out))


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)


def format_config(cfg):
    """One key per line, resolved SI values, for run logs."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            parts = [v if isinstance(v, str) else repr(v) for v in value]
            lines.append(f"{f.name} = {','.join(parts)}")
        elif isinstance(value, str):
            lines.append(f"{f.name} = {value}")
        else:
            lines.append(f"{f.name} = {value!r}")
    lines.append(f"num_elements = {cfg.num_elements}")
    lines.append(f"area_side_m = {cfg.area_side_m!r}")
    lines.append(f"noise_power_w = {cfg.noise_power_w!r}")
    return "\n".join(lines)
