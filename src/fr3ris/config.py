"""Scenario configuration: the validated scenario type and its file parser.

Every `ScenarioConfig` field is named by its config key, declares the
key's default, unit suffix and range bound (a list key: the type and
bound of its entries), and holds the value in that key's unit, as written
in a file, a flag or `with_updates`; the SI values the package works in
(Hz, watts) are derived properties. `ScenarioConfig.__post_init__` reads
those declarations and holds every rule on a value, so a config built by
`parse_config`, by `with_updates` or directly passes the same checks, and
nothing downstream repeats them. Errors name the config key. The parser
only converts text: config files are flat ``key = value`` lines (``#``
comments allowed), missing keys take the documented defaults, and a
single-valued key's value may carry its unit as a suffix ("p_max_dbm =
23 dBm"). Command-line flags arrive as ``(key, text)`` overrides of the
same keys.
"""

import math
import numbers
from dataclasses import dataclass, field, fields, replace

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


def _key(default, bound=None, unit="", item=None):
    """Field of one config key: its default, the range bound its value must
    meet and the unit suffix its text may carry. A list key names the type
    of its entries as `item` instead, and its bound applies to each entry."""
    return field(default=default,
                 metadata={"bound": bound, "unit": unit, "item": item})


def _check(key, value, kind, bound=None):
    """Raise unless `value` is an integer (kind int) or a real number (kind
    float), a bool being neither, within `bound` if one is given."""
    abc = numbers.Integral if kind is int else numbers.Real
    if not isinstance(value, abc) or isinstance(value, bool):
        noun = "an integer" if kind is int else "a real number"
        raise ConfigError(f"{key}: {value!r} is not {noun}")
    if bound is not None and not _BOUNDS[bound](value):
        raise ConfigError(f"{key}: value {value} out of range, must be {bound}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario in its keys' units, checked on construction."""

    carrier_freq_ghz: float = _key(15.0, "> 0 and finite", "ghz")
    num_antennas: int = _key(64, ">= 1 and finite")
    num_ius: int = _key(5, ">= 1 and finite")
    num_riss: int = _key(3, ">= 0 and finite")
    ris_elements_y: int = _key(100, ">= 1 and finite")
    ris_elements_z: int = _key(100, ">= 1 and finite")
    area_m2: float = _key(100.0, "> 0 and finite", "m2")
    p_max_dbm: float = _key(23.0, _POWER, "dbm")
    noise_density_dbm_hz: float = _key(-174.0, "finite", "dbm/hz")
    noise_figure_db: float = _key(10.0, "finite", "db")
    bandwidth_mhz: float = _key(400.0, "> 0 and finite", "mhz")
    ap_height_m: float = _key(10.0, ">= 0 and finite", "m")
    ris_height_m: float = _key(5.0, ">= 0 and finite", "m")
    iu_height_m: float = _key(1.5, ">= 0 and finite", "m")
    min_ap_iu_separation_m: float = _key(1.0, ">= 0 and finite", "m")
    pathloss_exponent: float = _key(2.0, "> 0 and finite")
    power_rounds: int = _key(2, ">= 1 and finite")
    exhaustive_cap: int = _key(100_000, ">= 1 and finite")
    schemes: tuple = _key(SCHEME_NAMES, item=str)
    realizations: int = _key(200, ">= 1 and finite")
    master_seed: int = _key(42, "in [0, 2^64)")
    power_sweep_dbm: tuple = _key((10.0, 13.0, 16.0, 19.0, 23.0), _POWER,
                                  item=float)
    element_sweep: tuple = _key((100, 625, 2500), item=int)
    # not a field and not settable: perfbench/verify.py reads it to decide
    # whether an SCA trace must be non-decreasing, which it always must
    rho_variant = "derivative"

    def __post_init__(self):
        for f in fields(self):
            key, value = f.name, getattr(self, f.name)
            bound, kind = f.metadata["bound"], f.metadata["item"]
            if kind is None:
                _check(key, value, f.type, bound)
                continue
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{key}: {value!r} is not a list")
            value = tuple(value)
            object.__setattr__(self, key, value)
            if not value:
                raise ConfigError(f"{key}: list needs at least one value")
            if kind is str:
                continue  # scheme names, checked below
            for v in value:
                _check(key, v, kind)
            if any(b <= a for a, b in zip(value, value[1:])):
                raise ConfigError(f"{key}: values must be strictly increasing")
            for v in value:
                _check(key, v, kind, bound)
        for s in self.schemes:
            if s not in SCHEME_NAMES:
                raise ConfigError(
                    f"schemes: {s!r} not one of {', '.join(SCHEME_NAMES)}")
        if len(set(self.schemes)) != len(self.schemes):
            raise ConfigError("schemes: duplicate entries")
        for v in self.element_sweep:
            if v < 1 or math.isqrt(v) ** 2 != v:
                raise ConfigError(f"element_sweep: {v} is not a perfect "
                                  "square >= 1 (the grid is y = z)")
        diagonal = math.sqrt(2.0) * self.area_side_m
        if self.min_ap_iu_separation_m >= diagonal:
            raise ConfigError(
                "min_ap_iu_separation_m: must be below the area diagonal "
                f"({diagonal:.3f} m), got {self.min_ap_iu_separation_m}")
        if not 0.0 < self.noise_power_w < math.inf:
            raise ConfigError(
                "noise_density_dbm_hz, noise_figure_db, bandwidth_mhz: noise "
                f"power {self.noise_power_w} W out of range, must be > 0 and "
                "finite")
        if not math.isfinite(self.carrier_freq_hz):
            raise ConfigError(
                f"carrier_freq_ghz: {self.carrier_freq_ghz} GHz is "
                f"{self.carrier_freq_hz} Hz, must be finite in hertz")

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


_FIELDS = {f.name: f for f in fields(ScenarioConfig)}


def _parse_number(raw, key, cast):
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {cast.__name__}") from None


def _apply_key(out, key, raw):
    """Convert one key's text to its value in `out`; type and range checks
    are left to ScenarioConfig."""
    f = _FIELDS.get(key)
    if f is None:
        raise ConfigError(f"unknown config key: {key}")
    kind = f.metadata["item"]
    if kind is None:
        parts = raw.split()
        if len(parts) == 2 and parts[1].lower() == f.metadata["unit"]:
            raw = parts[0]
        out[key] = _parse_number(raw.strip(), key, f.type)
    else:
        out[key] = tuple(_parse_number(v.strip(), key, kind)
                         for v in raw.split(",") if v.strip())


def parse_config(text, overrides=()):
    """Parse flat key=value text into a ScenarioConfig, then apply the
    (key, text) pairs of `overrides` on top. Empty text gives defaults."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
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
