import math
import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fr3ris.config import (ScenarioConfig, dbm_to_watt, format_config,
                           parse_config)
from fr3ris.errors import ConfigError


def watt_to_dbm(watt):
    return 10.0 * math.log10(watt) + 30.0


def test_empty_config_gives_documented_defaults():
    cfg = parse_config("")
    assert cfg.carrier_freq_hz == 15e9
    assert cfg.num_antennas == 64
    assert cfg.num_ius == 5
    assert cfg.ris_elements_y == 100 and cfg.ris_elements_z == 100
    assert cfg.num_elements == 100 * 100
    assert cfg.bandwidth_hz == 400e6
    assert cfg.noise_figure_db == 10.0
    assert cfg.area_m2 == 100.0
    assert cfg.p_max_w == pytest.approx(0.19952623149688797, rel=1e-15)


def test_dbm_conversion_round_trip():
    assert dbm_to_watt(23.0) == pytest.approx(0.1995, rel=1e-3)
    assert dbm_to_watt(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watt(0.0) == pytest.approx(1e-3, rel=1e-12)
    for dbm in (-10.0, 0.0, 17.5, 23.0):
        assert watt_to_dbm(dbm_to_watt(dbm)) == pytest.approx(dbm, abs=1e-12)


def test_value_may_carry_matching_unit_suffix():
    cfg = parse_config("p_max_dbm = 23 dBm\nbandwidth_mhz = 400 MHz")
    assert cfg.p_max_w == pytest.approx(0.1995, rel=1e-3)
    assert cfg.bandwidth_hz == 400e6


def test_noise_power_from_density_bandwidth_figure():
    cfg = parse_config("")
    # -174 dBm/Hz + 10 log10(400e6) + 10 dB = -77.98 dBm
    assert cfg.noise_power_w == pytest.approx(1.592e-11, rel=1e-3)
    dbm = watt_to_dbm(cfg.noise_power_w)
    assert dbm == pytest.approx(-77.98, abs=0.01)


def test_comments_blanks_and_overrides():
    cfg = parse_config("""
        # scenario overrides
        num_ius = 3
        num_riss = 2   # trailing comment
        area_m2 = 25
    """)
    assert cfg.num_ius == 3
    assert cfg.num_riss == 2
    assert cfg.area_side_m == 5.0


def test_unknown_key_is_named_in_error():
    # ScenarioConfig.rho_variant is a class constant, not a key
    for key in ("no_such_key", "rho_variant"):
        with pytest.raises(ConfigError, match=f"unknown config key: {key}"):
            parse_config(f"{key} = derivative")
        with pytest.raises(ConfigError, match=f"unknown config key: {key}"):
            parse_config("", [(key, "derivative")])


def test_out_of_range_values_name_key_and_bounds():
    with pytest.raises(ConfigError, match="num_antennas.*>= 1"):
        parse_config("num_antennas = -4")
    with pytest.raises(ConfigError, match="num_ius"):
        parse_config("num_ius = 0")
    with pytest.raises(ConfigError, match="carrier_freq_ghz.*> 0"):
        parse_config("carrier_freq_ghz = 0")
    with pytest.raises(ConfigError, match="master_seed"):
        parse_config(f"master_seed = {2 ** 64}")


def test_malformed_lines_and_duplicates():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just some words")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("num_ius = 2\nnum_ius = 3")
    with pytest.raises(ConfigError, match="num_ius"):
        parse_config("num_ius = two")


def test_scheme_list_validation():
    cfg = parse_config("schemes = matching, exhaustive")
    assert cfg.schemes == ("matching", "exhaustive")


def test_sweep_lists_must_increase():
    cfg = parse_config("power_sweep_dbm = 0, 5, 10")
    assert cfg.power_sweep_dbm == (0.0, 5.0, 10.0)
    assert parse_config("element_sweep = 4, 16").element_sweep == (4, 16)


_REFUSED_LINES = [
    ("schemes = matching, sorcery", "schemes: 'sorcery' not one of"),
    ("schemes = greedy, greedy", "schemes: duplicate entries"),
    ("schemes = ", "schemes: list needs at least one value"),
    ("power_sweep_dbm = 10, 10",
     "power_sweep_dbm: values must be strictly increasing"),
    ("element_sweep = 100, 300", "element_sweep: 300 is not a perfect square"),
    ("p_max_dbm = nan", "p_max_dbm: value nan out of range"),
    ("p_max_dbm = 4000", "p_max_dbm: value 4000.0 out of range"),
]


@pytest.mark.parametrize("text, match", _REFUSED_LINES,
                         ids=[text for text, _ in _REFUSED_LINES])
def test_parse_config_refuses_naming_the_key(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


def test_separation_must_fit_in_area():
    with pytest.raises(ConfigError, match="min_ap_iu_separation_m"):
        parse_config("area_m2 = 4\nmin_ap_iu_separation_m = 3")


def test_format_config_lists_every_field_and_derived_values():
    text = format_config(ScenarioConfig())
    assert "p_max_dbm = 23.0" in text
    assert "# p_max_w = " in text
    assert "# noise_power_w = " in text
    assert "master_seed = 42" in text
    # the log round-trips through the parser's key set for plain fields
    assert "num_ius = 5" in text
    assert "rho_variant" not in text


def test_overrides_apply_after_the_file_without_tripping_duplicates():
    cfg = parse_config("master_seed = 1\nschemes = greedy",
                       [("master_seed", "2"), ("schemes", "random, matching")])
    assert cfg.master_seed == 2
    assert cfg.schemes == ("random", "matching")
    with pytest.raises(ConfigError, match="realizations"):
        parse_config("", [("realizations", "0")])


_NO_NOISE = ("noise_density_dbm_hz, noise_figure_db, bandwidth_mhz: "
             "noise power ")
_UNDERFLOW = ("carrier_freq_ghz, pathloss_exponent, area_m2, ap_height_m, "
              "iu_height_m: path loss .* at the far corner, 16.500 m from the "
              "AP, out of range")


def test_direct_construction_runs_the_same_checks():
    cfg = ScenarioConfig(schemes=["greedy"], element_sweep=[4, 16])
    assert cfg.schemes == ("greedy",)
    assert cfg.element_sweep == (4, 16)
    for bad, match in ((dict(schemes=("greedy", "greedy")), "duplicate"),
                       (dict(schemes=()), "schemes.*at least one"),
                       (dict(schemes=("oracle",)), "schemes: 'oracle' not"),
                       (dict(num_ius=0), "num_ius: value 0 .* >= 1"),
                       (dict(power_sweep_dbm=()),
                        "power_sweep_dbm: list needs at least one"),
                       (dict(power_sweep_dbm=(10.0, 10.0)),
                        "power_sweep_dbm: values must be strictly increasing"),
                       (dict(element_sweep=(24,)),
                        "element_sweep: 24 is not a perfect square"),
                       (dict(carrier_freq_ghz=0.0), "carrier_freq_ghz.*> 0"),
                       (dict(p_max_dbm=math.nan), "p_max_dbm"),
                       (dict(p_max_dbm=-math.inf), "p_max_dbm"),
                       (dict(p_max_dbm=-5000.0), "p_max_dbm"),
                       (dict(area_m2=4.0, min_ap_iu_separation_m=3.0),
                        "min_ap_iu_separation_m"),
                       # each noise key within its own bound, but not the
                       # noise power in watts they give together
                       (dict(noise_density_dbm_hz=-3500.0),
                        _NO_NOISE + "0.0 W"),
                       (dict(noise_figure_db=3500.0), _NO_NOISE + "inf W"),
                       (dict(bandwidth_mhz=1e-320), _NO_NOISE + "0.0 W"),
                       (dict(bandwidth_mhz=1e303), _NO_NOISE + "inf W"),
                       # finite in GHz, infinite in Hz
                       (dict(carrier_freq_ghz=1e300),
                        r"carrier_freq_ghz: 1e\+300 GHz is inf Hz"),
                       # the direct link to the far corner of the area
                       # underflows
                       (dict(carrier_freq_ghz=1e200), _UNDERFLOW),
                       (dict(pathloss_exponent=400.0), _UNDERFLOW),
                       (dict(carrier_freq_ghz=1e151), _UNDERFLOW)):
        with pytest.raises(ConfigError, match=match):
            ScenarioConfig(**bad)
        with pytest.raises(ConfigError, match=match):
            ScenarioConfig().with_updates(**bad)
    with pytest.raises(TypeError, match="rho_variant"):
        ScenarioConfig().with_updates(rho_variant="derivative")
    # an int stands for a real number
    assert ScenarioConfig(area_m2=25, p_max_dbm=20).p_max_w == 0.1
    # the far-corner rule raises nothing else: a path loss past the float
    # range (pathloss raises OverflowError) and a far corner nearer than
    # pathloss's 1 mm minimum both pass it
    ScenarioConfig(carrier_freq_ghz=1e-300)
    ScenarioConfig(area_m2=1e-8, ap_height_m=1.5, min_ap_iu_separation_m=0.0)


# every key, none at its default
_EVERY_KEY = """
carrier_freq_ghz = 28.3
num_antennas = 16
num_ius = 4
num_riss = 2
ris_elements_y = 8
ris_elements_z = 6
area_m2 = 400
p_max_dbm = 17.35
noise_density_dbm_hz = -173.8
noise_figure_db = 7.5
bandwidth_mhz = 123.4
ap_height_m = 12
ris_height_m = 4.5
iu_height_m = 1.2
min_ap_iu_separation_m = 2.5
pathloss_exponent = 2.7
power_rounds = 3
exhaustive_cap = 5000
schemes = exhaustive, random
realizations = 17
master_seed = 18446744073709551615
power_sweep_dbm = -3.5, 0.1, 27.25
element_sweep = 1, 49, 400
"""


def _keys(text):
    return [line.split("=", 1)[0].strip() for line in text.splitlines()
            if line.strip() and not line.startswith("#")]


@pytest.mark.parametrize("text", ["", _EVERY_KEY], ids=["defaults", "every-key"])
def test_formatted_config_parses_back_to_itself(text):
    cfg = parse_config(text)
    out = format_config(cfg)
    assert parse_config(out) == cfg
    assert sorted(_keys(out)) == sorted(_keys(_EVERY_KEY))


_TYPE_ERRORS = [("num_ius", 2.5), ("master_seed", 1.5), ("realizations", True),
                ("area_m2", "100"), ("p_max_dbm", False),
                ("element_sweep", (100.0,)), ("power_sweep_dbm", ("10",)),
                ("power_sweep_dbm", (10.0, True))]


@pytest.mark.parametrize("key, value", _TYPE_ERRORS,
                         ids=[f"{k}={v!r}" for k, v in _TYPE_ERRORS])
def test_values_of_the_wrong_type_are_refused_naming_the_key(key, value):
    with pytest.raises(ConfigError, match=f"{key}: .* is not an? "):
        ScenarioConfig(**{key: value})
    with pytest.raises(ConfigError, match=f"{key}: .* is not an? "):
        ScenarioConfig().with_updates(**{key: value})


# every real key whose range is bounded on one side only
_UNBOUNDED_ABOVE = ("carrier_freq_ghz", "area_m2", "bandwidth_mhz",
                    "pathloss_exponent", "ap_height_m", "ris_height_m",
                    "iu_height_m", "min_ap_iu_separation_m")
_INFINITE = [(key, value) for key in _UNBOUNDED_ABOVE
             for value in (math.inf, -math.inf)]


@pytest.mark.parametrize("key, value", _INFINITE,
                         ids=[f"{k}={v}" for k, v in _INFINITE])
def test_infinite_values_are_out_of_range_naming_the_key(key, value):
    match = f"{key}: value {value} out of range, must be .* and finite"
    with pytest.raises(ConfigError, match=match):
        ScenarioConfig(**{key: value})
    with pytest.raises(ConfigError, match=match):
        parse_config(f"{key} = {value}")


_NOT_LISTS = [("schemes", "matching"), ("power_sweep_dbm", 10.0),
              ("power_sweep_dbm", "10, 13"), ("element_sweep", 100)]


@pytest.mark.parametrize("key, value", _NOT_LISTS,
                         ids=[f"{k}={v!r}" for k, v in _NOT_LISTS])
def test_list_keys_refuse_a_string_or_a_scalar_naming_the_key(key, value):
    match = f"{key}: {value!r} is not a list"
    with pytest.raises(ConfigError, match=match):
        ScenarioConfig(**{key: value})
    with pytest.raises(ConfigError, match=match):
        ScenarioConfig().with_updates(**{key: value})


# a bandwidth above about 1.8e302 MHz (below about 1e-310 MHz) gives an
# infinite (zero) noise power at the default density and figure, and a
# carrier above about 1e150 GHz a path loss to the far corner of the
# default area below the smallest normal float (2.1e-306 at 1e150 GHz,
# 2.1e-308 at 1e151), which the config refuses
@given(p_max_dbm=st.floats(-3000.0, 3000.0),
       carrier_freq_ghz=st.floats(0.0, 1e150, exclude_min=True),
       bandwidth_mhz=st.floats(1e-300, 1e300))
def test_format_then_parse_gives_back_every_value_exactly(
        p_max_dbm, carrier_freq_ghz, bandwidth_mhz):
    cfg = ScenarioConfig(p_max_dbm=p_max_dbm, carrier_freq_ghz=carrier_freq_ghz,
                         bandwidth_mhz=bandwidth_mhz)
    assert parse_config(format_config(cfg)) == cfg


def test_fields_are_exactly_the_config_keys():
    # each line format_config writes parses alone; every other public name
    # of the class (the derived SI values, the class constant) is an
    # unknown key
    cfg = ScenarioConfig()
    names = {f.name for f in fields(ScenarioConfig)}
    text = format_config(cfg)
    assert set(_keys(text)) == names
    for line in text.splitlines():
        assert parse_config(line) == cfg
    for name in set(dir(ScenarioConfig)) - names:
        if not name.startswith("_"):
            with pytest.raises(ConfigError, match="unknown config key"):
                parse_config(f"{name} = 1")


def test_readme_configuration_table_lists_every_key():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    keys = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            keys.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    assert keys == {f.name for f in fields(ScenarioConfig)}
