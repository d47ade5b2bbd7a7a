"""Command-line interface: verbs, overrides, and exit codes."""

import math
import multiprocessing
import os
import signal
import subprocess
import sys

import pytest

from fr3ris import cli, experiment
from fr3ris.config import ScenarioConfig, dbm_to_watt
from fr3ris.errors import ConfigError, NumericError

TINY = """
num_antennas = 4
num_ius = 2
num_riss = 2
ris_elements_y = 2
ris_elements_z = 2
realizations = 2
master_seed = 11
"""


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


def test_validate_config_echoes_resolved_config(capsys):
    assert cli.main(["validate-config"]) == 0
    out = capsys.readouterr().out
    assert "p_max_dbm = 23.0" in out
    assert "# p_max_w = " in out
    assert "master_seed = 42" in out


def test_validate_config_output_is_a_config_file(tiny_cfg, tmp_path, capsys):
    assert cli.main(["validate-config", "--config", tiny_cfg,
                     "--seed", "99"]) == 0
    echoed = capsys.readouterr().out
    again = tmp_path / "echoed.cfg"
    again.write_text(echoed)
    assert cli.main(["validate-config", "--config", str(again)]) == 0
    assert capsys.readouterr().out == echoed


def test_validate_config_applies_overrides(tiny_cfg, capsys):
    code = cli.main(["validate-config", "--config", tiny_cfg,
                     "--seed", "99", "--realizations", "7",
                     "--schemes", "greedy"])
    assert code == 0
    out = capsys.readouterr().out
    assert "master_seed = 99" in out
    assert "realizations = 7" in out
    assert "schemes = greedy" in out


def test_run_with_scheme_filter_emits_one_row_per_scheme(tiny_cfg, tmp_path):
    out = tmp_path / "run.csv"
    code = cli.main(["run", "--config", tiny_cfg, "--out", str(out),
                     "--schemes", "matching,exhaustive"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("sweep_var,")
    assert len(lines) == 3
    assert lines[1].split(",")[2] == "matching"
    assert lines[2].split(",")[2] == "exhaustive"


def test_run_logs_seed_and_version(tiny_cfg, tmp_path, caplog):
    with caplog.at_level("INFO", logger="fr3ris"):
        cli.main(["run", "--config", tiny_cfg, "--out",
                  str(tmp_path / "o.csv")])
    joined = "\n".join(r.getMessage() for r in caplog.records)
    assert "master seed: 11" in joined
    assert "fr3ris" in joined


def test_run_writes_and_runs_the_budget_as_configured(tmp_path, monkeypatch):
    # a budget past 10 decimals is rounded neither in the CSV nor in the run
    dbm = 20.00000000004
    path = tmp_path / "budget.cfg"
    path.write_text(TINY + f"p_max_dbm = {dbm}\n")
    budgets = []
    run_schemes = experiment._run_schemes

    def recording(cfg, index, schemes):
        budgets.append(cfg.p_max_w)
        return run_schemes(cfg, index, schemes)

    monkeypatch.setattr(experiment, "_run_schemes", recording)
    monkeypatch.delenv("FR3_THREADS", raising=False)
    out = tmp_path / "run.csv"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert {row.split(",")[1] for row in rows} == {f"{dbm:.17g}"} != {"20"}
    assert budgets == [dbm_to_watt(dbm)] * 2


def test_sweep_power_values_override(tiny_cfg, tmp_path):
    out = tmp_path / "p.csv"
    code = cli.main(["sweep-power", "--config", tiny_cfg, "--out", str(out),
                     "--values", "0,10", "--schemes", "random"])
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["0", "10"]


def test_sweep_power_takes_negative_points_after_an_equals_sign(tiny_cfg,
                                                                tmp_path):
    # after a space, argparse takes "-10,0" for a flag and exits 2
    out = tmp_path / "p.csv"
    code = cli.main(["sweep-power", "--config", tiny_cfg, "--out", str(out),
                     "--values=-10,0", "--schemes", "random"])
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["-10", "0"]


def test_sweep_elements_values_override(tiny_cfg, tmp_path):
    out = tmp_path / "e.csv"
    code = cli.main(["sweep-elements", "--config", tiny_cfg, "--out", str(out),
                     "--values", "4,16", "--schemes", "matching"])
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["4", "16"]


def test_same_seed_reproduces_bytes_and_new_seed_changes_them(
        tiny_cfg, tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    base = ["run", "--config", tiny_cfg, "--schemes", "greedy"]
    assert cli.main(base + ["--out", str(a)]) == 0
    assert cli.main(base + ["--out", str(b)]) == 0
    assert cli.main(base + ["--out", str(c), "--seed", "12"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_realizations_override_lands_in_csv(tiny_cfg, tmp_path):
    out = tmp_path / "r.csv"
    cli.main(["run", "--config", tiny_cfg, "--out", str(out),
              "--realizations", "3", "--schemes", "random"])
    assert out.read_text().splitlines()[1].rsplit(",", 1)[1] == "3"


def test_unknown_flag_fails_fast():
    with pytest.raises(SystemExit) as err:
        cli.main(["run", "--out", "x.csv", "--bogus", "1"])
    assert err.value.code == 2


def test_unknown_verb_fails_fast():
    with pytest.raises(SystemExit) as err:
        cli.main(["frobnicate"])
    assert err.value.code == 2


def test_run_requires_out():
    with pytest.raises(SystemExit) as err:
        cli.main(["run"])
    assert err.value.code == 2


def test_version_flag():
    with pytest.raises(SystemExit) as err:
        cli.main(["--version"])
    assert err.value.code == 0


def test_bad_config_key_exits_2(tmp_path, caplog):
    path = tmp_path / "bad.cfg"
    for line in ("warp_factor = 9", "rho_variant = derivative"):
        path.write_text(f"num_ius = 2\n{line}\n")
        caplog.clear()
        with caplog.at_level("ERROR", logger="fr3ris"):
            assert cli.main(["validate-config", "--config", str(path)]) == 2
        assert f"unknown config key: {line.split()[0]}" in caplog.text


def test_bad_scheme_name_exits_2(tiny_cfg, tmp_path):
    code = cli.main(["run", "--config", tiny_cfg,
                     "--out", str(tmp_path / "x.csv"),
                     "--schemes", "matching,telepathy"])
    assert code == 2


def test_unparsable_values_exit_2(tiny_cfg, tmp_path):
    code = cli.main(["sweep-power", "--config", tiny_cfg,
                     "--out", str(tmp_path / "x.csv"), "--values", "10,abc"])
    assert code == 2


def test_non_square_element_value_exits_2(tiny_cfg, tmp_path):
    code = cli.main(["sweep-elements", "--config", tiny_cfg,
                     "--out", str(tmp_path / "x.csv"), "--values", "5"])
    assert code == 2


def _exits_2_on_every_verb(line, message, tmp_path, caplog):
    path = tmp_path / "bad.cfg"
    path.write_text(f"{TINY}{line}\n")
    out = tmp_path / "x.csv"
    for verb in ("validate-config", "run", "sweep-power", "sweep-elements"):
        argv = [verb, "--config", str(path)]
        if verb != "validate-config":
            argv += ["--out", str(out)]
        caplog.clear()
        with caplog.at_level("ERROR", logger="fr3ris"):
            assert cli.main(argv) == 2
        assert message in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("key", ["carrier_freq_ghz", "bandwidth_mhz",
                                 "area_m2", "pathloss_exponent"])
def test_infinite_value_exits_2_naming_the_key(key, tmp_path, caplog):
    _exits_2_on_every_verb(f"{key} = inf", f"{key}: value inf out of range",
                           tmp_path, caplog)


@pytest.mark.parametrize("line", ["noise_density_dbm_hz = -3500",
                                  "noise_figure_db = 3500"])
def test_a_noise_power_of_zero_or_inf_exits_2_on_every_verb(line, tmp_path,
                                                             caplog):
    _exits_2_on_every_verb(
        line, "noise_density_dbm_hz, noise_figure_db, bandwidth_mhz: "
        "noise power", tmp_path, caplog)


def test_a_carrier_frequency_infinite_in_hertz_exits_2_on_every_verb(
        tmp_path, caplog):
    _exits_2_on_every_verb("carrier_freq_ghz = 1e300",
                           "carrier_freq_ghz: 1e+300 GHz is inf Hz",
                           tmp_path, caplog)


@pytest.mark.parametrize("line", ["carrier_freq_ghz = 1e200",
                                  "pathloss_exponent = 400"])
def test_a_direct_link_that_underflows_exits_2_on_every_verb(line, tmp_path,
                                                             caplog):
    _exits_2_on_every_verb(
        line, "carrier_freq_ghz, pathloss_exponent, area_m2, ap_height_m, "
        "iu_height_m: path loss 0.0 at the far corner", tmp_path, caplog)


def test_missing_config_file_exits_4(tmp_path):
    code = cli.main(["validate-config", "--config",
                     str(tmp_path / "nope.cfg")])
    assert code == 4


def test_unwritable_output_exits_4_before_sweeping(tiny_cfg, tmp_path,
                                                   monkeypatch, caplog):
    def boom(*_a, **_k):
        raise AssertionError("sweep ran despite unwritable output")

    monkeypatch.setattr(cli, "sweep", boom)
    (tmp_path / "file").write_text("")
    for out, message in ((str(tmp_path), "is a directory"),
                         ("", "names no file"),
                         (os.path.join(tmp_path, "missing", ""),
                          "names no file"),
                         (os.path.join(tmp_path, "file", "x.csv"),
                          "is not writable")):
        caplog.clear()
        with caplog.at_level("ERROR", logger="fr3ris"):
            code = cli.main(["sweep-power", "--config", tiny_cfg,
                             "--out", out])
        assert code == 4
        assert message in caplog.text


def test_failed_run_leaves_no_output_file(tmp_path):
    path = tmp_path / "capped.cfg"
    path.write_text(TINY + "exhaustive_cap = 3\n")
    out = tmp_path / "x.csv"
    code = cli.main(["run", "--config", str(path), "--out", str(out),
                     "--schemes", "exhaustive"])
    assert code == 5
    assert sorted(p.name for p in tmp_path.iterdir()) == ["capped.cfg"]


def test_pooled_failed_run_exits_5_and_leaves_no_output(tmp_path,
                                                        monkeypatch):
    # two forked workers, even on one core: the pool re-raises a worker's
    # SizeError
    monkeypatch.setenv("FR3_THREADS", "2")
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: 2)
    path = tmp_path / "capped.cfg"
    path.write_text(TINY + "exhaustive_cap = 3\n")
    code = cli.main(["run", "--config", str(path),
                     "--out", str(tmp_path / "x.csv"),
                     "--schemes", "exhaustive"])
    assert code == 5
    assert sorted(p.name for p in tmp_path.iterdir()) == ["capped.cfg"]


def test_killed_worker_fails_the_run_and_leaves_no_output(tmp_path,
                                                          monkeypatch):
    parent = os.getpid()
    run = experiment._run_schemes

    def killed_at_1(cfg, index, schemes):
        # only ever in a forked worker: never kill the test process
        if index == 1 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return run(cfg, index, schemes)

    monkeypatch.setattr(experiment, "_run_schemes", killed_at_1)
    monkeypatch.setenv("FR3_THREADS", "2")
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: 2)
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    with pytest.raises(RuntimeError, match="exited with code -9"):
        cli.main(["run", "--config", str(path),
                  "--out", str(tmp_path / "x.csv")])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tiny.cfg"]
    assert multiprocessing.active_children() == []


def test_numeric_error_exits_3(tiny_cfg, tmp_path, monkeypatch):
    def boom(*_a, **_k):
        raise NumericError("synthetic")

    monkeypatch.setattr(cli, "sweep", boom)
    code = cli.main(["run", "--config", tiny_cfg,
                     "--out", str(tmp_path / "x.csv")])
    assert code == 3


def test_module_invocation_via_subprocess(tiny_cfg, tmp_path, cli_env):
    out = tmp_path / "sub.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "fr3ris.cli", "sweep-power",
         "--config", tiny_cfg, "--out", str(out),
         "--values", "10,20", "--schemes", "matching,random"],
        capture_output=True, text=True, env=cli_env)
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2
    assert "master seed: 11" in proc.stderr


# (config key, its text in a file or after the flag, verb, flag, the
#  value with_updates gets)
_BAD_VALUES = [
    ("element_sweep", "0", "sweep-elements", "--values", (0,)),
    ("element_sweep", "-4", "sweep-elements", "--values", (-4,)),
    ("power_sweep_dbm", "nan", "sweep-power", "--values", (math.nan,)),
    ("power_sweep_dbm", "inf", "sweep-power", "--values", (math.inf,)),
    ("power_sweep_dbm", "4000", "sweep-power", "--values", (4000.0,)),
    ("master_seed", "-1", "run", "--seed", -1),
    ("realizations", "0", "run", "--realizations", 0),
]


@pytest.mark.parametrize("key, text, verb, flag, value", _BAD_VALUES,
                         ids=[f"{c[0]}={c[1]}" for c in _BAD_VALUES])
def test_bad_value_rejected_alike_from_file_flag_and_with_updates(
        key, text, verb, flag, value, tmp_path, caplog):
    with pytest.raises(ConfigError, match=key):
        ScenarioConfig().with_updates(**{key: value})
    out = tmp_path / "x.csv"
    in_file = tmp_path / "in_file.cfg"
    in_file.write_text(
        "".join(line + "\n" for line in TINY.splitlines()
                if not line.startswith(key)) + f"{key} = {text}\n")
    valid = tmp_path / "valid.cfg"
    valid.write_text(TINY)
    for argv in (["--config", str(in_file)],
                 ["--config", str(valid), flag, text]):
        caplog.clear()
        with caplog.at_level("ERROR", logger="fr3ris"):
            code = cli.main([verb, "--out", str(out), *argv])
        assert code == 2
        assert key in caplog.text
        assert not out.exists()
