import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from fr3ris import _kernels, experiment
from fr3ris.config import ScenarioConfig
from fr3ris.errors import ConfigError
from fr3ris.experiment import (SweepResult, emit_csv, format_csv,
                               resolve_workers, sweep, _run_schemes)


def _cfg(**kw):
    base = dict(num_antennas=8, num_ius=3, num_riss=3, ris_elements_y=5,
                ris_elements_z=5, realizations=3, master_seed=7)
    base.update(kw)
    return ScenarioConfig(**base)


def _rate(cfg, scheme, index):
    return _run_schemes(cfg, index, (scheme,))[scheme]


def test_run_realization_is_deterministic():
    cfg = _cfg()
    a = _rate(cfg, "matching", 11)
    b = _rate(cfg, "matching", 11)
    assert a == b
    assert _rate(cfg, "matching", 12) != a


def test_scheme_rate_independent_of_scheme_set():
    cfg = _cfg()
    alone = _rate(cfg, "greedy", 4)
    together = _run_schemes(cfg, 4, ("matching", "greedy", "random",
                                     "exhaustive"))
    assert together["greedy"] == alone
    assert _run_schemes(cfg, 4, ("random",))["random"] == \
        _run_schemes(cfg, 4, ("exhaustive", "random"))["random"]


def test_exhaustive_dominates_every_scheme_at_shared_power():
    cfg = _cfg(power_rounds=1)
    for index in range(6):
        rates = _run_schemes(cfg, index,
                             ("matching", "greedy", "random", "exhaustive"))
        for name in ("matching", "greedy", "random"):
            assert rates["exhaustive"] >= rates[name] - 1e-12


def test_all_schemes_coincide_without_riss():
    cfg = _cfg(num_riss=0)
    rates = _run_schemes(cfg, 0, ("matching", "greedy", "random",
                                  "exhaustive"))
    vals = list(rates.values())
    assert max(vals) - min(vals) <= 1e-12


def test_sweep_single_point_single_realization():
    cfg = _cfg(realizations=1, schemes=("matching", "greedy"),
               power_sweep_dbm=(17.0,))
    res = sweep(cfg, "power")
    assert res.mean.shape == (1, 2)
    assert np.all(res.stderr == 0.0)
    assert res.realizations == 1
    assert res.values == (17.0,)


def test_sweep_value_validation():
    with pytest.raises(ConfigError, match="sweep variable"):
        sweep(_cfg(realizations=1), "bandwidth")


def test_more_power_helps():
    cfg = _cfg(realizations=5, schemes=("matching",),
               power_sweep_dbm=(0.0, 23.0))
    res = sweep(cfg, "power")
    assert res.mean[1, 0] > res.mean[0, 0]


def test_element_sweep_changes_grid():
    cfg = _cfg(realizations=2, schemes=("matching",), element_sweep=(9, 36))
    res = sweep(cfg, "elements")
    assert res.mean.shape == (2, 1)
    assert np.all(np.isfinite(res.mean))


def test_csv_format_contract(tmp_path):
    cfg = _cfg(realizations=2, schemes=("matching", "random"),
               power_sweep_dbm=(5.0, 10.0))
    res = sweep(cfg, "power")
    path = tmp_path / "out.csv"
    emit_csv(res, path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == ("sweep_var,sweep_value,scheme,"
                        "mean_sum_rate_bps_hz,stderr,realizations")
    assert len(lines) == 1 + 2 * 2
    assert text.endswith("\n") and "\r" not in text
    # full-precision round trip
    row = lines[1].split(",")
    assert row[0] == "power" and row[2] == "matching"
    assert float(row[3]) == res.mean[0, 0]
    assert float(row[4]) == res.stderr[0, 0]
    assert int(row[5]) == 2
    # rewriting produces identical bytes
    emit_csv(res, path)
    assert path.read_text(encoding="utf-8") == text


def test_csv_empty_result_is_header_only(tmp_path):
    res = SweepResult(sweep_var="power", values=(), schemes=(),
                      mean=np.empty((0, 0)), stderr=np.empty((0, 0)),
                      realizations=0)
    path = tmp_path / "empty.csv"
    emit_csv(res, path)
    assert path.read_text() == format_csv(res)
    assert path.read_text().splitlines() == [
        "sweep_var,sweep_value,scheme,mean_sum_rate_bps_hz,stderr,realizations"]


def test_emit_csv_io_failure(tmp_path):
    res = SweepResult(sweep_var="power", values=(), schemes=(),
                      mean=np.empty((0, 0)), stderr=np.empty((0, 0)),
                      realizations=0)
    with pytest.raises(OSError, match="no/such/dir"):
        emit_csv(res, tmp_path / "no" / "such" / "dir" / "x.csv")


def test_emit_csv_failure_leaves_no_temp_file(tmp_path):
    res = SweepResult(sweep_var="power", values=(), schemes=(),
                      mean=np.empty((0, 0)), stderr=np.empty((0, 0)),
                      realizations=0)
    (tmp_path / "taken").mkdir()
    with pytest.raises(OSError, match="taken"):
        emit_csv(res, tmp_path / "taken")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv("FR3_THREADS", raising=False)
    assert resolve_workers() == 1
    monkeypatch.setenv("FR3_THREADS", "")
    assert resolve_workers() == 1
    monkeypatch.setenv("FR3_THREADS", "3")
    assert resolve_workers() == 3
    monkeypatch.setenv("FR3_THREADS", "0")
    assert resolve_workers() >= 1
    monkeypatch.setenv("FR3_THREADS", "lots")
    with pytest.raises(ConfigError):
        resolve_workers()
    monkeypatch.setenv("FR3_THREADS", "-2")
    with pytest.raises(ConfigError):
        resolve_workers()


def test_parallel_sweep_matches_serial(monkeypatch):
    cfg = _cfg(realizations=4, schemes=("matching", "random"),
               power_sweep_dbm=(13.0, 20.0))
    monkeypatch.delenv("FR3_THREADS", raising=False)
    serial = sweep(cfg, "power")
    monkeypatch.setenv("FR3_THREADS", "2")
    parallel = sweep(cfg, "power")
    assert np.array_equal(serial.mean, parallel.mean)
    assert np.array_equal(serial.stderr, parallel.stderr)


@pytest.mark.parametrize("rounds, calls", [(1, 5), (2, 5), (3, 9)])
def test_each_association_gets_one_gain_matrix(monkeypatch, rounds, calls):
    # the seed association's, then one per association each scheme makes;
    # the last power round's matrix is the final rate's
    count = []
    gains = experiment.gains_for_association

    def counting(*args):
        count.append(1)
        return gains(*args)

    monkeypatch.setattr(experiment, "gains_for_association", counting)
    cfg = _cfg(power_rounds=rounds)
    _run_schemes(cfg, 0, cfg.schemes)
    assert len(cfg.schemes) == 4
    assert len(count) == calls


def test_sweep_opens_one_pool_bounded_by_realizations(monkeypatch, caplog):
    built = []

    def in_process(tasks, workers):
        # stands in for the forked shares: records the worker count and
        # runs each strided share in this process, so no worker starts
        built.append(workers)
        results = [None] * len(tasks)
        for w in range(workers):
            results[w::workers] = experiment._run_share(tasks[w::workers])
        return results

    monkeypatch.setattr(experiment, "_run_forked", in_process)
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: 4)
    monkeypatch.setenv("FR3_THREADS", "500")
    cfg = _cfg(realizations=2, schemes=("matching",),
               power_sweep_dbm=(10.0, 17.0, 23.0))
    with caplog.at_level("WARNING", logger="fr3ris"):
        pooled = sweep(cfg, "power")
    # 3 points x 2 realizations are 6 tasks: the 4 cores bound it, not the
    # 2 realizations per point
    assert built == [4]
    assert "500 workers on 4 cores" in caplog.text
    monkeypatch.delenv("FR3_THREADS")
    serial = sweep(cfg, "power")
    assert format_csv(pooled) == format_csv(serial)
    # with fewer tasks than cores, the tasks bound it: 2 points x 1
    # realization fork 2 workers
    monkeypatch.setenv("FR3_THREADS", "500")
    one = _cfg(realizations=1, schemes=("random",), ris_elements_y=1,
               ris_elements_z=1, power_rounds=1, power_sweep_dbm=(10.0, 13.0))
    pooled = sweep(one, "power")
    assert built == [4, 2]
    monkeypatch.delenv("FR3_THREADS")
    assert format_csv(pooled) == format_csv(sweep(one, "power"))


def test_uneven_forked_shares_reduce_like_a_serial_sweep(monkeypatch):
    # 2 points x 5 realizations over 3 workers: shares of 4, 3 and 3 tasks,
    # each spanning both points
    cfg = _cfg(realizations=5, schemes=("matching", "random"),
               power_sweep_dbm=(13.0, 20.0))
    monkeypatch.delenv("FR3_THREADS", raising=False)
    serial = sweep(cfg, "power")
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: 3)
    monkeypatch.setenv("FR3_THREADS", "3")
    assert format_csv(sweep(cfg, "power")) == format_csv(serial)


def test_a_workers_exception_is_re_raised_with_its_traceback(monkeypatch):
    run = experiment._run_schemes

    def fails_at_2(cfg, index, schemes):
        if index == 2:
            raise ValueError("synthetic failure at realization 2")
        return run(cfg, index, schemes)

    monkeypatch.setattr(experiment, "_run_schemes", fails_at_2)
    cfg = _cfg(realizations=3, schemes=("random",))
    tasks = [(cfg, index, cfg.schemes) for index in range(3)]
    with pytest.raises(ValueError, match="realization 2") as info:
        experiment._run_forked(tasks, 2)
    assert "in fails_at_2" in str(info.value.__cause__)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("platform", ["no-fork", "macos"])
def test_without_fork_a_pooled_sweep_runs_serially(monkeypatch, caplog,
                                                  platform):
    if platform == "macos":
        # os.fork exists there, but a forked child is unsafe
        monkeypatch.setattr(sys, "platform", "darwin")
    else:
        monkeypatch.delattr(os, "fork")

    def no_workers(tasks, workers):
        raise AssertionError("forked where fork is unsafe")

    monkeypatch.setattr(experiment, "_run_forked", no_workers)
    monkeypatch.setattr(experiment.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("FR3_THREADS", "2")
    cfg = _cfg(realizations=2, schemes=("matching",),
               power_sweep_dbm=(10.0, 17.0))
    with caplog.at_level("WARNING", logger="fr3ris"):
        pooled = sweep(cfg, "power")
    warnings = [r for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1
    assert "cannot fork" in warnings[0].getMessage()
    monkeypatch.delenv("FR3_THREADS")
    assert format_csv(pooled) == format_csv(sweep(cfg, "power"))


def test_a_serial_sweep_loads_no_process_pool(cli_env):
    # the pool's imports (multiprocessing, sockets, subprocess) cost about
    # 2 MB resident and 20 ms in a process that never forks
    code = ("import sys\n"
            "from fr3ris.config import ScenarioConfig\n"
            "from fr3ris.experiment import sweep\n"
            "cfg = ScenarioConfig(num_antennas=4, num_ius=2, num_riss=2,\n"
            "                     ris_elements_y=2, ris_elements_z=2,\n"
            "                     realizations=2, power_sweep_dbm=(10.0,))\n"
            "sweep(cfg, 'power')\n"
            "print([m for m in ('concurrent.futures.process',\n"
            "                   'multiprocessing') if m in sys.modules])\n")
    env = {k: v for k, v in cli_env.items() if k != "FR3_THREADS"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_pooled_sweep_loads_no_executor(cli_env):
    # the forked shares need multiprocessing alone: no executor, queues or
    # connections
    code = ("import os, sys\n"
            "os.cpu_count = lambda: 2\n"
            "from fr3ris.config import ScenarioConfig\n"
            "from fr3ris.experiment import sweep\n"
            "cfg = ScenarioConfig(num_antennas=4, num_ius=2, num_riss=2,\n"
            "                     ris_elements_y=2, ris_elements_z=2,\n"
            "                     realizations=2, power_sweep_dbm=(10.0,))\n"
            "sweep(cfg, 'power')\n"
            "print('multiprocessing' in sys.modules,\n"
            "      [m for m in ('concurrent.futures.process',\n"
            "                   'multiprocessing.queues',\n"
            "                   'multiprocessing.connection', 'queue')\n"
            "       if m in sys.modules])\n")
    env = dict(cli_env, FR3_THREADS="2")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True []"


def test_a_realization_does_not_import_numpy_ma(cli_env):
    # importing numpy.ma costs about 12 ms in every process and pool worker
    code = ("import sys\n"
            "from fr3ris.config import ScenarioConfig\n"
            "from fr3ris.experiment import _run_schemes\n"
            "cfg = ScenarioConfig()\n"
            "_run_schemes(cfg, 0, cfg.schemes)\n"
            "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=cli_env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# power sweep CSV of the rank-one line-of-sight channel model; a change to
# the channel model or to the pipeline's arithmetic moves it
_FROZEN_POWER_SWEEP = (
    'sweep_var,sweep_value,scheme,mean_sum_rate_bps_hz,stderr,realizations\n'
    'power,10,matching,6.9480009515680647,0.14457551416717934,10\n'
    'power,10,greedy,6.9480009515680647,0.14457551416717934,10\n'
    'power,10,random,6.9455147292807791,0.14511164401551627,10\n'
    'power,10,exhaustive,6.9480009515680647,0.14457551416717934,10\n'
    'power,13,matching,7.6793265404315623,0.18985088801496283,10\n'
    'power,13,greedy,7.6793265404315623,0.18985088801496283,10\n'
    'power,13,random,7.6756481221700188,0.19052071607254212,10\n'
    'power,13,exhaustive,7.6793265404315623,0.18985088801496283,10\n'
    'power,16,matching,8.5073713291033499,0.18091906644412814,10\n'
    'power,16,greedy,8.5073713291033499,0.18091906644412814,10\n'
    'power,16,random,8.5036417418366828,0.18137113309889002,10\n'
    'power,16,exhaustive,8.5073713291033499,0.18091906644412814,10\n'
    'power,19,matching,9.414660156750891,0.15311659634174257,10\n'
    'power,19,greedy,9.414660156750891,0.15311659634174257,10\n'
    'power,19,random,9.4109245324358053,0.15341656056499145,10\n'
    'power,19,exhaustive,9.414660156750891,0.15311659634174257,10\n'
    'power,23,matching,10.662362100716734,0.13839301551505714,10\n'
    'power,23,greedy,10.662362100716734,0.13839301551505714,10\n'
    'power,23,random,10.658598250903147,0.13848875501151689,10\n'
    'power,23,exhaustive,10.662362100716734,0.13839301551505714,10\n')


def test_power_sweep_csv_is_frozen():
    cfg = ScenarioConfig(num_antennas=8, num_ius=4, num_riss=3,
                         ris_elements_y=3, ris_elements_z=3, realizations=10,
                         master_seed=11)
    assert format_csv(sweep(cfg, "power")) == _FROZEN_POWER_SWEEP


def test_no_inner_solve_ends_unconverged_on_seeded_realizations(monkeypatch):
    # the default scenario and the element-sweep points, master seed 42,
    # realizations 0-11: every SCA inner solve meets its 1e-8 tolerance
    traces = []
    solve = experiment.sca_power_for_config

    def recording(gm, cfg, init=None):
        p, trace = solve(gm, cfg, init=init)
        traces.append(trace)
        return p, trace

    monkeypatch.setattr(experiment, "sca_power_for_config", recording)
    base = ScenarioConfig(master_seed=42)
    points = [base] + [experiment._config_for_point(base, "elements", m)
                       for m in base.element_sweep]
    for cfg in points:
        for index in range(12):
            _run_schemes(cfg, index, cfg.schemes)
    assert sum(t.inner_iterations for t in traces) > 0
    assert sum(t.inner_unconverged for t in traces) == 0


def test_arc_search_stops_below_rounding(monkeypatch):
    # default point, master seed 42, realizations 0-11: an arc search whose
    # Armijo gain has fallen below the rounding of f goes straight to the
    # projected-gradient step instead of halving down to _MIN_ARC; without
    # that cutoff these solves take about 7.6 surrogate evaluations per
    # inner iteration, with it about 2.6
    counts = {"evals": 0, "iters": 0}
    value, solve = _kernels.surrogate_value, _kernels.solve_inner

    def counting_value(*args):
        counts["evals"] += 1
        return value(*args)

    def counting_solve(*args):
        out = solve(*args)
        counts["iters"] += out[1]
        return out

    monkeypatch.setattr(_kernels, "surrogate_value", counting_value)
    monkeypatch.setattr(_kernels, "solve_inner", counting_solve)
    cfg = ScenarioConfig(master_seed=42)
    for index in range(12):
        _run_schemes(cfg, index, cfg.schemes)
    assert counts["iters"] > 0
    assert counts["evals"] <= 3 * counts["iters"]
