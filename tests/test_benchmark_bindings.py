"""The benchmark in perfbench/ wraps and reads fr3ris names by hand
(`experiment.sca_power_for_config`, `_kernels.solve_inner`'s `max_iter`
argument, `ScenarioConfig.rho_variant`, `numerics.backend()`, `.gamma` on
the schemes' results, a raw `gamma` passed to
`channel.gains_for_association`, ...). A refactor that drops one breaks
only the benchmark, so this runs its child process in the verify and
traced modes on a tiny scenario."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = ROOT / "perfbench" / "child.py"

TINY = "ris_elements_y = 4\nris_elements_z = 4\nnum_antennas = 8\n"


def _child(mode, tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY)
    result = tmp_path / f"{mode}.json"
    dumps = tmp_path / f"{mode}-dumps"
    dumps.mkdir()
    env = {k: v for k, v in os.environ.items() if k != "FR3_THREADS"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PERFBENCH_SPAWN_NS=str(time.monotonic_ns()))
    proc = subprocess.run(
        [sys.executable, str(CHILD), mode, str(result), str(dumps), "--",
         "run", "--config", str(cfg), "--out", str(tmp_path / f"{mode}.csv"),
         "--realizations", "2", "--seed", "5"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(result.read_text())


def test_benchmark_child_runs_verify_and_traced(tmp_path):
    record = _child("verify", tmp_path)
    assert record["failures"] == []
    assert record["failed_ops"] == 0
    assert record["checked"] > 0
    trace = _child("traced", tmp_path)["trace"]
    assert trace["counts"]["power_sca.inner_iters"] > 0
    assert trace["calls"]["channel.gains"] > 0
