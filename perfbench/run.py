"""End-to-end and per-layer benchmark of the fr3ris Monte Carlo pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measurement runs a CLI verb of the source tree's fr3ris in a fresh
process (child.py), through the same experiment.sweep -> CSV path as the
`fr3ris` command, with BLAS threads pinned to 1. See README.md for the
workloads, the metrics and how they relate.

--trace 0 measures end to end: eleven set-up probes, then whole sweeps
("rounds") back to back, as many as come nearest to S seconds,
then one serial verification sweep checked against the independent
oracle. --trace 1 instead alternates an untraced and a traced round of
the same inputs in the same way, then verifies, and reports per-layer
figures per realization plus the tracing overhead.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics; the line before it records the environment. Exits 1
without a result when the source tree or a run is broken, and with
"correct": false when a check fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from child import BLAS_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
SCRATCH = ROOT / ".perfbench_tmp"

# A run must end within 180 s; keep room for the verification sweep.
RUN_DEADLINE_S = 170.0
CHILD_TIMEOUT_S = 150.0
SETUP_PROBES = 11

ALL_SCHEMES = ["matching", "greedy", "random", "exhaustive"]

# Why each workload exists is in README.md. `verb` is the fr3ris CLI verb;
# `workers` is FR3_THREADS for the measured rounds (the verification sweep
# is always serial).
WORKLOADS = {
    "default-point": {
        "verb": "run", "realizations": 2, "workers": 1,
        "sweep_var": "power", "values": [23.0], "schemes": ALL_SCHEMES,
    },
    "element-sweep-2proc": {
        "verb": "sweep-elements", "realizations": 8,
        "workers": 2, "sweep_var": "elements", "values": [100, 625, 2500],
        "schemes": ALL_SCHEMES,
    },
}


class BenchError(Exception):
    """The program or the source tree failed; no result is printed."""


def master_seed(seed):
    """fr3ris master seed for benchmark seed `seed`. Hashed so that nearby
    benchmark seeds do not share realizations (fr3ris seeds realization
    i with master XOR i)."""
    digest = hashlib.sha256(f"perfbench:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def commit():
    """HEAD of the checkout's git metadata, or "unknown" without any."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Launches child processes for one workload and seed."""

    def __init__(self, name, seed, workdir, deadline):
        self.spec = WORKLOADS[name]
        self.seed = master_seed(seed)
        self.workdir = workdir
        self.deadline = deadline
        self.launches = 0
        self.csv_text = None

    def launch(self, mode, serial=False):
        spec = self.spec
        self.launches += 1
        tag = f"{self.launches:03d}-{mode}"
        out = self.workdir / f"{tag}.csv"
        result = self.workdir / f"{tag}.json"
        dumps = self.workdir / f"{tag}-dumps"
        dumps.mkdir()
        cli_args = [spec["verb"], "--out", str(out), "--seed", str(self.seed),
                    "--realizations", str(spec["realizations"])]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        for var in BLAS_VARS:
            env[var] = "1"
        env.pop("FR3_NO_NUMBA", None)
        env.pop("FR3_THREADS", None)
        if spec["workers"] > 1 and not serial:
            env["FR3_THREADS"] = str(spec["workers"])
        timeout = min(CHILD_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            raise BenchError(f"out of time before the {mode} sweep")
        cmd = [sys.executable, str(CHILD), mode, str(result), str(dumps), "--",
               *cli_args]
        env["PERFBENCH_SPAWN_NS"] = str(time.monotonic_ns())
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{mode} sweep timed out after {timeout:.0f} s")
        finally:
            # pool workers share the child's session; none may outlive it
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if proc.returncode != 0:
            tail = "\n".join(err.splitlines()[-15:])
            raise BenchError(f"{mode} sweep exited with {proc.returncode}:\n{tail}")
        record = json.loads(result.read_text())
        if mode != "probe":
            self._check_sweep(record, out.read_text(encoding="utf-8"))
        return record

    def _check_sweep(self, record, text):
        spec = self.spec
        got = (record["sweep_var"], record["values"], record["realizations"],
               record["schemes"])
        want = (spec["sweep_var"], spec["values"], spec["realizations"],
                spec["schemes"])
        if got != want:
            raise BenchError(f"sweep ran {got}, workload asks for {want}")
        if self.csv_text is None:
            self.csv_text = text
        elif text != self.csv_text:
            # covers the serial verification sweep against the pooled
            # rounds of element-sweep-2proc as well as round-to-round
            # determinism
            raise BenchError("CSV differs between sweeps of the same inputs")

    def operations(self):
        spec = self.spec
        return len(spec["values"]) * spec["realizations"] * len(spec["schemes"])

    def realizations(self):
        return len(self.spec["values"]) * self.spec["realizations"]


def fill_window(seconds, run_once):
    """Call run_once() back to back, as many times as brings the elapsed
    time nearest to `seconds`, judged by the mean call so far; always at
    least once."""
    start = time.monotonic()
    results = [run_once()]
    while True:
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(results) / 2 > seconds:
            return results
        results.append(run_once())


def mean_sum_rate(csv_text):
    rows = csv_text.strip().splitlines()[1:]
    values = [float(row.split(",")[3]) for row in rows]
    return sum(values) / len(values)


def end_to_end(runner, seconds):
    probes = [runner.launch("probe") for _ in range(SETUP_PROBES)]
    rounds = fill_window(seconds, lambda: runner.launch("timed"))
    metrics = {
        "realizations_per_s": statistics.median(
            runner.realizations() / r["sweep_s"] for r in rounds),
        "setup_s": statistics.median(r["setup_s"] for r in probes + rounds),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "sum_rate_bps_hz": mean_sum_rate(runner.csv_text),
    }
    return rounds, metrics


def per_layer(runner, seconds):
    pairs = fill_window(seconds, lambda: (runner.launch("timed"),
                                          runner.launch("traced")))
    n = runner.realizations()
    layers = []
    for plain, traced in pairs:
        t = traced["trace"]
        calls, self_s, counts, sections = (t["calls"], t["self_s"],
                                           t["counts"], t["section_s"])
        workers = plain["workers"]
        capacity = workers * plain["sweep_s"]
        m = {
            "topology.sample_s": self_s.get("topology.sample", 0.0),
            "channel.synthesize_s": self_s.get("channel.synthesize", 0.0),
            "channel.gains_s": self_s.get("channel.gains", 0.0),
            "channel.gains_calls": calls.get("channel.gains", 0),
            "numerics.matvec_s": self_s.get("numerics.matvec", 0.0),
            "numerics.matvec_calls": calls.get("numerics.matvec", 0),
            "numerics.matvec_bytes": counts.get("numerics.matvec_bytes", 0),
            "numerics.matvec_flops": counts.get("numerics.matvec_flops", 0),
            "association.utility_s": self_s.get("association.utility", 0.0),
            "association.utility_calls": calls.get("association.utility", 0),
            "association.exhaustive_candidates":
                counts.get("association.exhaustive_candidates", 0),
            "power_sca.sca_s": self_s.get("power_sca.sca", 0.0)
                + self_s.get("power_sca.inner", 0.0),
            "power_sca.solves": calls.get("power_sca.sca", 0),
            "power_sca.inner_solves": calls.get("power_sca.inner", 0),
            "rate.sum_rate_s": self_s.get("rate.sum_rate", 0.0),
            "rate.sum_rate_calls": calls.get("rate.sum_rate", 0),
            "experiment.sweep_overhead_s": capacity - plain["cpu_s"],
            "trace.overhead_s": traced["sweep_s"] - plain["sweep_s"],
        }
        for scheme in ("exhaustive", "matching", "greedy", "random"):
            layer = f"association.{scheme}"
            m[f"{layer}_s"] = self_s.get(layer, 0.0)
            m[f"{layer}_incl_s"] = sections.get(scheme, 0.0)
        for name in ("outer_iters", "inner_iters",
                     "surrogate_evals", "inner_capped", "inner_stalled",
                     "outer_unconverged"):
            m[f"power_sca.{name}"] = counts.get(f"power_sca.{name}", 0)
        m = {name: value / n for name, value in m.items()}
        m["experiment.parallel_efficiency"] = plain["cpu_s"] / capacity
        m["trace.overhead_share"] = traced["sweep_s"] / plain["sweep_s"] - 1.0
        layers.append(m)
    metrics = {name: statistics.median(m[name] for m in layers)
               for name in layers[0]}
    rounds = [r for pair in pairs for r in pair]
    return rounds, metrics


def declared_units(kind):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def run(args):
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    if not (SRC / "fr3ris" / "__init__.py").is_file():
        raise BenchError(f"no fr3ris source tree at {SRC}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    try:
        runner = Runner(args.workload, args.seed, workdir, deadline)
        if args.trace:
            rounds, metrics = per_layer(runner, args.seconds)
            units = declared_units("per_layer")
        else:
            rounds, metrics = end_to_end(runner, args.seconds)
            units = declared_units("end_to_end")
        if set(metrics) != set(units):
            raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} "
                             "are measured or declared, not both")
        check = runner.launch("verify", serial=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in check["failures"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    if check["checked"] != runner.operations():
        print(f"CHECK FAILED: verified {check['checked']} results of "
              f"{runner.operations()}", file=sys.stderr)
    correct = not check["failures"] and check["checked"] == runner.operations()
    environment = {
        "workload": args.workload, "seed": args.seed,
        "master_seed": runner.seed, "commit": commit(),
        "rounds": len(rounds), **rounds[0]["environment"],
    }
    print(json.dumps({"environment": environment}))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.operations() * (len(rounds) + 1),
        "failed": check["failed_ops"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn SIGTERM into SystemExit, so that launch() still kills the child
    # session and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
