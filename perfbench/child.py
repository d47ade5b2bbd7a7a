"""One fresh process of the benchmark: runs an fr3ris CLI verb in-process.

    python3 child.py MODE RESULT_JSON DUMP_DIR -- <fr3ris CLI arguments>

MODE is one of
  probe   stop as soon as the sweep is entered (set-up time only);
  timed   run the verb untouched, timing only the sweep call;
  traced  also wrap the layers with tracer.Tracer;
  verify  also check every realization with verify.Verifier (serial).

The parent passes its monotonic clock reading at spawn time in
PERFBENCH_SPAWN_NS; set-up time runs from then to entry into
experiment.sweep, and so covers interpreter start, the numpy and fr3ris
imports, argument parsing and config resolution. The result file gets
set-up and sweep seconds, CPU seconds of this process and its pool
workers during the sweep, the largest resident set among them, the
environment, and the mode's own findings.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupDone(BaseException):
    """Raised at sweep entry in probe mode; not an fr3ris error, so the
    CLI's handlers let it through."""


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb():
    # Linux reports ru_maxrss in KiB; RUSAGE_CHILDREN is the largest
    # waited-for child, i.e. the largest pool worker
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main(argv):
    mode, result_path, dump_dir = argv[1], Path(argv[2]), Path(argv[3])
    if argv[4] != "--":
        raise SystemExit("usage: child.py MODE RESULT_JSON DUMP_DIR -- ARGS")
    cli_args = argv[5:]
    spawn_ns = int(os.environ["PERFBENCH_SPAWN_NS"])
    src = Path(__file__).resolve().parent.parent / "src"

    import numpy
    import fr3ris
    from fr3ris import cli, experiment, numerics

    if Path(fr3ris.__file__).resolve().parent != src / "fr3ris":
        raise SystemExit(f"imported fr3ris from {fr3ris.__file__}, "
                         f"not from {src}")

    record = {"mode": mode}
    sweep = cli.sweep

    def timed_sweep(*args, **kwargs):
        t0 = time.monotonic_ns()
        record["setup_s"] = (t0 - spawn_ns) / 1e9
        if mode == "probe":
            raise SetupDone
        cpu0 = _cpu_s()
        result = sweep(*args, **kwargs)
        record["sweep_s"] = (time.monotonic_ns() - t0) / 1e9
        record["cpu_s"] = _cpu_s() - cpu0
        record["workers"] = experiment.resolve_workers()
        record["sweep_var"] = result.sweep_var
        record["values"] = list(result.values)
        record["realizations"] = result.realizations
        record["schemes"] = list(result.schemes)
        return result

    cli.sweep = timed_sweep

    tracer = verifier = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer(dump_dir)
        tracer.install()
    elif mode == "verify":
        from verify import Verifier, check_dense_channels, check_matching
        verifier = Verifier()
        verifier.install(experiment)

    try:
        code = cli.main(cli_args)
    except SetupDone:
        code = 0
    if code != 0:
        raise SystemExit(f"fr3ris {' '.join(cli_args)} exited with {code}")

    record["peak_rss_mb"] = _peak_rss_mb()
    record["environment"] = {
        "backend": numerics.backend(),
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        **{var: os.environ.get(var) for var in BLAS_VARS},
        "FR3_THREADS": os.environ.get("FR3_THREADS"),
    }
    if tracer is not None:
        tracer.merge_dumps()
        record["trace"] = tracer.totals()
    if verifier is not None:
        out = Path(cli_args[cli_args.index("--out") + 1])
        verifier.check_csv(out.read_text(encoding="utf-8"),
                           record["sweep_var"], record["values"],
                           record["realizations"])
        rng = numpy.random.default_rng(
            int(cli_args[cli_args.index("--seed") + 1]))
        record["failures"] = (verifier.failures + check_dense_channels(rng)
                              + check_matching(rng))
        record["checked"] = verifier.checked
        record["failed_ops"] = len(verifier.failed_ops)
    result_path.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
