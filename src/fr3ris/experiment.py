"""Monte Carlo harness: per-realization pipeline, sweeps, CSV emission.

Pipeline per realization (power_rounds solves total):
  1. drop IUs, synthesize channels;
  2. greedy-seed an association at uniform power, SCA-solve the power;
  3. associate via the requested scheme at the solved power;
  4. remaining rounds alternate SCA refinement (warm start) with
     re-association, ending on a power solve;
  5. report the coupled sum rate of the final pair.

Reproducibility: realization i uses seed master_seed XOR i. The shared
pipeline prefix draws from the stream Stream(seed); each scheme's own draws
come from the substream Stream([seed, scheme index]), so a scheme's result
never depends on which other schemes ran alongside it. Both are PCG64
streams bit-equal to numpy's default_rng of the same entropy (see
stream.py), so no sweep process imports numpy's random package. Sweep
aggregation reduces in realization-index order, making CSV output bitwise
stable under any FR3_THREADS setting.

Worker processes: FR3_THREADS > 1 forks W workers per sweep, and worker w
runs the fixed strided share tasks[w::W] of the point-major task list with
the same loop a serial sweep runs, then pickles its results (or its
exception) into a pipe. The parent puts each share back in place, so the
reduction stays in realization order. A pooled sweep imports only
multiprocessing, when it forks, and no executor, queue or connection
module; a serial sweep imports neither. The fixed shares spread every
point's realizations evenly over the workers, but do not balance one slow
realization against another: the sweep waits for the slowest share.
Workers are forked, so pooled sweeps run on Linux and the other POSIX
systems that fork safely; on Windows (no os.fork) and macOS (where
system libraries may have started threads a forked child cannot use),
FR3_THREADS > 1 warns and runs serially.
"""

import contextlib
import logging
import math
import os
import pickle
import sys
import traceback
from dataclasses import dataclass

import numpy as np

from .association import (exhaustive_association, greedy_association,
                          match_deferred_acceptance, random_association,
                          utility_matrix)
from .channel import gains_for_association, synthesize_channels
from .config import SCHEME_NAMES
from .errors import ConfigError
from .power_sca import sca_power_for_config
from .rate import sum_rate
from .stream import Stream
from .topology import sample_topology

_SCHEME_STREAM = {name: i + 1 for i, name in enumerate(SCHEME_NAMES)}

log = logging.getLogger(__name__)

CSV_HEADER = "sweep_var,sweep_value,scheme,mean_sum_rate_bps_hz,stderr,realizations"


@dataclass(frozen=True)
class SweepResult:
    sweep_var: str       # "power" or "elements"
    values: tuple        # sweep points as configured (dBm / element counts)
    schemes: tuple
    mean: np.ndarray     # (num values, num schemes) bits/s/Hz
    stderr: np.ndarray   # same shape; sample stdev / sqrt(n)
    realizations: int


def _realization_seed(cfg, index):
    return cfg.master_seed ^ index


def _associate(scheme, channels, u, p, cfg, rng):
    if scheme == "matching":
        return match_deferred_acceptance(u)
    if scheme == "greedy":
        return greedy_association(u, rng)
    if scheme == "random":
        return random_association(channels.num_ius, channels.num_riss, rng)
    if scheme == "exhaustive":
        return exhaustive_association(channels, p, cfg.noise_power_w,
                                      cap=cfg.exhaustive_cap)[0]
    raise ConfigError(f"unknown scheme {scheme!r}")


def _run_schemes(cfg, index, schemes):
    """One realization, all requested schemes; shares the scheme-independent
    prefix (topology, channels, seed association, first power solve)."""
    seed = _realization_seed(cfg, index)
    rng = Stream(seed)
    topo = sample_topology(cfg, rng)
    channels = synthesize_channels(topo, cfg)
    noise = cfg.noise_power_w
    k = cfg.num_ius
    uniform = np.full(k, cfg.p_max_w / k)

    u0 = utility_matrix(channels, uniform, noise)
    seed_assoc = greedy_association(u0, rng)
    gm0 = gains_for_association(channels, seed_assoc, noise)
    p_star, _ = sca_power_for_config(gm0, cfg, init=uniform)
    u_star = utility_matrix(channels, p_star, noise)

    out = {}
    for scheme in schemes:
        scheme_rng = Stream([seed, _SCHEME_STREAM[scheme]])
        p = p_star
        u = u_star
        assoc = _associate(scheme, channels, u, p, cfg, scheme_rng)
        gm = gains_for_association(channels, assoc, noise)
        for round_idx in range(2, cfg.power_rounds + 1):
            p, _ = sca_power_for_config(gm, cfg, init=p)
            if round_idx < cfg.power_rounds:
                u = utility_matrix(channels, p, noise)
                assoc = _associate(scheme, channels, u, p, cfg, scheme_rng)
                gm = gains_for_association(channels, assoc, noise)
        out[scheme] = sum_rate(gm, p).sum_rate
    return out


def _run_share(tasks):
    """The realizations of one share, in task order."""
    return [_run_schemes(cfg, index, schemes) for cfg, index, schemes in tasks]


class _RemoteTraceback(Exception):
    """A worker's formatted traceback, chained as the cause of the
    exception the parent re-raises."""


def _send_share(tasks, fd):
    # runs in a forked worker: pickle the share's results, or the exception
    # that stopped it with its traceback, whole before writing, so a short
    # read means a lost worker
    try:
        payload = _run_share(tasks)
    except Exception as exc:
        payload = (exc, _RemoteTraceback("".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__))))
    with os.fdopen(fd, "wb") as fh:
        fh.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))


def _run_forked(tasks, workers):
    """Run share tasks[w::workers] in forked worker w; return every result
    in task order. Re-raises the first failed share's exception, in worker
    order, and raises RuntimeError for a worker that exits without
    reporting; no worker outlives the call."""
    # imported here, so that a serial sweep never loads it
    import multiprocessing

    # fork, not spawn: a worker starts with numpy and fr3ris already
    # imported, and with this process's functions as they are bound now
    ctx = multiprocessing.get_context("fork")
    procs, readers = [], []
    try:
        for w in range(workers):
            r, fd = os.pipe()
            readers.append(os.fdopen(r, "rb"))
            try:
                proc = ctx.Process(target=_send_share,
                                   args=(tasks[w::workers], fd), daemon=True)
                proc.start()
                procs.append(proc)
            finally:
                # only the worker may hold the write end, or the read below
                # never sees end-of-file
                os.close(fd)
        results = [None] * len(tasks)
        for w, (proc, reader) in enumerate(zip(procs, readers)):
            data = reader.read()
            proc.join()
            if proc.exitcode != 0:
                raise RuntimeError(f"sweep worker {w} (pid {proc.pid}) exited "
                                   f"with code {proc.exitcode}")
            share = pickle.loads(data)
            if isinstance(share, tuple):
                exc, remote = share
                raise exc from remote
            results[w::workers] = share
        return results
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join()
        for reader in readers:
            reader.close()


def resolve_workers():
    """Worker count from FR3_THREADS: unset/empty = 1, 0 = all cores."""
    raw = os.environ.get("FR3_THREADS", "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"FR3_THREADS must be an integer, got {raw!r}") from None
    if n < 0:
        raise ConfigError(f"FR3_THREADS must be >= 0, got {n}")
    return n if n > 0 else (os.cpu_count() or 1)


def _config_for_point(cfg, variable, value):
    if variable == "power":
        return cfg.with_updates(p_max_dbm=value)
    if variable == "elements":
        side = math.isqrt(value)
        return cfg.with_updates(ris_elements_y=side, ris_elements_z=side)
    raise ConfigError(f"unknown sweep variable {variable!r}")


def sweep(cfg, variable):
    """Monte Carlo sweep over the config's AP power points
    (power_sweep_dbm) or RIS element counts (element_sweep). Returns
    per-scheme means and standard errors."""
    values = cfg.power_sweep_dbm if variable == "power" else cfg.element_sweep
    point_cfgs = [_config_for_point(cfg, variable, v) for v in values]

    n = cfg.realizations
    schemes = cfg.schemes
    requested = resolve_workers()
    cores = os.cpu_count() or 1
    if requested > cores:
        log.warning("FR3_THREADS asks for %d workers on %d cores",
                    requested, cores)
    tasks = [(pcfg, index, schemes) for pcfg in point_cfgs for index in range(n)]
    # every worker is forked at once and runs one fixed strided share of
    # all the points' tasks, so never more workers than there are cores or
    # tasks
    workers = min(requested, len(tasks), cores)
    # macOS has os.fork, but a forked child may crash in system libraries
    # that had started threads, which is why spawn is its default there
    if workers > 1 and (not hasattr(os, "fork") or sys.platform == "darwin"):
        log.warning("FR3_THREADS asks for %d workers, but this platform "
                    "cannot fork safely; running serially", requested)
        workers = 1
    if workers > 1:
        results = _run_forked(tasks, workers)
    else:
        results = _run_share(tasks)
    mean = np.empty((len(values), len(schemes)))
    stderr = np.empty_like(mean)
    for vi in range(len(values)):
        point = results[vi * n:(vi + 1) * n]
        for si, scheme in enumerate(schemes):
            rates = np.array([r[scheme] for r in point])
            mean[vi, si] = rates.mean()
            stderr[vi, si] = (rates.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return SweepResult(sweep_var=variable, values=values, schemes=schemes,
                       mean=mean, stderr=stderr, realizations=n)


def format_csv(result):
    lines = [CSV_HEADER]
    for vi, value in enumerate(result.values):
        for si, scheme in enumerate(result.schemes):
            lines.append(",".join([
                result.sweep_var,
                f"{value:.17g}" if isinstance(value, float) else str(value),
                scheme,
                f"{result.mean[vi, si]:.17g}",
                f"{result.stderr[vi, si]:.17g}",
                str(result.realizations),
            ]))
    return "\n".join(lines) + "\n"


def emit_csv(result, path):
    """Write the sweep as UTF-8, LF-only CSV; 17 significant digits. The
    text goes to a temp file beside `path` that then replaces it, so a
    failed write leaves no partial CSV."""
    text = format_csv(result)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc
