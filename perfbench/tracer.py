"""Per-layer tracing of fr3ris from outside the package.

The tracer replaces public functions of the fr3ris modules with timing
wrappers, in every fr3ris module that holds a reference to them, so
calls made through `from .x import f` bindings are seen too. Nothing
inside `src/fr3ris` is edited. Each wrapper records its call count and
self time (its duration minus the time of the traced calls it made),
keyed by layer name; some also derive counts from arguments
or return values.

Scheme sections: two private names of fr3ris.experiment, `_run_schemes`
(one realization) and `_associate` (one scheme's association), mark
where each scheme's share of a realization starts. Every top-level
traced call made while a scheme's section is open adds to that scheme's
section time, which so covers its association and the power solves,
gains and rates computed for it.

Process-pool workers forked during a sweep inherit the wrappers. Each
worker starts from zeroed totals and writes them to `dump_dir` when it
exits; `merge_dumps` folds them into the sweeping process's totals.
"""

import functools
import json
import multiprocessing.util
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

from fr3ris.association import count_feasible_associations


def _count_matvec(counts, args, out):
    # computed, not measured: read H, read x, write the result once
    m, n = args[0].shape
    counts["numerics.matvec_bytes"] += 16 * (m * n + m + n)
    counts["numerics.matvec_flops"] += 8 * m * n


def _count_exhaustive(counts, args, out):
    channels = args[0]
    counts["association.exhaustive_candidates"] += count_feasible_associations(
        channels.num_ius, channels.num_riss)


def _count_sca(counts, args, out):
    trace = out[1]
    counts["power_sca.outer_iters"] += trace.iterations
    counts["power_sca.outer_unconverged"] += not trace.converged


def _count_inner(counts, args, out):
    # _kernels.solve_inner(g, sigma2, rho_col, p0, p_max, tol, max_iter, ...)
    # returns (p, n_iter, converged)
    _, n_iter, converged = out
    counts["power_sca.inner_iters"] += n_iter
    if not converged:
        if n_iter >= args[6]:
            counts["power_sca.inner_capped"] += 1
        else:
            counts["power_sca.inner_stalled"] += 1


# (module, function, layer, counter hook)
TIMED = (
    ("fr3ris.topology", "sample_topology", "topology.sample", None),
    ("fr3ris.channel", "synthesize_channels", "channel.synthesize", None),
    ("fr3ris.channel", "gains_for_association", "channel.gains", None),
    ("fr3ris.numerics", "matvec_hermitian", "numerics.matvec", _count_matvec),
    ("fr3ris.association", "utility_matrix", "association.utility", None),
    ("fr3ris.association", "match_deferred_acceptance",
     "association.matching", None),
    ("fr3ris.association", "greedy_association", "association.greedy", None),
    ("fr3ris.association", "random_association", "association.random", None),
    ("fr3ris.association", "exhaustive_association", "association.exhaustive",
     _count_exhaustive),
    ("fr3ris.power_sca", "sca_power", "power_sca.sca", _count_sca),
    ("fr3ris._kernels", "solve_inner", "power_sca.inner", _count_inner),
    ("fr3ris.rate", "sum_rate", "rate.sum_rate", None),
)

# Called thousands of times per realization inside the inner solver, so
# only counted: timing each call would inflate the SCA layer it sits in.
COUNTED = (
    ("fr3ris._kernels", "surrogate_value", "power_sca.surrogate_evals"),
)

TABLES = ("calls", "self_s", "counts", "section_s")


def rebind(original, replacement):
    """Point every fr3ris module attribute bound to `original` at
    `replacement`."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "fr3ris" or name.startswith("fr3ris.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """Per-layer call counts and self seconds, derived counts, and
    per-scheme section seconds."""

    def __init__(self, dump_dir):
        self.dump_dir = Path(dump_dir)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.section_s = defaultdict(float)
        self._child_s = []  # traced time spent in callees, per open call
        self._section = None  # scheme whose share of a realization runs now

    def install(self):
        """Wrap the traced functions; fr3ris must already be imported."""
        for module_name, func, layer, hook in TIMED:
            original = getattr(sys.modules[module_name], func)
            rebind(original, self._timed(original, layer, hook))
        for module_name, func, counter in COUNTED:
            original = getattr(sys.modules[module_name], func)
            rebind(original, self._counted(original, counter))
        experiment = sys.modules["fr3ris.experiment"]
        run_schemes = experiment._run_schemes
        associate = experiment._associate

        def traced_run_schemes(*args, **kwargs):
            self._section = None
            return run_schemes(*args, **kwargs)

        def traced_associate(scheme, *args, **kwargs):
            self._section = scheme
            return timed_associate(scheme, *args, **kwargs)

        timed_associate = self._timed(associate, None, None)
        experiment._run_schemes = traced_run_schemes
        experiment._associate = traced_associate
        multiprocessing.util.register_after_fork(self, Tracer._in_worker)

    def _timed(self, fn, layer, hook):
        stack = self._child_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if layer is not None:
                    self.self_s[layer] += dt - child
                    self.calls[layer] += 1
                if stack:
                    stack[-1] += dt
                elif self._section is not None:
                    self.section_s[self._section] += dt
            if hook is not None:
                hook(self.counts, args, out)
            return out

        return traced

    def _counted(self, fn, counter):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _in_worker(self):
        # runs in a freshly forked pool worker, after multiprocessing has
        # cleared the parent's finalizers; the wrappers close over these
        # same dicts, so clear them in place
        for key in TABLES:
            getattr(self, key).clear()
        del self._child_s[:]
        self._section = None
        multiprocessing.util.Finalize(None, self._dump, exitpriority=10)

    def _dump(self):
        path = self.dump_dir / f"trace-{os.getpid()}.json"
        path.write_text(json.dumps(self.totals()))

    def totals(self):
        return {key: dict(getattr(self, key)) for key in TABLES}

    def merge_dumps(self):
        """Add every worker's totals to this process's."""
        for path in self.dump_dir.glob("trace-*.json"):
            data = json.loads(path.read_text())
            for key in TABLES:
                table = getattr(self, key)
                for name, value in data[key].items():
                    table[name] += value
