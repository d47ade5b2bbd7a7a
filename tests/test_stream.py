"""The in-tree PCG64 stream against numpy's Generator, and the sweep
processes that must never import numpy's random package."""

import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fr3ris.stream import Stream

# realization seeds, and [seed, scheme index] substreams
_seeds = st.one_of(
    st.integers(0, 2**66),
    st.tuples(st.integers(0, 2**66), st.integers(1, 4)).map(list))

# (draw, argument): uniform(0, side, 2), integers(high) and permutation(n);
# the wide integers rows reach Lemire's rejection and the full 32-bit range
_calls = st.lists(st.one_of(
    st.tuples(st.just("uniform"), st.floats(0.0, 1e4)),
    st.tuples(st.just("integers"), st.integers(1, 8)),
    st.tuples(st.just("integers"), st.integers(2**31, 2**32)),
    st.tuples(st.just("permutation"), st.integers(0, 9)),
), max_size=24)


def _draw(rng, call, arg):
    if call == "uniform":
        return [float(x) for x in rng.uniform(0.0, arg, size=2)]
    if call == "integers":
        return int(rng.integers(arg))
    return [int(x) for x in rng.permutation(arg)]


@settings(max_examples=300, deadline=None)
@given(seed=_seeds, calls=_calls)
# integers(1) draws nothing and leaves the buffered 32-bit half in place
@example(seed=5101, calls=[("integers", 5), ("integers", 1),
                           ("uniform", 80.0), ("integers", 3)])
# permutation(9) rejects draws above 8 in its first swap's mask of 15
@example(seed=[42, 3], calls=[("permutation", 9)] * 3)
# 2**31 + 1 rejects about every other 32-bit draw; 2**32 takes one whole
@example(seed=2**64 + 7, calls=[("integers", 2**31 + 1)] * 12
         + [("integers", 2**32), ("permutation", 6)])
def test_stream_draws_equal_numpys_default_rng(seed, calls):
    ours, numpys = Stream(seed), np.random.default_rng(seed)
    for call, arg in calls:
        assert _draw(ours, call, arg) == _draw(numpys, call, arg), (call, arg)


# (id, call on a fresh Stream(0), message)
_REFUSED = [
    ("negative-entropy", lambda s: Stream(-1), "non-negative int"),
    ("negative-entropy-word", lambda s: Stream([3, -1]), "non-negative int"),
    ("float-entropy", lambda s: Stream(1.5), "non-negative int"),
    ("nested-entropy", lambda s: Stream([[1, 2]]), "non-negative int"),
    ("integers-0", lambda s: s.integers(0), "high in 1..2**32"),
    ("integers-past-32-bits", lambda s: s.integers(2**32 + 1),
     "high in 1..2**32"),
    ("integers-float", lambda s: s.integers(3.0), "high in 1..2**32"),
    ("permutation-negative", lambda s: s.permutation(-1),
     "n in 0..2**32"),
    ("permutation-past-32-bits", lambda s: s.permutation(2**32 + 1),
     "n in 0..2**32"),
    ("uniform-reversed", lambda s: s.uniform(1.0, 0.0, 2),
     "finite low <= high"),
    ("uniform-infinite", lambda s: s.uniform(0.0, math.inf, 2),
     "finite low <= high"),
    ("uniform-nan", lambda s: s.uniform(0.0, math.nan, 2),
     "finite low <= high"),
    ("uniform-negative-size", lambda s: s.uniform(0.0, 1.0, -1),
     "size must be an int >= 0"),
]


@pytest.mark.parametrize("call, message", [r[1:] for r in _REFUSED],
                         ids=[r[0] for r in _REFUSED])
def test_draws_numpy_would_make_otherwise_are_refused(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call(Stream(0))


# numpy 1.x imports numpy.random with numpy itself, which exits 77
_GUARDED_CLI = """
import os, sys
import numpy
if "numpy.random" in sys.modules:
    sys.exit(77)
sys.modules["numpy.random"] = None
# the sweep caps its workers at the core count; two, so one core forks too
os.cpu_count = lambda: 2
from fr3ris import cli
code = cli.main(sys.argv[1:])
print("forked" if "multiprocessing" in sys.modules else "serial")
sys.exit(code)
"""


# (FR3_THREADS, verb and values, how the sweep ran, CSV rows)
@pytest.mark.parametrize("threads, argv, ran, rows", [
    ("", ["run"], "serial", 4),
    ("2", ["sweep-elements", "--values", "4,16"], "forked", 8),
])
def test_no_sweep_process_imports_numpy_random(threads, argv, ran, rows,
                                               tmp_path, cli_env):
    # an import of numpy.random in the sweeping process or in a forked
    # worker raises ImportError and fails the run
    out = tmp_path / "x.csv"
    proc = subprocess.run(
        [sys.executable, "-c", _GUARDED_CLI, *argv, "--out", str(out),
         "--realizations", "2"],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(cli_env, FR3_THREADS=threads))
    if proc.returncode == 77:
        pytest.skip(f"numpy {np.__version__} imports numpy.random itself")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [ran]
    assert out.read_text().count("\n") == 1 + rows
