import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (project_capped_simplex_loop,
                     project_capped_simplex_oracle, rand_complex)
from fr3ris import numerics
from fr3ris._kernels import project_capped_simplex
from fr3ris.errors import DimensionError


def _dot_oracle(a, b):
    acc = 0j
    for x, y in zip(a, b):
        acc += np.conj(x) * y
    return acc


def test_matvec_hermitian_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        numerics.matvec_hermitian(np.ones(4), np.ones(4))
    # x is a (rows, m) matrix, even for one row, and must match h's m rows
    with pytest.raises(DimensionError, match=r"x must be a \(rows, m\) matrix"):
        numerics.matvec_hermitian(np.ones((3, 2)), np.ones(3))
    with pytest.raises(DimensionError, match="h has 3 rows but x has 2"):
        numerics.matvec_hermitian(np.ones((3, 2)), np.ones((4, 2)))
    with pytest.raises(DimensionError):
        numerics.matvec_hermitian(np.ones((3, 2)), np.ones((2, 4, 3)))


def test_matvec_hermitian_rows_frozen_example():
    # one product per row of x
    h = np.array([[1 + 1j, 2], [0, 1j]])
    x = np.array([[1.0, 1j], [1j, 0.0], [0.0, 2.0]])
    got = numerics.matvec_hermitian(h, x)
    np.testing.assert_allclose(
        got, np.array([[1 - 1j, 3 + 0j], [1 + 1j, 2j], [0j, -2j]]), atol=1e-15)


def test_matvec_hermitian_rows_match_loop_oracle():
    rng = np.random.default_rng(12)
    for _ in range(25):
        rows = int(rng.integers(1, 8))
        m = int(rng.integers(1, 30))
        n = int(rng.integers(1, 30))
        h = rand_complex(rng, m, n)
        x = rand_complex(rng, rows, m)
        ref = np.array([[_dot_oracle(h[:, j], x[r]) for j in range(n)]
                        for r in range(rows)])
        got = numerics.matvec_hermitian(h, x)
        assert got.shape == (rows, n)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_projection_frozen_example():
    q = project_capped_simplex(np.array([3.0, 4.0]), 5.0)
    np.testing.assert_allclose(q, [2.0, 3.0], atol=1e-12)


def test_projection_identity_inside_the_set():
    p = np.array([0.5, 0.25, 0.0])
    np.testing.assert_array_equal(project_capped_simplex(p, 1.0), p)
    # negatives clamp even when the budget is slack
    q = project_capped_simplex(np.array([-1.0, 0.3]), 1.0)
    np.testing.assert_allclose(q, [0.0, 0.3], atol=1e-15)


def test_projection_feasibility_and_idempotence():
    rng = np.random.default_rng(10)
    for _ in range(200):
        k = int(rng.integers(1, 12))
        p = rng.standard_normal(k) * 10.0
        p_max = float(rng.uniform(0.1, 5.0))
        q = project_capped_simplex(p, p_max)
        assert np.all(q >= 0.0)
        assert q.sum() <= p_max + 1e-9
        q2 = project_capped_simplex(q, p_max)
        np.testing.assert_allclose(q2, q, atol=1e-12)


def test_projection_is_nearest_feasible_point():
    # the projection must beat a large cloud of random feasible candidates
    rng = np.random.default_rng(11)
    for _ in range(20):
        k = int(rng.integers(2, 8))
        p = rng.standard_normal(k) * 4.0
        p_max = float(rng.uniform(0.5, 3.0))
        q = project_capped_simplex(p, p_max)
        z = rng.random((5000, k))
        z = z / z.sum(axis=1, keepdims=True) * (rng.random((5000, 1)) * p_max)
        best = np.min(np.linalg.norm(z - p, axis=1))
        assert np.linalg.norm(q - p) <= best + 1e-9


# entries mix free floats with a few fixed values, so ties, zeros and
# negatives all turn up often
_entries = st.one_of(
    st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
    st.sampled_from([-1.0, 0.0, 0.5, 2.0]))


@settings(max_examples=400, deadline=None)
@given(y=st.lists(_entries, min_size=1, max_size=12),
       p_max=st.floats(0.01, 20.0), shrink_inside=st.booleans())
def test_projection_matches_bisection_oracle(y, p_max, shrink_inside):
    y = np.array(y)
    positive = np.maximum(y, 0.0).sum()
    if shrink_inside and positive > p_max:
        # scale into the set (up to rounding) to cover the clamp-only branch
        y = y * (p_max / positive)
    q = project_capped_simplex(y, p_max)
    ref = project_capped_simplex_oracle(y, p_max)
    scale = max(1.0, p_max, float(np.abs(y).max()))
    np.testing.assert_allclose(q, ref, rtol=0.0, atol=1e-9 * scale)
    assert np.all(q >= 0.0)
    assert q.sum() <= p_max + 1e-9 * scale


# dyadic entries and budgets keep the threshold sums exact, so entries
# that tie, or that sit exactly at the threshold, turn up often
_dyadic = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 3.0])


@settings(max_examples=400, deadline=None)
@given(y=st.lists(st.one_of(_dyadic, _entries), min_size=1, max_size=12),
       p_max=st.one_of(st.sampled_from([0.25, 0.5, 1.0, 2.0]),
                       st.floats(0.01, 20.0)))
@example(y=[2.0, 1.0], p_max=1.0)  # 1.0 sits exactly at the threshold
@example(y=[1.0, 1.0, 1.0], p_max=1.0)  # ties above the budget
@example(y=[3.0, -1.0, 3.0, 0.0], p_max=2.0)  # ties and a negative
@example(y=[-1.0, 0.3], p_max=1.0)  # feasible once clamped
@example(y=[0.25, 0.5], p_max=1.0)  # already feasible
def test_projection_equals_the_loop_threshold_search(y, p_max):
    y = np.array(y)
    assert np.array_equal(project_capped_simplex(y, p_max),
                          project_capped_simplex_loop(y, p_max))
