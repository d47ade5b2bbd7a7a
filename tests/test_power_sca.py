import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fr3ris import _kernels
from fr3ris.channel import GainMatrix
from fr3ris.errors import NumericError
from fr3ris._kernels import ARMIJO_BETA, ARMIJO_C
from fr3ris.power_sca import (INNER_MAX, INNER_TOL, sca_power, solve_inner,
                              surrogate_gradient)
from fr3ris.rate import sum_rate

from oracles import (armijo_inner_oracle, grid_max, random_feasible_points,
                     smooth_instance, sum_rate_batch, surrogate_batch,
                     surrogate_objective, surrogate_rate_bound)


def _instance(rng, k=3, noise_lo=0.3, noise_hi=1.0):
    g = rng.uniform(0.05, 1.0, size=(k, k))
    g[np.diag_indices(k)] = rng.uniform(0.5, 2.0, size=k)
    noise = rng.uniform(noise_lo, noise_hi, size=k)
    return GainMatrix(g=g, noise_power=noise)


def test_surrogate_gradient_frozen_value():
    # off-diagonal gain 2 against interference 4: 2 / (4 ln 2) = 0.72135
    gm = GainMatrix(g=np.array([[1.0, 2.0], [0.5, 1.0]]),
                    noise_power=np.array([2.0, 2.0]))
    p_t = np.array([0.7, 1.0])  # I_0 = 1.0 * 2.0 + 2.0 = 4.0
    rho = surrogate_gradient(gm, p_t)
    assert rho[0, 1] == pytest.approx(0.72135, abs=1e-5)
    assert rho[0, 0] == 0.0 and rho[1, 1] == 0.0


def test_surrogate_gradient_zero_gain_gives_zero():
    gm = GainMatrix(g=np.array([[1.0, 0.0], [0.0, 1.0]]), noise_power=1.0)
    rho = surrogate_gradient(gm, np.array([1.0, 1.0]))
    assert np.all(rho == 0.0)


def test_surrogate_gradient_matches_finite_differences():
    rng = np.random.default_rng(70)
    h = 1e-6
    for _ in range(100):
        k = int(rng.integers(2, 5))
        gm = _instance(rng, k)
        p_t = rng.uniform(0.1, 1.0, size=k)
        rho = surrogate_gradient(gm, p_t)
        for kk in range(k):
            for i in range(k):
                if i == kk:
                    continue

                def log_interf(pi):
                    p = p_t.copy()
                    p[i] = pi
                    row = gm.g[kk]
                    return np.log2(row @ p - row[kk] * p[kk]
                                   + gm.noise_power[kk])

                fd = (log_interf(p_t[i] + h) - log_interf(p_t[i] - h)) / (2 * h)
                assert rho[kk, i] == pytest.approx(fd, rel=1e-5)


def test_surrogate_objective_matches_direct_formula():
    rng = np.random.default_rng(71)
    for _ in range(20):
        k = int(rng.integers(1, 5))
        gm = _instance(rng, k)
        p_t = rng.uniform(0.1, 1.0, size=k)
        p = rng.uniform(0.0, 1.0, size=k)
        rho = surrogate_gradient(gm, p_t)
        direct = sum(
            np.log2(gm.g[kk] @ p + gm.noise_power[kk]) - rho[kk] @ p
            for kk in range(k))
        assert surrogate_objective(gm, p, rho) == pytest.approx(direct,
                                                                rel=1e-12)


def test_no_interference_surrogate_is_rate_shifted_by_constant():
    rng = np.random.default_rng(72)
    gm = GainMatrix(g=np.diag([1.5, 0.7, 2.2]), noise_power=0.5)
    rho = surrogate_gradient(gm, np.array([0.3, 0.3, 0.3]))
    shifts = []
    for _ in range(20):
        p = rng.uniform(0, 1, size=3)
        shifts.append(surrogate_objective(gm, p, rho)
                      - sum_rate(gm, p).sum_rate)
    assert np.ptp(shifts) < 1e-10


def test_minorant_bound_and_tightness():
    rng = np.random.default_rng(73)
    for _ in range(20):
        gm = _instance(rng, 3)
        p_max = float(rng.uniform(0.5, 2.0))
        p_t = random_feasible_points(rng, 1, 3, p_max)[0]
        tight = surrogate_rate_bound(gm, p_t, p_t)
        np.testing.assert_allclose(tight, sum_rate(gm, p_t).per_iu_rate,
                                   atol=1e-9)
        for p in random_feasible_points(rng, 200, 3, p_max):
            bound = surrogate_rate_bound(gm, p, p_t)
            true = sum_rate(gm, p).per_iu_rate
            assert np.all(bound <= true + 1e-9)


def test_solve_inner_single_iu_saturates_budget():
    gm = GainMatrix(g=np.array([[2.0]]), noise_power=0.5)
    p, n_iter, converged = solve_inner(gm, np.array([0.1]), 1.7)
    assert converged and n_iter >= 1
    assert p[0] == pytest.approx(1.7, abs=1e-8)


def test_solve_inner_symmetric_instance_stays_symmetric():
    gm = GainMatrix(g=np.array([[2.0, 0.4], [0.4, 2.0]]), noise_power=0.3)
    p, _, converged = solve_inner(gm, np.array([0.5, 0.5]), 1.0)
    assert converged
    assert p[0] == pytest.approx(p[1], abs=1e-8)
    assert p.sum() <= 1.0 + 1e-12


def test_solve_inner_never_worse_than_expansion_point():
    rng = np.random.default_rng(74)
    for _ in range(50):
        k = int(rng.integers(1, 5))
        gm = _instance(rng, k)
        p_max = float(rng.uniform(0.5, 2.0))
        p_t = random_feasible_points(rng, 1, k, p_max)[0]
        rho = surrogate_gradient(gm, p_t)
        p, _, _ = solve_inner(gm, p_t, p_max)
        assert np.all(p >= 0.0) and p.sum() <= p_max + 1e-9
        assert (surrogate_objective(gm, p, rho)
                >= surrogate_objective(gm, p_t, rho) - 1e-12)


def test_solve_inner_matches_grid_search():
    rng = np.random.default_rng(75)
    for _ in range(6):
        k = int(rng.integers(1, 4))
        gm = smooth_instance(rng, k)
        p_max = float(rng.uniform(0.8, 1.5))
        p_t = random_feasible_points(rng, 1, k, p_max)[0]
        rho = surrogate_gradient(gm, p_t)
        p, _, _ = solve_inner(gm, p_t, p_max)
        got = surrogate_objective(gm, p, rho)
        ref = grid_max(
            lambda pts: surrogate_batch(gm.g, gm.noise_power, rho, pts),
            k, p_max)
        assert got == pytest.approx(ref, abs=1e-6)


@settings(max_examples=150, deadline=None)
@given(k=st.integers(1, 8), rank_one=st.booleans(),
       log_snr=st.floats(0.0, 6.0), seed=st.integers(0, 2 ** 32 - 1))
@example(k=5, rank_one=True, log_snr=6.0, seed=1)
@example(k=8, rank_one=False, log_snr=0.0, seed=2)
def test_newton_inner_solver_matches_armijo_oracle(k, rank_one, log_snr,
                                                   seed):
    # dense gains, or rank-one g = a b^T whose Hessian is singular; the
    # gain-to-noise ratio spans 1 to 1e6, the default scenario's range
    rng = np.random.default_rng(seed)
    if rank_one:
        g = np.outer(rng.uniform(0.05, 1.0, k), rng.uniform(0.05, 1.0, k))
    else:
        g = rng.uniform(0.05, 1.0, (k, k))
    gm = GainMatrix(g=g, noise_power=rng.uniform(0.5, 1.0, k) * 10.0 ** -log_snr)
    p_max = float(rng.uniform(0.1, 2.0))
    p_t = random_feasible_points(rng, 1, k, p_max)[0]
    rho_col = surrogate_gradient(gm, p_t).sum(axis=0)
    args = (gm.g, gm.noise_power, rho_col, p_t, p_max, INNER_TOL, INNER_MAX)
    p, _, converged = _kernels.solve_inner(*args)
    ref, _, _ = armijo_inner_oracle(*args, ARMIJO_C, ARMIJO_BETA)
    assert converged
    # the projection's threshold leaves the sum within rounding of p_max
    assert np.all(p >= 0.0) and p.sum() <= p_max * (1.0 + 1e-12)
    value = _kernels.surrogate_value(gm.g, gm.noise_power, rho_col, p)
    assert value >= _kernels.surrogate_value(
        gm.g, gm.noise_power, rho_col, ref) - 1e-10


def test_sca_trace_is_monotone_and_beats_uniform():
    rng = np.random.default_rng(76)
    for _ in range(30):
        k = int(rng.integers(1, 5))
        gm = _instance(rng, k)
        p_max = float(rng.uniform(0.5, 2.0))
        p, trace = sca_power(gm, p_max)
        obj = np.asarray(trace.objective_per_iteration)
        assert np.all(np.diff(obj) >= -1e-9)
        uniform = sum_rate(gm, np.full(k, p_max / k)).sum_rate
        assert obj[-1] >= uniform - 1e-9
        assert np.all(p >= 0) and p.sum() <= p_max + 1e-9
        assert sum_rate(gm, p).sum_rate == pytest.approx(obj[-1], rel=1e-12)


def test_sca_restart_at_fixed_point_converges_immediately():
    rng = np.random.default_rng(77)
    gm = _instance(rng, 3)
    p_star, trace = sca_power(gm, 1.0)
    assert trace.converged
    p2, trace2 = sca_power(gm, 1.0, init=p_star)
    assert trace2.iterations == 1
    assert trace2.converged
    np.testing.assert_allclose(p2, p_star, atol=1e-6)


def test_sca_no_interference_converges_fast_to_grid_optimum():
    # water-filling optimum of this instance is exactly (0.5, 0.3, 0.2),
    # which lies on the 200-step grid
    gm = GainMatrix(g=np.diag([4.0, 4.0 / 3.0, 1.0]), noise_power=0.4)
    p, trace = sca_power(gm, 1.0)
    assert trace.iterations <= 2
    np.testing.assert_allclose(p, [0.5, 0.3, 0.2], atol=1e-6)
    ref = grid_max(lambda pts: sum_rate_batch(gm.g, gm.noise_power, pts),
                   3, 1.0)
    assert sum_rate(gm, p).sum_rate == pytest.approx(ref, abs=1e-6)


def test_sca_feasibility_of_every_outer_iterate():
    rng = np.random.default_rng(78)
    gm = _instance(rng, 3)
    p_max = 1.0
    p = np.full(3, p_max / 3)
    for _ in range(10):
        p, _, _ = solve_inner(gm, p, p_max)
        assert np.all(p >= 0.0)
        assert p.sum() <= p_max + 1e-12


def test_sca_rejects_infeasible_start():
    gm = GainMatrix(g=np.eye(2), noise_power=1.0)
    with pytest.raises(NumericError):
        sca_power(gm, 1.0, init=np.array([0.8, 0.8]))
    with pytest.raises(NumericError):
        solve_inner(gm, np.array([0.1, 0.1]), -1.0)


@pytest.mark.parametrize("init", [None, np.array([0.1, 0.1])],
                         ids=["uniform", "init"])
@pytest.mark.parametrize("p_max", [0.0, -1.0, np.nan, np.inf])
def test_sca_rejects_bad_budget_as_a_budget(p_max, init):
    gm = GainMatrix(g=np.eye(2), noise_power=1.0)
    with pytest.raises(NumericError, match="p_max must be positive"):
        sca_power(gm, p_max, init=init)
