import numpy as np
import pytest

from fr3ris.channel import GainMatrix
from fr3ris.errors import DimensionError, NumericError
from fr3ris.rate import sum_rate

from oracles import interference, rate_oracle, sinr


def _random_gm(rng, k=3, sigma=None):
    g = rng.random((k, k)) + 0.05
    noise = sigma if sigma is not None else rng.uniform(0.1, 1.0, size=k)
    return GainMatrix(g=g, noise_power=noise)


def test_interference_single_iu_is_noise_only():
    gm = GainMatrix(g=np.array([[3.0]]), noise_power=0.25)
    assert interference(gm, np.array([7.0]), 0) == 0.25


def test_interference_hand_sum():
    gm = GainMatrix(g=np.array([[5.0, 1.0], [1.0, 5.0]]), noise_power=1.0)
    assert interference(gm, np.array([1.0, 1.0]), 0) == pytest.approx(2.0)
    assert interference(gm, np.array([1.0, 1.0]), 1) == pytest.approx(2.0)


def test_interference_matches_loop_oracle():
    rng = np.random.default_rng(60)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        gm = _random_gm(rng, k)
        p = rng.uniform(0, 2, size=k)
        for kk in range(k):
            ref = gm.noise_power[kk] + sum(
                p[i] * gm.g[kk, i] for i in range(k) if i != kk)
            assert interference(gm, p, kk) == pytest.approx(ref, rel=1e-12)


def test_sinr_hand_examples():
    gm = GainMatrix(g=np.array([[2.0, 1.0], [1.0, 2.0]]), noise_power=1.0)
    p = np.array([1.0, 1.0])
    assert sinr(gm, p, 0) == pytest.approx(1.0, rel=1e-12)
    # zero own power
    assert sinr(gm, np.array([0.0, 1.0]), 0) == 0.0
    # lone IU with p*g equal to noise
    gm1 = GainMatrix(g=np.array([[0.5]]), noise_power=1.0)
    assert sinr(gm1, np.array([2.0]), 0) == pytest.approx(1.0, rel=1e-12)


def test_sum_rate_frozen_examples():
    gm = GainMatrix(g=np.eye(2), noise_power=1.0)
    rep = sum_rate(gm, np.array([1.0, 1.0]))
    assert rep.sum_rate == pytest.approx(2.0, rel=1e-12)
    rep0 = sum_rate(gm, np.zeros(2))
    assert rep0.sum_rate == 0.0
    assert np.all(rep0.per_iu_sinr == 0.0)


def test_rate_report_internal_consistency():
    rng = np.random.default_rng(61)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        gm = _random_gm(rng, k)
        p = rng.uniform(0, 2, size=k)
        rep = sum_rate(gm, p)
        np.testing.assert_allclose(rep.per_iu_rate,
                                   np.log2(1 + rep.per_iu_sinr), atol=1e-12)
        assert rep.sum_rate == pytest.approx(rep.per_iu_rate.sum(), abs=1e-12)
        for kk in range(k):
            assert rep.per_iu_sinr[kk] == pytest.approx(sinr(gm, p, kk),
                                                        rel=1e-12)


def test_sum_rate_matches_independent_oracle():
    rng = np.random.default_rng(62)
    for _ in range(100):
        k = int(rng.integers(1, 6))
        gm = _random_gm(rng, k)
        p = rng.uniform(0, 2, size=k)
        sinrs, rates, total = rate_oracle(gm.g, gm.noise_power, p)
        rep = sum_rate(gm, p)
        np.testing.assert_allclose(rep.per_iu_sinr, sinrs, rtol=1e-10)
        np.testing.assert_allclose(rep.per_iu_rate, rates, rtol=1e-10)
        assert rep.sum_rate == pytest.approx(total, rel=1e-10)


def test_own_power_monotonicity():
    rng = np.random.default_rng(63)
    for _ in range(50):
        gm = _random_gm(rng, 3)
        p = rng.uniform(0.1, 1.0, size=3)
        k = int(rng.integers(0, 3))
        bumped = p.copy()
        bumped[k] += 0.5
        before, after = sum_rate(gm, p), sum_rate(gm, bumped)
        assert after.per_iu_rate[k] >= before.per_iu_rate[k] - 1e-12
        for i in range(3):
            if i != k:
                assert after.per_iu_rate[i] <= before.per_iu_rate[i] + 1e-12


def test_sinr_scale_free_in_gains_and_noise():
    rng = np.random.default_rng(64)
    for _ in range(20):
        gm = _random_gm(rng, 4)
        p = rng.uniform(0, 2, size=4)
        c = float(rng.uniform(0.01, 100))
        scaled = GainMatrix(g=c * gm.g, noise_power=c * gm.noise_power)
        np.testing.assert_allclose(sum_rate(scaled, p).per_iu_sinr,
                                   sum_rate(gm, p).per_iu_sinr, rtol=1e-12)


def test_sum_rate_invariant_under_relabeling():
    rng = np.random.default_rng(65)
    for _ in range(20):
        k = 4
        gm = _random_gm(rng, k)
        p = rng.uniform(0, 2, size=k)
        perm = rng.permutation(k)
        gm_p = GainMatrix(g=gm.g[np.ix_(perm, perm)],
                          noise_power=gm.noise_power[perm])
        assert sum_rate(gm_p, p[perm]).sum_rate == pytest.approx(
            sum_rate(gm, p).sum_rate, rel=1e-12)


def test_power_vector_validation():
    gm = GainMatrix(g=np.eye(2), noise_power=1.0)
    with pytest.raises(DimensionError):
        sum_rate(gm, np.ones(3))
    with pytest.raises(NumericError):
        sum_rate(gm, np.array([1.0, -0.5]))
    with pytest.raises(NumericError):
        sum_rate(gm, np.array([np.inf, 0.0]))
