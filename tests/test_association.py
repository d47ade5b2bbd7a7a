import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fr3ris import association, experiment
from fr3ris.association import (Association, count_feasible_associations,
                                exhaustive_association, greedy_association,
                                match_deferred_acceptance, random_association,
                                utility_matrix)
from fr3ris.channel import ChannelSet, gains_for_association
from fr3ris.config import ScenarioConfig
from fr3ris.errors import DimensionError, NumericError, SizeError
from fr3ris.rate import association_sum_rate
from fr3ris.topology import NetworkTopology, sample_topology
from fr3ris.channel import synthesize_channels

from oracles import (blocking_pair_oracle, empty_association,
                     exhaustive_loop_oracle, gain_matrix_oracle,
                     rand_channelset, rate_oracle, served_ris,
                     utility_gather_oracle)


class _PickLast:
    # stands in for a random source; always picks the last candidate
    def integers(self, n):
        return n - 1


class _PickFirst:
    def integers(self, n):
        return 0


def _alone(k, l, k_count, l_count):
    # the association that puts IU k alone on RIS l
    links = np.zeros(k_count, dtype=np.intp)
    links[k] = l + 1
    return Association(links=links, num_riss=l_count)


def test_association_constraint_validation():
    for gamma, links in ((np.array([[1, 0], [0, 1]]), [1, 2]),
                         (np.zeros((3, 0), dtype=int), [0, 0, 0])):
        assert Association.from_gamma(gamma).links.tolist() == links


_BAD_GAMMAS = [
    (np.array([[1, 1], [0, 0]]), DimensionError, "one-to-one"),
    (np.array([[1, 0], [1, 0]]), DimensionError, "one-to-one"),
    (np.zeros(2, dtype=int), DimensionError,
     r"gamma must be 2-d, got shape \(2,\)"),
]


@pytest.mark.parametrize("gamma, error, match", _BAD_GAMMAS,
                         ids=["iu-on-two-surfaces", "surface-serving-two-ius",
                              "1-d"])
def test_a_raw_gamma_is_refused_alike_by_every_entry_point(gamma, error,
                                                           match):
    # a raw gamma takes one path: its conversion into the link-vector check
    ch = rand_channelset(np.random.default_rng(54), k=2, l=2, m=3, n=4)
    for score in (Association.from_gamma,
                  lambda g: gains_for_association(ch, g, 1e-11),
                  lambda g: association_sum_rate(ch, g, np.ones(2), 1e-11)):
        with pytest.raises(error, match=match):
            score(gamma)


@pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
def test_association_rejects_non_binary_entries(bad):
    with pytest.raises(NumericError, match="0 or 1"):
        Association.from_gamma(np.array([[bad, 0.0], [0.0, 0.0]]))


@pytest.mark.parametrize("gamma", [
    np.array([[True, False], [False, True]]),
    np.array([[1.0, 0.0], [0.0, 0.0]]),
])
def test_association_accepts_bool_and_float_zero_one(gamma):
    a = Association.from_gamma(gamma)
    assert a.gamma.dtype == np.int64
    np.testing.assert_array_equal(a.gamma, gamma)


def test_association_helpers():
    a = Association(links=[3, 0, 2], num_riss=3)
    assert served_ris(a, 0) == 2
    assert served_ris(a, 1) == -1
    assert served_ris(a, 2) == 1
    assert a.gamma.tolist() == [[0, 0, 1], [0, 0, 0], [0, 1, 0]]
    assert empty_association(2, 2).links.tolist() == [0, 0]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), k=st.integers(1, 6), l=st.integers(0, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_link_vector_round_trips_through_gamma(data, k, l, seed):
    # the first K entries of a shuffle of the surfaces and K direct links
    picks = data.draw(st.permutations(list(range(1, l + 1)) + [0] * k))[:k]
    source = np.array(picks)
    a = Association(links=source, num_riss=l)
    source[:] = 0  # the association holds its own read-only copy
    assert a.links.tolist() == picks and a.links.dtype == np.intp
    gamma = a.gamma
    assert gamma.shape == (k, l)
    assert not a.links.flags.writeable and not gamma.flags.writeable
    b = Association.from_gamma(gamma)
    assert np.array_equal(b.links, a.links) and b.num_riss == l
    assert b.links.dtype == np.intp
    # a raw gamma and its link vector gather the same gains
    ch = rand_channelset(np.random.default_rng(seed), k=k, l=l, m=2, n=2)
    assert np.array_equal(gains_for_association(ch, gamma, 1e-2).g,
                          gains_for_association(ch, a, 1e-2).g)


@pytest.mark.parametrize("links, error, match", [
    ([1, 1], DimensionError, "one-to-one"),       # RIS 0 twice
    ([0, 2, 2], DimensionError, "one-to-one"),    # RIS 1 twice
    ([3, 0], NumericError, r"0\.\.2"),           # above L
    ([-1, 0], NumericError, r"0\.\.2"),          # below 0
    ([0.5, 0.0], NumericError, "integers"),
    (np.array([1.0, np.nan]), NumericError, "integers"),
    ([[1, 0]], DimensionError, "1-d"),
    (1, DimensionError, "1-d"),
])
def test_link_vector_rejections(links, error, match):
    with pytest.raises(error, match=match):
        Association(links=links, num_riss=2)


def test_associations_compare_and_hash_by_link_vector():
    a = Association(links=[1, 0, 2], num_riss=2)
    same = Association(links=np.array([1, 0, 2], dtype=np.int8), num_riss=2)
    other = Association(links=[2, 0, 1], num_riss=2)
    wider = Association(links=[1, 0, 2], num_riss=3)
    assert a == same and hash(a) == hash(same)
    assert a != other
    assert a != wider
    assert a != Association(links=[1, 0], num_riss=2)
    assert a != [1, 0, 2]
    assert len({a, same, other, wider}) == 3
    memo = {a: "first"}
    memo[same] = "second"
    assert memo == {a: "second"}
    assert memo.get(wider) is None


def test_utility_matrix_empty_when_no_ris():
    rng = np.random.default_rng(80)
    ch = rand_channelset(rng, k=2, l=0, m=1, n=4)
    u = utility_matrix(ch, np.array([0.1, 0.1]), 1e-3)
    assert u.shape == (2, 0)


def test_utility_matrix_agrees_with_rate_module():
    # the loop definition: IU k's rate in the full gain matrix of the
    # association that puts k alone on RIS l
    from fr3ris.rate import sum_rate
    rng = np.random.default_rng(81)
    for k_count, l_count in [(2, 2), (1, 3), (5, 3), (4, 1), (3, 4)]:
        ch = rand_channelset(rng, k=k_count, l=l_count,
                             m=int(rng.integers(1, 6)),
                             n=int(rng.integers(1, 5)))
        p = rng.uniform(0.0, 0.5, k_count)
        noise = 10.0 ** rng.uniform(-3, 0)
        u = utility_matrix(ch, p, noise)
        assert u.shape == (k_count, l_count)
        for k in range(k_count):
            for l in range(l_count):
                gm = gains_for_association(
                    ch, _alone(k, l, k_count, l_count), noise)
                assert u[k, l] == sum_rate(gm, p).per_iu_rate[k]


def test_utility_matrix_zero_channel_fails_like_the_pairs_it_reads():
    # IU 0's direct channel is zero: with K = 1 no pair reads it; with
    # K = 2 every pair that leaves IU 0 on its direct link does
    rng = np.random.default_rng(82)
    for k_count in (1, 2):
        ch = rand_channelset(rng, k=k_count, l=2, m=4, n=4)
        direct = ch.direct.copy()
        direct[0] = 0.0
        ch = ChannelSet(direct=direct, ap_ris=ch.ap_ris, ris_iu=ch.ris_iu,
                        carrier_freq_hz=ch.carrier_freq_hz)
        if k_count == 1:
            assert np.all(np.isfinite(utility_matrix(ch, np.ones(1), 1e-2)))
        else:
            with pytest.raises(NumericError, match="IU 0"):
                utility_matrix(ch, np.ones(2), 1e-2)
    # IU 1's channel through RIS 0 is zero (its direct channel [0, 1]
    # meets the single element's [0, -1]) and IU 2's direct channel is
    # zero. Pair (0, 0), the first in row-major order, already reads IU
    # 2's direct channel, so the error names IU 2, not the lower IU 1.
    ch = rand_channelset(rng, k=3, l=2, m=1, n=2)
    direct, ap_ris = ch.direct.copy(), ch.ap_ris.copy()
    ris_iu = ch.ris_iu.copy()
    direct[1] = [0.0, 1.0]
    ap_ris[0, 0] = [0.0, 1.0]
    ris_iu[0, 1, 0] = -1.0
    direct[2] = 0.0
    ch = ChannelSet(direct=direct, ap_ris=ap_ris, ris_iu=ris_iu,
                    carrier_freq_hz=15e9)
    assert np.isnan(ch.link_gains[1, :, 1]).all()
    with pytest.raises(NumericError) as first:
        for k, l in itertools.product(range(3), range(2)):
            gains_for_association(ch, _alone(k, l, 3, 2), 1e-2)
    assert str(first.value) == "effective channel of IU 2 is zero"
    with pytest.raises(NumericError) as got:
        utility_matrix(ch, np.full(3, 0.2), 1e-2)
    assert str(got.value) == str(first.value)


def test_utility_matrix_favors_nearby_iu():
    # RIS sits next to IU 0 and far from IU 1
    topo = NetworkTopology(ap=[0.0, 0.0, 10.0],
                           riss=[[2.0, 9.0, 5.0]],
                           ius=[[2.0, 8.0, 1.5], [9.5, 0.5, 1.5]])
    cfg = ScenarioConfig(num_antennas=8, num_ius=2, num_riss=1,
                         ris_elements_y=5, ris_elements_z=5)
    ch = synthesize_channels(topo, cfg)
    u = utility_matrix(ch, np.array([0.1, 0.1]), cfg.noise_power_w)
    assert u[0, 0] > u[1, 0]


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 50), l=st.integers(0, 8), m=st.integers(1, 4),
       n=st.integers(1, 4), dense=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(k=50, l=8, m=3, n=4, dense=True, seed=1)
@example(k=50, l=8, m=25, n=4, dense=False, seed=2)
@example(k=3, l=0, m=2, n=3, dense=True, seed=3)  # no surfaces
def test_utility_matrix_equals_the_per_association_gather(k, l, m, n, dense,
                                                          seed):
    # dense: random complex links; else a seeded drop of geometric links
    # with an m x m surface
    rng = np.random.default_rng(seed)
    if dense:
        ch = rand_channelset(rng, k=k, l=l, m=m, n=n)
        p = rng.uniform(0.0, 1.0, k)
        noise = 10.0 ** rng.uniform(-3, 1)
    else:
        cfg = ScenarioConfig(num_ius=k, num_riss=l, ris_elements_y=m,
                             ris_elements_z=m, num_antennas=n)
        ch = synthesize_channels(sample_topology(cfg, rng), cfg)
        p = rng.dirichlet(np.ones(k)) * cfg.p_max_w
        noise = cfg.noise_power_w
    u = utility_matrix(ch, p, noise)
    assert u.shape == (k, l)
    assert np.array_equal(u, utility_gather_oracle(ch, p, noise))


def test_utility_matrix_memory_is_bounded():
    # K = 50, L = 8, M = 625: one K x K matrix per (k, l) pair would hold
    # 20 000 matrices of 2 500 gains, 9 MB at a time; the (L, K, K) stack
    # holds 160 kB
    cfg = ScenarioConfig(num_ius=50, num_riss=8, ris_elements_y=25,
                         ris_elements_z=25)
    rng = np.random.default_rng(94)
    ch = synthesize_channels(sample_topology(cfg, rng), cfg)
    p = np.full(cfg.num_ius, cfg.p_max_w / cfg.num_ius)
    utility_matrix(ch, p, cfg.noise_power_w)  # first-call costs
    tracemalloc.start()
    try:
        u = utility_matrix(ch, p, cfg.noise_power_w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert u.shape == (50, 8)
    assert peak < 1 << 20, f"peak {peak / 2 ** 20:.2f} MB"


def test_deferred_acceptance_hand_traces():
    # both IUs want RIS 0; it keeps the higher bid, loser settles for RIS 1
    a = match_deferred_acceptance(np.array([[5.0, 1.0], [4.0, 2.0]]))
    assert a.links.tolist() == [1, 2]
    # no conflict: both get their first choice
    b = match_deferred_acceptance(np.array([[3.0, 1.0], [2.0, 4.0]]))
    assert b.links.tolist() == [1, 2]
    c = match_deferred_acceptance(np.array([[0.5]]))
    assert c.links.tolist() == [1]


def test_deferred_acceptance_stability_exhaustively_verified():
    u = np.array([[5.0, 1.0], [4.0, 2.0]])
    a = match_deferred_acceptance(u)
    assert blocking_pair_oracle(u, a.links) is None
    # and the blocking-pair scan does flag an unstable association
    bad = Association(links=[2, 1], num_riss=2)
    assert blocking_pair_oracle(u, bad.links) == (0, 0)


def test_deferred_acceptance_skips_zero_utilities():
    u = np.array([[0.0, 0.0], [3.0, 0.0]])
    a = match_deferred_acceptance(u)
    assert a.links.tolist() == [0, 1]


def test_deferred_acceptance_tie_rules():
    # equal bids on RIS 0: lower IU index wins
    a = match_deferred_acceptance(np.array([[2.0, 1.0], [2.0, 1.5]]))
    assert a.links.tolist() == [1, 2]
    # equal utilities within one row: lower RIS index tried first
    b = match_deferred_acceptance(np.array([[2.0, 2.0]]))
    assert b.links.tolist() == [1]


def test_deferred_acceptance_stable_on_random_instances():
    rng = np.random.default_rng(82)
    for _ in range(300):
        k = int(rng.integers(1, 7))
        l = int(rng.integers(0, 7))
        u = rng.uniform(0, 5, size=(k, l))
        u[rng.random(size=(k, l)) < 0.2] = 0.0
        a = match_deferred_acceptance(u)
        assert blocking_pair_oracle(u, a.links) is None


@settings(max_examples=300, deadline=None)
@given(data=st.data(), k=st.integers(1, 6), l=st.integers(0, 5))
def test_deferred_acceptance_stable_with_ties(data, k, l):
    # small integer utilities: ties and non-positive entries are common
    rows = data.draw(st.lists(st.lists(st.integers(-1, 3), min_size=l,
                                       max_size=l),
                              min_size=k, max_size=k))
    u = np.array(rows, dtype=np.float64).reshape(k, l)
    a = match_deferred_acceptance(u)
    assert blocking_pair_oracle(u, a.links) is None


def test_deferred_acceptance_invariant_to_positive_rescaling():
    rng = np.random.default_rng(83)
    for _ in range(50):
        u = rng.uniform(0, 5, size=(4, 3))
        a = match_deferred_acceptance(u)
        b = match_deferred_acceptance(3.7 * u)
        assert np.array_equal(a.gamma, b.gamma)


@pytest.mark.parametrize("u, error, match", [
    (np.ones(3), DimensionError, r"2-d, got \(3,\)"),
    (np.ones((1, 2, 2)), DimensionError, r"2-d, got \(1, 2, 2\)"),
    (np.array([[1.0, np.nan]]), NumericError, "finite"),
    (np.array([[np.inf, 1.0]]), NumericError, "finite"),
], ids=["1d", "3d", "nan", "inf"])
def test_utilities_that_are_not_a_finite_matrix_are_refused(u, error, match):
    with pytest.raises(error, match=match):
        match_deferred_acceptance(u)
    with pytest.raises(error, match=match):
        greedy_association(u, np.random.default_rng(0))


def test_greedy_matches_da_when_unconflicted():
    u = np.array([[3.0, 1.0], [2.0, 4.0]])
    g = greedy_association(u, _PickLast())
    d = match_deferred_acceptance(u)
    assert np.array_equal(g.gamma, d.gamma)


def test_greedy_one_shot_contested_ris():
    u = np.array([[5.0, 1.0], [4.0, 2.0]])
    # random pick favors the later proposer: IU 1 wins RIS 0, IU 0 is out
    g = greedy_association(u, _PickLast())
    assert g.links.tolist() == [0, 1]
    # with the other draw IU 0 wins and IU 1 is left unmatched
    g2 = greedy_association(u, _PickFirst())
    assert g2.links.tolist() == [1, 0]


def test_greedy_argmax_tie_takes_lowest_ris():
    g = greedy_association(np.array([[2.0, 2.0]]), _PickLast())
    assert g.links.tolist() == [1]


def test_greedy_ignores_zero_utility():
    g = greedy_association(np.zeros((2, 2)), _PickLast())
    assert g.links.tolist() == [0, 0]


def test_random_association_feasible_and_reproducible():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        a = random_association(4, 3, rng)
        # constraints hold by construction
        assert np.array_equal(Association.from_gamma(a.gamma).links, a.links)
        b = random_association(4, 3, np.random.default_rng(seed))
        assert np.array_equal(a.links, b.links)
    none = random_association(3, 0, np.random.default_rng(0))
    assert none.links.tolist() == [0, 0, 0]


def test_random_association_reaches_every_option():
    rng = np.random.default_rng(84)
    seen_unmatched = seen_matched = False
    for _ in range(50):
        a = random_association(2, 2, rng)
        if served_ris(a, 0) == -1:
            seen_unmatched = True
        if served_ris(a, 0) >= 0:
            seen_matched = True
    assert seen_unmatched and seen_matched


def test_feasible_association_counts():
    assert count_feasible_associations(1, 1) == 2
    assert count_feasible_associations(2, 2) == 7
    assert count_feasible_associations(3, 3) == 34
    assert count_feasible_associations(2, 0) == 1


def test_exhaustive_enumerates_and_dominates():
    rng = np.random.default_rng(85)
    ch = rand_channelset(rng, k=2, l=2, m=4, n=4)
    p = np.array([0.2, 0.1])
    best, best_rate = exhaustive_association(ch, p, 1e-2)
    # manual enumeration over all 7 candidates
    cands = [empty_association(2, 2)] + [
        Association(links=links, num_riss=2)
        for links in ([1, 0], [2, 0], [0, 1], [0, 2], [1, 2], [2, 1])]
    rates = [association_sum_rate(ch, a, p, 1e-2) for a in cands]
    assert best_rate == pytest.approx(max(rates), rel=1e-12)
    assert best_rate >= max(rates) - 1e-12
    # the matching scheme's candidate can never beat it
    u = utility_matrix(ch, p, 1e-2)
    da_rate = association_sum_rate(ch, match_deferred_acceptance(u), p, 1e-2)
    assert best_rate >= da_rate - 1e-12


def _every_association(k, l):
    # all one-to-one partial IU -> RIS maps, as gamma lists
    for j in range(min(k, l) + 1):
        for ius in itertools.combinations(range(k), j):
            for riss in itertools.permutations(range(l), j):
                gamma = [[0] * l for _ in range(k)]
                for user, surface in zip(ius, riss):
                    gamma[user][surface] = 1
                yield gamma


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 4), l=st.integers(0, 4), m=st.integers(1, 4),
       n=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
@example(k=3, l=0, m=2, n=3, seed=1)  # no surfaces
@example(k=2, l=4, m=3, n=2, seed=2)  # fewer IUs than surfaces
@example(k=4, l=2, m=2, n=4, seed=3)  # more IUs than surfaces
def test_utilities_and_exhaustive_match_brute_force(k, l, m, n, seed):
    rng = np.random.default_rng(seed)
    ch = rand_channelset(rng, k=k, l=l, m=m, n=n)
    p = rng.uniform(0.1, 1.0, k)
    noise = 10.0 ** rng.uniform(-1, 1)

    def rates(gamma):
        g = gain_matrix_oracle(ch.direct, ch.ap_ris, ch.ris_iu, gamma)
        return rate_oracle(g, [noise] * k, p)[1]

    u = utility_matrix(ch, p, noise)
    for kk in range(k):
        for ll in range(l):
            gamma = [[int(i == kk and j == ll) for j in range(l)]
                     for i in range(k)]
            assert u[kk, ll] == pytest.approx(rates(gamma)[kk], rel=1e-9,
                                              abs=1e-12)
    scored = [(sum(rates(gamma)), gamma) for gamma in _every_association(k, l)]
    top = max(rate for rate, _ in scored)
    best, best_rate = exhaustive_association(ch, p, noise)
    assert best_rate == pytest.approx(top, rel=1e-9)
    # the chosen association is the brute-force winner, up to exact ties
    assert best.gamma.tolist() in [gamma for rate, gamma in scored
                                   if rate >= top * (1.0 - 1e-9)]


def test_exhaustive_cap():
    rng = np.random.default_rng(86)
    ch = rand_channelset(rng, k=3, l=3, m=4, n=4)
    with pytest.raises(SizeError):
        exhaustive_association(ch, np.full(3, 0.1), 1e-2, cap=33)
    best, _ = exhaustive_association(ch, np.full(3, 0.1), 1e-2, cap=34)
    assert best is not None


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 5), l=st.integers(0, 4), m=st.integers(1, 4),
       n=st.integers(1, 4), twin=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(k=4, l=3, m=2, n=3, twin=True, seed=1)  # exact ties
@example(k=3, l=0, m=2, n=3, twin=False, seed=2)  # no surfaces
@example(k=5, l=4, m=3, n=4, twin=False, seed=3)  # largest enumeration
def test_exhaustive_equals_the_per_candidate_loop(k, l, m, n, twin, seed):
    # twin: surface 1 copies surface 0, so every candidate using one has
    # an exact tie using the other, and the earlier one must win
    rng = np.random.default_rng(seed)
    ch = rand_channelset(rng, k=k, l=l, m=m, n=n)
    if twin and l >= 2:
        ap_ris, ris_iu = ch.ap_ris.copy(), ch.ris_iu.copy()
        ap_ris[1], ris_iu[1] = ap_ris[0], ris_iu[0]
        ch = ChannelSet(direct=ch.direct, ap_ris=ap_ris, ris_iu=ris_iu,
                        carrier_freq_hz=ch.carrier_freq_hz)
    p = rng.uniform(0.0, 1.0, k)
    noise = 10.0 ** rng.uniform(-3, 1)
    best, rate = exhaustive_association(ch, p, noise)
    gamma, ref = exhaustive_loop_oracle(ch, p, noise)
    assert rate == ref
    assert np.array_equal(best.gamma, gamma)


def test_exhaustive_equals_the_loop_on_seeded_realizations():
    # the default point and the element-sweep points, master seed 42,
    # realizations 0-11, at the uniform split and at a random allocation
    base = ScenarioConfig(master_seed=42)
    for cfg in [base] + [experiment._config_for_point(base, "elements", m)
                         for m in base.element_sweep]:
        for index in range(12):
            rng = np.random.default_rng(
                experiment._realization_seed(cfg, index))
            ch = synthesize_channels(sample_topology(cfg, rng), cfg)
            k = cfg.num_ius
            for p in (np.full(k, cfg.p_max_w / k),
                      rng.dirichlet(np.ones(k)) * cfg.p_max_w):
                best, rate = exhaustive_association(ch, p, cfg.noise_power_w)
                gamma, ref = exhaustive_loop_oracle(ch, p, cfg.noise_power_w)
                assert rate == ref
                assert np.array_equal(best.gamma, gamma)


@pytest.mark.parametrize("entries", [association._GATHER_ENTRIES, 1])
def test_exhaustive_tie_goes_to_the_first_candidate(monkeypatch, entries):
    # one IU, one antenna, two identical surfaces: either surface adds its
    # co-phased cascade to the direct channel, so both beat the direct
    # link and tie exactly; RIS 0 comes first. With entries = 1 every
    # candidate is a chunk of its own.
    monkeypatch.setattr(association, "_GATHER_ENTRIES", entries)
    rng = np.random.default_rng(90)
    ch = rand_channelset(rng, k=1, l=1, m=3, n=1)
    ch = ChannelSet(direct=ch.direct, ap_ris=np.repeat(ch.ap_ris, 2, axis=0),
                    ris_iu=np.repeat(ch.ris_iu, 2, axis=0),
                    carrier_freq_hz=ch.carrier_freq_hz)
    p = np.array([0.5])
    via = [association_sum_rate(ch, [[int(l == s) for l in range(2)]], p, 0.1)
           for s in range(2)]
    assert via[0] == via[1] > association_sum_rate(ch, [[0, 0]], p, 0.1)
    best, rate = exhaustive_association(ch, p, 0.1)
    assert best.links.tolist() == [1] and rate == via[0]


@pytest.mark.parametrize("direct_zero", [False, True])
def test_exhaustive_zero_channel_names_the_loops_iu(direct_zero):
    # IU 1's channel through RIS 1 is zero: its direct channel [0, 1]
    # meets the single element's [0, -1] (nothing to co-phase at antenna
    # 0, where both are zero). With direct_zero IU 2's direct channel is
    # zero as well; the all-direct candidate reads it first, so the loop
    # names IU 2, not the lower IU 1.
    rng = np.random.default_rng(89)
    ch = rand_channelset(rng, k=3, l=2, m=1, n=2)
    direct, ap_ris = ch.direct.copy(), ch.ap_ris.copy()
    ris_iu = ch.ris_iu.copy()
    direct[1] = [0.0, 1.0]
    ap_ris[1, 0] = [0.0, 1.0]
    ris_iu[1, 1, 0] = -1.0
    if direct_zero:
        direct[2] = 0.0
    ch = ChannelSet(direct=direct, ap_ris=ap_ris, ris_iu=ris_iu,
                    carrier_freq_hz=15e9)
    assert np.isnan(ch.link_gains[2, :, 1]).all()
    p = np.full(3, 0.2)
    with pytest.raises(NumericError) as ref:
        exhaustive_loop_oracle(ch, p, 1e-2)
    with pytest.raises(NumericError) as got:
        exhaustive_association(ch, p, 1e-2)
    named = 2 if direct_zero else 1
    assert str(ref.value) == f"effective channel of IU {named} is zero"
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("p, noise, error", [
    (np.full(2, 0.2), 1e-2, DimensionError),
    (np.full((3, 1), 0.2), 1e-2, DimensionError),
    (np.array([0.2, -0.1, 0.2]), 1e-2, NumericError),
    (np.array([0.2, np.nan, 0.2]), 1e-2, NumericError),
    (np.full(3, 0.2), 0.0, NumericError),
    (np.full(3, 0.2), np.inf, NumericError),
])
def test_exhaustive_rejects_bad_inputs_like_the_loop(p, noise, error):
    ch = rand_channelset(np.random.default_rng(91), k=3, l=2, m=4, n=4)
    with pytest.raises(error):
        exhaustive_loop_oracle(ch, p, noise)
    with pytest.raises(error):
        exhaustive_association(ch, p, noise)


def test_exhaustive_gathers_within_the_chunk_bound(monkeypatch):
    # K = 60, L = 2: 3 661 candidates of 3 600 gains each, 13 to a chunk
    # under the patched bound; one unchunked gather would hold 13 million
    k = 60
    bound = 13 * k * k
    monkeypatch.setattr(association, "_GATHER_ENTRIES", bound)
    shapes = []
    from fr3ris.channel import gather_gains

    def recording(channels, links):
        g = gather_gains(channels, links)
        shapes.append(g.shape)
        return g

    # the scorer's gather, where rate.link_rates calls it
    monkeypatch.setattr("fr3ris.rate.gather_gains", recording)
    rng = np.random.default_rng(92)
    ch = rand_channelset(rng, k=k, l=2, m=3, n=3)
    p = rng.uniform(0.0, 1.0, k)
    best, rate = exhaustive_association(ch, p, 0.5)
    assert sum(shape[0] for shape in shapes) == count_feasible_associations(
        k, 2) == 3661
    assert all(shape[1:] == (k, k) and np.prod(shape) <= bound
               for shape in shapes)
    assert shapes[0][0] == 13 and 0 < shapes[-1][0] < 13
    gamma, ref = exhaustive_loop_oracle(ch, p, 0.5)
    assert rate == ref
    assert np.array_equal(best.gamma, gamma)


def test_da_beats_greedy_on_average():
    rng = np.random.default_rng(87)
    da_total, greedy_total = 0.0, 0.0
    for _ in range(200):
        k = int(rng.integers(2, 6))
        l = int(rng.integers(1, 6))
        u = rng.uniform(0, 5, size=(k, l))
        da = match_deferred_acceptance(u)
        gr = greedy_association(u, rng)
        da_total += sum(u[k_, l_ - 1] for k_, l_ in enumerate(da.links) if l_)
        greedy_total += sum(u[k_, l_ - 1]
                            for k_, l_ in enumerate(gr.links) if l_)
    assert da_total >= greedy_total
