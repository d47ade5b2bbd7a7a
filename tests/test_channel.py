import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fr3ris.channel import (Association, ChannelSet, GainMatrix,
                            SPEED_OF_LIGHT, gains_for_association,
                            gather_gains, pathloss, synthesize_channels)
from fr3ris.config import ScenarioConfig
from fr3ris.errors import DimensionError, NumericError
from fr3ris.rate import association_sum_rate, link_rates
from fr3ris.topology import NetworkTopology, sample_topology

from fr3ris import channel, numerics
from oracles import (gain_matrix_oracle, inline_link_gains, rand_channelset,
                     rand_complex)


def _cophase_profile(ch, l, s):
    # unit reflection coefficients putting IU s's cascade through RIS l in
    # phase with its direct channel at antenna 0
    through = np.conj(ch.ap_ris[l, :, 0]) * ch.ris_iu[l, s]
    return np.exp(1j * (np.angle(ch.direct[s, 0]) - np.angle(through)))


def _through_loop(ch, l, theta, k):
    # A_l^H (theta o r_lk) with explicit loops
    m_count, n_count = ch.ap_ris.shape[1:]
    out = np.zeros(n_count, dtype=complex)
    for n in range(n_count):
        for m in range(m_count):
            out[n] += np.conj(ch.ap_ris[l, m, n]) * theta[m] * ch.ris_iu[l, k, m]
    return out


def _physical_channelset(rng=None, k=1, l=1, n=4, m_side=4, ris_x=5.0):
    ius = np.array([[3.0 + 2.0 * i, 4.0, 1.5] for i in range(k)])
    riss = np.array([[ris_x + 2.0 * j, 10.0, 5.0] for j in range(l)])
    topo = NetworkTopology(ap=[0.0, 0.0, 10.0], riss=riss, ius=ius)
    cfg = ScenarioConfig(num_antennas=n, num_ius=k, num_riss=l,
                         ris_elements_y=m_side, ris_elements_z=m_side)
    return topo, cfg, synthesize_channels(topo, cfg)


# -- pathloss ---------------------------------------------------------------

def test_pathloss_frozen_values():
    g10 = pathloss(10.0, 15e9)
    assert g10 == pytest.approx(2.530e-8, rel=1e-3)
    assert 10 * np.log10(g10) == pytest.approx(-75.97, abs=0.01)
    # same check against the dB-form formula
    assert -10 * np.log10(g10) == pytest.approx(
        20 * np.log10(4 * np.pi * 10.0 * 15e9 / SPEED_OF_LIGHT), abs=1e-9)
    assert pathloss(1.0, 15e9) == pytest.approx(2.530e-6, rel=1e-3)
    assert pathloss(1.0, 15e9) / g10 == pytest.approx(100.0, rel=1e-12)


def test_pathloss_inverse_square_and_exponent_override():
    assert pathloss(20.0, 15e9) == pytest.approx(pathloss(10.0, 15e9) / 4.0,
                                                 rel=1e-12)
    # alpha = 3 differs from free space by one extra 1/d factor
    assert pathloss(7.0, 15e9, exponent=3.0) == pytest.approx(
        pathloss(7.0, 15e9) / 7.0, rel=1e-12)


def test_pathloss_domain_errors():
    with pytest.raises(NumericError):
        pathloss(1e-4, 15e9)
    with pytest.raises(NumericError):
        pathloss(1.0, 0.0)


# -- synthesis --------------------------------------------------------------

def test_synthesized_coefficient_matches_scalar_script():
    topo = NetworkTopology(ap=[0.0, 0.0, 0.0], riss=np.empty((0, 3)),
                           ius=[[10.0, 0.0, 0.0]])
    cfg = ScenarioConfig(num_antennas=1, num_ius=1, num_riss=0)
    ch = synthesize_channels(topo, cfg)
    h = ch.direct[0, 0]
    assert abs(h) == pytest.approx(1.5906e-4, rel=1e-3)
    omega = 2 * np.pi * 15e9 / SPEED_OF_LIGHT
    expected_phase = np.mod(-omega * 10.0, 2 * np.pi)
    assert np.mod(np.angle(h), 2 * np.pi) == pytest.approx(expected_phase,
                                                           abs=1e-9)


def test_equidistant_ius_get_identical_magnitudes():
    topo = NetworkTopology(ap=[0.0, 0.0, 0.0], riss=np.empty((0, 3)),
                           ius=[[6.0, 8.0, 0.0], [8.0, 6.0, 0.0],
                                [10.0, 0.0, 0.0]])
    cfg = ScenarioConfig(num_antennas=4, num_ius=3, num_riss=0)
    ch = synthesize_channels(topo, cfg)
    mags = np.abs(ch.direct)
    np.testing.assert_allclose(mags[0], mags[1], rtol=1e-14)
    np.testing.assert_allclose(mags, mags[0, 0], rtol=1e-14)


def test_magnitude_decreases_with_distance_and_matches_pathloss():
    topo, cfg, ch = _physical_channelset(k=3, l=2)
    d = topo.ap_iu_distances()
    for k in range(3):
        np.testing.assert_allclose(np.abs(ch.direct[k]),
                                   np.sqrt(pathloss(d[k], 15e9)), rtol=1e-12)
    order = np.argsort(d)
    mags = np.abs(ch.direct[:, 0])
    assert np.all(np.diff(mags[order]) < 0)
    # cascaded links carry the same magnitude law
    np.testing.assert_allclose(
        np.abs(ch.ap_ris[0]),
        np.sqrt(pathloss(topo.ap_ris_distances()[0], 15e9)), rtol=1e-12)
    np.testing.assert_allclose(
        np.abs(ch.ris_iu[1, 2]),
        np.sqrt(pathloss(topo.ris_iu_distances()[1, 2], 15e9)), rtol=1e-12)


def test_channelset_shape_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(DimensionError):
        ChannelSet(direct=np.ones((2, 4)), ap_ris=np.ones((1, 3, 5)),
                   ris_iu=np.ones((1, 2, 3)), carrier_freq_hz=1e9)
    with pytest.raises(NumericError):
        ChannelSet(direct=np.array([[np.nan]]), ap_ris=np.ones((0, 1, 1)),
                   ris_iu=np.ones((0, 1, 1)), carrier_freq_hz=1e9)
    rand_channelset(rng, k=2, l=1, m=3, n=4)  # well-formed passes


_BAD_SHAPES = [
    (ChannelSet, dict(direct=np.ones(4), ap_ris=np.ones((1, 3, 4)),
                      ris_iu=np.ones((1, 1, 3)), carrier_freq_hz=1e9),
     r"direct must be \(K, N\), got \(4,\)"),
    (ChannelSet, dict(direct=np.ones((2, 4)), ap_ris=np.ones((1, 3, 4)),
                      ris_iu=np.ones((1, 2, 5)), carrier_freq_hz=1e9),
     r"ris_iu must be \(1, 2, 3\), got \(1, 2, 5\)"),
    (GainMatrix, dict(g=np.ones((2, 3)), noise_power=1.0),
     r"g must be square, got \(2, 3\)"),
    (GainMatrix, dict(g=np.ones(2), noise_power=1.0),
     r"g must be square, got \(2,\)"),
]


@pytest.mark.parametrize("cls, kwargs, match", _BAD_SHAPES,
                         ids=["direct-1d", "ris_iu", "g-2x3", "g-1d"])
def test_link_and_gain_arrays_of_the_wrong_shape_are_named(cls, kwargs,
                                                           match):
    with pytest.raises(DimensionError, match=match):
        cls(**kwargs)


# -- co-phased links ---------------------------------------------------------

def test_cophase_zero_direct_single_element_real_positive():
    # one element, one antenna: the reflected path adds to the direct one
    # in magnitude only if it lands in phase with it
    rng = np.random.default_rng(40)
    ch = ChannelSet(
        direct=np.exp(2j * np.pi * rng.random((1, 1))) * 0.2,
        ap_ris=np.exp(2j * np.pi * rng.random((1, 1, 1))) * 0.3,
        ris_iu=np.exp(2j * np.pi * rng.random((1, 1, 1))) * 0.5,
        carrier_freq_hz=15e9)
    g = gains_for_association(ch, np.array([[1]]), 1.0).g
    assert g[0, 0] == pytest.approx((0.2 + 0.3 * 0.5) ** 2, rel=1e-12)


def test_cophase_coherent_sum_over_elements():
    # zero direct channel: all M cascaded terms add in phase
    topo, cfg, ch_phys = _physical_channelset(m_side=2)  # M = 4
    ch = ChannelSet(direct=np.zeros_like(ch_phys.direct),
                    ap_ris=ch_phys.ap_ris, ris_iu=ch_phys.ris_iu,
                    carrier_freq_hz=ch_phys.carrier_freq_hz)
    g = gains_for_association(ch, np.array([[1]]), 1.0).g
    l1 = pathloss(topo.ap_ris_distances()[0], 15e9)
    l2 = pathloss(topo.ris_iu_distances()[0, 0], 15e9)
    # every antenna hears |4 sqrt(l1 l2)|
    assert g[0, 0] == pytest.approx(
        cfg.num_antennas * (4.0 * np.sqrt(l1 * l2)) ** 2, rel=1e-12)


def test_cophase_beats_random_phase_profiles():
    topo, cfg, ch_phys = _physical_channelset(m_side=4)  # M = 16
    ch = ChannelSet(direct=np.zeros_like(ch_phys.direct),
                    ap_ris=ch_phys.ap_ris, ris_iu=ch_phys.ris_iu,
                    carrier_freq_hz=ch_phys.carrier_freq_hz)
    best = np.sqrt(gains_for_association(ch, np.array([[1]]), 1.0).g[0, 0])
    rng = np.random.default_rng(41)
    for _ in range(100):
        theta = np.exp(1j * rng.uniform(0, 2 * np.pi, size=ch.ap_ris.shape[1]))
        h = ch.direct[0] + _through_loop(ch, 0, theta, 0)
        assert np.linalg.norm(h) <= best + 1e-15


def test_unassigned_ris_keeps_zero_phase():
    # an idle RIS takes no part: the gains equal those of the same
    # network without it
    rng = np.random.default_rng(43)
    ch = rand_channelset(rng, k=2, l=2, m=3, n=4)
    without = ChannelSet(direct=ch.direct, ap_ris=ch.ap_ris[1:],
                         ris_iu=ch.ris_iu[1:],
                         carrier_freq_hz=ch.carrier_freq_hz)
    g = gains_for_association(ch, np.array([[0, 1], [0, 0]]), 1e-11).g
    ref = gains_for_association(without, np.array([[1], [0]]), 1e-11).g
    np.testing.assert_allclose(g, ref, rtol=1e-13)


def test_channel_arrays_are_read_only():
    # an in-place write would leave the gain table stale
    ch = rand_channelset(np.random.default_rng(44), k=2, l=1, m=3, n=4)
    for arr in (ch.direct, ch.ap_ris, ch.ris_iu, ch.link_gains):
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


# -- the fixed AP -> RIS link -------------------------------------------------

def _link_formula(topo, cfg):
    # element by element: every antenna-element pair of AP -> RIS link l
    # carries the coefficient of the AP-RIS l center distance
    f, alpha = cfg.carrier_freq_hz, cfg.pathloss_exponent
    omega = 2.0 * np.pi * f / SPEED_OF_LIGHT
    out = np.empty((topo.num_riss, cfg.num_elements, cfg.num_antennas),
                   dtype=complex)
    for l, d in enumerate(topo.ap_ris_distances()):
        for m in range(cfg.num_elements):
            for n in range(cfg.num_antennas):
                out[l, m, n] = (np.sqrt(pathloss(d, f, alpha))
                                * np.exp(-1j * omega * d))
    return out


def test_topologies_of_one_point_share_one_read_only_link():
    cfg = ScenarioConfig(num_antennas=3, num_ius=2, num_riss=2,
                         ris_elements_y=2, ris_elements_z=3)
    rng = np.random.default_rng(5)
    first = synthesize_channels(sample_topology(cfg, rng), cfg)
    second = synthesize_channels(sample_topology(cfg, rng), cfg)
    assert not np.array_equal(first.direct, second.direct)
    np.testing.assert_array_equal(second.ap_ris, first.ap_ris)
    assert not first.ap_ris.flags.writeable
    # a change to any input of the link rebuilds it from the formula
    topo = sample_topology(cfg, rng)
    ap, riss = topo.ap.copy(), topo.riss.copy()
    ap[0] += 0.5
    riss[1, 0] += 0.5
    for t, c in ((NetworkTopology(ap=topo.ap, riss=riss, ius=topo.ius), cfg),
                 (NetworkTopology(ap=ap, riss=topo.riss, ius=topo.ius), cfg),
                 (topo, cfg.with_updates(carrier_freq_ghz=10.0)),
                 (topo, cfg.with_updates(pathloss_exponent=2.5)),
                 (topo, cfg.with_updates(ris_elements_y=3)),
                 (topo, cfg.with_updates(num_antennas=5))):
        kept = synthesize_channels(topo, cfg).ap_ris
        np.testing.assert_array_equal(kept, _link_formula(topo, cfg))
        rebuilt = synthesize_channels(t, c).ap_ris
        assert not rebuilt.flags.writeable
        np.testing.assert_array_equal(rebuilt, _link_formula(t, c))


def test_non_finite_link_is_rejected_however_it_is_made():
    _, _, ch = _physical_channelset(k=2, l=2)
    links = {"direct": ch.direct, "ap_ris": ch.ap_ris, "ris_iu": ch.ris_iu}
    coefficients = {"direct": ch.direct[:, :1], "ap_ris": ch.ap_ris[:, :1, :1],
                    "ris_iu": ch.ris_iu[:, :, :1]}
    for name, column in coefficients.items():
        link = links[name]
        assert column.size < link.size
        for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
            # a bad last coefficient under a zero-stride view, or a bad
            # entry of a writable dense link, in C or Fortran order
            view = np.array(column)
            view.flat[-1] = bad
            made = [np.broadcast_to(view, link.shape)]
            for where in ((1,) + (0,) * (link.ndim - 1), (-1,) * link.ndim):
                dense = np.array(link)
                dense[where] = bad
                made += [dense, np.asfortranarray(dense)]
            for arr in made:
                with pytest.raises(NumericError,
                                   match=f"{name} contains non-finite entries"):
                    ChannelSet(**{**links, name: arr},
                               carrier_freq_hz=ch.carrier_freq_hz)


def _assert_tables_agree(got, ref, rtol=1e-10):
    # NaN columns in the same places; elsewhere within rtol of the largest
    # entry of each (link, column)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(ref))
    scale = np.nanmax(np.abs(ref), axis=1, keepdims=True, initial=0.0)
    finite = ~np.isnan(ref)
    assert np.all(np.abs(got - ref)[finite]
                  <= (rtol * np.broadcast_to(scale, ref.shape))[finite])


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 5), l=st.integers(0, 3), m=st.integers(0, 6),
       n=st.integers(1, 5), zero_iu=st.booleans(),
       entries=st.sampled_from((channel._ENTRIES, 1, 7, 20)),
       seed=st.integers(0, 2 ** 32 - 1))
@example(k=3, l=0, m=4, n=3, zero_iu=False,
         entries=channel._ENTRIES, seed=1)  # no surfaces
@example(k=3, l=2, m=0, n=3, zero_iu=False,
         entries=channel._ENTRIES, seed=2)  # no elements
@example(k=3, l=2, m=0, n=3, zero_iu=True, entries=channel._ENTRIES, seed=3)
@example(k=2, l=3, m=5, n=5, zero_iu=True, entries=channel._ENTRIES, seed=5)
# element blocks of 6, 2 (K * r = 3 entries per element)
@example(k=3, l=2, m=8, n=4, zero_iu=False, entries=20, seed=6)
# K * r above the entry count: one element per product
@example(k=4, l=1, m=5, n=3, zero_iu=True, entries=7, seed=7)
@example(k=2, l=2, m=3, n=2, zero_iu=False, entries=1, seed=8)
def test_factored_link_table_equals_dense_link_table(k, l, m, n, zero_iu,
                                                     entries, seed):
    # links constant along an axis, given as zero-stride views (a feeder
    # link read as its (L, M, 1) factor, a direct link of one coefficient
    # per IU, a reflector link of one per surface and IU), give the table
    # of their dense copies, however the elements are blocked
    rng = np.random.default_rng(seed)
    direct, ris_iu = rand_complex(rng, k, n), rand_complex(rng, l, k, m)
    feeders = (rand_complex(rng, l, m, 1), rand_complex(rng, l, 1, 1))
    direct_column = rand_complex(rng, k, 1)
    ris_iu_column = rand_complex(rng, l, k, 1)
    if zero_iu:
        for d, r in ((direct, ris_iu), (direct_column, ris_iu_column)):
            d[0] = 0.0
            r[:, 0] = 0.0
    directs = (direct, np.broadcast_to(direct_column, (k, n)))
    ris_ius = (ris_iu, np.broadcast_to(ris_iu_column, (l, k, m)))
    assert directs[1].strides[1] == 0 and ris_ius[1].strides[2] == 0
    for link in feeders:
        view = np.broadcast_to(link, (l, m, n))
        assert view.strides[2] == 0
        for d, r in itertools.product(directs, ris_ius):
            with mock.patch.object(channel, "_ENTRIES", entries):
                got = ChannelSet(direct=d, ap_ris=view, ris_iu=r,
                                 carrier_freq_hz=15e9)
            dense = ChannelSet(direct=np.array(d), ap_ris=np.array(view),
                               ris_iu=np.array(r), carrier_freq_hz=15e9)
            if zero_iu:
                assert np.all(np.isnan(got.link_gains[:, :, 0]))
            _assert_tables_agree(got.link_gains, dense.link_gains)


def test_default_realizations_match_their_dense_link():
    cfg = ScenarioConfig()
    rng = np.random.default_rng(11)
    for _ in range(3):
        ch = synthesize_channels(sample_topology(cfg, rng), cfg)
        assert ch.ap_ris.strides[2] == 0
        dense = np.array(ch.ap_ris)
        assert dense.shape == (cfg.num_riss, cfg.num_elements,
                               cfg.num_antennas)
        ref = ChannelSet(direct=ch.direct, ap_ris=dense, ris_iu=ch.ris_iu,
                         carrier_freq_hz=ch.carrier_freq_hz)
        _assert_tables_agree(ch.link_gains, ref.link_gains)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 5), l=st.integers(1, 3), n=st.integers(1, 6),
       blocks=st.integers(2, 4), geometric=st.booleans(),
       zero_iu=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(k=5, l=3, n=64, blocks=7, geometric=True, zero_iu=False, seed=0)
def test_link_table_equals_inline_contraction_bit_for_bit(k, l, n, blocks,
                                                           geometric, zero_iu,
                                                           seed):
    # the table's products go through numerics.matvec_hermitian, which
    # computes conj(conj(every) @ v): bit for bit every @ conj(v), on
    # random dense links (r = N) and on synthesized zero-stride links
    # (r = 1), over several element blocks
    rng = np.random.default_rng(seed)
    rank = 1 if geometric else n
    per_block = channel._ENTRIES // (k * rank)
    m = per_block * (blocks - 1) + int(rng.integers(1, per_block + 1))
    if geometric:
        side = int(np.ceil(np.sqrt(m)))
        cfg = ScenarioConfig(num_ius=k, num_riss=l, num_antennas=n,
                             ris_elements_y=side, ris_elements_z=side)
        ch = synthesize_channels(sample_topology(cfg, rng), cfg)
        ap_ris = ch.ap_ris
        direct, ris_iu = ch.direct[:, :1].copy(), ch.ris_iu[:, :, :1].copy()
    else:
        ap_ris = rand_complex(rng, l, m, n)
        direct, ris_iu = rand_complex(rng, k, n), rand_complex(rng, l, k, m)
    if zero_iu:
        direct[0] = 0.0
        ris_iu[:, 0] = 0.0
    got = ChannelSet(direct=np.broadcast_to(direct, (k, n)), ap_ris=ap_ris,
                     ris_iu=np.broadcast_to(ris_iu, (l, k, ap_ris.shape[1])),
                     carrier_freq_hz=15e9)
    assert got.ap_ris.shape[1] > per_block * (blocks - 1)
    assert (got.ap_ris.strides[2] == 0) == geometric
    if zero_iu:
        assert np.all(np.isnan(got.link_gains[:, :, 0]))
    assert np.array_equal(got.link_gains, inline_link_gains(got),
                          equal_nan=True)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 6), l=st.integers(1, 3), n=st.integers(1, 8),
       m=st.integers(2, 20_000), zero=st.integers(0, 17),
       seed=st.integers(0, 2 ** 32 - 1))
@example(k=5, l=3, n=64, m=10_000, zero=4, seed=0)
@example(k=1, l=2, n=3, m=8193, zero=0, seed=1)
def test_zero_stride_reflector_link_gives_the_table_of_its_dense_copy(
        k, l, n, m, zero, seed):
    # a reflector link with zero stride along the elements is co-phased on
    # one element per block and broadcast; its table is == that of the
    # same link materialized. Both keep the zero-stride feeder link, so
    # both take the r = 1 path, and one reflector coefficient is zero, so
    # _unit's zero branch runs
    rng = np.random.default_rng(seed)
    direct = rand_complex(rng, k, n)
    ap_ris = np.broadcast_to(rand_complex(rng, l, 1, 1), (l, m, n))
    column = rand_complex(rng, l, k, 1)
    column[zero % l, zero % k] = 0.0
    view = np.broadcast_to(column, (l, k, m))
    tables = []
    for ris_iu in (view, np.array(view)):
        with mock.patch.object(channel, "_unit", wraps=channel._unit) as unit:
            ch = ChannelSet(direct=direct, ap_ris=ap_ris, ris_iu=ris_iu,
                            carrier_freq_hz=15e9)
        assert any(np.any(c.args[0] == 0.0) for c in unit.call_args_list)
        assert (ch.ris_iu.strides[2] == 0) == (ris_iu is view)
        tables.append(ch.link_gains)
    assert np.array_equal(*tables)


def test_kept_link_of_a_non_constant_factor_is_its_exact_product():
    # a link that varies over the elements is kept as given, whether it is
    # a zero-stride view of its (L, M, 1) factor or a rank-one product
    # U_l W_l that varies along the antennas too
    _, cfg, ch = _physical_channelset(k=2, l=2, n=3, m_side=2)
    assert ch.ap_ris.strides[1:] == (0, 0)
    rng = np.random.default_rng(21)
    u = rand_complex(rng, 2, cfg.num_elements, 1)
    w = rand_complex(rng, 2, 1, cfg.num_antennas)
    for link in (np.broadcast_to(u, ch.ap_ris.shape), u @ w):
        kept = ChannelSet(direct=ch.direct, ap_ris=link, ris_iu=ch.ris_iu,
                          carrier_freq_hz=ch.carrier_freq_hz)
        assert kept.ap_ris is link
        assert not kept.ap_ris.flags.writeable
        dense = np.array(link)
        np.testing.assert_array_equal(kept.ap_ris, dense)
        ref = ChannelSet(direct=ch.direct, ap_ris=dense, ris_iu=ch.ris_iu,
                         carrier_freq_hz=ch.carrier_freq_hz)
        _assert_tables_agree(kept.link_gains, ref.link_gains)
        _assert_tables_agree(kept.link_gains, _link_gains_per_vector(kept))


@pytest.mark.parametrize("k, l, side", ((5, 3, 100), (20, 4, 100)))
def test_synthesized_links_are_coefficient_views(k, l, side):
    # every link is a read-only zero-stride view of its coefficients, so
    # synthesis never holds as much as one dense (L, K, M) reflector link
    cfg = ScenarioConfig(num_ius=k, num_riss=l, ris_elements_y=side,
                         ris_elements_z=side)
    m = cfg.num_elements
    topo = sample_topology(cfg, np.random.default_rng(13))
    tracemalloc.start()
    try:
        ch = synthesize_channels(topo, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < l * k * m * 16, peak
    for arr, axes in ((ch.direct, (1,)), (ch.ap_ris, (1, 2)),
                      (ch.ris_iu, (2,))):
        assert not arr.flags.writeable
        assert all(arr.strides[a] == 0 for a in axes), arr.strides


def test_unit_phasor_equals_z_over_its_magnitude():
    # nonzero z: z / |z| in value (array_equal: a signed zero is equal);
    # exact +-0 keeps np.angle's convention through exp(j angle(z))
    rng = np.random.default_rng(31)
    z = (rand_complex(rng, 4, 500)
         * 10.0 ** rng.uniform(-150.0, 150.0, (4, 500)))
    z[0, :3] = (-2.0, 3.0j, -1e-200j)  # on an axis
    assert np.array_equal(channel._unit(z), z / np.abs(z))
    zeros = np.array([complex(x, y) for x in (0.0, -0.0) for y in (0.0, -0.0)])
    want = np.exp(1j * np.angle(zeros))
    assert len(set(want.tolist())) == 3  # 1 and -1 with either sign of 0
    assert np.array_equal(channel._unit(zeros), want)
    mixed = np.concatenate([z[1, :5], zeros])
    assert np.array_equal(channel._unit(mixed),
                          np.concatenate([z[1, :5] / np.abs(z[1, :5]), want]))


# -- effective channel ------------------------------------------------------

def test_effective_channel_without_association_is_direct():
    rng = np.random.default_rng(44)
    ch = rand_channelset(rng, k=2, l=1, m=3, n=4)
    g = gains_for_association(ch, np.zeros((2, 1), dtype=int), 1e-11).g
    d = ch.direct
    for i in range(2):
        w = d[i] / np.linalg.norm(d[i])
        for k in range(2):
            assert g[k, i] == pytest.approx(abs(np.vdot(d[k], w)) ** 2,
                                            rel=1e-12)


def test_effective_channel_matches_naive_loop():
    rng = np.random.default_rng(45)
    ch = rand_channelset(rng, k=2, l=2, m=3, n=4)
    assert ch.link_gains.shape == (3, 2, 2)
    for l in range(-1, 2):
        for i in range(2):
            # the channels IU i's beam meets on link l (-1: direct)
            h = ch.direct.copy()
            if l >= 0:
                theta = _cophase_profile(ch, l, i)
                for k in range(2):
                    h[k] += _through_loop(ch, l, theta, k)
            w = h[i] / np.linalg.norm(h[i])
            for k in range(2):
                assert ch.link_gains[l + 1, k, i] == pytest.approx(
                    abs(np.vdot(h[k], w)) ** 2, rel=1e-12)


def _link_gains_per_vector(ch):
    # the table from its definition: one matvec per (surface, served IU,
    # IU), then each served IU's unit MRT beam
    k_count, l_count = ch.num_ius, ch.num_riss
    table = np.empty((l_count + 1, k_count, k_count))
    for l in range(-1, l_count):
        for s in range(k_count):
            h = ch.direct.copy()
            if l >= 0:
                theta = _cophase_profile(ch, l, s)
                for k in range(k_count):
                    h[k] += numerics.matvec_hermitian(
                        ch.ap_ris[l], theta * ch.ris_iu[l, k:k + 1])[0]
            norm = np.linalg.norm(h[s])
            for k in range(k_count):
                table[l + 1, k, s] = (abs(np.vdot(h[s], h[k])) ** 2 / norm ** 2
                                      if norm > 0.0 else np.nan)
    return table


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 5), l=st.integers(0, 3), m=st.integers(1, 6),
       n=st.integers(1, 5), zero_iu=st.booleans(),
       zero_through=st.sampled_from((None, "ap_ris", "ris_iu")),
       entries=st.sampled_from((channel._ENTRIES, 1, 7, 20)),
       seed=st.integers(0, 2 ** 32 - 1))
@example(k=3, l=0, m=2, n=3, zero_iu=False, zero_through=None,
         entries=channel._ENTRIES, seed=1)  # no surfaces
@example(k=3, l=2, m=1, n=4, zero_iu=False, zero_through=None,
         entries=channel._ENTRIES, seed=2)  # one element
@example(k=3, l=2, m=4, n=2, zero_iu=True, zero_through=None,
         entries=channel._ENTRIES, seed=3)  # zero channel
# element blocks of 2, 2, 1 (K * r = 10 entries per element)
@example(k=5, l=2, m=5, n=2, zero_iu=False, zero_through=None,
         entries=20, seed=4)
# one element per product
@example(k=4, l=1, m=3, n=2, zero_iu=False, zero_through=None,
         entries=1, seed=5)
# through = 0 at one element: co-phased by np.angle's convention for 0
@example(k=3, l=2, m=4, n=3, zero_iu=False, zero_through="ap_ris",
         entries=channel._ENTRIES, seed=6)
@example(k=3, l=2, m=4, n=3, zero_iu=False, zero_through="ris_iu",
         entries=7, seed=7)
def test_link_gains_match_per_vector_definition(k, l, m, n, zero_iu,
                                                 zero_through, entries, seed):
    ch = rand_channelset(np.random.default_rng(seed), k=k, l=l, m=m, n=n)
    direct, ap_ris, ris_iu = (ch.direct.copy(), ch.ap_ris.copy(),
                              ch.ris_iu.copy())
    if zero_iu:
        # IU 0 has neither a direct nor a reflected path: its effective
        # channel is zero on every link, so its column is NaN throughout
        direct[0] = 0.0
        ris_iu[:, 0] = 0.0
    if zero_through == "ap_ris":
        ap_ris[:, -1, 0] = 0.0
    elif zero_through == "ris_iu":
        ris_iu[:, -1, -1] = 0.0
    # a small constant splits the products into several element blocks
    with mock.patch.object(channel, "_ENTRIES", entries):
        ch = ChannelSet(direct=direct, ap_ris=ap_ris, ris_iu=ris_iu,
                        carrier_freq_hz=ch.carrier_freq_hz)
    if zero_iu:
        assert np.all(np.isnan(ch.link_gains[:, :, 0]))
    ref = _link_gains_per_vector(ch)
    np.testing.assert_array_equal(np.isnan(ch.link_gains), np.isnan(ref))
    finite = ~np.isnan(ref)
    scale = ref[finite].max() if finite.any() else 0.0
    np.testing.assert_allclose(ch.link_gains[finite], ref[finite],
                               rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("view, n", ((False, 2), (True, 256)))
@pytest.mark.parametrize("k", (12, 24, 48))
def test_link_table_temporaries_stay_block_sized(view, n, k):
    # built from prebuilt arrays (a caller's dense link, or the zero-stride
    # view of L coefficients), the table holds, beyond itself, only a few
    # temporaries of about _ENTRIES entries: no input-sized finiteness
    # mask, no unblocked (K, M) array, and not the (K, K, N) channels of
    # every served IU at once. At K = 48 a one-byte mask of ris_iu alone
    # (1.9 MB) is above the bound.
    l, m = 2, 20_000
    rng = np.random.default_rng(9)
    direct, ris_iu = rand_complex(rng, k, n), rand_complex(rng, l, k, m)
    if view:
        ap_ris = np.broadcast_to(rand_complex(rng, l, 1, 1), (l, m, n))
    else:
        ap_ris = rand_complex(rng, l, m, n)
    tracemalloc.start()
    try:
        ch = ChannelSet(direct=direct, ap_ris=ap_ris, ris_iu=ris_iu,
                        carrier_freq_hz=15e9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ch.link_gains.shape == (l + 1, k, k)
    extra = peak - ch.link_gains.nbytes
    assert extra < 8 * channel._ENTRIES * 16, extra


def test_effective_channel_ignores_unselected_ris():
    rng = np.random.default_rng(47)
    ch = rand_channelset(rng, k=2, l=2, m=3, n=4)
    gamma = np.array([[1, 0], [0, 0]])
    g = gains_for_association(ch, gamma, 1e-11).g
    # perturbing the unselected RIS's links changes nothing
    ch2 = ChannelSet(direct=ch.direct,
                     ap_ris=np.concatenate([ch.ap_ris[:1], 3.0 * ch.ap_ris[1:]]),
                     ris_iu=np.concatenate([ch.ris_iu[:1], 9.0 * ch.ris_iu[1:]]),
                     carrier_freq_hz=ch.carrier_freq_hz)
    np.testing.assert_allclose(gains_for_association(ch2, gamma, 1e-11).g, g,
                               rtol=1e-15)


# -- MRT precoder -----------------------------------------------------------

def test_mrt_directions_are_unit_norm():
    # scaling every link out of the AP by c scales every gain by c^2; a
    # beam that were not normalized would scale them by c^4
    rng = np.random.default_rng(48)
    ch = rand_channelset(rng, k=3, l=2, m=4, n=5)
    gamma = np.array([[1, 0], [0, 1], [0, 0]])
    scaled = ChannelSet(direct=3.0 * ch.direct, ap_ris=3.0 * ch.ap_ris,
                        ris_iu=ch.ris_iu, carrier_freq_hz=ch.carrier_freq_hz)
    g = gains_for_association(ch, gamma, 1e-11).g
    np.testing.assert_allclose(gains_for_association(scaled, gamma, 1e-11).g,
                               9.0 * g, rtol=1e-12, atol=1e-12 * g.max())


def test_mrt_single_antenna_and_real_channel():
    ch = ChannelSet(direct=np.array([[0.5 - 0.5j]]),
                    ap_ris=np.empty((0, 1, 1)), ris_iu=np.empty((0, 1, 1)),
                    carrier_freq_hz=1e9)
    gm = gains_for_association(ch, np.zeros((1, 0), dtype=int), 1.0)
    assert gm.g[0, 0] == pytest.approx(0.5, rel=1e-12)
    # IU 0's beam along the real channel (3, 4) is (0.6, 0.8); IU 1 hears
    # it on the first antenna only
    ch_real = ChannelSet(direct=np.array([[3.0, 4.0], [1.0, 0.0]]),
                         ap_ris=np.empty((0, 1, 2)),
                         ris_iu=np.empty((0, 2, 1)), carrier_freq_hz=1e9)
    g = gains_for_association(ch_real, np.zeros((2, 0), dtype=int), 1.0).g
    np.testing.assert_allclose(g, [[25.0, 9.0], [0.36, 1.0]], rtol=1e-12)


def test_mrt_rejects_zero_effective_channel():
    ch = ChannelSet(direct=np.zeros((1, 2), dtype=complex),
                    ap_ris=np.empty((0, 1, 2)), ris_iu=np.empty((0, 1, 1)),
                    carrier_freq_hz=1e9)
    with pytest.raises(NumericError):
        gains_for_association(ch, np.zeros((1, 0), dtype=int), 1.0)


def test_zero_direct_row_fails_only_associations_that_use_it():
    # IU 0 has no direct path: the set still builds, IU 0 on a surface
    # gets finite gains, and only an association leaving IU 0's beam on
    # the direct link fails
    ch = rand_channelset(np.random.default_rng(55), k=2, l=1, m=3, n=4)
    direct = ch.direct.copy()
    direct[0] = 0.0
    ch = ChannelSet(direct=direct, ap_ris=ch.ap_ris, ris_iu=ch.ris_iu,
                    carrier_freq_hz=ch.carrier_freq_hz)
    gamma = np.array([[1], [0]])
    g = gains_for_association(ch, gamma, 1e-11).g
    assert np.all(np.isfinite(g)) and g[0, 0] > 0.0
    np.testing.assert_allclose(
        g, gain_matrix_oracle(ch.direct, ch.ap_ris, ch.ris_iu, gamma),
        rtol=1e-9)
    for direct_only in (np.array([[0], [1]]), np.zeros((2, 1), dtype=int)):
        with pytest.raises(NumericError, match="IU 0"):
            gains_for_association(ch, direct_only, 1e-11)


# -- gain matrix ------------------------------------------------------------

def test_gain_matrix_k1_equals_channel_energy():
    rng = np.random.default_rng(49)
    ch = rand_channelset(rng, k=1, l=1, m=3, n=4)
    gm = gains_for_association(ch, np.array([[1]]), 1e-11)
    h = ch.direct[0] + _through_loop(ch, 0, _cophase_profile(ch, 0, 0), 0)
    assert gm.g[0, 0] == pytest.approx(np.linalg.norm(h) ** 2, rel=1e-12)


def test_orthogonal_channels_give_zero_cross_gain():
    ch = ChannelSet(direct=np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
                    ap_ris=np.empty((0, 1, 2)), ris_iu=np.empty((0, 2, 1)),
                    carrier_freq_hz=1e9)
    gm = gains_for_association(ch, np.zeros((2, 0), dtype=int), 1.0)
    assert gm.g[0, 1] == pytest.approx(0.0, abs=1e-15)
    assert gm.g[1, 0] == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(np.diag(gm.g), 1.0, rtol=1e-12)


@pytest.mark.parametrize("bad", [0.5, -1, np.nan, 2])
def test_gains_reject_non_binary_entries(bad):
    ch = rand_channelset(np.random.default_rng(57), k=2, l=1, m=3, n=4)
    gamma = np.array([[bad], [0.0]])
    with pytest.raises(NumericError, match="gamma entries must be 0 or 1"):
        gains_for_association(ch, gamma, 1e-11)
    with pytest.raises(NumericError, match="gamma entries must be 0 or 1"):
        association_sum_rate(ch, gamma, np.ones(2), 1e-11)


@pytest.mark.parametrize("gamma", [np.array([[True], [False]]),
                                   np.array([[1.0], [0.0]])])
def test_gains_accept_bool_and_float_zero_one(gamma):
    ch = rand_channelset(np.random.default_rng(57), k=2, l=1, m=3, n=4)
    np.testing.assert_array_equal(
        gains_for_association(ch, gamma, 1e-11).g,
        gains_for_association(ch, np.array([[1], [0]]), 1e-11).g)


def test_gain_matrix_matches_from_scratch_oracle():
    rng = np.random.default_rng(50)
    gamma = np.array([[0, 1], [1, 0]])
    for _ in range(10):
        ch = rand_channelset(rng, k=2, l=2, m=3, n=4)
        gm = gains_for_association(ch, gamma, 1e-11)
        ref = gain_matrix_oracle(ch.direct, ch.ap_ris, ch.ris_iu, gamma)
        np.testing.assert_allclose(gm.g, ref, rtol=1e-10)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=st.integers(1, 5), l=st.integers(0, 3),
       m=st.integers(1, 6), n=st.integers(1, 5),
       seed=st.integers(0, 2 ** 32 - 1))
def test_gains_match_loop_oracle_on_dense_channels(data, k, l, m, n, seed):
    ch = rand_channelset(np.random.default_rng(seed), k=k, l=l, m=m, n=n)
    # the first K entries of a shuffle of the surfaces and K "no surface"
    # marks: one-to-one, with idle surfaces and direct-only IUs both common
    picks = data.draw(st.permutations(list(range(l)) + [-1] * k))[:k]
    gamma = np.zeros((k, l), dtype=int)
    for user, surface in enumerate(picks):
        if surface >= 0:
            gamma[user, surface] = 1
    g = gains_for_association(ch, gamma, 1e-11).g
    ref = gain_matrix_oracle(ch.direct, ch.ap_ris, ch.ris_iu, gamma)
    np.testing.assert_allclose(g, ref, rtol=1e-9, atol=1e-12 * ref.max())


def test_cross_gain_uses_interferer_association():
    rng = np.random.default_rng(51)
    ch = rand_channelset(rng, k=2, l=1, m=3, n=4)
    gm = gains_for_association(ch, np.array([[1], [0]]), 1e-11)
    theta = _cophase_profile(ch, 0, 0)
    h0 = ch.direct[0] + _through_loop(ch, 0, theta, 0)
    w0 = h0 / np.linalg.norm(h0)
    # IU 1 hears IU 0's beam through its own RIS-0 leg, with RIS 0
    # co-phased for IU 0
    h10 = ch.direct[1] + _through_loop(ch, 0, theta, 1)
    assert gm.g[1, 0] == pytest.approx(abs(np.vdot(h10, w0)) ** 2, rel=1e-10)
    # IU 0 hears IU 1's beam on the direct path only (IU 1 has no RIS)
    w1 = ch.direct[1] / np.linalg.norm(ch.direct[1])
    assert gm.g[0, 1] == pytest.approx(abs(np.vdot(ch.direct[0], w1)) ** 2,
                                       rel=1e-10)


def test_mrt_diagonal_attains_cauchy_schwarz_bound():
    rng = np.random.default_rng(52)
    for _ in range(20):
        ch = rand_channelset(rng, k=3, l=2, m=3, n=4)
        gm = gains_for_association(ch, np.array([[1, 0], [0, 1], [0, 0]]),
                                   1e-11)
        for k, l in ((0, 0), (1, 1), (2, -1)):
            h = ch.direct[k] if l < 0 else (
                ch.direct[k] + _through_loop(ch, l, _cophase_profile(ch, l, k), k))
            bound = np.linalg.norm(h) ** 2
            assert gm.g[k, k] <= bound * (1 + 1e-9)
            assert gm.g[k, k] == pytest.approx(bound, rel=1e-9)


def test_gains_for_association_validation():
    rng = np.random.default_rng(53)
    ch = rand_channelset(rng, k=2, l=2, m=3, n=4)
    with pytest.raises(DimensionError):  # not (K, L)
        gains_for_association(ch, np.zeros((2, 3), dtype=int), 1e-11)
    for other in (Association(links=[0, 1], num_riss=1),  # L = 1
                  Association(links=[0, 1, 0], num_riss=2)):  # K = 3
        with pytest.raises(DimensionError, match="does not match"):
            gains_for_association(ch, other, 1e-11)
    with pytest.raises(NumericError):
        GainMatrix(g=np.array([[1.0, 0.0], [0.0, -2.0]]), noise_power=1e-11)
    with pytest.raises(NumericError):
        GainMatrix(g=np.ones((2, 2)), noise_power=0.0)


@pytest.mark.parametrize("bad", [-1, 3])
def test_links_out_of_range_raise_where_they_are_read(bad):
    # numpy would read -1 as the last RIS and raise a bare IndexError
    # past it; the scorer raises the Association constructor's error
    ch = rand_channelset(np.random.default_rng(58), k=2, l=2, m=3, n=4)
    message = r"links must be in 0\.\.2"
    for links in ([[bad, 0]], [[0, 1], [bad, bad]]):
        with pytest.raises(NumericError, match=message):
            gather_gains(ch, links)
        with pytest.raises(NumericError, match=message):
            link_rates(ch, links, np.ones(2), 1e-11)
    with pytest.raises(NumericError, match=message):
        Association(links=[bad, 0], num_riss=2)


@pytest.mark.parametrize("links", [[[1.7, 0.0]], [[1, 0.5]], [[True, False]]],
                         ids=["float", "half", "bool"])
def test_links_that_are_not_integers_raise_where_they_are_read(links):
    # a cast to intp would score each of these as RIS 1 for IU 0
    ch = rand_channelset(np.random.default_rng(60), k=2, l=2, m=3, n=4)
    message = "links must be integers, got (float64|bool)"
    with pytest.raises(NumericError, match=message):
        gather_gains(ch, links)
    with pytest.raises(NumericError, match=message):
        link_rates(ch, links, np.ones(2), 1e-11)
    with pytest.raises(NumericError, match=message):
        Association(links=links[0], num_riss=2)


def test_links_of_the_wrong_width_raise_where_they_are_read():
    # rows of 3 entries on a K = 5 table would read the first three IUs'
    # gains as a three-IU network; a 1-D row or a row past K would raise a
    # bare IndexError
    ch = rand_channelset(np.random.default_rng(59), k=5, l=2, m=3, n=4)
    for links in ([[0, 1, 0]], [0, 1, 0, 0, 0], [[0] * 7]):
        with pytest.raises(DimensionError, match="K = 5"):
            gather_gains(ch, links)
        with pytest.raises(DimensionError, match="K = 5"):
            link_rates(ch, links, np.ones(5), 1e-11)


def test_ris_serving_two_ius_rejected():
    rng = np.random.default_rng(54)
    ch = rand_channelset(rng, k=2, l=1, m=3, n=4)
    with pytest.raises(DimensionError):
        gains_for_association(ch, np.array([[1], [1]]), 1e-11)
