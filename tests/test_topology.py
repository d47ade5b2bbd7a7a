import numpy as np
import pytest

from fr3ris.config import ScenarioConfig, parse_config
from fr3ris.errors import ConfigError, NumericError
from fr3ris.topology import NetworkTopology, sample_topology

from oracles import distance


def _desk_cfg(**kw):
    return ScenarioConfig(num_ius=3, num_riss=3, ris_elements_y=25,
                          ris_elements_z=25).with_updates(**kw)


def test_distance_frozen_examples():
    assert distance((0, 0, 0), (0, 0, 0)) == 0.0
    assert distance((0, 0, 0), (3, 4, 0)) == pytest.approx(5.0, abs=1e-12)
    assert distance((1, 2, 3), (4, 6, 3)) == pytest.approx(5.0, abs=1e-12)


def test_distance_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(21)
    for _ in range(200):
        a, b, c = rng.uniform(0, 50, size=(3, 3))
        assert distance(a, b) == pytest.approx(distance(b, a), abs=1e-12)
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9


def test_same_seed_reproduces_topology_bitwise():
    cfg = _desk_cfg()
    t1 = sample_topology(cfg, np.random.default_rng(5))
    t2 = sample_topology(cfg, np.random.default_rng(5))
    assert np.array_equal(t1.ius, t2.ius)
    assert np.array_equal(t1.riss, t2.riss)
    t3 = sample_topology(cfg, np.random.default_rng(6))
    assert not np.array_equal(t1.ius, t3.ius)


def test_fixed_mounts_and_heights():
    cfg = _desk_cfg()
    topo = sample_topology(cfg, np.random.default_rng(0))
    assert np.array_equal(topo.ap, [0.0, 0.0, cfg.ap_height_m])
    # RISs evenly spaced along the far wall y = side
    np.testing.assert_allclose(topo.riss[:, 0], [2.5, 5.0, 7.5], atol=1e-12)
    np.testing.assert_allclose(topo.riss[:, 1], 10.0, atol=1e-12)
    np.testing.assert_allclose(topo.riss[:, 2], cfg.ris_height_m, atol=1e-12)
    np.testing.assert_allclose(topo.ius[:, 2], cfg.iu_height_m, atol=1e-12)


def test_ius_stay_inside_area_and_outside_exclusion_disc():
    cfg = _desk_cfg(min_ap_iu_separation_m=3.0, num_ius=8)
    rng = np.random.default_rng(33)
    for _ in range(100):
        topo = sample_topology(cfg, rng)
        assert np.all(topo.ius[:, :2] >= 0.0)
        assert np.all(topo.ius[:, :2] <= cfg.area_side_m)
        horiz = np.hypot(topo.ius[:, 0], topo.ius[:, 1])
        assert np.all(horiz >= 3.0)


def test_uniform_drop_statistics():
    # law of large numbers on the x coordinate over a 10 m side
    cfg = _desk_cfg(num_ius=10_000, min_ap_iu_separation_m=0.0)
    topo = sample_topology(cfg, np.random.default_rng(77))
    assert abs(topo.ius[:, 0].mean() - 5.0) < 0.1
    assert abs(topo.ius[:, 1].mean() - 5.0) < 0.1


def test_zero_iu_count_rejected():
    with pytest.raises(ConfigError):
        parse_config("num_ius = 0")
    with pytest.raises(ConfigError):
        ScenarioConfig().with_updates(num_ius=0)


def test_colocated_nodes_rejected():
    with pytest.raises(ConfigError, match="co-located"):
        NetworkTopology(ap=[0, 0, 10], riss=[[0, 0, 10]], ius=[[1, 1, 1.5]])
    with pytest.raises(ConfigError, match="below ground"):
        NetworkTopology(ap=[0, 0, -1], riss=np.empty((0, 3)), ius=[[1, 1, 1.5]])


_NO_RIS = np.empty((0, 3))


@pytest.mark.parametrize("ap, riss, ius, error, match", [
    ([0, 0], _NO_RIS, [[1, 1, 1.5]], ConfigError,
     r"ap must have 3 coordinates"),
    ([0, 0, np.nan], _NO_RIS, [[1, 1, 1.5]], NumericError,
     "ap has non-finite"),
    ([0, 0, 10], _NO_RIS, [[1, np.inf, 1.5]], NumericError,
     r"iu\[0\] has non-finite"),
    ([0, 0, 10], _NO_RIS, np.empty((0, 3)), ConfigError, "at least one IU"),
    # six numbers that reshape to two IUs, and four that do not reshape
    ([0, 0, 10], _NO_RIS, [[1, 2], [3, 4], [5, 6]], ConfigError,
     r"iu positions must be rows of 3 coordinates, got shape \(3, 2\)"),
    ([0, 0, 10], _NO_RIS, [[1, 2], [3, 4]], ConfigError,
     r"iu positions must be rows of 3 coordinates, got shape \(2, 2\)"),
    ([0, 0, 10], [[1, 2]], [[1, 1, 1.5]], ConfigError,
     r"ris positions must be rows of 3 coordinates, got shape \(1, 2\)"),
], ids=["ap-2-coordinates", "ap-nan", "iu-inf", "no-iu", "iu-3x2", "iu-2x2",
        "ris-1x2"])
def test_malformed_nodes_are_refused_naming_the_node(ap, riss, ius, error,
                                                     match):
    with pytest.raises(error, match=match):
        NetworkTopology(ap=ap, riss=riss, ius=ius)


def test_an_empty_node_sequence_means_no_nodes():
    for riss in ([], np.empty((0, 3))):
        assert NetworkTopology(ap=[0, 0, 10], riss=riss,
                               ius=[[1, 1, 1.5]]).riss.shape == (0, 3)


def test_an_iu_that_fits_nowhere_outside_the_exclusion_disc_is_refused():
    # the separation is just under the 14.142 m diagonal of the 10 m square,
    # which the config accepts, but every draw lands inside the disc
    cfg = ScenarioConfig(num_ius=1, area_m2=100.0,
                         min_ap_iu_separation_m=14.1421356)
    with pytest.raises(ConfigError, match="could not place an IU"):
        sample_topology(cfg, np.random.default_rng(0))


def test_topology_arrays_are_frozen():
    topo = sample_topology(_desk_cfg(), np.random.default_rng(1))
    with pytest.raises(ValueError):
        topo.ius[0, 0] = 99.0


def test_distance_helpers_match_pairwise_norms():
    topo = sample_topology(_desk_cfg(), np.random.default_rng(2))
    for k in range(topo.num_ius):
        assert topo.ap_iu_distances()[k] == pytest.approx(
            distance(topo.ap, topo.ius[k]), abs=1e-12)
    for l in range(topo.num_riss):
        assert topo.ap_ris_distances()[l] == pytest.approx(
            distance(topo.ap, topo.riss[l]), abs=1e-12)
        for k in range(topo.num_ius):
            assert topo.ris_iu_distances()[l, k] == pytest.approx(
                distance(topo.riss[l], topo.ius[k]), abs=1e-12)
