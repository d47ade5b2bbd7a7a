"""Node geometry: fixed AP and RIS placement, random IU drops, distances.

A position is a length-3 float array (x, y, z) in meters. One Monte Carlo
realization redraws the IU positions uniformly over the square service
area; the AP (corner mount) and the RISs (evenly spaced along the opposite
wall) never move.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError

_MAX_DRAW_ATTEMPTS = 100_000


def as_position(p, name="position"):
    a = np.asarray(p, dtype=np.float64)
    if a.shape != (3,):
        raise ConfigError(f"{name} must have 3 coordinates, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NumericError(f"{name} has non-finite coordinates: {a}")
    if a[2] < 0.0:
        raise ConfigError(f"{name} is below ground: z = {a[2]}")
    return a


def _as_rows(nodes, name):
    # (count, 3) positions; an empty sequence means no nodes
    a = np.asarray(nodes, dtype=np.float64)
    if a.size and (a.ndim != 2 or a.shape[1] != 3):
        raise ConfigError(
            f"{name} positions must be rows of 3 coordinates, "
            f"got shape {a.shape}")
    return a.reshape(-1, 3)


@dataclass(frozen=True)
class NetworkTopology:
    ap: np.ndarray    # (3,)
    riss: np.ndarray  # (L, 3)
    ius: np.ndarray   # (K, 3)

    def __post_init__(self):
        ap = as_position(self.ap, "ap")
        riss = _as_rows(self.riss, "ris")
        ius = _as_rows(self.ius, "iu")
        if ius.shape[0] < 1:
            raise ConfigError("topology needs at least one IU")
        for i, r in enumerate(riss):
            as_position(r, f"ris[{i}]")
        for i, u in enumerate(ius):
            as_position(u, f"iu[{i}]")
        # equal rows are adjacent once sorted lexicographically
        nodes = np.vstack([ap[None, :], riss, ius])
        nodes = nodes[np.lexsort(nodes.T[::-1])]
        if np.any(np.all(nodes[1:] == nodes[:-1], axis=1)):
            raise ConfigError("co-located nodes in topology")
        object.__setattr__(self, "ap", ap)
        object.__setattr__(self, "riss", riss)
        object.__setattr__(self, "ius", ius)
        for arr in (self.ap, self.riss, self.ius):
            arr.setflags(write=False)

    @property
    def num_ius(self):
        return self.ius.shape[0]

    @property
    def num_riss(self):
        return self.riss.shape[0]

    def ap_iu_distances(self):
        return np.linalg.norm(self.ius - self.ap, axis=1)

    def ap_ris_distances(self):
        return np.linalg.norm(self.riss - self.ap, axis=1)

    def ris_iu_distances(self):
        # (L, K)
        return np.linalg.norm(self.riss[:, None, :] - self.ius[None, :, :],
                              axis=2)


def default_ris_positions(cfg):
    side = cfg.area_side_m
    count = cfg.num_riss
    xs = (np.arange(count) + 1.0) * side / (count + 1.0)
    out = np.empty((count, 3))
    out[:, 0] = xs
    out[:, 1] = side
    out[:, 2] = cfg.ris_height_m
    return out


def sample_topology(cfg, rng):
    """Draw one realization: fixed AP/RIS mounts, uniform IU drops.

    IU draws closer than cfg.min_ap_iu_separation_m to the AP (horizontal
    distance) are rejected and redrawn.
    """
    side = cfg.area_side_m
    ap = np.array([0.0, 0.0, cfg.ap_height_m])
    riss = default_ris_positions(cfg)
    ius = np.empty((cfg.num_ius, 3))
    ius[:, 2] = cfg.iu_height_m
    min_sep = cfg.min_ap_iu_separation_m
    for k in range(cfg.num_ius):
        for _ in range(_MAX_DRAW_ATTEMPTS):
            xy = rng.uniform(0.0, side, size=2)
            if np.hypot(xy[0], xy[1]) >= min_sep:
                ius[k, :2] = xy
                break
        else:
            raise ConfigError(
                "could not place an IU outside min_ap_iu_separation_m "
                f"= {min_sep} m within the {side:.3f} m square")
    return NetworkTopology(ap=ap, riss=riss, ius=ius)
