"""Channel synthesis and link gains.

Geometry-deterministic line-of-sight model: every coefficient of a link is
sqrt(pathloss) * exp(-j*omega*d) built from the link's center-to-center
distance, so all antennas/elements of one link share magnitude and phase.
Element spacing therefore never enters; randomness comes from IU placement
only. The AP and the surfaces never move, so the AP -> RIS (feeder) link
is built, checked finite and frozen once per deployment (_fixed_link):
every realization of a sweep point shares it. It is kept as its factor
A_l = U_l W_l, U_l (M, r) and W_l (r, N); under this model r = 1, with
U_l = c_l 1_M and W_l = 1_N^T. ChannelSet.ap_ris is then a read-only
zero-stride (L, M, N) view of the coefficients, which costs no memory.

On top of that: a ChannelSet forms, once, every IU's MRT beam on every
link it could use (direct, or through a RIS co-phased for it) and keeps
the power each beam delivers at every IU; the K x K gain matrix of any
association is a gather from that table. The table stacks, per RIS, every
IU's channel co-phased for a group of served IUs as the rows of one
product with a block of the RIS's elements: a few (rows, block) x
(block, r) products with U_l per group, then one (rows, r) x (r, N)
product with W_l. A dense link given by the caller is its own factor
(U_l = A_l, no W_l). Every product's left operand is written into one
buffer allocated per table build.
"""

from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import DimensionError, NumericError

SPEED_OF_LIGHT = 299_792_458.0
_MIN_DISTANCE = 1e-3
# Link-table products: served IUs are grouped so that a product has at
# least about _ROWS rows (group * K), and elements are blocked so that its
# stacked left operand holds at most about _ENTRIES complex entries (1 MB).
# Memory then grows with K, not K^2.
_ROWS = 32
_ENTRIES = 1 << 16

# (key, link, factor) of the last AP -> RIS link built in this process;
# see _fixed_link. One entry, so a sweep holds one point's link at a time.
_link = (None, None, None)


@dataclass(frozen=True)
class ChannelSet:
    """Link coefficients of one realization and their gain table.

    link_gains[j, k, i] is the power at IU k of IU i's unit MRT beam when i
    is on its direct link (j = 0) or on RIS j-1 co-phased for i: with the
    unit-amplitude profile that puts i's cascade in phase with
    direct[i, 0]. Column i is NaN where i's own channel on that link is
    zero. All arrays are read-only, so the table cannot go stale.
    """

    direct: np.ndarray   # (K, N) AP -> IU
    ap_ris: np.ndarray   # (L, M, N) AP -> RIS
    ris_iu: np.ndarray   # (L, K, M) RIS -> IU
    carrier_freq_hz: float
    # (L+1, K, K), built from the three link arrays on construction
    link_gains: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = np.ascontiguousarray(self.direct, dtype=np.complex128)
        a = np.asarray(self.ap_ris, dtype=np.complex128)
        r = np.asarray(self.ris_iu, dtype=np.complex128)
        if d.ndim != 2:
            raise DimensionError(f"direct must be (K, N), got {d.shape}")
        k, n = d.shape
        if a.ndim != 3 or a.shape[2] != n:
            raise DimensionError(f"ap_ris must be (L, M, {n}), got {a.shape}")
        l, m = a.shape[0], a.shape[1]
        if r.shape != (l, k, m):
            raise DimensionError(f"ris_iu must be ({l}, {k}, {m}), got {r.shape}")
        for name, arr in (("direct", d), ("ap_ris", a), ("ris_iu", r)):
            # the fixed AP -> RIS link was checked when it was built
            if arr is not _link[1] and not _all_finite(arr):
                raise NumericError(f"{name} contains non-finite entries")
        for name, arr in (("direct", d), ("ap_ris", a), ("ris_iu", r)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        gains = np.empty((l + 1, k, k))
        for i in range(k):
            gains[0, :, i] = _beam_gains(d, i)
        k1 = max(k, 1)  # K = 0 leaves an empty table
        group = min(k1, max(1, _ROWS // k1))
        step = max(1, _ENTRIES // (group * k1))
        # at least one block, so that M = 0 still gives a zero cascade
        blocks = [slice(m0, m0 + step) for m0 in range(0, max(m, 1), step)]
        buf = np.empty(group * k * min(step, m), dtype=np.complex128)
        # A_l = U_l W_l: the kept link's factor, or a given link as itself
        us, ws = _link[2] if a is _link[1] else (a, None)
        for li in range(l):
            u, w = us[li], None if ws is None else ws[li]
            lead = _unit(d[:, 0])
            ap0 = np.conj(u[:, 0] if w is None else u @ w[:, 0])
            for s0 in range(0, k, group):
                s1 = min(s0 + group, k)
                # row j*K + i: IU i's cascade through RIS li co-phased for
                # served IU s0 + j
                cascade = sum(numerics.matvec_hermitian(
                    u[blk], _cophased(buf, lead[s0:s1], ap0[blk],
                                      r[li, s0:s1, blk], r[li, :, blk]))
                    for blk in blocks)
                if w is not None:
                    cascade = cascade @ np.conj(w)
                h = cascade.reshape(s1 - s0, k, n)
                h += d
                for j, s in enumerate(range(s0, s1)):
                    gains[li + 1, :, s] = _beam_gains(h[j], s)
        gains.setflags(write=False)
        object.__setattr__(self, "link_gains", gains)

    @property
    def num_ius(self):
        return self.direct.shape[0]

    @property
    def num_antennas(self):
        return self.direct.shape[1]

    @property
    def num_riss(self):
        return self.ap_ris.shape[0]

    @property
    def num_elements(self):
        return self.ap_ris.shape[1]


@dataclass(frozen=True)
class GainMatrix:
    """g[k, i]: power gain of interferer i's beam at IU k, plus noise."""

    g: np.ndarray            # (K, K)
    noise_power: np.ndarray  # (K,) watts

    def __post_init__(self):
        g = np.asarray(self.g, dtype=np.float64)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise DimensionError(f"g must be square, got {g.shape}")
        noise = np.broadcast_to(
            np.asarray(self.noise_power, dtype=np.float64), (g.shape[0],)).copy()
        if not np.all(np.isfinite(g)) or np.any(g < 0.0):
            raise NumericError("gain entries must be finite and >= 0")
        if not np.all(np.isfinite(noise)) or np.any(noise <= 0.0):
            raise NumericError("noise power must be finite and > 0")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "noise_power", noise)

    @property
    def num_ius(self):
        return self.g.shape[0]


def pathloss(d_m, freq_hz, exponent=2.0):
    """Linear power gain (c / 4 pi f)^2 * d^-exponent; free-space at exponent 2."""
    d = float(d_m)
    f = float(freq_hz)
    if d < _MIN_DISTANCE:
        raise NumericError(f"distance {d} m below {_MIN_DISTANCE} m minimum")
    if f <= 0.0:
        raise NumericError(f"carrier frequency must be > 0, got {f}")
    return (SPEED_OF_LIGHT / (4.0 * np.pi * f)) ** 2 * d ** (-float(exponent))


def synthesize_channels(topo, cfg):
    """Build the ChannelSet for one topology under the scenario config."""
    f = cfg.carrier_freq_hz
    alpha = cfg.pathloss_exponent
    n, m = cfg.num_antennas, cfg.num_elements
    k, l = topo.num_ius, topo.num_riss
    direct = np.empty((k, n), dtype=np.complex128)
    for i, d in enumerate(topo.ap_iu_distances()):
        direct[i, :] = _coefficient(d, f, alpha)
    ap_ris = _fixed_link(topo, f, alpha, m, n)
    ris_iu = np.empty((l, k, m), dtype=np.complex128)
    d_lk = topo.ris_iu_distances()
    for j in range(l):
        for i in range(k):
            ris_iu[j, i, :] = _coefficient(d_lk[j, i], f, alpha)
    return ChannelSet(direct=direct, ap_ris=ap_ris, ris_iu=ris_iu,
                      carrier_freq_hz=f)


def _coefficient(d, f, alpha):
    """sqrt(pathloss) * exp(-j omega d) of a link d meters long."""
    omega = 2.0 * np.pi * f / SPEED_OF_LIGHT
    return np.sqrt(pathloss(d, f, alpha)) * np.exp(-1j * omega * d)


def _fixed_link(topo, f, alpha, m, n):
    """The (L, M, N) AP -> RIS link of topo's AP and surfaces, as a
    read-only zero-stride view; its factor is kept beside it for the
    link-gain table.

    The key is every value the link is built from and nothing else, so
    every point of a power sweep (or a user-count sweep) shares one link
    per process. The previous link is released before the next one is
    built. A link with non-finite entries raises and is not kept.
    """
    global _link
    key = (tuple(topo.ap.tolist()), tuple(map(tuple, topo.riss.tolist())),
           f, alpha, m, n)
    if _link[0] == key:
        return _link[1]
    _link = (None, None, None)
    u, w = _build_link(topo, f, alpha, m, n)
    if not (_all_finite(u) and _all_finite(w)):
        raise NumericError("ap_ris contains non-finite entries")
    u.setflags(write=False)
    w.setflags(write=False)
    # every entry of link l is one coefficient, U_l[0] W_l[:, 0]: its
    # zero-stride view is the whole link
    link = np.broadcast_to(u[:, :1] @ w[:, :, :1], (len(u), m, n))
    _link = (key, link, (u, w))
    return link


def _build_link(topo, f, alpha, m, n):
    """Factor (U, W) of the AP -> RIS link, A_l = U_l W_l: U (L, M, 1)
    holds link l's coefficient at every element and W (L, 1, N) is 1."""
    c = np.array([_coefficient(d, f, alpha)
                  for d in topo.ap_ris_distances()], dtype=np.complex128)
    u = np.repeat(c[:, None, None], m, axis=1)
    return u, np.ones((len(c), 1, n), dtype=np.complex128)


def _all_finite(arr):
    return bool(np.all(np.isfinite(arr)))


def _cophased(buf, lead, ap0, served, every):
    """Left operand of one link-table product, over a block of elements,
    written into the front of buf.

    Row j*K + i is every[i] * turn[j], where turn[j, e] = exp(j(arg lead[j]
    - arg(ap0[e] served[j, e]))) is the unit coefficient of element e that
    co-phases served IU j's cascade with its direct channel at antenna 0
    (lead: unit direct[:, 0] of the served IUs; ap0: conj(ap_ris[l, :, 0])).
    """
    turn = lead[:, None] * np.conj(_unit(ap0 * served))
    rows, width = len(turn) * len(every), every.shape[1]
    out = buf[:rows * width].reshape(len(turn), len(every), width)
    np.multiply(turn[:, None], every, out=out)
    return out.reshape(rows, width)


def _unit(z):
    """z / |z| elementwise: exp(j angle(z)) without angle or exp. At z = 0
    it is exp(j angle(z)) itself, so signed zeros keep np.angle's
    convention."""
    mag = np.abs(z)
    zero = mag == 0.0
    mag[zero] = 1.0
    out = z / mag
    out[zero] = np.exp(1j * np.angle(z[zero]))
    return out


def _beam_gains(h, i):
    """|<h[k], h[i] / |h[i]|>|^2 for every row k of h; NaN if h[i] = 0."""
    norm = np.linalg.norm(h[i])
    if norm <= 0.0:
        return np.nan
    inner = np.conj(h) @ (h[i] / norm)
    return inner.real ** 2 + inner.imag ** 2


def check_binary(gamma):
    """Raise unless every entry of gamma is 0 or 1; bool and float 0/1
    pass."""
    # not np.unique: it imports numpy.ma, about 12 ms per process
    if not np.all((gamma == 0) | (gamma == 1)):
        raise NumericError("gamma entries must be 0 or 1")


def gains_for_association(channels, assoc, noise_power_w):
    """K x K gain matrix of one association (an Association or a raw binary
    K x L gamma). Entry (k, i) is |<h, w_i>|^2 with h IU k's channel through
    the RIS serving interferer i (the direct link alone if i has none) and
    w_i the unit MRT beam along IU i's own such channel."""
    gamma = np.asarray(getattr(assoc, "gamma", assoc))
    k_count, l_count = channels.num_ius, channels.num_riss
    if gamma.shape != (k_count, l_count):
        raise DimensionError(
            f"association matrix {gamma.shape} does not match "
            f"(K, L) = ({k_count}, {l_count})")
    check_binary(gamma)
    served = gamma != 0
    if np.any(served.sum(axis=1) > 1) or np.any(served.sum(axis=0) > 1):
        raise DimensionError(
            "association must be one-to-one: at most one RIS per IU and "
            "one IU per RIS")
    link = served @ np.arange(1, l_count + 1)
    users = np.arange(k_count)
    g = channels.link_gains[link, users[:, None], users]
    zero = np.flatnonzero(np.isnan(g).any(axis=0))
    if zero.size:
        raise NumericError(f"effective channel of IU {zero[0]} is zero")
    return GainMatrix(g=g, noise_power=noise_power_w)
