"""Channel synthesis and link gains.

Geometry-deterministic line-of-sight model: every coefficient of a link is
sqrt(pathloss) * exp(-j*omega*d) built from the link's center-to-center
distance, so all antennas/elements of one link share magnitude and phase.
Element spacing therefore never enters; randomness comes from IU placement
only. Each link is thus one coefficient: K direct, L feeder (AP -> RIS)
and L x K reflector (RIS -> IU) ones. synthesize_channels returns the
three link arrays as read-only zero-stride views of their coefficients,
(K, N), (L, M, N) and (L, K, M), which cost no memory.

On top of that: a ChannelSet forms, once, every IU's MRT beam on every
link it could use (direct, or through a RIS co-phased for it) and keeps
the power each beam delivers at every IU; the K x K gain matrices of any
batch of associations are one gather from that table (gather_gains). Per
RIS the table works on the link's (M, r) element side (see ChannelSet):
over cache-sized blocks of elements, the unit co-phasing coefficients of
all K IUs are formed once and one (K, block) x (block, K r) product,
numerics.matvec_hermitian, accumulates every IU's cascade co-phased for
every IU, a (K, K, r) array. Where the links have zero stride along the
elements, as synthesized ones do, the coefficients are formed on one
element per block and broadcast into the product's operands.
Each served IU's (K, N) channel slab is then its (K, r) slice plus the
direct channels, which broadcasts along the antennas when r = 1. An
Association is a link vector of such table indices, one per IU.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericError
from .numerics import matvec_hermitian

SPEED_OF_LIGHT = 299_792_458.0
_MIN_DISTANCE = 1e-3
# Link-table products run over blocks of elements small enough that each
# (K, block, r) temporary holds at most about _ENTRIES complex entries
# (128 kB, cache-sized). Memory then grows with K, not K * M.
_ENTRIES = 1 << 13


@dataclass(frozen=True)
class ChannelSet:
    """Link coefficients of one realization and their gain table.

    link_gains[j, k, i] is the power at IU k of IU i's unit MRT beam when i
    is on its direct link (j = 0) or on RIS j-1 co-phased for i: with the
    unit-amplitude profile that puts i's cascade in phase with
    direct[i, 0]. Column i is NaN where i's own channel on that link is
    zero. All arrays are read-only, so the table cannot go stale.

    Each link array may be dense or a zero-stride view, such as the views
    of their coefficients that synthesize_channels builds; an axis of zero
    stride is checked finite once. An ap_ris with zero stride
    along the antenna axis is constant along it, so the table reads only
    its first antenna column, ap_ris[:, :, :1] (r = 1). Any other ap_ris
    is read whole (r = N). Along an element axis of zero stride, of
    ris_iu or of that element side, the co-phasing coefficients are
    formed on one element per block, which gives the table of the links
    materialized.
    """

    direct: np.ndarray   # (K, N) AP -> IU
    ap_ris: np.ndarray   # (L, M, N) AP -> RIS
    ris_iu: np.ndarray   # (L, K, M) RIS -> IU
    carrier_freq_hz: float
    # (L+1, K, K), built from the three link arrays on construction
    link_gains: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = np.asarray(self.direct, dtype=np.complex128)
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
        # element side (L, M, r) of the links; see the class docstring
        u = a[:, :, :1] if a.strides[2] == 0 else a
        for name, arr in (("direct", d), ("ap_ris", u), ("ris_iu", r)):
            if not _all_finite(arr):
                raise NumericError(f"{name} contains non-finite entries")
        for name, arr in (("direct", d), ("ap_ris", a), ("ris_iu", r)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        gains = np.empty((l + 1, k, k))
        for i in range(k):
            gains[0, :, i] = _beam_gains(d, i)
        lead = _unit(d[:, 0])
        for li in range(l):
            cascade = _cascade(u[li], r[li])
            cascade *= lead[:, None]
            for j in range(k):
                # every IU's channel through RIS li co-phased for IU j
                gains[li + 1, :, j] = _beam_gains(cascade[:, j] + d, j)
        gains.setflags(write=False)
        object.__setattr__(self, "link_gains", gains)

    @property
    def num_ius(self):
        return self.direct.shape[0]

    @property
    def num_riss(self):
        return self.ap_ris.shape[0]


@dataclass(frozen=True)
class GainMatrix:
    """g[k, i]: power gain of interferer i's beam at IU k, plus noise; or a
    (C, K, K) stack of C such matrices that share one noise vector, checked
    by the same rules (rate.link_rates builds one per batch)."""

    g: np.ndarray            # (K, K) or (C, K, K)
    noise_power: np.ndarray  # (K,) watts

    def __post_init__(self):
        g = np.asarray(self.g, dtype=np.float64)
        if g.ndim not in (2, 3) or g.shape[-2] != g.shape[-1]:
            raise DimensionError(f"g must be square, got {g.shape}")
        noise = np.broadcast_to(
            np.asarray(self.noise_power, dtype=np.float64), (g.shape[-1],)).copy()
        if not np.all(np.isfinite(g)) or np.any(g < 0.0):
            raise NumericError("gain entries must be finite and >= 0")
        if not np.all(np.isfinite(noise)) or np.any(noise <= 0.0):
            raise NumericError("noise power must be finite and > 0")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "noise_power", noise)

    @property
    def num_ius(self):
        return self.g.shape[-1]


_ONE_TO_ONE = ("association must be one-to-one: at most one RIS per IU and "
               "one IU per RIS")


@dataclass(frozen=True, eq=False)
class Association:
    """One-to-one IU-RIS association as a read-only (K,) link vector: entry
    i is 0 for IU i's direct link, l + 1 for RIS l. The constructor is the
    one check of an association: integers in 0..num_riss, no RIS twice.
    Two associations are equal when their num_riss and links are, so an
    association can be a set member or a dict key."""

    links: np.ndarray
    num_riss: int

    def __post_init__(self):
        links = np.asarray(self.links)
        if links.ndim != 1:
            raise DimensionError(f"links must be 1-d, got shape {links.shape}")
        _check_links(links, self.num_riss)
        links = links.astype(np.intp)
        if np.bincount(links)[1:].max(initial=0) > 1:
            raise DimensionError(_ONE_TO_ONE)
        links.setflags(write=False)
        object.__setattr__(self, "links", links)

    def __eq__(self, other):
        if not isinstance(other, Association):
            return NotImplemented
        return (self.num_riss == other.num_riss
                and np.array_equal(self.links, other.links))

    def __hash__(self):
        # links is always intp, so equal vectors have equal bytes
        return hash((self.num_riss, self.links.tobytes()))

    @classmethod
    def from_gamma(cls, gamma):
        """The association of a binary K x L gamma, gamma[k, l] = 1 if RIS
        l serves IU k; bool and float 0/1 entries pass."""
        g = np.asarray(gamma)
        if g.ndim != 2:
            raise DimensionError(f"gamma must be 2-d, got shape {g.shape}")
        # not np.unique: it imports numpy.ma, about 12 ms per process
        if not np.all((g == 0) | (g == 1)):
            raise NumericError("gamma entries must be 0 or 1")
        if np.any(g.sum(axis=1) > 1):
            raise DimensionError(_ONE_TO_ONE)
        return cls(links=g.astype(np.intp) @ np.arange(1, g.shape[1] + 1),
                   num_riss=g.shape[1])

    @property
    def gamma(self):
        """Read-only binary K x L matrix; row l + 1 of the shifted identity
        marks RIS l, row 0 none."""
        shifted = np.eye(self.num_riss + 1, self.num_riss, -1, dtype=np.int64)
        g = shifted[self.links]
        g.setflags(write=False)
        return g


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

    def coefficients(distances):
        return np.array([_coefficient(d, f, alpha) for d in distances.flat],
                        dtype=np.complex128).reshape(distances.shape)

    direct = np.broadcast_to(
        coefficients(topo.ap_iu_distances())[:, None], (k, n))
    ap_ris = np.broadcast_to(
        coefficients(topo.ap_ris_distances())[:, None, None], (l, m, n))
    ris_iu = np.broadcast_to(
        coefficients(topo.ris_iu_distances())[:, :, None], (l, k, m))
    return ChannelSet(direct=direct, ap_ris=ap_ris, ris_iu=ris_iu,
                      carrier_freq_hz=f)


def _coefficient(d, f, alpha):
    """sqrt(pathloss) * exp(-j omega d) of a link d meters long."""
    omega = 2.0 * np.pi * f / SPEED_OF_LIGHT
    return np.sqrt(pathloss(d, f, alpha)) * np.exp(-1j * omega * d)


def _all_finite(arr):
    """No NaN or +-inf entry in complex arr, checked by min and max of its
    real and imaginary parts, which propagate both, so without an
    input-sized mask. An axis of zero stride repeats one entry and is read
    once."""
    arr = _distinct(arr)
    return all(np.isfinite(p.min(initial=0.0))
               and np.isfinite(p.max(initial=0.0))
               for p in (arr.real, arr.imag))


def _cascade(u, ris_iu):
    """(K, K, r) array whose [i, j] is IU i's cascade through one RIS,
    co-phased for IU j but before the turn to j's direct phase, on the
    element side u (M, r) of the RIS's link: its first antenna column
    (r = 1) when the link is constant along the antennas, else the link.

    [i, j, q] = sum_e ris_iu[i, e] conj(phase[j, e] u[e, q]), phase[j, e]
    the unit coefficient of (conj(u[e, 0]) ris_iu[j, e]), summed over
    element blocks of one (K, block) x (block, K r) Hermitian product
    each, matvec_hermitian(v, ris_iu[:, block]) with v[e, j r + q] =
    phase[j, e] u[e, q]. The elementwise work runs on _distinct views,
    so on one element of a block whose links repeat it; v and the block
    of ris_iu are materialized for the product either way.
    """
    k, rank = ris_iu.shape[0], u.shape[1]
    step = max(1, _ENTRIES // max(k * rank, 1))
    out = np.zeros((k, k * rank), dtype=np.complex128)
    for m0 in range(0, len(u), step):
        blk = slice(m0, m0 + step)
        ub, rb = _distinct(u[blk]), _distinct(ris_iu[:, blk])
        # a (1, block) row: numpy 2.4 multiplies a (1,) by a (1, 1)
        # complex array without the fused multiply-add of its other
        # complex products, so a 1-d row would round differently at K = 1
        phase = _unit(np.conj(ub[:, :1].T) * rb)
        n = min(step, len(u) - m0)
        # materialized in the layout numpy gives the product on dense
        # links, so the same BLAS call sees the same operands
        v = np.empty((k, n, rank), dtype=np.complex128).transpose(1, 0, 2)
        np.multiply(phase.T[:, :, None], ub[:, None, :], out=v)
        out += matvec_hermitian(v.reshape(n, k * rank),
                                np.ascontiguousarray(ris_iu[:, blk]))
    return out.reshape(k, k, rank)


def _distinct(arr):
    """arr read once along every axis of zero stride, which repeats one
    entry: a view that broadcasts back to arr."""
    return arr[tuple(slice(None) if s else slice(1) for s in arr.strides)]


def _unit(z):
    """z / |z| elementwise: exp(j angle(z)) without angle or exp. At z = 0
    it is exp(j angle(z)) itself, so signed zeros keep np.angle's
    convention."""
    mag = np.abs(z)
    if mag.all():
        return z * np.reciprocal(mag, out=mag)
    zero = mag == 0.0
    mag[zero] = 1.0
    out = z * np.reciprocal(mag, out=mag)
    out[zero] = np.exp(1j * np.angle(z[zero]))
    return out


def _beam_gains(h, i):
    """|<h[k], h[i] / |h[i]|>|^2 for every row k of h; NaN if h[i] = 0."""
    norm = np.linalg.norm(h[i])
    if norm <= 0.0:
        return np.nan
    inner = np.conj(h) @ (h[i] / norm)
    return inner.real ** 2 + inner.imag ** 2


def gains_for_association(channels, assoc, noise_power_w):
    """K x K gain matrix of one association (an Association or a raw binary
    K x L gamma, see Association.from_gamma). Entry (k, i) is |<h, w_i>|^2
    with h IU k's channel through the RIS serving interferer i (the direct
    link alone if i has none) and w_i the unit MRT beam along IU i's own
    such channel."""
    if not isinstance(assoc, Association):
        assoc = Association.from_gamma(assoc)
    shape = (len(assoc.links), assoc.num_riss)
    if shape != (channels.num_ius, channels.num_riss):
        raise DimensionError(
            f"association matrix {shape} does not match (K, L) = "
            f"({channels.num_ius}, {channels.num_riss})")
    return GainMatrix(g=gather_gains(channels, assoc.links[None])[0],
                      noise_power=noise_power_w)


def check_zero_channels(channels, links):
    """Raise for the first association, a row of links, that reads a zero
    effective channel (a NaN table column), naming its first such IU."""
    users = np.arange(links.shape[1])
    # zero[c, i]: the column association c reads for IU i is NaN
    zero = np.isnan(channels.link_gains).any(axis=1)[links, users]
    if zero.any():
        _, i = np.argwhere(zero)[0]  # row-major: first association first
        raise NumericError(f"effective channel of IU {i} is zero")


def _check_links(links, num_riss):
    """Raise unless every link is an integer table index, 0..num_riss: a
    cast to intp would truncate 1.7 and read True as RIS 1, and numpy would
    read -1 as the last RIS and raise a bare IndexError past it."""
    if links.dtype.kind not in "iu":
        raise NumericError(f"links must be integers, got {links.dtype}")
    if np.any(links < 0) or np.any(links > num_riss):
        raise NumericError(f"links must be in 0..{num_riss}")


def gather_gains(channels, links):
    """(C, K, K) gain matrices of C associations, the rows of links (entry
    i is 0 for IU i's direct link, l + 1 for RIS l): g[c, k, i] =
    link_gains[links[c, i], k, i]; links that are not integers in 0..L
    and zero channels raise, as do links that are not rows of K entries.
    Rows are not checked one-to-one: that check stays with the Association
    constructor."""
    links = np.asarray(links)
    if links.ndim != 2 or links.shape[1] != channels.num_ius:
        raise DimensionError(f"links of shape {links.shape} are not rows of "
                             f"K = {channels.num_ius} entries")
    _check_links(links, channels.num_riss)
    links = links.astype(np.intp, copy=False)
    check_zero_channels(channels, links)
    users = np.arange(links.shape[1])
    return channels.link_gains[links[:, None, :], users[:, None], users]
