"""IU-RIS association: stable matching plus greedy, random, and exhaustive
baselines. Each returns an Association, a link vector (entry i is 0 for IU
i's direct link, l + 1 for RIS l) from which the binary K x L gamma derives.

Preference lists come from a static utility matrix u[k, l]: IU k's rate when
it alone uses RIS l (everyone else on direct links) under the fixed power
allocation, read from one (L, K, K) stack of gain matrices. Freezing
utilities this way keeps deferred acceptance in the textbook setting; full
interference-coupled rates are still what the experiment reports for the
chosen association. Exhaustive candidates are scored in batches by
rate.link_rates.
"""

import itertools
import math

import numpy as np

from .errors import DimensionError, NumericError, SizeError
from .channel import Association, GainMatrix, check_zero_channels
from .rate import _rates, link_rates

# Exhaustive scoring gathers at most about this many gains (8 bytes each)
# per chunk of candidates, so its memory does not grow with their count.
_GATHER_ENTRIES = 1 << 16


def utility_matrix(channels, p_star, noise_power_w):
    """u[k, l]: IU k's own rate if RIS l serves it and nobody else uses a RIS.

    That rate reads only row k of its association's gain matrix: the direct
    table's row k with (k, k) from RIS l. Matrix l of an (L, K, K) stack,
    the direct table with RIS l's own gains on its diagonal, holds that row
    for every k. A zero effective channel raises for the first such (k, l)
    in row-major order, as gains_for_association does for it.
    """
    k_count, l_count = channels.num_ius, channels.num_riss
    users = np.arange(k_count)
    links = np.zeros((k_count, l_count, k_count), dtype=np.intp)
    links[users, :, users] = np.arange(1, l_count + 1)
    check_zero_channels(channels, links.reshape(-1, k_count))
    table = channels.link_gains
    stack = np.repeat(table[:1], l_count, axis=0)
    stack[:, users, users] = table[1:, users, users]
    return _rates(GainMatrix(g=stack, noise_power=noise_power_w), p_star)[1].T


def _check_utilities(u):
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2:
        raise DimensionError(f"utility matrix must be 2-d, got {u.shape}")
    if not np.all(np.isfinite(u)):
        raise NumericError("utilities must be finite")
    return u


def match_deferred_acceptance(u):
    """IU-proposing deferred acceptance on static utilities.

    IUs walk their preference lists in descending utility (ties to the
    lower RIS index) and only propose where u > 0; a RIS holds the best
    proposal seen so far (ties to the lower IU index). The result has no
    blocking pair under u.
    """
    u = _check_utilities(u)
    k_count, l_count = u.shape
    prefs = [iter(sorted((l for l in range(l_count) if u[k, l] > 0.0),
                         key=lambda l: (-u[k, l], l)))
             for k in range(k_count)]
    holder = [-1] * l_count
    free = list(range(k_count))
    while free:
        k = free.pop(0)
        for l in prefs[k]:
            cur = holder[l]
            if cur < 0 or (u[k, l], -k) > (u[cur, l], -cur):
                holder[l] = k
                if cur >= 0:
                    free.append(cur)
                break
        # list exhausted: IU stays on its direct link
    # surfaces nobody holds (holder -1) write to a spare last entry
    links = np.zeros(k_count + 1, dtype=np.intp)
    links[holder] = np.arange(1, l_count + 1)
    return Association(links=links[:-1], num_riss=l_count)


def greedy_association(u, rng):
    """One-shot proposal round: every IU bids for its best RIS, contested
    RISs keep a uniformly random proposer, losers fall back to the direct
    link."""
    u = _check_utilities(u)
    k_count, l_count = u.shape
    bids = {}
    for k in range(k_count):
        # argmax: the lowest RIS of the highest utility, if it is positive
        if l_count and u[k].max() > 0.0:
            bids.setdefault(int(u[k].argmax()), []).append(k)
    links = np.zeros(k_count, dtype=np.intp)
    for l in sorted(bids):
        proposers = bids[l]
        pick = int(rng.integers(len(proposers))) if len(proposers) > 1 else 0
        links[proposers[pick]] = l + 1
    return Association(links=links, num_riss=l_count)


def random_association(num_ius, num_riss, rng):
    """Uniform partial assignment: random IU order, each picks among the
    still-free RISs or no RIS at all."""
    free = list(range(1, num_riss + 1))
    links = np.zeros(num_ius, dtype=np.intp)
    for k in rng.permutation(num_ius):
        pick = int(rng.integers(len(free) + 1))
        if pick < len(free):
            links[k] = free.pop(pick)
    return Association(links=links, num_riss=num_riss)


def count_feasible_associations(num_ius, num_riss):
    """Number of partial one-to-one IU->RIS maps."""
    return sum(math.comb(num_ius, j) * math.comb(num_riss, j)
               * math.factorial(j)
               for j in range(min(num_ius, num_riss) + 1))


def exhaustive_association(channels, p_star, noise_power_w, cap=100_000):
    """Enumerate every feasible association, scoring each by the full
    coupled sum rate at p_star. Returns (best association, its sum rate).

    Candidates are scored by rate.link_rates in chunks of at most
    _GATHER_ENTRIES gathered gains, so rates, ties and errors are those
    of scoring each candidate alone. The first best candidate in
    enumeration order wins.
    """
    k_count, l_count = channels.num_ius, channels.num_riss
    total = count_feasible_associations(k_count, l_count)
    if total > cap:
        raise SizeError(f"{total} feasible associations exceed the cap of {cap}")
    per_chunk = max(1, _GATHER_ENTRIES // max(1, k_count * k_count))
    candidates = _candidate_links(k_count, l_count)
    best_link, best_rate = None, -np.inf
    while chunk := list(itertools.islice(candidates, per_chunk)):
        links = np.array(chunk, dtype=np.intp).reshape(len(chunk), k_count)
        rates = link_rates(channels, links, p_star, noise_power_w).sum(axis=1)
        c = int(np.argmax(rates))
        if rates[c] > best_rate:
            best_link, best_rate = links[c], rates[c]
    return Association(links=best_link, num_riss=l_count), float(best_rate)


def _candidate_links(k_count, l_count):
    """Every feasible association as its link vector, in enumeration order:
    j served IUs, then combinations of IUs, then permutations of RISs."""
    for j in range(min(k_count, l_count) + 1):
        for ius in itertools.combinations(range(k_count), j):
            for riss in itertools.permutations(range(1, l_count + 1), j):
                link = [0] * k_count
                for k, l in zip(ius, riss):
                    link[k] = l
                yield link

