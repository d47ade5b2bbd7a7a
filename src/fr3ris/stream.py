"""PCG64 draws, bit for bit those of numpy's default_rng.

fr3ris makes three kinds of draw: uniform floats, bounded integers and
permutations. `Stream(entropy)` yields for `uniform(low, high, size)`,
`integers(high)` and `permutation(n)` exactly what numpy's
`default_rng(entropy)` Generator yields for the same calls. So the sweep
CSVs are those numpy's Generator would give, without importing numpy's
random package (about 10 ms, hashlib among it, in every sweep process)
for a few dozen draws per realization, and without depending on numpy
keeping its Generator streams unchanged across releases.

Seeding is numpy's SeedSequence: the entropy's 32-bit words are hashed
into a pool of four words, which then generates two 128-bit words, the
PCG64 state seed and its stream (increment) selector. Each draw takes one
step of the 128-bit LCG and permutes the new state with XSL-RR (O'Neill
2014, "PCG: A family of simple fast space-efficient statistically good
algorithms for random number generation", HMC-CS-2014-0905). Arguments
beyond what fr3ris draws raise ValueError rather than drift from numpy.
"""

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341

# SeedSequence's hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _entropy_words(entropy):
    # each int as its 32-bit words, least significant first (0 is one word)
    ints = entropy if isinstance(entropy, (list, tuple)) else [entropy]
    words = []
    for n in ints:
        if not isinstance(n, int) or n < 0:
            raise ValueError("entropy must be a non-negative int or a list "
                             f"of them, got {entropy!r}")
        words.append(n & _M32)
        while n := n >> 32:
            words.append(n & _M32)
    return words


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


def _seed_words(entropy):
    """SeedSequence(entropy).generate_state(4, uint64) as two 128-bit
    words: PCG64's initial state and its stream selector."""
    words = _entropy_words(entropy)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        state.append(value ^ value >> 16)
    # 32-bit words read as little-endian 64-bit ones, high word first
    u64 = [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]
    return u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]


class Stream:
    """A PCG64 generator seeded through SeedSequence from `entropy`, a
    non-negative int or a list of them."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, entropy):
        seed, seq = _seed_words(entropy)
        self._inc = (seq << 1 | 1) & _M128
        self._state = (self._inc + seed) & _M128
        self._step()
        # the high half of the last 64-bit output split for 32-bit draws
        self._half = None

    def _step(self):
        self._state = (self._state * _PCG_MULT + self._inc) & _M128

    def _next64(self):
        self._step()
        s = self._state
        x = (s >> 64 ^ s) & _M64
        rot = s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self):
        # the low half first; the high half waits for the next 32-bit draw
        half = self._half
        if half is not None:
            self._half = None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def uniform(self, low, high, size):
        """`size` floats uniform on [low, high)."""
        low, high = float(low), float(high)
        span = high - low
        if not 0.0 <= span < float("inf"):
            raise ValueError(f"uniform needs finite low <= high, got "
                             f"[{low}, {high})")
        if not isinstance(size, int) or size < 0:
            raise ValueError(f"uniform size must be an int >= 0, got {size!r}")
        return [low + span * ((self._next64() >> 11) * 2.0 ** -53)
                for _ in range(size)]

    def integers(self, high):
        """An int uniform on 0..high-1, for 1 <= high <= 2**32: Lemire's
        multiply-and-reject on 32-bit draws."""
        if not isinstance(high, int) or not 1 <= high <= 1 << 32:
            raise ValueError(f"integers needs an int high in 1..2**32, "
                             f"got {high!r}")
        if high == 1:
            return 0
        m = self._next32() * high
        if m & _M32 < high:
            threshold = (1 << 32) % high
            while m & _M32 < threshold:
                m = self._next32() * high
        return m >> 32

    def permutation(self, n):
        """0..n-1 shuffled, for 0 <= n <= 2**32: Fisher-Yates from the
        top, each index drawn by masked rejection."""
        if not isinstance(n, int) or not 0 <= n <= 1 << 32:
            raise ValueError(f"permutation needs an int n in 0..2**32, "
                             f"got {n!r}")
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while (j := self._next32() & mask) > i:
                pass
            out[i], out[j] = out[j], out[i]
        return out
