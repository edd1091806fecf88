"""The stream of ``numpy.random.default_rng(seed)``, in pure Python.

verify draws its seeded cases from this stream.  It reproduces numpy's draws
bit for bit for the three methods verify calls (``integers``, ``uniform`` and
``random``): SeedSequence hashes the seed into PCG64's 128-bit state and
increment, and each 64-bit draw is the XSL-RR output of one LCG step.  The
board then loads no ``numpy.random``, and its cases do not move with the
installed numpy, whose ``Generator`` streams may change between releases
(NEP 19).
"""

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_MULTIPLIER = 2549297995355413924 << 64 | 4865540595714422341


def _seed_words(seed: int) -> tuple[int, int, int, int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)``."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    entropy = [seed & _M32]  # 32-bit words, least significant first
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _M32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = 0xCA01F9DD * x - 0x4973F715 * y & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    out = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        out.append(value ^ value >> 16)
    return tuple(lo | hi << 32 for lo, hi in zip(out[0::2], out[1::2]))


class Generator:
    """``numpy.random.default_rng(seed)``, for ``integers``, ``uniform`` and ``random``."""

    def __init__(self, seed: int):
        s_hi, s_lo, i_hi, i_lo = _seed_words(seed)
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        # From state 0, step (giving inc), add the seed and step again.
        self._state = (self._inc + (s_hi << 64 | s_lo)) * _MULTIPLIER + self._inc & _M128
        self._upper = None  # the unused upper half of the last split 64-bit draw

    def _next64(self) -> int:
        self._state = self._state * _MULTIPLIER + self._inc & _M128
        x = (self._state >> 64 ^ self._state) & _M64
        rot = self._state >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self._upper is not None:
            upper, self._upper = self._upper, None
            return upper
        x = self._next64()
        self._upper = x >> 32
        return x & _M32

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high), by Lemire's bounded method on 32-bit draws."""
        span = high - low
        if not 0 < span <= 1 << 32:
            raise ValueError(f"need 0 < high - low <= 2**32, got [{low}, {high})")
        if span == 1:
            return low  # numpy draws nothing here
        m = self._next32() * span
        if m & _M32 < span:
            threshold = (1 << 32) % span
            while m & _M32 < threshold:
                m = self._next32() * span
        return low + (m >> 32)

    def random(self) -> float:
        """A float in [0, 1) from the top 53 bits of a 64-bit draw."""
        return (self._next64() >> 11) * 2.0 ** -53

    def uniform(self, low: float, high: float) -> float:
        """A float in [low, high)."""
        return low + (high - low) * self.random()
