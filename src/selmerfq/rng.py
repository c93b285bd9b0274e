"""Seeded splitmix64 generator.

Used everywhere randomness is needed (model sampling, Cantor-Zassenhaus
splitting, the sampled lattice vectors) so that runs are reproducible across
platforms and implementations from the seed alone.
"""

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """64-bit splitmix generator with rejection sampling helpers."""

    def __init__(self, seed):
        self.state = seed & _MASK

    def next_u64(self):
        self.state = (self.state + _GAMMA) & _MASK
        return _mix(self.state)

    def below(self, n):
        """Uniform integer in [0, n). Rejection sampling, no modulo bias."""
        if not 1 <= n <= 1 << 64:
            raise ValueError("below() needs 1 <= n <= 2^64")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def below_array(self, n, count):
        """The next `count` values of below(n) as int64, and the same final
        state.  Draw i from here is mix(state + i gamma mod 2^64), one uint64
        array pass per block; rejections leave a shortfall, drawn again."""
        if not 1 <= n <= 1 << 63:
            raise ValueError("below_array() needs 1 <= n <= 2^63")
        top = np.uint64((1 << 64) - (1 << 64) % n - 1)  # largest accepted draw
        out = [np.zeros(0, dtype=np.int64)]
        while count:
            steps = np.arange(1, count + 1, dtype=np.uint64)
            z = _mix(np.uint64(self.state) + steps * np.uint64(_GAMMA))
            ok = np.flatnonzero(z <= top)[:count]
            used = int(ok[-1]) + 1 if len(ok) == count else count
            self.state = (self.state + used * _GAMMA) & _MASK
            out.append((z[ok] % np.uint64(n)).astype(np.int64))
            count -= len(ok)
        return np.concatenate(out)
