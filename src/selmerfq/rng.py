"""Seeded splitmix64 generator.

Used everywhere randomness is needed (model sampling, Cantor-Zassenhaus
splitting, lattice vector pools) so that runs are reproducible across
platforms and implementations from the seed alone.
"""

_MASK = (1 << 64) - 1


class SplitMix64:
    """64-bit splitmix generator with rejection sampling helpers."""

    def __init__(self, seed):
        self.state = seed & _MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n):
        """Uniform integer in [0, n). Rejection sampling, no modulo bias."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def spawn(self):
        """Derive an independent child generator."""
        return SplitMix64(self.next_u64())
