"""Determinism of the splitmix-style generator."""

import numpy as np
import pytest

from selmerfq.rng import SplitMix64


def test_determinism():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_below_range():
    r = SplitMix64(7)
    for _ in range(1000):
        assert 0 <= r.below(13) < 13


@pytest.mark.parametrize("n", [1, 5, 3 ** 15, 2 ** 62 + 1])
@pytest.mark.parametrize("count", [0, 1, 1000])
def test_below_array_is_the_scalar_stream(n, count):
    # at n = 2^62 + 1 about 25% of draws are rejected, so the refill runs
    a = SplitMix64(2024 + n)
    b = SplitMix64(2024 + n)
    got = a.below_array(n, count)
    assert got.dtype == np.int64
    assert got.tolist() == [b.below(n) for _ in range(count)]
    assert a.state == b.state
    assert a.next_u64() == b.next_u64()


def test_below_array_rejects_n_past_2_63():
    with pytest.raises(ValueError):
        SplitMix64(0).below_array(2 ** 63 + 1, 10)
    with pytest.raises(ValueError):
        SplitMix64(0).below_array(0, 10)


def test_below_rejects_n_past_2_64():
    # past 2^64 the acceptance limit 2^64 - (2^64 mod n) is 0
    with pytest.raises(ValueError):
        SplitMix64(0).below(2 ** 64 + 1)
    with pytest.raises(ValueError):
        SplitMix64(0).below(0)
    assert 0 <= SplitMix64(0).below(2 ** 64) < 2 ** 64
