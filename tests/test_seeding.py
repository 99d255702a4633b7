import numpy as np

from blockboot.seeding import subseed, substream


def test_substream_is_deterministic():
    a = substream(42, 1, 2).standard_normal(100)
    b = substream(42, 1, 2).standard_normal(100)
    assert np.array_equal(a, b)


def test_substream_keys_matter():
    base = substream(42).standard_normal(1000)
    for keys in [(0,), (1,), (0, 0), (42,)]:
        other = substream(42, *keys).standard_normal(1000)
        assert np.any(base != other)


def test_substream_accepts_negative_seed():
    a = substream(-7).standard_normal(10)
    b = substream(-7).standard_normal(10)
    assert np.array_equal(a, b)


def test_subseed_repeatable_and_distinct():
    assert subseed(1, 2, 3) == subseed(1, 2, 3)
    seen = {subseed(9, k) for k in range(1000)}
    assert len(seen) == 1000
