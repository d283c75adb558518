import numpy as np

from ladderlab import rng


def test_known_answer_zero_block():
    # Philox-4x32-10 reference vector: zero counter, zero key.
    words = rng._philox_4x32_10(*[np.uint64(0)] * 6)
    assert [int(w) for w in words] == [0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8]


def test_determinism_and_shape():
    a0, a1 = rng.uniform_pair(123, 5, 7)
    b0, b1 = rng.uniform_pair(123, 5, 7)
    assert float(a0) == float(b0) and float(a1) == float(b1)
    m = rng.uniform_pair(123, np.arange(4)[:, None], np.arange(9)[None, :])[0]
    assert m.shape == (4, 9)
    assert float(m[2, 3]) == float(rng.uniform_pair(123, 2, 3)[0])


def test_streams_steps_slots_distinct():
    u_base = float(rng.uniform_pair(1, 0, 0)[0])
    assert float(rng.uniform_pair(1, 1, 0)[0]) != u_base
    assert float(rng.uniform_pair(1, 0, 1)[0]) != u_base
    assert float(rng.uniform_pair(2, 0, 0)[0]) != u_base
    u0, u1 = rng.uniform_pair(1, 0, 0)
    assert float(u0) != float(u1)


def test_open_interval_and_uniformity():
    u = rng.uniform_pair(99, np.arange(2000)[:, None], np.arange(50)[None, :])[0].ravel()
    assert np.all((u > 0.0) & (u < 1.0))
    # gross uniformity: mean 1/2 within 5 sigma, variance about 1/12
    n = u.size
    assert abs(u.mean() - 0.5) < 5 * (1.0 / np.sqrt(12 * n))
    assert abs(u.var() - 1.0 / 12.0) < 5e-3


def test_open_interval_at_the_bit_extremes():
    # all 53 kept bits set used to round to exactly 1.0
    ones = np.uint64(0xFFFFFFFF)
    top = float(rng._to_unit(ones, ones))
    assert top < 1.0 and top == 1.0 - 2.0**-53
    assert float(rng._to_unit(ones, np.uint64(0xFFFFF7FF))) == 1.0 - 2.0**-52
    assert float(rng._to_unit(np.uint64(0), np.uint64(0))) == 2.0**-54


def test_sequence_matches_pairs():
    seq = rng.uniform_sequence(7, 3, 10, start=4)
    for i, step in enumerate(range(4, 14)):
        assert float(seq[i]) == float(rng.uniform_pair(7, 3, step)[0])


def test_large_indices_no_wrap():
    big = 2**63 + 11
    u0, _ = rng.uniform_pair(2**64 - 1, big, 2**40)
    assert 0.0 < float(u0) < 1.0
