import numpy as np
import pytest

from ladderlab import rng


def _assert_known(ctr, key, expected):
    # Philox words of a counter (c0, c1, c2, c3) = (step lo, step hi, stream
    # lo, stream hi) under the key (k0, k1) = the seed, then the slot-0 path's
    # words 0 and 1 on the same cell
    seed, stream, step = key[0] | key[1] << 32, ctr[2] | ctr[3] << 32, ctr[0] | ctr[1] << 32
    assert [int(w) for w in rng._block(seed, stream, step)] == expected
    assert [int(w) for w in rng._block(seed, stream, step, words=2)[:2]] == expected[:2]
    u0 = rng._to_unit(np.uint64(expected[0]), np.uint64(expected[1]))
    assert float(rng.uniform_slot0(seed, stream, step)) == float(u0)


def test_known_answer_zero_block():
    # Philox-4x32-10 reference vector: zero counter, zero key.
    _assert_known([0] * 4, [0] * 2, [0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8])


def test_known_answer_all_ones_block():
    # Random123 vector: every counter and key word 0xffffffff.
    _assert_known([0xFFFFFFFF] * 4, [0xFFFFFFFF] * 2, [0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD])


def test_known_answer_pi_block():
    # Random123 vector: counter and key from the hex digits of pi.
    ctr = [0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344]
    key = [0xA4093822, 0x299F31D0]
    _assert_known(ctr, key, [0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1])


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
    # the same through a lent bits plane, as the tile loop converts
    hi = np.array([0xFFFFFFFF, 0xFFFFFFFF, 0], dtype=np.uint64)
    lo = np.array([0xFFFFFFFF, 0xFFFFF7FF, 0], dtype=np.uint64)
    out, plane = np.empty(3), np.empty(3, dtype=np.uint64)
    assert rng._to_unit(hi, lo, out=out, plane=plane) is out
    assert out.tolist() == [1.0 - 2.0**-53, 1.0 - 2.0**-52, 2.0**-54]


def test_sequence_matches_pairs():
    seq = rng.uniform_slot0(7, 3, np.arange(4, 14, dtype=np.uint64))
    for i, step in enumerate(range(4, 14)):
        assert float(seq[i]) == float(rng.uniform_pair(7, 3, step)[0])


def test_large_indices_no_wrap():
    big = 2**63 + 11
    u0, _ = rng.uniform_pair(2**64 - 1, big, 2**40)
    assert 0.0 < float(u0) < 1.0


def test_indices_reduce_mod_2_64():
    # words recorded with the object-dtype reduction the integer cast replaced
    ids = np.array([2**63 - 1, 2**63, 2**63 + 11], dtype=np.uint64)
    words = rng._block(2**64 - 1, ids, 2**40)
    assert [[int(v) for v in w] for w in words] == [
        [0xF0B0A54F, 0xE6EE7504, 0x4C29699E],
        [0xF678B43B, 0x8E0F21B0, 0xFEE5707A],
        [0x4715E5A0, 0x952227D2, 0x3AAA0DD1],
        [0xE62777F0, 0x7147864D, 0xFB44F5ED],
    ]
    signed = rng._block(2**64 - 1, np.array([-1, -(2**63)], dtype=np.int64), 0)
    unsigned = rng._block(-1, np.array([2**64 - 1, 2**63], dtype=np.uint64), 0)
    assert [[int(v) for v in w] for w in signed] == [[int(v) for v in w] for w in unsigned]
    assert [int(w[0]) for w in signed] == [0x3D3BE307, 0x716983D6, 0x70094BED, 0x36C3CF91]
    wrapped = rng._block(2**64 + 3, 2**64 + 5, 2**65 + 1)
    assert [int(w) for w in wrapped] == [int(w) for w in rng._block(3, 5, 1)]
    assert [int(w) for w in wrapped] == [0x55E6C104, 0xCCE538FB, 0x316B4A9D, 0x805685D3]
    assert float(rng.uniform_pair(np.uint64(2**64 - 1), 0, 0)[0]) == float(rng.uniform_pair(-1, 0, 0)[0])


# -- the slot-0 path ----------------------------------------------------------


def _bits(a):
    return np.asarray(a).tobytes()


def test_slot0_matches_pair_on_random_cells():
    g = np.random.default_rng(20261018)
    high = np.array([2**32, 2**32 + 1, 2**63, 2**64 - 1], dtype=np.uint64)  # non-zero high words
    for _ in range(25):
        seed = int(g.integers(0, 2**64, dtype=np.uint64))
        streams = np.concatenate([g.integers(0, 2**64, size=30, dtype=np.uint64), high, np.arange(3, dtype=np.uint64)])
        steps = np.concatenate([g.integers(0, 2**64, size=4, dtype=np.uint64), high[:2]])[:, None]
        assert _bits(rng.uniform_slot0(seed, streams, steps)) == _bits(rng.uniform_pair(seed, streams, steps)[0])


@pytest.mark.parametrize(
    "stream, step",
    [
        (5, 7),
        (2**40 + 3, 2**33),
        (np.array(5), np.array(2**35, dtype=np.uint64)),
        (np.arange(4)[:, None], np.arange(9)[None, :]),
        (np.arange(6, dtype=np.uint64) + 2**32, 11),
        (3, np.arange(5, dtype=np.int64)),
        (np.zeros((0, 3), dtype=np.int64), 1),
    ],
)
def test_slot0_matches_pair_on_shapes(stream, step):
    got, (want, _) = rng.uniform_slot0(9, stream, step), rng.uniform_pair(9, stream, step)
    assert got.shape == want.shape == np.broadcast_shapes(np.shape(stream), np.shape(step))
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize("size", [rng._TILE - 1, rng._TILE, rng._TILE + 1])
def test_slot0_matches_pair_across_tiles(size):
    streams = np.arange(size, dtype=np.uint64) + np.uint64(2**32 - 5)
    for stream, step in ((streams, 3), (streams[None, :], np.array([[0], [2**32]]))):
        assert _bits(rng.uniform_slot0(4, stream, step)) == _bits(rng.uniform_pair(4, stream, step)[0])
    steps = np.arange(2**32 - 7, 2**32 - 7 + size, dtype=np.uint64)
    assert _bits(rng.uniform_slot0(4, 2**33, steps)) == _bits(rng.uniform_pair(4, 2**33, steps)[0])


# -- lent buffers ---------------------------------------------------------------


@pytest.mark.parametrize("size", [rng._TILE - 1, rng._TILE + 1, 2 * rng._TILE + 7])
def test_lent_buffers_keep_the_bits(size):
    # a lent output and lent planes (holding an earlier draw's words) give the
    # bits of the allocating call, in tiles of whole rows and of row pieces
    streams = np.arange(size, dtype=np.uint64) + np.uint64(2**32 - 5)
    planes = np.full(6 * rng._TILE, 0xDEADBEEF, dtype=np.uint64)
    cases = ((streams, 3), (streams[None, :], np.array([[0], [2**32]])), (streams[:5], np.arange(9)[:, None]))
    for stream, step in cases:
        shape = np.broadcast_shapes(np.shape(stream), np.shape(step))
        out = np.full(shape, np.nan)
        assert rng.uniform_slot0(4, stream, step, out=out, planes=planes) is out
        assert _bits(out) == _bits(rng.uniform_slot0(4, stream, step))
        pair = (np.full(shape, np.nan), np.full(shape, -1.0))
        got = rng.uniform_pair(4, stream, step, out=pair, planes=planes)
        assert got[0] is pair[0] and got[1] is pair[1]
        assert [_bits(u) for u in pair] == [_bits(u) for u in rng.uniform_pair(4, stream, step)]


def test_lent_buffers_of_the_wrong_kind_refused():
    streams = np.arange(10)  # one tile of one 10-cell row: the rounds need 6 x 10 plane cells
    for out in (np.empty(10, dtype=np.float32), np.empty(11), np.empty((2, 5)), np.empty(20)[::2], [0.0] * 10):
        with pytest.raises(ValueError):
            rng.uniform_slot0(1, streams, 0, out=out)
    with pytest.raises(ValueError):
        rng.uniform_pair(1, streams, 0, out=(np.empty(10),))
    with pytest.raises(ValueError):
        rng.uniform_pair(1, streams, 0, out=(np.empty(10), np.empty(10, dtype=np.int64)))
    short, strided = np.empty(59, dtype=np.uint64), np.empty(120, dtype=np.uint64)[::2]
    for planes in (np.empty(60, dtype=np.int64), np.empty(60), short, strided):
        with pytest.raises(ValueError):
            rng.uniform_slot0(1, streams, 0, planes=planes)
    exact = rng.uniform_slot0(1, streams, 0, out=np.empty(10), planes=np.empty(60, dtype=np.uint64))
    assert _bits(exact) == _bits(rng.uniform_slot0(1, streams, 0))
