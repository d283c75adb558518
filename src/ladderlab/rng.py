"""Counter-based uniform random numbers keyed by (seed, stream, step).

Implements the Philox-4x32-10 block cipher (Salmon et al., SC'11) on top of
numpy integer arithmetic.  Every draw is a pure function of the 64-bit seed,
the 64-bit stream id and the 64-bit step index, so simulations are
reproducible sample-by-sample, streams never overlap, and any path can be
replayed for audit without regenerating the rest of the batch.

Each (seed, stream, step) block yields two independent 53-bit uniforms in the
open interval (0, 1): slot 0 drives the primary inverse-transform draw, slot 1
the secondary draw needed by service/interarrival pairs.
"""

from __future__ import annotations

import numpy as np

_MASK32 = np.uint64(0xFFFFFFFF)
_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint64(0x9E3779B9)
_W1 = np.uint64(0xBB67AE85)

_INV_2_53 = 1.0 / float(1 << 53)
_MAX_UNIT = 1.0 - _INV_2_53


def _as_u64(x) -> np.ndarray:
    # Accept python ints / arrays, reduce mod 2^64.
    return np.asarray(np.asarray(x, dtype=object) & ((1 << 64) - 1)).astype(np.uint64)


def _philox_4x32_10(c0, c1, c2, c3, k0, k1):
    """Run ten Philox rounds; inputs/outputs are uint64 arrays holding 32-bit words."""
    for rnd in range(10):
        p0 = _M0 * c0  # 32x32 -> 64 bit, exact in uint64
        p1 = _M1 * c2
        hi0, lo0 = p0 >> np.uint64(32), p0 & _MASK32
        hi1, lo1 = p1 >> np.uint64(32), p1 & _MASK32
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        if rnd < 9:
            k0 = (k0 + _W0) & _MASK32
            k1 = (k1 + _W1) & _MASK32
    return c0, c1, c2, c3


def _block(seed, stream, step):
    """Philox block for (seed, stream, step); arguments broadcast together."""
    seed = _as_u64(seed)
    stream = _as_u64(stream)
    step = _as_u64(step)
    c0 = step & _MASK32
    c1 = step >> np.uint64(32)
    c2 = stream & _MASK32
    c3 = stream >> np.uint64(32)
    k0 = seed & _MASK32
    k1 = seed >> np.uint64(32)
    c0, c1, c2, c3, k0, k1 = np.broadcast_arrays(c0, c1, c2, c3, k0, k1)
    return _philox_4x32_10(c0.copy(), c1.copy(), c2.copy(), c3.copy(), k0.copy(), k1.copy())


def _to_unit(hi, lo):
    # 53 leading bits of the 64-bit concatenation -> double in (0, 1).  All
    # ones would round up to exactly 1.0; the clamp moves only that pattern.
    bits = ((hi << np.uint64(32)) | lo) >> np.uint64(11)
    return np.minimum((bits.astype(np.float64) + 0.5) * _INV_2_53, _MAX_UNIT)


def uniform_pair(seed, stream, step):
    """Two uniforms in (0,1) for one (seed, stream, step) cell.

    `stream` and `step` may be arrays; they broadcast and the returned pair of
    arrays has the broadcast shape.
    """
    w0, w1, w2, w3 = _block(seed, stream, step)
    return _to_unit(w0, w1), _to_unit(w2, w3)


def uniform_sequence(seed, stream, count: int, start: int = 0):
    """`count` slot-0 uniforms of a single stream, steps start..start+count-1."""
    steps = np.arange(start, start + count, dtype=np.uint64)
    u0, _ = uniform_pair(seed, stream, steps)
    return u0
