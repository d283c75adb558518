"""Counter-based uniform random numbers keyed by (seed, stream, step).

Implements the Philox-4x32-10 block cipher (Salmon et al., SC'11) on top of
numpy integer arithmetic.  Every draw is a pure function of the 64-bit seed,
the 64-bit stream id and the 64-bit step index, so simulations are
reproducible sample-by-sample, streams never overlap, and any path can be
replayed for audit without regenerating the rest of the batch.

The seed is one scalar integer (the Philox key); stream ids and steps may be
integer arrays that broadcast together.  All three are reduced mod 2^64:
Python ints by masking, numpy integers by the wrapping cast to uint64.  The
ten round keys of a seed are Python ints, and the rounds run in place on six
uint64 planes (four counter words, two products) of at most `_TILE` cells, so
a large draw streams through cache-sized tiles instead of allocating
full-size temporaries per operation.

Each (seed, stream, step) block yields two independent 53-bit uniforms in the
open interval (0, 1): slot 0 drives the primary inverse-transform draw, slot 1
the secondary draw needed by service/interarrival pairs.  Slot 0 is words 0
and 1 of the block and slot 1 words 2 and 3.  `uniform_slot0` draws slot 0
alone: its last Philox round computes only words 0 and 1, and it skips the
second conversion.  Walks of every family except `tails.QueuePair` (which sets
`TailSpec.uses_slot1`) take that path.  `uniform_pair` and `uniform_slot0`
share one tile loop, and each tile converts its words to doubles through a
plane that the rounds no longer need.  A draw allocates its outputs and one
set of planes, unless the caller lends them (`out=`, `planes=`); then it
allocates nothing that grows with its cells.  The walk kernel lends one set
to every draw of a `simulate_batch` call.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK32 = np.uint64(0xFFFFFFFF)
_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = 0x9E3779B9
_W1 = 0xBB67AE85
_MASK64 = (1 << 64) - 1

_INV_2_53 = 1.0 / float(1 << 53)
_MAX_UNIT = 1.0 - _INV_2_53

_TILE = 1 << 15  # cells per pass: six uint64 planes of 256 KiB stay in cache


def _as_u64(x) -> np.ndarray:
    # Reduce mod 2^64: Python ints by masking, numpy integers by the cast.
    if isinstance(x, int):
        x &= _MASK64
    a = np.asarray(x)
    if a.dtype.kind not in "biu":
        raise TypeError(f"stream ids and steps must be integers, got {a.dtype}")
    return a.astype(np.uint64, copy=False)


def _round_keys(seed) -> list[tuple[np.uint64, np.uint64]]:
    key = operator.index(seed) & _MASK64
    k0, k1 = key & 0xFFFFFFFF, key >> 32
    return [
        (np.uint64((k0 + r * _W0) & 0xFFFFFFFF), np.uint64((k1 + r * _W1) & 0xFFFFFFFF))
        for r in range(10)
    ]


def _rounds(x0, x1, x2, x3, p0, p1, seed, words=4):
    """Ten Philox rounds in place on uint64 planes of 32-bit words; `words=2` skips words 2, 3 of the last."""
    keys = _round_keys(seed)
    for r, (k0, k1) in enumerate(keys):
        half = words == 2 and r == len(keys) - 1
        if not half:
            np.multiply(x0, _M0, out=p0)  # 32x32 -> 64 bit, exact in uint64
        np.multiply(x2, _M1, out=p1)
        # (x0, x1, x2, x3) <- (hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0)
        np.right_shift(p1, 32, out=x0)
        np.bitwise_xor(x0, x1, out=x0)
        np.bitwise_xor(x0, k0, out=x0)
        np.bitwise_and(p1, _MASK32, out=x1)
        if half:
            break
        np.right_shift(p0, 32, out=x2)
        np.bitwise_xor(x2, x3, out=x2)
        np.bitwise_xor(x2, k1, out=x2)
        np.bitwise_and(p0, _MASK32, out=x3)
    return x0, x1, x2, x3


def _block(seed, stream, step, planes=None, words=4):
    """Philox words of (seed, stream, step); `stream` and `step` broadcast.

    `planes` lends six uint64 arrays of the broadcast shape to run in; with
    `words=2` only words 0 and 1 are valid (see `_rounds`).
    """
    stream, step = _as_u64(stream), _as_u64(step)
    if planes is None:
        planes = np.empty((6,) + np.broadcast_shapes(stream.shape, step.shape), dtype=np.uint64)
    x0, x1, x2, x3, p0, p1 = (planes[i, ...] for i in range(6))
    np.bitwise_and(step, _MASK32, out=x0)
    np.right_shift(step, 32, out=x1)
    np.bitwise_and(stream, _MASK32, out=x2)
    np.right_shift(stream, 32, out=x3)
    return _rounds(x0, x1, x2, x3, p0, p1, seed, words)


def _to_unit(hi, lo, out=None, plane=None):
    # 53 leading bits of the 64-bit concatenation -> double in (0, 1).  All
    # ones would round up to exactly 1.0; the clamp moves only that pattern.
    # The bits go through `plane`, a lent uint64 array of the output's shape.
    plane = np.empty(np.broadcast_shapes(np.shape(hi), np.shape(lo)), np.uint64) if plane is None else plane
    out = np.empty(plane.shape) if out is None else out
    np.left_shift(hi, 32, out=plane)
    np.bitwise_or(plane, lo, out=plane)
    np.right_shift(plane, 11, out=plane)
    np.add(plane, 0.5, out=out)
    np.multiply(out, _INV_2_53, out=out)
    return np.minimum(out, _MAX_UNIT, out=out)


def _lent(a, shape, dtype, what):
    # a lent buffer is written through views, so it must be exactly what a fresh one would be
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.c_contiguous and a.flags.writeable):
        raise ValueError(f"{what} must be a writeable C-contiguous {np.dtype(dtype)} array")
    if shape is not None and a.shape != shape:
        raise ValueError(f"{what} has shape {a.shape}, the draw needs {shape}")
    return a


def _uniforms(seed, stream, step, slots: int, out=None, planes=None) -> list[np.ndarray]:
    """Slots 0..slots-1 of every broadcast (seed, stream, step) cell, one array each.

    `out` lends the `slots` float64 result arrays (of the broadcast shape) and
    `planes` a uint64 array with room for the six planes of one tile (6 x
    `_TILE` cells always do); the bits are those of a call that allocates its
    own.
    """
    stream, step = _as_u64(stream), _as_u64(step)
    shape = np.broadcast_shapes(stream.shape, step.shape)
    if out is None:
        units = [np.empty(shape) for _ in range(slots)]
    elif len(out) != slots:
        raise ValueError(f"out must hold {slots} arrays, got {len(out)}")
    else:
        units = [_lent(u, shape, np.float64, "out") for u in out]
    if units[0].size == 0:
        return units
    # walk the broadcast shape as a (rows, cols) grid in tiles of <= _TILE cells
    cols = shape[-1] if shape else 1
    stream2, step2 = (np.broadcast_to(a, shape).reshape(-1, cols) for a in (stream, step))
    views = [u.reshape(-1, cols) for u in units]
    rows, width = min(max(1, _TILE // cols), views[0].shape[0]), min(cols, _TILE)
    if planes is None:
        planes = np.empty((6, rows, width), dtype=np.uint64)
    elif _lent(planes, None, np.uint64, "planes").size < 6 * rows * width:
        raise ValueError(f"planes holds {planes.size} cells, the draw needs {6 * rows * width}")
    else:
        planes = planes.reshape(-1)[: 6 * rows * width].reshape(6, rows, width)
    for r in range(0, views[0].shape[0], rows):
        for c in range(0, cols, width):
            tile = np.s_[r : r + rows, c : c + width]
            n_rows, n_cols = views[0][tile].shape
            lent = planes[:, :n_rows, :n_cols]
            words = _block(seed, stream2[tile], step2[tile], lent, words=2 * slots)
            for k, v in enumerate(views):
                # the product plane p0 is free once the rounds are done
                _to_unit(words[2 * k], words[2 * k + 1], out=v[tile], plane=lent[4])
    return units


def uniform_pair(seed, stream, step, out=None, planes=None):
    """Two uniforms in (0,1) for one (seed, stream, step) cell.

    `seed` is a scalar integer.  `stream` and `step` may be integer arrays;
    they broadcast and the returned pair of arrays has the broadcast shape.
    `out` (a pair of float64 arrays of that shape) and `planes` (uint64,
    6 x `_TILE` cells always suffice) lend the buffers the draw writes in.
    """
    return tuple(_uniforms(seed, stream, step, 2, out, planes))


def uniform_slot0(seed, stream, step, out=None, planes=None):
    """The bits of `uniform_pair(seed, stream, step)[0]`, without computing slot 1; `out` is one array."""
    return _uniforms(seed, stream, step, 1, None if out is None else [out], planes)[0]
