"""Random-walk simulation: first descent below zero and running maxima.

The engine drives many walks at once.  Increments are inverse-transform
samples from counter-based uniforms keyed by (seed, stream, step), so every
walk is reproducible in isolation and streams can be merged freely.  Steps
are processed in geometrically growing blocks (8, 16, 32, ...): within a
block partial sums are a plain cumulative sum on top of a compensated
carry-over, which keeps the stopping test sharp even for walks that run for
hundreds of thousands of steps.  Censoring at the step cap is a recorded
data state, never an error.

Cells are drawn lazily.  Inside a block the engine takes sub-blocks of 1, 1,
2, 4, ... steps, and only for the walks that have not descended yet, so a
walk that stops at step 1 costs one Philox cell instead of a whole block.
Each sub-block's cumulative sum starts from a leading row that holds the
in-block partial sum so far, so the increments are added in exactly the
order of one cumsum over the whole block.  The compensated (Kahan) carry
into the block base stays at the block ends: it is not associative, so a
carry at every sub-block would round differently.  Hence tau, s_tau, m_tau
and psi_max keep every bit of whole-block drawing, whatever the sub-block
widths and the chunking.

The cells drawn are the (stream, step) cells of the live walks over each
sub-block, slot 0 only unless the family reads slot 1 (`TailSpec.uses_slot1`,
set by `QueuePair`).  Once the live walks times the steps left in the block
are at most `_STRAGGLER_CELLS`, the rest of the block is one sub-block: a few
thousand cells drawn past some walks' descent cost less than the numpy calls
of further sub-blocks.  Each sub-block runs in slices of at most
`_SLICE_CELLS` cells (walks x steps; a sub-block wider than that many steps
runs as narrower sub-blocks), so no draw, increment or stopping mask grows
with the chunk.  After each sub-block the walks that descended leave the
per-walk state arrays, which are compacted with one index of the survivors; a
width-1 sub-block stops at its only row, so it needs no search for the first
descending step.

Each `simulate_batch` call owns one work area, sized to its largest chunk: the
per-walk state arrays, an arena of `chunk x _FIRST_BLOCK` doubles (a plane for
the partial sums and one for their running maximum, written with `out=`; the
slices touch only its front), the lent uniforms and the Philox planes.  Every
chunk resets it in place and compacts into the front of its arrays, so the
walk's own buffers are allocated once per call.  The call, not the module,
owns it, because the CLI simulates on two threads at once.

Each chunk writes its results straight into the call's full-length columns,
so the call's peak memory is the columns plus one work area, with no
per-chunk parts and no concatenation after them.  The index that `reset`
gives a chunk's walks is a fresh `np.arange`, freed at once: freeing a block
that glibc served by mmap raises its dynamic mmap threshold to that block's
size, so the slices' temporaries then come from the heap.  An index copied
from a kept array instead took 2e6 Pareto walks from about 7,800 minor page
faults to 21,300.  The estimators do not depend on what the walk freed
before them: they work in blocks of at most `estimate._LEAF` values, which
the heap serves again on every call.

A busy cycle of a FIFO single-server queue is the descent epoch of the walk
with service-minus-interarrival increments (``tails.QueuePair``): during the
cycle the waiting-time recursion W_{n+1} = max(0, W_n + sigma_n - t_n) equals
max(0, S_n).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import rng
from .tails import TailSpec

__all__ = [
    "WalkError",
    "SampleBatch",
    "simulate_batch",
    "replay_path",
]

_FIRST_BLOCK = 8
_CHUNK = 250_000  # walks simulated at a time by one simulate_batch call
_STRAGGLER_CELLS = 1 << 12  # once live walks x steps left in the block are at most this, the rest is one sub-block
_SLICE_CELLS = 1 << 16  # cells (walks x steps) of one draw: a sub-block runs in slices of at most this many
_ROW_SCAN_MIN = 128  # walks from which _scan loops over rows
_COLUMNS = ("stream_ids", "tau", "s_tau", "m_tau", "psi_max", "censored")  # a SampleBatch's per-walk arrays


class WalkError(ValueError):
    """Invalid walk configuration."""


@dataclass
class SampleBatch:
    """Struct-of-arrays batch of ladder samples from one seeded run."""

    seed: int
    step_cap: int
    shift: float
    stream_ids: np.ndarray
    tau: np.ndarray
    s_tau: np.ndarray
    m_tau: np.ndarray
    psi_max: np.ndarray
    censored: np.ndarray

    @property
    def n(self) -> int:
        return int(self.tau.size)

    @property
    def censored_n(self) -> int:
        return int(self.censored.sum())

    def head(self, n: int) -> "SampleBatch":
        return replace(self, **{name: getattr(self, name)[:n] for name in _COLUMNS})


def _block_schedule(step_cap: int):
    start, length = 0, _FIRST_BLOCK
    while start < step_cap:
        length = min(length, step_cap - start)
        yield start, length
        start += length
        length *= 2


def _sub_blocks(start: int, length: int):
    """(start, width) of sub-blocks of 1, 1, 2, 4, ... steps that tile one block."""
    done = 0
    while done < length:
        width = min(max(done, 1), length - done)
        yield start + done, width
        done += width


def _scan(ufunc, head, body, out):
    """out[0] = head, out[j + 1] = ufunc(out[j], body[j]): an accumulate with a leading row.

    Rows are steps and columns walks.  numpy's accumulate down axis 0 runs its
    inner loop along the short step axis, which is many times slower than a
    loop over rows once there are more than a few dozen walks; both apply
    ufunc in the same order, so they give the same bits.
    """
    out[0] = head
    if body.shape[1] >= _ROW_SCAN_MIN:
        for j in range(body.shape[0]):
            ufunc(out[j], body[j], out=out[j + 1])
    else:
        out[1:] = body
        ufunc.accumulate(out, axis=0, out=out)


def _draw_columns(spec: TailSpec, seed: int, streams: np.ndarray, start: int, width: int, units, planes):
    """Increments of `streams` over steps start..start+width-1, drawn into the lent `units` and `planes`."""
    steps = np.arange(start, start + width, dtype=np.uint64)[:, None]
    out = [u[: width * streams.size].reshape(width, streams.size) for u in units]
    if spec.uses_slot1:
        u0, u1 = rng.uniform_pair(seed, streams[None, :], steps, out=out, planes=planes)
    else:
        u0, u1 = rng.uniform_slot0(seed, streams[None, :], steps, out=out[0], planes=planes), None
    return spec.increment_from_uniforms(u0, u1)


class _WorkArea:
    """The work area of one `simulate_batch` call, and the live walks of its current chunk.

    The state arrays are the fronts of the work area's arrays, indexed by
    live walk: `idx` the walk's row in the chunk, `part` the partial sum of
    the increments drawn so far in the current block, `base`/`comp` the
    compensated sum of the blocks before it.  `reset` starts a chunk in
    place, and the walks that descend leave by compaction, so every chunk
    reuses the same memory.
    """

    def __init__(self, capacity: int, spec: TailSpec, shift: float):
        self.shift = shift
        # without a shift run_psi is never read, so it is neither reset nor compacted
        self._sums = ("base", "comp", "part", "run_max") + (("run_psi",) if shift != 0.0 else ())
        self._full = {"idx": np.empty(capacity, dtype=np.int64), "streams": np.empty(capacity, dtype=np.uint64)}
        self._full.update((name, np.empty(capacity)) for name in self._sums)
        self._stopped = np.empty(capacity, dtype=bool)
        # two planes, for the partial sums and their running max
        self.arena = np.empty((2, capacity * _FIRST_BLOCK // 2))
        self.units = np.empty((2 if spec.uses_slot1 else 1, _SLICE_CELLS))
        self.planes = np.empty(6 * rng._TILE, dtype=np.uint64)

    def reset(self, streams: np.ndarray, out):
        """Start the walks of `streams`, writing their results into `out`."""
        m = streams.size
        self.tau, self.s_tau, self.m_tau, self.psi_max, _ = out
        for name, full in self._full.items():
            setattr(self, name, full[:m])
        self.idx[:] = np.arange(m)  # a fresh index, not a kept one: see the module docstring on faults
        self.streams[:] = streams  # the wrapping int64 -> uint64 cast
        for name in self._sums:
            getattr(self, name).fill(0.0)  # run_max covers the empty partial sum S_0 = 0

    def carry(self):
        """Add the block's partial sums to the compensated base (Kahan), in place, and zero them."""
        y = np.subtract(self.part, self.comp, out=self.part)
        t = np.add(self.base, y, out=self.comp)
        c = np.subtract(t, self.base, out=self.base)
        self.base, self.comp = t, np.subtract(c, y, out=c)
        self.part.fill(0.0)

    def advance(self, spec, seed, start, width, path_sink):
        """Draw steps start..start+width-1 for every live walk; drop the ones that descend.

        A sub-block wider than a slice runs as narrower ones, which keeps the
        bits (see the module docstring).
        """
        for lo in range(start, start + width, _SLICE_CELLS):
            if self.idx.size == 0:
                break
            self._advance(spec, seed, lo, min(_SLICE_CELLS, start + width - lo), path_sink)

    def _advance(self, spec, seed, start, width, path_sink):
        cells = self.arena.shape[1]
        if width + 1 > cells:
            self.arena = np.empty((2, width + 1))
            cells = width + 1
        per_slice = min(_SLICE_CELLS // width, cells // (width + 1))  # >= 1, as width <= _SLICE_CELLS and width < cells
        n = self.idx.size
        stopped = self._stopped[:n]
        for lo in range(0, n, per_slice):
            sl = slice(lo, lo + per_slice)
            stopped[sl] = self._advance_slice(spec, seed, start, width, sl, path_sink)
        if stopped.any():
            keep = np.flatnonzero(~stopped)
            for name in self._full:
                live = getattr(self, name)
                live[: keep.size] = live.take(keep)
                setattr(self, name, live[: keep.size])

    def _advance_slice(self, spec, seed, start, width, sl, path_sink):
        x = _draw_columns(spec, seed, self.streams[sl], start, width, self.units, self.planes)
        n = x.shape[1]
        # row 0 carries the in-block partial sum, so the sum adds in the same
        # order as one cumsum over the whole block
        c = self.arena[0, : (width + 1) * n].reshape(width + 1, n)
        _scan(np.add, self.part[sl], x, c)
        self.part[sl] = c[-1]
        s = c[1:]
        np.add(s, self.base[sl], out=s)
        if path_sink is not None:
            path_sink.append((x[:, 0].copy(), s[:, 0].copy()))

        stop_mask = s <= 0.0
        stopped = stop_mask.any(axis=0)
        rows = np.nonzero(stopped)[0]
        first = 0 if width == 1 else stop_mask[:, rows].argmax(axis=0)
        oi = self.idx[sl][rows]
        self.tau[oi] = start + first + 1
        self.s_tau[oi] = s[first, rows]

        acc = self.arena[1, : (width + 1) * n].reshape(width + 1, n)
        _scan(np.maximum, self.run_max[sl], s, acc)
        self.m_tau[oi] = acc[first + 1, rows]
        self.run_max[sl] = acc[-1]
        if self.shift != 0.0:
            offsets = self.shift * np.arange(start + 1, start + width + 1, dtype=np.float64)
            np.add(s, offsets[:, None], out=acc[1:])
            _scan(np.maximum, self.run_psi[sl], acc[1:], acc)
            self.psi_max[oi] = acc[first + 1, rows]
            self.run_psi[sl] = acc[-1]
        return stopped


def _columns(n: int):
    """Empty tau, s_tau, m_tau, psi_max and censored columns for n walks."""
    return np.empty(n, dtype=np.int64), np.empty(n), np.empty(n), np.empty(n), np.empty(n, dtype=bool)


def _simulate_chunk(
    ch: _WorkArea,
    spec: TailSpec,
    seed: int,
    streams: np.ndarray,
    step_cap: int,
    out,
    path_sink: list | None = None,
):
    """Run the walks of `streams` in the work area `ch`; write tau, s_tau, m_tau, psi_max, censored into `out`."""
    ch.reset(streams, out)
    for start, length in _block_schedule(step_cap):
        for sub_start, width in _sub_blocks(start, length):
            if ch.idx.size == 0:
                break
            rest = start + length - sub_start
            if ch.idx.size * rest <= _STRAGGLER_CELLS:
                ch.advance(spec, seed, sub_start, rest, path_sink)
                break
            ch.advance(spec, seed, sub_start, width, path_sink)
        if ch.idx.size == 0:
            break
        # the compensated carry runs at block ends only, as in one cumsum per block
        ch.carry()

    tau, s_tau, m_tau, psi_max, censored = out
    censored[:] = False
    censored[ch.idx] = True
    tau[ch.idx] = step_cap
    s_tau[ch.idx] = ch.base
    m_tau[ch.idx] = ch.run_max
    if ch.shift == 0.0:
        psi_max[:] = m_tau
    else:
        psi_max[ch.idx] = ch.run_psi


def simulate_batch(
    spec: TailSpec,
    seed: int,
    n_samples: int | None = None,
    stream_ids=None,
    step_cap: int = 1_000_000,
    shift: float = 0.0,
) -> SampleBatch:
    """Simulate one walk per stream id until first descent or the step cap.

    Walks run in chunks of `_CHUNK` (2.5e5) stream ids, which bounds the work
    area; results depend only on (seed, stream id, step index), not on the
    chunking.  `shift` additionally tracks the running maximum of the
    drift-compensated partial sums S_n + n*shift, which is the quantity the
    stopping-time tail comparison needs.
    """
    mean = spec.mean
    if not mean < 0:
        raise WalkError("walk increments must have strictly negative mean")
    if shift != 0.0 and not mean + shift < 0:
        raise WalkError("compensated increments must keep a strictly negative mean")
    if step_cap < 1:
        raise WalkError("step_cap must be at least one")
    if stream_ids is None:
        if n_samples is None:
            raise WalkError("pass either n_samples or stream_ids")
        if n_samples < 1:
            raise WalkError("n_samples must be at least one")
        ids = np.arange(n_samples, dtype=np.int64)
    else:
        ids = np.asarray(stream_ids, dtype=np.int64)
    n = ids.size
    if n == 0:
        raise WalkError("stream_ids must not be empty")

    ch = _WorkArea(min(_CHUNK, n), spec, shift)
    columns = _columns(n)
    for lo in range(0, n, _CHUNK):
        hi = lo + _CHUNK
        _simulate_chunk(ch, spec, seed, ids[lo:hi], step_cap, [c[lo:hi] for c in columns])
    if stream_ids is not None:
        # the batch's own copy, so later edits to the caller's array leave it alone.  Taken here,
        # with the work area still held: taken before the walks, or after the work area was
        # freed, it raised the peak RSS of the CLI simulate stage by 2-5 MB (glibc placement)
        ids = ids.copy()
    tau, s_tau, m_tau, psi_max, censored = columns
    return SampleBatch(seed, step_cap, shift, ids, tau, s_tau, m_tau, psi_max, censored)


def replay_path(
    spec: TailSpec, seed: int, stream_id: int, step_cap: int = 1_000_000, shift: float = 0.0
) -> dict:
    """Re-emit one walk's full path for audit.

    Uses the batch engine on a single stream, so the replay reproduces the
    recorded sample bit for bit, including the block-structured arithmetic.
    """
    sink: list = []
    streams = np.asarray([stream_id], dtype=np.int64)
    out = _columns(1)
    _simulate_chunk(_WorkArea(1, spec, shift), spec, seed, streams, step_cap, out, path_sink=sink)
    tau, s_tau, m_tau, psi_max, cens = out
    increments = np.concatenate([x for x, _ in sink])
    partial = np.concatenate([s for _, s in sink])
    n = int(tau[0])
    return {
        "seed": seed,
        "stream_id": stream_id,
        "tau": n,
        "censored": bool(cens[0]),
        "s_tau": float(s_tau[0]),
        "m_tau": float(m_tau[0]),
        "psi_max": float(psi_max[0]),
        "increments": increments[:n],
        "partial_sums": partial[:n],
    }
