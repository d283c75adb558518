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
call's spec, seed, step cap and shift, the per-walk state arrays, an arena of
`chunk x _FIRST_BLOCK` doubles (a plane for the partial sums and one for their
running maximum, written with `out=`; the slices touch only its front), the
lent uniforms, stream ids and Philox planes.  Every chunk resets it in place
and compacts into the front of its arrays, so the walk's own buffers are
allocated once per call.  The call, not the module, owns it, because the CLI
simulates on two threads at once.

A batch holds the streams first_stream, first_stream + 1, ..., so it stores
no stream ids: a live walk's stream is its row in the chunk plus the chunk's
first stream, computed per slice into the work area.  Each chunk writes its
results straight into the call's full-length columns, so the call's peak
memory is the columns plus one work area, with no per-chunk parts and no
concatenation after them.  Without a shift psi_max is m_tau itself, so the
columns hold 25 bytes per walk (33 with a shift).  The index that `run`
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
_COLUMNS = ("tau", "s_tau", "m_tau", "psi_max", "censored")  # a SampleBatch's per-walk arrays


class WalkError(ValueError):
    """Invalid walk configuration."""


@dataclass
class SampleBatch:
    """Struct-of-arrays batch of ladder samples of streams first_stream, first_stream + 1, ...

    Without a shift `psi_max` is `m_tau` itself.
    """

    shift: float
    first_stream: int
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

    @property
    def stream_ids(self) -> np.ndarray:
        return np.arange(self.first_stream, self.first_stream + self.n, dtype=np.int64)

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


class _WorkArea:
    """The work area of one `simulate_batch` call, and the live walks of its current chunk.

    The state arrays are the fronts of the work area's arrays, indexed by
    live walk: `idx` the walk's row in the chunk, `part` the partial sum of
    the increments drawn so far in the current block, `base`/`comp` the
    compensated sum of the blocks before it.  `run` starts each chunk in
    place, and the walks that descend leave by compaction, so every chunk
    reuses the same memory.  `path_sink`, if given, collects each slice's
    increments and partial sums of the first live walk (the replay of one
    walk).
    """

    def __init__(self, capacity: int, spec: TailSpec, seed: int, step_cap: int, shift: float, path_sink=None):
        self.spec, self.seed, self.step_cap, self.shift, self.path_sink = spec, seed, step_cap, shift, path_sink
        # without a shift run_psi is never read, so it is neither reset nor compacted
        self._sums = ("base", "comp", "part", "run_max") + (("run_psi",) if shift != 0.0 else ())
        self._full = {"idx": np.empty(capacity, dtype=np.int64)}
        self._full.update((name, np.empty(capacity)) for name in self._sums)
        self._stopped = np.empty(capacity, dtype=bool)
        # two planes, for the partial sums and their running max
        self.arena = np.empty((2, capacity * _FIRST_BLOCK // 2))
        self.units = np.empty((2 if spec.uses_slot1 else 1, _SLICE_CELLS))
        self.streams = np.empty(min(capacity, _SLICE_CELLS), dtype=np.uint64)
        self.planes = np.empty(6 * rng._TILE, dtype=np.uint64)

    def run(self, first: int, m: int, out):
        """Run the walks of streams first..first+m-1; write tau, s_tau, m_tau, psi_max, censored into `out`."""
        self.first = first
        self.tau, self.s_tau, self.m_tau, self.psi_max, _ = out
        for name, full in self._full.items():
            setattr(self, name, full[:m])
        self.idx[:] = np.arange(m)  # a fresh index, not a kept one: see the module docstring on faults
        for name in self._sums:
            getattr(self, name).fill(0.0)  # run_max covers the empty partial sum S_0 = 0
        for start, length in _block_schedule(self.step_cap):
            for sub_start, width in _sub_blocks(start, length):
                if self.idx.size == 0:
                    break
                rest = start + length - sub_start
                if self.idx.size * rest <= _STRAGGLER_CELLS:
                    self.advance(sub_start, rest)
                    break
                self.advance(sub_start, width)
            if self.idx.size == 0:
                break
            # the compensated carry runs at block ends only, as in one cumsum per block
            self.carry()

        tau, s_tau, m_tau, psi_max, censored = out
        censored[:] = False
        censored[self.idx] = True
        tau[self.idx] = self.step_cap
        s_tau[self.idx] = self.base
        m_tau[self.idx] = self.run_max
        if self.shift != 0.0:
            psi_max[self.idx] = self.run_psi

    def carry(self):
        """Add the block's partial sums to the compensated base (Kahan), in place, and zero them."""
        y = np.subtract(self.part, self.comp, out=self.part)
        t = np.add(self.base, y, out=self.comp)
        c = np.subtract(t, self.base, out=self.base)
        self.base, self.comp = t, np.subtract(c, y, out=c)
        self.part.fill(0.0)

    def advance(self, start, width):
        """Draw steps start..start+width-1 for every live walk; drop the ones that descend.

        A sub-block wider than a slice runs as narrower ones, which keeps the
        bits (see the module docstring).
        """
        for lo in range(start, start + width, _SLICE_CELLS):
            if self.idx.size == 0:
                break
            self._advance(lo, min(_SLICE_CELLS, start + width - lo))

    def _advance(self, start, width):
        cells = self.arena.shape[1]
        if width + 1 > cells:
            self.arena = np.empty((2, width + 1))
            cells = width + 1
        per_slice = min(_SLICE_CELLS // width, cells // (width + 1))  # >= 1, as width <= _SLICE_CELLS and width < cells
        n = self.idx.size
        stopped = self._stopped[:n]
        for lo in range(0, n, per_slice):
            sl = slice(lo, lo + per_slice)
            stopped[sl] = self._advance_slice(start, width, sl)
        if stopped.any():
            keep = np.flatnonzero(~stopped)
            for name in self._full:
                live = getattr(self, name)
                live[: keep.size] = live.take(keep)
                setattr(self, name, live[: keep.size])

    def _draw(self, sl, start, width):
        """Increments of the live walks `sl` over steps start..start+width-1, drawn into the lent buffers."""
        idx = self.idx[sl]
        streams = np.add(idx, self.first, out=self.streams[: idx.size], casting="unsafe")
        steps = np.arange(start, start + width, dtype=np.uint64)[:, None]
        out = [u[: width * idx.size].reshape(width, idx.size) for u in self.units]
        if self.spec.uses_slot1:
            u0, u1 = rng.uniform_pair(self.seed, streams[None, :], steps, out=out, planes=self.planes)
        else:
            u0, u1 = rng.uniform_slot0(self.seed, streams[None, :], steps, out=out[0], planes=self.planes), None
        return self.spec.increment_from_uniforms(u0, u1)

    def _advance_slice(self, start, width, sl):
        x = self._draw(sl, start, width)
        n = x.shape[1]
        # row 0 carries the in-block partial sum, so the sum adds in the same
        # order as one cumsum over the whole block
        c = self.arena[0, : (width + 1) * n].reshape(width + 1, n)
        _scan(np.add, self.part[sl], x, c)
        self.part[sl] = c[-1]
        s = c[1:]
        np.add(s, self.base[sl], out=s)
        if self.path_sink is not None:
            self.path_sink.append((x[:, 0].copy(), s[:, 0].copy()))

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


def _columns(n: int, shift: float):
    """Empty tau, s_tau, m_tau, psi_max and censored columns for n walks; without a shift psi_max is m_tau."""
    tau, s_tau, m_tau = np.empty(n, dtype=np.int64), np.empty(n), np.empty(n)
    psi_max = np.empty(n) if shift != 0.0 else m_tau
    return tau, s_tau, m_tau, psi_max, np.empty(n, dtype=bool)


def simulate_batch(
    spec: TailSpec,
    seed: int,
    n_samples: int,
    step_cap: int = 1_000_000,
    shift: float = 0.0,
    first_stream: int = 0,
) -> SampleBatch:
    """Simulate the walks of streams first_stream..first_stream+n_samples-1 until first descent or the step cap.

    Walks run in chunks of `_CHUNK` (2.5e5) streams, which bounds the work
    area; results depend only on (seed, stream id, step index), not on the
    chunking, so a batch from `first_stream` k holds rows k.. of a batch
    from 0.  Stream ids lie in [0, 2**63).  `shift` additionally tracks the
    running maximum of the drift-compensated partial sums S_n + n*shift,
    which is the quantity the stopping-time tail comparison needs.
    """
    mean = spec.mean
    if not mean < 0:
        raise WalkError("walk increments must have strictly negative mean")
    if shift != 0.0 and not mean + shift < 0:
        raise WalkError("compensated increments must keep a strictly negative mean")
    if step_cap < 1:
        raise WalkError("step_cap must be at least one")
    if n_samples < 1:
        raise WalkError("n_samples must be at least one")
    if first_stream < 0 or first_stream + n_samples > 2**63:
        raise WalkError(f"stream ids {first_stream}..{first_stream + n_samples - 1} are not all in [0, 2**63)")

    area = _WorkArea(min(_CHUNK, n_samples), spec, seed, step_cap, shift)
    columns = _columns(n_samples, shift)
    for lo in range(0, n_samples, _CHUNK):
        hi = min(lo + _CHUNK, n_samples)
        area.run(first_stream + lo, hi - lo, [c[lo:hi] for c in columns])
    return SampleBatch(shift, first_stream, *columns)


def replay_path(
    spec: TailSpec, seed: int, stream_id: int, step_cap: int = 1_000_000, shift: float = 0.0
) -> dict:
    """Re-emit one walk's full path for audit.

    Uses the batch engine on a single stream, so the replay reproduces the
    recorded sample bit for bit, including the block-structured arithmetic.
    A stream id outside [0, 2**63) is a WalkError.
    """
    if not 0 <= stream_id < 2**63:
        raise WalkError(f"stream id {stream_id} is not in [0, 2**63)")
    sink: list = []
    out = _columns(1, shift)
    _WorkArea(1, spec, seed, step_cap, shift, path_sink=sink).run(stream_id, 1, out)
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
