"""Random-walk simulation: first descent below zero and running maxima.

The engine drives many walks at once.  Increments are inverse-transform
samples from counter-based uniforms keyed by (seed, stream, step), so every
walk is reproducible in isolation and streams can be merged freely.  Steps
are processed in geometrically growing blocks (8, 16, 32, ...): within a
block partial sums are a plain cumulative sum on top of a compensated
carry-over, which keeps the stopping test sharp even for walks that run for
hundreds of thousands of steps.  Censoring at the step cap is a recorded
data state, never an error.

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
_DEFAULT_CHUNK = 250_000


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
        sl = slice(0, n)
        return replace(
            self,
            stream_ids=self.stream_ids[sl],
            tau=self.tau[sl],
            s_tau=self.s_tau[sl],
            m_tau=self.m_tau[sl],
            psi_max=self.psi_max[sl],
            censored=self.censored[sl],
        )

    @staticmethod
    def concat(parts: list["SampleBatch"]) -> "SampleBatch":
        first = parts[0]
        return SampleBatch(
            seed=first.seed,
            step_cap=first.step_cap,
            shift=first.shift,
            stream_ids=np.concatenate([p.stream_ids for p in parts]),
            tau=np.concatenate([p.tau for p in parts]),
            s_tau=np.concatenate([p.s_tau for p in parts]),
            m_tau=np.concatenate([p.m_tau for p in parts]),
            psi_max=np.concatenate([p.psi_max for p in parts]),
            censored=np.concatenate([p.censored for p in parts]),
        )


def _block_schedule(step_cap: int):
    start, length = 0, _FIRST_BLOCK
    while start < step_cap:
        length = min(length, step_cap - start)
        yield start, length
        start += length
        length *= 2


def _kahan_add(total, comp, inc):
    y = inc - comp
    t = total + y
    comp = (t - total) - y
    return t, comp


def _draw_block(spec: TailSpec, seed: int, streams: np.ndarray, start: int, length: int):
    steps = np.arange(start, start + length, dtype=np.uint64)
    u0, u1 = rng.uniform_pair(seed, streams[:, None], steps[None, :])
    return spec.increment_from_uniforms(u0, u1)


def _simulate_chunk(
    spec: TailSpec,
    seed: int,
    streams: np.ndarray,
    step_cap: int,
    shift: float,
    path_sink: list | None = None,
):
    m = streams.size
    out_tau = np.full(m, step_cap, dtype=np.int64)
    out_s = np.zeros(m)
    out_m = np.zeros(m)
    out_psi = np.zeros(m)
    out_cens = np.zeros(m, dtype=bool)

    idx = np.arange(m)
    act_streams = streams.astype(np.uint64)
    base = np.zeros(m)
    comp = np.zeros(m)
    run_max = np.zeros(m)  # covers the empty partial sum S_0 = 0
    run_psi = np.zeros(m)

    for start, length in _block_schedule(step_cap):
        if idx.size == 0:
            break
        x = _draw_block(spec, seed, act_streams, start, length)
        c = np.cumsum(x, axis=1)
        s = base[:, None] + c
        if shift != 0.0:
            offsets = shift * np.arange(start + 1, start + length + 1, dtype=np.float64)
            psi = s + offsets[None, :]
        else:
            psi = s
        if path_sink is not None:
            path_sink.append((x[0].copy(), s[0].copy()))

        stop_mask = s <= 0.0
        stopped = stop_mask.any(axis=1)
        first = stop_mask.argmax(axis=1)
        s_acc = np.maximum.accumulate(s, axis=1)
        psi_acc = np.maximum.accumulate(psi, axis=1) if shift != 0.0 else s_acc

        rows = np.nonzero(stopped)[0]
        if rows.size:
            f = first[rows]
            oi = idx[rows]
            out_tau[oi] = start + f + 1
            out_s[oi] = s[rows, f]
            out_m[oi] = np.maximum(run_max[rows], s_acc[rows, f])
            out_psi[oi] = np.maximum(run_psi[rows], psi_acc[rows, f])

        keep = ~stopped
        if not keep.all():
            idx = idx[keep]
            act_streams = act_streams[keep]
            base, comp = base[keep], comp[keep]
            run_max, run_psi = run_max[keep], run_psi[keep]
            c = c[keep]
            s_acc, psi_acc = s_acc[keep], psi_acc[keep]
        if idx.size:
            base, comp = _kahan_add(base, comp, c[:, -1])
            run_max = np.maximum(run_max, s_acc[:, -1])
            run_psi = np.maximum(run_psi, psi_acc[:, -1])

    if idx.size:
        out_cens[idx] = True
        out_s[idx] = base
        out_m[idx] = run_max
        out_psi[idx] = run_psi

    return out_tau, out_s, out_m, out_psi, out_cens


def simulate_batch(
    spec: TailSpec,
    seed: int,
    n_samples: int | None = None,
    stream_ids=None,
    step_cap: int = 1_000_000,
    shift: float = 0.0,
    chunk_size: int = _DEFAULT_CHUNK,
) -> SampleBatch:
    """Simulate one walk per stream id until first descent or the step cap.

    Results depend only on (seed, stream id, step index); chunking is a memory
    knob with no effect on values.  `shift` additionally tracks the running
    maximum of the drift-compensated partial sums S_n + n*shift, which is the
    quantity the stopping-time tail comparison needs.
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
        stream_ids = np.arange(n_samples, dtype=np.int64)
    stream_ids = np.asarray(stream_ids, dtype=np.int64)

    parts = []
    for lo in range(0, stream_ids.size, chunk_size):
        chunk = stream_ids[lo : lo + chunk_size]
        tau, s_tau, m_tau, psi_max, cens = _simulate_chunk(
            spec, seed, chunk, step_cap, shift
        )
        parts.append(
            SampleBatch(
                seed=seed,
                step_cap=step_cap,
                shift=shift,
                stream_ids=chunk.copy(),
                tau=tau,
                s_tau=s_tau,
                m_tau=m_tau,
                psi_max=psi_max,
                censored=cens,
            )
        )
    return SampleBatch.concat(parts) if len(parts) > 1 else parts[0]


def replay_path(
    spec: TailSpec, seed: int, stream_id: int, step_cap: int = 1_000_000, shift: float = 0.0
) -> dict:
    """Re-emit one walk's full path for audit.

    Uses the batch engine on a single stream, so the replay reproduces the
    recorded sample bit for bit, including the block-structured arithmetic.
    """
    sink: list = []
    streams = np.asarray([stream_id], dtype=np.int64)
    tau, s_tau, m_tau, psi_max, cens = _simulate_chunk(
        spec, seed, streams, step_cap, shift, path_sink=sink
    )
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
