"""Moment estimation over ladder samples, with the quantitative check suites.

Estimators turn a sample batch into a Monte Carlo mean of a functional of the
descent epoch, with standard error, normal-approximation confidence interval
and two validity diagnostics: the share of the sum carried by the top 1% of
summands (a CLT-reliability flag for heavy tails) and the share contributed
by censored excursions (which enter at their step-cap lower bound, never
silently dropped).

The check suites cover what is exactly assertable (shared-uniform dominance
coupling, the stopping-identity consistency of means) and what is only
observable (the running-maximum tail ratio against its predicted limit, and
an explicitly heuristic stability verdict for moment finiteness).

The estimators walk a batch in blocks, so no temporary grows with its size,
and every sum keeps the bits of one `np.sum` over the whole column.  numpy
sums float64 pairwise (Higham, "The accuracy of floating point summation",
SIAM J. Sci. Comput. 1993): a run of more than 128 values splits at
n//2 - (n//2) % 8, so the tree depends on the run's length alone.  The blocks
are the nodes of that tree holding at most `_LEAF` values; `np.sum` over each
gives its node's bits, and `_TreeSum` adds the node sums along the tree.  A
mean is that sum over n, a sample variance numpy's two passes (the mean, then
the sum of squared deviations from it), and the top-1% sum adds the same
largest values in the same descending order as a sort of the whole column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .config import Report
from .construct import ConstructionChain
from .growth import GrowthFunction
from .tails import TailSpec
from .walk import SampleBatch

__all__ = [
    "MomentEstimate",
    "estimate_growth_moment",
    "estimate_power_moment",
    "estimate_exp_moment",
    "dominance_suite",
    "wald_check",
    "running_max_ratio_check",
    "finiteness_diagnostic",
]

_Z95 = 1.96


@dataclass
class MomentEstimate(Report):
    """Point estimate of one moment functional with uncertainty and flags."""

    estimand: dict
    n: int
    point: float
    std_error: float
    ci95: tuple[float, float]
    top1_share: float
    censored_n: int
    censored_share: float
    verdict: str


_LEAF = 1 << 14  # most values in one block: blocks are the nodes of numpy's pairwise-sum tree


def _half(n: int) -> int:
    """Where numpy's pairwise sum splits a run of n > 128 values."""
    return n // 2 - (n // 2) % 8


def _tree_leaves(n: int) -> list:
    """(start, stop) of the largest nodes of at most `_LEAF` values in numpy's pairwise-sum tree over n values."""
    leaves, todo = [], [(0, n)] if n else []
    while todo:
        lo, size = todo.pop()
        if size <= _LEAF:
            leaves.append((lo, lo + size))
        else:
            half = _half(size)
            todo += [(lo + half, size - half), (lo, half)]
    return leaves


def _tree_join(n: int, sums):
    """The leaves' sums, from the iterator `sums`, added along numpy's tree over n values."""
    if n <= _LEAF:
        return next(sums)
    half = _half(n)
    left = _tree_join(half, sums)
    return left + _tree_join(n - half, sums)


class _TreeSum:
    """`np.sum`'s bits for n float64 values that arrive in consecutive pieces of any length.

    A leaf of the tree that one piece holds whole is summed in place; one
    split across pieces (a masked subset's, say) is gathered in a buffer.
    """

    def __init__(self, n: int):
        self.n = n
        self._sizes = [hi - lo for lo, hi in _tree_leaves(n)]
        self._sums = []
        self._buf = None
        self._fill = 0

    def add(self, x: np.ndarray):
        pos = 0
        while pos < x.size:
            size = self._sizes[len(self._sums)]
            if self._fill == 0 and x.size - pos >= size:
                self._sums.append(np.sum(x[pos : pos + size]))
                pos += size
                continue
            if self._buf is None:
                self._buf = np.empty(_LEAF)
            take = min(size - self._fill, x.size - pos)
            self._buf[self._fill : self._fill + take] = x[pos : pos + take]
            self._fill += take
            pos += take
            if self._fill == size:
                self._sums.append(np.sum(self._buf[:size]))
                self._fill = 0

    def total(self) -> float:
        if len(self._sums) != len(self._sizes):
            raise ValueError(f"{self.n} values announced, fewer added")
        return float(_tree_join(self.n, iter(self._sums))) if self.n else 0.0


class _Largest:
    """The k largest of float64 values fed in blocks.

    Once k candidates are held, a block keeps only its values above the
    k-th largest so far: one equal to it cannot change which values the k
    largest are.  The candidates are cut back to the k largest when they
    reach twice k, or one block, whichever is more, by a sort: numpy's is
    many times faster than its partition on the tied values of light tails.
    A nan may be dropped: it makes the total, and so the share, nan whatever
    the top sum.
    """

    def __init__(self, k: int):
        self.k = k
        self._parts = []
        self._size = 0
        self._floor = None

    def add(self, x: np.ndarray):
        x = x.copy() if self._floor is None else x[x > self._floor]
        self._parts.append(x)
        self._size += x.size
        if self._size >= max(2 * self.k, _LEAF):
            kept = np.concatenate(self._parts)
            kept = np.sort(kept)[kept.size - self.k :]
            self._parts, self._size, self._floor = [kept], kept.size, kept[0]

    def sum(self):
        """Sum of the k largest, added in descending order."""
        return np.sort(np.concatenate(self._parts))[::-1][: self.k].sum()


def _estimate_functional(batch: SampleBatch, fn, estimand: dict) -> MomentEstimate:
    """Mean of fn(tau) with its standard error, top-1% share and censored share."""
    n = batch.n
    if n == 0:
        raise ValueError("cannot estimate from an empty batch")
    censored_n = batch.censored_n
    if censored_n == n:
        return MomentEstimate(
            estimand, n, math.nan, math.nan, (math.nan, math.nan), math.nan, censored_n, 1.0, "censored-dominated"
        )
    sums, squares, censored_sums = _TreeSum(n), _TreeSum(n), _TreeSum(censored_n)
    largest = _Largest(math.ceil(0.01 * n))
    # censored epochs are recorded at the cap, so fn(tau) is their lower bound
    with np.errstate(over="ignore"):
        for lo, hi in _tree_leaves(n):
            values = fn(batch.tau[lo:hi].astype(float))
            sums.add(values)
            largest.add(values)
            if censored_n:
                censored_sums.add(values[batch.censored[lo:hi]])
            squares.add(np.square(values, out=values))
    total, total_sq, censored_total = sums.total(), squares.total(), censored_sums.total()
    point = total / n
    if n > 1 and math.isfinite(total_sq):
        var = max(total_sq - n * point * point, 0.0) / (n - 1)
    else:
        var = math.nan if not math.isfinite(total_sq) else 0.0
    se = math.sqrt(var / n) if var == var else math.nan
    # Python floats: an overflowed total gives inf / inf = nan without numpy's warning
    top1 = 0.0 if total <= 0 else float(largest.sum()) / total
    censored_share = censored_total / total if total > 0 else 0.0
    if censored_n > 0 and censored_share > 0.01:
        verdict = "censored-dominated"
    elif top1 > 0.5 or not math.isfinite(point):  # an overflowed sum is no stable estimate
        verdict = "heavy"
    else:
        verdict = "stable"
    return MomentEstimate(
        estimand, n, point, se, (point - _Z95 * se, point + _Z95 * se), top1, censored_n, censored_share, verdict
    )


def estimate_growth_moment(
    batch: SampleBatch, g: GrowthFunction, eps: float, delta: float, a: float
) -> MomentEstimate:
    """Mean of exp((1-eps) g((a-delta) tau)) with uncertainty and flags.

    delta is absolute, in (0, a): the paper's (1 - delta) a tau with delta in
    (0, 1) is this one with delta times a, the same at a = 1.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if not 0 < delta < a:
        raise ValueError("delta must lie in (0, a)")
    coef = 1.0 - eps
    rate = a - delta

    est = {
        "kind": "exp_growth",
        "growth": g.spec_dict(),
        "eps": eps,
        "delta": delta,
        "a": a,
    }
    return _estimate_functional(batch, lambda t: np.exp(coef * g(rate * t)), est)


def estimate_power_moment(batch: SampleBatch, alpha: float) -> MomentEstimate:
    """Mean of tau**alpha (alpha = 1 reduces to the plain mean epoch)."""
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    return _estimate_functional(
        batch, lambda t: t**alpha, {"kind": "power", "alpha": alpha}
    )


def estimate_exp_moment(batch: SampleBatch, c: float) -> MomentEstimate:
    """Mean of exp(c tau); expect a heavy verdict outside the light-tailed regime."""
    if not 0 < c < math.inf:
        raise ValueError("c must be positive and finite")
    return _estimate_functional(
        batch, lambda t: np.exp(c * t), {"kind": "exp_linear", "c": c}
    )


# ---------------------------------------------------------------------------
# Exact suites
# ---------------------------------------------------------------------------


@dataclass
class DominanceReport(Report):
    """Shared-uniform quantile coupling across the construction chain."""

    kind: str = field(default="dominance", init=False)
    ok: bool
    n: int
    violations: list
    seed: int
    stream_id: int


def dominance_suite(chain: ConstructionChain, n: int, seed: int) -> DominanceReport:
    """Draw n shared uniforms; require base <= spliced <= majorant quantiles on each.

    The uniforms are slot 0 of stream 0, steps 0..n-1, drawn 1,000,000 at a
    time.  Zero violations are required: with pointwise-ordered tails the
    generalized inverses are ordered exactly, so any violation indicates a
    mis-fitted majorant coefficient or a broken splice.
    """
    stream_id, chunk = 0, 1_000_000
    violations = []
    done = 0
    while done < n and len(violations) < 10:
        count = min(chunk, n - done)
        u = rng.uniform_slot0(seed, stream_id, np.arange(done, done + count, dtype=np.uint64))
        q_base = chain.base.quantile(u)
        q_tilde = chain.tilde.quantile(u)
        q_hat = chain.hat.quantile(u)
        bad = (q_base > q_tilde) | (q_tilde > q_hat)
        if bad.any():
            for i in np.nonzero(bad)[0][:10]:
                violations.append(
                    {
                        "u": float(u[i]),
                        "base": float(q_base[i]),
                        "spliced": float(q_tilde[i]),
                        "majorant": float(q_hat[i]),
                    }
                )
        done += count
    return DominanceReport(ok=not violations, n=n, violations=violations, seed=seed, stream_id=stream_id)


@dataclass
class WaldReport(Report):
    """Stopping-identity consistency: mean overshoot vs drift times mean epoch."""

    kind: str = field(default="wald", init=False)
    n: int
    mean_discrepancy: float
    std_error: float
    sigmas: float
    ok: bool


def wald_check(batch: SampleBatch, mean_increment: float) -> WaldReport:
    """Check E S_tau = E xi * E tau on uncensored samples, within 4 combined SEs.

    The standard error is numpy's `std(ddof=1)` of the discrepancies over
    root n, from its two passes: their mean, then the sum of their squared
    deviations from it.
    """
    n = batch.n - batch.censored_n
    if n < 2:
        raise ValueError("need at least two uncensored samples")

    def discrepancies():
        for lo, hi in _tree_leaves(batch.n):
            d = batch.s_tau[lo:hi] - mean_increment * batch.tau[lo:hi].astype(float)
            yield d if n == batch.n else d[~batch.censored[lo:hi]]

    sums, squares = _TreeSum(n), _TreeSum(n)
    for d in discrepancies():
        sums.add(d)
    mean_d = sums.total() / n
    for d in discrepancies():
        d -= mean_d
        squares.add(np.square(d, out=d))
    se = math.sqrt(squares.total() / (n - 1)) / math.sqrt(n)
    if se == 0.0:
        sigmas = 0.0 if mean_d == 0.0 else math.inf
    else:
        sigmas = abs(mean_d) / se
    return WaldReport(n=n, mean_discrepancy=mean_d, std_error=se, sigmas=sigmas, ok=sigmas <= 4.0)


# ---------------------------------------------------------------------------
# Ratio limit of the running maximum
# ---------------------------------------------------------------------------


def _wilson_interval(count: int, n: int, z: float = _Z95) -> tuple[float, float]:
    p = count / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


@dataclass
class RatioCheckReport(Report):
    """Empirical P{max > x} over the increment tail, against the mean epoch."""

    kind: str = field(default="running_max_ratio", init=False)
    e_tau: float
    rows: list
    ok: bool
    largest_x: float | None
    delta_tol: float
    min_exceedances: int
    notes: list = field(default_factory=list)


def running_max_ratio_check(batch: SampleBatch, f_psi: TailSpec, x_grid=None) -> RatioCheckReport:
    """Compare P{M_tau > x}/tail_psi(x) with the estimated mean epoch.

    The asymptotic prediction is ratio -> E tau; at finite n the acceptance
    band at each x is the Wilson 95% interval for the exceedance probability
    divided by the increment tail, not widened (`delta_tol` 0.0).  The
    verdict is taken at the largest x still resolving 30 exceedances
    (`min_exceedances`); grid points beyond that are dropped and reported.
    """
    delta_tol, min_exceedances = 0.0, 30
    censored_n = batch.censored_n
    n = batch.n - censored_n
    notes = []
    if censored_n:
        notes.append(f"{censored_n} censored excursions excluded")
    if n == 0:
        return RatioCheckReport(math.nan, [], False, None, delta_tol, min_exceedances, ["no uncensored samples"])

    def uncensored(column):
        for lo, hi in _tree_leaves(batch.n):
            yield column[lo:hi] if not censored_n else column[lo:hi][~batch.censored[lo:hi]]

    # numpy's float64 mean of the int64 epochs: their sum is exact below 2^53, in any order
    e_tau = sum(int(t.sum()) for t in uncensored(batch.tau)) / n

    if x_grid is None:
        lo_level = min(0.25, 0.05 / max(e_tau, 1.0))
        hi_level = max(min_exceedances * 1.5 / (n * max(e_tau, 1.0)), 2.0 / n)
        if hi_level >= lo_level:
            x_grid = [float(f_psi.tail_quantile(lo_level))]
        else:
            x_grid = f_psi.tail_quantile(np.geomspace(lo_level, hi_level, 12))
    xs = np.asarray(x_grid, dtype=float)
    counts = [0] * xs.size
    for m_vals in uncensored(batch.psi_max):
        for j, x in enumerate(xs):
            counts[j] += int(np.count_nonzero(m_vals > x))
    rows = []
    for x, count in zip(xs, counts):
        tail = float(f_psi.tail(x))
        if tail <= 0 or count == 0:
            continue
        lo_p, hi_p = _wilson_interval(count, n)
        rows.append(
            {
                "x": float(x),
                "exceedances": count,
                "ratio": count / n / tail,
                "ratio_lo": lo_p / tail,
                "ratio_hi": hi_p / tail,
            }
        )
    resolvable = [r for r in rows if r["exceedances"] >= min_exceedances]
    if not resolvable:
        notes.append("no grid point resolves enough exceedances; enlarge n or lower the grid")
        return RatioCheckReport(e_tau, rows, False, None, delta_tol, min_exceedances, notes)
    top = max(resolvable, key=lambda r: r["x"])
    ok = top["ratio_lo"] <= e_tau <= top["ratio_hi"]
    return RatioCheckReport(e_tau, rows, ok, top["x"], delta_tol, min_exceedances, notes)


# ---------------------------------------------------------------------------
# Stability heuristic
# ---------------------------------------------------------------------------


@dataclass
class FinitenessReport(Report):
    """Heuristic verdict; empirical stability can never prove finiteness."""

    kind: str = field(default="finiteness_heuristic", init=False)
    verdict: str
    reasons: list
    points: list
    note: str = field(
        default="heuristic diagnostic: stability under growing n is evidence, not proof", init=False
    )


def finiteness_diagnostic(estimates: list[MomentEstimate]) -> FinitenessReport:
    """Stability of the same estimand over geometrically growing sample sizes.

    Stable means the point estimates moved by less than three combined
    standard errors across each of the last two steps and the top-1% share
    stays below one half at the largest n; anything else is reported heavy
    (or censored-dominated when the largest run is).
    """
    if len(estimates) < 4:
        raise ValueError("need at least four estimates at increasing n")
    ns = [e.n for e in estimates]
    if any(b <= a for a, b in zip(ns[:-1], ns[1:])):
        raise ValueError("sample sizes must be strictly increasing")
    points = [
        {"n": e.n, "point": e.point, "std_error": e.std_error, "top1_share": e.top1_share}
        for e in estimates
    ]
    last = estimates[-1]
    if last.verdict == "censored-dominated":
        return FinitenessReport("censored-dominated", ["largest run is censored-dominated"], points)

    reasons = []
    for prev, cur in [(estimates[-3], estimates[-2]), (estimates[-2], estimates[-1])]:
        move = abs(cur.point - prev.point)
        band = 3.0 * math.hypot(cur.std_error, prev.std_error)
        if not (move < band or move == 0.0):  # zero-variance functionals sit at 0 == band
            reasons.append(
                f"estimate moved {move:.3g} (> {band:.3g}) between n={prev.n} and n={cur.n}"
            )
    if not last.top1_share < 0.5:
        reasons.append(f"top-1% share {last.top1_share:.3g} >= 0.5 at n={last.n}")
    return FinitenessReport("stable" if not reasons else "heavy", reasons, points)
