"""Finite-range diagnostics for heavy-tail distribution classes.

Three checks, all reported as "consistent with" verdicts over an explicit
usable grid (asymptotics are not decidable numerically, so every report
records the range it actually covered):

* ``long_tailed_profile`` - the shifted-tail ratio tail(x-y)/tail(x) must
  settle at one,
* ``sstar_ratio`` - the self-convolution ratio
  int_0^x tail(x-y) tail(y) dy / (2 m tail(x)) must settle into a band just
  above one (the strong-subexponential property); every grid point is
  integrated in one call of the batched Gauss-Kronrod kernel
  ``numerics.adaptive_gk21``,
* ``check_log_tail_increment`` - the hazard-scale increment bound
  R(x) - R(x-y) <= gamma R(y) + A' with R = -log tail, fitted on the
  growth-function increment slack's sweep, ``numerics.increment_sweep``.

Grids stop where the tail underflows (below 1e-300); the reports carry the
usable horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import Report
from .numerics import adaptive_gk21, bracket_root, increment_residual, increment_sweep
from .tails import TailSpec

__all__ = [
    "TailRatioReport",
    "IncrementFitReport",
    "usable_tail_horizon",
    "long_tailed_profile",
    "sstar_ratio",
    "check_log_tail_increment",
]

_LOG_FLOOR = math.log(1e-290)


@dataclass
class TailRatioReport(Report):
    """Grid of ratios with a banded finite-range verdict."""

    kind: str
    x: list
    ratios: list
    ok: bool
    tol: float
    usable_hi: float
    notes: list = field(default_factory=list)


@dataclass
class IncrementFitReport(Report):
    """Fitted additive slack for the hazard-scale increment bound."""

    kind: str = field(default="log_tail_increment", init=False)
    ok: bool
    gamma: float
    slack: float
    usable_hi: float
    witnesses: list = field(default_factory=list)


def usable_tail_horizon(spec: TailSpec, log_floor: float = _LOG_FLOOR) -> float:
    """Largest x where the log-tail still clears the given floor, capped at 1e13:
    the lower end of the `numerics.bracket_root` bracket of its crossing."""
    cap, hi = 1e13, spec.support[1]
    if math.isfinite(hi):
        return hi
    start = max(1.0, spec.support[0] + 1.0, abs(spec.support[0]))
    if start >= cap or spec.log_tail(np.array([cap]))[0] >= log_floor:
        return cap
    return float(bracket_root(lambda x, i: spec.log_tail(x) < log_floor, start, cap)[0])


def _default_x_grid(spec: TailSpec, per_decade: int = 16, hi: float | None = None) -> np.ndarray:
    hi = usable_tail_horizon(spec) if hi is None else hi
    lo = max(spec.support[0], 0.0) + 1.0
    if hi <= lo * 10:
        lo = max(hi / 1e4, 1e-3)
    n = max(int(per_decade * math.log10(hi / lo)), 24) + 1
    return np.geomspace(lo, hi, n)


def long_tailed_profile(spec: TailSpec, x_grid=None) -> TailRatioReport:
    """Ratios tail(x-y)/tail(x) at shift y = 1; consistent when the last decade sits in [1, 1.01] (`tol` 1e-2)."""
    y, tol = 1.0, 1e-2
    if x_grid is None:
        x_grid = _default_x_grid(spec)
    x_grid = np.asarray(x_grid, dtype=float)
    log_ratio = spec.log_tail(x_grid - y) - spec.log_tail(x_grid)
    usable = np.isfinite(log_ratio) & (spec.log_tail(x_grid) >= _LOG_FLOOR)
    notes = []
    if not usable.all():
        notes.append("grid truncated where the tail underflows")
    xs = x_grid[usable]
    ratios = np.exp(log_ratio[usable])
    if xs.size == 0:
        return TailRatioReport("long_tailed", [], [], False, tol, 0.0, ["no usable grid"])
    last = xs >= xs[-1] / 10.0
    ok = bool(np.all((ratios[last] >= 1.0 - 1e-9) & (ratios[last] <= 1.0 + tol)))
    return TailRatioReport(
        "long_tailed", [float(v) for v in xs], [float(r) for r in ratios], ok, tol, float(xs[-1]), notes
    )


_DECAY_KNOT_LEVELS = (0.5, 1e-1, 1e-2, 1e-4, 1e-8, 1e-16, 1e-32, 1e-64, 1e-128, 1e-250)


def sstar_ratio(spec: TailSpec, x_grid=None) -> TailRatioReport:
    """Self-convolution over 2 m tail(x); consistent when it settles just above one.

    The verdict requires the last-decade ratios to be non-increasing (small
    numerical slack) and the final ratio to land in the band [1, 1.1] (`tol`
    0.1).  The default grid runs to a log-tail depth of -1e5 (capped at
    x = 1e12): the ratio is computed relative to tail(x), so it stays
    meaningful far past the point where the tail value itself leaves double
    precision.

    The integral int_0^x tail(x-y) tail(y) dy is folded at x/2 (the integrand
    is symmetric) and evaluated in log space, exp(clip(log tail(x-y) +
    log tail(y) - log tail(x), -745, 60)), so it stays representable where the
    tail underflows.  Each half range is split at the spec's `_breakpoints`
    (atoms, finite support ends, kinks) and their mirror images at x, and at
    the tail's own decay quantiles at `_DECAY_KNOT_LEVELS` (computed once per
    call), so the rule resolves the mass concentrated near y = 0 even when
    the range spans many decades.  All grid points are integrated together
    by `numerics.adaptive_gk21` to epsrel 1e-9, at most 400 intervals per
    point; a point that reaches the cap first keeps its last estimate and is
    named in the notes.
    """
    m, tol = spec.pos_mean, 0.1
    if not m > 0:
        raise ValueError("strong-subexponential diagnostic needs a positive-part mean > 0")
    if x_grid is None:
        x_grid = _default_x_grid(spec, per_decade=8, hi=min(usable_tail_horizon(spec, log_floor=-1e5), 1e12))
    x_grid = np.asarray(x_grid, dtype=float)

    notes = []
    lt = spec.log_tail(x_grid)
    finite = np.isfinite(lt)
    usable = x_grid.size if finite.all() else int(np.argmin(finite))
    if usable < x_grid.size:
        notes.append("grid truncated where the log-tail is not finite")
    xs, lt = x_grid[:usable], lt[:usable]
    if not xs.size:
        return TailRatioReport("sstar", [], [], False, tol, 0.0, ["no usable grid"])

    quantiles = spec.tail_quantile(np.array(_DECAY_KNOT_LEVELS)).tolist()
    kinks = spec._breakpoints()
    group, a, b = [], [], []
    for i, x in enumerate(xs.tolist()):
        half = x / 2.0
        knots = {p for p in (*kinks, *(x - k for k in kinks), *quantiles) if 0.0 < p < half}
        edges = [0.0] + sorted(knots) + [half]
        group += [i] * (len(edges) - 1)
        a += edges[:-1]
        b += edges[1:]

    def integrand(i, y):
        expo = spec.log_tail(xs[i] - y) + spec.log_tail(y) - lt[i]
        return np.exp(np.clip(expo, -745.0, 60.0))

    epsrel, limit = 1e-9, 400
    folded, capped = adaptive_gk21(integrand, np.array(group), np.array(a), np.array(b), epsrel, limit)
    r_a = 2.0 * folded / (2.0 * m)
    if capped.any():
        notes.append(f"quadrature stopped at {limit} intervals before epsrel {epsrel} at x = {xs[capped].tolist()}")

    last = xs >= xs[-1] / 10.0
    r_last = r_a[last]
    decreasing = bool(np.all(np.diff(r_last) <= 1e-6 * np.maximum(r_last[:-1], 1.0)))
    in_band = bool(1.0 - 1e-6 <= r_last[-1] <= 1.0 + tol)
    return TailRatioReport(
        "sstar", xs.tolist(), r_a.tolist(), decreasing and in_band, tol, float(xs[-1]), notes
    )


def check_log_tail_increment(spec: TailSpec, gamma: float, x_grid=None) -> IncrementFitReport:
    """Fit A' in R(x) - R(x-y) <= gamma R(y) + A' over y in (0, x/2].

    The growth-function increment fit on the hazard scale R = -log tail, on
    the same `numerics.increment_sweep`: y runs over 64 log-spaced fractions
    of x from 1e-4 to 0.5, and only the grid rows whose residuals are all
    finite and whose tail clears 1e-290 enter the fit.  The per-decade
    running maximum of the residual must gain less than 1e-6 over the last
    usable decade, otherwise the worst residuals are reported as witnesses.
    """
    if not gamma < 1:
        raise ValueError("gamma must be < 1")
    if x_grid is None:
        x_grid = _default_x_grid(spec, per_decade=24)
    x_grid = np.asarray(x_grid, dtype=float)
    ys = x_grid[:, None] * np.geomspace(1e-4, 0.5, 64)
    res = increment_residual(lambda v: -spec.log_tail(v), x_grid[:, None], ys, gamma)

    usable_rows = np.isfinite(res).all(axis=1) & (spec.log_tail(x_grid) >= _LOG_FLOOR)
    if not usable_rows.any():
        return IncrementFitReport(False, gamma, math.nan, 0.0, [{"kind": "no usable grid"}])
    xs = x_grid[usable_rows]
    running_max, ok, witnesses = increment_sweep(xs, ys[usable_rows], res[usable_rows], "growing_residual")
    return IncrementFitReport(ok, gamma, max(running_max, 0.0), float(xs[-1]), witnesses)
