"""Growth functions and the numerical certification of their admissibility.

A growth function g is the exponent scale of an intermediate-moment family
``x -> exp(g(x))``: positive, increasing, flattening out (derivative dying at
infinity) and with sub-linear increments.  Three builtin families are
provided,

* ``g1``: powers of the logarithm, ``(log max(x,1))**alpha`` with alpha > 1
  (lognormal-type tails),
* ``g2``: fractional powers, ``max(x,0)**beta`` with beta in (0,1)
  (Weibull-type tails),
* ``g3``: fractional power times logarithm, ``max(x,0)**beta *
  log(max(x,1))``,

plus tabulated functions (piecewise-linear, monotone) for user-supplied data.

``certify`` runs the four numerical checks and fits the admissibility
constants: the slope threshold ``x0`` and bound ``B``, the increment weight
``gamma`` and the additive slack ``A``.  All verdicts are finite-range
statements: they certify the inequalities on explicit grids up to ``x_max``,
never beyond.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .config import Report, build_record
from .numerics import bracket_root, integrate, stabilized_running_max

__all__ = [
    "GrowthFunction",
    "GrowthEvalError",
    "ConditionReport",
    "make_growth",
    "default_condition_grid",
    "check_shape",
    "check_slope_decay",
    "check_tail_integral",
    "check_increment_slack",
    "certify",
]

INCREMENT_X_MAX = 1e8
INTEGRAL_X_MAX = 1e12
GAMMA_CANDIDATES = tuple(round(0.05 * k, 2) for k in range(1, 20))


class GrowthEvalError(ValueError):
    """A growth function produced a non-finite value."""


def _bracketed_inverse(ev, lo: float):
    """The inverse t -> inf{x > lo : ev(x) > t} of an increasing ev, the upper
    end of its `numerics.bracket_root` bracket from [lo, lo + 1];
    GrowthEvalError where no bracket is found (a target too large)."""

    def inv(t):
        flat = t.ravel()
        try:
            return bracket_root(lambda x, i: (x > lo) & (ev(x) > flat[i]), np.full(t.shape, lo), lo + 1.0)[1]
        except ValueError:
            raise GrowthEvalError("could not bracket inverse: target too large") from None

    return inv


@dataclass(frozen=True)
class GrowthFunction:
    """A growth function with derivative and generalized inverse.

    The inverse follows the convention inf{x : g(x) > t}, so it is defined for
    every t >= 0 even where g has flat stretches.  The callables take and
    return numpy arrays.  `params` holds the keyword arguments of the family's
    factory, so `family` and `params` are its config record.
    """

    family: str
    params: dict
    _eval: Callable
    _deriv: Callable
    _inverse: Callable

    def __call__(self, x):
        return self._eval(np.asarray(x, dtype=float))

    def deriv(self, x):
        return self._deriv(np.asarray(x, dtype=float))

    def inverse(self, t):
        return self._inverse(np.asarray(t, dtype=float))

    def spec_dict(self) -> dict:
        return {"family": self.family, **self.params}


def _make_g1(param: float) -> GrowthFunction:
    alpha = float(param)
    if not alpha > 1:
        raise ValueError(f"g1 needs param > 1, got {alpha}")

    def ev(x):
        return np.log(np.maximum(x, 1.0)) ** alpha

    def dv(x):
        x = np.maximum(x, 1.0)
        with np.errstate(divide="ignore"):
            out = alpha * np.log(x) ** (alpha - 1.0) / x
        return np.where(x > 1.0, out, 0.0)

    def inv(t):
        t = np.maximum(t, 0.0)
        return np.exp(t ** (1.0 / alpha))

    return GrowthFunction("g1", {"param": alpha}, ev, dv, inv)


def _make_g2(param: float) -> GrowthFunction:
    beta = float(param)
    if not 0 < beta < 1:
        raise ValueError(f"g2 needs param in (0,1), got {beta}")

    def ev(x):
        return np.maximum(x, 0.0) ** beta

    def dv(x):
        xp = np.maximum(x, 0.0)
        with np.errstate(divide="ignore"):
            out = beta * xp ** (beta - 1.0)
        return np.where(xp > 0.0, out, 0.0)

    def inv(t):
        return np.maximum(t, 0.0) ** (1.0 / beta)

    return GrowthFunction("g2", {"param": beta}, ev, dv, inv)


def _make_g3(param: float) -> GrowthFunction:
    beta = float(param)
    if not 0 < beta < 1:
        raise ValueError(f"g3 needs param in (0,1), got {beta}")

    def ev(x):
        xp = np.maximum(x, 0.0)
        return xp**beta * np.log(np.maximum(x, 1.0))

    def dv(x):
        xg = np.maximum(x, 1.0)
        out = xg ** (beta - 1.0) * (beta * np.log(xg) + 1.0)
        return np.where(np.asarray(x, dtype=float) > 1.0, out, 0.0)

    # no closed form: a bracketed search above the flat region [., 1]
    return GrowthFunction("g3", {"param": beta}, ev, dv, _bracketed_inverse(ev, 1.0))


def _make_table(points: Sequence[Sequence[float]]) -> GrowthFunction:
    pts = sorted((float(x), float(y)) for x, y in points)
    if len(pts) < 2:
        raise ValueError("table growth function needs at least two points")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    if np.any(np.diff(xs) <= 0):
        raise ValueError("table abscissae must be strictly increasing")
    if np.any(np.diff(ys) < 0):
        raise ValueError("table ordinates must be non-decreasing")
    slopes = np.diff(ys) / np.diff(xs)

    def ev(x):
        x = np.asarray(x, dtype=float)
        inside = np.interp(x, xs, ys)
        below = ys[0] + (x - xs[0]) * slopes[0]
        above = ys[-1] + (x - xs[-1]) * slopes[-1]
        return np.where(x < xs[0], below, np.where(x > xs[-1], above, inside))

    def dv(x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(slopes) - 1)
        return slopes[idx]

    lo = float(min(xs[0] if slopes[0] > 0 else xs[0] - 1.0, 1e-6))
    return GrowthFunction("table", {"points": [list(p) for p in pts]}, ev, dv, _bracketed_inverse(ev, lo))


_FAMILIES = {"g1": _make_g1, "g2": _make_g2, "g3": _make_g3, "table": _make_table}  # by config tag


def make_growth(spec: dict, where: str = "growth") -> GrowthFunction:
    """Build a growth function from its config record at `where`, checked by `config.build_record`."""
    return build_record(spec, _FAMILIES, where)


def default_condition_grid():
    """Log-spaced verification grid used by the shape and slope checks: 1200 points from 1e-3 to 1e6."""
    return np.geomspace(1e-3, 1e6, 1200)


# ---------------------------------------------------------------------------
# Condition checks
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    ok: bool
    witnesses: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)


def _require_finite(g: GrowthFunction, grid) -> np.ndarray:
    vals = g(grid)
    bad = ~np.isfinite(vals)
    if bad.any():
        x = float(np.asarray(grid)[bad][0])
        raise GrowthEvalError(f"growth function is not finite at x={x!r}")
    return vals


def check_shape(g: GrowthFunction, grid=None) -> CheckResult:
    """Positivity, monotonicity and derivative consistency on the grid.

    Flat-zero stretches on the left (as in the logarithmic families) are
    accepted: positivity and strict increase are required only once the
    function has left zero.  The closed-form derivative must agree with
    central differences to 1e-5 relative, except at stencils straddling the
    flat-zero boundary where the two-sided difference is meaningless.
    """
    if grid is None:
        grid = default_condition_grid()
    grid = np.asarray(grid, dtype=float)
    vals = _require_finite(g, grid)
    witnesses = []

    neg = vals < 0
    if neg.any():
        for x, v in zip(grid[neg][:5], vals[neg][:5]):
            witnesses.append({"kind": "negative", "x": float(x), "g": float(v)})
    if vals[-1] <= 0:
        witnesses.append({"kind": "never_positive", "x": float(grid[-1]), "g": float(vals[-1])})

    diffs = np.diff(vals)
    scale = np.maximum(np.abs(vals[:-1]), np.abs(vals[1:]))
    dec = diffs < -1e-12 * np.maximum(scale, 1.0)
    if dec.any():
        idx = np.nonzero(dec)[0][:5]
        for i in idx:
            witnesses.append(
                {
                    "kind": "decreasing",
                    "x": float(grid[i]),
                    "y": float(grid[i + 1]),
                    "gap": float(diffs[i]),
                }
            )
    # strictness once the function is positive
    flat = (vals[:-1] > 0) & (diffs <= 0) & ~dec
    if flat.any():
        i = int(np.nonzero(flat)[0][0])
        witnesses.append(
            {"kind": "not_strict", "x": float(grid[i]), "y": float(grid[i + 1])}
        )

    if g.family != "table":  # table derivative is itself a finite difference
        h = np.maximum(np.abs(grid) * 1e-6, 1e-9)
        lo_v = g(grid - h)
        hi_v = g(grid + h)
        fd = (hi_v - lo_v) / (2.0 * h)
        dv = g.deriv(grid)
        straddle = (lo_v == 0.0) & (hi_v > 0.0)
        err = np.abs(fd - dv)
        tol = 1e-5 * np.maximum(np.abs(dv), np.abs(fd)) + 1e-12
        bad = (err > tol) & ~straddle
        if bad.any():
            for i in np.nonzero(bad)[0][:5]:
                witnesses.append(
                    {
                        "kind": "derivative_mismatch",
                        "x": float(grid[i]),
                        "deriv": float(dv[i]),
                        "finite_difference": float(fd[i]),
                    }
                )

    return CheckResult(ok=not witnesses, witnesses=witnesses)


def check_slope_decay(g: GrowthFunction, grid=None) -> CheckResult:
    """Check that the derivative dies out, and fit the bound (x0, B).

    The per-decade maxima of g' must be non-increasing past their peak and
    must end at no more than half the peak value.  x0 is the first grid point
    past the peak of g'; B is twice the largest derivative at or beyond x0, so
    g'(x) < B holds with margin on the whole certified range.
    """
    if grid is None:
        grid = default_condition_grid()
    grid = np.asarray(grid, dtype=float)
    dv = np.asarray(g.deriv(grid), dtype=float)
    if not np.all(np.isfinite(dv)):
        x = float(grid[~np.isfinite(dv)][0])
        raise GrowthEvalError(f"derivative is not finite at x={x!r}")

    decades = np.floor(np.log10(grid)).astype(int)
    uniq = np.unique(decades)
    maxima = np.array([dv[decades == d].max() for d in uniq])

    witnesses = []
    peak_idx = int(np.argmax(maxima))
    peak = maxima[peak_idx]
    if peak <= 0:
        witnesses.append({"kind": "zero_derivative", "detail": "g' vanishes on the whole grid"})
        return CheckResult(ok=False, witnesses=witnesses)

    rise = maxima[peak_idx + 1 :] > np.maximum.accumulate(
        np.concatenate([[peak], maxima[peak_idx + 1 : -1]])
    ) * (1 + 1e-9)
    if rise.any():
        for k in np.nonzero(rise)[0][:5]:
            d = uniq[peak_idx + 1 + k]
            witnesses.append(
                {"kind": "rising_slope", "decade": int(d), "max_deriv": float(maxima[peak_idx + 1 + k])}
            )
    if maxima[-1] > 0.5 * peak:
        witnesses.append(
            {
                "kind": "slope_not_decaying",
                "decade": int(uniq[-1]),
                "max_deriv": float(maxima[-1]),
                "peak_deriv": float(peak),
            }
        )

    argmax = int(np.argmax(dv))
    if argmax + 1 >= len(grid):
        witnesses.append({"kind": "slope_peak_at_grid_end", "x": float(grid[-1])})
        return CheckResult(ok=False, witnesses=witnesses)
    x0 = float(grid[argmax + 1])
    b = 2.0 * float(dv[argmax + 1 :].max())
    return CheckResult(ok=not witnesses, witnesses=witnesses, detail={"x0": x0, "B": b})


def check_tail_integral(g: GrowthFunction, gamma: float) -> tuple[str, float]:
    """Integrate exp(-(1-gamma) g(x)) over [1, inf) by geometric doubling.

    Returns a verdict in {"finite", "divergent", "undetermined"} and the
    accumulated value.  The upper limit doubles until the last doubling
    contributes less than 1e-10 of the total; if that has not happened by
    x = 1e12 the integral is reported divergent (a finite-range statement).
    An evaluation error or a non-finite segment makes the verdict
    undetermined, and the value is then not finite.
    """
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must be in (0,1), got {gamma}")
    coef = 1.0 - gamma

    def integrand(x):
        return np.exp(-coef * g(x))

    try:
        (total,), (converged,) = integrate([(integrand, [1.0], 1)], reach=INTEGRAL_X_MAX, rel_tol=1e-10, epsabs=0.0)
    except Exception:
        return "undetermined", math.nan
    if not math.isfinite(total):
        return "undetermined", total
    return ("finite" if converged else "divergent"), total


def check_increment_slack(g: GrowthFunction, gamma: float, x0: float) -> tuple[CheckResult, float]:
    """Fit the additive slack A of the increment bound g(x)-g(x-y) <= gamma g(y) + A.

    Maximizes the residual over a log-log grid with x in [2 x0, 1e8] (48
    points per decade) and y in [x0, x/2] (64 points), polishing the grid
    maximum by local refinement.  The fit is accepted when the running
    per-decade maximum gains less than 1e-6 over the last decade of x;
    otherwise the worst residuals of that decade are returned as witnesses.
    """
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must be in (0,1), got {gamma}")
    per_decade, n_y = 48, 64
    x_lo = max(2.0 * x0, 2e-9)
    if x_lo >= INCREMENT_X_MAX / 4:
        raise ValueError("x0 too large for the increment grid")
    n_x = max(int(per_decade * math.log10(INCREMENT_X_MAX / x_lo)), per_decade) + 1
    xs = np.geomspace(x_lo, INCREMENT_X_MAX, n_x)

    frac = np.linspace(0.0, 1.0, n_y)

    def residual(x_col, f_row):
        ys = np.exp(np.log(x0) + f_row * (np.log(x_col / 2.0) - np.log(x0)))
        return g(x_col) - g(x_col - ys) + (-gamma) * g(ys), ys

    res, ys = residual(xs[:, None], frac[None, :])

    rm_all, in_last, stabilized = stabilized_running_max(xs, res.max(axis=1))

    # polish the raw grid maximum with three nested local refinements
    i, j = np.unravel_index(np.argmax(res), res.shape)
    lx_lo, lx_hi = math.log(xs[max(i - 1, 0)]), math.log(xs[min(i + 1, n_x - 1)])
    f_lo, f_hi = frac[max(j - 1, 0)], frac[min(j + 1, n_y - 1)]
    best = float(res[i, j])
    for _ in range(3):
        lxs = np.exp(np.linspace(lx_lo, lx_hi, 33))
        fr = np.linspace(f_lo, f_hi, 33)
        sub, _ = residual(lxs[:, None], fr[None, :])
        bi, bj = np.unravel_index(np.argmax(sub), sub.shape)
        best = max(best, float(sub[bi, bj]))
        lx_lo, lx_hi = math.log(lxs[max(bi - 1, 0)]), math.log(lxs[min(bi + 1, 32)])
        f_lo, f_hi = fr[max(bj - 1, 0)], fr[min(bj + 1, 32)]

    a_fit = max(best, 0.0)
    if stabilized:
        return CheckResult(ok=True, detail={"A": a_fit, "running_max": rm_all}), a_fit

    witnesses = []
    last_rows = np.nonzero(in_last)[0]
    flat = [(res[r, c], r, c) for r in last_rows for c in [int(np.argmax(res[r]))]]
    flat.sort(reverse=True)
    for val, r, c in flat[:5]:
        witnesses.append(
            {"kind": "growing_increment", "x": float(xs[r]), "y": float(ys[r, c]), "residual": float(val)}
        )
    return CheckResult(ok=False, witnesses=witnesses, detail={"A": a_fit}), a_fit


# ---------------------------------------------------------------------------
# Certification report
# ---------------------------------------------------------------------------


@dataclass
class ConditionReport(Report):
    """Outcome of the admissibility checks with the fitted constants.

    Its JSON keys are its field names, except that `grid_lo`, `grid_hi` and
    `x_max` are nested as `lo`, `hi` and `x_max` under `certified_grid`.
    """

    family: str
    params: dict
    shape_ok: bool
    slope_decay_ok: bool
    tail_integral_ok: bool
    increment_ok: bool
    x0: float | None = None
    B: float | None = None
    gamma: float | None = None
    A: float | None = None
    integral_value: float | None = None
    grid_lo: float = 1e-3
    grid_hi: float = 1e6
    x_max: float = INCREMENT_X_MAX
    witnesses: dict = field(default_factory=dict)

    @property
    def all_ok(self) -> bool:
        return self.shape_ok and self.slope_decay_ok and self.tail_integral_ok and self.increment_ok

    def to_dict(self) -> dict:
        out = super().to_dict()
        out["certified_grid"] = {"lo": out.pop("grid_lo"), "hi": out.pop("grid_hi"), "x_max": out.pop("x_max")}
        return out


def certify(g: GrowthFunction) -> ConditionReport:
    """Run all admissibility checks and fit (gamma, A, x0, B).

    The shape and slope checks run on `default_condition_grid()`.  gamma is
    the first of `GAMMA_CANDIDATES` (in increasing order) for which both the
    tail integral converges and the increment slack stabilizes; smaller gamma
    certifies the stronger inequality.  Returns a report with violation
    witnesses when any check fails.
    """
    grid = default_condition_grid()
    witnesses: dict = {}

    shape = check_shape(g, grid)
    if not shape.ok:
        witnesses["shape"] = shape.witnesses
    slope = check_slope_decay(g, grid)
    if not slope.ok:
        witnesses["slope_decay"] = slope.witnesses

    report = ConditionReport(
        family=g.family,
        params=g.params,
        shape_ok=shape.ok,
        slope_decay_ok=slope.ok,
        tail_integral_ok=False,
        increment_ok=False,
        grid_lo=float(grid[0]),
        grid_hi=float(grid[-1]),
        witnesses=witnesses,
    )
    if not (shape.ok and slope.ok):
        return report

    report.x0 = slope.detail["x0"]
    report.B = slope.detail["B"]

    last_increment_witnesses = None
    for gamma in GAMMA_CANDIDATES:
        verdict, value = check_tail_integral(g, gamma)
        if verdict != "finite":
            continue
        inc, a_fit = check_increment_slack(g, gamma, report.x0)
        if inc.ok:
            report.tail_integral_ok = True
            report.increment_ok = True
            report.gamma = float(gamma)
            report.A = float(a_fit)
            report.integral_value = float(value)
            return report
        report.tail_integral_ok = True
        last_increment_witnesses = inc.witnesses
    if last_increment_witnesses is not None:
        witnesses["increment"] = last_increment_witnesses
    else:
        witnesses["tail_integral"] = [
            {"kind": "no_convergent_gamma", "detail": "integral did not converge for any candidate"}
        ]
    return report
