"""The dominating-increment construction pipeline.

Given a negative-drift increment distribution and a certified growth function
g, the pipeline builds, in order:

1. a coefficient K such that the transformed variable exp(g(X)) has its tail
   dominated by min(1, K/x) everywhere (``fit_majorant_coefficient``, on a
   grid that ends at g of the base's tail quantile at 1e-300),
2. the dominating increment with tail min(1, K exp(-g(x)))
   (``tails.MajorantIncrement``),
3. a splice that keeps the original tail up to a level V, stays flat to V',
   and continues with the dominating tail, tuned so the spliced mean stays
   below ``mean + delta`` (``splice``, one ``splice_at`` call per round),
4. a lower truncation max(X, -L) that bounds the increments below while
   moving the mean by at most a prescribed margin (``truncate_below``; a
   tail bounded below is its own truncation).

``build_chain`` runs all four steps and records every fitted constant, so the
whole construction can be serialized, re-checked on grids, and used to drive
coupled simulations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import Report
from .growth import ConditionReport, GrowthFunction
from .numerics import integrate
from .tails import MajorantIncrement, SplicedTail, TailSpec, TruncatedBelow, integrals_above

__all__ = [
    "ConstructionError",
    "UndeterminedError",
    "MajorantFit",
    "fit_majorant_coefficient",
    "splice",
    "splice_at",
    "truncate_below",
    "ConstructionChain",
    "build_chain",
]

_LEVEL_CAP = 1e10  # largest splice level V and truncation level L tried
_SPLICE_ROUND = 16  # splice levels whose means are computed together


class ConstructionError(ValueError):
    """A construction step cannot meet its contract."""


class UndeterminedError(ConstructionError):
    """A numeric fit did not stabilize inside its grid; no verdict."""


def _transformed_log_product(base: TailSpec, g: GrowthFunction, t):
    """log of s * P{exp(g(X)) > s} at s = e^t, computed without overflow."""
    t = np.asarray(t, dtype=float)
    return t + base.log_tail(g.inverse(t))


def _exp_growth_moment(base: TailSpec, g: GrowthFunction, t_hi: float) -> float | None:
    """E exp(g(X)) by quadrature, or None when the doubling never decays.

    A divergent moment does not by itself invalidate the tail-domination fit
    (borderline tails can still satisfy the bound), so non-convergence is
    recorded rather than raised; the fit gates on sup stabilization instead.
    """

    def integrand(t):
        return np.exp(np.minimum(_transformed_log_product(base, g, t), 700.0))

    # the region s in (0, 1] contributes at most one, tail = 1 there
    (total,), (converged,) = integrate(
        [(integrand, [0.0], 1)], reach=max(4.0 * t_hi, 64.0), rel_tol=1e-12, total=1.0
    )
    return total if converged else None


@dataclass
class MajorantFit(Report):
    """Fitted tail-domination coefficient and its certification data.

    exp_growth_moment is None when the exp-growth moment quadrature did not
    converge; the coefficient is then certified on the grid only (the bound
    itself may still hold, as it does for borderline matching-exponent tails).
    """

    K: float
    product_sup: float
    floor_exp_g_x0: float
    argmax_log_s: float
    grid_log_s_hi: float
    exp_growth_moment: float | None


def fit_majorant_coefficient(base: TailSpec, g: GrowthFunction, x0: float) -> MajorantFit:
    """Fit K with P{exp(g(X)) > s} <= K/s for all s > 0 and K >= exp(g(x0)).

    The product s * P{exp(g(X)) > s} is maximized in log space over a dense
    grid of t = log s up to g(base.tail_quantile(1e-300)), where the base tail
    reaches 1e-300 (plus local refinement and exact atom candidates), then
    inflated by 1e-6 so the bound holds with margin between grid points.
    Raises UndeterminedError when the product is still rising at the grid end
    above every other candidate, i.e. when no finite coefficient is in
    evidence, and when that quantile is not finite or its search finds no
    bracket (the tail does not decay).
    """
    try:
        with np.errstate(over="ignore"):  # Pareto's closed form overflows to inf
            x = float(base.tail_quantile(1e-300))
    except ValueError:  # the generic quantile's search found no bracket
        x = math.inf
    if not math.isfinite(x):
        raise UndeterminedError("tail does not decay: cannot place the majorant grid")
    t_hi = float(g(x))
    exp_moment = _exp_growth_moment(base, g, t_hi)

    # candidate (log-product, log s) pairs; s -> 1- always yields product one
    # because the transformed variable never goes below one
    candidates = [(0.0, 0.0)]
    for loc, mass in base.atoms:
        at_least = float(base.tail(loc)) + mass  # P{X >= loc}, the left limit
        if at_least > 0:
            candidates.append((float(g(loc)) + math.log(at_least), float(g(loc))))

    if t_hi > 0:
        ts = np.linspace(0.0, t_hi, 4001)
        prod = _transformed_log_product(base, g, ts)
        prod = np.where(np.isfinite(prod), prod, -np.inf)
        i = int(np.argmax(prod))
        best, best_t = float(prod[i]), float(ts[i])
        if best >= max(lp for lp, _ in candidates) and i >= len(ts) - max(2, len(ts) // 50):
            raise UndeterminedError(
                "running sup of the tail product has not stabilized by the grid end"
            )
        lo_t, hi_t = ts[max(i - 1, 0)], ts[min(i + 1, len(ts) - 1)]
        for _ in range(4):
            sub = np.linspace(lo_t, hi_t, 65)
            sp = _transformed_log_product(base, g, sub)
            j = int(np.argmax(sp))
            if sp[j] > best:
                best, best_t = float(sp[j]), float(sub[j])
            lo_t, hi_t = sub[max(j - 1, 0)], sub[min(j + 1, 64)]
        candidates.append((best, best_t))

    sup_log, arg = max(candidates)
    sup = math.exp(sup_log)
    floor = math.exp(float(g(x0)))
    k = max(floor, sup) * (1.0 + 1e-6)
    return MajorantFit(k, sup, floor, arg, t_hi, exp_moment)


# ---------------------------------------------------------------------------
# Splice
# ---------------------------------------------------------------------------


def splice_at(base: TailSpec, hat: MajorantIncrement, levels: list[float]) -> tuple[list[float], list[float]]:
    """V' and spliced mean with the crossover fixed at each level V; V' = inf where tail(V) = 0.

    Splicing only rewrites the tail above V, so the mean is the base mean with
    the base tail integral over [V, inf) swapped for the spliced one: the flat
    stretch contributes tail(V) * (V' - V) and the majorant its own integral,
    all from one `integrals_above` call, and V' from one `hat.tail_quantile`
    call.  q is read per level for `SplicedTail`'s bits.
    """
    v, q = np.array(levels), np.array([float(base.tail(x)) for x in levels])
    live = q > 0.0
    v_prime = np.maximum(hat.tail_quantile(np.where(live, q, 1.0)), v)
    pairs = [(base, x) for x in v[live].tolist()] + [(hat, x) for x in v_prime[live].tolist()]
    above = np.zeros((2, len(levels)))
    above[:, live] = np.reshape(integrals_above(pairs), (2, -1))
    mean = np.where(live, base.mean - above[0] + q * (v_prime - v) + above[1], base.mean)
    return np.where(live, v_prime, math.inf).tolist(), mean.tolist()


def _ladder(start: float) -> list[float]:
    """The search grid start, 1.25 start, 1.25^2 start, ... up to `_LEVEL_CAP`."""
    levels = []
    while start <= _LEVEL_CAP:
        levels.append(start)
        start *= 1.25
    return levels


def splice(base: TailSpec, hat: MajorantIncrement, delta: float) -> tuple[float, float, SplicedTail]:
    """Find the smallest grid V whose splice keeps the mean below mean+delta.

    The candidate levels grow geometrically (ratio 1.25) from max(base median, 1e-6);
    the spliced mean is monotone in V, so the first level passing the target
    is returned.  The levels are tried `_SPLICE_ROUND` at a time, one
    `splice_at` call per round.  Raises ConstructionError when no level up to
    ``_LEVEL_CAP`` (1e10) works, which signals an infinite exp-growth moment
    or a mis-fitted coefficient.
    """
    a = -base.mean
    if not a > 0:
        raise ConstructionError("splice needs a negative-mean base increment")
    if not 0 < delta < a:
        raise ConstructionError(f"delta must lie in (0, {a}), got {delta}")
    target = -a + delta

    levels = _ladder(max(float(base.tail_quantile(0.5)), 1e-6))
    for lo in range(0, len(levels), _SPLICE_ROUND):
        round_levels = levels[lo : lo + _SPLICE_ROUND]
        for v, v_prime, mean in zip(round_levels, *splice_at(base, hat, round_levels)):
            if mean < target:
                return v, v_prime, SplicedTail(base, hat, v, v_prime)
    raise ConstructionError(
        "no splice level below the cap reaches the mean target; "
        "the exp-growth moment may be infinite or the majorant coefficient mis-fitted"
    )


# ---------------------------------------------------------------------------
# Truncation
# ---------------------------------------------------------------------------


def truncate_below(base: TailSpec, target_mean_margin: float) -> tuple[float, TailSpec]:
    """Pick the smallest grid L so that max(X, -L) moves the mean by <= margin.

    A base bounded below is returned itself, with L at its lower support
    edge.  Otherwise L grows geometrically from 1 until the removed lower-tail
    mass integral drops under the margin; it always does, by dominated
    convergence, but a level past ``_LEVEL_CAP`` (1e10) raises
    ConstructionError.
    """
    a_tilde = -base.mean
    if not a_tilde > 0:
        raise ConstructionError("truncation needs a negative-mean increment")
    lo = base.support[0]
    if math.isfinite(lo):
        return -lo, base
    if not 0 < target_mean_margin < a_tilde:
        raise ConstructionError(
            f"target mean margin must lie in (0, {a_tilde}) for an unbounded lower tail"
        )
    for level in _ladder(1.0):
        if base.mass_integral_below(-level) <= target_mean_margin:
            return level, TruncatedBelow(base, level)
    raise ConstructionError("lower truncation level search exceeded its cap")


# ---------------------------------------------------------------------------
# The full chain
# ---------------------------------------------------------------------------


@dataclass
class ConstructionChain:
    """All stages and fitted constants of the construction pipeline."""

    base: TailSpec
    g: GrowthFunction
    report: ConditionReport
    fit: MajorantFit
    hat: MajorantIncrement
    delta: float
    V: float
    V_prime: float
    tilde: SplicedTail
    L: float
    trunc: TailSpec  # the spliced tail itself where it is bounded below
    a: float
    a_tilde: float
    a_trunc: float
    truncation_margin: float
    diagnostics: dict = field(default_factory=dict)

    @property
    def K(self) -> float:
        return self.fit.K

    @property
    def shift(self) -> float:
        """Drift compensation a - delta applied to the truncated increments."""
        return self.a - self.delta

    def to_dict(self) -> dict:
        return {
            "base": self.base.spec_dict(),
            "growth": self.g.spec_dict(),
            "K": self.K,
            "V": self.V,
            "V_prime": self.V_prime,
            "L": self.L,
            "delta": self.delta,
            "a": self.a,
            "a_tilde": self.a_tilde,
            "a_trunc": self.a_trunc,
            "truncation_margin": self.truncation_margin,
            "shift": self.shift,
            "majorant_fit": self.fit.to_dict(),
            "conditions": self.report.to_dict(),
            "diagnostics": self.diagnostics,
        }


def build_chain(
    base: TailSpec,
    g: GrowthFunction,
    report: ConditionReport,
    delta: float | None = None,
) -> ConstructionChain:
    """Run the whole construction and cross-check the fitted means.

    delta defaults to half the drift magnitude; the truncation margin is half
    the headroom between the spliced drift and the compensation shift, so the
    compensated increments keep strictly negative mean.
    """
    if not report.all_ok:
        raise ConstructionError("growth function failed certification; cannot build the chain")
    a = -base.mean
    if not a > 0:
        raise ConstructionError("base increments must have strictly negative mean")
    if delta is None:
        delta = a / 2.0
    if not 0 < delta < a:
        raise ConstructionError(f"delta must lie in (0, {a}), got {delta}")

    fit = fit_majorant_coefficient(base, g, report.x0)
    hat = MajorantIncrement(g, fit.K)
    v, v_prime, tilde = splice(base, hat, delta)

    a_tilde = -tilde.mean  # independent quadrature over the spliced tail
    if not a_tilde > a - delta:
        raise ConstructionError(
            f"spliced mean {-a_tilde} does not stay below the target {-(a - delta)}"
        )

    shift = a - delta
    truncation_margin = (a_tilde - shift) / 2.0  # in (0, headroom), since a_tilde > shift
    level, trunc = truncate_below(tilde, truncation_margin)
    a_trunc = -trunc.mean
    if not a_trunc > shift:
        raise ConstructionError("truncated mean lost the negative compensated drift")

    return ConstructionChain(
        base=base,
        g=g,
        report=report,
        fit=fit,
        hat=hat,
        delta=float(delta),
        V=float(v),
        V_prime=float(v_prime),
        tilde=tilde,
        L=float(level),
        trunc=trunc,
        a=float(a),
        a_tilde=float(a_tilde),
        a_trunc=float(a_trunc),
        truncation_margin=float(truncation_margin),
    )
