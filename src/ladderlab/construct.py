"""The dominating-increment construction pipeline.

Given a negative-drift increment distribution and a certified growth function
g, the pipeline builds, in order:

1. a coefficient K such that the transformed variable exp(g(X)) has its tail
   dominated by min(1, K/x) everywhere (``fit_majorant_coefficient``),
2. the dominating increment with tail min(1, K exp(-g(x)))
   (``tails.MajorantIncrement``),
3. a splice that keeps the original tail up to a level V, stays flat to V',
   and continues with the dominating tail, tuned so the spliced mean stays
   below ``mean + delta`` (``splice``),
4. a lower truncation max(X, -L) that bounds the increments below while
   moving the mean by at most a prescribed margin (``truncate_below``).

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
from .numerics import bracket_root, integrate
from .tails import MajorantIncrement, SplicedTail, TailError, TailSpec, TruncatedBelow, integrals_above

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

_LOG_TAIL_FLOOR = math.log(1e-300)
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


def _find_log_tail_horizon(base: TailSpec, g: GrowthFunction) -> float:
    """Largest useful t = log s: g where the base log-tail drops below the
    floor, the upper end of the `numerics.bracket_root` bracket of the crossing."""
    hi = base.support[1]
    if math.isfinite(hi):
        return float(g(hi))
    start = max(1.0, base.support[0] + 1.0, abs(base.support[0]))
    try:
        _, x = bracket_root(lambda x, i: base.log_tail(x) < _LOG_TAIL_FLOOR, start, 2.0 * start)
    except ValueError:
        raise UndeterminedError("tail does not decay: cannot place the majorant grid") from None
    return float(g(x))


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
    grid (plus local refinement and exact atom candidates), then inflated by
    1e-6 so the bound holds with margin between grid points.  Raises
    UndeterminedError when the product is still rising at the grid end above
    every other candidate, i.e. when no finite coefficient is in evidence.
    """
    t_hi = _find_log_tail_horizon(base, g)
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


def splice_at(base: TailSpec, hat: MajorantIncrement, v: float) -> tuple[float, SplicedTail, float]:
    """Splice with the crossover fixed at V; returns (V', spliced, mean).

    Splicing only rewrites the tail above V, so the mean is the base mean with
    the base tail integral over [V, inf) swapped for the spliced one: the flat
    stretch contributes tail(V) * (V' - V) and the majorant its own integral.
    This avoids re-integrating the base body for every candidate V.
    """
    (v_prime, mean), = _splice_means(base, hat, [v])
    return v_prime, SplicedTail(base, hat, v, v_prime), mean


def _splice_means(base: TailSpec, hat: MajorantIncrement, levels: list[float]):
    """Yield (V', mean) of `splice_at` at each level in order, their tail
    integrals all computed in one `tails.integrals_above` call; TailError on
    reaching a level whose integral does not converge."""
    q = [float(base.tail(v)) for v in levels]
    v_primes = [max(float(hat.tail_quantile(q_v)), v) if q_v > 0.0 else math.inf for v, q_v in zip(levels, q)]
    pairs = [pair for v, v_prime, q_v in zip(levels, v_primes, q) if q_v > 0.0 for pair in ((base, v), (hat, v_prime))]
    values, converged = integrals_above(pairs)
    per_level = iter(zip(values[0::2], values[1::2], converged[0::2], converged[1::2]))
    for v, v_prime, q_v in zip(levels, v_primes, q):
        if q_v <= 0.0:
            yield math.inf, base.mean
            continue
        base_above, hat_above, base_ok, hat_ok = next(per_level)
        if not (base_ok and hat_ok):
            raise TailError("tail integral did not converge (non-integrable tail?)")
        yield v_prime, base.mean - base_above + q_v * (v_prime - v) + hat_above


def splice(base: TailSpec, hat: MajorantIncrement, delta: float) -> tuple[float, float, SplicedTail]:
    """Find the smallest grid V whose splice keeps the mean below mean+delta.

    The candidate levels grow geometrically (ratio 1.25) from the base median;
    the spliced mean is monotone in V, so the first level passing the target
    is returned.  The levels are tried `_SPLICE_ROUND` at a time, their means
    computed together.  Raises ConstructionError when no level up to
    ``_LEVEL_CAP`` (1e10) works, which signals an infinite exp-growth moment
    or a mis-fitted coefficient.
    """
    a = -base.mean
    if not a > 0:
        raise ConstructionError("splice needs a negative-mean base increment")
    if not 0 < delta < a:
        raise ConstructionError(f"delta must lie in (0, {a}), got {delta}")
    target = -a + delta

    levels, v = [], max(float(base.tail_quantile(0.5)), 1e-6)
    while v <= _LEVEL_CAP:
        levels.append(v)
        v *= 1.25
    for lo in range(0, len(levels), _SPLICE_ROUND):
        round_levels = levels[lo : lo + _SPLICE_ROUND]
        for v, (v_prime, mean) in zip(round_levels, _splice_means(base, hat, round_levels)):
            if mean < target:
                return v, v_prime, SplicedTail(base, hat, v, v_prime)
    raise ConstructionError(
        "no splice level below the cap reaches the mean target; "
        "the exp-growth moment may be infinite or the majorant coefficient mis-fitted"
    )


# ---------------------------------------------------------------------------
# Truncation
# ---------------------------------------------------------------------------


def truncate_below(base: TailSpec, target_mean_margin: float) -> tuple[float, TruncatedBelow]:
    """Pick the smallest grid L so that max(X, -L) moves the mean by <= margin.

    A base bounded below is returned unchanged with L at its lower support
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
        level = -lo
        return level, TruncatedBelow(base, level)
    if not 0 < target_mean_margin < a_tilde:
        raise ConstructionError(
            f"target mean margin must lie in (0, {a_tilde}) for an unbounded lower tail"
        )
    level = 1.0
    while level <= _LEVEL_CAP:
        gain = base.mass_integral_below(-level)
        if gain <= target_mean_margin:
            return level, TruncatedBelow(base, level)
        level *= 1.25
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
    trunc: TruncatedBelow
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
