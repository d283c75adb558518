import math

import numpy as np
import pytest
from scipy import integrate

from ladderlab import (
    Constant,
    Exponential,
    Pareto,
    QueuePair,
    TailSpec,
    WeibullShifted,
    check_log_tail_increment,
    long_tailed_profile,
    numerics,
    sstar_ratio,
)
from ladderlab.diagnostics import _DECAY_KNOT_LEVELS, usable_tail_horizon

from oracles import (
    exponential_self_convolution_ratio,
    lognormal_log_tail_mp,
    majorant_log_tail_mp,
    self_convolution_ratio,
    weibull_log_tail_mp,
)


# -- long-tailed profile -------------------------------------------------------


def test_long_tailed_majorant_g2(chains):
    hat = chains["g2"].hat
    rep = long_tailed_profile(hat)
    assert rep.ok
    # closed form: ratio = exp(g(x) - g(x-y)) deep in the tail
    x = rep.x[-1]
    expect = math.exp(math.sqrt(x) - math.sqrt(x - 1.0))
    assert rep.ratios[-1] == pytest.approx(expect, rel=1e-9)
    assert rep.ratios[-1] < 1.01


def test_long_tailed_exponential_fails():
    rep = long_tailed_profile(Exponential(1.0))
    assert not rep.ok
    assert rep.ratios[-1] == pytest.approx(math.e, rel=1e-9)


def test_long_tailed_pareto():
    p = Pareto(2.0, 1.0)
    rep = long_tailed_profile(p, x_grid=np.geomspace(10.0, 1e6, 60))
    assert rep.ok
    x = rep.x[5]
    assert rep.ratios[5] == pytest.approx((x / (x - 1.0)) ** 2, rel=1e-9)


# -- strong-subexponential ratio --------------------------------------------------


def test_sstar_pareto_converges():
    rep = sstar_ratio(Pareto(2.0, 1.0), x_grid=np.geomspace(1e3, 1e6, 30))
    assert rep.ok
    assert 1.0 - 1e-9 <= rep.ratios[-1] <= 1.1
    last_decade = [r for x, r in zip(rep.x, rep.ratios) if x >= rep.x[-1] / 10.0]
    assert all(b <= a + 1e-9 for a, b in zip(last_decade[:-1], last_decade[1:]))


def test_sstar_exponential_grows_linearly():
    e = Exponential(1.0)
    rep = sstar_ratio(e, x_grid=np.geomspace(1.0, 40.0, 15))
    assert not rep.ok
    for x, r in zip(rep.x, rep.ratios):
        assert r == pytest.approx(exponential_self_convolution_ratio(x), rel=1e-8)
    assert rep.ratios[-1] == pytest.approx(20.0, rel=1e-8)


def test_sstar_knot_quantiles_computed_once(monkeypatch):
    """The decay knots do not depend on x, so one sstar_ratio call computes them in one vector quantile call."""
    spec = QueuePair(Exponential(1.0), Constant(2.0))  # its quantile bisects the tail
    levels, tail_quantile = [], spec.tail_quantile
    monkeypatch.setattr(spec, "tail_quantile", lambda q: levels.append(q) or tail_quantile(q))
    rep = sstar_ratio(spec, x_grid=np.geomspace(1.0, 40.0, 12))
    assert len(rep.x) == 12
    assert len(levels) == 1 and levels[0].tolist() == list(_DECAY_KNOT_LEVELS)
    assert tail_quantile(levels[0]).tolist() == [float(tail_quantile(q)) for q in _DECAY_KNOT_LEVELS]


def test_sstar_symmetric_split_equals_full_integral():
    p = Pareto(2.0, 1.0)
    x = 100.0
    m = p.pos_mean
    folded = sstar_ratio(p, x_grid=[x]).ratios[0] * 2.0 * m * float(p.tail(x))
    full, _ = integrate.quad(
        lambda y: float(p.tail(x - y)) * float(p.tail(y)),
        0.0, x, epsabs=0.0, epsrel=1e-13, limit=400, points=[1.0, x / 2, x - 1.0],
    )
    assert folded == pytest.approx(full, rel=1e-12)


def _mpmath_sstar_ratio(chain, key, part, x):
    """The S* ratio of the chain's base or majorant at x by 30-digit mpmath."""
    spec = getattr(chain, part)
    if part == "hat":
        log_tail, knots = majorant_log_tail_mp(key, chain.g.params["param"], chain.K), [spec.support[0]]
    elif key == "g1":
        log_tail, knots = lognormal_log_tail_mp(spec.mu, spec.sigma2, spec.shift), []
    else:
        log_tail, knots = weibull_log_tail_mp(spec.c, spec.beta, spec.shift), []
    return self_convolution_ratio(log_tail, x, spec.pos_mean, knots)


@pytest.mark.parametrize("x", [30.0, 3000.0])
@pytest.mark.parametrize("part", ["base", "hat"])
def test_convolution_ratio_matches_mpmath(chains, part, x):
    got = sstar_ratio(getattr(chains["g1"], part), x_grid=[x]).ratios[0]
    assert got == pytest.approx(_mpmath_sstar_ratio(chains["g1"], "g1", part, x), rel=1e-12)


@pytest.mark.parametrize("x", [30.0, 3000.0])
@pytest.mark.parametrize("part", ["base", "hat"])
@pytest.mark.parametrize("key", ["g2", "g3"])
def test_weibull_convolution_ratio_matches_mpmath(chains, key, part, x):
    got = sstar_ratio(getattr(chains[key], part), x_grid=[x]).ratios[0]
    assert got == pytest.approx(_mpmath_sstar_ratio(chains[key], key, part, x), rel=1e-12)


def test_queue_pair_sstar_ratio_is_half_x():
    """Service Exp(1) against interarrival 2: tail exp(-(x + 2)), whose S*
    ratio is x / 2 in closed form, on the whole default grid; the exact
    log-tail carries the grid far past where the tail underflows."""
    rep = sstar_ratio(QueuePair(Exponential(1.0), Constant(2.0)))
    assert rep.usable_hi > 1e4 and rep.notes == [] and not rep.ok
    for x, r in zip(rep.x, rep.ratios):
        assert r == pytest.approx(x / 2.0, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("case", ["g1-hat", "g2-base", "g3-hat", "pareto", "queue"])
def test_sstar_point_bits_do_not_depend_on_the_grid(chains, case):
    """Each ratio is computed from its own x alone: a point computed by itself
    has the bits of the same point computed with the whole default grid."""
    if case == "pareto":
        spec = Pareto(2.0, 1.0)
    elif case == "queue":
        spec = QueuePair(Exponential(1.0), Constant(2.0))
    else:
        key, part = case.split("-")
        spec = getattr(chains[key], part)
    rep = sstar_ratio(spec)
    alone = [sstar_ratio(spec, x_grid=[x]).ratios[0] for x in rep.x]
    assert alone == rep.ratios  # float ==: bit for bit
    assert sstar_ratio(spec, x_grid=rep.x[::-1]).ratios == rep.ratios[::-1]


class _NoisyTail(TailSpec):
    """Log-tail -y - 1e-3 (1 + sin(1e4 y)): a wiggle no 21-point rule resolves to 1e-9."""

    pos_mean = 1.0

    @property
    def support(self):
        return (0.0, math.inf)

    def tail(self, x):
        return np.exp(self.log_tail(x))

    def log_tail(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0.0, 0.0, -np.maximum(x, 0.0) - 1e-3 * (1.0 + np.sin(1e4 * x)))


def test_sstar_noisy_integrand_stops_at_the_interval_cap(monkeypatch):
    """A point that cannot reach epsrel 1e-9 stops at 400 intervals and is
    named in the notes: the work per point is bounded (each bisection adds
    one interval and evaluates two), and the kernel raises nothing."""
    intervals, qk21 = [], numerics._qk21
    monkeypatch.setattr(numerics, "_qk21", lambda f, g, a, b: intervals.append(a.size) or qk21(f, g, a, b))
    xs = [5.0, 10.0, 20.0]
    rep = sstar_ratio(_NoisyTail(), x_grid=xs)
    assert rep.x == xs and all(math.isfinite(r) for r in rep.ratios)
    assert rep.notes == [f"quadrature stopped at 400 intervals before epsrel 1e-09 at x = {xs}"]
    assert sum(intervals) <= 2 * 400 * len(xs)


@pytest.mark.parametrize("key", ["g1", "g2", "g3"])
def test_sstar_majorants_consistent(chains, key):
    # the constructed dominating increments land in the certified class
    rep = sstar_ratio(chains[key].hat)
    assert rep.ok, (key, rep.ratios[-5:])
    assert 1.0 - 1e-9 <= rep.ratios[-1] <= 1.1


def test_sstar_requires_positive_mean():
    from ladderlab import Constant

    with pytest.raises(ValueError, match="positive-part mean > 0"):
        sstar_ratio(Constant(-1.0))  # no mass above zero: pos_mean is exactly 0


# -- hazard-scale increment bound ---------------------------------------------------


def test_log_tail_increment_majorant(chains, certified):
    chain = chains["g2"]
    _, report = certified["g2"]
    res = check_log_tail_increment(chain.hat, gamma=0.75)
    assert res.ok
    assert res.slack >= 0.0
    # the fitted slack sits below the sufficient constant assembled from the
    # growth slack, the coefficient and the bounded-slope region
    ln_k = math.log(chain.K)
    x1 = chain.hat.support[0]
    sufficient = (
        report.A
        + 0.75 * ln_k
        + report.B * max(x1, report.x0)
        + max(float(chain.g(2 * max(x1, report.x0))) - ln_k, 0.0)
    )
    assert res.slack <= sufficient + 1e-6


def test_log_tail_increment_exponential_fails():
    res = check_log_tail_increment(Exponential(1.0), gamma=0.9)
    assert not res.ok
    w = res.witnesses[0]
    # linear hazard: residual is (1 - 0.9) y at the witness pair
    assert w["residual"] == pytest.approx(0.1 * w["y"], rel=1e-6)


def test_log_tail_increment_flat_region_never_witnesses(chains):
    hat = chains["g2"].hat
    x1 = hat.support[0]
    res = check_log_tail_increment(hat, gamma=0.5, x_grid=np.linspace(x1 / 100, x1, 24))
    assert res.ok
    assert res.slack == 0.0  # tail is one there, hazard is identically zero


def test_log_tail_increment_gamma_validation(chains):
    with pytest.raises(ValueError):
        check_log_tail_increment(chains["g2"].hat, gamma=1.0)


# -- usable horizon -----------------------------------------------------------------


def test_usable_horizon_scales():
    e = Exponential(1.0)
    hz = usable_tail_horizon(e)
    assert float(e.log_tail(hz)) >= math.log(1e-290)
    assert float(e.log_tail(hz * (1.0 + 8.0 * np.spacing(1.0)))) < math.log(1e-290)


def test_usable_horizon_on_a_support_unbounded_below():
    """The search starts at 1 where the support has no lower end, and finds
    the 1e-290 crossing instead of returning the 1e13 cap."""
    q = QueuePair(WeibullShifted(1.0, 0.6), Exponential(3.0))
    assert q.support[0] == -math.inf
    hz = usable_tail_horizon(q)
    assert 1e4 < hz < 1e5
    assert float(q.log_tail(hz)) >= math.log(1e-290)
    assert float(q.log_tail(hz * (1.0 + 8.0 * np.spacing(1.0)))) < math.log(1e-290)


def test_long_tailed_grid_truncated_at_underflow(chains):
    # a caller-supplied grid deeper than the usable horizon gets clipped
    base = chains["g2"].base
    rep = long_tailed_profile(base, x_grid=np.geomspace(1.0, 1e9, 50))
    assert rep.notes
    assert rep.usable_hi < 1e9
