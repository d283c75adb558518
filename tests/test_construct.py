import json
import math

import numpy as np
import pytest
from scipy import integrate

from ladderlab import (
    BernoulliPM1,
    Constant,
    ConstructionError,
    Exponential,
    MajorantIncrement,
    Pareto,
    QueuePair,
    ShiftedTail,
    UndeterminedError,
    WeibullShifted,
    build_chain,
    certify,
    fit_majorant_coefficient,
    make_growth,
    splice,
    splice_at,
    truncate_below,
)
from ladderlab import LognormalShifted, SplicedTail, TailError, construct, growth, tails
from ladderlab.tails import integrals_above
from ladderlab.config import jsonify

from conftest import CHAIN_SPECS
from oracles import exp_growth_moment, lognormal_log_tail_mp, majorant_log_tail_mp, spliced_mean, weibull_log_tail_mp


@pytest.fixture(scope="module")
def g2():
    g = make_growth({"family": "g2", "param": 0.5})
    return g, certify(g)


# -- majorant coefficient -----------------------------------------------------


def test_fit_all_mass_negative_gives_floor(g2):
    g, _ = g2
    # g2(1) = 1, so with x0 = 1 the floor exp(g(x0)) = e binds: the transformed
    # variable is constant one and the product sup is exactly one.
    fit = fit_majorant_coefficient(Constant(-1.0), g, x0=1.0)
    assert fit.K == pytest.approx(math.e, rel=1e-5)
    assert fit.product_sup == pytest.approx(1.0, rel=1e-9)


def test_fit_bernoulli_two_point(g2):
    g, report = g2
    b = BernoulliPM1(0.25)
    fit = fit_majorant_coefficient(b, g, x0=report.x0)
    # atom candidates: s -> 1- gives product 1; the +1 atom gives e * 0.25 < 1
    assert fit.product_sup == pytest.approx(1.0, rel=1e-9)
    assert fit.K == pytest.approx(max(math.exp(float(g(report.x0))), 1.0) * (1 + 1e-6), rel=1e-9)
    # direct re-check of the fitted bound on a grid of the transformed tail
    s = np.geomspace(1e-3, 50.0, 4000)
    trans_tail = b.tail(g.inverse(np.log(np.maximum(s, 1e-300))))
    trans_tail = np.where(s < 1.0, 1.0, trans_tail)  # the variable is >= 1
    assert np.all(s * trans_tail <= fit.K * (1 + 1e-12))


def test_fit_majorant_dominates_base_tail_everywhere(g2, chains):
    # the bound that makes the dominance coupling exact: K e^{-g(x)} >= tail(x)
    for key, chain in chains.items():
        xs = np.geomspace(1e-6, 0.99 * 4.0e5, 4000) - 5.0
        hat_log = chain.hat.log_tail(xs)
        base_log = chain.base.log_tail(xs)
        mask = base_log > math.log(1e-290)
        assert np.all(hat_log[mask] >= base_log[mask] - 1e-12), key


def test_fit_matching_exponent_borderline(g2):
    g, report = g2
    # same Weibull exponent as the growth function: the exp-growth moment is
    # log-divergent, yet the tail-product limit is one, below the exp(g(x0))
    # floor, so a valid finite coefficient still exists
    base = WeibullShifted(1.0, 0.5, -3.0)
    fit = fit_majorant_coefficient(base, g, x0=report.x0)
    assert fit.exp_growth_moment is None  # quadrature correctly refuses to converge
    assert fit.K == pytest.approx(math.exp(float(g(report.x0))), rel=1e-5)
    # the fitted bound holds algebraically: tail((log s)^2) = e^{-sqrt(.+3)} <= 1/s
    t = np.linspace(0.0, 600.0, 20_000)
    log_products = t + base.log_tail(g.inverse(t))
    assert np.all(log_products <= math.log(fit.K))


def test_fit_undetermined_for_heavier_tail(g2):
    g, report = g2
    # tail strictly heavier than exp(-g): the product grows without bound and
    # no finite coefficient exists; the fit must refuse, not extrapolate
    base = WeibullShifted(1.0, 0.4, -3.0)
    with pytest.raises(ConstructionError):
        fit_majorant_coefficient(base, g, x0=report.x0)


def test_fit_undetermined_when_tail_never_underflows():
    # index 1e-3: the log-tail is still about -0.14 at x = 2**200, nowhere near the 1e-300 floor
    with pytest.raises(UndeterminedError, match="tail does not decay"):
        fit_majorant_coefficient(Pareto(1e-3, 1.0, -3.0), make_growth({"family": "g1", "param": 2.0}), 1.0)


# -- dominating increment ------------------------------------------------------


def test_majorant_tail_closed_form(g2):
    g, _ = g2
    hat = MajorantIncrement(g, 10.0)
    xs = np.geomspace(1e-3, 1e5, 10_000)
    expect = np.minimum(1.0, 10.0 * np.exp(-np.sqrt(xs)))
    got = hat.tail(xs)
    assert np.all(np.abs(got - expect) <= 1e-12 * np.maximum(expect, 1e-300))
    # the tail leaves one exactly where g(x) = log K
    assert hat.support[0] == pytest.approx(math.log(10.0) ** 2, rel=1e-12)
    assert float(hat.tail(math.log(10.0) ** 2 * 0.999)) == 1.0


def test_majorant_boundary_g1():
    g = make_growth({"family": "g1", "param": 2.0})
    hat = MajorantIncrement(g, math.e)
    assert float(hat.tail(math.e)) == pytest.approx(1.0, rel=1e-12)


def test_majorant_quantile_round_trip(g2):
    g, _ = g2
    hat = MajorantIncrement(g, 10.0)
    u = np.linspace(1e-6, 1 - 1e-6, 1000)
    q = hat.quantile(u)
    assert np.allclose(hat.tail(q), 1.0 - u, rtol=1e-9)


def test_majorant_requires_proper_coefficient(g2):
    g, _ = g2
    with pytest.raises(Exception):
        MajorantIncrement(g, 0.5)


# -- splice ---------------------------------------------------------------------


def test_splice_mean_formula_matches_quadrature(g2, chains):
    chain = chains["g2"]
    for v in [1.0, 5.0, 20.0]:
        _, spliced, mean_formula = splice_at(chain.base, chain.hat, v)
        assert mean_formula == pytest.approx(spliced.mean, rel=1e-7)


def _base_log_tail_mp(spec):
    if isinstance(spec, LognormalShifted):
        return lognormal_log_tail_mp(spec.mu, spec.sigma2, spec.shift)
    return weibull_log_tail_mp(spec.c, spec.beta, spec.shift)


@pytest.mark.parametrize("key", sorted(CHAIN_SPECS))
def test_splice_mean_at_v_matches_mpmath(chains, key):
    """The spliced mean at the chosen V against a 30-digit integral of the
    spliced tail, written from the family formulas."""
    chain = chains[key]
    family, param, _ = CHAIN_SPECS[key]
    _, _, mean = splice_at(chain.base, chain.hat, chain.V)
    log_tails = _base_log_tail_mp(chain.base), majorant_log_tail_mp(family, param, chain.K)
    expect = spliced_mean(*log_tails, chain.base.support[0], chain.V, chain.V_prime)
    assert mean == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("key", sorted(CHAIN_SPECS))
def test_exp_growth_moment_matches_mpmath(chains, key):
    """E exp(g(X)) of the base, integrated in t = g(x) by the library, against
    a 30-digit integral by parts in x."""
    family, param, _ = CHAIN_SPECS[key]
    expect = exp_growth_moment(family, param, _base_log_tail_mp(chains[key].base))
    assert chains[key].fit.exp_growth_moment == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("key", sorted(CHAIN_SPECS))
def test_splice_bits_do_not_depend_on_the_round(chains, key):
    """splice computes a round of levels together: the mean at the chosen V,
    and at every other level of its round for g1, is splice_at's alone."""
    chain = chains[key]
    levels, v = [], max(float(chain.base.tail_quantile(0.5)), 1e-6)
    while v <= construct._LEVEL_CAP:
        levels.append(v)
        v *= 1.25
    at = levels.index(chain.V)
    first = at - at % construct._SPLICE_ROUND
    round_levels = levels[first : first + construct._SPLICE_ROUND]
    batched = list(zip(*construct._splice_means(chain.base, chain.hat, round_levels)))
    checked = round_levels if key == "g1" else [chain.V]
    for v in checked:
        v_prime, _, mean = splice_at(chain.base, chain.hat, v)
        assert batched[round_levels.index(v)] == (v_prime, mean), v


@pytest.mark.parametrize("key", ["g1", "g3"])
def test_splice_reads_each_round_of_v_prime_in_one_quantile_call(chains, key, monkeypatch):
    """splice takes the V' of a round of `_SPLICE_ROUND` levels from one
    majorant `tail_quantile` call, not one call per level."""
    chain = chains[key]
    sizes = []
    quantile = MajorantIncrement.tail_quantile

    def counted(self, q):
        sizes.append(np.size(q))
        return quantile(self, q)

    monkeypatch.setattr(MajorantIncrement, "tail_quantile", counted)
    assert splice(chain.base, chain.hat, chain.delta)[:2] == (chain.V, chain.V_prime)
    at, v = 0, max(float(chain.base.tail_quantile(0.5)), 1e-6)
    while v != chain.V:
        at, v = at + 1, v * 1.25
    assert sizes == [construct._SPLICE_ROUND] * (at // construct._SPLICE_ROUND + 1)


def test_splice_raises_on_a_round_integral_that_did_not_converge(chains, monkeypatch):
    """The splice has the convergence policy of `tail_integral_above`: one
    integral of a round reported as not converged raises TailError."""
    chain = chains["g1"]
    assert chain.base.mean < 0  # cached before the patch: only the round's integrals see it
    integrate = tails.integrate

    def last_unconverged(jobs, **kwargs):
        values, converged = integrate(jobs, **kwargs)
        return values, converged[:-1] + [False]

    monkeypatch.setattr(tails, "integrate", last_unconverged)
    with pytest.raises(TailError, match="did not converge"):
        splice(chain.base, chain.hat, chain.delta)


def test_splice_passes_a_level_whose_mean_only_meets_the_target(chains):
    """The spliced mean must stay strictly below -a + delta, as `build_chain`
    then checks: a level whose mean equals the target is passed over."""
    chain = chains["g1"]
    a, mean_at_v = -chain.base.mean, splice_at(chain.base, chain.hat, chain.V)[2]
    near = mean_at_v + a
    delta = next(d for d in (np.nextafter(near, 0.0), near, np.nextafter(near, a)) if -a + d == mean_at_v)
    v, _, spliced = splice(chain.base, chain.hat, delta)
    assert v == chain.V * 1.25
    assert spliced.mean < -a + delta


def test_pos_mean_bits_do_not_depend_on_the_batch(chains):
    """pos_mean of a fresh base, majorant and spliced tail equals its value
    from one `integrals_above` call over all three and more levels."""
    for key, (_, _, base_factory) in CHAIN_SPECS.items():
        chain = chains[key]

        def fresh():
            base = base_factory()
            hat = MajorantIncrement(chain.g, chain.K)
            return base, hat, SplicedTail(base, hat, chain.V, chain.V_prime)

        specs = fresh()
        values = integrals_above([(spec, 0.0) for spec in specs] + [(specs[0], 3.0), (specs[1], 40.0)])
        assert [spec.pos_mean for spec in fresh()] == values[:3], key


def test_splice_targets_mean(chains):
    for key, chain in chains.items():
        target = -chain.a + chain.delta
        assert chain.a_tilde > -target or chain.tilde.mean < target
        margin = target - chain.tilde.mean
        assert margin > 0, key


def test_splice_minimal_crossover(chains):
    # V' is the smallest level where the majorant tail drops under tail(V)
    for key, chain in chains.items():
        q_v = float(chain.base.tail(chain.V))
        assert float(chain.hat.tail(chain.V_prime)) <= q_v * (1 + 1e-9)
        assert float(chain.hat.tail(chain.V_prime * (1 - 1e-6))) >= q_v * (1 - 1e-9)


def test_splice_tail_sandwich_and_monotone(chains):
    rngen = np.random.default_rng(11)
    for key, chain in chains.items():
        xs = np.sort(rngen.uniform(-5.0, 2000.0, size=10_000))
        tb = chain.base.tail(xs)
        tt = chain.tilde.tail(xs)
        th = chain.hat.tail(xs)
        assert np.all(tb <= tt * (1 + 1e-12) + 1e-300), key
        assert np.all(tt <= th * (1 + 1e-12)), key
        assert np.all(np.diff(tt) <= 1e-15), key


def test_splice_mean_monotone_toward_base(chains):
    chain = chains["g2"]
    vs = [1.0, 2.0, 5.0, 15.0, 60.0, 200.0]
    means = [splice_at(chain.base, chain.hat, v)[2] for v in vs]
    assert all(b <= a + 1e-12 for a, b in zip(means[:-1], means[1:]))
    assert means[-1] == pytest.approx(chain.base.mean, abs=1e-6)


def test_splice_at_keeps_v_prime_at_least_v_under_a_lighter_majorant(g2):
    """Where the majorant's tail lies below the base's at V, its quantile at
    tail(V) falls below V. V' is then V, the flat stretch is empty, and the
    mean still matches the spliced tail's own quadrature."""
    g, _ = g2
    base, hat = Exponential(100.0), MajorantIncrement(g, 1.0)
    assert float(hat.tail_quantile(float(base.tail(100.0)))) < 100.0
    v_prime, spliced, mean = splice_at(base, hat, 100.0)
    assert v_prime == 100.0
    assert mean == pytest.approx(spliced.mean, rel=1e-12)


def test_splice_degenerate_nonpositive_base(g2):
    g, report = g2
    fit = fit_majorant_coefficient(Constant(-1.0), g, x0=1.0)
    hat = MajorantIncrement(g, fit.K)
    v, v_prime, spliced = splice(Constant(-1.0), hat, delta=0.5)
    assert math.isinf(v_prime)
    assert spliced.mean == pytest.approx(-1.0)
    xs = np.linspace(-3.0, 10.0, 100)
    assert np.allclose(spliced.tail(xs), Constant(-1.0).tail(xs))


def test_splice_delta_range(chains):
    chain = chains["g2"]
    with pytest.raises(ConstructionError):
        splice(chain.base, chain.hat, delta=2.0)  # delta >= a
    with pytest.raises(ConstructionError):
        splice(chain.base, chain.hat, delta=0.0)


# -- truncation -------------------------------------------------------------------


def test_truncate_bounded_base_unchanged():
    b = BernoulliPM1(0.25)
    level, trunc = truncate_below(b, target_mean_margin=0.1)
    assert level == 1.0
    assert trunc.mean == pytest.approx(-0.5)
    xs = np.linspace(-3.0, 3.0, 50)
    assert np.allclose(trunc.tail(xs), b.tail(xs))


def test_truncate_unbounded_exponential_left_tail():
    base = QueuePair(Exponential(1.0), Exponential(2.0))  # mean -1, unbounded below
    assert base.support[0] == -math.inf
    level, trunc = truncate_below(base, target_mean_margin=0.05)
    assert trunc.mean == pytest.approx(base.mean, abs=0.05)
    assert trunc.mean >= base.mean
    # atom at the truncation floor carries the removed lower-tail mass
    atom = dict(trunc.atoms)[-level]
    assert atom == pytest.approx(1.0 - float(base.tail(-level)), rel=1e-9)
    # tail unchanged above the floor, one below it
    assert float(trunc.tail(-level + 0.1)) == pytest.approx(float(base.tail(-level + 0.1)))
    assert float(trunc.tail(-level - 0.1)) == 1.0
    # removed mass integral shrinks to zero as the level grows;
    # left tail of the pair decays like 2 exp(-L/2), so the removed-mass
    # integral must track that scale
    gains = [base.mass_integral_below(-l) for l in [1.0, 2.0, 4.0, 8.0, 16.0, 32.0]]
    assert all(b < a for a, b in zip(gains[:-1], gains[1:]))
    assert gains[-1] < 3.0 * math.exp(-16.0)


def test_truncate_quantile_clamps():
    base = QueuePair(Exponential(1.0), Exponential(2.0))
    level, trunc = truncate_below(base, target_mean_margin=0.05)
    u = np.linspace(1e-6, 1 - 1e-6, 101)
    assert np.all(trunc.quantile(u) >= -level)
    assert np.all(trunc.quantile(u) >= base.quantile(u))


def test_truncate_margin_validation():
    base = QueuePair(Exponential(1.0), Exponential(2.0))
    with pytest.raises(ConstructionError):
        truncate_below(base, target_mean_margin=5.0)


def test_truncate_reports_failure_at_cap(monkeypatch):
    # the removed lower-tail mass integral at L = 1 is far above the margin, and L = 1.25 passes the cap
    base = QueuePair(Exponential(1.0), Exponential(2.0))
    monkeypatch.setattr(construct, "_LEVEL_CAP", 1.0)
    with pytest.raises(ConstructionError, match="exceeded its cap"):
        truncate_below(base, 0.05)


# -- full chain --------------------------------------------------------------------


def test_chain_constants_consistent(chains):
    for key, chain in chains.items():
        assert chain.K >= math.exp(float(chain.g(chain.report.x0)))
        assert chain.V_prime >= chain.V
        assert chain.a == pytest.approx(1.0, rel=1e-6)
        assert 0.0 < chain.delta < chain.a
        assert chain.tilde.mean < -chain.a + chain.delta
        assert chain.trunc.mean < 0
        # compensated drift stays negative with the recorded margin
        assert chain.a_trunc > chain.shift
        psi = ShiftedTail(chain.trunc, chain.shift)  # the compensated increment
        assert psi.mean == pytest.approx(-(chain.a_trunc - chain.shift), rel=1e-9)


def test_truncation_at_the_support_keeps_the_spliced_mean(chains):
    """L is the spliced tail's lower support end on these chains, so the
    truncation changes nothing and integrates over the same pieces, split at
    the splice kinks V and V'."""
    for key, chain in chains.items():
        assert -chain.L == chain.tilde.support[0], key
        assert chain.a_trunc == chain.a_tilde, key
        assert {chain.V, chain.V_prime} <= set(chain.trunc._breakpoints()), key


def test_chain_mean_quadrature_cross_check(chains):
    # independent re-integration of the spliced tail (module-external oracle)
    chain = chains["g2"]
    spliced = chain.tilde
    lo = spliced.support[0]
    pos, _ = integrate.quad(lambda x: float(spliced.tail(x)), 0, np.inf, limit=500)
    neg, _ = integrate.quad(lambda x: 1.0 - float(spliced.tail(x)), lo, 0, limit=500)
    assert pos - neg == pytest.approx(spliced.mean, rel=1e-7)


def test_chain_serializes_to_json(chains):
    payload = json.dumps(jsonify(chains["g2"].to_dict()))
    decoded = json.loads(payload)
    for key in ["K", "V", "V_prime", "L", "delta", "a", "a_tilde"]:
        assert key in decoded


def test_chain_requires_certification(chains, monkeypatch):
    monkeypatch.setattr(growth, "GAMMA_CANDIDATES", ())
    bad_report = certify(make_growth({"family": "g2", "param": 0.5}))  # no candidate passes
    assert not bad_report.all_ok
    with pytest.raises(ConstructionError):
        build_chain(chains["g2"].base, chains["g2"].g, bad_report)


def test_chain_requires_negative_mean(g2):
    g, report = g2
    with pytest.raises(ConstructionError):
        build_chain(Exponential(1.0), g, report)


def test_quantile_round_trip_constructed(chains):
    # generalized-inverse consistency on every construction stage, dense grid
    rngen = np.random.default_rng(21)
    u = rngen.uniform(1e-9, 1 - 1e-9, size=10_000)
    for key, chain in chains.items():
        for spec in (chain.tilde, chain.trunc, chain.hat):
            q = spec.quantile(u)
            assert np.all(spec.tail(q) <= (1.0 - u) * (1 + 1e-9) + 1e-15), key
            left = spec.tail(np.nextafter(q, -np.inf))
            assert np.all(left >= (1.0 - u) * (1 - 1e-9)), key


def test_splice_reports_failure_at_cap(chains, monkeypatch):
    chain = chains["g2"]
    monkeypatch.setattr(construct, "_LEVEL_CAP", 2.0)
    with pytest.raises(ConstructionError):
        splice(chain.base, chain.hat, delta=1e-6)
