import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from ladderlab import (
    BernoulliPM1,
    ConfigError,
    Constant,
    Exponential,
    LognormalShifted,
    MajorantIncrement,
    Pareto,
    QueuePair,
    ShiftedTail,
    SplicedTail,
    TailError,
    TruncatedBelow,
    WeibullShifted,
    make_builtin_dist,
    make_growth,
)
from ladderlab import tails

from conftest import CHAIN_SPECS
from oracles import lognormal_pos_mean, mean_from_tail, pareto_log_tail_mp, weibull_log_tail_mp


def test_family_parameter_validation():
    with pytest.raises(TailError):
        WeibullShifted(0.0, 0.5)
    with pytest.raises(TailError):
        WeibullShifted(1.0, 1.5)
    with pytest.raises(TailError):
        Pareto(-1.0, 1.0)
    with pytest.raises(TailError):
        BernoulliPM1(1.5)
    with pytest.raises(TailError):
        Exponential(0.0)
    with pytest.raises(ConfigError):
        make_builtin_dist({"family": "nope"})


def test_bernoulli_mean_and_quantiles():
    b = BernoulliPM1(0.25)
    assert b.mean == pytest.approx(-0.5)
    assert b.pos_mean == pytest.approx(0.25)
    assert float(b.quantile(0.9)) == 1.0
    assert float(b.quantile(0.1)) == -1.0
    assert float(b.tail(-1.5)) == 1.0
    assert float(b.tail(-1.0)) == 0.25
    assert float(b.tail(0.99)) == 0.25
    assert float(b.tail(1.0)) == 0.0
    assert b.atoms == [(-1.0, 0.75), (1.0, 0.25)]


def test_queue_pair_mean_and_tail():
    qp = make_builtin_dist(
        {"family": "queue_pair", "sigma": {"family": "exponential", "mean": 1.0},
         "t": {"family": "constant", "value": 2.0}}
    )
    assert qp.mean == pytest.approx(-1.0)
    assert float(qp.tail(0.0)) == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert float(qp.tail(-2.0)) == pytest.approx(1.0)
    assert qp.pos_mean == pytest.approx(math.exp(-2.0), rel=1e-9)
    # sampling consumes the uniform pair: service from slot 0, interarrival from slot 1
    pair = QueuePair(Exponential(1.0), Exponential(2.0))
    assert float(pair.increment_from_uniforms(0.5, 0.25)) == pytest.approx(math.log(2.0) - 2.0 * math.log(4.0 / 3.0))


def test_queue_pair_continuous_interarrival_tail():
    # sigma, t both exponential mean 1: P{sigma - t > x} = exp(-x)/2 for x >= 0
    qp = QueuePair(Exponential(1.0), Exponential(1.0))
    for x in [0.0, 0.5, 1.0, 3.0]:
        assert float(qp.tail(x)) == pytest.approx(0.5 * math.exp(-x), rel=1e-8)


def test_queue_pair_continuous_log_tail_survives_underflow():
    """P{sigma - t > x} = exp(-x)/3 for x >= 0 with sigma ~ Exp(1) and t ~
    Exp(mean 2); the log-tail is a log-sum-exp over the interarrival nodes,
    finite where the tail itself underflows (x >= 745)."""
    x = np.array([0.0, 5.0, 50.0, 700.0, 800.0, 1e4])
    got = QueuePair(Exponential(1.0), Exponential(2.0)).log_tail(x)
    np.testing.assert_allclose(got, -x - math.log(3.0), rtol=1e-13, atol=0.0)


def test_queue_pair_atomic_sums_keep_the_loop_order():
    """Below 8 atoms, the mixture's row sum and log-sum-exp add the atoms in
    their order, with the bits of a loop over them."""
    spec = FAMILIES["queue_atoms"]
    x = np.linspace(-6.0, 12.0, 181)
    loop = np.zeros_like(x)
    for loc, mass in spec.t.atoms:
        loop += mass * spec.sigma.tail(x + loc)
    assert spec.tail(x).tobytes() == loop.tobytes()
    log_loop = np.logaddexp.reduce([math.log(mass) + spec.sigma.log_tail(x + loc) for loc, mass in spec.t.atoms])
    assert spec.log_tail(x).tobytes() == log_loop.tobytes()


def test_atomic_queue_pair_builds_without_gauss_legendre_nodes(monkeypatch):
    """The Gauss-Legendre nodes serve only a continuous interarrival: an
    atomic one builds and evaluates with `leggauss` unavailable."""

    def refuse(n):
        raise AssertionError("leggauss called")

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
    qp = QueuePair(Exponential(1.0), Constant(2.0))
    assert float(qp.tail(0.0)) == pytest.approx(math.exp(-2.0), rel=1e-12)
    with pytest.raises(AssertionError, match="leggauss called"):
        QueuePair(Exponential(1.0), Exponential(2.0))


def test_integrals_above_raises_on_a_non_integrable_tail():
    """`integrals_above` checks convergence itself: the tail of Pareto(0.5)
    is not integrable, so it raises rather than returning a value."""
    with pytest.raises(TailError, match="did not converge"):
        tails.integrals_above([(Pareto(0.5, 1.0), 1.0)])


def test_queue_pair_rejects_negative_support():
    with pytest.raises(TailError):
        QueuePair(Constant(-1.0), Exponential(1.0))


def test_weibull_pos_mean_closed_form():
    w = WeibullShifted(1.0, 0.5, 0.0)
    # integral of exp(-sqrt(y)) over (0, inf) is Gamma(3) = 2
    assert w.pos_mean == pytest.approx(2.0, rel=1e-6)
    assert float(w.quantile(1.0 - math.exp(-1.0))) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize(
    "spec,closed_form",
    [
        (WeibullShifted(1.0, 0.5, -3.0), -3.0 + special.gamma(3.0)),
        (WeibullShifted(1.0, 0.6, -2.0), -2.0 + special.gamma(1 + 1 / 0.6)),
        (LognormalShifted(0.0, 0.25, -2.0), -2.0 + math.exp(0.125)),
        (Pareto(2.0, 1.0, -3.0), -3.0 + 2.0),
        (Exponential(1.5), 1.5),
    ],
)
def test_mean_quadrature_matches_closed_form(spec, closed_form):
    assert spec.mean == pytest.approx(closed_form, rel=1e-6)


def test_weibull_subprobability_atom():
    w = WeibullShifted(0.5, 0.5, 1.0)
    assert w.atoms == [(1.0, 0.5)]
    assert float(w.tail(0.99)) == 1.0
    assert float(w.tail(1.0)) == 0.5
    # atom mass: mean = shift + c * Gamma(1 + 1/beta)
    assert w.mean == pytest.approx(1.0 + 0.5 * special.gamma(3.0), rel=1e-6)
    assert float(w.quantile(1 - 0.7)) == 1.0  # inside the atom


def test_means_are_cached(monkeypatch):
    """The first .mean integrates; later .mean and .pos_mean reads reuse its floats."""
    calls = []
    integrate = tails.integrate

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(tails, "integrate", counted)  # every tail and CDF integral
    p = Pareto(2.0, 1.0, -3.0)
    mean = p.mean
    assert calls
    made = len(calls)
    pos_mean = p.pos_mean
    assert p.mean is mean and p.pos_mean is pos_mean
    assert len(calls) == made
    assert mean == pytest.approx(-1.0, rel=1e-9)  # shift + index * scale / (index - 1)
    assert pos_mean == pytest.approx(1.0 / 3.0, rel=1e-9)  # integral of (x + 3)^-2 over (0, inf)
    # the overrides keep their values: a shifted tail adds its offset to the
    # base's cached mean, and atoms sum without quadrature
    assert ShiftedTail(p, 0.5).mean == mean + 0.5
    assert len(calls) == made
    b = BernoulliPM1(0.25)
    assert (b.mean, b.pos_mean) == (-0.5, 0.25)
    assert len(calls) == made


def test_shifted_tail():
    s = ShiftedTail(Pareto(2.0, 1.0), -3.0)
    assert s.mean == pytest.approx(-1.0, rel=1e-9)
    assert float(s.tail(0.0)) == pytest.approx(float(Pareto(2.0, 1.0).tail(3.0)))
    assert float(s.quantile(0.5)) == pytest.approx(float(Pareto(2.0, 1.0).quantile(0.5)) - 3.0)


@pytest.mark.parametrize(
    "base, level",
    [
        (BernoulliPM1(0.25), 1.0),
        (Constant(-1.0), 1.0),
        (WeibullShifted(0.5, 0.5), 0.0),
        (QueuePair(Exponential(1.0), Exponential(2.0)), 3.0),
    ],
)
def test_truncation_floor_atom_is_the_mass_at_or_below_the_floor(base, level):
    """The atom at -L is P{X <= -L}, which already holds an atom of X at -L."""
    trunc = TruncatedBelow(base, level)
    assert dict(trunc.atoms)[-level] == 1.0 - float(base.tail(-level))
    if sum(m for _, m in base.atoms) == 1.0:  # atomic: the truncation's atoms hold all its mass
        assert sum(m for _, m in trunc.atoms) == pytest.approx(1.0, rel=1e-15)


@pytest.mark.parametrize("key", sorted(CHAIN_SPECS))
def test_shifted_tail_keeps_its_base_kinks(chains, key):
    """A shifted spliced tail splits its integrals at V + shift and V' + shift,
    so its positive mean is the spliced tail's integral above -shift."""
    chain = chains[key]
    psi = ShiftedTail(chain.tilde, chain.shift)
    assert {chain.V + chain.shift, chain.V_prime + chain.shift} <= set(psi._breakpoints())
    expect = chain.tilde.tail_integral_above(-chain.shift)
    assert abs(psi.pos_mean - expect) <= 4 * math.ulp(expect)


def test_tail_monotone_on_random_grid():
    rngen = np.random.default_rng(3)
    xs = np.sort(rngen.uniform(-10, 500, size=10_000))
    for spec in [
        WeibullShifted(1.0, 0.6, -2.5),
        LognormalShifted(0.0, 0.25, -2.1),
        Pareto(2.0, 1.0, -3.0),
        BernoulliPM1(0.25),
        Exponential(2.0),
    ]:
        t = spec.tail(xs)
        assert np.all(np.diff(t) <= 1e-15)
        assert np.all((t >= 0.0) & (t <= 1.0))


def test_log_tail_consistency():
    xs = np.linspace(-5.0, 50.0, 200)
    for spec in [WeibullShifted(1.0, 0.6, -2.5), Pareto(2.0, 1.0), Exponential(1.0)]:
        t = spec.tail(xs)
        lt = spec.log_tail(xs)
        mask = t > 0
        assert np.allclose(np.log(t[mask]), lt[mask], atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(u=st.floats(min_value=1e-12, max_value=1.0 - 1e-12))
def test_quantile_tail_round_trip(u):
    # generalized-inverse consistency: tail(q(u)) <= 1-u <= tail(q(u)-).
    # Near a support edge the true quantile may fall between adjacent floats,
    # so the right inequality must hold at the returned point or one ulp up.
    for spec in [
        WeibullShifted(1.0, 0.6, -2.5),
        Pareto(2.0, 1.0, -3.0),
        BernoulliPM1(0.25),
        Exponential(1.0),
    ]:
        target = (1.0 - u) * (1 + 1e-12)
        q = float(spec.quantile(u))
        ok_here = float(spec.tail(q)) <= target
        ok_ulp = float(spec.tail(np.nextafter(q, np.inf))) <= target
        assert ok_here or ok_ulp
        left = float(spec.tail(np.nextafter(q, -np.inf)))
        assert left >= (1.0 - u) * (1 - 1e-12)


def test_lognormal_matches_scipy_stats_bit_for_bit():
    # the scipy.special calls must give exactly what scipy.stats.norm gave
    from scipy import stats

    spec = LognormalShifted(0.3, 0.25, -2.1)
    x = np.concatenate([[-3.0, -2.1, np.nextafter(-2.1, 0.0)], np.geomspace(1e-12, 1e300, 4000) - 2.1])
    z = (np.log(np.maximum(x + 2.1, 1e-300)) - 0.3) / 0.5
    above = x > -2.1
    assert np.array_equal(spec.tail(x)[above], stats.norm.sf(z)[above])
    assert np.array_equal(spec.log_tail(x)[above], stats.norm.logsf(z)[above])
    q = np.concatenate([np.geomspace(1e-300, 0.5, 2000), 1.0 - np.geomspace(1e-16, 0.5, 2000)])
    expect = -2.1 + np.exp(0.3 + 0.5 * stats.norm.isf(q))
    assert np.array_equal(spec.tail_quantile(q), expect)


def test_quantile_rejects_boundary():
    w = WeibullShifted(1.0, 0.5, 0.0)
    for bad in [0.0, 1.0, -0.5, 2.0]:
        with pytest.raises(ValueError):
            w.quantile(bad)


def test_sample_increment_coupling():
    light, heavy = Exponential(1.0), Exponential(2.0)
    for u in [0.05, 0.5, 0.99]:
        assert float(light.quantile(u)) <= float(heavy.quantile(u))
    assert float(BernoulliPM1(0.25).quantile(0.9)) == 1.0
    assert float(BernoulliPM1(0.25).quantile(0.1)) == -1.0


def test_generic_bisection_quantile_on_queue_pair():
    qp = QueuePair(Exponential(1.0), Constant(2.0))
    u = np.array([0.2, 0.5, 0.9])
    q = qp.quantile(u)
    # closed form: quantile of exp(1) shifted by -2
    expect = -np.log(1.0 - u) - 2.0
    assert np.allclose(q, expect, atol=1e-9)


@pytest.mark.parametrize("mean", [0.5, 1.0, 1.5, 2.0, 3.0])
def test_exponential_mean_is_its_parameter(mean):
    """Exponential stores its parameter as `mean`, the closed form; the
    quadrature of TailSpec.mean lands within one ulp of it."""
    spec = Exponential(mean)
    assert spec.mean == mean and spec.spec_dict() == {"family": "exponential", "mean": mean}
    assert abs(spec.pos_mean - spec.mass_integral_below(0.0) - mean) <= math.ulp(mean)


def test_spec_dict_round_trip():
    for spec in [
        WeibullShifted(1.0, 0.6, -2.5),
        LognormalShifted(0.0, 0.25, -2.1),
        Pareto(2.0, 1.0, -3.0),
        BernoulliPM1(0.25),
        Constant(-1.0),
        Exponential(2.0),
        QueuePair(Exponential(1.0), Constant(2.0)),
    ]:
        rebuilt = make_builtin_dist(spec.spec_dict())
        assert rebuilt.spec_dict() == spec.spec_dict()
        xs = np.linspace(-4.0, 10.0, 50)
        assert np.allclose(rebuilt.tail(xs), spec.tail(xs), atol=1e-12)


# -- integrand bits that do not depend on the batch -------------------------------

FAMILIES = {
    "weibull": WeibullShifted(1.0, 0.6, -2.5045754882515565),
    "weibull_atom": WeibullShifted(0.5, 0.3, 1.0),
    "weibull_c_above_one": WeibullShifted(2.0, 0.8, -1.0),
    "lognormal": LognormalShifted(0.0, 0.25, -2.1331484530668263),
    "lognormal_tiny_shift": LognormalShifted(-1.0, 2.0, 1e-290),
    "pareto": Pareto(2.0, 1.0, -3.0),
    "pareto_one": Pareto(1.0, 2.0, 0.5),
    "exponential": Exponential(1.5),
    "bernoulli": BernoulliPM1(0.25),
    "constant": Constant(-1.0),
    "queue_atomic": QueuePair(Exponential(1.0), Constant(2.0)),
    # three atoms, so the order of the sum over them shows in its bits
    "queue_atoms": QueuePair(WeibullShifted(1.0, 0.6), tails._AtomicTail([(0.5, 0.25), (1.25, 0.35), (2.0, 0.4)])),
    "queue_continuous": QueuePair(Exponential(1.0), Exponential(2.0)),
}
GROWTH = {**{name: make_growth({"family": name[:2], "param": param}) for name, param in
             [("g1", 2.0), ("g1_frac", 1.7), ("g2", 0.5), ("g2_frac", 0.6), ("g3", 0.5), ("g3_frac", 0.3)]},
          "table": make_growth({"family": "table", "points": [[0.5, 0.1], [2.0, 0.7], [30.0, 3.0], [1e3, 6.5]]}),
          "table_flat_first": make_growth({"family": "table", "points": [[0.5, 0.0], [3.0, 0.0], [10.0, 2.0], [80.0, 5.0]]}),
          "table_negative_x": make_growth({"family": "table", "points": [[-0.75, 0.0], [-0.25, 0.4], [4.0, 2.5], [60.0, 7.0]]}),
          # a bracket far below zero, where the stop rule takes the ulp of a negative hi
          "table_far_negative_x": make_growth({"family": "table", "points": [[-5e3, 0.0], [-4e3, 1.0], [0.0, 2.0], [1e2, 4.0]]})}
SPECIAL_X = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1.0, -1.0, 1e300, -1e300,
             math.inf, -math.inf, math.nan]
# 4e4 points over the bodies and far into the tails
DENSE_X = np.concatenate([np.linspace(-12.0, 80.0, 20_001), np.geomspace(1e-6, 1e12, 20_001)]).tolist()


def _bits(value):
    return struct.pack("<d", float(value))


def _outcome(fn, x):
    with np.errstate(all="ignore"):
        try:
            return _bits(fn(x))
        except Exception as exc:  # both paths must fail the same way
            return type(exc)


def _constructed(chains):
    out = {}
    for key, chain in chains.items():
        out[f"{key}_hat"] = chain.hat
        out[f"{key}_tilde"] = chain.tilde
        out[f"{key}_trunc"] = chain.trunc
        out[f"{key}_psi"] = ShiftedTail(chain.trunc, chain.shift)
    lognormal, weibull = FAMILIES["lognormal"], FAMILIES["weibull"]
    hat = MajorantIncrement(make_growth({"family": "g2", "param": 0.5}), 1.5)
    out["spliced_flat_to_inf"] = SplicedTail(weibull, hat, 4.0, math.inf)
    out["truncated_lognormal"] = TruncatedBelow(lognormal, 1.0)
    out["shifted_truncated"] = ShiftedTail(TruncatedBelow(FAMILIES["exponential"], 0.5), -0.75)
    return out


def _edges(spec):
    """Support ends, atoms, splice levels and shifts, each with its neighbouring floats."""
    pts = {*spec.support, *spec._breakpoints(), getattr(spec, "shift", 0.0)}
    pts = [float(p) for p in pts if math.isfinite(p)]
    return [q for p in pts for q in (np.nextafter(p, -math.inf), p, np.nextafter(p, math.inf))]


def _same_bits(got, want):
    return np.array_equal(np.asarray(got, dtype=float).view(np.int64), np.asarray(want, dtype=float).view(np.int64))


def _assert_batch_free(fn, xs, small=2100):
    """fn on all of xs at once, shuffled, and in slices of 1, 2, 7 and 21
    points (the first `small` points for the shorter slices) gives each point
    the same bits: the quadrature kernel evaluates an integral's nodes
    together with those of the other integrals of its call."""
    xs = np.asarray(xs, dtype=float)
    with np.errstate(all="ignore"):
        whole = np.asarray(fn(xs), dtype=float)
        perm = np.random.default_rng(0).permutation(xs.size)
        assert _same_bits(fn(xs[perm]), whole[perm]), "shuffled"
        for size in (1, 2, 7, 21):
            part = xs if size == 21 else xs[:small]
            pieces = np.concatenate([fn(part[i : i + size]) for i in range(0, part.size, size)])
            assert _same_bits(pieces, whole[: part.size]), size


def _assert_tail_batch_free(spec, xs):
    _assert_batch_free(spec.tail, xs)
    _assert_batch_free(spec.log_tail, xs)


def _assert_growth_batch_free(g, ts):
    """g and its inverse.  The g3 and table inverses, a bracketed search per
    target, are checked on every 97th finite target below 1e3."""
    _assert_batch_free(g, ts)
    if g.family not in ("g1", "g2"):
        ts = np.asarray(ts, dtype=float)[::97]
        ts = ts[np.isfinite(ts) & (ts < 1e3)]
    _assert_batch_free(g.inverse, ts)


@settings(max_examples=150, deadline=None)
@given(x=st.one_of(st.floats(), st.floats(min_value=-20.0, max_value=200.0)))
def test_tail_bits_do_not_depend_on_the_batch(chains, x):
    specs = {**FAMILIES, **_constructed(chains)}
    for spec in specs.values():
        _assert_tail_batch_free(spec, SPECIAL_X + [x])


def test_means_are_the_half_line_integrals(chains):
    """pos_mean is the tail's integral over (0, inf) and mean subtracts the
    CDF's over (-inf, 0), bit for bit, wherever no closed form replaces them."""
    checked = 0
    for name, spec in {**FAMILIES, **_constructed(chains)}.items():  # pareto_one's integral raises
        if type(spec).pos_mean is tails.TailSpec.pos_mean:
            assert _outcome(lambda _: spec.pos_mean, 0.0) == _outcome(spec.tail_integral_above, 0.0), name
            checked += 1
        if type(spec).mean is tails.TailSpec.mean and not isinstance(spec, Exponential):
            definition = _outcome(lambda level: spec.pos_mean - spec.mass_integral_below(level), 0.0)
            assert _outcome(lambda _: spec.mean, 0.0) == definition, name
    assert checked == 26


def test_tail_bits_do_not_depend_on_the_batch_at_edges(chains):
    for spec in {**FAMILIES, **_constructed(chains)}.values():
        _assert_tail_batch_free(spec, SPECIAL_X + _edges(spec))


@pytest.mark.parametrize(
    "name", ["weibull", "weibull_atom", "lognormal", "pareto", "pareto_one", "exponential", "queue_continuous"]
)
def test_tail_bits_do_not_depend_on_the_batch_dense(name):
    # the continuous queue pair evaluates a plane of 256 service tails per point
    _assert_tail_batch_free(FAMILIES[name], DENSE_X[::10] if name == "queue_continuous" else DENSE_X)


@pytest.mark.parametrize("name", ["queue_atomic", "queue_atoms"])
def test_queue_pair_log_tail_is_the_log_sum_exp(name):
    """With an atomic interarrival the log-tail is the log-sum-exp of the
    service log-tails: the log of the tail where that is representable, and
    finite where the tail underflows; its bits do not depend on the batch."""
    spec = FAMILIES[name]
    xs = np.linspace(-3.0, 600.0, 4001)
    tail, log_tail = spec.tail(xs), spec.log_tail(xs)
    shown = tail > 1e-300
    np.testing.assert_allclose(log_tail[shown], np.log(tail[shown]), rtol=1e-15, atol=1e-15)
    deep = np.array([1e5, 1e8, 1e12])
    assert spec.tail(deep).tolist() == [0.0, 0.0, 0.0] and np.isfinite(spec.log_tail(deep)).all()
    if name == "queue_atomic":  # tail exp(-(x + 2))
        assert spec.log_tail(deep).tolist() == (-(deep + 2.0)).tolist()
    _assert_tail_batch_free(spec, DENSE_X[::20])


@settings(max_examples=150, deadline=None)
@given(t=st.one_of(st.floats(), st.floats(min_value=-2.0, max_value=60.0)))
def test_growth_bits_do_not_depend_on_the_batch(t):
    for g in GROWTH.values():
        _assert_growth_batch_free(g, SPECIAL_X + [t])


@pytest.mark.parametrize("name", sorted(GROWTH))
def test_growth_bits_do_not_depend_on_the_batch_dense(name):
    _assert_growth_batch_free(GROWTH[name], SPECIAL_X + DENSE_X)


def test_queue_pair_quantile_bits_do_not_depend_on_the_batch():
    """The generic tail quantile searches each level on its own bracket."""
    levels = np.concatenate([np.geomspace(1e-300, 0.5, 120), np.linspace(0.01, 0.99, 80), [0.0, 1e-320, 0.999999]])
    _assert_batch_free(FAMILIES["queue_continuous"].tail_quantile, levels)


def test_generic_quantile_stops_at_the_support():
    """Where 1 - u rounds to 1, the generic quantile is the support's lower end."""
    spec = FAMILIES["queue_atomic"]
    assert spec.support[0] == -2.0
    assert spec.quantile(np.array([1e-300, 1e-17, 0.5])).tolist()[:2] == [-2.0, -2.0]


# sha256 of the little-endian float64 bytes of QueuePair.tail on
# linspace(-6, 12, 181); the Gauss-Legendre sum's last bits depend on the
# numpy and scipy builds, so the digests hold for the versions they were
# recorded with
QUEUE_TAIL_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}
QUEUE_TAIL_DIGESTS = {
    "continuous": "9afbd5d3d6ba200822a56151b08933b99bf5d98dbf286e6cb1f02494de2a4d59",
    "atomic": "dc6205e3ade32c0866e967db371bb7c40ddb6b4bc82cadb9381046d992b6ffd6",
}


@pytest.mark.parametrize("kind", sorted(QUEUE_TAIL_DIGESTS))
def test_queue_pair_tail_values_pinned(kind, numeric_build):
    import hashlib

    import scipy

    found = {"numpy": np.__version__, "scipy": scipy.__version__}
    if found != QUEUE_TAIL_VERSIONS:
        pytest.skip(f"digests recorded with {QUEUE_TAIL_VERSIONS}, running {found}")
    t = Exponential(2.0) if kind == "continuous" else Constant(2.0)
    pair = QueuePair(Exponential(1.0), t)
    grid = np.linspace(-6.0, 12.0, 181)
    for _ in range(2):  # the second call sees the same constants as the first
        values = np.asarray(pair.tail(grid), dtype="<f8")
        assert hashlib.sha256(values.tobytes()).hexdigest() == QUEUE_TAIL_DIGESTS[kind], numeric_build


def test_lognormal_pos_mean_matches_mpmath():
    spec = LognormalShifted(0.0, 0.25, -2.1331484530668263)
    expect = lognormal_pos_mean(0.0, 0.25, -2.1331484530668263)
    assert spec.pos_mean == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize(
    "spec",
    [
        WeibullShifted(1.0, 0.6, -1.0 - special.gamma(1 + 1 / 0.6)),  # the g2 test base
        WeibullShifted(1.0, 0.8, -1.0 - special.gamma(1 + 1 / 0.8)),  # the g3 test base
        WeibullShifted(0.5, 0.3, 1.0),  # an atom of 1/2 at the shift
        Pareto(2.0, 1.0, -3.0),  # the pareto_ratio increments
        Pareto(3.0, 2.0, 0.5),
    ],
    ids=["weibull_g2", "weibull_g3", "weibull_atom", "pareto_ratio", "pareto_3"],
)
def test_weibull_and_pareto_means_match_mpmath(spec):
    """mean, the two half-line integrals, against E X = lo + int_lo^inf
    tail(x) dx by 30-digit mpmath, written from the family formula."""
    if isinstance(spec, Pareto):
        log_tail = pareto_log_tail_mp(spec.index, spec.scale, spec.shift)
    else:
        log_tail = weibull_log_tail_mp(spec.c, spec.beta, spec.shift)
    assert spec.mean == pytest.approx(mean_from_tail(log_tail, spec.support[0]), rel=1e-12)
