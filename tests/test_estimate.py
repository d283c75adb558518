import math
from dataclasses import replace

import numpy as np
import pytest

from ladderlab import (
    BernoulliPM1,
    Constant,
    WeibullShifted,
    dominance_suite,
    estimate_exp_moment,
    estimate_growth_moment,
    estimate_power_moment,
    finiteness_diagnostic,
    make_builtin,
    running_max_ratio_check,
    simulate_batch,
    wald_check,
)
from ladderlab.tails import Pareto
from ladderlab.walk import SampleBatch

from oracles import bernoulli_descent_moment

SEED = 77


@pytest.fixture(scope="module")
def g2():
    return make_builtin("g2", 0.5)


@pytest.fixture(scope="module")
def bern_batch():
    return simulate_batch(BernoulliPM1(0.25), seed=SEED, n_samples=200_000)


def _const_batch(n=100):
    return simulate_batch(Constant(-1.0), seed=1, n_samples=n)


# -- exact cases ----------------------------------------------------------------


def test_deterministic_growth_moment_exact(g2):
    batch = _const_batch()
    est = estimate_growth_moment(batch, g2, eps=0.25, delta=0.5, a=1.0)
    assert est.point == pytest.approx(math.exp(0.75 * math.sqrt(0.5)), rel=1e-15)
    assert est.std_error == 0.0
    assert est.verdict == "stable"


def test_deterministic_power_and_exp_exact():
    batch = _const_batch()
    assert estimate_power_moment(batch, 2.0).point == 1.0
    assert estimate_exp_moment(batch, 1.0).point == pytest.approx(math.e, rel=1e-15)


def test_growth_moment_eps_near_one_collapses(g2, bern_batch):
    est = estimate_growth_moment(bern_batch, g2, eps=1 - 1e-9, delta=0.25, a=0.5)
    assert est.point == pytest.approx(1.0, abs=1e-6)


def test_parameter_validation(g2, bern_batch):
    with pytest.raises(ValueError):
        estimate_growth_moment(bern_batch, g2, eps=0.0, delta=0.25, a=0.5)
    with pytest.raises(ValueError):
        estimate_growth_moment(bern_batch, g2, eps=0.5, delta=0.6, a=0.5)
    with pytest.raises(ValueError):
        estimate_power_moment(bern_batch, 0.0)
    with pytest.raises(ValueError):
        estimate_exp_moment(bern_batch, -1.0)
    with pytest.raises(ValueError):
        estimate_power_moment(bern_batch, math.inf)
    with pytest.raises(ValueError):
        estimate_exp_moment(bern_batch, math.inf)


def test_overflowed_estimate_is_not_stable():
    """exp(c tau) overflows to inf for one long epoch; the point is then no
    stable estimate, whatever the NaN top-1% share says."""
    batch = _const_batch(1000)
    tau = batch.tau.copy()
    tau[0] = 20_000
    with np.errstate(invalid="ignore"):  # the top-1% share is inf / inf
        est = estimate_exp_moment(replace(batch, tau=tau), 0.05)
    assert est.point == math.inf
    assert est.verdict == "heavy"


# -- enumeration oracles -----------------------------------------------------------


def test_growth_moment_matches_enumeration(g2, bern_batch):
    est = estimate_growth_moment(bern_batch, g2, eps=0.5, delta=0.25, a=0.5)
    oracle = bernoulli_descent_moment(0.25, lambda n: np.exp(0.5 * np.sqrt(0.25 * n)))
    assert abs(est.point - oracle) <= 4 * est.std_error


def test_power_moment_matches_enumeration(bern_batch):
    est = estimate_power_moment(bern_batch, 2.0)
    oracle = bernoulli_descent_moment(0.25, lambda n: n**2.0)
    assert abs(est.point - oracle) <= 4 * est.std_error


def test_mean_epoch_matches_overshoot_identity(bern_batch):
    est = estimate_power_moment(bern_batch, 1.0)
    assert abs(est.point - 1.5) <= 4 * est.std_error


def test_exp_moment_matches_enumeration(bern_batch):
    est = estimate_exp_moment(bern_batch, 0.05)
    oracle = bernoulli_descent_moment(0.25, lambda n: np.exp(0.05 * n))
    assert abs(est.point - oracle) <= 4 * est.std_error


# -- monotonicity -----------------------------------------------------------------------


def test_monotone_in_eps_and_delta(g2, bern_batch):
    base = estimate_growth_moment(bern_batch, g2, eps=0.3, delta=0.2, a=0.5)
    more_eps = estimate_growth_moment(bern_batch, g2, eps=0.5, delta=0.2, a=0.5)
    more_delta = estimate_growth_moment(bern_batch, g2, eps=0.3, delta=0.3, a=0.5)
    assert more_eps.point <= base.point
    assert more_delta.point <= base.point


# -- censoring accounting ---------------------------------------------------------------


def test_censored_lower_bound_flagged():
    batch = simulate_batch(BernoulliPM1(0.45), seed=3, n_samples=20_000, step_cap=3)
    est = estimate_power_moment(batch, 1.0)
    assert est.censored_n == batch.censored_n > 0
    assert est.verdict == "censored-dominated"
    assert est.censored_share > 0.01
    # censored excursions enter at the cap value (a lower bound), so the point
    # estimate is at least the uncensored-only mean
    uncens = batch.tau[~batch.censored].astype(float)
    assert est.point >= uncens.mean()


def test_all_censored_no_point_estimate():
    batch = SampleBatch(
        seed=0, step_cap=10, shift=0.0,
        stream_ids=np.arange(4), tau=np.full(4, 10, dtype=np.int64),
        s_tau=np.ones(4), m_tau=np.ones(4), psi_max=np.ones(4),
        censored=np.ones(4, dtype=bool),
    )
    est = estimate_power_moment(batch, 2.0)
    assert est.verdict == "censored-dominated"
    assert math.isnan(est.point)


def test_top_share_sane(bern_batch):
    est = estimate_power_moment(bern_batch, 1.0)
    assert 0.0 < est.top1_share < 0.2
    assert est.ci95[0] < est.point < est.ci95[1]


# -- dominance -------------------------------------------------------------------------


def test_dominance_zero_violations(chains):
    rep = dominance_suite(chains["g2"], n=100_000, seed=SEED)
    assert rep.ok and rep.n == 100_000


def test_dominance_equality_region(chains):
    # below the splice level the construction is the identity
    chain = chains["g2"]
    q_v = float(chain.base.tail(chain.V))
    u = np.linspace(1e-6, 1 - q_v - 1e-6, 1000)
    assert np.array_equal(chain.tilde.quantile(u), chain.base.quantile(u))


def test_dominance_reports_violation_on_broken_chain(chains):
    import dataclasses

    chain = chains["g2"]
    broken = dataclasses.replace(chain, tilde=chain.base, hat=chain.base)  # hat==base==tilde fine
    rep = dominance_suite(broken, n=1000, seed=1)
    assert rep.ok  # equal quantiles do not violate the weak ordering
    really_broken = dataclasses.replace(chain, hat=chain.base, tilde=chain.tilde)
    rep2 = dominance_suite(really_broken, n=100_000, seed=1)
    assert not rep2.ok  # spliced above its own majorant must be caught
    assert rep2.violations[0]["spliced"] > rep2.violations[0]["majorant"]


# -- consistency of means -----------------------------------------------------------------


def test_wald_passes_on_builtins(bern_batch):
    rep = wald_check(bern_batch, BernoulliPM1(0.25).mean)
    assert rep.ok and rep.sigmas <= 4.0


def test_wald_deterministic_zero_variance():
    rep = wald_check(_const_batch(), -1.0)
    assert rep.ok and rep.std_error == 0.0 and rep.mean_discrepancy == 0.0


def test_wald_catches_wrong_drift(bern_batch):
    rep = wald_check(bern_batch, -0.45)  # true mean is -0.5
    assert not rep.ok


# -- running-max ratio ---------------------------------------------------------------------


def test_ratio_check_pareto():
    psi = Pareto(2.0, 1.0, shift=-3.0)
    batch = simulate_batch(psi, seed=SEED, n_samples=500_000)
    rep = running_max_ratio_check(batch, psi)
    assert rep.ok, rep.to_dict()
    assert rep.largest_x is not None
    top = [r for r in rep.rows if r["x"] == rep.largest_x][0]
    assert top["exceedances"] >= 30
    assert top["ratio_lo"] <= rep.e_tau <= top["ratio_hi"]


def test_ratio_check_at_origin():
    batch = simulate_batch(BernoulliPM1(0.25), seed=SEED, n_samples=100_000)
    rep = running_max_ratio_check(batch, BernoulliPM1(0.25), x_grid=[0.0])
    row = rep.rows[0]
    # max exceeds zero iff the first step rises, so the ratio is about one
    assert row["ratio"] == pytest.approx(1.0, abs=0.05)


def test_ratio_check_degenerate_walk():
    batch = simulate_batch(Constant(-0.5), seed=1, n_samples=1000)
    rep = running_max_ratio_check(batch, Constant(-0.5), x_grid=[0.5, 1.0])
    assert not rep.ok  # the maximum never exceeds a positive level
    assert rep.rows == []


# -- stability heuristic ---------------------------------------------------------------------


def test_finiteness_stable_for_deterministic():
    ests = [estimate_power_moment(_const_batch(n), 2.0) for n in [100, 400, 1600, 6400]]
    rep = finiteness_diagnostic(ests)
    assert rep.verdict == "stable"


def test_finiteness_stable_for_bernoulli_power():
    sizes = [6_250, 25_000, 100_000, 400_000]
    batch = simulate_batch(BernoulliPM1(0.25), seed=SEED + 2, n_samples=sizes[-1])
    ests = [estimate_power_moment(batch.head(n), 2.0) for n in sizes]
    rep = finiteness_diagnostic(ests)
    assert rep.verdict == "stable"


def test_finiteness_flags_divergent_exp_moment():
    # exp(tau/2) on a Weibull-type walk has no finite mean; the diagnostic
    # should report heaviness (a single excursion carries the sum)
    from scipy import special

    base = WeibullShifted(1.0, 0.6, -1.0 - special.gamma(1 + 1 / 0.6))
    sizes = [4_000, 16_000, 64_000, 256_000]
    batch = simulate_batch(base, seed=SEED, n_samples=sizes[-1])
    ests = [estimate_exp_moment(batch.head(n), 0.5) for n in sizes]
    rep = finiteness_diagnostic(ests)
    assert rep.verdict == "heavy"
    assert rep.reasons


def test_finiteness_needs_four_increasing_points():
    ests = [estimate_power_moment(_const_batch(n), 1.0) for n in [100, 200, 400]]
    with pytest.raises(ValueError):
        finiteness_diagnostic(ests)
    bad = [estimate_power_moment(_const_batch(n), 1.0) for n in [100, 200, 200, 400]]
    with pytest.raises(ValueError):
        finiteness_diagnostic(bad)


@pytest.mark.parametrize(
    "spec_dict",
    [
        {"family": "bernoulli_pm1", "p": 0.25},
        {"family": "queue_pair", "sigma": {"family": "exponential", "mean": 1.0},
         "t": {"family": "constant", "value": 2.0}},
        {"family": "weibull_shifted", "c": 1.0, "beta": 0.6, "shift": -2.5045754882515565},
        {"family": "pareto", "index": 2.0, "scale": 1.0, "shift": -3.0},
    ],
)
def test_wald_all_builtin_negative_drift(spec_dict):
    from ladderlab import make_builtin_dist

    spec = make_builtin_dist(spec_dict)
    batch = simulate_batch(spec, seed=SEED + 5, n_samples=50_000)
    assert batch.censored_n == 0
    rep = wald_check(batch, spec.mean)
    assert rep.ok, rep.to_dict()


def test_dominance_at_extreme_uniforms(chains):
    u = np.array([1e-12, 1e-6, 0.5, 1 - 1e-6, 1 - 1e-12])
    for key, chain in chains.items():
        qb = chain.base.quantile(u)
        qt = chain.tilde.quantile(u)
        qh = chain.hat.quantile(u)
        assert np.all(qb <= qt) and np.all(qt <= qh), key
