import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

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
from ladderlab import estimate
from ladderlab.config import jsonify
from ladderlab.tails import Pareto
from ladderlab.walk import SampleBatch

from oracles import bernoulli_descent_moment, whole_column_estimate, whole_column_ratio, whole_column_wald

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


@pytest.mark.filterwarnings("error")
def test_overflowed_estimate_is_not_stable():
    """exp(c tau) overflows to inf for one long epoch; the point is then no
    stable estimate, whatever the NaN top-1% share says, and no numpy
    warning is raised on the way."""
    batch = _const_batch(1000)
    tau = batch.tau.copy()
    tau[0] = 20_000
    est = estimate_exp_moment(replace(batch, tau=tau), 0.05)
    assert est.point == math.inf
    assert math.isnan(est.top1_share)
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
        shift=0.0, first_stream=0, tau=np.full(4, 10, dtype=np.int64),
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


# -- block estimators against whole columns ------------------------------------------


def _sum_lengths():
    k_pm1 = [2**k + d for k in range(3, 18) for d in (-1, 1)]
    return sorted({*range(1, 10), 127, 128, 129, *k_pm1, 2**16 - 1, 2**16 + 1})


def _special(x, rng, kind):
    """x with -0.0, +-inf or nan written at a few random places."""
    x = x.copy()
    at = rng.integers(0, x.size, max(1, x.size // 1000))
    if kind == "neg_zero":
        x[at] = -0.0
    elif kind == "all_neg_zero":
        x[:] = -0.0
    elif kind == "inf":
        x[at] = math.inf
    elif kind == "both_inf":
        x[at[: (at.size + 1) // 2]] = math.inf
        x[at[at.size // 2 :]] = -math.inf
    elif kind == "nan":
        x[at] = math.nan
    return x


def _pieces(n, rng):
    """Random cut points of [0, n): single values, short runs and long ones."""
    cuts = set(rng.integers(0, n + 1, 3).tolist()) | set(rng.integers(0, n + 1, 1 + n // 5000).tolist())
    edges = sorted(cuts | {0, n})
    return list(zip(edges[:-1], edges[1:]))


@pytest.mark.parametrize("kind", ["plain", "neg_zero", "all_neg_zero", "inf", "both_inf", "nan"])
def test_tree_sum_keeps_np_sum_bits(kind):
    """The block sum must give np.sum's bits for any cut and any mask; a numpy
    whose pairwise rule changed fails here before any golden digest does."""
    rng = np.random.default_rng(2024)
    for n in _sum_lengths():
        x = _special(rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n), rng, kind)
        keep = rng.random(n) < 0.7
        whole, masked = estimate._TreeSum(n), estimate._TreeSum(int(keep.sum()))
        with np.errstate(invalid="ignore"):  # inf - inf
            for lo, hi in _pieces(n, rng):
                whole.add(x[lo:hi])
            for lo, hi in _pieces(n, rng):
                masked.add(x[lo:hi][keep[lo:hi]])
            assert np.float64(whole.total()).tobytes() == np.sum(x).tobytes(), (kind, n)
            assert np.float64(masked.total()).tobytes() == np.sum(x[keep]).tobytes(), (kind, n, "masked")


def _dump(report) -> str:
    return json.dumps(jsonify(report.to_dict()), sort_keys=True)


def _tied_batch(n=200_000, seed=5):
    """tau 1 everywhere but 1,500 walks at 7 and 3,000 at 5: the 2,000th largest ties with 2,999 others."""
    rng = np.random.default_rng(seed)
    tau = np.ones(n, dtype=np.int64)
    at = rng.permutation(n)
    tau[at[:1500]], tau[at[1500:4500]] = 7, 5
    s_tau = -rng.random(n)
    m_tau = np.where(tau > 1, rng.random(n) * tau, 0.0)
    censored = np.zeros(n, dtype=bool)
    return SampleBatch(0.0, 0, tau, s_tau, m_tau, m_tau, censored)


@pytest.fixture(scope="module")
def oracle_batches():
    pareto = Pareto(2.0, 1.0, shift=-3.0)
    bern = BernoulliPM1(0.45)
    return [
        ("one_block", pareto, simulate_batch(pareto, seed=SEED, n_samples=1000)),
        ("two16_minus", pareto, simulate_batch(pareto, seed=SEED, n_samples=2**16 - 1)),
        ("two16_plus", pareto, simulate_batch(pareto, seed=SEED, n_samples=2**16 + 1)),
        ("pareto_300k", pareto, simulate_batch(pareto, seed=SEED, n_samples=300_000)),
        ("censored_cap5", bern, simulate_batch(bern, seed=3, n_samples=70_001, step_cap=5)),
        ("censored_cap60", bern, simulate_batch(bern, seed=3, n_samples=100_003, step_cap=60)),
        ("ties", Constant(-1.0), _tied_batch()),
        ("constant", Constant(-1.0), _const_batch(40_000)),
    ]


def _estimators(g2):
    """Label -> (estimator, the functional of tau it averages): the public
    estimators, and one functional with nan and -0.0 values."""

    def odd(t):
        return np.where(t >= 5, np.nan, -0.0 * t)

    return {
        "power1": (lambda b: estimate_power_moment(b, 1.0), lambda t: t**1.0),
        "power2": (lambda b: estimate_power_moment(b, 2.0), lambda t: t**2.0),
        "exp": (lambda b: estimate_exp_moment(b, 0.3), lambda t: np.exp(0.3 * t)),
        "growth": (lambda b: estimate_growth_moment(b, g2, 0.5, 0.25, 1.0), lambda t: np.exp(0.5 * g2(0.75 * t))),
        "nan_and_neg_zero": (lambda b: estimate._estimate_functional(b, odd, {"kind": "odd"}), odd),
    }


def test_estimators_match_whole_columns(g2, oracle_batches):
    """Every report equals the whole-column oracle's, on censored batches, one
    block, 2^16 +- 1 walks, ties at the top-1% threshold and head(n) prefixes."""
    estimators = _estimators(g2)
    for name, spec, batch in oracle_batches:
        for size in sorted({batch.n, batch.n // 4 + 3, batch.n // 64, 2}):
            part = batch.head(size)
            case = (name, size)
            for label, (estimator, fn) in estimators.items():
                with np.errstate(over="ignore", invalid="ignore"):
                    got = estimator(part)
                    want = whole_column_estimate(part, fn, got.estimand)
                assert _dump(got) == _dump(want), (*case, label)
            if part.n - part.censored_n >= 2:
                assert _dump(wald_check(part, spec.mean)) == _dump(whole_column_wald(part, spec.mean)), case
            assert _dump(running_max_ratio_check(part, spec)) == _dump(whole_column_ratio(part, spec)), case
            grid = [0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 1e300]
            assert _dump(running_max_ratio_check(part, spec, grid)) == _dump(whole_column_ratio(part, spec, grid)), case


_FAULT_GUARD = """
import json, resource
from ladderlab import Pareto, estimate_power_moment, running_max_ratio_check, simulate_batch, wald_check

spec = Pareto(2.0, 1.0, shift=-3.0)
spec.mean  # its quadrature runs before the baseline
usage = lambda: resource.getrusage(resource.RUSAGE_SELF)
before = usage().ru_maxrss
batch = simulate_batch(spec, 7, n_samples=500_000)
faults = {}
for name, call in [
    ("power", lambda: estimate_power_moment(batch, 1.0)),
    ("wald", lambda: wald_check(batch, spec.mean)),
    ("ratio", lambda: running_max_ratio_check(batch, spec)),
]:
    call()
    start = usage().ru_minflt
    call()
    faults[name] = usage().ru_minflt - start
columns = sum(getattr(batch, c).nbytes for c in ("stream_ids", "tau", "s_tau", "m_tau", "psi_max", "censored"))
print(json.dumps({"faults": faults, "growth": (usage().ru_maxrss - before) * 1024, "columns": columns}))
"""


def test_estimators_reuse_memory_after_simulate():
    """In a fresh process, 5e5 walks (two chunks) then the estimators: a second
    call takes almost no minor faults, and the peak grows by the columns plus
    one chunk's work area (about 22 MB at 2.5e5 walks), never by a copy of
    the columns or a full-length temporary."""
    src = Path(estimate.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", _FAULT_GUARD],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    res = json.loads(out.stdout)
    assert all(count <= 64 for count in res["faults"].values()), res
    assert res["growth"] <= res["columns"] + (32 << 20), res
