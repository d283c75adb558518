"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the test names themselves mirror the criteria, so the plain verbose
report doubles as the checklist.  Larger runs (the two-point oracle at 1e6,
the ratio limit at 1e7) sit inside their stated runtime budgets.
"""

import json
import math
import time

import numpy as np
import pytest
import yaml

from ladderlab import (
    BernoulliPM1,
    Constant,
    Exponential,
    Pareto,
    QueuePair,
    dominance_suite,
    estimate_growth_moment,
    finiteness_diagnostic,
    running_max_ratio_check,
    simulate_batch,
    sstar_ratio,
)
from ladderlab.cli import main

from oracles import (
    bernoulli_descent_pmf,
    dm1_busy_cycle_mean,
    exponential_self_convolution_ratio,
    lindley_busy_cycles,
)

SEED = 20260810


def _report(num: int, desc: str, ok: bool, extra: str = ""):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}"
    if extra:
        line += f" ({extra})"
    print(line, flush=True)
    assert ok, line


# -- 1. condition certification ------------------------------------------------


def test_criterion_01_condition_certification(tmp_path):
    budgets = []
    fitted = {}
    for family, param in [("g1", 2.0), ("g2", 0.5), ("g3", 0.5)]:
        cfg = tmp_path / f"{family}.yaml"
        cfg.write_text(yaml.safe_dump({"growth": {"family": family, "param": param}, "seed": 1}))
        t0 = time.monotonic()
        code = main(["check", "--config", str(cfg), "--out", str(tmp_path / family)])
        elapsed = time.monotonic() - t0
        budgets.append(elapsed)
        report = json.loads((tmp_path / family / "condition_report.json").read_text())
        fitted[family] = report
        ok = (
            code == 0
            and 0.0 < report["gamma"] < 1.0
            and math.isfinite(report["A"])
            and report["certified_grid"]["x_max"] == 1e8
            and elapsed < 30.0
        )
        if not ok:
            _report(1, "condition certification", False, f"{family}: exit={code} in {elapsed:.1f}s")

    linear = tmp_path / "linear.yaml"
    linear.write_text(
        yaml.safe_dump(
            {
                "growth": {
                    "family": "table",
                    "points": [[1e-3, 1e-4], [1.0, 0.1], [1e3, 100.0], [1e6, 1e5]],
                },
                "seed": 1,
            }
        )
    )
    t0 = time.monotonic()
    code_lin = main(["check", "--config", str(linear), "--out", str(tmp_path / "linear")])
    elapsed_lin = time.monotonic() - t0
    lin_report = json.loads((tmp_path / "linear" / "condition_report.json").read_text())
    witnessed = bool(lin_report["witnesses"].get("slope_decay"))
    _report(
        1,
        "condition certification (three families exit 0 with fitted constants; linear exits 2 with witness)",
        code_lin == 2 and witnessed and elapsed_lin < 30.0 and max(budgets) < 30.0,
        f"gammas={{g1: {fitted['g1']['gamma']}, g2: {fitted['g2']['gamma']}, g3: {fitted['g3']['gamma']}}}, "
        f"max check time {max(budgets + [elapsed_lin]):.1f}s",
    )


# -- 2. majorant correctness ------------------------------------------------------


def test_criterion_02_majorant_tail_closed_form(chains):
    worst = 0.0
    for key, chain in chains.items():
        xs = np.geomspace(1e-3, 1e6, 10_000)
        expect = np.minimum(1.0, chain.K * np.exp(-chain.g(xs)))
        got = chain.hat.tail(xs)
        rel = np.abs(got - expect) / np.maximum(expect, 1e-300)
        worst = max(worst, float(rel.max()))
    _report(
        2,
        "dominating-increment tail equals min(1, K exp(-g)) on 1e4 grid points",
        worst <= 1e-12,
        f"worst relative deviation {worst:.2e}",
    )


# -- 3. spliced mean control -------------------------------------------------------


def test_criterion_03_splice_mean_control(chains):
    ok = True
    margins = {}
    rng = np.random.default_rng(5)
    for key, chain in chains.items():
        target = -chain.a + chain.delta
        margin = target - chain.tilde.mean  # mean via tail quadrature
        margins[key] = margin
        xs = np.sort(rng.uniform(-5.0, 3000.0, size=8000))
        tt = chain.tilde.tail(xs)
        tb = chain.base.tail(xs)
        ok &= margin > 0
        ok &= bool(np.all(np.diff(tt) <= 1e-15))
        ok &= bool(np.all(tb <= tt * (1 + 1e-12) + 1e-300))
        ok &= abs(chain.delta - chain.a / 2.0) < 1e-12
    _report(
        3,
        "spliced mean stays below mean+delta with positive margin; spliced tail monotone and above base",
        ok,
        "margins " + ", ".join(f"{k}: {v:.4g}" for k, v in margins.items()),
    )


# -- 4. strong-subexponential diagnostics -------------------------------------------


def test_criterion_04_sstar_diagnostics():
    t0 = time.monotonic()
    pareto_rep = sstar_ratio(Pareto(2.0, 1.0), x_grid=np.geomspace(1e3, 1e6, 30))
    last_decade = [r for x, r in zip(pareto_rep.x, pareto_rep.ratios) if x >= pareto_rep.x[-1] / 10.0]
    pareto_ok = (
        pareto_rep.ok
        and 1.0 - 1e-9 <= pareto_rep.ratios[-1] <= 1.1
        and all(b <= a + 1e-9 for a, b in zip(last_decade[:-1], last_decade[1:]))
    )
    exp_spec = Exponential(1.0)
    m = exp_spec.pos_mean
    exp_rep = sstar_ratio(exp_spec, x_grid=np.geomspace(1.0, 40.0 * m, 16))
    exp_ratio_at_40m = exp_rep.ratios[-1]
    exp_ok = (
        not exp_rep.ok
        and exp_ratio_at_40m > 10.0
        and exp_ratio_at_40m == pytest.approx(exponential_self_convolution_ratio(40.0 * m, m), rel=1e-6)
    )
    elapsed = time.monotonic() - t0
    _report(
        4,
        "self-convolution ratio: regularly-varying reference enters [1, 1.1] decreasing; exponential exceeds 10 by 40m",
        pareto_ok and exp_ok and elapsed < 120.0,
        f"pareto final {pareto_rep.ratios[-1]:.5f}, exponential at 40m {exp_ratio_at_40m:.1f}, {elapsed:.0f}s",
    )


# -- 5. dominance coupling ------------------------------------------------------------


def test_criterion_05_dominance_coupling(chains):
    ok = True
    for key, chain in chains.items():
        rep = dominance_suite(chain, n=1_000_000, seed=SEED)
        ok &= rep.ok and rep.n == 1_000_000
    _report(5, "1e6 shared-uniform draws per chain: zero quantile-ordering violations", ok)


# -- 6. two-point enumeration oracle ----------------------------------------------------


def test_criterion_06_two_point_oracle():
    t0 = time.monotonic()
    n = 1_000_000
    batch = simulate_batch(BernoulliPM1(0.25), seed=SEED, n_samples=n)
    se = batch.tau.std(ddof=1) / math.sqrt(n)
    mean_ok = abs(batch.tau.mean() - 1.5) <= 4 * se
    pmf = bernoulli_descent_pmf(0.25, 20)
    dist_ok = True
    for k in range(1, 21):
        p = float(pmf[k - 1])
        p_hat = float((batch.tau == k).mean())
        band = 4 * math.sqrt(max(p * (1 - p), 1e-12) / n)
        dist_ok &= abs(p_hat - p) <= band
    elapsed = time.monotonic() - t0
    _report(
        6,
        "two-point walk at 1e6 samples: mean epoch within 4 SE of 1.5 and first 20 epoch probabilities within 4 SE of enumeration",
        mean_ok and dist_ok and elapsed < 60.0,
        f"mean {batch.tau.mean():.4f}, {elapsed:.0f}s",
    )


# -- 7. busy-cycle equivalence ------------------------------------------------------------


def test_criterion_07_busy_cycle_equivalence():
    # exponential(1) service against deterministic interarrival 2 (D/M/1)
    n = 100_000
    walks = simulate_batch(QueuePair(Exponential(1.0), Constant(2.0)), seed=SEED, n_samples=n)
    served, _ = lindley_busy_cycles(SEED, n, lambda u: -math.log1p(-u), lambda u: 2.0)
    identical = bool(np.array_equal(served, walks.tau))
    exact = dm1_busy_cycle_mean(1.0, 2.0)
    assert exact == pytest.approx(1.2550, abs=5e-5)
    mean = float(walks.tau.mean())
    se = float(walks.tau.std(ddof=1)) / math.sqrt(n)
    _report(
        7,
        "waiting-time recursion and descent epochs agree on every one of 1e5 cycles, "
        "and their mean is within 4 SE of the D/M/1 closed form",
        identical and abs(mean - exact) <= 4 * se,
        f"mean {mean:.5f} +- {se:.5f} vs {exact:.5f}",
    )


# -- 8. running-maximum ratio limit ----------------------------------------------------------


def test_criterion_08_running_max_ratio():
    t0 = time.monotonic()
    psi = Pareto(2.0, 1.0, shift=-3.0)
    batch = simulate_batch(psi, seed=SEED, n_samples=10_000_000)
    rep = running_max_ratio_check(batch, psi)
    elapsed = time.monotonic() - t0
    top = None
    if rep.largest_x is not None:
        top = [r for r in rep.rows if r["x"] == rep.largest_x][0]
    ok = (
        rep.ok
        and top is not None
        and top["exceedances"] >= 30
        and top["ratio_lo"] <= rep.e_tau <= top["ratio_hi"]
        and elapsed < 600.0
    )
    extra = f"{elapsed:.0f}s"
    if top:
        extra = (
            f"x={top['x']:.0f}, exceed={top['exceedances']}, ratio in "
            f"[{top['ratio_lo']:.2f}, {top['ratio_hi']:.2f}], mean epoch {rep.e_tau:.3f}, {elapsed:.0f}s"
        )
    _report(
        8,
        "1e7-sample shifted regularly-varying walk: mean epoch inside the binomial 95% band of the maximum/tail ratio",
        ok,
        extra,
    )


# -- 9. moment-functional stability ------------------------------------------------------------


def test_criterion_09_functional_stability(chains):
    chain = chains["g2"]
    sizes = [10_000, 40_000, 160_000, 640_000]
    batch = simulate_batch(chain.base, seed=SEED, n_samples=sizes[-1], step_cap=1_000_000)
    censor_rate = batch.censored_n / batch.n
    estimates = [
        estimate_growth_moment(batch.head(n), chain.g, eps=0.5, delta=chain.a / 2.0, a=chain.a)
        for n in sizes
    ]
    verdict = finiteness_diagnostic(estimates)
    ok = (
        verdict.verdict == "stable"
        and estimates[-1].top1_share < 0.5
        and censor_rate < 1e-4
    )
    _report(
        9,
        "growth-moment estimates stable over 1e4..6.4e5 samples with small top-share and censoring",
        ok,
        f"points {[round(e.point, 4) for e in estimates]}, top1 {estimates[-1].top1_share:.3f}, "
        f"censor rate {censor_rate:.1e}",
    )


# -- 10. byte-identical reproducibility -----------------------------------------------------------


def test_criterion_10_reproducibility(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(
        yaml.safe_dump(
            {
                "growth": {"family": "g2", "param": 0.5},
                "increments": {
                    "family": "weibull_shifted",
                    "c": 1.0,
                    "beta": 0.6,
                    "shift": -2.5045618892421555,
                },
                "eps": 0.5,
                "n_samples": 5000,
                "seed": SEED,
            }
        )
    )
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        for command in ["check", "construct", "simulate", "estimate", "verify"]:
            assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    files = [
        "condition_report.json",
        "chain.json",
        "tail_tables.csv",
        "samples.csv",
        "samples.tau.npy",
        "samples.s_tau.npy",
        "samples.m_tau.npy",
        "samples.censored.npy",
        "manifest.json",
        "estimates.json",
        "verify_report.json",
        "ratio_curve.csv",
        "stability_curve.csv",
    ]
    identical = sorted(p.name for p in outs[0].iterdir()) == sorted(files) and all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes() for f in files
    )
    _report(10, "full pipeline re-run reproduces every CSV/JSON artifact byte for byte", identical)
