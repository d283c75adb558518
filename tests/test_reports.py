"""The JSON keys of every report record, pinned without the golden digests.

The reports serialise their dataclass fields, so renaming, adding or dropping
a field changes the artifacts' schema; these sets say what the schema is.
"""

import pytest

from ladderlab import (
    BernoulliPM1,
    check_log_tail_increment,
    dominance_suite,
    estimate_power_moment,
    finiteness_diagnostic,
    long_tailed_profile,
    running_max_ratio_check,
    simulate_batch,
    sstar_ratio,
    wald_check,
)

RATIO_KEYS = {"kind", "ok", "tol", "usable_hi", "x", "ratios", "notes"}


@pytest.fixture(scope="module")
def reports(chains):
    chain = chains["g2"]
    spec = BernoulliPM1(0.25)
    batch = simulate_batch(spec, seed=5, n_samples=20_000)
    series = [estimate_power_moment(batch.head(n), 1.0) for n in (2_000, 5_000, 10_000, 20_000)]
    return {
        "conditions": chain.report,
        "majorant_fit": chain.fit,
        "long_tailed": long_tailed_profile(chain.hat),
        "sstar": sstar_ratio(chain.hat, x_grid=[10.0, 100.0]),
        "log_tail_increment": check_log_tail_increment(chain.hat, chain.report.gamma),
        "estimate": series[-1],
        "dominance": dominance_suite(chain, n=1_000, seed=5),
        "wald": wald_check(batch, spec.mean),
        "running_max_ratio": running_max_ratio_check(batch, spec),
        "finiteness": finiteness_diagnostic(series),
    }


EXPECTED = {
    "conditions": (
        None,
        {
            "family", "params", "shape_ok", "slope_decay_ok", "tail_integral_ok", "increment_ok",
            "x0", "B", "gamma", "A", "integral_value", "certified_grid", "witnesses",
        },
    ),
    "majorant_fit": (
        None,
        {"K", "product_sup", "floor_exp_g_x0", "argmax_log_s", "grid_log_s_hi", "exp_growth_moment"},
    ),
    "long_tailed": ("long_tailed", RATIO_KEYS),
    "sstar": ("sstar", RATIO_KEYS),
    "log_tail_increment": ("log_tail_increment", {"kind", "ok", "gamma", "slack", "usable_hi", "witnesses"}),
    "estimate": (
        None,
        {"estimand", "n", "point", "std_error", "ci95", "top1_share", "censored_n", "censored_share", "verdict"},
    ),
    "dominance": ("dominance", {"kind", "ok", "n", "violations", "seed", "stream_id"}),
    "wald": ("wald", {"kind", "ok", "n", "mean_discrepancy", "std_error", "sigmas"}),
    "running_max_ratio": (
        "running_max_ratio",
        {"kind", "ok", "e_tau", "largest_x", "delta_tol", "min_exceedances", "rows", "notes"},
    ),
    "finiteness": ("finiteness_heuristic", {"kind", "verdict", "reasons", "points", "note"}),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_report_keys(reports, name):
    kind, keys = EXPECTED[name]
    payload = reports[name].to_dict()
    assert set(payload) == keys
    assert payload.get("kind") == kind


def test_report_constants(reports):
    assert reports["conditions"].to_dict()["certified_grid"] == {"lo": 1e-3, "hi": 1e6, "x_max": 1e8}
    assert reports["dominance"].to_dict()["ok"] is True
    assert reports["finiteness"].to_dict()["note"] == (
        "heuristic diagnostic: stability under growing n is evidence, not proof"
    )
