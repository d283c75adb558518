import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from ladderlab import (
    ConfigError,
    GrowthFunction,
    certify,
    check_increment_slack,
    check_shape,
    check_slope_decay,
    check_tail_integral,
    default_condition_grid,
    make_growth,
)
from ladderlab.growth import GrowthEvalError, _bracketed_inverse

from oracles import weibull_exp_tail_integral


def from_callables(ev, deriv=None) -> GrowthFunction:
    """Wrap raw callables as a GrowthFunction test double."""

    def ev_arr(x):
        return np.asarray(ev(np.asarray(x, dtype=float)), dtype=float)

    if deriv is None:

        def deriv(x):  # central difference with relative step
            x = np.asarray(x, dtype=float)
            h = np.maximum(np.abs(x) * 1e-6, 1e-9)
            return (ev_arr(x + h) - ev_arr(x - h)) / (2.0 * h)

    return GrowthFunction("custom", {}, ev_arr, deriv, _bracketed_inverse(ev_arr, 1e-6))


# -- builtins ---------------------------------------------------------------


def test_builtin_values():
    g1 = make_growth({"family": "g1", "param": 2.0})
    assert float(g1(math.e)) == pytest.approx(1.0, rel=1e-12)
    assert float(g1(0.5)) == 0.0  # flat zero below one

    g2 = make_growth({"family": "g2", "param": 0.5})
    assert float(g2(4.0)) == pytest.approx(2.0, rel=1e-12)
    assert float(g2.inverse(3.0)) == pytest.approx(9.0, rel=1e-12)
    assert float(g2(-2.0)) == 0.0

    g3 = make_growth({"family": "g3", "param": 0.5})
    assert float(g3(0.5)) == 0.0
    assert float(g3(math.e**2)) == pytest.approx(math.e * 2.0, rel=1e-12)


@pytest.mark.parametrize(
    "family,param",
    [("g1", 1.0), ("g1", 0.5), ("g2", 0.0), ("g2", 1.0), ("g3", 1.5), ("g3", -0.1)],
)
def test_builtin_param_ranges(family, param):
    with pytest.raises(ValueError):
        make_growth({"family": family, "param": param})


def test_unknown_family():
    with pytest.raises(ValueError):
        make_growth({"family": "g9", "param": 2.0})


def test_table_growth():
    g = make_growth({"family": "table", "points": [[1.0, 0.0], [2.0, 1.0], [4.0, 2.0]]})
    assert float(g(1.5)) == pytest.approx(0.5)
    assert float(g(3.0)) == pytest.approx(1.5)
    assert float(g(8.0)) == pytest.approx(4.0)  # linear extrapolation by end slope
    assert float(g.deriv(1.5)) == pytest.approx(1.0)
    assert float(g.deriv(3.0)) == pytest.approx(0.5)
    assert float(g.inverse(1.5)) == pytest.approx(3.0, abs=1e-9)
    with pytest.raises(ValueError):
        make_growth({"family": "table", "points": [[1.0, 1.0], [1.0, 2.0]]})
    with pytest.raises(ValueError):
        make_growth({"family": "table", "points": [[1.0, 2.0], [2.0, 1.0]]})


@pytest.mark.parametrize(
    "points",
    [
        [[0.0, 0.0], [3.0, 0.0], [10.0, 2.0], [80.0, 5.0]],  # flat first segment from 0: the bracket starts at 0
        [[-6.0, 0.0], [-1.5, 0.4], [4.0, 2.5], [60.0, 7.0]],  # first abscissa below -1
        [[-5e3, 0.0], [-4e3, 1.0], [0.0, 2.0], [1e2, 4.0]],
    ],
)
def test_table_inverse_brackets_from_non_positive_start(points):
    """A bracket that starts at or below zero grows past it, so the inverse
    exists above it too."""
    g = make_growth({"family": "table", "points": points})
    for t in (0.2, 1.0, 4.5, 30.0):
        x = g.inverse(t)
        assert float(g(x)) == pytest.approx(t, rel=1e-9, abs=1e-9)


def test_table_growth_record_is_checked():
    """Each point is a pair of numbers; spec_dict reads the record back."""
    g = make_growth({"family": "table", "points": [[1, 0], [2.0, 1.0]]})
    assert g.spec_dict() == {"family": "table", "points": [[1.0, 0.0], [2.0, 1.0]]}
    for points in ([[1.0, 0.0], [2.0]], [[1.0, 0.0], [2.0, "1.0"]], [[1.0, 0.0], [2.0, True]], [1.0, 2.0]):
        with pytest.raises(ConfigError, match="growth: points"):
            make_growth({"family": "table", "points": points})


@pytest.mark.parametrize("family,param", [("g1", 2.0), ("g2", 0.5), ("g3", 0.5)])
def test_inverse_round_trip_random(family, param):
    g = make_growth({"family": family, "param": param})
    x0 = 2.0  # safely above every family's flat region
    rngen = np.random.default_rng(7)
    ts = rngen.uniform(float(g(x0)), float(g(1e8)), size=1000)
    xs = g.inverse(ts)
    assert np.allclose(g(xs), ts, rtol=1e-9, atol=1e-12)
    xs = np.exp(rngen.uniform(math.log(x0), math.log(1e8), size=1000))
    assert np.allclose(g.inverse(g(xs)), xs, rtol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    t=st.floats(min_value=1.0, max_value=300.0),
    family=st.sampled_from(["g1", "g2", "g3"]),
)
def test_inverse_round_trip_property(t, family):
    g = make_growth({"family": family, "param": {"g1": 2.0, "g2": 0.5, "g3": 0.5}[family]})
    x = float(g.inverse(t))
    assert float(g(x)) == pytest.approx(t, rel=1e-9)


# -- shape check ------------------------------------------------------------


def test_shape_pass_builtin():
    for family, param in [("g1", 2.0), ("g2", 0.5), ("g3", 0.5)]:
        res = check_shape(make_growth({"family": family, "param": param}))
        assert res.ok, res.witnesses


def test_shape_negative_function_fails():
    res = check_shape(from_callables(lambda x: -x))
    assert not res.ok
    assert any(w["kind"] == "negative" for w in res.witnesses)


def test_shape_non_monotone_fails():
    res = check_shape(from_callables(lambda x: np.sin(x) + 2.0))
    assert not res.ok
    kinds = {w["kind"] for w in res.witnesses}
    assert "decreasing" in kinds
    # the monotonicity witness carries the offending pair
    w = next(w for w in res.witnesses if w["kind"] == "decreasing")
    assert w["x"] < w["y"] and w["gap"] < 0


def test_shape_derivative_mismatch_fails():
    sqrt, square = lambda x: np.sqrt(np.maximum(x, 0.0)), lambda t: np.maximum(t, 0.0) ** 2
    bad = GrowthFunction("custom", {}, sqrt, lambda x: np.ones_like(np.asarray(x, dtype=float)), square)
    res = check_shape(bad)
    assert not res.ok
    assert any(w["kind"] == "derivative_mismatch" for w in res.witnesses)


def test_shape_nonfinite_raises():
    with pytest.raises(GrowthEvalError):
        check_shape(from_callables(lambda x: np.where(x > 100.0, np.nan, x)))


# -- slope decay ------------------------------------------------------------


def test_slope_decay_g1():
    g = make_growth({"family": "g1", "param": 2.0})
    res = check_slope_decay(g)
    assert res.ok
    assert res.detail["x0"] > 0 and res.detail["B"] > 0
    # closed-form derivative at the far end of the grid
    assert float(g.deriv(1e6)) == pytest.approx(2.0 * math.log(1e6) / 1e6, rel=1e-12)
    assert float(g.deriv(1e6)) == pytest.approx(2.7631e-5, rel=1e-4)


def test_slope_decay_g2():
    res = check_slope_decay(make_growth({"family": "g2", "param": 0.5}))
    assert res.ok


def test_slope_decay_linear_fails():
    res = check_slope_decay(from_callables(lambda x: 0.1 * x, deriv=lambda x: np.full_like(np.asarray(x, float), 0.1)))
    assert not res.ok
    assert any(w["kind"] == "slope_not_decaying" for w in res.witnesses)


# -- tail integral ----------------------------------------------------------


def test_tail_integral_weibull_closed_form():
    verdict, value = check_tail_integral(make_growth({"family": "g2", "param": 0.5}), gamma=0.75)
    assert verdict == "finite"
    assert value == pytest.approx(weibull_exp_tail_integral(0.25), rel=1e-6)
    assert value == pytest.approx(31.15, rel=1e-3)


def test_tail_integral_log_divergent():
    g = from_callables(lambda x: np.log(np.maximum(x, 1.0)))
    verdict, _ = check_tail_integral(g, gamma=0.5)
    assert verdict == "divergent"  # integrand is x^{-1/2}


def test_tail_integral_g1_vs_quadrature():
    verdict, value = check_tail_integral(make_growth({"family": "g1", "param": 2.0}), gamma=0.5)
    assert verdict == "finite"
    oracle, _ = integrate.quad(lambda x: math.exp(-0.5 * math.log(x) ** 2), 1.0, np.inf)
    assert value == pytest.approx(oracle, rel=1e-8)


def test_tail_integral_matches_closed_forms():
    """The growth tail integral on the quadrature kernel, held to 1e-12 of
    closed forms: int_1^inf exp(-sqrt(x) / 4) dx, and int_1^inf
    exp(-log(x)^2 / 2) dx = sqrt(2 pi) e^(1/2) Phi(1) (u = log x)."""
    _, value = check_tail_integral(make_growth({"family": "g2", "param": 0.5}), gamma=0.75)
    assert value == pytest.approx(weibull_exp_tail_integral(0.25), rel=1e-12)
    _, value = check_tail_integral(make_growth({"family": "g1", "param": 2.0}), gamma=0.5)
    assert value == pytest.approx(math.sqrt(2.0 * math.pi) * math.exp(0.5) * special.ndtr(1.0), rel=1e-12)


def test_tail_integral_gamma_range():
    with pytest.raises(ValueError):
        check_tail_integral(make_growth({"family": "g2", "param": 0.5}), gamma=1.0)


# -- increment slack ---------------------------------------------------------


def test_increment_slack_g2_concavity_gamma():
    g = make_growth({"family": "g2", "param": 0.5})
    gamma = 0.5 * 2**0.5  # concavity bound for y <= x/2
    res, slack = check_increment_slack(g, gamma, x0=1e-3)
    assert res.ok
    assert 0.0 <= slack < 1.0


def test_increment_slack_linear_fails():
    g = from_callables(lambda x: 0.1 * x, deriv=lambda x: np.full_like(np.asarray(x, float), 0.1))
    res, _ = check_increment_slack(g, gamma=0.9, x0=1.0)
    assert not res.ok
    assert res.witnesses and res.witnesses[0]["residual"] > 0


def test_increment_slack_g1():
    res, slack = check_increment_slack(make_growth({"family": "g1", "param": 2.0}), gamma=0.5, x0=2.8)
    assert res.ok
    assert slack >= 0.0


# -- certification -----------------------------------------------------------


def test_certify_builtins(certified):
    expected_gamma = {"g1": 0.05, "g2": 0.45, "g3": 0.5}
    for key, (g, report) in certified.items():
        assert report.all_ok, (key, report.witnesses)
        assert 0.0 < report.gamma < 1.0
        assert math.isfinite(report.A) and report.A >= 0.0
        assert report.x0 > 0 and report.B > 0
        assert report.gamma == pytest.approx(expected_gamma[key])
        assert report.x_max == 1e8


def test_certify_fitted_slack_is_upper_bound(certified):
    # fresh random grid, finer than the fit grid: no violation beyond 1e-6
    rngen = np.random.default_rng(99)
    for key, (g, report) in certified.items():
        xs = np.exp(rngen.uniform(math.log(2 * report.x0), math.log(1e8), size=400))
        fracs = rngen.uniform(0.0, 1.0, size=(400, 120))
        ys = np.exp(math.log(report.x0) + fracs * (np.log(xs / 2.0) - math.log(report.x0))[:, None])
        residual = g(xs[:, None]) - g(xs[:, None] - ys) - report.gamma * g(ys)
        assert float(residual.max()) <= report.A + 1e-6, key


def test_certify_report_invariant_on_grid(certified):
    for key, (g, report) in certified.items():
        xs = np.geomspace(2 * report.x0, 1e8, 300)
        ys = np.exp(
            np.log(report.x0)
            + np.linspace(0, 1, 64)[None, :] * (np.log(xs / 2.0) - math.log(report.x0))[:, None]
        )
        residual = g(xs[:, None]) - g(xs[:, None] - ys) - report.gamma * g(ys)
        assert np.all(residual <= report.gamma * 0 + report.A + 1e-9)


def test_certify_linear_fails_slope_stage():
    g = make_growth(
        {"family": "table", "points": [[1e-3, 1e-4], [1.0, 0.1], [1e6, 1e5]]}
    )
    report = certify(g)
    assert not report.all_ok
    assert report.shape_ok and not report.slope_decay_ok
    assert "slope_decay" in report.witnesses


def test_certify_serializes():
    import json

    report = certify(make_growth({"family": "g2", "param": 0.5}))
    payload = json.dumps(report.to_dict())
    assert "gamma" in payload


def test_default_grid_contract():
    grid = default_condition_grid()
    assert grid.size >= 1000
    assert grid[0] == pytest.approx(1e-3) and grid[-1] == pytest.approx(1e6)
    assert np.all(np.diff(grid) > 0)


def test_tail_integral_undetermined_on_evaluation_trouble():
    g = from_callables(lambda x: np.where(x > 1e3, np.nan, np.sqrt(np.maximum(x, 0.0))))
    verdict, _ = check_tail_integral(g, gamma=0.5)
    assert verdict == "undetermined"


def test_table_of_sqrt_certifies_like_closed_form():
    # a tabulated concave function should fit the same increment weight as
    # its closed-form counterpart
    xs = np.geomspace(1e-3, 1e8, 80)
    g = make_growth({"family": "table", "points": [[float(x), float(np.sqrt(x))] for x in xs]})
    report = certify(g)
    assert report.all_ok
    assert report.gamma == pytest.approx(0.45)


def test_shape_tolerates_kink_exactly_on_grid():
    # the flat-zero boundary of the log families may land on a grid point;
    # the two-sided difference is meaningless across it and must be skipped
    grid = np.unique(np.concatenate([default_condition_grid(), [1.0]]))
    for family, param in [("g1", 2.0), ("g3", 0.5)]:
        res = check_shape(make_growth({"family": family, "param": param}), grid)
        assert res.ok, (family, res.witnesses)
