import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy import integrate

import ladderlab
from ladderlab import diagnostics, numerics, sstar_ratio, tails

SRC = Path(ladderlab.__file__).resolve().parents[1]
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


_IMPORT_GRAPH_SCRIPT = """
import json, sys
loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')
import ladderlab
record = [['import ladderlab', 0, loaded()]]
from ladderlab.cli import main
record.append(['import ladderlab.cli', 0, loaded()])
for cfg, stage in json.loads(sys.argv[1]):
    rc = main([stage, '--config', cfg, '--out', cfg + '.out'])
    record.append([cfg + ' ' + stage, rc, loaded()])
print(json.dumps(record))
"""


@pytest.fixture(scope="module")
def import_graph(tmp_path_factory):
    """One fresh process imports ladderlab and its CLI, then runs small
    stages of every config family but the lognormal one, g1's `check`, and
    last a g1_lognormal `simulate`.  Returns [step, exit code, scipy modules
    loaded so far] after each step."""
    tmp_path = tmp_path_factory.mktemp("import_graph")
    runs = []
    for name, stages in [
        ("bernoulli_oracle", ("simulate", "estimate", "verify")),
        ("pareto_ratio", ("simulate", "estimate", "verify")),
        ("queue_busy_cycle", ("simulate", "estimate", "verify")),
        ("g1_lognormal", ("check", "simulate")),
    ]:
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(yaml.safe_dump({**yaml.safe_load((CONFIGS / f"{name}.yaml").read_text()), "n_samples": 2000}))
        runs += [(str(cfg), stage) for stage in stages]
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_GRAPH_SCRIPT, json.dumps(runs)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_import_leaves_scipy_stats_unloaded(import_graph):
    """`import ladderlab` and `import ladderlab.cli` load no scipy module,
    scipy.stats included."""
    assert [step for step, _, _ in import_graph[:2]] == ["import ladderlab", "import ladderlab.cli"]
    assert [entry for entry in import_graph[:2] if entry[2]] == []


def test_cli_stages_leave_scipy_integrate_unloaded(import_graph):
    """ladderlab integrates on its own kernel: every stage exits 0 and none,
    the lognormal `simulate` included, loads scipy.integrate."""
    stages = import_graph[2:]
    assert len(stages) == 11 and [entry for entry in stages if entry[1] != 0] == []
    assert [entry for entry in stages if "scipy.integrate" in entry[2]] == []


def test_import_graph_loads_scipy_for_the_lognormal_family_alone(import_graph):
    """Every step before the g1_lognormal `simulate` loads no scipy module at
    all.  That `simulate` builds the lognormal increment, which loads
    scipy.special, and still never scipy.stats or scipy.integrate."""
    *scipy_free, (step, rc, lognormal) = import_graph
    assert [entry for entry in scipy_free if entry[1] != 0 or entry[2]] == []
    assert step.endswith("g1_lognormal.yaml simulate") and rc == 0
    assert "scipy.special" in lognormal
    assert not [m for m in lognormal if m.startswith(("scipy.stats", "scipy.integrate"))]


def test_gk21_rule_is_quadpacks():
    """The Gauss half is the 10-point Gauss-Legendre rule, and the 21-point
    Kronrod rule integrates every polynomial of degree up to 31 on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(10)
    np.testing.assert_allclose(numerics._XGK[1:10:2], nodes[5:][::-1], rtol=0, atol=2e-16)
    np.testing.assert_allclose(numerics._WG, weights[5:][::-1], rtol=0, atol=2e-16)
    xs = np.concatenate([-numerics._XGK[:10], [0.0], numerics._XGK[:10][::-1]])
    ws = np.concatenate([numerics._WGK[:10], [numerics._WGK[10]], numerics._WGK[:10][::-1]])
    for degree in range(32):
        exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
        assert float(ws @ xs**degree) == pytest.approx(exact, abs=1e-15), degree


def _qk21_loop(f, a, b):
    """QUADPACK's dqk21 sums for one interval, node by node in its order, in Python floats."""
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    fc = float(f(np.array([centr]))[0])
    resg, resk = 0.0, numerics._WGK[10] * fc
    resabs = abs(resk)
    fv1, fv2 = [], []
    for j in range(10):
        absc = hlgth * numerics._XGK[j]
        fv1.append(float(f(np.array([centr - absc]))[0]))
        fv2.append(float(f(np.array([centr + absc]))[0]))
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        fsum = fv1[j] + fv2[j]
        if j % 2:
            resg += numerics._WG[j // 2] * fsum
        resk += numerics._WGK[j] * fsum
        resabs += numerics._WGK[j] * (abs(fv1[j]) + abs(fv2[j]))
    reskh = resk * 0.5
    resasc = numerics._WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc += numerics._WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    return resk, resg, resabs, resasc, hlgth


def test_qk21_sums_in_quadpacks_order():
    """The vectorised rule keeps dqk21's summation order: on random intervals
    its results and error estimates have the bits of sums taken node by node
    in that order."""
    rng = np.random.default_rng(5)
    a = rng.uniform(-3.0, 3.0, 200)
    b = a + rng.exponential(2.0, 200)
    for f in (lambda y: np.exp(-y * y), lambda y: np.sin(7.0 * y) * np.exp(y), lambda y: _poly(y)):
        res, err = numerics._qk21(lambda g, y: f(y), np.arange(a.size), a, b)
        for i in range(a.size):
            resk, resg, resabs, resasc, hlgth = _qk21_loop(f, a[i], b[i])
            # dqk21's error estimate from those sums, on one-element arrays as the kernel computes it
            resabs, resasc = np.array([resabs * abs(hlgth)]), np.array([resasc * abs(hlgth)])
            abserr = np.abs((np.array([resk]) - resg) * hlgth)
            if resasc[0] != 0.0 and abserr[0] != 0.0:
                abserr = resasc * np.minimum(1.0, (200.0 * abserr / resasc) ** 1.5)
            if resabs[0] > numerics._UFLOW / (50.0 * numerics._EPMACH):
                abserr = np.maximum(50.0 * numerics._EPMACH * resabs, abserr)
            assert (res[i], err[i]) == (resk * hlgth, abserr[0]), i


def test_adaptive_gk21_integrates_each_group():
    """Groups of several intervals each, one of them needing bisection:
    every group's integral to epsrel, and no group capped."""
    group = np.array([0, 0, 1, 2, 2, 2])
    a = np.array([0.0, 1.0, 0.0, 0.0, 0.5, 2.0])
    b = np.array([1.0, 3.0, 50.0, 0.5, 2.0, 9.0])
    scale = np.array([1.0, 40.0, 0.5])  # exp(-scale y): group 1 is sharply peaked at 0

    total, capped = numerics.adaptive_gk21(
        lambda g, y: scale[g] * np.exp(-scale[g] * y), group, a, b, epsrel=1e-12, limit=400
    )
    exact = [-np.expm1(-3.0), -np.expm1(-2000.0), -np.expm1(-4.5)]
    np.testing.assert_allclose(total, exact, rtol=1e-12)
    assert not capped.any()


@pytest.mark.parametrize("limit", [7, 10, 50])
def test_adaptive_gk21_caps_each_group_at_exactly_limit_intervals(monkeypatch, limit):
    """Groups that cannot reach epsrel, starting from 1, 2 and 3 intervals,
    stop at exactly `limit` intervals each, never one more.  The count is
    each group's initial intervals plus half the new ones of each later pass,
    where every bisection replaces one interval by two."""
    passes, qk21 = [], numerics._qk21
    monkeypatch.setattr(numerics, "_qk21", lambda f, g, a, b: passes.append(np.bincount(g, minlength=3)) or qk21(f, g, a, b))
    group = np.array([0, 1, 1, 2, 2, 2])
    a = np.array([0.0, 0.0, 0.5, 0.0, 0.25, 0.5])
    b = np.array([1.0, 0.5, 1.0, 0.25, 0.5, 1.0])
    _, capped = numerics.adaptive_gk21(lambda g, y: np.sin(1e4 * (g + 1) * y), group, a, b, epsrel=1e-12, limit=limit)
    intervals = passes[0] + sum(passes[1:]) // 2
    assert intervals.tolist() == [limit] * 3 and capped.all()


def _poly(y):
    return 1.0 + y * (0.5 + y * (0.25 - y * 0.125))  # + and * only: the same bits on floats and arrays


def test_one_interval_is_quadpacks_bits():
    """An integral that QUADPACK settles on its first 21-point rule comes out
    of the kernel with QUADPACK's bits; one that needs bisection agrees with
    it to the requested accuracy."""
    for lo, hi in [(0.0, 1.0), (-2.5, 0.75), (3.0, 40.0)]:
        expect, _ = integrate.quad(_poly, lo, hi, epsabs=1e-15, epsrel=1e-10, limit=200)
        (value,), (converged,) = numerics.integrate([(_poly, [lo, hi], 0)], reach=math.inf, rel_tol=0.0)
        assert value == expect and converged
    expect, _ = integrate.quad(lambda y: y**0.3, 0.0, 2.0, epsabs=1e-15, epsrel=1e-10, limit=200)
    (value,), _ = numerics.integrate([(lambda y: y**0.3, [0.0, 2.0], 0)], reach=math.inf, rel_tol=0.0)
    assert value == pytest.approx(expect, rel=1e-10)


def test_adaptive_gk21_stops_at_quadpacks_bound():
    """A group stops once its error is at most max(epsabs, epsrel |result|):
    a generous epsabs stops an endpoint singularity after one rule, epsabs 0
    bisects it to epsrel."""
    group, a, b = np.array([0]), np.array([0.0]), np.array([1.0])
    calls = []

    def f(g, y):
        calls.append(y.size)
        return y**-0.5

    coarse, _ = numerics.adaptive_gk21(f, group, a, b, epsrel=1e-10, limit=200, epsabs=1.0)
    assert calls == [21] and abs(coarse[0] - 2.0) > 1e-3
    fine, capped = numerics.adaptive_gk21(f, group, a, b, epsrel=1e-10, limit=200, epsabs=0.0)
    assert len(calls) > 2 and not capped[0]
    assert fine[0] == pytest.approx(2.0, rel=1e-6)  # the singular end is resolved to the bisection's reach


def test_integrate_pieces_and_half_lines():
    """Pieces between edges plus a doubling half-line each way, against closed
    forms; a tail that never decays does not converge by `reach`."""
    jobs = [
        (lambda x: np.exp(-x), [0.0, 0.5, 3.0], 1),  # int_0^inf e^-x = 1
        (lambda x: np.exp(x), [-2.0, 0.0], -1),  # int_-inf^0 e^x = 1
        (lambda x: 1.0 / (1.0 + x * x), [-1.0, 1.0], 0),  # pi / 2
        (lambda x: 1.0 / x, [1.0], 1),  # log diverges
    ]
    values, converged = numerics.integrate(jobs, reach=1e18, rel_tol=1e-13, floor=1e-30)
    np.testing.assert_allclose(values[:3], [1.0, 1.0, math.pi / 2], rtol=1e-13)
    assert converged == [True, True, True, False]
    (total,), (done,) = numerics.integrate([(lambda x: np.exp(-x), [0.0], 1)], reach=1e3, rel_tol=1e-12, total=1.0)
    assert done and total == pytest.approx(2.0, rel=1e-13)


def test_integrate_bits_do_not_depend_on_the_batch_or_the_rounds(monkeypatch):
    """A job's value is the same alone, beside other jobs, and with the first
    doubling round cut to one segment or grown past the reach."""
    jobs = [
        (lambda x: (x + 3.0) ** -2.0, [0.0, 1.0], 1),
        (lambda x: np.exp(-np.sqrt(x)), [0.25, 2.0], 1),
        (lambda x: 1.0 - np.exp(x), [-7.0, -1.0], -1),
    ]
    opts = {"reach": 1e18, "rel_tol": 1e-13, "floor": 1e-30}
    together = numerics.integrate(jobs, **opts)
    for size in (1, 100):
        monkeypatch.setattr(numerics, "_FIRST_ROUND", size)
        assert numerics.integrate(jobs, **opts) == together
        for j, job in enumerate(jobs):
            assert numerics.integrate([job], **opts) == ([together[0][j]], [together[1][j]])


def _above(c):
    """The predicate x > c[i] of `numerics.bracket_root`, boundary c[i] for element i."""
    c = np.asarray(c, dtype=float)
    return lambda x, i: x > c[i]


def _closed(lo, hi):
    return np.all(hi - lo <= np.maximum(1e-12, 4.0 * np.spacing(np.abs(hi))))


def test_bracket_root_grows_either_end():
    """A wrong upper end moves up, a wrong lower end moves down, and each
    bracket closes around its own boundary."""
    c = np.array([1e3, -1e3, 0.3, 7.5e9])
    lo, hi = numerics.bracket_root(_above(c), np.zeros(4), 1.0)
    assert lo.shape == hi.shape == (4,)
    assert np.all((lo <= c) & (c < hi)) and _closed(lo, hi)
    assert hi[3] - lo[3] > 1e-12  # past 2^34 the 4-ulp width governs


def test_bracket_root_raises_without_a_bracket():
    for value in (False, True):
        with pytest.raises(ValueError):
            numerics.bracket_root(lambda x, i: np.full(x.shape, value), 0.0, 1.0)
    with pytest.raises(ValueError):  # one element whose boundary lies past the floats
        numerics.bracket_root(_above([1.0, math.inf]), np.zeros(2), 1.0)
    with pytest.raises(ValueError):  # one element whose bracket grows past 1e307
        numerics.bracket_root(_above([1.0, 5e307]), np.zeros(2), np.array([1.0, 1e306]))
    with pytest.raises(ValueError):  # an end at -1e307 itself
        numerics.bracket_root(_above([0.0]), -1e307, 1.0)


def test_bracket_root_flat_stretch_gives_the_infimum():
    """g flat at 1 on [1, 4]: {x : g(x) > 1} starts at the stretch's right end."""
    def g(x):
        return np.clip(x, None, 1.0) + np.clip(x - 4.0, 0.0, None)

    lo, hi = numerics.bracket_root(lambda x, i: g(x) > 1.0, np.array([0.0, 2.0]), np.array([0.5, 3.0]))
    assert np.all((lo <= 4.0) & (4.0 < hi)) and _closed(lo, hi)


def test_bracket_root_stops_at_exactly_four_ulp():
    """4 ulp(2048) = 2^-39: a bracket below 2048 that wide is closed, and one
    twice as wide is bisected once."""
    hi = 2048.0
    for c in (hi - 2.0**-41, hi - 2.0**-39 + 2.0**-41):
        assert numerics.bracket_root(_above([c]), hi - 2.0**-39, hi) == (hi - 2.0**-39, hi)
    assert numerics.bracket_root(_above([hi - 2.0**-41]), hi - 2.0**-38, hi) == (hi - 2.0**-39, hi)


def test_bracket_root_floor_at_zero():
    """At a boundary 0 the 1e-12 floor stops the search, not 4 ulp of a tiny hi."""
    lo, hi = numerics.bracket_root(_above([0.0]), -3.0, 1.0)
    assert lo.shape == () and lo <= 0.0 < hi and hi - lo <= 1e-12
    assert hi - lo > 0.5e-12  # one more halving would have closed it too


def test_bracket_root_elements_keep_their_singleton_bits():
    """A narrow bracket beside a wide one stops at its own width, with the
    bits of its call alone, in either order."""
    c = np.array([0.7, 1e9 + 0.3])
    lo, hi = numerics.bracket_root(_above(c), np.array([0.5, 0.0]), np.array([1.0, 1.0]))
    for k, (start_lo, start_hi) in enumerate([(0.5, 1.0), (0.0, 1.0)]):
        alone = numerics.bracket_root(_above(c[k : k + 1]), start_lo, start_hi)
        assert (lo[k], hi[k]) == (float(alone[0]), float(alone[1]))
    swapped = numerics.bracket_root(_above(c[::-1]), np.array([0.0, 0.5]), np.array([1.0, 1.0]))
    assert swapped[0].tolist() == lo[::-1].tolist() and swapped[1].tolist() == hi[::-1].tolist()
    assert hi[0] - lo[0] > 0.5e-12  # the narrow one stopped as soon as it closed


def test_sstar_ratio_calls_no_quadpack(monkeypatch, chains):
    """The S* profile integrates all its grid points in one call of the
    batched kernel and runs no other integral."""
    hat = chains["g1"].hat
    hat.pos_mean  # an integral of its own, cached
    calls = []
    kernel = numerics.adaptive_gk21

    def counted(*args, **kwargs):
        calls.append(args)
        return kernel(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("a tail integral was computed")

    monkeypatch.setattr(diagnostics, "adaptive_gk21", counted)
    monkeypatch.setattr(tails, "integrate", refuse)
    assert sstar_ratio(hat).ok and len(calls) == 1


def _sweep_plane(last_decade_gain):
    """An increment residual plane on x = 1..1e3 whose running maximum is 0
    before the last decade [100, 1e3] and `last_decade_gain` at its end."""
    xs = 10.0 ** (np.arange(31) / 10.0)
    ys = xs[:, None] * np.array([0.1, 0.2, 0.3])
    res = np.zeros(ys.shape)
    res[-1, 1] = last_decade_gain
    return xs, ys, res


def test_increment_sweep_gain_of_exactly_1e_6_is_not_stabilized():
    xs, ys, res = _sweep_plane(1e-6)
    running_max, ok, witnesses = numerics.increment_sweep(xs, ys, res, "k")
    assert (running_max, ok) == (1e-6, False)
    assert witnesses[0] == {"kind": "k", "x": float(xs[-1]), "y": float(ys[-1, 1]), "residual": 1e-6}
    below = math.nextafter(1e-6, 0.0)
    running_max, ok, witnesses = numerics.increment_sweep(*_sweep_plane(below), "k")
    assert (running_max, ok, witnesses) == (below, True, [])


def test_increment_sweep_ranks_ties_to_the_larger_x():
    """The five worst last-decade rows, largest first, equal row maxima with
    the larger x first, each at the first column of its maximum.  The last
    decade has 21 rows, more than numpy's default sort keeps in order."""
    xs = 10.0 ** (np.arange(61) / 20.0)  # the last decade is rows 40..60
    ys = xs[:, None] * np.array([0.1, 0.2, 0.3])
    res = np.zeros(ys.shape)
    res[:, 0] = -1.0
    row_max = {41: 2.0, 44: 5.0, 45: 2.0, 47: 3.0, 50: 2.0, 53: 2.0, 58: 2.0, 60: 1.0}
    for row, value in row_max.items():
        res[row, 1:] = value  # a tie inside the row too: the first column counts
    res[5, 2] = 9.0  # outside the last decade: it sets the running maximum, never a witness
    running_max, ok, witnesses = numerics.increment_sweep(xs, ys, res, "k")
    assert (running_max, ok) == (9.0, True)  # the last decade gained nothing
    res[5, 2] = 0.0
    running_max, ok, witnesses = numerics.increment_sweep(xs, ys, res, "k")
    assert (running_max, ok) == (5.0, False)
    assert [(w["x"], w["y"], w["residual"]) for w in witnesses] == [
        (float(xs[r]), float(ys[r, 1]), row_max[r]) for r in (44, 47, 58, 53, 50)
    ]


def test_increment_sweep_last_decade_includes_its_lower_end():
    """A gain at exactly x = xs[-1] / 10 is a last-decade gain."""
    xs, ys, res = _sweep_plane(0.0)
    assert xs[20] == xs[-1] / 10.0
    res[20, 0] = 1.0
    running_max, ok, witnesses = numerics.increment_sweep(xs, ys, res, "k")
    assert (running_max, ok) == (1.0, False)
    assert witnesses[0] == {"kind": "k", "x": 100.0, "y": float(ys[20, 0]), "residual": 1.0}


def test_increment_sweep_carries_nan_into_the_verdict():
    xs, ys, res = _sweep_plane(0.0)
    res[3, 2] = np.nan
    running_max, ok, witnesses = numerics.increment_sweep(xs, ys, res, "k")
    assert math.isnan(running_max) and not ok and len(witnesses) == 5


def test_layertrace_names_exist():
    """Every function the benchmark's layer trace wraps is a callable of its
    ladderlab module; `Tracer.install` looks each one up by name."""
    import importlib
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("_layertrace_under_test", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    for layer, names in layertrace.FUNCTIONS.items():
        module = importlib.import_module(f"ladderlab.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"ladderlab.{layer}.{name}"
