import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy import integrate

import ladderlab
from ladderlab import GrowthFunction, ShiftedTail, build_chain, certify, make_builtin, numerics, sstar_ratio, tails
from ladderlab.cli import main

from conftest import CHAIN_SPECS

SRC = Path(ladderlab.__file__).resolve().parents[1]


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, ladderlab; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_only_numerics_binds_scipy_integrate():
    binders = set()
    for info in pkgutil.iter_modules(ladderlab.__path__):
        module = importlib.import_module(f"ladderlab.{info.name}")
        if any(value is integrate or value is integrate.quad for value in vars(module).values()):
            binders.add(info.name)
    assert binders == {"numerics"}


class _IntegrandTypes:
    """Stands in for scipy.integrate inside numerics; records each integrand's
    return type at its interval midpoint, then runs the real quad."""

    IntegrationWarning = integrate.IntegrationWarning

    def __init__(self):
        self.types, self.calls = set(), 0

    def quad(self, f, a, b, **opts):
        self.calls += 1
        self.types.add(type(f(0.5 * (a + b))))
        return integrate.quad(f, a, b, **opts)


@pytest.mark.parametrize("key", sorted(CHAIN_SPECS))
def test_quad_integrands_return_python_floats(monkeypatch, key):
    # QUADPACK calls the integrand once per abscissa: a 0-d array or numpy
    # scalar there costs numpy's per-call overhead many thousand times
    spy = _IntegrandTypes()
    monkeypatch.setattr(numerics, "integrate", spy)
    family, param, base_factory = CHAIN_SPECS[key]
    g = make_builtin(family, param)
    chain = build_chain(base_factory(), g, certify(g))
    ShiftedTail(chain.trunc, chain.shift).pos_mean
    chain.hat.pos_mean
    assert spy.calls > 0 and spy.types == {float}


class _ArrayPathGuard:
    """Stands in for scipy.integrate inside numerics; counts the array tail,
    log-tail, g and inverse calls made while an integrand runs."""

    IntegrationWarning = integrate.IntegrationWarning

    def __init__(self, monkeypatch):
        self.depth, self.calls, self.quads = 0, {}, 0
        classes, todo = [], [tails.TailSpec]
        while todo:
            classes.append(todo.pop())
            todo.extend(classes[-1].__subclasses__())
        targets = [(cls, name) for cls in classes for name in ("tail", "log_tail") if name in vars(cls)]
        for owner, name in targets + [(GrowthFunction, "__call__"), (GrowthFunction, "inverse")]:
            monkeypatch.setattr(owner, name, self._counted(f"{owner.__name__}.{name}", vars(owner)[name]))

    def _counted(self, key, fn):
        def wrapper(*args, **kwargs):
            if self.depth:
                self.calls[key] = self.calls.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def quad(self, f, a, b, **opts):
        self.quads += 1

        def integrand(x):
            self.depth += 1
            try:
                return f(x)
            finally:
                self.depth -= 1

        return integrate.quad(integrand, a, b, **opts)


def test_no_integrand_reaches_the_array_code(monkeypatch, tmp_path):
    """Every integrand the CLI stages build on every config is float -> float
    all the way down: inside one, no TailSpec tail or log_tail and no
    GrowthFunction call or inverse runs."""
    guard = _ArrayPathGuard(monkeypatch)
    monkeypatch.setattr(numerics, "integrate", guard)
    flagged = {}
    for path in sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml")):
        raw, cfg = yaml.safe_load(path.read_text()), tmp_path / path.name
        cfg.write_text(yaml.safe_dump({**raw, "n_samples": 2000}))
        stages = ["check", "construct"] if "growth" in raw else []
        for stage in stages + ["simulate", "verify"]:
            guard.calls = {}
            assert main([stage, "--config", str(cfg), "--out", str(tmp_path / path.stem)]) == 0, (path.stem, stage)
            if guard.calls:
                flagged[f"{path.stem} {stage}"] = guard.calls
    assert guard.quads > 0 and flagged == {}


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


def test_sstar_ratio_calls_no_quadpack(monkeypatch, chains):
    """The S* profile runs on the batched kernel alone: QUADPACK is not called."""
    hat = chains["g1"].hat
    hat.pos_mean  # a quadrature of its own, cached
    spy = _IntegrandTypes()
    monkeypatch.setattr(numerics, "integrate", spy)
    assert sstar_ratio(hat).ok and spy.calls == 0
