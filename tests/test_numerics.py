import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from scipy import integrate

import ladderlab
from ladderlab import ShiftedTail, build_chain, certify, make_builtin, numerics, sstar_ratio

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
        self.types = set()

    def quad(self, f, a, b, **opts):
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
    sstar_ratio(chain.hat)
    sstar_ratio(ShiftedTail(chain.trunc, chain.shift))
    assert spy.types == {float}
