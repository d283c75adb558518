import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

from scipy import integrate

import ladderlab

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
