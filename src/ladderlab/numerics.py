"""Numerical kernels shared by the certification, construction and diagnostics.

The only ladderlab module that calls ``scipy.integrate``.  Callers pass their
own tolerances and decide for themselves what a non-converged result means.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate


def quad(
    f, a: float, b: float, epsabs: float = 1e-15, epsrel: float = 1e-10, limit: int = 200
) -> float:
    """Integral of f over [a, b] by QUADPACK (Piessens et al., 1983).

    QUADPACK calls f once per abscissa, so f maps a Python float to a Python
    float, built from the ``scalar_tail``/``scalar_log_tail`` closures of
    ``tails`` and the ``scalar_eval``/``scalar_inverse`` fields of ``growth``:
    no array fallback and its 0-d overhead (one exception, named in ``tails``).

    Far-tail integrands sit at rounding-noise level by design; convergence is
    governed by the callers' own decay criteria and the closed-form checks in
    the test suite, so the library's roundoff warning carries no signal here.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, _ = integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)
    return value


def scalar_power(x: float, p: float) -> float:
    """x ** p as numpy computes it on a float64 scalar: libm's pow, inf or nan
    in place of an exception.

    The array code's ``v ** p`` acts on such scalars, since a ufunc on a 0-d
    array returns one; ``np.power`` on a float takes numpy's vectorized loop
    instead and differs in the last bit.
    """
    return float(np.float64(x) ** p)


def doubling_integral(
    f, start: float, reach: float, rel_tol: float, direction: int = 1, floor: float = 0.0,
    total: float = 0.0, **quad_opts,
) -> tuple[float, bool]:
    """Integrate f from start toward +inf (direction 1) or -inf (direction -1).

    The segments have width max(|start|, 1), doubling each time, and their
    integrals are added to `total` in order.  Returns (total, True) once a
    segment adds less than rel_tol * max(|total|, floor), and (total, False)
    once the segments reach |x| = reach without that happening.
    """
    lo = start
    width = max(abs(start), 1.0)
    while abs(lo) < reach:
        hi = lo + direction * width
        part = quad(f, min(lo, hi), max(lo, hi), **quad_opts)
        total += part
        if abs(part) < rel_tol * max(abs(total), floor):
            return total, True
        lo = hi
        width *= 2.0
    return total, False


def stabilized_running_max(xs: np.ndarray, row_max: np.ndarray) -> tuple[float, np.ndarray, bool]:
    """Running maximum of row_max along the increasing grid xs.

    Returns the final running maximum, the mask of the last decade
    xs >= xs[-1] / 10, and whether the running maximum gains less than 1e-6
    over that decade.
    """
    running = np.maximum.accumulate(row_max)
    in_last = xs >= xs[-1] / 10.0
    rm_all = float(running[-1])
    rm_before = float(running[~in_last][-1]) if (~in_last).any() else -math.inf
    return rm_all, in_last, rm_all - rm_before < 1e-6
