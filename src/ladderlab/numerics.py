"""Numerical kernels shared by the certification, construction and diagnostics.

The only ladderlab module that calls ``scipy.integrate``.  Callers pass their
own tolerances and decide for themselves what a non-converged result means.

Two quadratures: ``quad`` is QUADPACK on a scalar integrand, for the means
and growth moments; ``adaptive_gk21`` is QUADPACK's 21-point Gauss-Kronrod
rule and error estimate applied to many intervals at once, on an array
integrand, for the S* convolution profiles of ``diagnostics``.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate


def quad(f, a: float, b: float, epsabs: float = 1e-15) -> float:
    """Integral of f over [a, b] by QUADPACK (Piessens et al., 1983), to
    relative error 1e-10 with at most 200 subintervals.

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
        value, _ = integrate.quad(f, a, b, epsabs=epsabs, epsrel=1e-10, limit=200)
    return value


# QUADPACK's qk21: the 21-point Kronrod abscissae in [0, 1) from the outside
# in, the centre 0 last (the 10-point Gauss-Legendre nodes sit at the odd
# positions), their Kronrod weights, and the Gauss weights of the odd positions.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525452540, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_EPMACH, _UFLOW = float(np.finfo(float).eps), float(np.finfo(float).tiny)
_SLICE_NODES = 1 << 16  # integrand nodes per call of f


def _qk21(f, group: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QUADPACK's qk21 on every interval [a_i, b_i]: (result, abserr) arrays.

    f(group, y) maps each node y with its interval's group to the integrand.
    The intervals go in slices of at most `_SLICE_NODES` nodes, so no
    temporary grows with their number.  The sums run in qk21's order, one
    interval per array element, so each interval's bits do not depend on the
    others.
    """
    res, err = np.empty(a.size), np.empty(a.size)
    step = _SLICE_NODES // 21
    for lo in range(0, a.size, step):
        part = slice(lo, lo + step)
        res[part], err[part] = _qk21_slice(f, group[part], a[part], b[part])
    return res, err


def _qk21_slice(f, group, a, b):
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    absc = hlgth[:, None] * _XGK[:10]
    y = np.concatenate([centr[:, None] - absc, centr[:, None], centr[:, None] + absc], axis=1)
    fv = f(np.repeat(group, 21), y.ravel()).reshape(-1, 21)
    fv1, fc, fv2 = fv[:, :10], fv[:, 10], fv[:, 11:]
    resg = np.zeros(a.size)
    resk = _WGK[10] * fc
    resabs = np.abs(resk)
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):  # the Gauss nodes first, as qk21 adds them
        fsum = fv1[:, j] + fv2[:, j]
        if j % 2:
            resg += _WG[j // 2] * fsum
        resk += _WGK[j] * fsum
        resabs += _WGK[j] * (np.abs(fv1[:, j]) + np.abs(fv2[:, j]))
    reskh = resk * 0.5
    resasc = _WGK[10] * np.abs(fc - reskh)
    for j in range(10):
        resasc += _WGK[j] * (np.abs(fv1[:, j] - reskh) + np.abs(fv2[:, j] - reskh))
    dhlgth = np.abs(hlgth)
    resabs *= dhlgth
    resasc *= dhlgth
    abserr = np.abs((resk - resg) * hlgth)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * abserr / resasc) ** 1.5)
    abserr = np.where((resasc != 0.0) & (abserr != 0.0), scaled, abserr)
    abserr = np.where(resabs > _UFLOW / (50.0 * _EPMACH), np.maximum(50.0 * _EPMACH * resabs, abserr), abserr)
    return resk * hlgth, abserr


def adaptive_gk21(
    f, group: np.ndarray, a: np.ndarray, b: np.ndarray, epsrel: float, limit: int
) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of f over the union of each group's intervals, all groups at once.

    Interval i = [a_i, b_i] belongs to group group_i; the groups are
    0, 1, ..., and each group's intervals come in increasing order.  f(group,
    y) is an array integrand (see `_qk21`).  Every interval gets QUADPACK's
    21-point Gauss-Kronrod rule and error estimate (Piessens et al., 1983).
    A group is done once its summed error is at most epsrel times its summed
    result; until then each pass bisects in place every interval of the group
    whose error exceeds its share epsrel |result| / intervals, the worst
    first, up to `limit` intervals in the group.  A group at the limit stops.

    Returns (integral, capped): per group, the interval results added in
    order of their left ends, and whether the group stopped at the limit
    before reaching epsrel.  Every decision and sum of a group reads that
    group alone, so its bits do not depend on which other groups share the call.
    """
    group = np.asarray(group, dtype=np.intp)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n_groups = int(group[-1]) + 1
    res, err = _qk21(f, group, a, b)
    live = np.ones(n_groups, dtype=bool)
    capped = np.zeros(n_groups, dtype=bool)
    while True:
        total = np.bincount(group, res, n_groups)  # adds each group's results in array order
        count = np.bincount(group, minlength=n_groups)
        live &= np.bincount(group, err, n_groups) > epsrel * np.abs(total)
        capped |= live & (count >= limit)
        live &= count < limit
        if not live.any():
            return total, capped
        pick = np.flatnonzero(live[group] & (err > (epsrel * np.abs(total) / count)[group]))
        order = np.lexsort((-err[pick], group[pick]))  # worst first within each group
        pick, by_group = pick[order], group[pick[order]]
        rank = np.arange(pick.size) - np.searchsorted(by_group, by_group)
        split = np.zeros(a.size, dtype=np.intp)
        split[pick[rank < (limit - count)[by_group]]] = 1
        src = np.repeat(np.arange(a.size), 1 + split)
        left = np.zeros(src.size, dtype=bool)
        left[:-1] = src[:-1] == src[1:]
        right = np.roll(left, 1)
        mid = 0.5 * (a[src] + b[src])
        group, a, b = group[src], np.where(right, mid, a[src]), np.where(left, mid, b[src])
        res, err = res[src], err[src]
        new = left | right
        res[new], err[new] = _qk21(f, group[new], a[new], b[new])


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
