"""Numerical kernels shared by the certification, construction and diagnostics.

One quadrature serves every integral: ``adaptive_gk21``, QUADPACK's 21-point
Gauss-Kronrod rule and error estimate (Piessens et al., 1983) applied to many
intervals at once, on an array integrand.  ``diagnostics`` calls it for the
S* convolution profiles; ``integrate`` builds on it the means, the splice and
truncation integrals and the growth integrals, finite pieces and doubling
half-lines, many of them per call.  Callers pass their own tolerances and
decide for themselves what a non-converged result means.

One search serves every monotone crossing: ``bracket_root``, growth of a
bracket then bisection, each element on its own bracket and stop.  It
computes the g3 and table growth inverses, the generic tail quantile (so
also the majorant grid's end of a base without a closed-form quantile) and
``diagnostics.usable_tail_horizon``, the depth at which a tail underflows.

One sweep serves both increment bounds, g(x) - g(x - y) <= gamma g(y) + A
of the growth function and its hazard-scale twin on -log tail:
``increment_residual`` evaluates the residual on a caller's grid, and
``increment_sweep`` fits A as its running maximum, with the last-decade
verdict and the worst rows as witnesses.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np


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
_QK21_ORDER = [1, 3, 5, 7, 9, 0, 2, 4, 6, 8]  # qk21 adds the Gauss nodes first
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
    absc = _XGK[:10, None] * hlgth
    y = np.concatenate([centr - absc, centr[None], centr + absc])  # node k of interval i at [k, i]
    fv = f(np.tile(group, 21), y.ravel()).reshape(21, -1)
    fv1, fc, fv2 = fv[:10], fv[10], fv[11:]
    fsum = fv1 + fv2
    # each sum adds its terms one row at a time in qk21's order:
    # the centre, then the Gauss nodes, then the other Kronrod nodes
    terms = np.empty((11, a.size))
    terms[0] = _WGK[10] * fc
    terms[1:] = (_WGK[:10, None] * fsum)[_QK21_ORDER]
    resk = reduce(np.add, terms)
    resg = reduce(np.add, _WG[:, None] * fsum[1::2])
    terms[0] = np.abs(terms[0])
    terms[1:] = (_WGK[:10, None] * (np.abs(fv1) + np.abs(fv2)))[_QK21_ORDER]
    resabs = reduce(np.add, terms)
    reskh = resk * 0.5
    terms[0] = _WGK[10] * np.abs(fc - reskh)
    terms[1:] = _WGK[:10, None] * (np.abs(fv1 - reskh) + np.abs(fv2 - reskh))
    resasc = reduce(np.add, terms)
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
    f, group: np.ndarray, a: np.ndarray, b: np.ndarray, epsrel: float, limit: int, epsabs: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of f over the union of each group's intervals, all groups at once.

    Interval i = [a_i, b_i] belongs to group group_i; the groups are
    0, 1, ..., and each group's intervals come in increasing order.  f(group,
    y) is an array integrand (see `_qk21`).  Every interval gets QUADPACK's
    21-point Gauss-Kronrod rule and error estimate (Piessens et al., 1983).
    A group is done once its summed error is at most max(epsabs, epsrel
    |result|), QUADPACK's stop rule; until then each pass bisects in place
    every interval of the group whose error exceeds that bound over the
    group's interval count, the worst first, up to `limit` intervals in the
    group.  A group at the limit stops.

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
        bound = np.maximum(epsabs, epsrel * np.abs(total))
        live &= np.bincount(group, err, n_groups) > bound
        capped |= live & (count >= limit)
        live &= count < limit
        if not live.any():
            return total, capped
        pick = np.flatnonzero(live[group] & (err > (bound / count)[group]))
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


def integrate(jobs, reach: float, rel_tol: float, floor: float = 0.0, total: float = 0.0, epsabs: float = 1e-15):
    """Many integrals of array integrands, computed together on `adaptive_gk21`.

    Each job (f, edges, direction) integrates f over the pieces between
    consecutive `edges`, and with direction +1 (-1) on from edges[-1] toward
    +inf (from edges[0] toward -inf) by doubling: segments of width
    max(|start|, 1), doubling each time, whose integrals are added to `total`
    in order until one adds less than rel_tol * max(|total|, floor), or the
    segments reach |x| = reach without that.  Every piece and every segment
    is its own integral, to QUADPACK's stop rule err <= max(epsabs, 1e-10 |I|)
    with at most 200 intervals.  The segments go in two rounds, the first
    `_FIRST_ROUND` of each job and then the rest of the jobs still open, and
    the sequential rule is applied to their results.  So no value depends on
    the rounds or on the other jobs of the call, as long as f's value at a
    point does not depend on the other points it is evaluated with.

    Returns (values, converged): per job, its pieces added in order to 0.0
    plus the doubling total, and whether the doubling stopped before `reach`
    (True without one).  The integrands run with floating-point warnings
    off: a segment past a job's stop is discarded, and a non-finite value is
    the caller's to judge.
    """
    fns: dict = {}
    fid = np.array([fns.setdefault(f, len(fns)) for f, _, _ in jobs], dtype=np.intp)
    fns = list(fns)
    pieces = [(j, lo, hi) for j, (_, edges, _) in enumerate(jobs) for lo, hi in zip(edges[:-1], edges[1:])]
    halves = {}  # the open doubling jobs: [next segment's start, its width, running total]
    for j, (_, edges, direction) in enumerate(jobs):
        if direction:
            start = edges[-1] if direction > 0 else edges[0]
            halves[j] = [start, max(abs(start), 1.0), total]
    values, converged = [0.0] * len(jobs), [j not in halves for j in range(len(jobs))]
    with np.errstate(all="ignore"):
        for take in (_FIRST_ROUND, math.inf):
            work = [(j, *seg) for j, half in halves.items() for seg in _next_segments(half, jobs[j][2], take, reach)]
            results = _integrals(fns, fid, pieces + work, epsabs)
            for (j, _, _), part in zip(pieces, results):
                values[j] += part
            for (j, _, _), part in zip(work, results[len(pieces) :]):
                if not converged[j]:
                    halves[j][2] += part
                    converged[j] = abs(part) < rel_tol * max(abs(halves[j][2]), floor)
            for j in [j for j, half in halves.items() if converged[j] or abs(half[0]) >= reach]:
                values[j] += halves.pop(j)[2]
            pieces = []
    return values, converged


_FIRST_ROUND = 16  # doubling segments per job in the first round of `integrate`


def _next_segments(half: list, direction: int, count: float, reach: float) -> list[tuple[float, float]]:
    """Up to `count` next segments of an open doubling of `integrate`, advancing its start and width."""
    lo, width = half[0], half[1]
    out = []
    while len(out) < count and abs(lo) < reach:
        hi = lo + direction * width
        out.append((min(lo, hi), max(lo, hi)))
        lo = hi
        width *= 2.0
    half[0], half[1] = lo, width
    return out


def _integrals(fns, fid, work, epsabs: float) -> list[float]:
    """The integral of each (job, lo, hi) of `work`, each its own group of one
    `adaptive_gk21` call; every node goes to its job's integrand fns[fid[job]]."""
    if not work:
        return []
    owner = fid[np.array([j for j, _, _ in work], dtype=np.intp)]

    def f(group, y):
        ids = owner[group]
        out = np.empty(y.size)
        for k, fn in enumerate(fns):
            sel = ids == k
            if sel.any():
                out[sel] = fn(y[sel])
        return out

    lo, hi = np.array([w[1] for w in work]), np.array([w[2] for w in work])
    total, _ = adaptive_gk21(f, np.arange(len(work)), lo, hi, 1e-10, 200, epsabs)
    return total.tolist()


def bracket_root(pred, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Bracket, element by element, the point where a monotone predicate turns True.

    pred(x, i) tells for each point x[k] of element i[k] (1-d arrays; i
    indexes the flattened broadcast of lo and hi) whether it lies above that
    element's boundary: False below it, True above, and its value at a point
    must not depend on the other points of the call.  Each element starts
    from its bracket [lo, hi], lo < hi.  An end on the wrong side moves
    outward, the bracket becoming [hi, hi + 4 w] while pred(hi) is False and
    [lo - 4 w, lo] while pred(lo) is True, w = hi - lo; ValueError if some
    element has no bracket after 200 steps, or one with an end at or past
    +-1e307, where the sum of two ends could overflow.  Then each element is
    bisected until its own bracket has hi - lo <= max(1e-12, 4 ulp(hi)).  No
    step of an element reads another element, so its bits are those of its
    call alone.

    Returns (lo, hi), pred(lo) False and pred(hi) True, in the broadcast shape.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    shape = lo.shape
    lo, hi = lo.ravel().copy(), hi.ravel().copy()
    i = np.arange(lo.size)
    held = np.zeros(lo.size, dtype=bool)  # pred(lo) is False: probe hi
    for _ in range(200):
        x = np.where(held, hi, lo)
        p = pred(x, i)
        if (p & held).all():
            break
        moved = p ^ held  # a True lo or a False hi becomes the bracket's other end
        step = 4.0 * (hi - lo)
        lo, hi = np.where(moved, np.where(p, x - step, x), lo), np.where(moved, np.where(p, x, x + step), hi)
        held |= ~p
    if not ((p & held).all() and (np.abs([lo, hi]) < 1e307).all()):
        raise ValueError("no bracket inside +-1e307 within 200 steps")
    live = hi - lo > _stop_width(hi)
    while live.any():
        mid = 0.5 * (lo + hi)
        up = pred(mid, i) & live
        hi, lo = np.where(up, mid, hi), np.where(up ^ live, mid, lo)
        live &= hi - lo > _stop_width(hi)
    return lo.reshape(shape), hi.reshape(shape)


def _stop_width(x: np.ndarray) -> np.ndarray:
    """max(1e-12, 4 ulp(x)): a normal x's exponent bits give 2^floor(log2 |x|) = 2^52 ulp(x)."""
    return np.maximum(1e-12, (x.view(np.int64) & _EXPONENT_BITS).view(float) * 2.0**-50)


_EXPONENT_BITS = np.int64(0x7FF0000000000000)


def increment_residual(r, x, y, gamma: float) -> np.ndarray:
    """r(x) - r(x - y) - gamma r(y), the residual of the increment bound
    r(x) - r(x - y) <= gamma r(y) + A, on the broadcast of x and y."""
    return r(x) - r(x - y) - gamma * r(y)


def increment_sweep(xs: np.ndarray, ys: np.ndarray, res: np.ndarray, kind: str) -> tuple[float, bool, list]:
    """Fit the slack A of an increment bound from its residual plane.

    res[i, j] is the residual at x = xs[i], y = ys[i, j], xs increasing.  The
    fit is the running maximum of the row maxima; it is stabilized when it
    gains less than 1e-6 over the last decade xs >= xs[-1] / 10.  A nan row
    maximum carries into the running maximum, which then never stabilizes.

    Returns (running maximum, stabilized, witnesses).  Unless stabilized, the
    witnesses are the five last-decade rows with the largest row maxima,
    largest first and of equal ones the larger x first, each at the first y
    of its maximum: {"kind": kind, "x", "y", "residual"} records.
    """
    row_max = res.max(axis=1)
    running = np.maximum.accumulate(row_max)
    in_last = xs >= xs[-1] / 10.0
    rm_all = float(running[-1])
    rm_before = float(running[~in_last][-1]) if (~in_last).any() else -math.inf
    if rm_all - rm_before < 1e-6:
        return rm_all, True, []
    rows = np.flatnonzero(in_last)[np.argsort(row_max[in_last], kind="stable")[::-1][:5]]
    cols = res[rows].argmax(axis=1)
    witnesses = [
        {"kind": kind, "x": float(xs[r]), "y": float(ys[r, c]), "residual": float(res[r, c])} for r, c in zip(rows, cols)
    ]
    return rm_all, False, witnesses
