"""Independent oracles for the test suite.

These are deliberately separate from the library code paths they check:
an exhaustive level-occupation recursion for the two-point walk, a scalar
waiting-time recursion for single-server queues, and closed forms for the
integrals the quadrature routines must reproduce and for the D/M/1 busy
cycle, the row-by-row `csv.writer` form of `samples.csv`, 30-digit
`mpmath.quad` integrals of the family tails, written from their formulas,
and the moment estimators and check suites over whole columns, with one
numpy reduction per quantity.
"""

from __future__ import annotations

import csv
import math

import mpmath
import numpy as np

from ladderlab import rng
from ladderlab.estimate import MomentEstimate, RatioCheckReport, WaldReport, _wilson_interval


def bernoulli_descent_pmf(p: float, depth: int) -> np.ndarray:
    """Exact P{tau = n} for n = 1..depth for the +1/-1 walk with P{+1} = p.

    Dynamic program over the occupation probabilities of positive levels:
    from level l the walk rises to l+1 with probability p or falls to l-1
    with probability 1-p, stopping when it reaches level zero (partial sum
    <= 0).  The leftover alive mass at `depth` must be negligible for the
    pmf to be usable as a moment oracle; callers should check `sum` closeness
    to one.
    """
    q = 1.0 - p
    pmf = np.zeros(depth + 1)
    alive = np.zeros(depth + 2)  # alive[l]: at current step, S = l > 0 unstopped
    pmf[1] = q
    alive[1] = p
    for n in range(2, depth + 1):
        nxt = np.zeros_like(alive)
        nxt[2:] = p * alive[1:-1]
        nxt[1:-1] += q * alive[2:]
        pmf[n] = q * alive[1]
        alive = nxt
    return pmf[1:]


def bernoulli_descent_moment(p: float, fn, depth: int = 4000) -> float:
    """Sum of fn(n) P{tau = n}; requires the alive remainder to be negligible."""
    pmf = bernoulli_descent_pmf(p, depth)
    leftover = 1.0 - pmf.sum()
    if not leftover < 1e-12:
        raise ValueError(f"enumeration depth {depth} leaves {leftover} unstopped mass")
    ns = np.arange(1, depth + 1, dtype=float)
    return float(np.sum(pmf * fn(ns)))


def weibull_exp_tail_integral(c: float) -> float:
    """Closed form of the integral of exp(-c sqrt(x)) over [1, inf)."""
    return 2.0 * (c + 1.0) / (c * c) * math.exp(-c)


def exponential_self_convolution_ratio(x: float, mean: float = 1.0) -> float:
    """For the exponential tail the class ratio is exactly x / (2 m)."""
    return x / (2.0 * mean)


def lindley_busy_cycles(seed: int, n: int, service_quantile, interarrival_quantile, block: int = 16):
    """Customers served in the first busy cycle of a FIFO single-server queue.

    Queue i (streams 0..n-1) iterates W <- max(0, W + sigma - t) from W = 0,
    one customer at a time, and stops at the first customer who leaves the
    server idle (W + sigma - t <= 0).  Customer k's service sigma and the
    following interarrival time t come from the two uniforms of cell
    (seed, i, k) through the given scalar inverse CDFs.  Returns the counts and
    the final W + sigma - t of every queue.
    """
    u0, u1 = rng.uniform_pair(seed, np.arange(n)[:, None], np.arange(block)[None, :])
    served = np.empty(n, dtype=np.int64)
    last = np.empty(n)
    for i in range(n):
        us, ut = u0[i].tolist(), u1[i].tolist()
        w, k = 0.0, 0
        while True:
            if k == len(us):
                more = rng.uniform_pair(seed, i, np.arange(k, 2 * k))
                us += more[0].tolist()
                ut += more[1].tolist()
            d = w + service_quantile(us[k]) - interarrival_quantile(ut[k])
            k += 1
            if d <= 0.0:
                break
            w = d
        served[i], last[i] = k, d
    return served, last


def dm1_busy_cycle_mean(service_mean: float, interarrival: float) -> float:
    """Mean number served per busy cycle of the D/M/1 queue.

    GI/M/1 theory (Asmussen, Applied Probability and Queues, 2003): the mean
    is 1/(1 - s), with s the root in (0, 1) of s = A(mu (1 - s)), where A is
    the Laplace transform of the interarrival time and mu the service rate.
    For a deterministic interarrival d, A(x) = exp(-d x).  The map is
    increasing and convex, so fixed-point iteration from 0 climbs to its
    smallest root, the one in (0, 1) for a stable queue.
    """
    s = 0.0
    for _ in range(500):
        s = math.exp(-interarrival * (1.0 - s) / service_mean)
    return 1.0 / (1.0 - s)


def write_samples_csv_rowwise(path, batch) -> None:
    """`samples.csv` written one row at a time through `csv.writer`.

    Integers by `int`, floats by `repr(float(.))`, `psi_max` only when the
    batch has a walk shift: the format every version of the CLI has written.
    """
    with_psi = batch.shift != 0.0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["stream_id", "tau", "s_tau", "m_tau", "censored"] + ["psi_max"] * with_psi)
        for i in range(batch.n):
            row = [
                batch.first_stream + i,
                int(batch.tau[i]),
                repr(float(batch.s_tau[i])),
                repr(float(batch.m_tau[i])),
                int(batch.censored[i]),
            ]
            if with_psi:
                row.append(repr(float(batch.psi_max[i])))
            writer.writerow(row)


_MP_DPS = 30


def lognormal_log_tail_mp(mu: float, sigma2: float, shift: float):
    """log P{shift + exp(mu + sigma N) > x} as an mpmath function of x."""
    mu, sigma, shift = mpmath.mpf(mu), mpmath.sqrt(mpmath.mpf(sigma2)), mpmath.mpf(shift)

    def log_tail(x):
        if x <= shift:
            return mpmath.mpf(0)
        z = (mpmath.log(x - shift) - mu) / sigma
        return mpmath.log(mpmath.erfc(z / mpmath.sqrt(2)) / 2)

    return log_tail


def log_power_majorant_log_tail_mp(alpha: float, k: float):
    """log min(1, K exp(-(log max(x, 1))^alpha)), the g1 dominating increment."""
    alpha, ln_k = mpmath.mpf(alpha), mpmath.log(mpmath.mpf(k))

    def log_tail(x):
        return min(mpmath.mpf(0), ln_k - mpmath.log(max(x, 1)) ** alpha)

    return log_tail


def _split_quad(f, a, b, knots=()):
    """mpmath.quad over [a, b] split at the given knots and on a geometric grid."""
    pts = {mpmath.mpf(a), mpmath.mpf(b)}
    pts |= {mpmath.mpf(k) for k in knots if a < k < b}
    edge = mpmath.mpf(1)
    while edge < b:
        if edge > a:
            pts.add(edge)
        edge *= 4
    return mpmath.quad(f, sorted(pts))


def lognormal_pos_mean(mu: float, sigma2: float, shift: float) -> float:
    """Integral of the shifted-lognormal tail over (0, inf), to 30 digits."""
    with mpmath.workdps(_MP_DPS):
        log_tail = lognormal_log_tail_mp(mu, sigma2, shift)
        lo = max(mpmath.mpf(shift), 0)
        body = lo  # the tail is one on (0, shift] when shift > 0
        upper = mpmath.quad(lambda x: mpmath.exp(log_tail(x)), [lo, lo + 1, lo + 10, lo + 100, mpmath.inf])
        return float(body + upper)


def self_convolution_ratio(log_tail, x: float, m: float, knots=()) -> float:
    """int_0^x tail(x-y) tail(y) dy / (2 m tail(x)) by mpmath, to 30 digits.

    log_tail is an mpmath function; knots are the points where it has a kink
    (the integrand is folded at x/2, so each knot and its mirror are split).
    """
    with mpmath.workdps(_MP_DPS):
        x = mpmath.mpf(x)
        lt_x = log_tail(x)
        half = x / 2
        mirrored = [*knots, *(x - k for k in knots)]
        folded = _split_quad(lambda y: mpmath.exp(log_tail(x - y) + log_tail(y) - lt_x), 0, half, mirrored)
        return float(2 * folded / (2 * mpmath.mpf(m)))


def whole_column_estimate(batch, fn, estimand: dict) -> MomentEstimate:
    """`estimate._estimate_functional` with full-length temporaries: a sort, a square, masks."""
    with np.errstate(over="ignore"):
        values = fn(batch.tau.astype(float))
        squares = np.square(values)
    n = int(values.size)
    descending = np.sort(values)[::-1]
    total = float(values.sum())
    total_sq = float(squares.sum())
    censored = batch.censored
    censored_n = int(censored.sum())
    censored_total = float(values[censored].sum()) if censored.any() else 0.0
    if censored_n == n:
        return MomentEstimate(
            estimand, n, math.nan, math.nan, (math.nan, math.nan), math.nan, censored_n, 1.0, "censored-dominated"
        )
    point = total / n
    if n > 1 and math.isfinite(total_sq):
        var = max(total_sq - n * point * point, 0.0) / (n - 1)
    else:
        var = math.nan if not math.isfinite(total_sq) else 0.0
    se = math.sqrt(var / n) if var == var else math.nan
    top1 = 0.0 if total <= 0 else float(descending[: math.ceil(0.01 * n)].sum()) / total
    censored_share = censored_total / total if total > 0 else 0.0
    if censored_n > 0 and censored_share > 0.01:
        verdict = "censored-dominated"
    elif top1 > 0.5 or not math.isfinite(point):
        verdict = "heavy"
    else:
        verdict = "stable"
    return MomentEstimate(estimand, n, point, se, (point - 1.96 * se, point + 1.96 * se), top1, censored_n,
                          censored_share, verdict)


def whole_column_wald(batch, mean_increment: float) -> WaldReport:
    """`estimate.wald_check` through numpy's own mean and std(ddof=1)."""
    keep = ~batch.censored
    n = int(keep.sum())
    d = batch.s_tau[keep] - mean_increment * batch.tau[keep].astype(float)
    mean_d = float(d.mean())
    se = float(d.std(ddof=1) / math.sqrt(n))
    sigmas = (0.0 if mean_d == 0.0 else math.inf) if se == 0.0 else abs(mean_d) / se
    return WaldReport(n=n, mean_discrepancy=mean_d, std_error=se, sigmas=sigmas, ok=sigmas <= 4.0)


def whole_column_ratio(batch, f_psi, x_grid=None) -> RatioCheckReport:
    """`estimate.running_max_ratio_check` with one full-length mask per grid point."""
    delta_tol, min_exceedances = 0.0, 30
    keep = ~batch.censored
    n = int(keep.sum())
    notes = [f"{batch.censored_n} censored excursions excluded"] if batch.censored_n else []
    if n == 0:
        return RatioCheckReport(math.nan, [], False, None, delta_tol, min_exceedances, ["no uncensored samples"])
    m_vals = batch.psi_max[keep]
    e_tau = float(batch.tau[keep].mean())
    if x_grid is None:
        lo_level = min(0.25, 0.05 / max(e_tau, 1.0))
        hi_level = max(min_exceedances * 1.5 / (n * max(e_tau, 1.0)), 2.0 / n)
        if hi_level >= lo_level:
            x_grid = [float(f_psi.tail_quantile(lo_level))]
        else:
            x_grid = [float(f_psi.tail_quantile(q)) for q in np.geomspace(lo_level, hi_level, 12)]
    rows = []
    for x in np.asarray(x_grid, dtype=float):
        count = int((m_vals > x).sum())
        tail = float(f_psi.tail(x))
        if tail <= 0 or count == 0:
            continue
        lo_p, hi_p = _wilson_interval(count, n)
        rows.append({"x": float(x), "exceedances": count, "ratio": count / n / tail,
                     "ratio_lo": lo_p / tail, "ratio_hi": hi_p / tail})
    resolvable = [r for r in rows if r["exceedances"] >= min_exceedances]
    if not resolvable:
        notes.append("no grid point resolves enough exceedances; enlarge n or lower the grid")
        return RatioCheckReport(e_tau, rows, False, None, delta_tol, min_exceedances, notes)
    top = max(resolvable, key=lambda r: r["x"])
    ok = top["ratio_lo"] <= e_tau <= top["ratio_hi"]
    return RatioCheckReport(e_tau, rows, ok, top["x"], delta_tol, min_exceedances, notes)
