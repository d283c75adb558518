"""Distributions represented by their tail functions.

Everything downstream (construction, simulation, diagnostics) works through
``TailSpec``: a distribution is its tail ``x -> P{X > x}`` plus a generalized
inverse for sampling, an explicit atom list for mixed distributions, and
means by their definitions, integrated on first read and cached:
``pos_mean = tail_integral_above(0)`` and
``mean = pos_mean - mass_integral_below(0)``.  Builtin
families cover the test bench: shifted Weibull and lognormal (the
intermediate heavy-tailed regime), Pareto (regularly varying reference),
two-point and constant increments, exponential service times and
service-minus-interarrival pairs.  ``make_builtin_dist`` builds one from its
config record: the ``family`` tag picks the class, whose constructor is the
record's schema, checked by ``config.build_record``, and ``spec_dict`` reads
the record back from the constructor parameters' attributes.

Quantiles use the convention ``tail_quantile(q) = inf{x : tail(x) <= q}``;
``quantile(u) = tail_quantile(1 - u)`` so that one shared uniform applied to
two tail-ordered distributions yields ordered samples.

QUADPACK calls its integrand one abscissa at a time, so every QUADPACK
integrand is built from ``scalar_tail()``/``scalar_log_tail()``: float -> float
closures that return the bits of the array ``tail``/``log_tail`` on a 0-d array
and skip numpy's per-call array overhead.  The default pair is the log of the
tail: ``log_tail`` is ``np.log(self.tail(x))`` and ``scalar_log_tail`` is the
log of ``scalar_tail``, so a class that overrides ``log_tail`` also overrides
``scalar_log_tail``.  ``TailSpec.scalar_tail`` raises like ``tail``: there is
no generic fallback, and every class writes its own under one rule, which the
test suite checks bit for bit.  Only a ``QueuePair`` with a continuous
interarrival calls its array tail, a BLAS dot whose summation order no scalar
loop reproduces; no config has one.  The rule:

* every transcendental is the numpy/scipy ufunc of the array code, called on
  a Python float (``np.log``, ``np.exp``, ``special.ndtr``,
  ``special.log_ndtr``), and its result is converted with ``float``;
* ``v ** p`` in the array code acts on a numpy float64 scalar (a ufunc on a
  0-d array returns one), which is libm's pow: write
  ``numerics.scalar_power(v, p)``.  ``np.power`` on a float takes numpy's
  vectorized loop instead, the bits of ``v ** p`` on a one-element array (as
  in g3's bisected inverse), and Python ``**`` raises on overflow;
* only + - * /, unary minus and comparisons run as Python float operations,
  and no ``math`` function: ``math.log`` and ``np.log`` differ in the last
  bit on some inputs;
* ``np.maximum(v, c)`` and ``np.minimum(v, c)`` return their second argument
  on a tie and propagate NaN, so they become ``c if v <= c else v`` and
  ``c if v >= c else v``, and ``np.minimum(c, v)`` becomes ``c if v > c else v``.
"""

from __future__ import annotations

import bisect
import inspect
import math
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy import special

from .config import build_record
from .numerics import doubling_integral, quad, scalar_power

__all__ = [
    "TailSpec",
    "TailError",
    "WeibullShifted",
    "LognormalShifted",
    "Pareto",
    "BernoulliPM1",
    "Constant",
    "Exponential",
    "QueuePair",
    "MajorantIncrement",
    "SplicedTail",
    "TruncatedBelow",
    "ShiftedTail",
    "make_builtin_dist",
]

_TINY_TAIL = 1e-300


class TailError(ValueError):
    """Invalid distribution spec or non-integrable tail."""


def _half_line_integral(f, start: float, direction: int = +1) -> float:
    """Integrate f over [start, +inf) (or (-inf, start]) by geometric doubling.

    Stops once a doubling contributes less than 1e-13 of the running total;
    raises TailError if no decay is seen before |x| = 1e18.
    """
    total, converged = doubling_integral(
        f, start, reach=1e18, rel_tol=1e-13, direction=direction, floor=1e-30
    )
    if not converged:
        raise TailError("tail integral did not converge (non-integrable tail?)")
    return total


class TailSpec:
    """Base distribution-by-tail. Subclasses fill in the family specifics.

    ``pos_mean`` and ``mean`` are integrals of the tail unless a subclass gives
    a closed form.  A subclass that overrides ``log_tail`` also overrides
    ``scalar_log_tail``, whose default is the log of ``scalar_tail``.

    Attributes:
        support: (lo, hi) pair, extended reals.
        atoms: list of (location, mass) pairs for point masses.
        uses_slot1: whether `increment_from_uniforms` reads slot 1; a walk
            draws slot 0 alone when it does not.
    """

    uses_slot1 = False

    # -- interface ---------------------------------------------------------

    @property
    def support(self) -> tuple[float, float]:
        return (-math.inf, math.inf)

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return []

    def tail(self, x):
        raise NotImplementedError

    def log_tail(self, x):
        with np.errstate(divide="ignore"):
            return np.log(self.tail(x))

    def scalar_tail(self):
        """float -> float tail with the bits of the array tail on one point, for integrands."""
        raise NotImplementedError

    def scalar_log_tail(self):
        """float -> float log of scalar_tail(), the scalar twin of the default log_tail."""
        tail = self.scalar_tail()

        def log_tail(x):
            v = tail(x)
            return -math.inf if v == 0.0 else float(np.log(v))

        return log_tail

    def tail_quantile(self, q):
        """inf{x : tail(x) <= q}; default is bracketed bisection on the tail."""
        return self._bisect_tail_quantile(q)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        if np.any((u <= 0.0) | (u >= 1.0)):
            raise ValueError("quantile argument must lie strictly inside (0, 1)")
        return self.tail_quantile(1.0 - u)

    def increment_from_uniforms(self, u0, u1):
        """Map the per-step uniform pair to one increment (slot 1 unused here; a walk passes None)."""
        return self.quantile(u0)

    def spec_dict(self) -> dict:
        """The config record of a builtin family: its tag and each constructor
        parameter, read back from the attribute of the same name."""
        record = {"family": {cls: tag for tag, cls in _FAMILIES.items()}[type(self)]}
        for name in inspect.signature(type(self)).parameters:
            value = getattr(self, name)
            record[name] = value.spec_dict() if isinstance(value, TailSpec) else value
        return record

    # -- means by quadrature -------------------------------------------------

    def _breakpoints(self) -> list[float]:
        lo, hi = self.support
        pts = [x for x, _ in self.atoms]
        if math.isfinite(lo):
            pts.append(lo)
        if math.isfinite(hi):
            pts.append(hi)
        return sorted(set(pts))

    def _scalar_cdf(self):
        tail = self.scalar_tail()
        return lambda x: 1.0 - tail(x)

    def _integrate(self, f, a: float, b: float) -> float:
        """Integral of the scalar f over [a, b], split at breakpoints."""
        knots = [p for p in self._breakpoints() if a < p < b]
        edges = [a] + knots + [b]
        total = 0.0
        for left, right in zip(edges[:-1], edges[1:]):
            total += quad(f, left, right)
        return total

    def tail_integral_above(self, level: float) -> float:
        """Integral of the tail over [level, inf)."""
        tail, hi = self.scalar_tail(), self.support[1]
        if math.isfinite(hi):
            return self._integrate(tail, level, hi) if hi > level else 0.0
        start = max([p for p in self._breakpoints() if p > level] + [max(level, 1.0)])
        body = self._integrate(tail, level, start) if start > level else 0.0
        return body + _half_line_integral(tail, start)

    def mass_integral_below(self, level: float) -> float:
        """Integral of the CDF over (-inf, level] = E(X + |level|; X <= level) magnitude."""
        cdf, lo = self._scalar_cdf(), self.support[0]
        if math.isfinite(lo):
            return self._integrate(cdf, lo, level) if level > lo else 0.0
        start = min([p for p in self._breakpoints() if p < level] + [min(level, -1.0)])
        body = self._integrate(cdf, start, level) if level > start else 0.0
        return body + _half_line_integral(cdf, start, direction=-1)

    @cached_property
    def pos_mean(self) -> float:
        """E X^+, the integral of the tail over (0, inf)."""
        return self.tail_integral_above(0.0)

    @cached_property
    def mean(self) -> float:
        """E X = E X^+ - E X^-, where E X^- is the integral of the CDF over (-inf, 0)."""
        return self.pos_mean - self.mass_integral_below(0.0)

    # -- generic quantile ----------------------------------------------------

    def _bisect_tail_quantile(self, q):
        q = np.asarray(q, dtype=float)
        scalar = q.ndim == 0
        qa = np.atleast_1d(q).astype(float)
        lo_s, hi_s = self.support
        lo = np.full_like(qa, lo_s if math.isfinite(lo_s) else -1.0)
        hi = np.full_like(qa, hi_s if math.isfinite(hi_s) else 1.0)
        if not math.isfinite(lo_s):
            for _ in range(200):
                need = self.tail(lo) <= qa  # lo must stay on the tail > q side
                if not need.any():
                    break
                lo = np.where(need, lo * 2.0 - 1.0, lo)
        if not math.isfinite(hi_s):
            for _ in range(200):
                need = self.tail(hi) > qa
                if not need.any():
                    break
                hi = np.where(need, hi * 2.0 + 1.0, hi)
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            le = self.tail(mid) <= qa
            hi = np.where(le, mid, hi)
            lo = np.where(le, lo, mid)
            if np.all((hi - lo) <= np.maximum(1e-12, 8.0 * np.spacing(np.abs(hi)))):
                break
        out = hi
        return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Builtin families
# ---------------------------------------------------------------------------


class WeibullShifted(TailSpec):
    """Tail min(1, c * exp(-((x - shift)^+)^beta)), an atom of 1-c at the shift for c < 1."""

    def __init__(self, c: float, beta: float, shift: float = 0.0):
        if c <= 0:
            raise TailError("weibull_shifted needs c > 0")
        if not 0 < beta < 1:
            raise TailError("weibull_shifted needs beta in (0, 1)")
        self.c, self.beta, self.shift = float(c), float(beta), float(shift)
        self._ln_c = math.log(self.c)

    @property
    def support(self):
        lo = self.shift if self.c <= 1 else self.shift + self._ln_c ** (1.0 / self.beta)
        return (lo, math.inf)

    @property
    def atoms(self):
        return [(self.shift, 1.0 - self.c)] if self.c < 1 else []

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        t = np.maximum(x - self.shift, 0.0)
        out = np.minimum(1.0, self.c * np.exp(-(t**self.beta)))
        return np.where(x < self.shift, 1.0, out)

    def log_tail(self, x):
        x = np.asarray(x, dtype=float)
        t = np.maximum(x - self.shift, 0.0)
        out = np.minimum(0.0, self._ln_c - t**self.beta)
        return np.where(x < self.shift, 0.0, out)

    def scalar_tail(self):
        c, beta, shift = self.c, self.beta, self.shift

        def tail(x):
            if x < shift:
                return 1.0
            t = x - shift
            v = c * float(np.exp(-scalar_power(0.0 if t <= 0.0 else t, beta)))
            return 1.0 if v > 1.0 else v

        return tail

    def scalar_log_tail(self):
        ln_c, beta, shift = self._ln_c, self.beta, self.shift

        def log_tail(x):
            if x < shift:
                return 0.0
            t = x - shift
            v = ln_c - scalar_power(0.0 if t <= 0.0 else t, beta)
            return 0.0 if v > 0.0 else v

        return log_tail

    def tail_quantile(self, q):
        q = np.asarray(q, dtype=float)
        with np.errstate(divide="ignore"):
            arg = np.maximum(np.log(self.c / q), 0.0)
        return self.shift + arg ** (1.0 / self.beta)


class LognormalShifted(TailSpec):
    """shift + LogNormal(mu, sigma2)."""

    def __init__(self, mu: float, sigma2: float, shift: float = 0.0):
        if sigma2 <= 0:
            raise TailError("lognormal_shifted needs sigma2 > 0")
        self.mu, self.sigma2, self.shift = float(mu), float(sigma2), float(shift)
        self._sigma = math.sqrt(self.sigma2)

    @property
    def support(self):
        return (self.shift, math.inf)

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        t = np.maximum(x - self.shift, _TINY_TAIL)
        z = (np.log(t) - self.mu) / self._sigma
        return np.where(x <= self.shift, 1.0, special.ndtr(-z))

    def log_tail(self, x):
        x = np.asarray(x, dtype=float)
        t = np.maximum(x - self.shift, _TINY_TAIL)
        z = (np.log(t) - self.mu) / self._sigma
        return np.where(x <= self.shift, 0.0, special.log_ndtr(-z))

    def _scalar_via(self, ndtr, at_shift: float):
        mu, sigma, shift = self.mu, self._sigma, self.shift

        def f(x):
            if x <= shift:
                return at_shift
            t = x - shift
            z = (float(np.log(_TINY_TAIL if t <= _TINY_TAIL else t)) - mu) / sigma
            return float(ndtr(-z))

        return f

    def scalar_tail(self):
        return self._scalar_via(special.ndtr, 1.0)

    def scalar_log_tail(self):
        return self._scalar_via(special.log_ndtr, 0.0)

    def tail_quantile(self, q):
        q = np.asarray(q, dtype=float)
        return self.shift + np.exp(self.mu - self._sigma * special.ndtri(q))


class Pareto(TailSpec):
    """shift + Pareto(index, scale): tail ((x - shift)/scale)^(-index) beyond scale."""

    def __init__(self, index: float, scale: float, shift: float = 0.0):
        if index <= 0 or scale <= 0:
            raise TailError("pareto needs index > 0 and scale > 0")
        self.index, self.scale, self.shift = float(index), float(scale), float(shift)

    @property
    def support(self):
        return (self.shift + self.scale, math.inf)

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        t = np.maximum((x - self.shift) / self.scale, 1.0)
        return t ** (-self.index)

    def log_tail(self, x):
        x = np.asarray(x, dtype=float)
        t = np.maximum((x - self.shift) / self.scale, 1.0)
        return -self.index * np.log(t)

    def _scalar_t(self):
        shift, scale = self.shift, self.scale

        def t(x):
            v = (x - shift) / scale
            return 1.0 if v <= 1.0 else v

        return t

    def scalar_tail(self):
        t, neg_index = self._scalar_t(), -self.index
        return lambda x: scalar_power(t(x), neg_index)

    def scalar_log_tail(self):
        t, neg_index = self._scalar_t(), -self.index
        return lambda x: neg_index * float(np.log(t(x)))

    def tail_quantile(self, q):
        q = np.asarray(q, dtype=float)
        return self.shift + self.scale * q ** (-1.0 / self.index)


class _AtomicTail(TailSpec):
    """Distribution carried entirely by finitely many atoms."""

    def __init__(self, atom_list: Sequence[tuple[float, float]]):
        atom_list = sorted((float(x), float(m)) for x, m in atom_list if m > 0)
        total = sum(m for _, m in atom_list)
        if abs(total - 1.0) > 1e-12:
            raise TailError("atom masses must sum to one")
        self._atoms = atom_list
        self._locs = np.array([x for x, _ in atom_list])
        # tail just left of each atom, i.e. P{X >= loc_i}
        masses = np.array([m for _, m in atom_list])
        self._tail_from = np.concatenate([np.cumsum(masses[::-1])[::-1], [0.0]])

    @property
    def support(self):
        return (self._locs[0], self._locs[-1])

    @property
    def atoms(self):
        return list(self._atoms)

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self._locs, x, side="right")
        return self._tail_from[idx]

    def scalar_tail(self):
        locs, tail_from = self._locs.tolist(), self._tail_from.tolist()
        return lambda x: tail_from[bisect.bisect_right(locs, x)]  # searchsorted's index, NaN last too

    def tail_quantile(self, q):
        q = np.asarray(q, dtype=float)
        # smallest atom whose "tail from here" is <= q
        idx = np.searchsorted(-self._tail_from[1:], -q, side="left")
        idx = np.minimum(idx, len(self._locs) - 1)
        return self._locs[idx]

    @property
    def pos_mean(self):
        return float(sum(m * max(x, 0.0) for x, m in self._atoms))

    @property
    def mean(self):
        return float(sum(m * x for x, m in self._atoms))


class BernoulliPM1(_AtomicTail):
    """P{+1} = p, P{-1} = 1 - p."""

    def __init__(self, p: float):
        if not 0 <= p <= 1:
            raise TailError("bernoulli_pm1 needs p in [0, 1]")
        self.p = float(p)
        atom_list = [(-1.0, 1.0 - self.p), (1.0, self.p)]
        super().__init__(atom_list)


class Constant(_AtomicTail):
    """Point mass at a single value."""

    def __init__(self, value: float):
        self.value = float(value)
        super().__init__([(self.value, 1.0)])


class Exponential(TailSpec):
    """Exponential with the given mean, supported on [0, inf)."""

    def __init__(self, mean: float):
        if mean <= 0:
            raise TailError("exponential needs mean > 0")
        self.mean = float(mean)  # the closed form, shadowing the quadrature of TailSpec.mean

    @property
    def support(self):
        return (0.0, math.inf)

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 1.0, np.exp(-np.maximum(x, 0.0) / self.mean))

    def log_tail(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 0.0, -np.maximum(x, 0.0) / self.mean)

    def scalar_tail(self):
        log_tail = self.scalar_log_tail()
        return lambda x: 1.0 if x < 0 else float(np.exp(log_tail(x)))

    def scalar_log_tail(self):
        mean = self.mean
        return lambda x: 0.0 if x < 0 else -(0.0 if x <= 0.0 else x) / mean

    def tail_quantile(self, q):
        q = np.asarray(q, dtype=float)
        return -self.mean * np.log(q)


class QueuePair(TailSpec):
    """Service-minus-interarrival increment sigma - t with independent parts.

    Sampling consumes a pair of uniforms per step (one per component), which
    makes the single-server waiting-time recursion and the random-walk view
    agree path by path under a shared random source.  The composite tail is
    exact when the interarrival part is atomic, and so is its log-tail, a
    log-sum-exp of the service log-tails that stays finite where the tail
    underflows; otherwise the tail is computed by fixed-order Gauss-Legendre
    over the interarrival quantile.
    """

    _GL_NODES = 256
    uses_slot1 = True

    def __init__(self, sigma: TailSpec, t: TailSpec):
        if sigma.support[0] < 0 or t.support[0] < 0:
            raise TailError("queue_pair components must be non-negative")
        self.sigma, self.t = sigma, t
        nodes, weights = np.polynomial.legendre.leggauss(self._GL_NODES)
        self._v = 0.5 * (nodes + 1.0)
        self._w = 0.5 * weights
        # an atomic interarrival gives the exact finite sum, otherwise the
        # quadrature runs over these fixed interarrival quantiles
        self._t_atoms = t.atoms if abs(sum(m for _, m in t.atoms) - 1.0) < 1e-12 else []
        self._tq = None if self._t_atoms else t.quantile(self._v)

    @property
    def support(self):
        s_lo, s_hi = self.sigma.support
        t_lo, t_hi = self.t.support
        return (s_lo - t_hi, s_hi - t_lo)

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        if self._t_atoms:
            out = np.zeros_like(x, dtype=float)
            for loc, mass in self._t_atoms:
                out += mass * self.sigma.tail(x + loc)
            return out
        return np.tensordot(self.sigma.tail(x[..., None] + self._tq), self._w, axes=([-1], [0]))

    def scalar_tail(self):
        if not self._t_atoms:
            # tensordot's BLAS summation order has no scalar twin (module docstring)
            return lambda x: float(self.tail(x))
        sigma, t_atoms = self.sigma.scalar_tail(), self._t_atoms

        def tail(x):
            out = 0.0
            for loc, mass in t_atoms:
                out += mass * sigma(x + loc)
            return out

        return tail

    def log_tail(self, x):
        """log sum_i m_i tail_sigma(x + t_i) over the interarrival atoms t_i, m_i."""
        if not self._t_atoms:
            return super().log_tail(x)
        x = np.asarray(x, dtype=float)
        return np.logaddexp.reduce([np.log(mass) + self.sigma.log_tail(x + loc) for loc, mass in self._t_atoms])

    def scalar_log_tail(self):
        if not self._t_atoms:
            return super().scalar_log_tail()
        sigma = self.sigma.scalar_log_tail()
        t_atoms = [(loc, float(np.log(mass))) for loc, mass in self._t_atoms]

        def log_tail(x):
            out = None
            for loc, log_mass in t_atoms:  # np.logaddexp.reduce's order
                term = log_mass + sigma(x + loc)
                out = term if out is None else float(np.logaddexp(out, term))
            return out

        return log_tail

    def increment_from_uniforms(self, u0, u1):
        return self.sigma.quantile(u0) - self.t.quantile(u1)

    @property
    def mean(self):
        return self.sigma.mean - self.t.mean


# ---------------------------------------------------------------------------
# Constructed tails (majorants, splice, truncation, shift)
# ---------------------------------------------------------------------------


class MajorantIncrement(TailSpec):
    """Dominating increment with tail min(1, K exp(-g(x)))."""

    def __init__(self, g, K: float):
        if K < 1.0:
            raise TailError("majorant coefficient must be >= 1 for a proper tail")
        self.g, self.K = g, float(K)
        self._ln_k = math.log(self.K)
        self._lo = float(self.g.inverse(self._ln_k))

    @property
    def support(self):
        return (self._lo, math.inf)

    def tail(self, x):
        return np.exp(self.log_tail(x))

    def log_tail(self, x):
        x = np.asarray(x, dtype=float)
        return np.minimum(0.0, self._ln_k - self.g(x))

    def scalar_tail(self):
        log_tail = self.scalar_log_tail()
        return lambda x: float(np.exp(log_tail(x)))

    def scalar_log_tail(self):
        g, ln_k = self.g.scalar_eval, self._ln_k

        def log_tail(x):
            v = ln_k - g(x)
            return 0.0 if v > 0.0 else v

        return log_tail

    def tail_quantile(self, q):
        q = np.asarray(q, dtype=float)
        return self.g.inverse(self._ln_k - np.log(q))


class SplicedTail(TailSpec):
    """Base tail below V, flat on [V, V'), majorant tail from V' on."""

    def __init__(self, base: TailSpec, hat: MajorantIncrement, v: float, v_prime: float):
        self.base, self.hat = base, hat
        self.v, self.v_prime = float(v), float(v_prime)
        self._q_v = float(base.tail(self.v))

    @property
    def support(self):
        return (self.base.support[0], math.inf if self._q_v > 0 else self.base.support[1])

    @property
    def atoms(self):
        return [(x, m) for x, m in self.base.atoms if x <= self.v]

    def _breakpoints(self):
        pts = set(super()._breakpoints())
        pts.add(self.v)
        if math.isfinite(self.v_prime):
            pts.add(self.v_prime)
        return sorted(pts)

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        flat_or_hat = np.where(x < self.v_prime, self._q_v, self.hat.tail(x))
        return np.where(x < self.v, self.base.tail(x), flat_or_hat)

    def scalar_tail(self):
        base, hat = self.base.scalar_tail(), self.hat.scalar_tail()
        v, v_prime, q_v = self.v, self.v_prime, self._q_v

        def tail(x):
            if x < v:
                return base(x)
            return q_v if x < v_prime else hat(x)

        return tail

    def tail_quantile(self, q):
        q = np.asarray(q, dtype=float)
        return np.where(q > self._q_v, self.base.tail_quantile(q), self.hat.tail_quantile(q))


class TruncatedBelow(TailSpec):
    """max(X, -L): the lower tail collapses into an atom at -L."""

    def __init__(self, base: TailSpec, level: float):
        self.base, self.level = base, float(level)
        self._floor = -self.level
        self._atom_mass = float(1.0 - base.tail(self._floor)) + float(
            sum(m for x, m in base.atoms if x == self._floor)
        )

    @property
    def support(self):
        return (max(self._floor, self.base.support[0]), self.base.support[1])

    @property
    def atoms(self):
        kept = [(x, m) for x, m in self.base.atoms if x > self._floor]
        if self._atom_mass > 0 and self._floor >= self.base.support[0]:
            kept.append((self._floor, self._atom_mass))
        return sorted(kept)

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < self._floor, 1.0, self.base.tail(x))

    def scalar_tail(self):
        base, floor = self.base.scalar_tail(), self._floor
        return lambda x: 1.0 if x < floor else base(x)

    def tail_quantile(self, q):
        return np.maximum(self.base.tail_quantile(q), self._floor)


class ShiftedTail(TailSpec):
    """X + offset; used for drift-compensated increments."""

    def __init__(self, base: TailSpec, offset: float):
        self.base, self.offset = base, float(offset)

    @property
    def support(self):
        lo, hi = self.base.support
        return (lo + self.offset, hi + self.offset)

    @property
    def atoms(self):
        return [(x + self.offset, m) for x, m in self.base.atoms]

    def tail(self, x):
        return self.base.tail(np.asarray(x, dtype=float) - self.offset)

    def log_tail(self, x):
        return self.base.log_tail(np.asarray(x, dtype=float) - self.offset)

    def scalar_tail(self):
        base, offset = self.base.scalar_tail(), self.offset
        return lambda x: base(x - offset)

    def scalar_log_tail(self):
        base, offset = self.base.scalar_log_tail(), self.offset
        return lambda x: base(x - offset)

    def tail_quantile(self, q):
        return self.base.tail_quantile(q) + self.offset

    @property
    def mean(self):
        return self.base.mean + self.offset


# ---------------------------------------------------------------------------
# Config dispatch
# ---------------------------------------------------------------------------

_FAMILIES = {  # the builtin families by config tag; each constructor is its record's schema
    "weibull_shifted": WeibullShifted,
    "lognormal_shifted": LognormalShifted,
    "pareto": Pareto,
    "bernoulli_pm1": BernoulliPM1,
    "constant": Constant,
    "exponential": Exponential,
    "queue_pair": QueuePair,
}


def make_builtin_dist(spec: dict, where: str = "increments") -> TailSpec:
    """Build a builtin distribution from its config record at `where`, checked by `config.build_record`."""
    return build_record(spec, _FAMILIES, where, nested=make_builtin_dist)
