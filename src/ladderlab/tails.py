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

Every integral of a tail or CDF runs on ``numerics.integrate``, which
evaluates the array ``tail`` on many abscissae at once; ``integrals_above``
computes many tail integrals in one call, each with the bits of its own.

scipy is imported in one place, ``LognormalShifted.__init__``, for the
``scipy.special`` functions ``ndtr``, ``log_ndtr`` and ``ndtri``.  It costs
about 0.2 s, more than the rest of ``import ladderlab``, so only a process
that builds a lognormal pays it.  It runs at construction, so a
distribution's tail and quantile calls, timed or on worker threads, never
import anything.
"""

from __future__ import annotations

import inspect
import math
from functools import cached_property
from typing import Sequence

import numpy as np

from .config import build_record
from .numerics import bracket_root, integrate

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
    "integrals_above",
]

_TINY_TAIL = 1e-300


class TailError(ValueError):
    """Invalid distribution spec or non-integrable tail."""


_TAIL_DOUBLING = {"reach": 1e18, "rel_tol": 1e-13, "floor": 1e-30}  # of every tail and CDF integral


def integrals_above(pairs) -> list[float]:
    """``spec.tail_integral_above(level)`` of each (spec, level) pair, all in
    one `numerics.integrate` call, each with the bits of its own call;
    TailError if any of them did not converge."""
    return _checked(*integrate([spec._above(level) for spec, level in pairs], **_TAIL_DOUBLING))


def _checked(values: list[float], converged: list[bool]) -> list[float]:
    if not all(converged):
        raise TailError("tail integral did not converge (non-integrable tail?)")
    return values


class TailSpec:
    """Base distribution-by-tail. Subclasses fill in the family specifics.

    ``pos_mean`` and ``mean`` are integrals of the tail unless a subclass gives
    a closed form.

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

    def tail_quantile(self, q):
        """inf{x >= support lo : tail(x) <= q}; by default the upper end of its
        `numerics.bracket_root` bracket, started at the support's ends."""
        q = np.asarray(q, dtype=float)
        flat, (lo, hi) = q.ravel(), self.support
        start = lo if math.isfinite(lo) else min(hi, 0.0) - 1.0
        end = hi if math.isfinite(hi) else max(lo, 0.0) + 1.0
        return bracket_root(lambda x, i: (x >= lo) & (self.tail(x) <= flat[i]), np.full(q.shape, start), end)[1]

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

    def _cdf(self, x):
        return 1.0 - self.tail(x)

    def _edges(self, a: float, b: float) -> list[float]:
        return [a] + [p for p in self._breakpoints() if a < p < b] + [b]

    def _above(self, level: float):
        """The `numerics.integrate` job of the tail over [level, inf): pieces
        split at the breakpoints, then doubling on from the larger of the last
        breakpoint and max(level, 1)."""
        hi = self.support[1]
        if math.isfinite(hi):
            return self.tail, self._edges(level, hi) if hi > level else [], 0
        start = max([p for p in self._breakpoints() if p > level] + [max(level, 1.0)])
        return self.tail, self._edges(level, start) if start > level else [start], 1

    def _below(self, level: float):
        """The job of the CDF over (-inf, level], the mirror image of `_above`."""
        lo = self.support[0]
        if math.isfinite(lo):
            return self._cdf, self._edges(lo, level) if level > lo else [], 0
        start = min([p for p in self._breakpoints() if p < level] + [min(level, -1.0)])
        return self._cdf, self._edges(start, level) if level > start else [start], -1

    def tail_integral_above(self, level: float) -> float:
        """Integral of the tail over [level, inf).  A doubling half-line stops
        once a segment adds less than 1e-13 of its total; TailError if none
        has by |x| = 1e18."""
        return integrals_above([(self, level)])[0]

    def mass_integral_below(self, level: float) -> float:
        """Integral of the CDF over (-inf, level] = E(X + |level|; X <= level) magnitude."""
        return _checked(*integrate([self._below(level)], **_TAIL_DOUBLING))[0]

    @cached_property
    def pos_mean(self) -> float:
        """E X^+, the integral of the tail over (0, inf)."""
        return self.tail_integral_above(0.0)

    @cached_property
    def mean(self) -> float:
        """E X = E X^+ - E X^-, where E X^- is the integral of the CDF over (-inf, 0)."""
        return self.pos_mean - self.mass_integral_below(0.0)


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
        from scipy import special  # the package's one scipy import; see the module docstring

        self._ndtr, self._log_ndtr, self._ndtri = special.ndtr, special.log_ndtr, special.ndtri

    @property
    def support(self):
        return (self.shift, math.inf)

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        t = np.maximum(x - self.shift, _TINY_TAIL)
        z = (np.log(t) - self.mu) / self._sigma
        return np.where(x <= self.shift, 1.0, self._ndtr(-z))

    def log_tail(self, x):
        x = np.asarray(x, dtype=float)
        t = np.maximum(x - self.shift, _TINY_TAIL)
        z = (np.log(t) - self.mu) / self._sigma
        return np.where(x <= self.shift, 0.0, self._log_ndtr(-z))

    def tail_quantile(self, q):
        q = np.asarray(q, dtype=float)
        return self.shift + np.exp(self.mu - self._sigma * self._ndtri(q))


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

    def tail_quantile(self, q):
        q = np.asarray(q, dtype=float)
        return -self.mean * np.log(q)


class QueuePair(TailSpec):
    """Service-minus-interarrival increment sigma - t with independent parts.

    Sampling consumes a pair of uniforms per step (one per component), which
    makes the single-server waiting-time recursion and the random-walk view
    agree path by path under a shared random source.  The interarrival is
    held as one finite mixture of points t_i with weights w_i: its atoms
    when it is atomic, which makes the tail exact, otherwise the 256
    Gauss-Legendre nodes of its quantile over (0, 1) with their weights.
    The tail is sum_i w_i tail_sigma(x + t_i), and the log-tail the
    log-sum-exp of log w_i + log tail_sigma(x + t_i), which stays finite
    where the tail underflows.
    """

    _GL_NODES = 256
    uses_slot1 = True

    def __init__(self, sigma: TailSpec, t: TailSpec):
        if sigma.support[0] < 0 or t.support[0] < 0:
            raise TailError("queue_pair components must be non-negative")
        self.sigma, self.t = sigma, t
        if abs(sum(m for _, m in t.atoms) - 1.0) < 1e-12:
            self._tq, self._w = (np.array(column) for column in zip(*t.atoms))
        else:
            nodes, weights = np.polynomial.legendre.leggauss(self._GL_NODES)
            self._tq, self._w = t.quantile(0.5 * (nodes + 1.0)), 0.5 * weights

    @property
    def support(self):
        s_lo, s_hi = self.sigma.support
        t_lo, t_hi = self.t.support
        return (s_lo - t_hi, s_hi - t_lo)

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        # each row is summed alone, where a BLAS dot's order would depend on the rows beside it
        return (self.sigma.tail(x[..., None] + self._tq) * self._w).sum(axis=-1)

    def log_tail(self, x):
        x = np.asarray(x, dtype=float)
        return np.logaddexp.reduce(np.log(self._w) + self.sigma.log_tail(x[..., None] + self._tq), axis=-1)

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

    def tail_quantile(self, q):
        q = np.asarray(q, dtype=float)
        hat_side = np.maximum(self.hat.tail_quantile(q), self.v_prime)  # the flat stretch ends at V'
        return np.where(q >= self._q_v, self.base.tail_quantile(q), hat_side)


class TruncatedBelow(TailSpec):
    """max(X, -L): the lower tail collapses into an atom at -L."""

    def __init__(self, base: TailSpec, level: float):
        self.base, self.level = base, float(level)
        self._floor = -self.level
        self._atom_mass = float(1.0 - base.tail(self._floor))  # P{X <= -L}, an atom at -L included

    @property
    def support(self):
        return (max(self._floor, self.base.support[0]), self.base.support[1])

    @property
    def atoms(self):
        kept = [(x, m) for x, m in self.base.atoms if x > self._floor]
        if self._atom_mass > 0 and self._floor >= self.base.support[0]:
            kept.append((self._floor, self._atom_mass))
        return sorted(kept)

    def _breakpoints(self):
        return sorted({*super()._breakpoints(), *(p for p in self.base._breakpoints() if p > self._floor)})

    def tail(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x < self._floor, 1.0, self.base.tail(x))

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

    def _breakpoints(self):
        return sorted({p + self.offset for p in self.base._breakpoints()})

    def tail(self, x):
        return self.base.tail(np.asarray(x, dtype=float) - self.offset)

    def log_tail(self, x):
        return self.base.log_tail(np.asarray(x, dtype=float) - self.offset)

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
