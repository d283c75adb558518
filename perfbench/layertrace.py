"""Outside-in layer trace for ladderlab: spans and counters from wrappers.

Nothing under ``src/`` is instrumented.  ``Tracer.install`` replaces public
functions of each ladderlab module, the ``quantile``/``tail``/``log_tail``
methods of every ``TailSpec`` class and ``scipy.integrate.quad`` with timing
wrappers, and ``Tracer.remove`` puts the originals back.  A wrapper is
installed wherever the original object is bound, because ``cli`` (and the
package ``__init__``) import functions by name: patching only the defining
module would miss those lookups.

Spans live in memory as per-name aggregates: calls, busy time (inclusive)
and self time (busy minus the part covered by child spans).  Spans opened on
a worker thread with no open span of their own are children of the
outermost span open on the main thread (the CLI stage); their intervals may
overlap, so the parent's covered time is the union of those intervals.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import threading
import time
from collections import defaultdict

import numpy as np

_MARK = "__layertrace_original__"

# Public functions traced per module; the key is the layer name.
FUNCTIONS = {
    "config": ["load_config"],
    "growth": ["certify"],
    "construct": ["build_chain", "fit_majorant_coefficient", "splice", "splice_at", "truncate_below"],
    "diagnostics": ["sstar_ratio", "long_tailed_profile", "check_log_tail_increment", "usable_tail_horizon"],
    "rng": ["uniform_pair"],
    "walk": ["simulate_batch", "replay_path"],
    "estimate": [
        "estimate_growth_moment",
        "estimate_power_moment",
        "estimate_exp_moment",
        "dominance_suite",
        "wald_check",
        "running_max_ratio_check",
        "finiteness_diagnostic",
    ],
    "cli": ["cmd_check", "cmd_construct", "cmd_simulate", "cmd_estimate", "cmd_verify"],
}
TAIL_METHODS = ("quantile", "tail", "log_tail")
QUAD_LAYERS = ("construct", "diagnostics", "growth", "tails")
# Spans whose subtree is broken down by layer (self time) and by direct child (busy time).
BREAKDOWN = ("walk.simulate_batch",) + tuple(f"cli.{name}" for name in FUNCTIONS["cli"])


class _Frame:
    __slots__ = ("name", "t0", "child_s", "foreign", "foreign_self", "layer_self", "child_busy")

    def __init__(self, name: str, t0: float):
        self.name = name
        self.t0 = t0
        self.child_s = 0.0
        self.foreign: list[tuple[float, float]] = []  # child intervals from worker threads
        self.foreign_self: dict[str, float] = {}  # their self time by layer
        self.layer_self: dict[str, float] = {}  # self time of this subtree by layer
        self.child_busy: dict[str, float] = {}  # busy time of direct children by name


def _add(into: dict, key: str, value: float) -> None:
    into[key] = into.get(key, 0.0) + value


def _union_length(intervals) -> float:
    total, end = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def _ladderlab_modules():
    return [m for n, m in list(sys.modules.items()) if m is not None and (n == "ladderlab" or n.startswith("ladderlab."))]


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.breakdown = set(BREAKDOWN)
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._stage: _Frame | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _depth(self) -> dict:
        depth = getattr(self._tls, "depth", None)
        if depth is None:
            depth = self._tls.depth = {}
        return depth

    def _enter(self, name: str) -> _Frame:
        frame = _Frame(name, time.perf_counter())
        stack = self._stack()
        if not stack and threading.get_ident() == self._main:
            self._stage = frame
        stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, counts: dict | None = None, outer: bool = False) -> None:
        t1 = time.perf_counter()
        stack = self._stack()
        stack.pop()
        dur = t1 - frame.t0
        covered = 0.0
        if frame.foreign:
            with self._lock:
                covered = _union_length(frame.foreign)
                # worker threads overlap: scale their self time so it adds up to
                # the wall time they covered, not to the sum over threads
                scale = covered / sum(b - a for a, b in frame.foreign)
                for lay, sec in frame.foreign_self.items():
                    _add(frame.layer_self, lay, sec * scale)
        self_s = dur - frame.child_s - covered
        _add(frame.layer_self, frame.name.split(".", 1)[0], self_s)
        with self._lock:
            st = self.stats[frame.name]
            st["calls"] += 1
            st["busy_s"] += dur
            st["self_s"] += self_s
            if outer:
                st["outer_busy_s"] += dur
            for key, value in (counts or {}).items():
                st[key] += value
            if frame.name in self.breakdown:
                for lay, sec in frame.layer_self.items():
                    st["layer_self." + lay] += sec
                for child, sec in frame.child_busy.items():
                    st["child_busy." + child] += sec
            if stack:
                parent = stack[-1]
                parent.child_s += dur
                into = parent.layer_self
            elif threading.get_ident() != self._main and self._stage is not None:
                parent = self._stage
                parent.foreign.append((frame.t0, t1))
                into = parent.foreign_self
            else:
                return
            _add(parent.child_busy, frame.name, dur)
            for lay, sec in frame.layer_self.items():
                _add(into, lay, sec)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, broken down like a stage."""
        self.breakdown.add(name)
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    # -- wrappers ------------------------------------------------------------

    def _function_wrapper(self, name: str, fn, counter=None):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            counts = None
            try:
                out = fn(*args, **kwargs)
                if counter is not None:
                    counts = counter(tracer, out)
                return out
            finally:
                tracer._exit(frame, counts)

        wrapper.__name__ = getattr(fn, "__name__", name)
        setattr(wrapper, _MARK, fn)
        return wrapper

    def _method_wrapper(self, method: str, fn):
        tracer = self

        def wrapper(obj, x, *args, **kwargs):
            # outer_busy_s times only the outermost call of a method, since
            # e.g. SplicedTail.tail calls its base's tail
            depth = tracer._depth()
            outer = depth.get(method, 0) == 0
            depth[method] = depth.get(method, 0) + 1
            frame = tracer._enter(f"tails.{type(obj).__name__}.{method}")
            try:
                return fn(obj, x, *args, **kwargs)
            finally:
                tracer._exit(frame, {"elements": np.size(x)}, outer=outer)
                depth[method] -= 1

        wrapper.__name__ = method
        setattr(wrapper, _MARK, fn)
        return wrapper

    def _quad_wrapper(self, quad):
        tracer = self

        def wrapper(func, a, b, *args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if not caller.startswith("ladderlab."):
                return quad(func, a, b, *args, **kwargs)
            evals = [0]

            def counted(x, *fargs):
                evals[0] += 1
                return func(x, *fargs)

            out = quad(counted, a, b, *args, **kwargs)
            name = caller.split(".", 1)[1] + ".quad"
            with tracer._lock:
                st = tracer.stats[name]
                st["calls"] += 1
                st["evals"] += evals[0]
                st["abserr_sum"] += float(out[1])
            return out

        wrapper.__name__ = "quad"
        setattr(wrapper, _MARK, quad)
        return wrapper

    def _patch_everywhere(self, original, wrapper) -> None:
        """Bind `wrapper` under every module-level name that holds `original`."""
        for module in _ladderlab_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        # import every layer first: a module imported after patching would bind the wrappers
        modules = {layer: importlib.import_module(f"ladderlab.{layer}") for layer in FUNCTIONS}
        for layer, names in FUNCTIONS.items():
            module = modules[layer]
            for fname in names:
                fn = getattr(module, fname)
                counter = _COUNTERS.get(f"{layer}.{fname}")
                self._patch_everywhere(fn, self._function_wrapper(f"{layer}.{fname}", fn, counter))

        tails = importlib.import_module("ladderlab.tails")
        for cls in _tail_classes(tails.TailSpec):
            for method in TAIL_METHODS:
                if method in vars(cls):
                    original = vars(cls)[method]
                    self._patches.append((cls, method, original))
                    setattr(cls, method, self._method_wrapper(method, original))

        from scipy import integrate

        quad = integrate.quad
        wrapper = self._quad_wrapper(quad)
        self._patches.append((integrate, "quad", quad))
        integrate.quad = wrapper
        self._patch_everywhere(quad, wrapper)
        return self

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()


def _tail_classes(base):
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def installed_wrappers() -> list[str]:
    """Names still bound to a tracer wrapper (empty once every tracer is removed)."""
    found = []
    owners = [(m.__name__, m) for m in _ladderlab_modules()]
    tails = sys.modules.get("ladderlab.tails")
    if tails is not None:
        owners += [(f"ladderlab.tails.{c.__name__}", c) for c in _tail_classes(tails.TailSpec)]
    integrate = sys.modules.get("scipy.integrate")
    if integrate is not None:
        owners.append(("scipy.integrate", integrate))
    for owner_name, owner in owners:
        for attr, value in list(vars(owner).items()):
            if hasattr(value, _MARK):
                found.append(f"{owner_name}.{attr}")
    return found


# -- counters computed from a traced call's result ----------------------------


def _count_cells(tracer, out):
    # uniform_pair(seed, stream, step): one Philox cell per broadcast element
    cells = int(np.size(out[0]))
    under_walk = any(f.name == "walk.simulate_batch" for f in tracer._stack())
    return {"cells": cells, "cells_under_walk": cells if under_walk else 0}


def _count_walks(tracer, out):
    return {"walks": out.n, "steps": int(out.tau.sum())}


def _count_draws(tracer, out):
    return {"draws": out.n}


_COUNTERS = {
    "rng.uniform_pair": _count_cells,
    "walk.simulate_batch": _count_walks,
    "estimate.dominance_suite": _count_draws,
}
