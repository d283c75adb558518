"""ladderlab benchmark: four workloads through the public entry points.

    python3 perfbench/run.py --workload g1_chain --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/`` and every file is written under ``.bench_run/``.  The
last line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the lines before it are the human-readable report:
every metric with its unit, machine facts, artifact digests and, with
``--trace 1``, the per-layer breakdown.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
WORK = ROOT / ".bench_run"

THREAD_CAP = 2  # LADDERLAB_THREADS never exceeds min(nproc, THREAD_CAP)
MIN_REPS = 2  # two repetitions per run, so digests are compared at one seed
SETUP_MIN = 6  # fresh-interpreter imports per untraced run at least; setup_s is their median
REPLAY_STREAMS = 64  # walks re-derived by the scalar oracle per run
PARETO = {"index": 2.0, "scale": 1.0, "shift": -3.0}  # acceptance criterion 08's walk
STEP_REPEATS = 5  # in-memory estimate/verify steps are short: time the median of 5 calls


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple[str, ...]
    walks: int
    config: str | None = None  # configs/<config>.yaml
    cli: bool = False  # stages run through cli.main in forked children, else the library in memory


# Why each workload exists is in README.md.  BENCHMARK.json lists the ones the
# regression gate runs; g1_pipeline is left out of it because its run-to-run
# spread on the reference machine exceeds the largest allowed bound, and
# g1_chain covers its growth, construct and diagnostics layers instead.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("g1_pipeline", ("check", "construct", "simulate", "estimate", "verify"), 100_000, "g1_lognormal", True),
        Workload("g1_chain", ("construct", "simulate", "estimate", "verify"), 200_000, "g1_lognormal"),
        Workload("bernoulli_pipeline", ("simulate", "estimate", "verify"), 1_000_000, "bernoulli_oracle", True),
        Workload("pareto_walks", ("simulate", "estimate", "verify"), 2_000_000),
    )
}

# Metric names and units are declared once, in BENCHMARK.json.  The JSON line
# carries exactly these; every other metric is printed as a report line.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
MOMENT_ESTIMATORS = ("estimate_growth_moment", "estimate_power_moment", "estimate_exp_moment")


def unit_of(name: str) -> str:
    """Unit of a reported metric that is not in the JSON line, from its name."""
    for suffix, unit in (("per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("abserr_sum", "1"), ("ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------------
# Process plumbing
# ---------------------------------------------------------------------------


def prepare_environment() -> int:
    """Pin thread counts and import ladderlab from this checkout; returns the thread cap.

    Single-threaded BLAS leaves the benchmark process without threads, which
    makes the forks below safe; ladderlab makes no BLAS calls large enough to
    be threaded, so no artifact depends on it.
    """
    nproc = len(os.sched_getaffinity(0))
    threads = max(1, min(nproc, THREAD_CAP))
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["LADDERLAB_THREADS"] = str(threads)
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ladderlab

    if Path(ladderlab.__file__).resolve().parent != SRC / "ladderlab":
        raise RuntimeError(f"ladderlab imported from {ladderlab.__file__}, not from {SRC}")
    return threads


def in_child(fn, *args):
    """Run fn(*args) in a forked child and return its JSON-serialisable result.

    Each stage gets a process of its own, as a CLI invocation would, so peak
    RSS is per stage; forking the already-imported benchmark keeps the
    interpreter start-up (measured separately as setup_s) out of the run.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns
        os.close(rfd)
        try:
            payload = {"value": fn(*args)}
        except BaseException:  # reported to the parent, which fails the operation
            payload = {"error": traceback.format_exc()}
        try:
            with os.fdopen(wfd, "wb") as fh:
                fh.write(json.dumps(payload).encode())
        finally:
            os._exit(0)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if not data:
        raise RuntimeError(f"child exited with status {status} and no result")
    payload = json.loads(data)
    if "error" in payload:
        raise RuntimeError(payload["error"])
    return payload["value"]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _make_tracer(traced: bool):
    if not traced:
        return None
    import layertrace

    return layertrace.Tracer()


def _trace_result(tracer) -> dict:
    import layertrace

    return {
        "stats": {k: dict(v) for k, v in tracer.stats.items()} if tracer else None,
        "wrappers_left": layertrace.installed_wrappers(),
    }


# ---------------------------------------------------------------------------
# One repetition of a workload (each stage in a forked child)
# ---------------------------------------------------------------------------


def _cli_stage(argv: list[str], log_path: str, traced: bool) -> dict:
    from ladderlab import cli

    tracer = _make_tracer(traced)
    with open(log_path, "a") as log, contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        if tracer:
            tracer.install()
        try:
            t0, c0 = time.perf_counter(), time.process_time()
            rc = cli.main(argv)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        finally:
            if tracer:
                tracer.remove()
    return {"rc": rc, "wall_s": wall, "cpu_s": cpu, "rss_mb": _peak_rss_mb(), **_trace_result(tracer)}


def _sha256_file(path: Path) -> tuple[str, int]:
    """Digest and newline count of a file, read in chunks."""
    h, lines = hashlib.sha256(), 0
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
            lines += chunk.count(b"\n")
    return h.hexdigest(), lines


def _cli_rep(w: Workload, config: Path, out: Path, seed: int, traced: bool) -> dict:
    out.mkdir(parents=True)
    stages, traces, wrappers_left = {}, [], []
    for stage in w.stages:
        argv = [stage, "--config", str(config), "--out", str(out), "--seed", str(seed)]
        try:
            res = in_child(_cli_stage, argv, str(out / "stages.log"), traced)
        except RuntimeError as exc:
            res = {"rc": None, "error": str(exc)}
        stages[stage] = res
        stats = res.pop("stats", None)
        if stats:
            traces.append(stats)
        wrappers_left += res.pop("wrappers_left", [])
    digests, samples = {}, {}
    for path in sorted(p for p in out.iterdir() if p.name != "stages.log"):
        digests[path.name], lines = _sha256_file(path)
        if path.name == "samples.csv":
            samples = {"rows": lines - 1, "bytes": path.stat().st_size}
    return {
        "stages": stages,
        "digests": digests,
        "samples": samples,
        "trace": _merge_stats(traces) if traced else None,
        "wrappers_left": wrappers_left,
    }


def _pareto_plan(step, cfg, seed: int, walks: int):
    """simulate_batch, estimate_power_moment, wald and ratio checks (criterion 08)."""
    import ladderlab

    spec = ladderlab.Pareto(**PARETO)
    batch = step("simulate", lambda: ladderlab.simulate_batch(spec, seed, n_samples=walks))
    est = step("estimate", lambda: ladderlab.estimate_power_moment(batch, 1.0), STEP_REPEATS)
    wald, ratio = step(
        "verify",
        lambda: (ladderlab.wald_check(batch, spec.mean), ladderlab.running_max_ratio_check(batch, spec)),
        STEP_REPEATS,
    )
    return batch, {"estimate": est, "wald": wald, "running_max_ratio": ratio}


def _g1_plan(step, cfg, seed: int, walks: int):
    """The calls of cmd_construct, a walk batch, the growth moment and cmd_verify's suites."""
    import ladderlab

    g = ladderlab.make_growth(cfg["growth"])
    base = ladderlab.make_builtin_dist(cfg["increments"])
    delta, a = cfg["delta"], -base.mean

    def construct():
        cert = ladderlab.certify(g)
        chain = ladderlab.build_chain(base, g, cert, delta=delta)
        return {
            "condition": cert,
            "chain": chain,
            "long_tailed": ladderlab.long_tailed_profile(chain.hat),
            "sstar": ladderlab.sstar_ratio(chain.hat),
            "log_tail_increment": ladderlab.check_log_tail_increment(chain.hat, cert.gamma),
            "horizon": ladderlab.diagnostics.usable_tail_horizon(chain.base),
        }

    reports = step("construct", construct)
    chain = reports["chain"]
    batch = step("simulate", lambda: ladderlab.simulate_batch(base, seed, n_samples=walks, step_cap=cfg["step_cap"]))
    reports["estimate"] = step(
        "estimate", lambda: ladderlab.estimate_growth_moment(batch, g, cfg["eps"], delta, a), STEP_REPEATS
    )
    reports["dominance"], reports["wald"], reports["running_max_ratio"] = step(
        "verify",
        lambda: (
            ladderlab.dominance_suite(chain, n=walks, seed=seed),
            ladderlab.wald_check(batch, base.mean),
            ladderlab.running_max_ratio_check(batch, base),
        ),
        STEP_REPEATS,
    )
    return batch, reports


LIBRARY_PLANS = {"pareto_walks": _pareto_plan, "g1_chain": _g1_plan}


def _library_steps(name: str, cfg, seed: int, walks: int, traced: bool) -> dict:
    from ladderlab.config import jsonify

    tracer = _make_tracer(traced)
    steps = {}

    def step(name, fn, repeats=1):
        walls, cpus = [], []
        for _ in range(repeats):
            span = tracer.span(f"bench.{name}") if tracer else contextlib.nullcontext()
            t0, c0 = time.perf_counter(), time.process_time()
            with span:
                out = fn()
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
        steps[name] = {"rc": 0, "wall_s": statistics.median(walls), "cpu_s": statistics.median(cpus)}
        return out

    if tracer:
        tracer.install()
    try:
        # the plans look functions up through the package at call time, so a traced run sees the wrappers
        batch, reports = LIBRARY_PLANS[name](step, cfg, seed, walks)
    finally:
        if tracer:
            tracer.remove()
    rss = _peak_rss_mb()
    for s in steps.values():
        s["rss_mb"] = rss

    digests = {}
    for field in ("stream_ids", "tau", "s_tau", "m_tau", "psi_max", "censored"):
        digests[f"batch.{field}"] = hashlib.sha256(getattr(batch, field).tobytes()).hexdigest()
    for key, report in reports.items():
        text = json.dumps(jsonify(report.to_dict() if hasattr(report, "to_dict") else report), sort_keys=True)
        digests[key] = hashlib.sha256(text.encode()).hexdigest()
    ratio = reports["running_max_ratio"]
    return {
        "stages": steps,
        "digests": digests,
        "suites_ok": {k: bool(reports[k].ok) for k in ("dominance", "wald") if k in reports},
        "ratio": {"ok": bool(ratio.ok), "e_tau": ratio.e_tau, "largest_x": ratio.largest_x},
        "replay_rows": {int(i): (int(batch.tau[i]), float(batch.s_tau[i]), float(batch.m_tau[i])) for i in _replay_ids(walks)},
        **_trace_result(tracer),
    }


def _library_rep(w: Workload, cfg, seed: int, walks: int, traced: bool) -> dict:
    try:
        res = in_child(_library_steps, w.name, cfg, seed, walks, traced)
    except RuntimeError as exc:
        return {"stages": {s: {"rc": None, "error": str(exc)} for s in w.stages}, "digests": {}, "wrappers_left": []}
    res["trace"] = _merge_stats([res.pop("stats")]) if traced else None
    return res


def _merge_stats(parts: list[dict]) -> dict:
    merged: dict = {}
    for part in parts:
        for name, st in part.items():
            dst = merged.setdefault(name, {})
            for key, value in st.items():
                dst[key] = dst.get(key, 0.0) + value
    return merged


# ---------------------------------------------------------------------------
# Output checks that do not reuse the code they grade
# ---------------------------------------------------------------------------


def _replay_ids(walks: int) -> list[int]:
    return sorted({int(i) for i in range(0, walks, max(1, walks // REPLAY_STREAMS))})


def _increment_oracle(spec: dict):
    """Scalar inverse transform written from the family's definition, not from tails.py."""
    family = spec["family"]
    if family == "pareto":
        a, s, shift = spec["index"], spec["scale"], spec.get("shift", 0.0)
        return lambda u: shift + s * (1.0 - u) ** (-1.0 / a)
    if family == "lognormal_shifted":
        from scipy.special import ndtri

        mu, sigma, shift = spec["mu"], math.sqrt(spec["sigma2"]), spec.get("shift", 0.0)
        return lambda u: shift + math.exp(mu + sigma * float(ndtri(u)))
    if family == "bernoulli_pm1":
        p = spec["p"]
        return lambda u: 1.0 if 1.0 - u < p else -1.0
    raise ValueError(f"no oracle for family {family!r}")


def _replay_walk(inc, seed: int, stream: int, step_cap: int) -> tuple[int, float, float]:
    """First n with S_n <= 0, S_n and max(0, S_1..S_n), step by step."""
    import numpy as np
    from ladderlab import rng

    s, m, n, block = 0.0, 0.0, 0, 1024
    while n < step_cap:
        u0, _ = rng.uniform_pair(seed, stream, np.arange(n, n + block, dtype=np.uint64))
        for u in u0.tolist():
            n += 1
            s += inc(u)
            m = max(m, s)
            if s <= 0.0 or n == step_cap:
                return n, s, m
        block *= 2
    return n, s, m


def _replay_check(spec: dict, seed: int, step_cap: int, rows: dict) -> list[str]:
    """Re-derive sampled walks with the scalar oracle; returns mismatches."""
    inc = _increment_oracle(spec)
    bad = []
    for stream, (tau, s_tau, m_tau) in sorted(rows.items()):
        r_tau, r_s, r_m = _replay_walk(inc, seed, int(stream), step_cap)
        scale = 1e-9 * (1.0 + abs(r_m))
        if r_tau != tau or abs(r_s - s_tau) > scale or abs(r_m - m_tau) > scale:
            bad.append(f"stream {stream}: tau {tau} vs {r_tau}, s_tau {s_tau!r} vs {r_s!r}, m_tau {m_tau!r} vs {r_m!r}")
    return bad


def _two_point_epoch_moments(p: float) -> tuple[float, float]:
    """E tau and Var tau for the +-1 walk (P{+1} = p), by enumerating positions."""
    alive = {0: 1.0}
    mean = second = 0.0
    n = 0
    while sum(alive.values()) > 1e-18:
        n += 1
        nxt: dict[int, float] = {}
        for pos, mass in alive.items():
            for step, prob in ((1, p), (-1, 1.0 - p)):
                q = pos + step
                if q <= 0:
                    mean += n * mass * prob
                    second += n * n * mass * prob
                else:
                    nxt[q] = nxt.get(q, 0.0) + mass * prob
        alive = nxt
        if n > 100_000:
            raise RuntimeError("two-point enumeration did not converge")
    return mean, second - mean * mean


def _read_samples(path: Path, walks: int) -> tuple[dict, list[float]]:
    """Rows of the replayed stream ids, plus every tau, from samples.csv."""
    wanted = set(_replay_ids(walks))
    rows, taus = {}, []
    with path.open() as fh:
        header = fh.readline().strip().split(",")
        if header[:4] != ["stream_id", "tau", "s_tau", "m_tau"]:
            raise ValueError(f"unexpected samples.csv header {header}")
        for line in fh:
            sid, tau, s_tau, m_tau = line.split(",", 4)[:4]
            taus.append(float(tau))
            if int(sid) in wanted:
                rows[int(sid)] = (int(tau), float(s_tau), float(m_tau))
    return rows, taus


def _cli_checks(cfg: dict, out: str, seed: int, walks: int) -> dict:
    out_dir = Path(out)
    checks = {}
    report = json.loads((out_dir / "verify_report.json").read_text())
    checks["verify.wald.ok"] = report.get("wald", {}).get("ok") is True
    if cfg.get("growth") is not None:
        checks["verify.dominance.ok"] = report.get("dominance", {}).get("ok") is True
    rows, taus = _read_samples(out_dir / "samples.csv", walks)
    checks["samples.rows"] = len(taus) == walks
    mismatches = _replay_check(cfg["increments"], seed, cfg["step_cap"], rows)
    checks["replay"] = not mismatches and len(rows) == len(_replay_ids(walks))
    detail = {"replay_mismatches": mismatches[:5]}
    if cfg["increments"]["family"] == "bernoulli_pm1":
        mean, var = _two_point_epoch_moments(cfg["increments"]["p"])
        sample_mean = math.fsum(taus) / len(taus)
        se = math.sqrt(var / len(taus))
        checks["tau_mean_within_4se"] = abs(sample_mean - mean) <= 4.0 * se
        detail["tau_mean"] = {"sample": sample_mean, "enumerated": mean, "se": se}
    return {"checks": checks, "detail": detail}


# ---------------------------------------------------------------------------
# A run: repetitions, metrics, checks
# ---------------------------------------------------------------------------


def measure_setup_s() -> float:
    """Wall time of `import ladderlab` in a fresh interpreter (start-up included)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ladderlab"], cwd=ROOT, check=True)
    return time.perf_counter() - t0


def _write_config(w: Workload, walks: int, run_dir: Path) -> tuple[Path, dict]:
    import yaml

    cfg = yaml.safe_load((CONFIGS / f"{w.config}.yaml").read_text())
    cfg["n_samples"] = walks
    path = run_dir / "config.json"
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    return path, cfg


def rep_metrics(rep: dict, walks: int) -> dict:
    st = rep["stages"]
    walls = {name: s.get("wall_s", math.nan) for name, s in st.items()}
    out = {
        "pipeline_s": sum(walls.values()),
        "cpu_s": sum(s.get("cpu_s", math.nan) for s in st.values()),
        "peak_rss_mb": max(s.get("rss_mb", math.nan) for s in st.values()),
        "walks_per_s": walks / walls["simulate"],
    }
    for name, wall in walls.items():
        out[f"{name}_s"] = wall
    return out


def layer_metrics(trace: dict, rep: dict) -> dict:
    """Every per-layer metric of one traced repetition (superset of PER_LAYER_UNITS)."""
    import layertrace

    def get(name, key="busy_s"):
        return trace.get(name, {}).get(key, 0.0)

    m = {
        "rng.cells": get("rng.uniform_pair", "cells"),
        "rng.busy_s": get("rng.uniform_pair"),
        "walk.walks": get("walk.simulate_batch", "walks"),
        "walk.steps": get("walk.simulate_batch", "steps"),
        "walk.busy_s": get("walk.simulate_batch"),
        "walk.self_s": get("walk.simulate_batch", "self_s"),
        "construct.splice_levels": get("construct.splice_at", "calls"),
        "growth.certify.calls": get("growth.certify", "calls"),
        "growth.certify.busy_s": get("growth.certify"),
        "estimate.dominance_suite.draws": get("estimate.dominance_suite", "draws"),
        "estimate.moments.busy_s": sum(get(f"estimate.{f}") for f in MOMENT_ESTIMATORS),
        "cli.samples_rows": rep.get("samples", {}).get("rows", 0),
        "cli.samples_bytes": rep.get("samples", {}).get("bytes", 0),
        "config.load_config.busy_s": get("config.load_config"),
    }
    m["rng.cells_per_s"] = m["rng.cells"] / m["rng.busy_s"] if m["rng.busy_s"] else 0.0
    m["walk.cells_per_step"] = get("rng.uniform_pair", "cells_under_walk") / m["walk.steps"] if m["walk.steps"] else 0.0
    for layer in ("construct", "diagnostics", "estimate"):
        for fname in layertrace.FUNCTIONS[layer]:
            m[f"{layer}.{fname}.busy_s"] = get(f"{layer}.{fname}")
    for layer in layertrace.QUAD_LAYERS:
        for key in ("calls", "evals", "abserr_sum"):
            m[f"{layer}.quad_{key}"] = get(f"{layer}.quad", key)
    m["tails.LognormalShifted.log_tail.calls"] = get("tails.LognormalShifted.log_tail", "calls")
    for method in layertrace.TAIL_METHODS:
        for key in ("calls", "elements", "busy_s"):
            m[f"tails.{method}.{key}"] = 0.0
    for name, st in trace.items():
        parts = name.split(".")
        if parts[0] == "tails" and len(parts) == 3 and parts[2] in layertrace.TAIL_METHODS:
            for key in ("calls", "elements", "busy_s"):
                m[f"{name}.{key}"] = st[key]
            # a method's total time counts only outermost calls (no nesting)
            m[f"tails.{parts[2]}.calls"] += st["calls"]
            m[f"tails.{parts[2]}.elements"] += st["elements"]
            m[f"tails.{parts[2]}.busy_s"] += st.get("outer_busy_s", 0.0)
    for stage in ("check", "construct", "simulate", "estimate", "verify"):
        if f"cli.cmd_{stage}" in trace:
            m[f"cli.{stage}.self_s"] = get(f"cli.cmd_{stage}", "self_s")
    rows = m["cli.samples_rows"]
    if rows and m.get("cli.simulate.self_s"):
        m["cli.rows_written_per_s"] = rows / m["cli.simulate.self_s"]
    if rows and m.get("cli.estimate.self_s"):
        m["cli.rows_read_per_s"] = rows / m["cli.estimate.self_s"]
    return m


def stage_shares(trace: dict) -> dict:
    """Self time per layer and busy time per direct child, as shares of each broken-down span."""
    shares = {}
    for name, st in trace.items():
        if "busy_s" not in st or not any(k.startswith("layer_self.") for k in st):
            continue
        total = st["busy_s"]
        shares[name] = {
            "busy_s": total,
            "layer_self": {k.split(".", 1)[1]: v / total for k, v in st.items() if k.startswith("layer_self.")},
            "child_busy": {k.split(".", 1)[1]: v / total for k, v in st.items() if k.startswith("child_busy.")},
        }
    return shares


# What the ROADMAP baseline says dominates each span: (workload, span, breakdown, expected top).
RECONCILE = (
    ("g1_pipeline", "cli.cmd_verify", "child_busy", "diagnostics.sstar_ratio"),
    ("bernoulli_pipeline", "cli.cmd_simulate", "layer_self", "cli"),
    ("pareto_walks", "walk.simulate_batch", "layer_self", "rng"),
)


def reconcile(workload: str, shares: dict) -> list[dict]:
    out = []
    for wname, span, kind, expected in RECONCILE:
        if wname != workload:
            continue
        table = shares.get(span, {}).get(kind, {})
        top = max(table, key=table.get) if table else None
        out.append({"span": span, "breakdown": kind, "expected_top": expected, "top": top, "holds": top == expected})
    return out


def machine_facts(threads: int) -> dict:
    import numpy
    import scipy

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{idx}"
        level, ctype = read(f"{base}/level"), read(f"{base}/type")
        if level in ("2", "3") and ctype in ("Unified", "Data"):
            caches[f"L{level}"] = read(f"{base}/size")
    git_sha = None  # a plain source checkout; src_sha256 identifies the code instead
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "ladderlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "cpu_model": model,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "LADDERLAB_THREADS": threads,
        "thread_note": f"{nproc} cores available: thread scaling beyond {nproc} is not measured "
        "and is not extrapolated",
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, walks: int | None = None) -> dict:
    """Run repetitions for `seconds` (at least MIN_REPS) and check every output.

    An untraced run times one fresh-interpreter import before each repetition,
    so the setup_s samples are spread over the run like the repetitions, and
    tops them up to SETUP_MIN at the end.
    """
    walks = walks or w.walks
    run_dir = WORK / w.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config, cfg = _write_config(w, walks, run_dir) if w.config else (None, None)

    setup, reps = [], []
    t_start = time.perf_counter()
    iter_s = 0.0
    # start another iteration only if it should end within the budget
    while len(reps) < MIN_REPS or time.perf_counter() - t_start + iter_s <= seconds:
        t_iter = time.perf_counter()
        if not trace:
            setup.append(measure_setup_s())
        traced = trace and len(reps) % 2 == 1
        out = run_dir / f"rep{len(reps)}"
        rep = _cli_rep(w, config, out, seed, traced) if w.cli else _library_rep(w, cfg, seed, walks, traced)
        iter_s = time.perf_counter() - t_iter
        rep["traced"] = traced
        if not reps:  # output checks on the first repetition; the digests cover the rest
            rep["checks"] = _output_checks(w, cfg, out, seed, walks, rep)
        if w.cli:
            shutil.rmtree(out)
        reps.append(rep)
    while not trace and len(setup) < SETUP_MIN:
        setup.append(measure_setup_s())

    attempted = failed = 0
    failures = []
    for i, rep in enumerate(reps):
        for stage, s in rep["stages"].items():
            attempted += 1
            if s.get("rc") != 0:
                failed += 1
                failures.append(f"rep{i} {stage}: exit {s.get('rc')} {s.get('error', '')[-400:]}")
        for name, ok in rep.get("checks", {}).get("checks", {}).items():
            attempted += 1
            if not ok:
                failed += 1
                failures.append(f"rep{i} check {name} failed")
        attempted += 1
        if rep["digests"] != reps[0]["digests"] or not rep["digests"]:
            failed += 1
            failures.append(f"rep{i} (traced={rep['traced']}) digests differ from rep0")
        attempted += 1
        if rep["wrappers_left"]:
            failed += 1
            failures.append(f"rep{i} wrappers still installed: {rep['wrappers_left'][:5]}")

    result = {
        "workload": w.name,
        "seed": seed,
        "walks": walks,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digests": reps[0]["digests"],
        "checks": reps[0].get("checks"),
        "reps": len(reps),
    }
    if failed:
        return result

    plain = [rep_metrics(r, walks) for r in reps if not r["traced"]]
    stage_metrics = {k: statistics.median(m[k] for m in plain) for k in plain[0]}
    if trace:
        traced = [r for r in reps if r["traced"]]
        per_rep = [layer_metrics(r["trace"], r) for r in traced]
        keys = set().union(*per_rep)
        layers = {k: statistics.median(m.get(k, 0.0) for m in per_rep) for k in sorted(keys)}
        traced_pipeline = statistics.median(rep_metrics(r, walks)["pipeline_s"] for r in traced)
        layers["trace.overhead_ratio"] = traced_pipeline / stage_metrics["pipeline_s"]
        shares = stage_shares(_merge_stats([r["trace"] for r in traced]))
        result.update(layers=layers, shares=shares, reconcile=reconcile(w.name, shares))
        result["metrics"] = {k: layers[k] for k in PER_LAYER_UNITS}
        result["units"] = PER_LAYER_UNITS
    else:
        stage_metrics["setup_s"] = statistics.median(setup)
        result["setup_runs_s"] = setup
        result["metrics"] = {k: stage_metrics[k] for k in END_TO_END_UNITS}
        result["units"] = END_TO_END_UNITS
    result["stage_metrics"] = stage_metrics
    result["rep_metrics"] = plain
    result["failed_ratio"] = failed / attempted
    return result


def _output_checks(w: Workload, cfg, out: Path, seed: int, walks: int, rep: dict) -> dict:
    if any(s.get("rc") != 0 for s in rep["stages"].values()):
        return {"checks": {}, "detail": {"skipped": "a stage failed"}}
    if w.cli:
        try:
            return in_child(_cli_checks, cfg, str(out), seed, walks)
        except RuntimeError as exc:
            return {"checks": {"output_checks_ran": False}, "detail": {"error": str(exc)[-400:]}}
    if cfg is None:
        increments, step_cap = PARETO | {"family": "pareto"}, 1_000_000
    else:
        increments, step_cap = cfg["increments"], cfg["step_cap"]
    mismatches = _replay_check(increments, seed, step_cap, rep["replay_rows"])
    checks = {f"{k}.ok": ok for k, ok in rep["suites_ok"].items()}
    checks["replay"] = not mismatches
    # The ratio verdict is a 95% binomial band: it misses for about one seed in
    # twelve at 2e6 Pareto walks, so it is reported with the result but does not gate.
    return {"checks": checks, "detail": {"running_max_ratio": rep["ratio"], "replay_mismatches": mismatches[:5]}}


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def print_report(result: dict, trace: bool) -> None:
    p = print
    p(f"# workload {result['workload']}  seed {result['seed']}  walks {result['walks']}  reps {result['reps']}")
    for key, value in result["machine"].items():
        p(f"machine {key} = {value}")
    for name, digest in sorted(result["digests"].items()):
        p(f"digest {name} = sha256:{digest}")
    checks = result.get("checks") or {}
    for name, ok in checks.get("checks", {}).items():
        p(f"check {name} = {'ok' if ok else 'FAILED'}")
    for name, value in checks.get("detail", {}).items():
        p(f"check.detail {name} = {json.dumps(value)}")
    for failure in result["failures"]:
        p(f"failure {failure}")
    p(f"metric failed_ratio = {result['failed'] / result['attempted']!r} {unit_of('failed_ratio')}")
    if result["failed"]:
        return
    for name, value in sorted(result["stage_metrics"].items()):
        if name not in result["metrics"]:
            p(f"metric {name} = {value!r} {unit_of(name)}")
    for name, value in result["metrics"].items():
        p(f"metric {name} = {value!r} {result['units'][name]}")
    if not trace:
        return
    for name, value in result["layers"].items():
        if name not in result["metrics"]:
            p(f"layer {name} = {value!r} {unit_of(name)}")
    for span, table in sorted(result["shares"].items()):
        for kind in ("layer_self", "child_busy"):
            for key, share in sorted(table[kind].items(), key=lambda kv: -kv[1]):
                p(f"share {span} {kind} {key} = {share:.4f} of {table['busy_s']:.4f} s")
    for r in result["reconcile"]:
        p(
            f"reconcile {r['span']} largest {r['breakdown']} = {r['top']} "
            f"(baseline: {r['expected_top']}) {'holds' if r['holds'] else 'DOES NOT HOLD'}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure repetitions for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "ladderlab" / "__init__.py", CONFIGS) if not p.exists()]
    if missing:
        print(f"benchmark: not a ladderlab checkout, missing {[str(p) for p in missing]}", file=sys.stderr)
        return 2
    threads = prepare_environment()
    w = WORKLOADS[args.workload]
    result = run_workload(w, args.seed, args.seconds, bool(args.trace))
    result["machine"] = machine_facts(threads)
    print_report(result, bool(args.trace))
    (WORK / w.name / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=str) + "\n"
    )
    metrics = {} if result["failed"] else {k: {"value": v, "unit": result["units"][k]} for k, v in result["metrics"].items()}
    print(
        json.dumps(
            {"correct": not result["failed"], "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
