"""Batch command line: check | construct | simulate | estimate | verify.

Stages communicate through files in the output directory, so an expensive
simulation is reusable across many estimation sweeps.  Every artifact embeds
the canonical config hash and the seed manifest; estimate and verify refuse
samples whose hash does not match the effective config (stale-input
protection).  No artifact contains timestamps or machine identifiers: given
the same config and seed, a re-run reproduces every output byte for byte.

Every table has unquoted cells and CRLF line ends (the dialect of the
standard `csv` module, so the bytes are those of earlier versions), ints as
`str` and floats as `repr` write them.  The small tables are joined row by
row in `_write_csv`.  `samples.csv` and the replay path are formatted by
`_write_table`, `_SLICE_ROWS` rows at a time, each slice into one numpy byte
buffer: per-cell lengths give the row offsets, and each column is written at
its offsets in vectorised digit passes.  Ints and integral floats below 2**53
need no `repr`: for those doubles it is the integer's digits and ".0".  With a
negative drift most walks descend at step 1, where m_tau is 0.0, so most m_tau
cells take that path.  Beside it, `simulate` writes `samples.npy`, a binary
twin with the same values: one C-order structured array whose fields are the
columns of `samples.csv`, written slice by slice.  Both files are hashed as
they are written, and `manifest.json`, written last, records each one's size
and sha256.  `estimate` and `verify` first refuse a manifest of another
config, then check both digests, then load the twin (no CSV text is parsed)
and check its fields, its row count and that it holds exactly the manifest's
stream ids `start, start + 1, ...` in order.  So a samples file that is
truncated, ragged, reordered, swapped or edited in place, a missing twin, a
manifest without digests (from an older `simulate`) and a manifest of the
wrong shape are all refused with exit 1.  Every artifact is written to a
temp file in the output directory and moved into place with `os.replace`;
`simulate` removes the old manifest before it replaces the samples, so a
killed run never leaves new samples beside an old manifest or a half-written
file under an artifact's name.

Exit codes: 0 success, 1 usage/config error, 2 verification or certification
failure, 3 censored-dominated estimate.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from . import diagnostics, estimate as est
from .config import ConfigError, ExperimentConfig, jsonify, load_config
from .construct import ConstructionError, build_chain
from .growth import GrowthFunction, certify, make_growth
from .tails import ShiftedTail, TailError, TailSpec, make_builtin_dist, tail_table
from .walk import SampleBatch, WalkError, replay_path, simulate_batch

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_CENSORED = 3

_SAMPLES_FILE = "samples.csv"
_TWIN_FILE = "samples.npy"  # the samples.csv values, read back by estimate and verify
_MANIFEST_FILE = "manifest.json"
_SLICE_ROWS = 1 << 16  # rows formatted and written at a time
_HASH_BLOCK = 1 << 18  # bytes read at a time to check a digest
# samples.csv columns and samples.npy fields with their dtypes; "f8" cells are written by repr
_SAMPLE_FIELDS = [("stream_id", "i8"), ("tau", "i8"), ("s_tau", "f8"), ("m_tau", "f8"), ("censored", "i1")]
_PSI_FIELD = ("psi_max", "f8")  # written only for a walk with a shift
_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)  # a uint64 below 10**k has at most k digits
_EXACT_INT = 2.0**53  # every integer of smaller magnitude is a double


@contextmanager
def _atomic_open(path: Path):
    """A binary handle on a temp file beside `path` that replaces `path` on success.

    On any error the temp file is removed and `path` keeps its old content.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # no-op once replaced


def _write_json(path: Path, obj) -> None:
    with _atomic_open(path) as fh:
        fh.write((json.dumps(jsonify(obj), sort_keys=True, indent=2) + "\n").encode())


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write `header` and `rows` (sequences of formatted cells) as CRLF CSV.

    Cells are written as given, unquoted: none of the CLI's cells holds a
    comma, a quote or a line end.
    """
    with _atomic_open(path) as fh:
        fh.write("".join(",".join(row) + "\r\n" for row in chain([header], rows)).encode())


def _write_chunks(path: Path, chunks) -> dict:
    """Write the byte buffers of `chunks` to `path` through `_atomic_open`,
    hashing them on the way; returns their total size and sha256."""
    sha, size = hashlib.sha256(), 0
    with _atomic_open(path) as fh:
        for chunk in chunks:
            sha.update(chunk)
            size += fh.write(chunk)
    return {"bytes": size, "sha256": sha.hexdigest()}


def _write_table(path: Path, header: list[str], blocks) -> dict:
    """Write `header` and the rows of `blocks` as CRLF CSV, `_SLICE_ROWS` rows
    at a time; each block is a list of equal-length int or float columns.
    Returns the file's size and sha256."""
    head = (",".join(header) + "\r\n").encode()
    return _write_chunks(path, chain([head], map(_format_rows, _slices(blocks))))


def _slices(blocks):
    """The rows of `blocks`, `_SLICE_ROWS` at a time, each as a list of column slices."""
    for cols in blocks:
        for a in range(0, len(cols[0]), _SLICE_ROWS):
            yield [col[a : a + _SLICE_ROWS] for col in cols]


def _put_digits(buf: np.ndarray, last: np.ndarray, mag: np.ndarray) -> None:
    """Write the decimal digits of each uint64 `mag` so that its last digit lands at `last`."""
    while mag.size:
        rest = mag // 10
        buf[last] = (mag - rest * 10).astype(np.uint8) + ord("0")
        live = rest != 0
        last, mag = (last - 1, rest) if live.all() else (last[live] - 1, rest[live])


def _cells(col: np.ndarray):
    """Cell lengths of a column, ints as `str` and floats as `repr` write them,
    and a writer that puts the cells into a buffer at given starts.

    Ints, and floats that are integral with |x| < 2**53, are written in bulk:
    for such a double `repr` (the shortest decimal that reads back to it) is
    the integer's digits and ".0", with a "-" wherever the sign bit is set,
    -0.0 included.  `repr` runs only on the other floats.
    """
    if col.dtype.kind == "f":
        with np.errstate(invalid="ignore"):  # a signalling NaN is repr'd like any NaN
            fast = (np.abs(col) < _EXACT_INT) & (np.trunc(col) == col)
        slow = ~fast
        neg, mag, tail = np.signbit(col[fast]), np.abs(col[fast]).astype(np.uint64), ".0"
    else:
        fast, slow = slice(None), slice(0)
        col = col.astype(np.int64, copy=False)
        neg, mag, tail = col < 0, col.astype(np.uint64), ""
        mag[neg] = -mag[neg]  # two's complement, so -2**63 becomes 2**63
    fast_lengths = np.searchsorted(_POW10, mag, side="right") + 1 + neg + len(tail)
    text = list(map(repr, col[slow].tolist()))
    slow_lengths = np.fromiter(map(len, text), np.int64, len(text))
    text = np.frombuffer("".join(text).encode(), np.uint8)
    lengths = np.empty(col.size, np.int64)
    lengths[fast], lengths[slow] = fast_lengths, slow_lengths

    def put(buf, starts):
        first = starts[fast]
        end = first + fast_lengths
        _put_digits(buf, end - len(tail) - 1, mag)
        for k, ch in enumerate(tail):
            buf[end - len(tail) + k] = ord(ch)
        buf[first[neg]] = ord("-")
        # each repr'd cell's bytes go from its offset in `text` to its start in `buf`
        shift = starts[slow] - (np.cumsum(slow_lengths) - slow_lengths)
        buf[np.repeat(shift, slow_lengths) + np.arange(text.size)] = text

    return lengths, put


def _format_rows(cols: list[np.ndarray]) -> np.ndarray:
    """The CSV bytes of the rows of equal-length int or float columns."""
    cells = list(map(_cells, cols))
    widths = sum(lengths for lengths, _ in cells) + len(cols) + 1  # the commas and CRLF
    ends = np.cumsum(widths)
    buf = np.empty(int(ends[-1]), np.uint8)
    starts = ends - widths
    for lengths, put in cells:
        put(buf, starts)
        starts = starts + lengths
        buf[starts] = ord(",")  # after the last column, the CR below overwrites it
        starts += 1
    buf[ends - 2] = ord("\r")
    buf[ends - 1] = ord("\n")
    return buf


def _sample_dtype(shift: float) -> np.dtype:
    """The columns of `samples.csv` and the fields of `samples.npy`."""
    return np.dtype(_SAMPLE_FIELDS + ([_PSI_FIELD] if shift != 0.0 else []))


def _npy_chunks(dtype: np.dtype, blocks):
    """The bytes of `samples.npy`: an .npy header, then the rows of `blocks`
    as a C-order structured array of `dtype`, `_SLICE_ROWS` rows at a time."""
    header = io.BytesIO()
    shape = (sum(len(cols[0]) for cols in blocks),)
    np.lib.format.write_array_header_1_0(
        header, {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": shape}
    )
    yield header.getvalue()
    for cols in _slices(blocks):
        rows = np.empty(len(cols[0]), dtype)
        for name, col in zip(dtype.names, cols):
            rows[name] = col
        yield rows


def _write_samples_csv(path: Path, *parts: SampleBatch) -> dict:
    """Write the rows of `parts`, in order, as `samples.csv` and as its binary
    twin `samples.npy` beside it; returns the manifest's `columns` and `files`
    (each file's size and sha256)."""
    dtype = _sample_dtype(parts[0].shift)
    blocks = [[p.stream_ids, p.tau, p.s_tau, p.m_tau, p.censored, p.psi_max][: len(dtype)] for p in parts]
    files = {
        path.name: _write_table(path, list(dtype.names), blocks),
        _TWIN_FILE: _write_chunks(path.with_name(_TWIN_FILE), _npy_chunks(dtype, blocks)),
    }
    return {"columns": list(dtype.names), "files": files}


@contextmanager
def _checked_open(path: Path, record: dict):
    """A binary handle on `path`, at offset 0, once the file's size and sha256
    match `record`; else a ValueError.  Reads through the handle see the bytes
    that were hashed, since an artifact is only ever replaced, not rewritten."""
    try:
        fh = path.open("rb")
    except FileNotFoundError:
        raise ValueError(f"{path.name} is missing; re-run simulate") from None
    with fh:
        ok = os.fstat(fh.fileno()).st_size == record["bytes"]
        if ok:
            sha, buf = hashlib.sha256(), bytearray(_HASH_BLOCK)
            view = memoryview(buf)
            while n := fh.readinto(buf):
                sha.update(view[:n])
            ok = sha.hexdigest() == record["sha256"]
        if not ok:
            raise ValueError(f"{path.name} does not match its sha256 in {_MANIFEST_FILE}; re-run simulate")
        fh.seek(0)
        yield fh


def _read_samples(out_dir: Path, manifest: dict) -> SampleBatch:
    """The samples of `manifest`, from `samples.npy`; a samples file that
    disagrees with the manifest is a ValueError."""
    files = manifest.get("files")
    if not (
        isinstance(files, dict)
        and set(files) == {_SAMPLES_FILE, _TWIN_FILE}
        and all(isinstance(record, dict) for record in files.values())
    ):
        raise ValueError(f"{_MANIFEST_FILE} has no sha256 of {_SAMPLES_FILE} and {_TWIN_FILE}; re-run simulate")
    with _checked_open(out_dir / _SAMPLES_FILE, files[_SAMPLES_FILE]):
        pass  # only checked: the values are read from the twin
    with _checked_open(out_dir / _TWIN_FILE, files[_TWIN_FILE]) as fh:
        table = np.load(fh, allow_pickle=False)
    dtype = _sample_dtype(float(manifest["shift"]))
    if table.dtype != dtype or manifest.get("columns") != list(dtype.names):
        raise ValueError(f"{_TWIN_FILE} fields {table.dtype.names} do not match the manifest columns")
    start, count = manifest["stream_ids"]["start"], manifest["stream_ids"]["count"]
    if table.shape != (count,):
        raise ValueError(f"{_TWIN_FILE} has shape {table.shape}, the manifest {count} rows")
    stream_ids = np.ascontiguousarray(table["stream_id"])
    if count and (stream_ids[0] != start or np.any(np.diff(stream_ids) != 1)):
        raise ValueError(f"{_TWIN_FILE} stream ids are not {start}..{start + count - 1} in order")
    m_tau = np.ascontiguousarray(table["m_tau"])
    return SampleBatch(
        seed=int(manifest["seed"]),
        step_cap=int(manifest["step_cap"]),
        shift=float(manifest["shift"]),
        stream_ids=stream_ids,
        tau=np.ascontiguousarray(table["tau"]),
        s_tau=np.ascontiguousarray(table["s_tau"]),
        m_tau=m_tau,
        psi_max=np.ascontiguousarray(table["psi_max"]) if "psi_max" in dtype.names else m_tau.copy(),
        censored=table["censored"] != 0,
    )


def _load_samples(cfg: ExperimentConfig, out_dir: Path) -> tuple[dict, SampleBatch]:
    """The manifest in `out_dir` and its samples.  A manifest of another config
    is a ConfigError, refused before any sample is hashed or loaded; one of
    the wrong shape is a ValueError."""
    manifest = json.loads((out_dir / _MANIFEST_FILE).read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"{_MANIFEST_FILE} is not a JSON object")
    if manifest.get("config_hash") != cfg.config_hash:
        raise ConfigError("samples were produced by a different config (hash mismatch)")
    ids = manifest.get("stream_ids")
    if not (isinstance(ids, dict) and all(type(ids.get(key)) is int for key in ("start", "count"))):
        raise ValueError(f"{_MANIFEST_FILE} stream_ids is not an object with integer start and count")
    return manifest, _read_samples(out_dir, manifest)


def _thread_budget(cfg: ExperimentConfig) -> int:
    env = os.environ.get("LADDERLAB_THREADS", "")
    cap = int(env) if env.strip() else cfg.streams
    return max(1, min(cfg.streams, cap))


def _simulate_config(cfg: ExperimentConfig, spec: TailSpec) -> list[SampleBatch]:
    """Simulate across `streams` contiguous stream slices, one batch each, in
    stream order; values never depend on the split because every draw is
    keyed by (seed, stream, step)."""
    edges = np.linspace(0, cfg.n_samples, cfg.streams + 1, dtype=np.int64)
    slices = [np.arange(a, b, dtype=np.int64) for a, b in zip(edges[:-1], edges[1:]) if b > a]

    def run(ids):
        return simulate_batch(
            spec, cfg.seed, stream_ids=ids, step_cap=cfg.step_cap, shift=cfg.shift
        )

    workers = _thread_budget(cfg)
    if workers > 1 and len(slices) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, slices))
    else:
        parts = [run(ids) for ids in slices]
    return parts


def _require(cfg_field, name: str):
    if cfg_field is None:
        raise ConfigError(f"this command needs the '{name}' config section")
    return cfg_field


def _growth_from(cfg: ExperimentConfig) -> GrowthFunction:
    return make_growth(_require(cfg.growth, "growth"))


def _increments_from(cfg: ExperimentConfig) -> TailSpec:
    spec = make_builtin_dist(_require(cfg.increments, "increments"))
    if not spec.mean < 0:
        raise ConfigError(
            f"increments must have strictly negative mean for walk use, got {spec.mean}"
        )
    return spec


def _effective_delta(cfg: ExperimentConfig, a: float) -> float:
    delta = cfg.delta if cfg.delta is not None else a / 2.0
    if not 0 < delta < a:
        raise ConfigError(f"delta must lie in (0, {a}), got {delta}")
    return delta


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_check(cfg: ExperimentConfig, out_dir: Path) -> int:
    g = _growth_from(cfg)
    report = certify(g)
    payload = report.to_dict()
    payload["config_hash"] = cfg.config_hash
    _write_json(out_dir / "condition_report.json", payload)
    status = "certified" if report.all_ok else "FAILED"
    print(
        f"check: {status} family={report.family} gamma={report.gamma} A={report.A} "
        f"x0={report.x0} B={report.B} -> {out_dir / 'condition_report.json'}"
    )
    return EXIT_OK if report.all_ok else EXIT_VERIFY


def cmd_construct(cfg: ExperimentConfig, out_dir: Path) -> int:
    g = _growth_from(cfg)
    base = _increments_from(cfg)
    report = certify(g)
    if not report.all_ok:
        payload = report.to_dict()
        payload["config_hash"] = cfg.config_hash
        _write_json(out_dir / "condition_report.json", payload)
        print("construct: growth certification failed; see condition_report.json", file=sys.stderr)
        return EXIT_VERIFY
    a = -base.mean
    delta = _effective_delta(cfg, a)
    chain = build_chain(base, g, report, delta=delta)
    chain.diagnostics = {
        "majorant_long_tailed": diagnostics.long_tailed_profile(chain.hat).to_dict(),
        "majorant_sstar": diagnostics.sstar_ratio(chain.hat).to_dict(),
        "majorant_log_tail_increment": diagnostics.check_log_tail_increment(
            chain.hat, report.gamma
        ).to_dict(),
    }
    payload = chain.to_dict()
    payload["config_hash"] = cfg.config_hash
    _write_json(out_dir / "chain.json", payload)

    lo = min(chain.base.support[0], 0.0)
    hi = diagnostics.usable_tail_horizon(chain.base)
    xs = np.concatenate([np.linspace(lo, max(lo + 1.0, 1.0), 64), np.geomspace(1.0, hi, 192)])
    rows = tail_table({"base": chain.base, "spliced": chain.tilde, "majorant": chain.hat}, xs)
    _write_csv(out_dir / "tail_tables.csv", rows[0], ([repr(v) for v in row] for row in rows[1:]))

    print(
        f"construct: K={chain.K:.6g} V={chain.V:.6g} V'={chain.V_prime:.6g} "
        f"L={chain.L:.6g} delta={chain.delta:.6g} -> {out_dir / 'chain.json'}"
    )
    return EXIT_OK


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path, replay: int | None = None) -> int:
    spec = _increments_from(cfg)
    if replay is not None:
        # audit mode: re-emit one stream's full path instead of a fresh batch
        path = replay_path(spec, cfg.seed, replay, step_cap=cfg.step_cap, shift=cfg.shift)
        target = out_dir / f"replay_{replay}.csv"
        tau = path["tau"]
        cols = [np.arange(1, tau + 1), path["increments"][:tau], path["partial_sums"][:tau]]
        _write_table(target, ["step", "increment", "partial_sum"], [cols])
        print(
            f"replay: stream={replay} tau={path['tau']} s_tau={path['s_tau']!r} "
            f"censored={path['censored']} -> {target}"
        )
        return EXIT_OK
    parts = _simulate_config(cfg, spec)
    n = sum(p.n for p in parts)
    censored_n = sum(p.censored_n for p in parts)
    # the old manifest goes first: a run killed before the new one is written
    # leaves samples without a manifest, never new samples with an old one
    (out_dir / _MANIFEST_FILE).unlink(missing_ok=True)
    written = _write_samples_csv(out_dir / _SAMPLES_FILE, *parts)
    manifest = {
        "config_hash": cfg.config_hash,
        "seed": cfg.seed,
        "n_samples": cfg.n_samples,
        "step_cap": cfg.step_cap,
        "shift": cfg.shift,
        "stream_ids": {"start": 0, "count": cfg.n_samples},
        "censored_n": censored_n,
        "censoring_rate": censored_n / n,
        **written,
    }
    _write_json(out_dir / _MANIFEST_FILE, manifest)
    print(
        f"simulate: n={n} censored={censored_n} mean_tau={sum(int(p.tau.sum()) for p in parts) / n:.6g} "
        f"-> {out_dir / _SAMPLES_FILE}"
    )
    return EXIT_OK


def _configured_estimates(cfg: ExperimentConfig, batch: SampleBatch, a: float) -> list:
    estimates = []
    if cfg.growth is not None and cfg.eps is not None:
        g = _growth_from(cfg)
        delta = _effective_delta(cfg, a)
        estimates.append(est.estimate_growth_moment(batch, g, cfg.eps, delta, a))
    if cfg.alpha is not None:
        estimates.append(est.estimate_power_moment(batch, cfg.alpha))
    if cfg.c is not None:
        estimates.append(est.estimate_exp_moment(batch, cfg.c))
    if not estimates:
        raise ConfigError("no estimand configured: set eps (+growth), alpha, or c")
    return estimates


def cmd_estimate(cfg: ExperimentConfig, out_dir: Path, fmt: str) -> int:
    spec = _increments_from(cfg)
    manifest, batch = _load_samples(cfg, out_dir)
    a = -spec.mean
    estimates = _configured_estimates(cfg, batch, a)
    payload = {
        "config_hash": cfg.config_hash,
        "seed_manifest": {"seed": cfg.seed, "stream_ids": manifest["stream_ids"]},
        "estimates": [e.to_dict() for e in estimates],
    }
    _write_json(out_dir / "estimates.json", payload)
    if fmt == "csv":
        _write_csv(
            out_dir / "estimates.csv",
            ["kind", "n", "point", "std_error", "ci_lo", "ci_hi", "top1_share", "censored_n", "verdict"],
            ([e.estimand["kind"], str(e.n), repr(e.point), repr(e.std_error), repr(e.ci95[0]),
              repr(e.ci95[1]), repr(e.top1_share), str(e.censored_n), e.verdict] for e in estimates),
        )
    for e in estimates:
        print(
            f"estimate[{e.estimand['kind']}]: point={e.point:.8g} se={e.std_error:.3g} "
            f"verdict={e.verdict}"
        )
    censored_dominated = any(e.verdict == "censored-dominated" for e in estimates)
    return EXIT_CENSORED if censored_dominated else EXIT_OK


def cmd_verify(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Run the check suites against existing samples.

    The construction chain is rebuilt from the config (deterministic, so it
    matches any previously serialized chain.json byte for byte).  Only the
    exactly-assertable suites (dominance coupling, stopping-identity
    consistency) gate the exit code; the ratio and stability results are
    CI-based or heuristic and are reported without failing the run.
    """
    spec = _increments_from(cfg)
    _, batch = _load_samples(cfg, out_dir)

    report: dict = {"config_hash": cfg.config_hash}
    exact_ok = True

    if cfg.growth is not None:
        g = _growth_from(cfg)
        cert = certify(g)
        if not cert.all_ok:
            print("verify: growth certification failed", file=sys.stderr)
            return EXIT_VERIFY
        a = -spec.mean
        chain = build_chain(spec, g, cert, delta=_effective_delta(cfg, a))
        dom = est.dominance_suite(chain, n=min(cfg.n_samples, 1_000_000), seed=cfg.seed)
        report["dominance"] = dom.to_dict()
        exact_ok &= dom.ok

    wald = est.wald_check(batch, spec.mean)
    report["wald"] = wald.to_dict()
    exact_ok &= wald.ok

    psi_spec = ShiftedTail(spec, cfg.shift) if cfg.shift != 0.0 else spec
    try:
        report["psi_sstar"] = diagnostics.sstar_ratio(psi_spec).to_dict()
    except ValueError as exc:  # no upper tail to classify (e.g. all mass negative)
        report["psi_sstar"] = {"skipped": str(exc)}
    ratio = est.running_max_ratio_check(batch, psi_spec)
    report["running_max_ratio"] = ratio.to_dict()
    _write_csv(
        out_dir / "ratio_curve.csv",
        ["x", "exceedances", "ratio", "ratio_lo", "ratio_hi", "e_tau"],
        ([repr(row["x"]), str(row["exceedances"]), repr(row["ratio"]), repr(row["ratio_lo"]),
          repr(row["ratio_hi"]), repr(ratio.e_tau)] for row in ratio.rows),
    )

    sizes = sorted({cfg.n_samples // 64, cfg.n_samples // 16, cfg.n_samples // 4, cfg.n_samples})
    sizes = [s for s in sizes if s >= 2]
    if len(sizes) >= 4:
        try:
            a = -spec.mean
            series = [_configured_estimates(cfg, batch.head(s), a)[0] for s in sizes]
            stability = est.finiteness_diagnostic(series)
            report["finiteness"] = stability.to_dict()
            _write_csv(
                out_dir / "stability_curve.csv",
                ["n", "point", "std_error", "top1_share"],
                ([str(p["n"]), repr(p["point"]), repr(p["std_error"]), repr(p["top1_share"])]
                 for p in stability.points),
            )
        except ConfigError:
            report["finiteness"] = {"skipped": "no estimand configured"}
    else:
        report["finiteness"] = {"skipped": "n_samples too small for a stability series"}

    _write_json(out_dir / "verify_report.json", report)
    suites = [k for k in ("dominance", "wald", "running_max_ratio", "finiteness") if k in report]
    print(f"verify: exact_ok={exact_ok} suites={suites} -> {out_dir / 'verify_report.json'}")
    return EXIT_OK if exact_ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ladderlab",
        description="Constructions, simulation and moment diagnostics for "
        "descent epochs of heavy-tailed random walks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("check", "certify a growth function and fit its constants"),
        ("construct", "build the dominating-increment chain and its diagnostics"),
        ("simulate", "sample descent epochs to CSV with a manifest"),
        ("estimate", "estimate configured moment functionals from samples"),
        ("verify", "run the dominance/consistency/ratio/stability suites"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="YAML or JSON experiment config")
        p.add_argument("--out", default=None, help="output directory (default from config or ./out)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--streams", type=int, default=None, help="override the parallel stream count")
        p.add_argument("--format", choices=["csv", "json"], default="json", help="extra table format for estimate")
        if name == "simulate":
            p.add_argument(
                "--replay",
                type=int,
                default=None,
                metavar="STREAM_ID",
                help="re-emit the full path of one stream for audit instead of simulating",
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed_override=args.seed, streams_override=args.streams)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out or cfg.outputs.get("dir", "out"))
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        if args.command == "check":
            return cmd_check(cfg, out_dir)
        if args.command == "construct":
            return cmd_construct(cfg, out_dir)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir, replay=args.replay)
        if args.command == "estimate":
            return cmd_estimate(cfg, out_dir, args.format)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir)
    except (ConfigError, TailError, WalkError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
