"""Batch command line: check | construct | simulate | estimate | verify.

Stages communicate through files in the output directory, so an expensive
simulation is reusable across many estimation sweeps.  Every artifact embeds
the canonical config hash and the seed manifest; estimate and verify refuse
samples whose hash does not match the effective config (stale-input
protection).  No artifact contains timestamps or machine identifiers: given
the same config and seed, a re-run reproduces every output byte for byte.

Every table has unquoted cells and CRLF line ends (the dialect of the
standard `csv` module, so the bytes are those of earlier versions), ints as
`str` and floats as `repr` write them, and text as given.  Every table is
written from its columns by `_write_table`, which formats `_SLICE_ROWS` rows
at a time with `_format_rows`, each slice into one numpy byte buffer:
per-cell lengths give the row offsets, and each column is written at its
offsets in vectorised digit passes.  Ints and integral floats below 2**53
need no `repr`: for those doubles it is the integer's digits and ".0".  With a
negative drift most walks descend at step 1, where m_tau is 0.0, so most m_tau
cells take that path.  Beside it, `simulate` writes `samples.npy`, a binary
twin with the same values: one C-order structured array whose fields are the
columns of `samples.csv`, written slice by slice.

`simulate` streams: the stream ids are split into tasks of at most
`_TASK_WALKS` walks, and each task is simulated (one `simulate_batch` chunk)
and encoded into its CSV text and twin rows on one of `LADDERLAB_THREADS`
worker threads (else one per usable CPU).  The main thread takes the results
strictly in task order, with at most workers + 1 tasks in flight, so memory
is bounded per task, not per run, and the bytes do not depend on the worker
count, since each row's text depends only on its own values.  Both files are
hashed as they are written, and `manifest.json`, written last, records each
one's size and sha256.  `estimate` and `verify` first refuse a manifest of
another config, then read the twin once, in `_SLICE_ROWS`-row blocks through
one handle, hashing each block and copying its fields but the stream ids
into the columns, while `samples.csv` is hashed on a helper thread; no CSV
text is parsed, and the bytes that are hashed are the bytes that are
loaded.  The twin must be the .npy 1.0 header of a C-order array of the
manifest's fields and row count followed by exactly those rows, holding
the manifest's stream ids `start, start + 1, ...` in order, and both
digests must match.  So a samples file that is truncated, ragged,
reordered, swapped or edited in place, a missing twin or one of another
layout, a manifest without digests (from an older `simulate`) and a
manifest of the wrong shape are all refused with exit 1.  Every artifact
is written to a temp file in the output directory and moved into place
with `os.replace`; `simulate` removes the old manifest before it replaces
the samples, so a killed run never leaves new samples beside an old
manifest or a half-written file under an artifact's name.

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
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, contextmanager
from pathlib import Path

import numpy as np

from . import diagnostics, estimate as est
from .config import ConfigError, ExperimentConfig, jsonify, load_config
from .construct import ConstructionError, build_chain
from .growth import GrowthFunction, certify, make_growth
from .tails import ShiftedTail, TailError, TailSpec, make_builtin_dist
from .walk import SampleBatch, WalkError, replay_path, simulate_batch

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_CENSORED = 3

_SAMPLES_FILE = "samples.csv"
_TWIN_FILE = "samples.npy"  # the samples.csv values, read back by estimate and verify
_MANIFEST_FILE = "manifest.json"
_SLICE_ROWS = 1 << 16  # rows formatted and written, or read, at a time
_TASK_WALKS = 250_000  # walks simulated and encoded per worker task
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


class _HashedWriter:
    """Writes byte buffers to a binary handle and keeps their total size and sha256."""

    def __init__(self, fh):
        self.fh, self.sha, self.size = fh, hashlib.sha256(), 0

    def write(self, chunk) -> None:
        self.sha.update(chunk)
        self.size += self.fh.write(chunk)

    def record(self) -> dict:
        return {"bytes": self.size, "sha256": self.sha.hexdigest()}


def _write_table(path: Path, header: list[str], cols: list[np.ndarray]) -> None:
    """Write `header` and the rows of the equal-length int, float or str
    columns `cols` as CRLF CSV, `_SLICE_ROWS` rows at a time; with no rows,
    only the header line."""
    with _atomic_open(path) as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for part in _slices(cols):
            fh.write(_format_rows(part))


def _slices(cols: list[np.ndarray]):
    """The rows of `cols`, `_SLICE_ROWS` at a time, each as a list of column slices."""
    for a in range(0, len(cols[0]), _SLICE_ROWS):
        yield [col[a : a + _SLICE_ROWS] for col in cols]


def _put_digits(buf: np.ndarray, last: np.ndarray, mag: np.ndarray) -> None:
    """Write the decimal digits of each uint64 `mag` so that its last digit lands at `last`."""
    while mag.size:
        rest = mag // 10
        buf[last] = (mag - rest * 10).astype(np.uint8) + ord("0")
        live = rest != 0
        last, mag = (last - 1, rest) if live.all() else (last[live] - 1, rest[live])


def _digit_counts(mag: np.ndarray) -> np.ndarray:
    """The number of decimal digits of each uint64 in `mag`."""
    digits = np.ones(mag.size, np.int64)
    top = int(mag.max()) if mag.size else 0
    for power in _POW10[: len(str(top)) - 1]:  # only the powers that some value reaches
        digits += mag >= power
    return digits


def _cells(col: np.ndarray):
    """Cell lengths of a column, ints as `str` and floats as `repr` write them
    and ASCII text as given, and a writer that puts the cells into a buffer
    at given starts.  No cell may hold a comma, a quote or a line end; none
    of the CLI's cells does.

    Ints, and floats that are integral with |x| < 2**53, are written in bulk:
    for such a double `repr` (the shortest decimal that reads back to it) is
    the integer's digits and ".0", with a "-" wherever the sign bit is set,
    -0.0 included.  `repr` runs only on the other floats.
    """
    fmt = repr
    if col.dtype.kind == "U":
        fast, slow, fmt = slice(0), slice(None), str
        neg, mag, tail = np.empty(0, bool), np.empty(0, np.uint64), ""
    elif col.dtype.kind == "f":
        with np.errstate(invalid="ignore"):  # a signalling NaN is repr'd like any NaN
            fast = (np.abs(col) < _EXACT_INT) & (np.trunc(col) == col)
        slow = ~fast
        neg, mag, tail = np.signbit(col[fast]), np.abs(col[fast]).astype(np.uint64), ".0"
    else:
        fast, slow = slice(None), slice(0)
        col = col.astype(np.int64, copy=False)
        neg, mag, tail = col < 0, col.astype(np.uint64), ""
        mag[neg] = -mag[neg]  # two's complement, so -2**63 becomes 2**63
    fast_lengths = _digit_counts(mag) + neg + len(tail)
    text = list(map(fmt, col[slow].tolist()))
    slow_lengths = np.fromiter(map(len, text), np.int64, len(text))
    text = np.frombuffer("".join(text).encode("ascii"), np.uint8)  # lengths count characters
    lengths = np.empty(col.size, np.int64)
    lengths[fast], lengths[slow] = fast_lengths, slow_lengths

    def put(buf, starts):
        first = starts[fast]
        end = first + fast_lengths
        _put_digits(buf, end - len(tail) - 1, mag)
        for k, ch in enumerate(tail):
            buf[end - len(tail) + k] = ord(ch)
        buf[first[neg]] = ord("-")
        # each repr'd or text cell's bytes go from its offset in `text` to its start in `buf`
        shift = starts[slow] - (np.cumsum(slow_lengths) - slow_lengths)
        buf[np.repeat(shift, slow_lengths) + np.arange(text.size)] = text

    return lengths, put


def _format_rows(cols: list[np.ndarray]) -> np.ndarray:
    """The CSV bytes of the rows of equal-length int, float or str columns."""
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


def _encode(batch: SampleBatch, dtype: np.dtype) -> tuple[list, list]:
    """The `samples.csv` text and the `samples.npy` rows of `batch`, as two
    lists of buffers of `_SLICE_ROWS` rows each."""
    cols = [batch.stream_ids, batch.tau, batch.s_tau, batch.m_tau, batch.censored, batch.psi_max][: len(dtype)]
    text, twin = [], []
    for part in _slices(cols):
        text.append(_format_rows(part))
        rows = np.empty(len(part[0]), dtype)
        for name, col in zip(dtype.names, part):
            rows[name] = col
        twin.append(rows)
    return text, twin


def _write_samples(out_dir: Path, dtype: np.dtype, n: int, encoded) -> tuple[dict, int, int]:
    """Write `samples.csv` and its binary twin `samples.npy` in `out_dir` from
    `encoded`, the `_encode` output of consecutive runs of the `n` rows in
    order.  Returns the manifest's `columns` and `files` (each file's size
    and sha256), the number of censored walks and the sum of tau."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": (n,)}
    )
    censored_n = tau_sum = 0
    with _atomic_open(out_dir / _SAMPLES_FILE) as text_fh, _atomic_open(out_dir / _TWIN_FILE) as twin_fh:
        text_out, twin_out = _HashedWriter(text_fh), _HashedWriter(twin_fh)
        text_out.write((",".join(dtype.names) + "\r\n").encode())
        twin_out.write(header.getvalue())
        for text, twin in encoded:
            for chunk in text:
                text_out.write(chunk)
            for rows in twin:
                twin_out.write(rows)
                censored_n += int(np.count_nonzero(rows["censored"]))
                tau_sum += int(rows["tau"].sum())
    files = {_SAMPLES_FILE: text_out.record(), _TWIN_FILE: twin_out.record()}
    return {"columns": list(dtype.names), "files": files}, censored_n, tau_sum


def _in_order(fn, tasks, workers: int):
    """fn(*task) for each of `tasks`, run on `workers` threads and yielded in
    task order, with at most `workers + 1` tasks submitted and not yet
    yielded.  Closing the generator cancels the tasks not yet started."""
    pending = deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            for task in tasks:
                if len(pending) > workers:
                    yield pending.popleft().result()
                pending.append(pool.submit(fn, *task))
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def _open_samples_file(path: Path):
    try:
        return path.open("rb")
    except FileNotFoundError:
        raise ValueError(f"{path.name} is missing; re-run simulate") from None


def _mismatch(name: str) -> ValueError:
    return ValueError(f"{name} does not match its sha256 in {_MANIFEST_FILE}; re-run simulate")


def _sha256_rest(fh) -> str:
    """The sha256 of the rest of `fh`, read `_HASH_BLOCK` bytes at a time."""
    sha, buf = hashlib.sha256(), bytearray(_HASH_BLOCK)
    view = memoryview(buf)
    while n := fh.readinto(buf):
        sha.update(view[:n])
    return sha.hexdigest()


def _read_twin(fh, dtype: np.dtype, start: int, count: int) -> tuple[dict, str]:
    """The columns of `samples.npy` but the stream ids, read once through
    `fh` in blocks of `_SLICE_ROWS` rows, and the sha256 of the bytes read.
    Anything but the .npy 1.0 header of a C-order array of `dtype` and shape
    `(count,)` followed by exactly its rows, one per stream id `start,
    start + 1, ...` in order, is a ValueError."""
    sha = hashlib.sha256()
    head = fh.read(10)  # magic string, version, little-endian uint16 header length
    if len(head) < 10 or head[:8] != np.lib.format.MAGIC_PREFIX + bytes([1, 0]):
        raise ValueError(f"{_TWIN_FILE} is not an .npy version 1.0 file")
    head += fh.read(int.from_bytes(head[8:], "little"))
    sha.update(head)
    shape, fortran_order, found = np.lib.format.read_array_header_1_0(io.BytesIO(head[8:]))
    if found != dtype or fortran_order or shape != (count,):
        raise ValueError(
            f"{_TWIN_FILE} holds a {'Fortran' if fortran_order else 'C'}-order array of "
            f"{found.names} and shape {shape}, not of the manifest's columns and {count} rows"
        )
    if os.fstat(fh.fileno()).st_size != len(head) + count * dtype.itemsize:
        raise ValueError(f"{_TWIN_FILE} is not {count} rows of {dtype.itemsize} bytes after its header")
    cols = {name: np.empty(count, bool if name == "censored" else dtype[name]) for name in dtype.names[1:]}
    buf = np.empty(_SLICE_ROWS, dtype)
    raw = buf.view(np.uint8)
    for a in range(0, count, _SLICE_ROWS):
        rows = buf[: min(_SLICE_ROWS, count - a)]
        block = raw[: rows.nbytes]
        if fh.readinto(block) != block.size:
            raise ValueError(f"{_TWIN_FILE} ends before its last row")
        sha.update(block)
        if not np.array_equal(rows["stream_id"], np.arange(start + a, start + a + rows.size)):
            raise ValueError(f"{_TWIN_FILE} stream ids are not {start}..{start + count - 1} in order")
        for name, col in cols.items():
            col[a : a + rows.size] = rows[name] if name != "censored" else rows[name] != 0
    return cols, sha.hexdigest()


def _read_samples(out_dir: Path, manifest: dict) -> SampleBatch:
    """The samples of `manifest`, read from `samples.npy` while `samples.csv`
    is hashed on a helper thread; a samples file that disagrees with the
    manifest is a ValueError.  The twin is read once, through one handle, so
    the bytes that are hashed are the bytes that are loaded."""
    files = manifest.get("files")
    if not (
        isinstance(files, dict)
        and set(files) == {_SAMPLES_FILE, _TWIN_FILE}
        and all(isinstance(record, dict) for record in files.values())
    ):
        raise ValueError(f"{_MANIFEST_FILE} has no sha256 of {_SAMPLES_FILE} and {_TWIN_FILE}; re-run simulate")
    dtype = _sample_dtype(float(manifest["shift"]))
    if manifest.get("columns") != list(dtype.names):
        raise ValueError(f"{_MANIFEST_FILE} columns are not {list(dtype.names)}")
    start, count = manifest["stream_ids"]["start"], manifest["stream_ids"]["count"]
    with _open_samples_file(out_dir / _SAMPLES_FILE) as text, _open_samples_file(out_dir / _TWIN_FILE) as twin:
        for name, fh in ((_SAMPLES_FILE, text), (_TWIN_FILE, twin)):
            if os.fstat(fh.fileno()).st_size != files[name]["bytes"]:
                raise _mismatch(name)
        with ThreadPoolExecutor(max_workers=1) as helper:
            text_sha = helper.submit(_sha256_rest, text)
            cols, twin_sha = _read_twin(twin, dtype, start, count)
    for name, sha in ((_SAMPLES_FILE, text_sha.result()), (_TWIN_FILE, twin_sha)):
        if sha != files[name]["sha256"]:
            raise _mismatch(name)
    return SampleBatch(
        shift=float(manifest["shift"]),
        first_stream=start,
        tau=cols["tau"],
        s_tau=cols["s_tau"],
        m_tau=cols["m_tau"],
        psi_max=cols.get("psi_max", cols["m_tau"]),
        censored=cols["censored"],
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


def _worker_count() -> int:
    """`LADDERLAB_THREADS` if it is set, else the number of CPUs this process may run on."""
    env = os.environ.get("LADDERLAB_THREADS", "").strip()
    usable = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    return max(1, int(env)) if env else len(usable)


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
    if not spec.mean + cfg.shift < 0:  # simulate refuses it before it removes the old manifest
        raise ConfigError(f"increments plus shift must have strictly negative mean, got {spec.mean + cfg.shift}")
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
    _write_json(out_dir / "condition_report.json", {**report.to_dict(), "config_hash": cfg.config_hash})
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
        _write_json(out_dir / "condition_report.json", {**report.to_dict(), "config_hash": cfg.config_hash})
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
    _write_json(out_dir / "chain.json", {**chain.to_dict(), "config_hash": cfg.config_hash})

    lo = min(chain.base.support[0], 0.0)
    hi = diagnostics.usable_tail_horizon(chain.base)
    xs = np.concatenate([np.linspace(lo, max(lo + 1.0, 1.0), 64), np.geomspace(1.0, hi, 192)])
    cols = [xs] + [spec.tail(xs) for spec in (chain.base, chain.tilde, chain.hat)]
    _write_table(out_dir / "tail_tables.csv", ["x", "base", "spliced", "majorant"], cols)

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
        _write_table(target, ["step", "increment", "partial_sum"], cols)
        print(
            f"replay: stream={replay} tau={path['tau']} s_tau={path['s_tau']!r} "
            f"censored={path['censored']} -> {target}"
        )
        return EXIT_OK
    dtype, n = _sample_dtype(cfg.shift), cfg.n_samples

    def task(lo, hi):  # at most walk._CHUNK walks, so simulate_batch runs one chunk
        batch = simulate_batch(spec, cfg.seed, hi - lo, step_cap=cfg.step_cap, shift=cfg.shift, first_stream=lo)
        return _encode(batch, dtype)

    # the old manifest goes first: a run killed before the new one is written
    # leaves samples without a manifest, never new samples with an old one
    (out_dir / _MANIFEST_FILE).unlink(missing_ok=True)
    tasks = ((lo, min(lo + _TASK_WALKS, n)) for lo in range(0, n, _TASK_WALKS))
    with closing(_in_order(task, tasks, _worker_count())) as encoded:
        written, censored_n, tau_sum = _write_samples(out_dir, dtype, n, encoded)
    manifest = {
        "config_hash": cfg.config_hash,
        "seed": cfg.seed,
        "n_samples": n,
        "step_cap": cfg.step_cap,
        "shift": cfg.shift,
        "stream_ids": {"start": 0, "count": n},
        "censored_n": censored_n,
        "censoring_rate": censored_n / n,
        **written,
    }
    _write_json(out_dir / _MANIFEST_FILE, manifest)
    print(f"simulate: n={n} censored={censored_n} mean_tau={tau_sum / n:.6g} -> {out_dir / _SAMPLES_FILE}")
    return EXIT_OK


def _configured_estimates(cfg: ExperimentConfig, a: float) -> list:
    """One function per configured estimand, each mapping a batch to its MomentEstimate."""
    estimators = []
    if cfg.growth is not None and cfg.eps is not None:
        g, delta = _growth_from(cfg), _effective_delta(cfg, a)
        estimators.append(lambda batch: est.estimate_growth_moment(batch, g, cfg.eps, delta, a))
    if cfg.alpha is not None:
        estimators.append(lambda batch: est.estimate_power_moment(batch, cfg.alpha))
    if cfg.c is not None:
        estimators.append(lambda batch: est.estimate_exp_moment(batch, cfg.c))
    if not estimators:
        raise ConfigError("no estimand configured: set eps (+growth), alpha, or c")
    return estimators


def cmd_estimate(cfg: ExperimentConfig, out_dir: Path, fmt: str) -> int:
    estimators = _configured_estimates(cfg, -_increments_from(cfg).mean)  # refused before any sample is read
    manifest, batch = _load_samples(cfg, out_dir)
    estimates = [estimator(batch) for estimator in estimators]
    payload = {
        "config_hash": cfg.config_hash,
        "seed_manifest": {"seed": cfg.seed, "stream_ids": manifest["stream_ids"]},
        "estimates": [e.to_dict() for e in estimates],
    }
    _write_json(out_dir / "estimates.json", payload)
    if fmt == "csv":
        cells = [(e.estimand["kind"], e.n, e.point, e.std_error, *e.ci95, e.top1_share, e.censored_n, e.verdict)
                 for e in estimates]
        _write_table(
            out_dir / "estimates.csv",
            ["kind", "n", "point", "std_error", "ci_lo", "ci_hi", "top1_share", "censored_n", "verdict"],
            [np.array(col) for col in zip(*cells)],
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
    a = -spec.mean

    if cfg.growth is not None:
        g = _growth_from(cfg)
        cert = certify(g)
        if not cert.all_ok:
            print("verify: growth certification failed", file=sys.stderr)
            return EXIT_VERIFY
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
    header = ["x", "exceedances", "ratio", "ratio_lo", "ratio_hi"]
    cols = [np.array([row[key] for row in ratio.rows]) for key in header]
    _write_table(out_dir / "ratio_curve.csv", header + ["e_tau"], cols + [np.full(len(ratio.rows), ratio.e_tau)])

    sizes = sorted({cfg.n_samples // 64, cfg.n_samples // 16, cfg.n_samples // 4, cfg.n_samples})
    sizes = [s for s in sizes if s >= 2]
    if len(sizes) >= 4:
        try:
            first = _configured_estimates(cfg, a)[0]
        except ConfigError:
            report["finiteness"] = {"skipped": "no estimand configured"}
        else:
            stability = est.finiteness_diagnostic([first(batch.head(s)) for s in sizes])
            report["finiteness"] = stability.to_dict()
            header = ["n", "point", "std_error", "top1_share"]
            cols = [np.array([p[key] for p in stability.points]) for key in header]
            _write_table(out_dir / "stability_curve.csv", header, cols)
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
        p.add_argument("--out", default="out", help="output directory (default ./out)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "estimate":
            p.add_argument("--format", choices=["csv", "json"], default="json", help="csv adds estimates.csv")
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
        cfg = load_config(args.config, seed_override=args.seed)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out)
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
