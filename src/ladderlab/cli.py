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
cells take that path.  Beside it, `simulate` writes each column of
`samples.csv` but the stream id, which the manifest fixes, as its own binary
file `samples.<column>.npy`: a plain 1-D .npy 1.0 array, as `np.save` writes
it, of the column's values in row order.

`simulate` streams: the stream ids are split into tasks of at most
`walk._CHUNK` walks, and each task is simulated (one `simulate_batch` chunk)
and encoded into its CSV text on one of `LADDERLAB_THREADS` worker threads
(else one per usable CPU).  The main thread takes the results strictly in
task order, with at most workers + 1 tasks in flight, and writes the CSV
text and the batch's contiguous columns, so memory is bounded per task, not
per run, and the bytes do not depend on the worker count, since each row's
text depends only on its own values.  Every file is hashed as it is
written, and `manifest.json`, written last, records each one's size and
sha256.  `estimate` and `verify` first refuse a manifest of another config,
then run one job per file of the manifest on a pool of the same worker
count: each checks its file's size, and for a column file checks that its
header is exactly the expected dtype, C order and shape `(count,)` and
reads the values straight into a new column, hashing each piece as it
lands; `samples.csv` is only hashed.  No CSV text is parsed, and the bytes
that are hashed are the bytes that are loaded.  So a samples file that is
truncated, ragged, reordered, swapped or edited in place, a missing column
file or one of another layout, a manifest without the digests of exactly
these files (from an older `simulate`) and a manifest of the wrong shape
are all refused with exit 1.  A `LADDERLAB_THREADS` that is not a positive
integer is a config error, refused before anything is read or removed.
Every artifact is written to a temp file in the output directory and moved
into place with `os.replace`; `simulate` removes the old manifest, and then
any sample file that the new manifest will not list, before it replaces the
samples, so a killed run never leaves new samples beside an old manifest or
a half-written file under an artifact's name.

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
from contextlib import ExitStack, closing, contextmanager
from pathlib import Path

import numpy as np

from . import diagnostics, estimate as est, walk
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
_LEGACY_TWIN = "samples.npy"  # all columns in one structured array, the layout before the column files
_MANIFEST_FILE = "manifest.json"
_SLICE_ROWS = 1 << 16  # rows formatted and written at a time
_HASH_BLOCK = 1 << 18  # bytes read at a time to check a digest or load a column
_SAMPLE_COLUMNS = ["stream_id", "tau", "s_tau", "m_tau", "censored"]  # of samples.csv; psi_max follows with a shift
# each column but the stream id is also its own samples.<column>.npy of this dtype; float cells are written by repr
_COLUMN_DTYPES = {name: np.dtype(code) for name, code in
                  [("tau", "<i8"), ("s_tau", "<f8"), ("m_tau", "<f8"), ("censored", "|b1"), ("psi_max", "<f8")]}
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


def _sample_columns(shift: float) -> list[str]:
    """The columns of `samples.csv`; each but the stream id has its own .npy file."""
    return _SAMPLE_COLUMNS + ["psi_max"] * (shift != 0.0)


def _column_file(name: str) -> str:
    return f"samples.{name}.npy"


def _npy_header(dtype: np.dtype, count: int) -> bytes:
    """The .npy 1.0 header that `np.save` writes for a 1-D array of `count` values of `dtype`."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": (count,)}
    )
    return header.getvalue()


def _encode(batch: SampleBatch, columns: list[str]) -> list[np.ndarray]:
    """The `samples.csv` text of `batch`, as buffers of `_SLICE_ROWS` rows each."""
    cols = [batch.stream_ids] + [getattr(batch, name) for name in columns[1:]]
    return [_format_rows(part) for part in _slices(cols)]


def _write_samples(out_dir: Path, columns: list[str], n: int, encoded) -> tuple[dict, int, int]:
    """Write `samples.csv` and one .npy file per column but the stream id in
    `out_dir` from `encoded`: (batch, its `_encode` text) for consecutive runs
    of the `n` rows in order.  Returns the manifest's `columns` and `files`
    (each file's size and sha256), the number of censored walks and the sum
    of tau."""
    censored_n = tau_sum = 0
    with ExitStack() as stack:
        out = {
            name: _HashedWriter(stack.enter_context(_atomic_open(out_dir / name)))
            for name in [_SAMPLES_FILE] + [_column_file(col) for col in columns[1:]]
        }
        out[_SAMPLES_FILE].write((",".join(columns) + "\r\n").encode())
        for col in columns[1:]:
            out[_column_file(col)].write(_npy_header(_COLUMN_DTYPES[col], n))
        for batch, text in encoded:
            for chunk in text:
                out[_SAMPLES_FILE].write(chunk)
            for col in columns[1:]:
                out[_column_file(col)].write(np.ascontiguousarray(getattr(batch, col), _COLUMN_DTYPES[col]))
            censored_n += batch.censored_n
            tau_sum += int(batch.tau.sum())
    files = {name: writer.record() for name, writer in out.items()}
    return {"columns": columns, "files": files}, censored_n, tau_sum


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


def _read_column(fh, name: str, dtype: np.dtype, count: int) -> tuple[np.ndarray, str]:
    """The `count` values of `dtype` in the .npy file `name` open as `fh`, and
    the sha256 of the bytes read.  The values are read straight into a new
    array, `_HASH_BLOCK` bytes at a time, and each piece is hashed as it
    lands.  Anything but `_npy_header(dtype, count)` followed by exactly
    those values is a ValueError."""
    head = _npy_header(dtype, count)
    found = fh.read(len(head))
    if found != head:
        raise ValueError(f"{name} is not the .npy 1.0 header of a C-order {dtype.str} array of shape ({count},)")
    if os.fstat(fh.fileno()).st_size != len(head) + count * dtype.itemsize:
        raise ValueError(f"{name} is not {count} values of {dtype.itemsize} bytes after its header")
    sha, col = hashlib.sha256(found), np.empty(count, dtype)
    raw = memoryview(col.view(np.uint8))
    for a in range(0, raw.nbytes, _HASH_BLOCK):
        piece = raw[a : a + _HASH_BLOCK]
        if fh.readinto(piece) != piece.nbytes:
            raise ValueError(f"{name} ends before its last value")
        sha.update(piece)
    return col, sha.hexdigest()


def _load_file(path: Path, record: dict, dtype: np.dtype | None = None, count: int = 0) -> np.ndarray | None:
    """Check the samples file `path` against its manifest `record`, its size
    and sha256, through one handle, and return the column it holds (see
    `_read_column`); with no `dtype` the file is only hashed.  A mismatch is
    a ValueError."""
    with _open_samples_file(path) as fh:
        if os.fstat(fh.fileno()).st_size != record["bytes"]:
            raise _mismatch(path.name)
        col, sha = _read_column(fh, path.name, dtype, count) if dtype is not None else (None, _sha256_rest(fh))
    if sha != record["sha256"]:
        raise _mismatch(path.name)
    return col


def _read_samples(out_dir: Path, manifest: dict, workers: int) -> SampleBatch:
    """The samples of `manifest`: one job per file on `workers` threads reads
    each column file into its column while `samples.csv` is hashed, so the
    bytes that are hashed are the bytes that are loaded.  A samples file that
    disagrees with the manifest is a ValueError."""
    shift = float(manifest["shift"])
    columns = _sample_columns(shift)
    names = [_SAMPLES_FILE] + [_column_file(col) for col in columns[1:]]
    files = manifest.get("files")
    if not (
        isinstance(files, dict)
        and set(files) == set(names)
        and all(isinstance(record, dict) for record in files.values())
    ):
        raise ValueError(f"{_MANIFEST_FILE} does not list the sha256 of exactly {names}; re-run simulate")
    if manifest.get("columns") != columns:
        raise ValueError(f"{_MANIFEST_FILE} columns are not {columns}")
    count, dtypes = manifest["stream_ids"]["count"], [None] + [_COLUMN_DTYPES[col] for col in columns[1:]]
    jobs = ((out_dir / name, files[name], dt, count) for name, dt in zip(names, dtypes))
    with closing(_in_order(_load_file, jobs, workers)) as results:  # samples.csv, the largest file, first
        _, *loaded = results  # samples.csv is only hashed
    cols = dict(zip(columns[1:], loaded))
    return SampleBatch(
        shift=shift,
        first_stream=manifest["stream_ids"]["start"],
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
    workers = _worker_count()
    manifest = json.loads((out_dir / _MANIFEST_FILE).read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"{_MANIFEST_FILE} is not a JSON object")
    if manifest.get("config_hash") != cfg.config_hash:
        raise ConfigError("samples were produced by a different config (hash mismatch)")
    ids = manifest.get("stream_ids")
    if not (isinstance(ids, dict) and all(type(ids.get(key)) is int for key in ("start", "count"))):
        raise ValueError(f"{_MANIFEST_FILE} stream_ids is not an object with integer start and count")
    return manifest, _read_samples(out_dir, manifest, workers)


def _worker_count() -> int:
    """`LADDERLAB_THREADS` if it is set and not blank, else the number of CPUs
    this process may run on.  A value that is not a positive integer is a
    ConfigError."""
    env = os.environ.get("LADDERLAB_THREADS", "")
    digits = env.strip()
    if not digits:
        return len(os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1))
    if not (digits.isascii() and digits.isdigit() and int(digits) > 0):
        raise ConfigError(f"LADDERLAB_THREADS must be a positive integer, got {env!r}")
    return int(digits)


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
    columns, n = _sample_columns(cfg.shift), cfg.n_samples
    workers = _worker_count()  # a bad value is refused before anything is removed

    def task(lo, hi):  # at most walk._CHUNK walks, so simulate_batch runs one chunk
        batch = simulate_batch(spec, cfg.seed, hi - lo, step_cap=cfg.step_cap, shift=cfg.shift, first_stream=lo)
        return batch, _encode(batch, columns)

    # the old manifest goes first: a run killed before the new one is written
    # leaves samples without a manifest, never new samples with an old one;
    # then the sample files that the new manifest will not list
    stale = [_LEGACY_TWIN] + [_column_file(col) for col in _COLUMN_DTYPES if col not in columns]
    for name in [_MANIFEST_FILE, *stale]:
        (out_dir / name).unlink(missing_ok=True)
    tasks = ((lo, min(lo + walk._CHUNK, n)) for lo in range(0, n, walk._CHUNK))
    with closing(_in_order(task, tasks, workers)) as encoded:
        written, censored_n, tau_sum = _write_samples(out_dir, columns, n, encoded)
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
