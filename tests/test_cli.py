import csv
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ladderlab
from ladderlab import cli
from ladderlab.cli import main
from ladderlab.walk import SampleBatch

from oracles import write_samples_csv_rowwise

SEED = 20260810


def _write_config(path: Path, **overrides) -> Path:
    cfg = {
        "growth": {"family": "g2", "param": 0.5},
        "increments": {
            "family": "weibull_shifted",
            "c": 1.0,
            "beta": 0.6,
            "shift": -2.5045618892421555,
        },
        "eps": 0.5,
        "n_samples": 3000,
        "step_cap": 1_000_000,
        "seed": SEED,
        "streams": 3,
    }
    cfg.update(overrides)
    cfg = {k: v for k, v in cfg.items() if v is not None}
    path.write_text(yaml.safe_dump(cfg))
    return path


@pytest.fixture()
def cfg_path(tmp_path):
    return _write_config(tmp_path / "exp.yaml")


def test_full_pipeline(tmp_path, cfg_path, monkeypatch):
    monkeypatch.delattr(hashlib, "file_digest", raising=False)  # Python 3.10 has none
    out = tmp_path / "run"
    assert main(["check", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["construct", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0

    report = json.loads((out / "condition_report.json").read_text())
    assert report["shape_ok"] and report["increment_ok"]
    assert 0 < report["gamma"] < 1

    chain = json.loads((out / "chain.json").read_text())
    for key in ["K", "V", "V_prime", "L", "delta", "a", "a_tilde", "config_hash"]:
        assert key in chain
    assert chain["diagnostics"]["majorant_sstar"]["ok"]

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["censored_n"] == 0
    assert manifest["config_hash"] == chain["config_hash"]

    estimates = json.loads((out / "estimates.json").read_text())
    assert estimates["estimates"][0]["verdict"] == "stable"

    verify = json.loads((out / "verify_report.json").read_text())
    assert verify["dominance"]["ok"] and verify["wald"]["ok"]
    assert (out / "ratio_curve.csv").exists()
    assert (out / "stability_curve.csv").exists()


def test_byte_identical_reruns(tmp_path, cfg_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["construct", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 0
    for name in ["chain.json", "samples.csv", "manifest.json", "estimates.json"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_streams_do_not_change_bytes(tmp_path, cfg_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out2), "--streams", "7"]) == 0
    for name in ["samples.csv", "samples.npy", "manifest.json"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_thread_env_does_not_change_bytes(tmp_path, cfg_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    old = os.environ.get("LADDERLAB_THREADS")
    os.environ["LADDERLAB_THREADS"] = "2"
    try:
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
    finally:
        if old is None:
            os.environ.pop("LADDERLAB_THREADS", None)
        else:
            os.environ["LADDERLAB_THREADS"] = old
    for name in ["samples.csv", "samples.npy", "manifest.json"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_seed_override_applies_before_hashing(tmp_path, cfg_path):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out), "--seed", "42"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 42
    # estimate with the same override sees a matching hash
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out), "--seed", "42"]) == 0
    # and without the override the hash no longer matches
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 1


def test_stale_samples_rejected(tmp_path, cfg_path, monkeypatch):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    stale = _write_config(tmp_path / "other.yaml", eps=0.25)

    def must_not_read(*args):
        raise AssertionError("samples hashed or loaded before the config hash was checked")

    monkeypatch.setattr(cli, "_read_samples", must_not_read)
    assert main(["estimate", "--config", str(stale), "--out", str(out)]) == 1
    assert main(["verify", "--config", str(stale), "--out", str(out)]) == 1


def test_twin_replaced_after_its_check_is_not_read(tmp_path, cfg_path, monkeypatch):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 0
    checked = (out / "estimates.json").read_bytes()
    open_samples_file, replaced = cli._open_samples_file, []

    def open_then_replace(path):  # a new twin lands once the reader holds the old one open
        fh = open_samples_file(path)
        if path.name == "samples.npy":
            np.save(tmp_path / "other.npy", np.zeros(3))
            os.replace(tmp_path / "other.npy", path)
            replaced.append(path)
        return fh

    monkeypatch.setattr(cli, "_open_samples_file", open_then_replace)
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert replaced and np.load(out / "samples.npy").shape == (3,)
    assert (out / "estimates.json").read_bytes() == checked


@pytest.mark.parametrize("damage", ["trailing_bytes", "fortran_order", "version_2"])
def test_twin_of_another_layout_rejected(tmp_path, cfg_path, damage, capsys):
    """A twin whose digests are recorded but which is not exactly a C-order
    .npy 1.0 array of the manifest's rows is refused."""
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    twin, manifest_path = out / "samples.npy", out / "manifest.json"
    table = np.load(twin, allow_pickle=False)
    header = {"descr": np.lib.format.dtype_to_descr(table.dtype), "fortran_order": False, "shape": table.shape}
    data = io.BytesIO()
    if damage == "trailing_bytes":  # np.load would ignore them
        data.write(twin.read_bytes() + b"\0")
    elif damage == "fortran_order":  # the same bytes as C order for one dimension
        np.lib.format.write_array_header_1_0(data, {**header, "fortran_order": True})
        data.write(table.tobytes())
    else:
        np.lib.format.write_array_header_2_0(data, header)
        data.write(table.tobytes())
    data = data.getvalue()
    twin.write_bytes(data)
    assert np.array_equal(np.load(io.BytesIO(data), allow_pickle=False), table)
    manifest = json.loads(manifest_path.read_text())
    manifest["files"]["samples.npy"] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.count("invalid input: ") == 2


def test_corrupted_samples_rejected(tmp_path, cfg_path):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    (out / "samples.csv").write_text("stream_id,tau\n0,banana\n")
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 1


@pytest.mark.parametrize(
    "damage",
    ["mid_row", "whole_rows", "no_final_line_end", "reordered_rows", "digit_edit",
     "npy_truncated", "npy_bit_flip", "npy_missing", "no_digests", "digest_not_an_object",
     "stream_ids_not_an_object", "manifest_not_an_object"],
)
def test_damaged_samples_rejected(tmp_path, cfg_path, damage, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    path, twin, manifest_path = out / "samples.csv", out / "samples.npy", out / "manifest.json"
    data = path.read_bytes()
    lines = data.split(b"\r\n")[:-1]
    if damage == "mid_row":
        data = data[: data.index(b",", len(data) // 2)]
    elif damage == "whole_rows":
        data = b"".join(line + b"\r\n" for line in lines[: len(lines) // 2])
    elif damage == "no_final_line_end":
        data = data[:-2]
    elif damage == "reordered_rows":
        lines[10], lines[11] = lines[11], lines[10]
        data = b"".join(line + b"\r\n" for line in lines)
    elif damage == "digit_edit":  # same length, same row and column count, same stream ids
        cells = lines[11].split(b",")
        cells[2] = cells[2][:-1] + (b"2" if cells[2].endswith(b"1") else b"1")
        lines[11] = b",".join(cells)
        edited = b"".join(line + b"\r\n" for line in lines)
        assert len(edited) == len(data)
        data = edited
    elif damage == "npy_truncated":
        twin.write_bytes(twin.read_bytes()[:-1])
    elif damage == "npy_bit_flip":
        flipped = bytearray(twin.read_bytes())
        flipped[len(flipped) // 2] ^= 1
        twin.write_bytes(flipped)
    elif damage == "npy_missing":
        twin.unlink()
    else:
        manifest = json.loads(manifest_path.read_text())
        if damage == "no_digests":  # a manifest written before simulate recorded them
            del manifest["files"]
        elif damage == "stream_ids_not_an_object":
            manifest["stream_ids"] = 5
        elif damage == "manifest_not_an_object":
            manifest = [1]
        else:
            manifest["files"]["samples.csv"] = manifest["files"]["samples.csv"]["bytes"]
        manifest_path.write_text(json.dumps(manifest))
    path.write_bytes(data)
    capsys.readouterr()
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.count("invalid input: ") == 2


def test_failed_simulate_leaves_no_half_file(tmp_path, cfg_path, monkeypatch):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    names = ["samples.csv", "samples.npy"]
    before = [(out / name).read_bytes() for name in names]
    format_rows, calls = cli._format_rows, []

    def fail_on_second_slice(cols):
        calls.append(len(cols[0]))
        if len(calls) > 1:  # the first slice is formatted and written
            raise RuntimeError("formatter failed")
        return format_rows(cols)

    monkeypatch.setattr(cli, "_SLICE_ROWS", 1000)
    monkeypatch.setattr(cli, "_format_rows", fail_on_second_slice)
    with pytest.raises(RuntimeError, match="formatter failed"):
        main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert calls == [1000, 1000]
    assert sorted(p.name for p in out.iterdir()) == names
    assert [(out / name).read_bytes() for name in names] == before
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 1


def test_streamed_tasks_do_not_change_bytes(tmp_path, cfg_path, monkeypatch):
    """3,000 walks in tasks of 700 (five tasks, the last one partial) give the
    bytes of one whole task, on one, two or four worker threads (under a
    short switch interval) and at 1, 3 or 7 streams."""
    whole = tmp_path / "whole"
    monkeypatch.setenv("LADDERLAB_THREADS", "1")
    assert main(["simulate", "--config", str(cfg_path), "--out", str(whole)]) == 0
    monkeypatch.setattr(cli, "_TASK_WALKS", 700)
    monkeypatch.setattr(cli, "_SLICE_ROWS", 300)  # several slices per task, the last one partial
    sizes = []
    encode = cli._encode

    def encode_and_count(batch, dtype):
        sizes.append(batch.n)
        return encode(batch, dtype)

    monkeypatch.setattr(cli, "_encode", encode_and_count)
    names = ["samples.csv", "samples.npy", "manifest.json"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads, streams in [("1", "1"), ("2", "1"), ("1", "7"), ("2", "7"), ("2", "3"), ("4", "7")]:
            sizes.clear()
            out = tmp_path / f"t{threads}s{streams}"
            monkeypatch.setenv("LADDERLAB_THREADS", threads)
            assert main(["simulate", "--config", str(cfg_path), "--out", str(out), "--streams", streams]) == 0
            assert sorted(sizes) == [200, 700, 700, 700, 700]
            for name in names:
                assert (out / name).read_bytes() == (whole / name).read_bytes(), (threads, streams, name)
    finally:
        sys.setswitchinterval(interval)
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 0


def test_failed_task_leaves_old_samples_and_no_temp_file(tmp_path, cfg_path, monkeypatch):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    names = ["samples.csv", "samples.npy"]
    before = [(out / name).read_bytes() for name in names]
    simulate_batch, starts = cli.simulate_batch, []

    def fail_in_task_3(spec, seed, n_samples, first_stream, **kwargs):
        starts.append(first_stream)
        if first_stream == 1400:
            raise RuntimeError("task 3 failed")
        return simulate_batch(spec, seed, n_samples, first_stream=first_stream, **kwargs)

    monkeypatch.setattr(cli, "_TASK_WALKS", 700)
    monkeypatch.setattr(cli, "simulate_batch", fail_in_task_3)
    monkeypatch.setenv("LADDERLAB_THREADS", "2")
    with pytest.raises(RuntimeError, match="task 3 failed"):
        main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    assert 1400 in starts and set(starts) <= {0, 700, 1400, 2100, 2800}
    assert sorted(p.name for p in out.iterdir()) == names
    assert [(out / name).read_bytes() for name in names] == before
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 1


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-5, 1e16, 9999999999999998.0, 1.7976931348623157e308, math.inf, -math.inf,
                  2.0**53, -(2.0**53), 2.0**53 - 1, -(2.0**53 - 1), 2.0**53 + 2, -1.0, 123.0, 1e15]
SAMPLE_ROW = st.tuples(
    st.integers(0, 2**62),
    *[st.floats(allow_nan=False) | st.sampled_from(SPECIAL_FLOATS)] * 3,
    st.booleans(),
)
EVERY_SPECIAL_FLOAT = [(2**62, x, -x, x, i % 2 == 0) for i, x in enumerate(SPECIAL_FLOATS)]


@settings(max_examples=20, deadline=None)
@given(
    rows=st.lists(SAMPLE_ROW, min_size=1, max_size=16),
    n=st.sampled_from([1, 2, 65535, 65536, 65537]),
    start=st.sampled_from([0, 2**62 - 1, 2**62]) | st.integers(0, 2**62),
    shift=st.sampled_from([0.0, 0.5]),
)
@example(rows=EVERY_SPECIAL_FLOAT, n=65537, start=2**62, shift=0.5)
@example(rows=EVERY_SPECIAL_FLOAT, n=len(SPECIAL_FLOATS), start=0, shift=0.0)
def test_samples_csv_round_trip(rows, n, start, shift):
    tau, s_tau, m_tau, psi_max, censored = (np.resize(np.array(col), n) for col in zip(*rows))
    batch = SampleBatch(
        shift=shift,
        first_stream=start,
        tau=tau.astype(np.int64),
        s_tau=s_tau.astype(float),
        m_tau=m_tau.astype(float),
        psi_max=psi_max.astype(float),
        censored=censored.astype(bool),
    )
    fields = [("stream_id", "i8"), ("tau", "i8"), ("s_tau", "f8"), ("m_tau", "f8"), ("censored", "i1")]
    fields += [("psi_max", "f8")] * (shift != 0.0)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_samples_csv_rowwise(out / "oracle.csv", batch)
        dtype = np.dtype(fields)
        written, censored_n, _ = cli._write_samples(out, dtype, n, [cli._encode(batch, dtype)])
        assert censored_n == batch.censored_n
        assert (out / "samples.csv").read_bytes() == (out / "oracle.csv").read_bytes()
        # the text reads back to the same bits; the package itself no longer parses it
        text = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1, comments=None, ndmin=1, dtype=fields)
        # the twin is what np.save writes for the whole table
        table = np.empty(n, fields)
        columns = [batch.stream_ids, batch.tau, batch.s_tau, batch.m_tau, batch.censored, batch.psi_max]
        for name, col in zip(table.dtype.names, columns):
            table[name] = col
        saved = io.BytesIO()
        np.save(saved, table)
        assert (out / "samples.npy").read_bytes() == saved.getvalue()
        assert text.tobytes() == table.tobytes()
        manifest = {"seed": 1, "step_cap": 10, "shift": shift, "stream_ids": {"start": start, "count": n}, **written}
        assert written["columns"] == list(table.dtype.names)
        read = cli._read_samples(out, manifest)
    expected_psi = batch.psi_max if shift else batch.m_tau
    for field in ("stream_ids", "tau", "s_tau", "m_tau", "censored"):
        got, want = getattr(read, field), getattr(batch, field)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field
    assert read.psi_max.tobytes() == expected_psi.tobytes()


def _dense_floats(rng) -> np.ndarray:
    powers = [10.0**k for k in range(18)]
    exact = [2.0**53 + d for d in range(-4, 5)] + [2.0**52 + 0.5 - d for d in range(4)] + [2.0**51 + 0.5]
    special = [0.0, 5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 0.1, 0.5, 1.5, 1e16 - 2, 1e17 + 16]
    some = powers + [p - 1 for p in powers] + [p + 1 for p in powers] + exact + special
    bits = rng.integers(0, 2**64, 20_000, dtype=np.uint64, endpoint=False).view(np.float64)  # every kind of double
    integral = np.concatenate([rng.integers(-(10**k), 10**k, 2_000) for k in range(1, 17)]).astype(np.float64)
    scaled = 10.0 ** rng.uniform(-330, 308, 20_000)
    subnormal = rng.integers(1, 2**52, 5_000).astype(np.uint64).view(np.float64)
    halves = rng.integers(-(2**52), 2**52, 5_000) + 0.5
    finite = np.concatenate([some, integral, scaled, subnormal, halves])
    return np.concatenate([finite, -finite, bits, [math.inf, -math.inf, math.nan, -math.nan]])


def _dense_ints(rng) -> np.ndarray:
    powers = [10**k for k in range(19)]
    some = powers + [p - 1 for p in powers] + [p + 1 for p in powers[:-1]] + [0, 2**63 - 1, 2**32, 2**53 + 1]
    lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    spread = np.concatenate([rng.integers(-(10**k), 10**k, 3_000) for k in range(1, 19)])
    return np.concatenate([some, [-v for v in some[1:]], [lo, lo + 1], spread, rng.integers(lo, hi, 20_000, endpoint=True)]).astype(np.int64)


def test_format_rows_matches_repr_and_str_dense():
    """Every cell the columnar formatter writes is `repr(float(v))`, `str(int(v))` or the text as given."""
    rng = np.random.default_rng(SEED)
    floats, ints = _dense_floats(rng), _dense_ints(rng)
    n = max(floats.size, ints.size)
    floats, ints = np.resize(floats, n), np.resize(ints, n)
    words = np.array(["stable", "", "censored-dominated", "x", "exp_growth", "1.5", "-0.0", "nan"])[rng.integers(0, 8, n)]
    assert n > 100_000
    rows = cli._format_rows([ints, words, floats, ints.astype(bool)]).tobytes().split(b"\r\n")
    assert rows.pop() == b""
    want = [
        f"{int(i)},{w},{float(x)!r},{int(bool(i))}".encode()
        for i, w, x in zip(ints.tolist(), words.tolist(), floats.tolist())
    ]
    bad = [(got, exp) for got, exp in zip(rows, want) if got != exp]
    assert len(rows) == n and not bad, bad[:5]


def test_zero_row_table_is_its_header(tmp_path):
    # e.g. ratio_curve.csv when no grid point has an exceedance
    path = tmp_path / "ratio_curve.csv"
    cli._write_table(path, ["x", "exceedances", "kind"], [np.array([]), np.array([], np.int64), np.array([], str)])
    assert path.read_bytes() == b"x,exceedances,kind\r\n"


def test_no_module_binds_the_csv_module():
    banned = [csv, csv.writer, csv.reader, csv.DictWriter, csv.DictReader]
    binders = set()
    for info in pkgutil.iter_modules(ladderlab.__path__):
        module = importlib.import_module(f"ladderlab.{info.name}")
        if any(value is b for value in vars(module).values() for b in banned):
            binders.add(info.name)
    assert binders == set()


def test_check_failure_exit_code(tmp_path):
    cfg = tmp_path / "linear.yaml"
    cfg.write_text(
        yaml.safe_dump(
            {
                "growth": {
                    "family": "table",
                    "points": [[1e-3, 1e-4], [1.0, 0.1], [1e3, 100.0], [1e6, 1e5]],
                },
                "seed": 1,
            }
        )
    )
    out = tmp_path / "run"
    assert main(["check", "--config", str(cfg), "--out", str(out)]) == 2
    report = json.loads((out / "condition_report.json").read_text())
    assert not report["slope_decay_ok"]
    assert report["witnesses"]["slope_decay"]


def _linear_table_config(path: Path) -> Path:
    """A growth table that fails certification, over walkable increments."""
    growth = {"family": "table", "points": [[1e-3, 1e-4], [1.0, 0.1], [1e3, 100.0], [1e6, 1e5]]}
    path.write_text(yaml.safe_dump({"growth": growth, "increments": {"family": "bernoulli_pm1", "p": 0.25},
                                    "eps": 0.5, "n_samples": 300, "seed": 1}))
    return path


def test_construct_certification_failure_exit_code(tmp_path):
    cfg, out = _linear_table_config(tmp_path / "linear.yaml"), tmp_path / "run"
    assert main(["construct", "--config", str(cfg), "--out", str(out)]) == 2
    assert not json.loads((out / "condition_report.json").read_text())["slope_decay_ok"]
    assert not (out / "chain.json").exists()


def test_verify_certification_failure_exit_code(tmp_path):
    cfg, out = _linear_table_config(tmp_path / "linear.yaml"), tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
    assert not (out / "verify_report.json").exists()


def test_construction_failure_exit_code(tmp_path, capsys):
    """g1 grows faster than log x, so a Pareto tail never decays through it."""
    cfg = _write_config(tmp_path / "pareto.yaml", growth={"family": "g1", "param": 2.0},
                        increments={"family": "pareto", "index": 2.0, "scale": 1.0, "shift": -3.0})
    capsys.readouterr()
    assert main(["construct", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert "construction failed: tail does not decay" in capsys.readouterr().err


def test_no_estimand_configured(tmp_path):
    cfg = tmp_path / "none.yaml"
    cfg.write_text(yaml.safe_dump({"increments": {"family": "bernoulli_pm1", "p": 0.25}, "n_samples": 1000,
                                   "seed": 3}))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 1
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["finiteness"] == {"skipped": "no estimand configured"}
    assert not (out / "stability_curve.csv").exists()


def test_delta_out_of_range_rejected(tmp_path):
    cfg = _write_config(tmp_path / "bad.yaml", delta=2.0)  # drift magnitude is 1
    assert main(["construct", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_nonnegative_mean_rejected(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(
        yaml.safe_dump({"increments": {"family": "constant", "value": 0.5}, "seed": 1})
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_refused_shift_keeps_the_old_run(tmp_path, cfg_path):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    bad = _write_config(tmp_path / "bad.yaml", shift=1.5)  # the drift magnitude is 1
    assert main(["simulate", "--config", str(bad), "--out", str(out)]) == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 0


def test_missing_samples_is_config_error(tmp_path, cfg_path):
    assert main(["estimate", "--config", str(cfg_path), "--out", str(tmp_path / "empty")]) == 1


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump({"seeds": 2}))
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize(
    "key, value",
    [
        ("seed", 1.9),
        ("n_samples", 2.7),
        ("n_samples", "abc"),
        ("step_cap", 1e6),
        ("streams", True),
        ("shift", "abc"),
        ("shift", "0.5"),
        ("alpha", True),
        ("delta", True),
        ("c", True),
        ("shift", True),
        ("eps", "0.5"),
        ("growth", "g1"),
        ("increments", [1, 2]),
        ("outputs", "abc"),
        ("alpha", math.inf),
        ("c", math.inf),
        ("delta", math.inf),
        ("shift", -math.inf),
    ],
)
def test_non_integer_count_or_seed_rejected(tmp_path, key, value, capsys):
    """A float, a string or a bool where an integer belongs is a config error;
    it is not truncated (seed 1.9 would run as seed 1) or parsed.  So is a
    string, a bool or an infinity where a number belongs (shift "0.5" would
    run as 0.5, alpha true as 1, alpha .inf as a "stable" infinite estimate)
    and a scalar or a list where a mapping belongs."""
    cfg = _write_config(tmp_path / "bad.yaml", **{key: value})
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not out.exists()


# config_hash of every config in configs/; it covers the computed values only,
# so no change that keeps every artifact's bytes may move it
CONFIG_HASHES = {
    "bernoulli_oracle": "60f6878bdfabd97632471c89373f1f4ff30869a0ce86d8eae0e20b6a8f2c02d3",
    "g1_lognormal": "b31866d358309e4ac9a77791339c45a79375ff171fbc003033ee634ae1d35565",
    "g2_weibull": "0445278ff5d43730ca9ae5883ba6ede8e2a9a7ea08a86e8f7dcba3088c31980a",
    "g3_weibull": "c67a1fa35b890bc724f0130839213778918d5f7fd355a63d7f5737168aca8942",
    "pareto_ratio": "ad46599dfb3869f1bdf043cb967da0e1d7a816db0f26b47951a8390a5aab1a0e",
    "probe_g1_small_delta": "601e8dc5bda0588014ee40ce31b5ece47dd29691f804e18301a72ffc454d4506",
    "probe_g2_small_eps": "8d0e7ce6f54085d1b9d1b67191959a7acff36ba39ae310bc2b7b635c971c1741",
    "queue_busy_cycle": "7384c112a17c5b0ae17e18aaed0aa0b9c19a74600f14f2e9ba6fa3b3f6dccf4f",
}


def test_config_hashes_unchanged():
    from ladderlab.config import load_config

    assert {path.stem: load_config(path).config_hash for path in CONFIGS.glob("*.yaml")} == CONFIG_HASHES


def test_bernoulli_mean_epoch_through_cli(tmp_path):
    cfg = tmp_path / "bern.yaml"
    cfg.write_text(
        yaml.safe_dump(
            {
                "increments": {"family": "bernoulli_pm1", "p": 0.25},
                "alpha": 1.0,
                "n_samples": 100_000,
                "seed": SEED,
            }
        )
    )
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["estimate", "--config", str(cfg), "--out", str(out), "--format", "csv"]) == 0
    payload = json.loads((out / "estimates.json").read_text())
    est = payload["estimates"][0]
    assert abs(est["point"] - 1.5) <= 4 * est["std_error"]
    assert (out / "estimates.csv").exists()


@pytest.mark.parametrize("command", ["check", "construct", "simulate", "verify"])
def test_format_is_an_estimate_flag(cfg_path, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg_path), "--format", "csv"])
    assert exc.value.code == 2  # argparse's usage error


def test_censored_dominated_exit_code(tmp_path):
    cfg = tmp_path / "cens.yaml"
    cfg.write_text(
        yaml.safe_dump(
            {
                "increments": {"family": "bernoulli_pm1", "p": 0.45},
                "alpha": 1.0,
                "n_samples": 5000,
                "step_cap": 3,
                "seed": 7,
            }
        )
    )
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 3


def test_deterministic_verify_passes(tmp_path):
    cfg = tmp_path / "det.yaml"
    cfg.write_text(
        yaml.safe_dump(
            {
                "increments": {"family": "constant", "value": -1.0},
                "alpha": 2.0,
                "n_samples": 300,
                "seed": 5,
            }
        )
    )
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["wald"]["ok"]


def test_shifted_simulation_round_trip(tmp_path):
    cfg = tmp_path / "shift.yaml"
    cfg.write_text(
        yaml.safe_dump(
            {
                "increments": {"family": "pareto", "index": 2.0, "scale": 1.0, "shift": -3.0},
                "alpha": 1.0,
                "shift": 0.25,
                "n_samples": 2000,
                "seed": 11,
            }
        )
    )
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    header = (out / "samples.csv").read_text().splitlines()[0]
    assert header == "stream_id,tau,s_tau,m_tau,censored,psi_max"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0


def test_replay_emits_audit_path(tmp_path, cfg_path):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out), "--replay", "5"]) == 0
    lines = (out / "replay_5.csv").read_text().splitlines()
    assert lines[0] == "step,increment,partial_sum"
    # the replayed descent matches the batch row for stream 5
    with (out / "samples.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(lines) - 1 == int(rows[5]["tau"])
    assert lines[-1].split(",")[2] == rows[5]["s_tau"]


@pytest.mark.parametrize("stream_id", ["-1", str(2**63)])
def test_replay_refuses_out_of_range_ids(tmp_path, cfg_path, capsys, stream_id):
    # -1 would wrap to stream 2**64 - 1, and 2**63 overflowed the int64 cast
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out), "--replay", stream_id]) == 1
    assert "config error:" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_construct_writes_tail_tables(tmp_path, cfg_path):
    out = tmp_path / "run"
    assert main(["construct", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = (out / "tail_tables.csv").read_text().splitlines()
    assert lines[0] == "x,base,spliced,majorant"
    parts = [list(map(float, ln.split(","))) for ln in lines[1:]]
    for x, base, spliced, majorant in parts:
        assert base <= spliced * (1 + 1e-12) + 1e-300
        assert spliced <= majorant * (1 + 1e-12)


# sha256 of stage artifacts at --seed 7 --streams 1: check and construct on
# the three growth-family configs, simulate on every config (and on one with a
# walk shift, so the psi_max column is pinned) with n_samples cut to
# GOLDEN_SAMPLES, and on five of them estimate --format csv, verify and
# simulate --replay 5 as well, so every field read back from samples.csv, every
# CLI table writer and verify's S* profile of the increments (psi_sstar) are
# pinned, with the queue pair's generic log-tail, quantile bisection and
# slot 1; the splice and truncation tails reach the digests through chain.json.
# QUADPACK's and the quantiles' last bits depend on the numpy and scipy builds,
# so the digests hold for the versions they were recorded with.
GOLDEN_VERSIONS = {"numpy": "2.4.6", "scipy": "1.17.1"}
GOLDEN_SAMPLES = 20_000
GOLDEN_VARIANTS = {"pareto_ratio_shift": ("pareto_ratio", {"shift": 0.5})}
GOLDEN_DIGESTS = {
    "bernoulli_oracle": {
        "samples.csv": "c03ef427bd44683baf58e9515e67871c606609df00dadf1203429c6cb1ff26a3",
        "estimates.json": "c7a9953d49f30502d59987ac233712ec3cfa378f595261bd70e05dd90aba0504",
        "estimates.csv": "3ba98bfdd51d3ec13130f5338fb333be56754856fb5ea91d5fe394e7d368c4a5",
        "verify_report.json": "64344bd3e9826ce6040a4e854a7e4cc1eb2c66fbd1c97205a2068807c1d01c0f",
        "ratio_curve.csv": "01a2eda3c8ea461e43dca25383aa5b82154d4dc5ef5c02eb38a1bdb2306f4b51",
        "stability_curve.csv": "cbbba9aed54b06f38e841685ac0b78552f7f01a27b8c1f04e991d50a8bd52ca5",
        "replay_5.csv": "32fbf4e26d5ee99dfcb8f9caa0ab0b61829e24e74b80a350f71fc20970fcab4e",
    },
    "g1_lognormal": {
        "condition_report.json": "8e57f41cddd4f8defa211162efb8121250f118bb05365c6f49c3c2c7345e4dd8",
        "chain.json": "94f6bfb70c35dc242771fdc316c1968aae1de89587c332f6263bc6b74ea9ca1a",
        "tail_tables.csv": "0cac49e430c7c2d70ada9f438272347cc4b4127b120f44ec9865df4224d89e59",
        "samples.csv": "dedd44a01621dd585373c7af0f58438c78f940cca01c07388f6625d3800709fd",
        "estimates.json": "7e2b34b23bb619e3d6cc9623d6db9146088354fe0dafacdab778aa8130a1bbd0",
        "verify_report.json": "7f9c21467966c3323040a15a09cc9cbb028dd65ed171a28977f552f09b0fcc92",
        "replay_5.csv": "eaa006407f01a7e3ba88353bb416cc2f29994de88ea6e423f347da07468a6df3",
    },
    "g2_weibull": {
        "condition_report.json": "b48a42e664869098a858953259c39a3944c2a44d2d9d78ec51845cb796518663",
        "chain.json": "24d326c05869ab01d6ba538a3a28e2d9ddebd755b2536950ae2ed30fdb624de4",
        "tail_tables.csv": "5b587dee95a4c1230fbd002281277f099be73cabfd880bbb5f19ec8a2dbc391e",
        "samples.csv": "66ca06aad179d7fe02e12e622a04581978f5e7b661f1acb776a5c01f59b5dd8a",
        "estimates.json": "7aec8d0afedc07744693a43746de1d9c42d921523aec7f985d7dd5825ddff200",
        "verify_report.json": "74491efc7d0329acc91b2d59888e36b43d0a1091c28c9859692e319c2aeec4a6",
        "replay_5.csv": "431f8a3c9d7f3a715d749d37f44e295f5a64bd6fd7ad3b0ea5376f01dbd159ae",
    },
    "g3_weibull": {
        "condition_report.json": "8e3e65351ad86a263b8fb39b5e9450669693119f45c6de89493b57c296183cd8",
        "chain.json": "bf3554afdb02e60142498751e892d0b01ab59e7629adad059c9686c375044dfb",
        "tail_tables.csv": "fb346a53f930c710ebe36e3ed796d0fd6b27b878492869a0a103d941a6fe5e8e",
        "samples.csv": "0cf60cf2acc1191ec4e36f84cfa550ef41bfb42755b4436d156c8b4e4865c657",
    },
    "pareto_ratio": {"samples.csv": "32d61394121fb6811dc7f8460a0454f3d7b53cc5d3c268aecfae153bb8b28f45"},
    "pareto_ratio_shift": {
        "samples.csv": "856fdb9accf7f2c225fc1b8598a0ed412b875803b59a6aacc8980ca260eeb36f",
        "estimates.json": "056953c3db9c5b79e8ce82af2b719dc48f5cd6ec02735b7af00fa5fd9b9d8937",
        "estimates.csv": "0e721d5e61b438ceb42b769fef779742f0ecbb17b134405c6f172d96c1c20e5f",
        "verify_report.json": "442e7b33ec96296539476b6ef44e152baebdbca18abcf9af4b9587682b5bb295",
        "ratio_curve.csv": "fd22e674751d9f672a8f6a4772dee505a9ec2fc62087f42bb5fee286dc561808",
        "stability_curve.csv": "fc76c8044fdfabccec4ec0c696f493cc6dfbcaec099052bb42b8cdd952e726aa",
        "replay_5.csv": "dbe296343119d0c835aa633cb97f69a2b0526f56b7250249d2f37cc6347a01a8",
    },
    "probe_g1_small_delta": {"samples.csv": "dedd44a01621dd585373c7af0f58438c78f940cca01c07388f6625d3800709fd"},
    "probe_g2_small_eps": {"samples.csv": "66ca06aad179d7fe02e12e622a04581978f5e7b661f1acb776a5c01f59b5dd8a"},
    "queue_busy_cycle": {
        "samples.csv": "d358dbd4c81c011d7a7734dcc2270333eb84913937f0bced8d9e57d0950c3778",
        "estimates.json": "19257d658e5ee3ea995e97d9cb3c93b32d1e40c42f4a53bfd4074b4bef59e682",
        "estimates.csv": "4d71705fc47dd27fed40e0536170900016fb4d3b3e8f039c21b63764fce4a26b",
        "verify_report.json": "b1d362fffdd108f0611fa2f1e6ac61d6586346cd8ef1cbdfb79e642a0065391e",
        "ratio_curve.csv": "1f237d449b2fe9f1497ce3598093b16f9127606c7a5fa04f9a9445d7f088d453",
        "stability_curve.csv": "76214ea17829d07a56ca1b1329fadf2291e9c1250a5ed0eccf324e955069cb7d",
        "replay_5.csv": "a94e915346a6685642c0f5cde1206933581d3141389a8ab52eab135796a9028a",
    },
}
# sha256 over the tau, s_tau, m_tau, psi_max and censored bytes of
# simulate_batch(Pareto(2, 1, -3), seed=11, n_samples=100_000) in chunks of 30,000 walks
GOLDEN_BATCH = "e3df3df41eadbb68718936d82e996620af76859d8e944dc384cb8c3f5f19c7ec"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _require_golden_versions():
    import numpy
    import scipy

    found = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    if found != GOLDEN_VERSIONS:
        pytest.skip(f"golden digests recorded with {GOLDEN_VERSIONS}, running {found}")


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_golden_digests(tmp_path, name):
    import hashlib

    _require_golden_versions()
    base, overrides = GOLDEN_VARIANTS.get(name, (name, {}))
    cfg = CONFIGS / f"{base}.yaml"
    out = tmp_path / name
    args = ["--out", str(out), "--seed", "7", "--streams", "1"]
    if "chain.json" in GOLDEN_DIGESTS[name]:
        for stage in ("check", "construct"):
            assert main([stage, "--config", str(cfg), *args]) == 0
    small = tmp_path / "small.yaml"
    small.write_text(yaml.safe_dump({**yaml.safe_load(cfg.read_text()), "n_samples": GOLDEN_SAMPLES, **overrides}))
    assert main(["simulate", "--config", str(small), *args]) == 0
    if "estimates.json" in GOLDEN_DIGESTS[name]:
        assert main(["estimate", "--config", str(small), "--format", "csv", *args]) == 0
        assert main(["verify", "--config", str(small), *args]) == 0
        assert main(["simulate", "--config", str(small), "--replay", "5", *args]) == 0
    digests = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in GOLDEN_DIGESTS[name]}
    assert digests == GOLDEN_DIGESTS[name]


def test_golden_batch_digest(monkeypatch):
    import hashlib

    from ladderlab import Pareto, simulate_batch, walk

    _require_golden_versions()
    monkeypatch.setattr(walk, "_CHUNK", 30_000)
    batch = simulate_batch(Pareto(2.0, 1.0, -3.0), seed=11, n_samples=100_000)
    h = hashlib.sha256()
    for field in ("tau", "s_tau", "m_tau", "psi_max", "censored"):
        h.update(getattr(batch, field).tobytes())
    assert h.hexdigest() == GOLDEN_BATCH
