import csv
import fnmatch
import hashlib
import importlib
import io
import json
import math
import os
import pkgutil
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ladderlab
from ladderlab import cli, walk
from ladderlab.cli import main
from ladderlab.walk import SampleBatch

from oracles import write_samples_csv_rowwise

SEED = 20260810
# what simulate writes without a shift: the text table and one .npy file per column but the stream id
SAMPLE_FILES = sorted(["samples.csv"] + [f"samples.{name}.npy" for name in ("tau", "s_tau", "m_tau", "censored")])


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


def test_thread_env_does_not_change_bytes(tmp_path, cfg_path, monkeypatch):
    """The worker count is LADDERLAB_THREADS, else the usable CPU count; it changes no byte."""
    out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    monkeypatch.delenv("LADDERLAB_THREADS", raising=False)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    for out, threads in ((out2, "1"), (out3, "3")):
        monkeypatch.setenv("LADDERLAB_THREADS", threads)
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    for name in SAMPLE_FILES + ["manifest.json"]:
        assert (out1 / name).read_bytes() == (out3 / name).read_bytes(), name
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_worker_count_is_the_env_else_the_usable_cpus(monkeypatch):
    monkeypatch.delenv("LADDERLAB_THREADS", raising=False)
    assert cli._worker_count() == len(os.sched_getaffinity(0))
    for env, count in (("3", 3), (" 1 ", 1), ("007", 7), ("", len(os.sched_getaffinity(0)))):
        monkeypatch.setenv("LADDERLAB_THREADS", env)
        assert cli._worker_count() == count
    for env in ("0", "-3", "abc", "1.5", "+2", "1_0", "٣"):
        monkeypatch.setenv("LADDERLAB_THREADS", env)
        message = f"LADDERLAB_THREADS must be a positive integer, got {env!r}"
        with pytest.raises(cli.ConfigError, match=re.escape(message)):
            cli._worker_count()


@pytest.mark.parametrize("threads", ["abc", "0", "-3"])
def test_bad_thread_count_keeps_the_old_run(tmp_path, cfg_path, monkeypatch, capsys, threads):
    """A LADDERLAB_THREADS that is not a positive integer is a config error in
    simulate, estimate and verify alike, refused before any file is removed
    or written."""
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    monkeypatch.setenv("LADDERLAB_THREADS", threads)
    capsys.readouterr()
    for command in ("simulate", "estimate", "verify"):
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: LADDERLAB_THREADS must be a positive integer, got {threads!r}\n", command
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    monkeypatch.delenv("LADDERLAB_THREADS")
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 0


def test_simulate_removes_stale_sample_files(tmp_path, cfg_path):
    """simulate removes every sample file that its manifest will not list: a
    samples.npy of the layout before the column files, and the psi_max column
    of an earlier run with a shift."""
    out = tmp_path / "run"
    shifted = _write_config(tmp_path / "shifted.yaml", shift=0.25)
    assert main(["simulate", "--config", str(shifted), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(SAMPLE_FILES + ["manifest.json", "samples.psi_max.npy"])
    (out / "samples.npy").write_bytes(b"a twin of the old layout")
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(SAMPLE_FILES + ["manifest.json"])
    assert sorted(json.loads((out / "manifest.json").read_text())["files"]) == SAMPLE_FILES
    assert main(["simulate", "--config", str(shifted), "--out", str(out)]) == 0
    assert (out / "samples.psi_max.npy").exists()


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

    def open_then_replace(path):  # a new column file lands once the reader holds the old one open
        fh = open_samples_file(path)
        if path.name == "samples.tau.npy":
            np.save(tmp_path / "other.npy", np.zeros(3))
            os.replace(tmp_path / "other.npy", path)
            replaced.append(path)
        return fh

    monkeypatch.setattr(cli, "_open_samples_file", open_then_replace)
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert replaced and np.load(out / "samples.tau.npy").shape == (3,)
    assert (out / "estimates.json").read_bytes() == checked


@pytest.mark.parametrize("damage", ["trailing_bytes", "fortran_order", "version_2", "other_dtype", "other_shape"])
def test_twin_of_another_layout_rejected(tmp_path, cfg_path, damage, capsys):
    """A column file whose digests are recorded but which is not exactly a
    C-order .npy 1.0 array of the column's dtype and the manifest's row
    count is refused."""
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    column, manifest_path = out / "samples.s_tau.npy", out / "manifest.json"
    table = np.load(column, allow_pickle=False)
    header = {"descr": np.lib.format.dtype_to_descr(table.dtype), "fortran_order": False, "shape": table.shape}
    data = io.BytesIO()
    if damage == "trailing_bytes":  # np.load would ignore them
        data.write(column.read_bytes() + b"\0")
    elif damage == "fortran_order":  # the same bytes as C order for one dimension
        np.lib.format.write_array_header_1_0(data, {**header, "fortran_order": True})
        data.write(table.tobytes())
    elif damage == "version_2":
        np.lib.format.write_array_header_2_0(data, header)
        data.write(table.tobytes())
    elif damage == "other_dtype":  # the same size; a reader of the header alone would load ints
        table = table.view("<i8")
        np.lib.format.write_array_header_1_0(data, {**header, "descr": "<i8"})
        data.write(table.tobytes())
    else:  # the same bytes as one row per walk
        table = table.reshape(-1, 1)
        np.lib.format.write_array_header_1_0(data, {**header, "shape": table.shape})
        data.write(table.tobytes())
    data = data.getvalue()
    column.write_bytes(data)
    assert np.array_equal(np.load(io.BytesIO(data), allow_pickle=False), table)
    manifest = json.loads(manifest_path.read_text())
    manifest["files"][column.name] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    manifest_path.write_text(json.dumps(manifest))
    if damage == "trailing_bytes":  # refused before a column is allocated for the count
        message = "samples.s_tau.npy is not 3000 values of 8 bytes after its header"
    else:
        message = "samples.s_tau.npy is not the .npy 1.0 header of a C-order <f8 array of shape (3000,)"
    capsys.readouterr()
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"invalid input: {message}\n" * 2


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
    path, column, manifest_path = out / "samples.csv", out / "samples.s_tau.npy", out / "manifest.json"
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
        column.write_bytes(column.read_bytes()[:-1])
    elif damage == "npy_bit_flip":
        flipped = bytearray(column.read_bytes())
        flipped[len(flipped) // 2] ^= 1
        column.write_bytes(flipped)
    elif damage == "npy_missing":
        column.unlink()
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


@pytest.mark.parametrize(
    "damage",
    ["swapped", "reordered", "truncated", "trailing_byte", "other_dtype", "missing", "legacy_manifest"],
)
def test_tampered_column_rejected(tmp_path, cfg_path, damage, capsys):
    """A column file that is swapped with another, reordered, cut short,
    extended, relabelled or missing, and an output directory of the layout
    before the column files, are refused by estimate and verify before they
    write anything."""
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    s_tau, m_tau = out / "samples.s_tau.npy", out / "samples.m_tau.npy"
    data = s_tau.read_bytes()
    header = len(data) - 3000 * 8
    message = "samples.s_tau.npy does not match its sha256 in manifest.json; re-run simulate"
    if damage == "swapped":  # the same header and size: only the digests tell them apart
        assert m_tau.read_bytes()[:header] == data[:header]
        s_tau.write_bytes(m_tau.read_bytes())
        m_tau.write_bytes(data)
    elif damage == "reordered":
        values = np.load(s_tau)
        assert values[10] != values[11]
        values[[10, 11]] = values[[11, 10]]
        s_tau.write_bytes(data[:header] + values.tobytes())
    elif damage == "truncated":
        s_tau.write_bytes(data[:-8])
    elif damage == "trailing_byte":
        s_tau.write_bytes(data + b"\0")
    elif damage == "other_dtype":
        relabelled = data.replace(b"'descr': '<f8'", b"'descr': '<i8'")
        assert len(relabelled) == len(data) and relabelled != data
        s_tau.write_bytes(relabelled)
        message = "samples.s_tau.npy is not the .npy 1.0 header of a C-order <f8 array of shape (3000,)"
    elif damage == "missing":
        s_tau.unlink()
        message = "samples.s_tau.npy is missing; re-run simulate"
    else:  # samples.npy, all columns in one structured array, and a manifest that names it
        manifest = json.loads((out / "manifest.json").read_text())
        fields = [("stream_id", "i8"), ("tau", "i8"), ("s_tau", "f8"), ("m_tau", "f8"), ("censored", "i1")]
        twin = np.empty(3000, fields)
        twin["stream_id"] = np.arange(3000)
        for name in twin.dtype.names[1:]:
            twin[name] = np.load(out / f"samples.{name}.npy")
            (out / f"samples.{name}.npy").unlink()
        np.save(out / "samples.npy", twin)
        legacy = (out / "samples.npy").read_bytes()
        manifest["files"] = {
            "samples.csv": manifest["files"]["samples.csv"],
            "samples.npy": {"bytes": len(legacy), "sha256": hashlib.sha256(legacy).hexdigest()},
        }
        (out / "manifest.json").write_text(json.dumps(manifest))
        message = "re-run simulate"
    capsys.readouterr()
    for command in ("estimate", "verify"):
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and message in err, (command, err)
    assert not (out / "estimates.json").exists() and not (out / "verify_report.json").exists()


def test_failed_simulate_leaves_no_half_file(tmp_path, cfg_path, monkeypatch):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    names = SAMPLE_FILES
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
    short switch interval)."""
    whole = tmp_path / "whole"
    monkeypatch.setenv("LADDERLAB_THREADS", "1")
    assert main(["simulate", "--config", str(cfg_path), "--out", str(whole)]) == 0
    monkeypatch.setattr(walk, "_CHUNK", 700)
    monkeypatch.setattr(cli, "_SLICE_ROWS", 300)  # several slices per task, the last one partial
    sizes = []
    encode = cli._encode

    def encode_and_count(batch, columns):
        sizes.append(batch.n)
        return encode(batch, columns)

    monkeypatch.setattr(cli, "_encode", encode_and_count)
    names = SAMPLE_FILES + ["manifest.json"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in ["1", "2", "4"]:
            sizes.clear()
            out = tmp_path / f"t{threads}"
            monkeypatch.setenv("LADDERLAB_THREADS", threads)
            assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
            assert sorted(sizes) == [200, 700, 700, 700, 700]
            for name in names:
                assert (out / name).read_bytes() == (whole / name).read_bytes(), (threads, name)
    finally:
        sys.setswitchinterval(interval)
    assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 0


def test_failed_task_leaves_old_samples_and_no_temp_file(tmp_path, cfg_path, monkeypatch):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    names = SAMPLE_FILES
    before = [(out / name).read_bytes() for name in names]
    simulate_batch, starts = cli.simulate_batch, []

    def fail_in_task_3(spec, seed, n_samples, first_stream, **kwargs):
        starts.append(first_stream)
        if first_stream == 1400:
            raise RuntimeError("task 3 failed")
        return simulate_batch(spec, seed, n_samples, first_stream=first_stream, **kwargs)

    monkeypatch.setattr(walk, "_CHUNK", 700)
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
    columns = [name for name, _ in fields]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_samples_csv_rowwise(out / "oracle.csv", batch)
        written, censored_n, _ = cli._write_samples(out, columns, n, [(batch, cli._encode(batch, columns))])
        assert censored_n == batch.censored_n
        assert (out / "samples.csv").read_bytes() == (out / "oracle.csv").read_bytes()
        # the text reads back to the same bits; the package itself no longer parses it
        text = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1, comments=None, ndmin=1, dtype=fields)
        assert np.array_equal(text["stream_id"], batch.stream_ids)
        # each column file is what np.save writes for that batch column
        for name in columns[1:]:
            saved = io.BytesIO()
            np.save(saved, getattr(batch, name))
            assert (out / f"samples.{name}.npy").read_bytes() == saved.getvalue(), name
            assert text[name].tobytes() == getattr(batch, name).astype(text[name].dtype).tobytes(), name
        assert sorted(written["files"]) == sorted(["samples.csv"] + [f"samples.{name}.npy" for name in columns[1:]])
        assert written["columns"] == columns
        manifest = {"seed": 1, "step_cap": 10, "shift": shift, "stream_ids": {"start": start, "count": n}, **written}
        read = cli._read_samples(out, manifest, 2)
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


@pytest.mark.parametrize("shift", [None, 0.25])
def test_readme_names_every_output_file(tmp_path, shift):
    """Every file that a stage writes to the output directory is named in
    README's "File formats" section (a name there may hold a `*`)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    named = re.findall(r"`([^`\s]+)`", section)
    cfg = _write_config(tmp_path / "exp.yaml", shift=shift, n_samples=400)
    out = tmp_path / "run"
    for stage in (["check"], ["construct"], ["simulate"], ["estimate", "--format", "csv"], ["verify"],
                  ["simulate", "--replay", "5"]):
        assert main([stage[0], "--config", str(cfg), "--out", str(out), *stage[1:]]) == 0, stage
    written = sorted(p.name for p in out.iterdir())
    assert ("samples.psi_max.npy" in written) == (shift is not None)
    assert [name for name in written if not any(fnmatch.fnmatchcase(name, pattern) for pattern in named)] == []


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


@pytest.mark.parametrize("outputs", [{"dir": 5}, {"dri": "x"}], ids=["bad-type", "misspelt-key"])
def test_outputs_is_an_unknown_key(tmp_path, outputs, capsys):
    """The output directory is --out alone: an `outputs` mapping, well typed
    or not, is refused before anything is written."""
    cfg = _write_config(tmp_path / "bad.yaml", outputs=outputs)
    out = tmp_path / "run"
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "config error: unknown config keys: ['outputs']\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("seed", 1.9),
        ("n_samples", 2.7),
        ("n_samples", "abc"),
        ("step_cap", 1e6),
        ("streams", True),  # no config field now: refused as an unknown key
        ("shift", "abc"),
        ("shift", "0.5"),
        ("alpha", True),
        ("delta", True),
        ("c", True),
        ("shift", True),
        ("eps", "0.5"),
        ("growth", "g1"),
        ("increments", [1, 2]),
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


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
@pytest.mark.parametrize("via", ["config", "option"])
def test_out_of_range_seed_rejected(tmp_path, capsys, seed, via):
    """Philox takes a 64-bit key: a seed outside [0, 2**64) is a config error,
    in the config and through --seed, not reduced modulo 2**64 (2**64 + 1 would
    run the walks of seed 1 under another config hash)."""
    cfg = _write_config(tmp_path / "bad.yaml", **({"seed": seed} if via == "config" else {}))
    out = tmp_path / "run"
    capsys.readouterr()
    override = ["--seed", str(seed)] if via == "option" else []
    assert main(["simulate", "--config", str(cfg), "--out", str(out), *override]) == 1
    assert capsys.readouterr().err == f"config error: seed must lie in [0, 2**64), got {seed}\n"
    assert not out.exists()


def test_seed_range_edges_accepted():
    assert ladderlab.ExperimentConfig(seed=0).seed == 0
    assert ladderlab.ExperimentConfig(seed=2**64 - 1).seed == 2**64 - 1


LOGNORMAL ={"family": "lognormal_shifted", "mu": 0.0, "sigma2": 0.25, "shift": -2.1331484530668263}
QUEUE = {"family": "queue_pair", "sigma": {"family": "exponential", "mean": 1.0},
         "t": {"family": "constant", "value": 2.0}}
WEIBULL = {"family": "weibull_shifted", "c": 1.0, "beta": 0.6, "shift": -2.5045618892421555}


LOGNORMAL_KEYS = "lognormal_shifted takes ['mu', 'sigma2', 'shift']"
NO_SIGMA2 = {k: v for k, v in LOGNORMAL.items() if k != "sigma2"}
TABLE_BAD_PAIR = {"family": "table", "points": [[0.5, 0.1], [2.0], [30.0, 3.0]]}


@pytest.mark.parametrize(
    "overrides, expected",
    [
        ({"increments": {**LOGNORMAL, "sigma": 0.9}}, f"increments: {LOGNORMAL_KEYS}; unknown keys ['sigma']"),
        ({"growth": {"family": "g1", "param": 2.0, "alpha": 3.0}}, "growth: g1 takes ['param']; unknown keys ['alpha']"),
        ({"increments": {**QUEUE, "rho": 0.5}}, "increments: queue_pair takes ['sigma', 't']; unknown keys ['rho']"),
        (
            {"increments": {**QUEUE, "sigma": {"family": "exponential", "rate": 1.0}}},
            "increments.sigma: exponential takes ['mean']; unknown keys ['rate'], missing keys ['mean']",
        ),
        ({"increments": {**QUEUE, "t": 2.0}}, "increments.t must be a mapping, got 2.0"),
        ({"increments": {**LOGNORMAL, "mu": "0.0"}}, "increments: mu must be a number, got '0.0'"),
        ({"increments": {**WEIBULL, "beta": "0.6"}}, "increments: beta must be a number, got '0.6'"),
        ({"increments": {**WEIBULL, "shift": [-3.0]}}, "increments: shift must be a number, got [-3.0]"),
        ({"increments": NO_SIGMA2}, f"increments: {LOGNORMAL_KEYS}; unknown keys [], missing keys ['sigma2']"),
        ({"increments": {"family": "bernoulli_pm1", "p": True}}, "increments: p must be a number, got True"),
        ({"increments": {**WEIBULL, "c": math.inf}}, "increments: c must be finite, got inf"),
        ({"increments": {**WEIBULL, "shift": math.nan}}, "increments: shift must be finite, got nan"),
        ({"increments": {**WEIBULL, "shift": -(10**400)}}, "increments: shift must be finite, got -1000"),
        ({"shift": 10**400}, "shift must be finite, got 1000"),
        ({"increments": {**WEIBULL, "family": "weibull"}}, "increments: family must be one of ["),
        ({"growth": TABLE_BAD_PAIR}, "growth: points must be a list of number pairs"),
        ({"growth": {"family": "table", "points": [[0.5, 0.1], [2.0, "0.7"]]}}, "growth: points must be a number"),
        ({"growth": {"family": "g2", "param": 1.5}}, "growth: g2 needs param in (0,1), got 1.5"),
        ({"increments": {**WEIBULL, "c": 0}}, "increments: weibull_shifted needs c > 0"),
        ({"streams": 4}, "unknown config keys: ['streams']"),
    ],
    ids=["stray-sigma", "growth-alpha", "queue-rho", "nested-key", "nested-scalar", "mu-string", "beta-string",
         "shift-list", "missing-sigma2", "p-bool", "c-inf", "shift-nan", "shift-no-double", "top-shift-no-double",
         "unknown-family", "table-non-pair", "table-string", "growth-range", "weibull-range", "streams"],
)
def test_bad_record_is_refused(tmp_path, capsys, overrides, expected):
    """A family record is checked against its constructor or factory: an
    unknown or missing key, a value of the wrong type or an infinite number is
    a config error naming the record and the key, before anything is
    written or removed, and the worker count is no config field."""
    cfg = _write_config(tmp_path / "bad.yaml", **overrides)
    command = "check" if "growth" in overrides else "simulate"  # each builds the record it needs first
    out = tmp_path / "run"
    out.mkdir()
    for name in ("manifest.json", "samples.csv", "samples.npy", "condition_report.json"):
        (out / name).write_text(f"old {name}")
    capsys.readouterr()
    for target in (out, tmp_path / "fresh"):
        assert main([command, "--config", str(cfg), "--out", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: " + expected) and err.count("\n") == 1, err
    assert {p.name: p.read_text() for p in out.iterdir()} == {p.name: f"old {p.name}" for p in out.iterdir()}
    fresh = tmp_path / "fresh"  # made by main only once the config has loaded
    assert len(list(out.iterdir())) == 4 and (not fresh.exists() or list(fresh.iterdir()) == [])


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


# sha256 of stage artifacts at --seed 7 on one worker: check and construct on
# the three growth-family configs, simulate on every config (and on one with a
# walk shift, so the psi_max column is pinned) with n_samples cut to
# GOLDEN_SAMPLES, and on five of them estimate --format csv, verify and
# simulate --replay 5 as well, so every field read back from samples.csv, every
# CLI table writer and verify's S* profile of the increments (psi_sstar) are
# pinned, with the queue pair's log-sum-exp log-tail, quantile bisection and
# slot 1; the splice and truncation tails reach the digests through chain.json.
# The last bits of QUADPACK, of the batched Gauss-Kronrod S* profiles and of
# the quantiles depend on the numpy and scipy builds, so the digests hold for
# the versions they were recorded with.
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
        "chain.json": "e2d3e02f644b35ef9b8f7cdf8a77fbd1feab3fca91ac8303dc8abd403a7769eb",
        "tail_tables.csv": "0cac49e430c7c2d70ada9f438272347cc4b4127b120f44ec9865df4224d89e59",
        "samples.csv": "dedd44a01621dd585373c7af0f58438c78f940cca01c07388f6625d3800709fd",
        "estimates.json": "7e2b34b23bb619e3d6cc9623d6db9146088354fe0dafacdab778aa8130a1bbd0",
        "verify_report.json": "2492867624040a0233cdb16cd28398550b9ba6bbe14fcfa1d1705a2e84277973",
        "replay_5.csv": "eaa006407f01a7e3ba88353bb416cc2f29994de88ea6e423f347da07468a6df3",
    },
    "g2_weibull": {
        "condition_report.json": "b48a42e664869098a858953259c39a3944c2a44d2d9d78ec51845cb796518663",
        "chain.json": "8195627d0df7daf5dd49cbe5302625d654bb8e3f9431176bde996ea2e7c4df86",
        "tail_tables.csv": "5b587dee95a4c1230fbd002281277f099be73cabfd880bbb5f19ec8a2dbc391e",
        "samples.csv": "66ca06aad179d7fe02e12e622a04581978f5e7b661f1acb776a5c01f59b5dd8a",
        "estimates.json": "9749845e7c72a9e9b76ed4275c1e1450daad1ef67b7949afd9e2f6cfa143154f",
        "verify_report.json": "d4d522929296930ea5d67f69ca1ec92579744026499663dac69464a18f0c8c42",
        "replay_5.csv": "431f8a3c9d7f3a715d749d37f44e295f5a64bd6fd7ad3b0ea5376f01dbd159ae",
    },
    "g3_weibull": {
        "condition_report.json": "8e3e65351ad86a263b8fb39b5e9450669693119f45c6de89493b57c296183cd8",
        "chain.json": "f85c0bc260aa87d4bcaf305fcc361c41548f947ccfbb1c175c563725e3b64a22",
        "tail_tables.csv": "0f074b81d9e3013983d709f2a491550291a195084e8d42cc11ab2c391f298a6f",
        "samples.csv": "0cf60cf2acc1191ec4e36f84cfa550ef41bfb42755b4436d156c8b4e4865c657",
    },
    "pareto_ratio": {"samples.csv": "32d61394121fb6811dc7f8460a0454f3d7b53cc5d3c268aecfae153bb8b28f45"},
    "pareto_ratio_shift": {
        "samples.csv": "856fdb9accf7f2c225fc1b8598a0ed412b875803b59a6aacc8980ca260eeb36f",
        "estimates.json": "056953c3db9c5b79e8ce82af2b719dc48f5cd6ec02735b7af00fa5fd9b9d8937",
        "estimates.csv": "0e721d5e61b438ceb42b769fef779742f0ecbb17b134405c6f172d96c1c20e5f",
        "verify_report.json": "ddb4ee13d561d21fd5c3f3a99e27332bd56db5fca1d87dc45c4f8c42975ce942",
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
        "verify_report.json": "ac98a5081d869a7feea50fd29e3b5f8d844fa5c6fdddde08343fcc102a3c3543",
        "ratio_curve.csv": "24776337258f66b87162796a9e0787ac883b92e12ae7fccc7afa4d187dfb966e",
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
def test_golden_digests(tmp_path, name, monkeypatch, numeric_build):
    import hashlib

    _require_golden_versions()
    monkeypatch.setenv("LADDERLAB_THREADS", "1")
    base, overrides = GOLDEN_VARIANTS.get(name, (name, {}))
    cfg = CONFIGS / f"{base}.yaml"
    out = tmp_path / name
    args = ["--out", str(out), "--seed", "7"]
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
    assert digests == GOLDEN_DIGESTS[name], numeric_build


def test_golden_batch_digest(monkeypatch, numeric_build):
    import hashlib

    from ladderlab import Pareto, simulate_batch, walk

    _require_golden_versions()
    monkeypatch.setattr(walk, "_CHUNK", 30_000)
    batch = simulate_batch(Pareto(2.0, 1.0, -3.0), seed=11, n_samples=100_000)
    h = hashlib.sha256()
    for field in ("tau", "s_tau", "m_tau", "psi_max", "censored"):
        h.update(getattr(batch, field).tobytes())
    assert h.hexdigest() == GOLDEN_BATCH, numeric_build
