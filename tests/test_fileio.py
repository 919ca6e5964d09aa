import os

import numpy as np
import pytest

import rosa.checkpoint
import rosa.experiments
import rosa.fileio
import rosa.training
from rosa.checkpoint import load_checkpoint, save_checkpoint
from rosa.experiments import write_spectrum_csv
from rosa.fileio import atomic_open, write_json
from rosa.network import build_mlp
from rosa.training import (MetricsRecord, write_metrics_csv,
                           write_summary_json)


def test_writes_and_replaces(tmp_path):
    path = tmp_path / "out.txt"
    with atomic_open(path) as fh:
        fh.write("first\n")
    with atomic_open(path) as fh:
        fh.write("second\n")
    assert path.read_bytes() == b"second\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_failure_mid_write_keeps_old_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_open(path, binary=True) as fh:
            fh.write(b"partial new content")
            fh.flush()
            raise RuntimeError("writer died")
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_failing_replace_leaves_no_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    path.write_text("old")

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(rosa.fileio.os, "replace", fail)
    with pytest.raises(OSError):
        with atomic_open(path) as fh:
            fh.write("new")
    assert path.read_text() == "old"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_json_dump_failing_midway_keeps_old_file(tmp_path):
    # json.dump streams: the first keys are written before the value that
    # cannot be serialized is reached.
    path = tmp_path / "summary.json"
    write_summary_json({"ok": 1}, path)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_json({"a": list(range(1000)), "z": object()}, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["summary.json"]


def test_every_writer_goes_through_atomic_open(tmp_path, monkeypatch):
    opened = []
    real = rosa.fileio.atomic_open

    def recording(path, binary=False):
        opened.append(os.path.basename(path))
        return real(path, binary)

    for module in (rosa.fileio, rosa.checkpoint, rosa.experiments,
                   rosa.training):
        monkeypatch.setattr(module, "atomic_open", recording)
    net = build_mlp([3, 4, 2], np.random.default_rng(0))
    save_checkpoint(net, tmp_path / "model.rsa1")
    write_spectrum_csv([{"layer": 0, "sigma": [1.0], "cumulative": [1.0]}],
                       tmp_path / "spectrum.csv")
    write_metrics_csv([MetricsRecord(1, 1, 0.5, 0.25, 10, False, (1,))],
                      tmp_path / "metrics.csv")
    write_summary_json({"a": 1}, tmp_path / "summary.json")
    write_json({"a": 1}, tmp_path / "theorem.json")
    names = ["model.rsa1", "spectrum.csv", "metrics.csv", "summary.json",
             "theorem.json"]
    assert opened == names
    assert sorted(os.listdir(tmp_path)) == sorted(names)
    assert load_checkpoint(tmp_path / "model.rsa1").layers[0].adapter.shape \
        == (4, 3)
