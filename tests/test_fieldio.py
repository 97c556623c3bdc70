import dataclasses
import os

import numpy as np
import pytest

from nchsolver import Field, GridGeometry, SchemeState
from nchsolver.driver import DiagnosticsRecord
from nchsolver.fieldio import (DIAGNOSTICS_HEADER, read_checkpoint, read_field,
                               write_checkpoint, write_diagnostics, write_field)

from conftest import random_field


def test_field_snapshot_roundtrip(tmp_path, rng):
    geo = GridGeometry(8, 2.5)
    u = random_field(geo, rng)
    path = tmp_path / "u.nchf"
    write_field(path, u, t=1.25)
    back, t = read_field(path)
    assert t == 1.25
    assert back.geometry == geo
    assert np.array_equal(back.values, u.values)


def test_field_snapshot_layout(tmp_path):
    geo = GridGeometry(2, 1.0)
    u = Field(geo, np.array([[1.0, 2.0], [3.0, 4.0]]))
    path = tmp_path / "u.nchf"
    write_field(path, u, t=0.5)
    blob = path.read_bytes()
    assert blob[:4] == b"NCHF"
    assert int.from_bytes(blob[4:8], "little") == 2
    assert np.frombuffer(blob[8:16], "<f8")[0] == 1.0   # L
    assert np.frombuffer(blob[16:24], "<f8")[0] == 0.5  # t
    assert np.frombuffer(blob[24:], "<f8").tolist() == [1.0, 2.0, 3.0, 4.0]


def test_read_field_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.nchf"
    path.write_bytes(b"NOPE" + bytes(40))
    with pytest.raises(ValueError):
        read_field(path)


def test_readers_reject_trailing_and_truncated_bytes(tmp_path, rng):
    geo = GridGeometry(4, 1.0)
    snap, ckpt = tmp_path / "u.nchf", tmp_path / "state.nchk"
    write_field(snap, random_field(geo, rng))
    write_checkpoint(ckpt, SchemeState(u=random_field(geo, rng), step_index=3, time=0.3))
    for path, reader in ((snap, read_field), (ckpt, read_checkpoint)):
        blob = path.read_bytes()
        for bad in (blob + b"\0", blob[:-1], blob[:20]):
            path.write_bytes(bad)
            with pytest.raises(ValueError):
                reader(path)


def test_checkpoint_roundtrip_with_history(tmp_path, rng):
    geo = GridGeometry(4, 1.0)
    u = random_field(geo, rng)
    prev = Field(geo, u.values + 1e-13)
    state = SchemeState(u=u, u_prev=prev, step_index=17, time=0.85)
    path = tmp_path / "state.nchk"
    write_checkpoint(path, state)
    back = read_checkpoint(path)
    assert back.step_index == 17
    assert back.time == 0.85
    assert np.array_equal(back.u.values, u.values)
    assert np.array_equal(back.u_prev.values, prev.values)


def test_checkpoint_roundtrip_without_history(tmp_path, rng):
    geo = GridGeometry(4, 1.0)
    state = SchemeState(u=random_field(geo, rng), step_index=3, time=0.3)
    path = tmp_path / "state.nchk"
    write_checkpoint(path, state)
    back = read_checkpoint(path)
    assert back.u_prev is None
    assert back.step_index == 3


def test_failed_checkpoint_write_keeps_previous_checkpoint(tmp_path, rng, monkeypatch):
    geo = GridGeometry(4, 1.0)
    path = tmp_path / "state.nchk"
    write_checkpoint(path, SchemeState(u=random_field(geo, rng), step_index=3, time=0.3))
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write_checkpoint(path, SchemeState(u=random_field(geo, rng), step_index=4, time=0.4))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["state.nchk"]


def test_diagnostics_header_names_the_record_fields():
    assert DIAGNOSTICS_HEADER.split(",") == [f.name for f in dataclasses.fields(DiagnosticsRecord)]


def test_diagnostics_csv_full_precision_roundtrip(tmp_path):
    records = [
        DiagnosticsRecord(step=0, time=0.0, mass=1 / 3, energy=0.1 + 1e-17,
                          modified_energy=None, increment_l2=0.0, increment_hneg1=0.0,
                          grad_omega_l2=0.0, omega_variance=np.pi, newton_iters=0),
        DiagnosticsRecord(step=1, time=0.25, mass=1 / 3, energy=0.09,
                          modified_energy=0.095, increment_l2=1e-300,
                          increment_hneg1=2.0**-52, grad_omega_l2=3.5,
                          omega_variance=0.1, newton_iters=4),
    ]
    path = tmp_path / "diag.csv"
    write_diagnostics(path, records)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == DIAGNOSTICS_HEADER
    first = lines[1].split(",")
    assert first[4] == ""  # optional modified energy left empty
    second = lines[2].split(",")
    assert float(second[2]) == 1 / 3  # full round-trip precision
    assert float(second[5]) == 1e-300
    assert float(second[6]) == 2.0**-52
    assert second[9] == "4"
