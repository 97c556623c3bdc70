import dataclasses
import os
import struct
import zlib

import numpy as np
import pytest
from scipy.fft import rfft2

from nchsolver import (Field, GridGeometry, KernelSpec, RunOptions, SchemeConfig, SchemeState,
                       make_cache, random_initial_field, run, sample_kernel)
from nchsolver.driver import DiagnosticsRecord
from nchsolver.fieldio import (DIAGNOSTICS_HEADER, _snapshot_bytes, read_checkpoint, read_field,
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


def _level_with_its_own_spectrum(geo, values):
    """A level whose stored spectrum differs from rfft2(values) in one mode, so a reader must not recompute it."""
    modes = rfft2(values)
    modes[1, 1] = np.nextafter(modes[1, 1].real, np.inf) + 1j * modes[1, 1].imag
    return Field(geo, values, modes)


def test_checkpoint_keeps_values_and_spectra_bit_for_bit(tmp_path, rng):
    geo = GridGeometry(4, 1.0)
    values = rng.uniform(-1.0, 1.0, (geo.n, geo.n))
    u = _level_with_its_own_spectrum(geo, values)
    prev = _level_with_its_own_spectrum(geo, values.T.copy())  # the same mass
    path = tmp_path / "state.nchk"
    write_checkpoint(path, SchemeState(u=u, u_prev=prev, step_index=5, time=0.5))
    back = read_checkpoint(path)
    assert struct.unpack_from("<I", path.read_bytes(), 4) == (2,)
    assert np.array_equal(back.u.values, u.values)
    assert np.array_equal(back.u.spectrum, u.spectrum)
    assert not np.array_equal(back.u.spectrum, rfft2(back.u.values))
    assert np.array_equal(back.u_prev.values, prev.values)
    assert np.array_equal(back.u_prev.spectrum, prev.spectrum)


def test_checkpoint_with_a_flipped_byte_is_rejected(tmp_path, rng):
    # The CRC-32 covers every byte before it, so any single flipped byte --
    # header, values, spectra or the checksum itself -- raises ValueError.
    geo = GridGeometry(4, 1.0)
    u = random_field(geo, rng)
    path = tmp_path / "state.nchk"
    write_checkpoint(path, SchemeState(u=u, u_prev=u, step_index=3, time=0.3))
    blob = path.read_bytes()
    for index in range(len(blob)):
        flipped = bytearray(blob)
        flipped[index] ^= 0x10
        path.write_bytes(bytes(flipped))
        with pytest.raises(ValueError):
            read_checkpoint(path)


def _resealed(blob: bytes, offset: int, fmt: str, value) -> bytes:
    """A format-2 checkpoint with ``value`` packed at ``offset`` and its checksum recomputed."""
    body = bytearray(blob[:-4])
    struct.pack_into(fmt, body, offset, value)
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_readers_reject_a_non_finite_time(tmp_path, rng, bad):
    # A snapshot's time, and a checkpoint header's under a valid checksum.
    geo = GridGeometry(4, 1.0)
    snap, ckpt = tmp_path / "u.nchf", tmp_path / "state.nchk"
    write_field(snap, random_field(geo, rng), t=bad)
    with pytest.raises(ValueError, match="field snapshot time must be finite"):
        read_field(snap)
    write_checkpoint(ckpt, SchemeState(u=random_field(geo, rng), step_index=3, time=0.3))
    ckpt.write_bytes(_resealed(ckpt.read_bytes(), 16, "<d", bad))
    with pytest.raises(ValueError, match="checkpoint time must be finite"):
        read_checkpoint(ckpt)


@pytest.mark.parametrize("flag", [2, 255])
def test_checkpoint_rejects_a_previous_level_flag_other_than_0_or_1(tmp_path, rng, flag):
    geo = GridGeometry(4, 1.0)
    u = random_field(geo, rng)
    path = tmp_path / "state.nchk"
    write_checkpoint(path, SchemeState(u=u, u_prev=u, step_index=3, time=0.3))
    path.write_bytes(_resealed(path.read_bytes(), 24, "<B", flag))
    with pytest.raises(ValueError, match=f"previous-level flag must be 0 or 1, got {flag}"):
        read_checkpoint(path)


def _format1_checkpoint(state) -> bytes:
    """A format-1 checkpoint, written by hand: the header and one snapshot per level, no spectra, no checksum."""
    levels = [state.u] if state.u_prev is None else [state.u, state.u_prev]
    return b"NCHK" + struct.pack("<IQdB", 1, state.step_index, state.time, len(levels) - 1) \
        + b"".join(_snapshot_bytes(level, state.time) for level in levels)


def test_format1_checkpoint_reads_and_resumes(tmp_path):
    # Format 1 holds values alone: its levels take rfft2(values) as their
    # spectra, and a run resumed from it is the run resumed from those values.
    geo = GridGeometry(8, 1.0)
    kernel, cache = sample_kernel(KernelSpec.gaussian(130.0, 10.0), geo), make_cache(geo)
    cfg = SchemeConfig("two_li", 1e-4, 1.0, cutoff=2.0)
    half = run(random_initial_field(geo, 0.0, 0.05, seed=3), cfg, kernel, cache,
               RunOptions(max_steps=4, eq_tol=1e-14)).final_state
    path = tmp_path / "state.nchk"
    path.write_bytes(_format1_checkpoint(half))
    back = read_checkpoint(path)
    assert (back.step_index, back.time) == (half.step_index, half.time)
    for read, level in ((back.u, half.u), (back.u_prev, half.u_prev)):
        assert np.array_equal(read.values, level.values)
        assert np.array_equal(read.spectrum, rfft2(level.values))
    options = RunOptions(max_steps=8, eq_tol=1e-14)
    tail = run(None, cfg, kernel, cache, options, initial_state=back)
    from_values = run(None, cfg, kernel, cache, options, initial_state=SchemeState(
        u=Field(geo, half.u.values), u_prev=Field(geo, half.u_prev.values),
        step_index=half.step_index, time=half.time))
    assert tail.termination == "max_steps" and [r.step for r in tail.records] == [5, 6, 7, 8]
    assert tail.records == from_values.records
    blob = path.read_bytes()
    for bad in (blob + b"\0", blob[:-1], blob[:20]):
        path.write_bytes(bad)
        with pytest.raises(ValueError):
            read_checkpoint(path)


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
