"""Binary field snapshots, checkpoints, and diagnostics files.

Snapshot layout (little endian): magic bytes ``NCHF``, u32 cell count N,
f64 domain edge length L, f64 simulation time t, then N*N f64 values in
row-major order.  A checkpoint wraps the trajectory state: magic ``NCHK``,
u32 format version (``CHECKPOINT_VERSION``), u64 step index, f64 time, u8
flag for the presence of the previous level (0 or 1), then one or two
levels, u and then u_prev, and ends with the u32 CRC-32 of every byte
before it.  Each level is an embedded snapshot followed by its half
spectrum, N*(N/2+1) complex128 values (real and imaginary part f64 each)
in row-major order, so a resumed run reads the very spectra the
uninterrupted run's solves produced, and resumes bit for bit.  A
checkpoint is read only in the version written, and is written to
``<path>.partial`` and renamed over ``<path>``, so the file at ``<path>``
is always a whole checkpoint.  Each header's layout is one ``struct.Struct``
below, which the writer packs and the reader unpacks.

Diagnostics are written as CSV with full float64 round-trip precision
(shortest repr); optional values are left empty.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Iterable

import numpy as np

from .grid import Field, GridGeometry, _freeze
from .steppers import SchemeState

SNAPSHOT_MAGIC = b"NCHF"
CHECKPOINT_MAGIC = b"NCHK"
CHECKPOINT_VERSION = 2

_SNAPSHOT_HEADER = struct.Struct("<4sIdd")  # magic, N, L, t
_CHECKPOINT_HEADER = struct.Struct("<4sIQdB")  # magic, version, step, time, previous-level flag
_CHECKSUM = struct.Struct("<I")  # CRC-32 of every byte before it

DIAGNOSTICS_HEADER = ("step,time,mass,energy,modified_energy,increment_l2,"
                      "increment_hneg1,grad_omega_l2,omega_variance,newton_iters")


def _snapshot_bytes(field: Field, t: float) -> bytes:
    head = _SNAPSHOT_HEADER.pack(SNAPSHOT_MAGIC, field.geometry.n, field.geometry.length, t)
    return head + np.ascontiguousarray(field.values, dtype="<f8").tobytes(order="C")


def write_field(path, field: Field, t: float = 0.0) -> None:
    """Write a field snapshot in the binary layout described above."""
    Path(path).write_bytes(_snapshot_bytes(field, t))


def _require_length(blob: bytes, end: int, what: str) -> None:
    if len(blob) < end:
        raise ValueError(f"truncated {what}: {len(blob)} bytes, expected at least {end}")


def _reject_trailing(blob: bytes, end: int, what: str) -> None:
    if len(blob) > end:
        raise ValueError(f"{what} has {len(blob) - end} trailing bytes after byte {end}")


def _form(blob, start: int, dtype, shape: tuple, what: str) -> tuple[np.ndarray, int]:
    """The little-endian ``dtype`` array of ``shape`` at ``start``, as a read-only copy, and its end."""
    stored = np.dtype(dtype).newbyteorder("<")
    end = start + stored.itemsize * shape[0] * shape[1]
    _require_length(blob, end, what)
    return _freeze(np.frombuffer(blob[start:end], stored).reshape(shape).astype(dtype)), end


def _parse_snapshot(blob, offset: int = 0,
                    with_spectrum: bool = False) -> tuple[Field, float, int]:
    """The field of the snapshot at ``offset``, its time and its end offset.

    With ``with_spectrum`` the level's half spectrum follows the snapshot
    (a checkpoint level) and the field keeps it.  ``blob`` is bytes or a
    memoryview; each form is copied out of it once, and the field adopts
    the copy.
    """
    start = offset + _SNAPSHOT_HEADER.size
    _require_length(blob, start, "field snapshot header")
    magic, n, length, t = _SNAPSHOT_HEADER.unpack_from(blob, offset)
    if magic != SNAPSHOT_MAGIC:
        raise ValueError("not a field snapshot (bad magic bytes)")
    if not np.isfinite(t):
        raise ValueError(f"field snapshot time must be finite, got {t!r}")
    values, end = _form(blob, start, np.float64, (n, n), "field snapshot")
    spectrum = None
    if with_spectrum:
        spectrum, end = _form(blob, end, np.complex128, (n, n // 2 + 1), "level spectrum")
    return Field(GridGeometry(n, length), values, spectrum), t, end


def read_field(path) -> tuple[Field, float]:
    """Read a field snapshot; returns (field, simulation time).

    Raises ``OSError`` for an unreadable file and ``ValueError`` for bad
    magic bytes, a truncated file, trailing bytes, a non-finite time or
    non-finite values.
    """
    blob = Path(path).read_bytes()
    field, t, end = _parse_snapshot(blob)
    _reject_trailing(blob, end, "field snapshot")
    return field, t


def write_checkpoint(path, state: SchemeState) -> None:
    """Serialize a scheme state, its levels' values and spectra, atomically."""
    levels = [state.u] if state.u_prev is None else [state.u, state.u_prev]
    parts = [_CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, state.step_index,
                                     state.time, len(levels) - 1)]
    for level in levels:
        parts += [_snapshot_bytes(level, state.time),
                  np.ascontiguousarray(level.spectrum, dtype="<c16").tobytes(order="C")]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(_CHECKSUM.pack(crc))
    # Write beside the target and rename over it, so a reader never sees a
    # partial checkpoint and a failed write leaves the previous one intact.
    partial = Path(f"{path}.partial")
    try:
        with partial.open("wb") as out:
            out.writelines(parts)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def read_checkpoint(path) -> SchemeState:
    """Deserialize a scheme state written by :func:`write_checkpoint`; its omega is left unset.

    Only ``CHECKPOINT_VERSION`` is read.  Raises ``OSError`` for an
    unreadable file and ``ValueError`` for bad magic bytes, any other
    version, a checksum that does not match, a truncated file, trailing
    bytes, a non-finite time, a previous-level flag other than 0 or 1, or
    non-finite values.
    """
    blob = memoryview(Path(path).read_bytes())  # slices are views: the file is not copied
    _require_length(blob, _CHECKPOINT_HEADER.size + _CHECKSUM.size, "checkpoint")
    magic, version, step_index, time, has_prev = _CHECKPOINT_HEADER.unpack_from(blob)
    if magic != CHECKPOINT_MAGIC:
        raise ValueError("not a checkpoint file (bad magic bytes)")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    blob, checksum = blob[:-_CHECKSUM.size], blob[-_CHECKSUM.size:]
    if zlib.crc32(blob) != _CHECKSUM.unpack(checksum)[0]:
        raise ValueError("checkpoint checksum does not match: the file is corrupt, "
                         "truncated or extended")
    if not np.isfinite(time):
        raise ValueError(f"checkpoint time must be finite, got {time!r}")
    if has_prev not in (0, 1):
        raise ValueError(f"checkpoint previous-level flag must be 0 or 1, got {has_prev}")
    u, _, end = _parse_snapshot(blob, _CHECKPOINT_HEADER.size, with_spectrum=True)
    u_prev = None
    if has_prev:
        u_prev, _, end = _parse_snapshot(blob, end, with_spectrum=True)
    _reject_trailing(blob, end, "checkpoint")
    return SchemeState(u=u, u_prev=u_prev, step_index=step_index, time=time)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def format_record(record) -> str:
    """The CSV row of a ``DiagnosticsRecord``, its fields in ``DIAGNOSTICS_HEADER`` order."""
    return ",".join(_cell(v) for v in vars(record).values())


def write_diagnostics(path, records: Iterable) -> None:
    """Write the per-step diagnostics time series as CSV."""
    lines = [DIAGNOSTICS_HEADER] + [format_record(r) for r in records]
    Path(path).write_text("\n".join(lines) + "\n")
