"""Binary field snapshots, checkpoints, and diagnostics files.

Snapshot layout (little endian): magic bytes ``NCHF``, u32 cell count N,
f64 domain edge length L, f64 simulation time t, then N*N f64 values in
row-major order.  A checkpoint wraps the trajectory state: magic ``NCHK``,
u32 format version, u64 step index, f64 time, u8 flag for the presence of
the previous level (0 or 1), then one or two levels, u and then u_prev.
Format 2, the one written, stores each level as an embedded snapshot
followed by its half spectrum, N*(N/2+1) complex128 values (real and imaginary part
f64 each) in row-major order, and ends with the u32 CRC-32 of every byte
before it.  A resumed run then reads the very spectra the uninterrupted
run's solves produced, and resumes bit for bit.  Format 1, still read,
stores each level as a snapshot alone and has no checksum; its levels take
their spectra as ``rfft2(values)``.  A checkpoint is written to
``<path>.partial`` and renamed over ``<path>``, so the file at ``<path>``
is always a whole checkpoint.

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

SNAPSHOT_MAGIC = b"NCHF"
CHECKPOINT_MAGIC = b"NCHK"
CHECKPOINT_VERSION = 2

DIAGNOSTICS_HEADER = ("step,time,mass,energy,modified_energy,increment_l2,"
                      "increment_hneg1,grad_omega_l2,omega_variance,newton_iters")


def _snapshot_bytes(field: Field, t: float) -> bytes:
    head = SNAPSHOT_MAGIC + struct.pack("<I", field.geometry.n) \
        + struct.pack("<d", field.geometry.length) + struct.pack("<d", t)
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


def _form(blob, start: int, end: int, dtype, shape: tuple) -> np.ndarray:
    """The little-endian ``blob[start:end]`` as a read-only ``dtype`` array of ``shape``: one copy."""
    stored = np.frombuffer(blob[start:end], dtype=np.dtype(dtype).newbyteorder("<"))
    return _freeze(stored.reshape(shape).astype(dtype))


def _parse_snapshot(blob, offset: int = 0,
                    with_spectrum: bool = False) -> tuple[Field, float, int]:
    """The field of the snapshot at ``offset``, its time and its end offset.

    With ``with_spectrum`` the level's half spectrum follows the snapshot
    (checkpoint format 2) and the field keeps it.  ``blob`` is bytes or a
    memoryview; each form is copied out of it once, and the field adopts
    the copy.
    """
    if blob[offset:offset + 4] != SNAPSHOT_MAGIC:
        raise ValueError("not a field snapshot (bad magic bytes)")
    start = offset + 24
    _require_length(blob, start, "field snapshot header")
    n, = struct.unpack_from("<I", blob, offset + 4)
    length, t = struct.unpack_from("<dd", blob, offset + 8)
    if not np.isfinite(t):
        raise ValueError(f"field snapshot time must be finite, got {t!r}")
    end = start + 8 * n * n
    _require_length(blob, end, "field snapshot")
    geometry = GridGeometry(n, length)
    values = _form(blob, start, end, np.float64, (n, n))
    if not with_spectrum:
        return Field(geometry, values), t, end
    start, end = end, end + 16 * n * (n // 2 + 1)
    _require_length(blob, end, "level spectrum")
    return Field(geometry, values, _form(blob, start, end, np.complex128, (n, n // 2 + 1))), t, end


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


def write_checkpoint(path, state) -> None:
    """Serialize a scheme state in format 2, its levels' values and spectra, atomically."""
    levels = [state.u] if state.u_prev is None else [state.u, state.u_prev]
    parts = [CHECKPOINT_MAGIC + struct.pack("<IQdB", CHECKPOINT_VERSION, state.step_index,
                                            state.time, len(levels) - 1)]
    for level in levels:
        parts += [_snapshot_bytes(level, state.time),
                  np.ascontiguousarray(level.spectrum, dtype="<c16").tobytes(order="C")]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(struct.pack("<I", crc))
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


def read_checkpoint(path):
    """Deserialize a scheme state written by :func:`write_checkpoint`, in format 2 or 1.

    Raises ``OSError`` for an unreadable file and ``ValueError`` for bad
    magic bytes, an unknown version, a checksum that does not match, a
    truncated file, trailing bytes, a non-finite time, a previous-level
    flag other than 0 or 1, or non-finite values.
    """
    from .steppers import SchemeState

    blob = memoryview(Path(path).read_bytes())  # slices are views: the file is not copied
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError("not a checkpoint file (bad magic bytes)")
    _require_length(blob, 25, "checkpoint header")
    version, = struct.unpack_from("<I", blob, 4)
    if version not in (1, 2):
        raise ValueError(f"unsupported checkpoint version {version}")
    if version == 2:
        _require_length(blob, 29, "checkpoint")
        blob, crc = blob[:-4], struct.unpack_from("<I", blob, len(blob) - 4)[0]
        if zlib.crc32(blob) != crc:
            raise ValueError("checkpoint checksum does not match: the file is corrupt, "
                             "truncated or extended")
    step_index, = struct.unpack_from("<Q", blob, 8)
    time, = struct.unpack_from("<d", blob, 16)
    has_prev, = struct.unpack_from("<B", blob, 24)
    if not np.isfinite(time):
        raise ValueError(f"checkpoint time must be finite, got {time!r}")
    if has_prev not in (0, 1):
        raise ValueError(f"checkpoint previous-level flag must be 0 or 1, got {has_prev}")
    u, _, end = _parse_snapshot(blob, 25, version == 2)
    u_prev = None
    if has_prev:
        u_prev, _, end = _parse_snapshot(blob, end, version == 2)
    _reject_trailing(blob, end, "checkpoint")
    return SchemeState(u=u, u_prev=u_prev, omega=None, step_index=step_index, time=time)


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
