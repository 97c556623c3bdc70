"""Binary field snapshots, checkpoints, and diagnostics files.

Snapshot layout (little endian): magic bytes ``NCHF``, u32 cell count N,
f64 domain edge length L, f64 simulation time t, then N*N f64 values in
row-major order.  A checkpoint wraps the trajectory state: magic ``NCHK``,
u32 format version, u64 step index, f64 time, u8 flag for the presence of
the previous level, then one or two embedded snapshots.  A checkpoint is
written to ``<path>.partial`` and renamed over ``<path>``, so the file at
``<path>`` is always a whole checkpoint.

Diagnostics are written as CSV with full float64 round-trip precision
(shortest repr); optional values are left empty.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Iterable

import numpy as np

from .grid import Field, GridGeometry

SNAPSHOT_MAGIC = b"NCHF"
CHECKPOINT_MAGIC = b"NCHK"
CHECKPOINT_VERSION = 1

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


def _parse_snapshot(blob: bytes, offset: int = 0) -> tuple[Field, float, int]:
    if blob[offset:offset + 4] != SNAPSHOT_MAGIC:
        raise ValueError("not a field snapshot (bad magic bytes)")
    start = offset + 24
    _require_length(blob, start, "field snapshot header")
    n, = struct.unpack_from("<I", blob, offset + 4)
    length, t = struct.unpack_from("<dd", blob, offset + 8)
    end = start + 8 * n * n
    _require_length(blob, end, "field snapshot")
    values = np.frombuffer(blob[start:end], dtype="<f8").reshape(n, n)
    return Field(GridGeometry(n, length), values.astype(np.float64)), t, end


def read_field(path) -> tuple[Field, float]:
    """Read a field snapshot; returns (field, simulation time).

    Raises ``OSError`` for an unreadable file and ``ValueError`` for bad
    magic bytes, a truncated file, trailing bytes or non-finite values.
    """
    blob = Path(path).read_bytes()
    field, t, end = _parse_snapshot(blob)
    _reject_trailing(blob, end, "field snapshot")
    return field, t


def write_checkpoint(path, state) -> None:
    """Serialize a scheme state as step/time metadata plus embedded snapshots, atomically."""
    has_prev = state.u_prev is not None
    head = CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION) \
        + struct.pack("<Q", state.step_index) + struct.pack("<d", state.time) \
        + struct.pack("<B", 1 if has_prev else 0)
    blob = head + _snapshot_bytes(state.u, state.time)
    if has_prev:
        blob += _snapshot_bytes(state.u_prev, state.time)
    # Write beside the target and rename over it, so a reader never sees a
    # partial checkpoint and a failed write leaves the previous one intact.
    partial = Path(f"{path}.partial")
    try:
        partial.write_bytes(blob)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def read_checkpoint(path):
    """Deserialize a scheme state written by :func:`write_checkpoint`."""
    from .steppers import SchemeState

    blob = Path(path).read_bytes()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError("not a checkpoint file (bad magic bytes)")
    _require_length(blob, 25, "checkpoint header")
    version, = struct.unpack_from("<I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    step_index, = struct.unpack_from("<Q", blob, 8)
    time, = struct.unpack_from("<d", blob, 16)
    has_prev, = struct.unpack_from("<B", blob, 24)
    u, _, end = _parse_snapshot(blob, 25)
    u_prev = None
    if has_prev:
        u_prev, _, end = _parse_snapshot(blob, end)
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
