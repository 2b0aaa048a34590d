"""Snapshot files: a JSON text header next to a raw float64 payload.

The payload is the 2-form field as little-endian 64-bit floats of length
n^4 * 6, C-ordered over (x0, x1, x2, x3, component) with x0 slowest, in the
frozen component order; in memory the field is component-first, ``(6, n,
n, n, n)``.  Round-trips are bit exact.  Each file is renamed into place
from a temporary file, the payload before the header.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import numpy as np

from donflow.lattice import Grid

COMPONENT_ORDER = ["c01", "c02", "c03", "c23", "c31", "c12"]
PAYLOAD_DTYPE = "<f8"


def _write_atomic(path, data):
    """Write data to a temporary file next to path, then rename it to path:
    a reader sees the old file or the new one, never a partial one."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_snapshot(base, grid, rho, time, monitors=None):
    """Write ``<base>.bin``, then ``<base>.json``; returns the header path."""
    base = Path(base)
    rho = np.asarray(rho, dtype=PAYLOAD_DTYPE)
    if rho.shape != (6,) + grid.shape:
        raise ValueError(f"field shape {rho.shape} does not match grid n={grid.n}")
    payload = base.with_suffix(".bin")
    _write_atomic(payload, np.moveaxis(rho, 0, -1).tobytes(order="C"))
    header = {
        "n": grid.n,
        "scheme": grid.scheme,
        "component_order": COMPONENT_ORDER,
        "time": float(time),
        "monitors": dict(monitors or {}),
        "payload": payload.name,
        "dtype": PAYLOAD_DTYPE,
    }
    hpath = base.with_suffix(".json")
    _write_atomic(hpath, (json.dumps(header, indent=2, sort_keys=True)
                          + "\n").encode())
    return hpath


HEADER_TYPES = {"n": int, "scheme": str, "payload": str, "time": (int, float),
                "monitors": dict}


def _read(path, what):
    """Bytes of a snapshot file; a file that cannot be read is a ValueError."""
    try:
        return path.read_bytes()
    except OSError as err:
        raise ValueError(f"cannot read snapshot {what} {path}: "
                         f"{err.strerror or err}") from err


def load_snapshot(header_path):
    """Read a snapshot; returns (grid, rho, time, monitors).

    Raises ValueError for a header or payload file that cannot be read, a
    header lacking a key of ``HEADER_TYPES`` or mistyping one (a bool is no
    number) or a non-finite time, a foreign component order or dtype, a
    payload of the wrong length, or non-finite values.
    """
    header_path = Path(header_path)
    header = json.loads(_read(header_path, "header"))
    if not isinstance(header, dict):
        raise ValueError("snapshot header is not a JSON object")
    if header.get("component_order") != COMPONENT_ORDER:
        raise ValueError("snapshot uses an unknown component order")
    dtype = header.get("dtype", PAYLOAD_DTYPE)
    if dtype != PAYLOAD_DTYPE:
        raise ValueError(f"snapshot dtype {dtype!r} is not {PAYLOAD_DTYPE!r}")
    missing = [key for key in HEADER_TYPES if key not in header]
    if missing:
        raise ValueError(f"snapshot header lacks {', '.join(missing)}")
    wrong = [key for key, kind in HEADER_TYPES.items()
             if isinstance(header[key], bool) or not isinstance(header[key], kind)]
    if wrong:
        raise ValueError(f"snapshot header mistypes {', '.join(wrong)}")
    if not abs(header["time"]) <= sys.float_info.max:
        raise ValueError("snapshot header time is not finite")
    grid = Grid(header["n"], header["scheme"])
    raw = _read(header_path.parent / header["payload"], "payload")
    size = grid.n ** 4 * 6 * 8
    if len(raw) != size:
        raise ValueError(f"snapshot payload has {len(raw)} bytes, "
                         f"expected {size} for n = {grid.n}")
    rho = np.frombuffer(raw, dtype=PAYLOAD_DTYPE)
    if not np.all(np.isfinite(rho)):
        raise ValueError("snapshot payload holds non-finite values")
    rho = np.moveaxis(rho.reshape(grid.shape + (6,)), -1, 0)
    rho = np.ascontiguousarray(rho, dtype=float)
    return grid, rho, float(header["time"]), dict(header["monitors"])
