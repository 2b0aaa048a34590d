"""Snapshot files: a JSON text header next to a raw float64 payload.

The payload is the 2-form field as little-endian 64-bit floats of length
n^4 * 6, C-ordered over (x0, x1, x2, x3, component) with x0 slowest, in the
frozen component order.  Round-trips are bit exact.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from donflow.lattice import Grid

COMPONENT_ORDER = ["c01", "c02", "c03", "c23", "c31", "c12"]
PAYLOAD_DTYPE = "<f8"


def save_snapshot(base, grid, rho, time, monitors=None):
    """Write ``<base>.json`` and ``<base>.bin``; returns the header path."""
    base = Path(base)
    rho = np.ascontiguousarray(rho, dtype=PAYLOAD_DTYPE)
    if rho.shape != grid.shape + (6,):
        raise ValueError(f"field shape {rho.shape} does not match grid n={grid.n}")
    payload = base.with_suffix(".bin")
    payload.write_bytes(rho.tobytes(order="C"))
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
    hpath.write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")
    return hpath


HEADER_KEYS = ("n", "scheme", "payload", "time", "monitors")


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
    header lacking one of ``HEADER_KEYS``, a foreign component order or
    dtype, a payload of the wrong length, or non-finite values.
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
    missing = [key for key in HEADER_KEYS if key not in header]
    if missing:
        raise ValueError(f"snapshot header lacks {', '.join(missing)}")
    grid = Grid(int(header["n"]), header["scheme"])
    raw = _read(header_path.parent / header["payload"], "payload")
    size = grid.n ** 4 * 6 * 8
    if len(raw) != size:
        raise ValueError(f"snapshot payload has {len(raw)} bytes, "
                         f"expected {size} for n = {grid.n}")
    rho = np.frombuffer(raw, dtype=PAYLOAD_DTYPE)
    if not np.all(np.isfinite(rho)):
        raise ValueError("snapshot payload holds non-finite values")
    rho = rho.reshape(grid.shape + (6,)).astype(float)
    return grid, rho, float(header["time"]), dict(header["monitors"])
