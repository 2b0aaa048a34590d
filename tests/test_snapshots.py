import json
import os

import numpy as np
import oracles as orc
import pytest

from donflow import lattice as lat
from donflow.snapshots import load_snapshot, save_snapshot


def test_snapshot_roundtrip_bit_exact(tmp_path, rng):
    g = lat.Grid(8, "fd2")
    rho = rng.normal(size=(6,) + g.shape)
    rho[0, 0, 0, 0, 0] = np.pi          # irrational payload content
    hdr = save_snapshot(tmp_path / "snap", g, rho, time=0.125,
                        monitors={"energy": 2.5})
    g2, rho2, t, mon = load_snapshot(hdr)
    assert g2 == g
    assert t == 0.125
    assert mon == {"energy": 2.5}
    assert rho2.dtype == np.float64
    assert np.array_equal(rho2, rho)            # bitwise
    # payload is raw little-endian float64 of length n^4 * 6
    raw = (tmp_path / "snap.bin").read_bytes()
    assert len(raw) == 8 * g.n ** 4 * 6
    assert np.frombuffer(raw, "<f8")[0] == rho[0, 0, 0, 0, 0]


def test_snapshot_header_contents(tmp_path, rng):
    g = lat.Grid(8)
    rho = orc.zeros(g, 2)
    hdr = save_snapshot(tmp_path / "s", g, rho, 1.0)
    meta = json.loads(hdr.read_text())
    assert meta["n"] == 8
    assert meta["scheme"] == "spectral"
    assert meta["component_order"] == ["c01", "c02", "c03", "c23", "c31", "c12"]
    assert meta["dtype"] == "<f8"


def test_snapshot_shape_mismatch(tmp_path):
    g = lat.Grid(8)
    with pytest.raises(ValueError):
        save_snapshot(tmp_path / "s", g, np.zeros((6, 4, 4, 4, 4)), 0.0)


def test_snapshot_rejects_foreign_component_order(tmp_path):
    g = lat.Grid(8)
    hdr = save_snapshot(tmp_path / "s", g, orc.zeros(g, 2), 0.0)
    meta = json.loads(hdr.read_text())
    meta["component_order"] = ["c01", "c02", "c03", "c12", "c13", "c23"]
    hdr.write_text(json.dumps(meta))
    with pytest.raises(ValueError):
        load_snapshot(hdr)


@pytest.mark.parametrize("corrupt, message", [
    (lambda hdr, meta, payload: payload.write_bytes(payload.read_bytes()[:-8]),
     "bytes"),
    (lambda hdr, meta, payload: hdr.write_text(json.dumps({**meta, "dtype": ">f8"})),
     "dtype"),
    (lambda hdr, meta, payload: payload.write_bytes(
        np.full(8 ** 4 * 6, np.nan).tobytes()), "non-finite"),
], ids=["truncated", "dtype", "nan"])
def test_snapshot_rejects_bad_payload(tmp_path, corrupt, message):
    g = lat.Grid(8)
    hdr = save_snapshot(tmp_path / "s", g, orc.zeros(g, 2), 0.0)
    corrupt(hdr, json.loads(hdr.read_text()), tmp_path / "s.bin")
    with pytest.raises(ValueError, match=message):
        load_snapshot(hdr)


def test_snapshot_missing_files_are_value_errors(tmp_path):
    with pytest.raises(ValueError, match="header .*nonexist.json"):
        load_snapshot(tmp_path / "nonexist.json")
    g = lat.Grid(8)
    hdr = save_snapshot(tmp_path / "s", g, orc.zeros(g, 2), 0.0)
    (tmp_path / "s.bin").unlink()
    with pytest.raises(ValueError, match="payload .*s.bin"):
        load_snapshot(hdr)


@pytest.mark.parametrize("key", ["n", "scheme", "payload", "time", "monitors"])
def test_snapshot_rejects_header_without_key(tmp_path, key):
    g = lat.Grid(8)
    hdr = save_snapshot(tmp_path / "s", g, orc.zeros(g, 2), 0.0)
    meta = json.loads(hdr.read_text())
    del meta[key]
    hdr.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=f"lacks {key}$"):
        load_snapshot(hdr)


def test_snapshot_rejects_non_object_header(tmp_path):
    hdr = tmp_path / "s.json"
    hdr.write_text("[]")
    with pytest.raises(ValueError, match="not a JSON object"):
        load_snapshot(hdr)


def test_snapshot_payload_is_component_last_on_disk(tmp_path):
    # written by hand: x0 slowest, the component fastest, each value
    # encoding its site and component
    g = lat.Grid(4)
    site = np.arange(g.n ** 4, dtype=float).reshape(g.shape)
    comp_last = 10.0 * site[..., None] + np.arange(6)
    raw = comp_last.astype("<f8").tobytes(order="C")
    (tmp_path / "s.bin").write_bytes(raw)
    (tmp_path / "s.json").write_text(json.dumps({
        "n": 4, "scheme": "spectral", "payload": "s.bin", "time": 0.0,
        "monitors": {}, "dtype": "<f8",
        "component_order": ["c01", "c02", "c03", "c23", "c31", "c12"]}))
    _, rho, _, _ = load_snapshot(tmp_path / "s.json")
    assert rho.shape == (6,) + g.shape
    for c, x in ((0, (0, 0, 0, 0)), (5, (0, 0, 0, 1)), (3, (1, 2, 3, 0)),
                 (2, (3, 3, 3, 3))):
        assert rho[c][x] == 10.0 * site[x] + c
    save_snapshot(tmp_path / "t", g, rho, 0.0)
    assert (tmp_path / "t.bin").read_bytes() == raw


def test_snapshot_header_is_written_last_and_atomically(tmp_path, monkeypatch):
    g = lat.Grid(4)
    replace = os.replace

    def failing(src, dst):
        if str(dst).endswith(".json"):
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", failing)
    with pytest.raises(OSError, match="disk full"):
        save_snapshot(tmp_path / "s", g, g.constant([1.0, 0, 0, 1, 0, 0]), 0.0)
    # the payload is complete, no header names it, and no temporary is left
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.bin"]
    assert len((tmp_path / "s.bin").read_bytes()) == 8 * g.n ** 4 * 6
