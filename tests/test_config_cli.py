import csv
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles as orc
from donflow import cli
from donflow import lattice as lat
from donflow.config import ConfigError, RunConfig, from_dict, load_config, template
from donflow.exterior import OMEGA1
from donflow.snapshots import (COMPONENT_ORDER, HEADER_TYPES, load_snapshot,
                               save_snapshot)

# any value json.loads can return (NaN, infinities and lone surrogates
# included)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters(exclude_categories=())),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6)


def test_config_defaults_valid():
    assert RunConfig().validate() == RunConfig()


def test_run_starts_at_the_cfl_step(tmp_path):
    from donflow import flow

    res = flow.run(RunConfig(n=8, T=0.001, out_dir=str(tmp_path / "out")))
    with open(res.csv_path, newline="") as fh:
        first = next(csv.DictReader(fh))
    assert float(first["dt"]) == 0.2 / 64


def test_readme_lists_exactly_the_configuration_keys():
    # the block under "### Configuration keys": one key per line at an
    # indent of four, its continuation lines indented further
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("### Configuration keys\n\n", 1)[1].split("\n\n")[0]
    keys = re.findall(r"^    (\w+)", block, flags=re.MULTILINE)
    assert keys == list(template())


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="timestep"):
        from_dict({"timestep": 0.1})


@pytest.mark.parametrize("bad, key", [
    ({"n": 7}, "n"),
    ({"n": 2}, "n"),
    ({"scheme": "upwind"}, "scheme"),
    ({"epsilon": 0.0}, "epsilon"),
    ({"T": -1.0}, "T"),
    ({"out_every": 0}, "out_every"),
    ({"kmax": 0}, "kmax"),
    ({"n": "8"}, "n"),
    ({"T": "x"}, "T"),
    ({"samples": None}, "samples"),
    ({"out_every": [1]}, "out_every"),
    ({"kmax": 1.5}, "kmax"),
    ({"dealias": 1}, "dealias"),
    ({"n": True}, "n"),
    ({"out_dir": "a\0b"}, "out_dir"),
    ({"out_dir": "\ud800"}, "out_dir"),
    ({"T": True}, "T"),
    ({"dealias": False}, "dealias"),
    ({"sigma_cfl": 0.2}, "sigma_cfl"),
    ({"dt_max": None}, "dt_max"),
    ({"seed": -1}, "seed"),
    ({"check_suite": []}, "check_suite"),
    ({"epsilon": math.inf}, "epsilon"),
    ({"tol_stationary": math.inf}, "tol_stationary"),
    ({"epsilon": math.nan}, "epsilon"),
    ({"kmax": 5}, "kmax"),
    ({"n": 4, "kmax": 3}, "kmax"),
])
def test_config_invariants(bad, key):
    with pytest.raises(ConfigError, match=key):
        from_dict(bad)


def test_config_takes_an_infinite_flow_time():
    # T = Infinity means "until stationary"
    assert from_dict({"T": math.inf}).T == math.inf


@pytest.fixture(scope="module")
def loader_dir(tmp_path_factory):
    """A directory holding a valid n = 4 snapshot ``s.json``/``s.bin``."""
    path = tmp_path_factory.mktemp("loaders")
    save_snapshot(path / "s", lat.Grid(4), lat.Grid(4).constant(OMEGA1), 0.5)
    return path


@given(st.dictionaries(st.sampled_from(sorted(RunConfig.__dataclass_fields__)),
                       json_values, max_size=4))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_config_loader_fuzz(loader_dir, data):
    # a config file either loads or raises the ConfigError the CLI reports
    path = loader_dir / "cfg.json"
    path.write_text(json.dumps(data))
    try:
        assert isinstance(load_config(path), RunConfig)
    except ConfigError:
        pass


@given(st.dictionaries(st.sampled_from([*HEADER_TYPES, "component_order", "dtype"]),
                       json_values, min_size=1, max_size=3))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_snapshot_loader_fuzz(loader_dir, changes):
    # a snapshot header either loads or raises the ValueError the CLI reports
    header = json.loads((loader_dir / "s.json").read_text())
    path = loader_dir / "fuzz.json"
    path.write_text(json.dumps({**header, **changes}))
    try:
        load_snapshot(path)
    except ValueError:
        pass


def test_config_template_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(template()))
    cfg = load_config(path)
    assert cfg == RunConfig()


def test_config_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(path)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _write_cfg(tmp_path, **kw):
    cfg = template()
    cfg.update(out_dir=str(tmp_path / "out"), **kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_cli_init(tmp_path):
    path = tmp_path / "cfg.json"
    assert cli.main(["init", "--config", str(path)]) == 0
    assert load_config(path) == RunConfig()


@pytest.mark.parametrize("target, reason", [(".", "Is a directory"),
                                            ("missing/x.json", "No such file")])
def test_cli_init_reports_an_unwritable_config_path(tmp_path, capsys, target,
                                                    reason):
    path = tmp_path / target
    assert cli.main(["init", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("donflow: configuration error: config: cannot "
                          f"write {path}: {reason}")
    assert err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_cli_run_short(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, T=0.01, out_every=1, seed=2)
    assert cli.main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "donflow run:" in out
    assert (tmp_path / "out" / "monitors.csv").exists()
    assert (tmp_path / "out" / "snapshot_final.json").exists()


def test_cli_run_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert cli.main(["run", "--config", str(path)]) == 1
    path.write_text(json.dumps({"dt": 0.5}))
    assert cli.main(["run", "--config", str(path)]) == 1
    path.write_text(json.dumps({"n": "8"}))
    assert cli.main(["run", "--config", str(path)]) == 1


def test_cli_run_rejects_an_infinite_epsilon(tmp_path, capsys):
    # JSON's Infinity is a configuration error naming the key, raised
    # before any derivative is taken or the output directory is made
    path = _write_cfg(tmp_path, epsilon=math.inf)
    assert '"epsilon": Infinity' in path.read_text()
    assert cli.main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        "donflow: configuration error: epsilon: must be finite, got inf\n")
    assert not (tmp_path / "out").exists()


def test_cli_run_rejects_an_aliasing_kmax(tmp_path, capsys):
    # above n/2 every mode aliases; a large kmax would build its
    # (2 kmax + 1)^4 coefficient table before the first step
    assert from_dict({"n": 4, "kmax": 2}).kmax == 2
    path = _write_cfg(tmp_path, n=8, kmax=30)
    assert cli.main(["run", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        "donflow: configuration error: kmax: must be <= n/2 = 4, got 30\n")
    assert not (tmp_path / "out").exists()


def test_cli_run_rejects_an_out_dir_that_is_not_a_directory(tmp_path, capsys):
    # an existing file, and a path under one, are configuration errors
    cfg = _write_cfg(tmp_path, T=0.01)
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "sub"):
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "out_dir" in err and "Traceback" not in err
    assert taken.read_text() == ""


def test_cli_run_step_failure_exit_2(tmp_path, monkeypatch):
    # a state hovering just above the degeneracy floor cannot take any
    # admissible step, so the run aborts with a diagnostic and exit code 2
    from donflow import flow

    def nearly_degenerate(grid, rng, epsilon=0.05, kmax=2, **kw):
        x0 = orc.coords(grid)[0] + np.zeros(grid.shape)
        mu = grid.zeros(1)
        mu[1] = np.sin(2 * np.pi * x0)
        return (grid.constant(OMEGA1)
                + lat.d1(grid, mu) * 0.9999 / (2 * np.pi))

    monkeypatch.setattr(flow, "initial_data", nearly_degenerate)
    cfg = _write_cfg(tmp_path, seed=4, T=10.0)
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert (tmp_path / "out" / "failure.json").exists()


def test_cli_run_rejected_initial_draw_writes_the_diagnostic(tmp_path,
                                                             capsys):
    # epsilon 1e6 stays degenerate through all 20 halvings of initial_data
    cfg = _write_cfg(tmp_path, n=4, epsilon=1e6)
    assert cli.main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "initial data rejected down to epsilon" in err
    diag = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert diag == {"t": 0.0, "error": err.split("aborted: ", 1)[1].strip()}
    assert not list((tmp_path / "out").glob("snapshot_*"))


def test_l1_violation_is_a_step_failure(tmp_path, monkeypatch):
    # an energy of 1 makes the L1 bound 0, which every nonzero form breaks
    from donflow import flow

    monkeypatch.setattr(flow, "energy", lambda grid, rho: 1.0)
    g = lat.Grid(8)
    omega = g.constant(OMEGA1)
    with pytest.raises(flow.StepFailure) as err:
        flow.l1_report(g, omega, flow.energy(g, omega), 0.5,
                       lat.cohomology(g, omega))
    diag = err.value.diagnostic
    assert sorted(diag) == ["energy", "l1_bound", "l1_norm", "t"]
    assert (diag["t"], diag["l1_bound"], diag["energy"]) == (0.5, 0.0, 1.0)
    assert cli.main(["run", "--config", str(_write_cfg(tmp_path))]) == 2
    diag = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert diag["t"] == 0.0 and diag["l1_bound"] == 0.0


def test_cli_check_deterministic(tmp_path):
    cfg = _write_cfg(tmp_path, check_suite=["theta"], samples=500,
                     report_path=str(tmp_path / "r1.json"))
    assert cli.main(["check", "--config", str(cfg)]) == 0
    cfg2 = _write_cfg(tmp_path, check_suite=["theta"], samples=500,
                      report_path=str(tmp_path / "r2.json"))
    assert cli.main(["check", "--config", str(cfg2)]) == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    report = json.loads((tmp_path / "r1.json").read_text())
    assert report["passed"] is True
    assert all(rec["passed"] for rec in report["checks"])


def _report_path_error(tmp_path, capsys, monkeypatch, command, report_path):
    """The error of a check or hessian run with the given report_path,
    which must exit 1 before any suite or probe runs."""
    from donflow import checks, flow

    def forbidden(*args, **kwargs):
        raise AssertionError("work started before report_path was checked")

    monkeypatch.setattr(checks, "run_suites", forbidden)
    monkeypatch.setattr(flow, "hessian_form", forbidden)
    g = lat.Grid(4)
    snap = save_snapshot(tmp_path / "snap", g, g.constant(OMEGA1), 0.0)
    cfg = _write_cfg(tmp_path, check_suite=["theta"], samples=10,
                     report_path=report_path)
    argv = [command, "--config", str(cfg)]
    if command == "hessian":
        argv += ["--snapshot", str(snap), "--directions", "2"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    return err


@pytest.mark.parametrize("command", ["check", "hessian"])
def test_cli_rejects_an_uncreatable_report_path(tmp_path, capsys, monkeypatch,
                                                command):
    # the report's parent is validated before any suite or probe runs
    err = _report_path_error(tmp_path, capsys, monkeypatch, command,
                             "/proc/nope/r.json")
    assert err.startswith("donflow: configuration error: report_path: ")


@pytest.mark.parametrize("command", ["check", "hessian"])
def test_cli_rejects_a_report_path_that_is_a_directory(tmp_path, capsys,
                                                       monkeypatch, command):
    rep = tmp_path / "rep"
    rep.mkdir()
    err = _report_path_error(tmp_path, capsys, monkeypatch, command, str(rep))
    assert err == (f"donflow: configuration error: report_path: {rep} is a "
                   "directory\n")


@pytest.mark.parametrize("command", ["check", "hessian"])
def test_cli_bad_input_makes_no_report_directory(tmp_path, capsys, command):
    # an unknown suite or a missing snapshot is reported before the
    # report's directory is made
    cfg = _write_cfg(tmp_path, check_suite=["nonsense"],
                     report_path=str(tmp_path / "reports" / "r.json"))
    argv = [command, "--config", str(cfg)]
    if command == "hessian":
        argv += ["--snapshot", str(tmp_path / "missing.json")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.count("\n") == 1
    assert not (tmp_path / "reports").exists()


def test_cli_hessian_needs_a_direction(tmp_path, capsys):
    g = lat.Grid(4)
    snap = save_snapshot(tmp_path / "snap", g, g.constant(OMEGA1), 0.0)
    cfg = _write_cfg(tmp_path, report_path=str(tmp_path / "hess.json"))
    code = cli.main(["hessian", "--config", str(cfg), "--snapshot", str(snap),
                     "--directions", "0"])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "donflow hessian: --directions must be >= 1, got 0\n"
    assert not (tmp_path / "hess.json").exists()


def test_cli_hessian_rejects_a_kmax_aliasing_on_the_snapshot_grid(tmp_path,
                                                                  capsys):
    # kmax = 4 passes the config's n = 8, but the probe directions are
    # drawn on the n = 4 grid of the snapshot, where modes above 2 alias
    g = lat.Grid(4)
    snap = save_snapshot(tmp_path / "snap", g, g.constant(OMEGA1), 0.0)
    cfg = _write_cfg(tmp_path, n=8, kmax=4,
                     report_path=str(tmp_path / "rep" / "hess.json"))
    code = cli.main(["hessian", "--config", str(cfg), "--snapshot", str(snap),
                     "--directions", "2"])
    assert code == 1
    assert capsys.readouterr().err == (
        "donflow: configuration error: kmax: must be <= n/2 = 2 of the "
        "snapshot, got 4\n")
    assert not (tmp_path / "rep").exists()


def test_cli_check_unknown_suite(tmp_path):
    cfg = _write_cfg(tmp_path, check_suite=["nonsense"])
    assert cli.main(["check", "--config", str(cfg)]) == 1


def test_cli_check_rejects_an_empty_suite_list(tmp_path, capsys):
    # no suite would run, and an empty report would read as passed
    cfg = _write_cfg(tmp_path, check_suite=[])
    assert cli.main(["check", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(
        "donflow: configuration error: check_suite: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "check"])
def test_cli_rejects_a_negative_seed(tmp_path, capsys, command):
    # the seed keys Philox, which takes no negative key: a configuration
    # error naming the key, before any output directory is made
    cfg = _write_cfg(tmp_path)
    assert cli.main([command, "--config", str(cfg), "--seed", "-1"]) == 1
    assert capsys.readouterr().err == (
        "donflow: configuration error: seed: must be >= 0, got -1\n")
    assert not (tmp_path / "out").exists()


def test_cli_hessian_at_minimum(tmp_path):
    g = lat.Grid(8)
    rho = g.constant(OMEGA1)
    snap = save_snapshot(tmp_path / "snap", g, rho, 0.0)
    cfg = _write_cfg(tmp_path, report_path=str(tmp_path / "hess.json"))
    code = cli.main(["hessian", "--config", str(cfg),
                     "--snapshot", str(snap), "--directions", "8"])
    assert code == 0
    rep = json.loads((tmp_path / "hess.json").read_text())
    assert rep["min_quotient"] == pytest.approx(1.0, abs=1e-10)
    assert rep["max_quotient"] == pytest.approx(1.0, abs=1e-10)


def test_cli_hessian_on_converged_endpoint(tmp_path):
    # relax the flow first, then probe the endpoint: all Rayleigh quotients
    # sit at 1 within the flow tolerance
    run_cfg = _write_cfg(tmp_path, T=50.0, tol_stationary=1e-6, seed=12,
                         epsilon=0.03, out_every=50)
    assert cli.main(["run", "--config", str(run_cfg)]) == 0
    snap = tmp_path / "out" / "snapshot_final.json"
    cfg = _write_cfg(tmp_path, report_path=str(tmp_path / "hess.json"))
    code = cli.main(["hessian", "--config", str(cfg),
                     "--snapshot", str(snap), "--directions", "6"])
    assert code == 0
    rep = json.loads((tmp_path / "hess.json").read_text())
    assert rep["min_quotient"] == pytest.approx(1.0, abs=1e-5)
    assert rep["max_quotient"] == pytest.approx(1.0, abs=1e-5)


def test_cli_hessian_bad_snapshot(tmp_path, capsys):
    g = lat.Grid(8)
    snap = save_snapshot(tmp_path / "snap", g, g.constant(OMEGA1), 0.0)
    payload = tmp_path / "snap.bin"
    payload.write_bytes(payload.read_bytes()[:100])
    cfg = _write_cfg(tmp_path, report_path=str(tmp_path / "hess.json"))
    code = cli.main(["hessian", "--config", str(cfg),
                     "--snapshot", str(snap)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("donflow hessian: bad snapshot: snapshot payload "
                          "has 100 bytes")
    assert err.count("\n") == 1
    assert not (tmp_path / "hess.json").exists()


@pytest.mark.parametrize("header, message", [
    (None, "cannot read snapshot header"),
    ({"component_order": COMPONENT_ORDER},
     "snapshot header lacks n, scheme, payload, time, monitors"),
    ({"component_order": COMPONENT_ORDER, "n": 4.5, "scheme": "spectral",
      "payload": "s.bin", "time": 0.0, "monitors": {}},
     "snapshot header mistypes n"),
], ids=["missing", "keys", "types"])
def test_cli_hessian_unreadable_snapshot(tmp_path, capsys, header, message):
    snap = tmp_path / "nonexist.json"
    if header is not None:
        snap.write_text(json.dumps(header))
    cfg = _write_cfg(tmp_path, report_path=str(tmp_path / "hess.json"))
    code = cli.main(["hessian", "--config", str(cfg), "--snapshot", str(snap)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"donflow hessian: bad snapshot: {message}")
    assert err.count("\n") == 1
    assert not (tmp_path / "hess.json").exists()


def test_cli_hessian_degenerate_snapshot(tmp_path):
    g = lat.Grid(8)
    rho = g.constant([1.0, 0, 0, 0, 0, 0])        # u = 0 everywhere
    snap = save_snapshot(tmp_path / "snap", g, rho, 0.0)
    cfg = _write_cfg(tmp_path, report_path=str(tmp_path / "hess.json"))
    code = cli.main(["hessian", "--config", str(cfg),
                     "--snapshot", str(snap)])
    assert code == 2
    rep = json.loads((tmp_path / "hess.json").read_text())
    assert "degenerate" in rep["error"]
