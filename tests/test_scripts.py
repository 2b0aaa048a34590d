"""The experiment scripts run end to end at small sizes."""

import csv
import dataclasses
import importlib.util
from pathlib import Path

import pytest

from donflow import flow

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.mark.parametrize("name, args, rows", [
    ("refinement_study", ["--sizes", "4", "6"], 2),
    ("convergence_experiment",
     ["--n", "4", "--seeds", "1", "2", "--epsilons", "0.05", "--tol", "1e-4"],
     2),
    ("layer_timings", ["--sizes", "4"], 13),
])
def test_script_writes_csv(tmp_path, name, args, rows):
    out = tmp_path / f"{name}.csv"
    assert _main(name)(args + ["--out", str(out)]) == 0
    table = list(csv.DictReader(open(out)))
    assert len(table) == rows
    for row in table:
        assert all(value != "" for value in row.values())
    if name == "convergence_experiment":
        assert [row["seed"] for row in table] == ["1", "2"]


def test_convergence_sweep_is_a_gate(tmp_path, capsys, monkeypatch):
    # a row that stops at T before stationarity fails the sweep
    args = ["--n", "4", "--seeds", "1", "--epsilons", "0.05", "--tol", "1e-4",
            "--out", str(tmp_path / "sweep.csv")]
    run = _main("convergence_experiment")
    assert run(args) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "1/1 stationary, steps ")
    flow_run = flow.run
    monkeypatch.setattr(
        flow, "run", lambda cfg: flow_run(dataclasses.replace(cfg, T=0.001)))
    assert run(args) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "0/1 stationary"
    rows = list(csv.DictReader(open(tmp_path / "sweep.csv")))
    assert [row["reason"] for row in rows] == ["time"]
