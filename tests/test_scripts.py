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
        flow, "run", lambda cfg, rho0=None: flow_run(
            dataclasses.replace(cfg, T=0.001), rho0=rho0))
    assert run(args) == 1
    # at T, with residual and step above 1e-6, the row counts as cycling
    assert capsys.readouterr().out.splitlines()[-1] == (
        "0/1 stationary; 0 failed, 1 cycling")
    rows = list(csv.DictReader(open(tmp_path / "sweep.csv")))
    assert [row["reason"] for row in rows] == ["time"]


def test_convergence_sweep_records_failures_and_asd_classes(
        tmp_path, capsys, monkeypatch):
    # --asd starts each run in the class of omega1 + a omega_i^ASD; a run
    # that stops on a step failure is a row of its own, with the failure's
    # message, read from its failure.json and failure snapshot
    out = tmp_path / "sweep.csv"
    args = ["--n", "4", "--seeds", "1", "--epsilons", "0.05", "--tol", "1e-4",
            "--asd", "2", "--amplitudes", "-0.1", "0.1", "--out", str(out)]
    run = _main("convergence_experiment")
    assert run(args) == 0
    rows = list(csv.DictReader(open(out)))
    assert [(row["asd"], row["amplitude"]) for row in rows] == [
        ("2", "-0.1"), ("2", "0.1")]
    assert all(row["reason"] == "stationary" and row["failure"] == "-"
               for row in rows)
    assert {f"rejected_{k}" for k in flow.REJECTIONS} <= set(rows[0])
    monkeypatch.setattr(flow, "STALL_DT", 1.0)
    monkeypatch.setattr(flow, "STALL_STEPS", 3)
    assert run(args) == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "0/2 stationary; 2 failed, 0 cycling")
    rows = list(csv.DictReader(open(out)))
    assert [(row["reason"], row["steps"]) for row in rows] == [
        ("failure", "3")] * 2
    assert all(row["failure"].startswith("stalled at t = ") for row in rows)
    assert all(value != "" for row in rows for value in row.values())
