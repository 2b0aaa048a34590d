"""The experiment scripts run end to end at small sizes."""

import csv
import importlib.util
from pathlib import Path

import pytest

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
