"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass line; run with ``pytest tests/test_acceptance.py
-v -s`` to see them.  The full module integrates the flow to stationarity,
so it takes a few minutes.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

import oracles as orc
from donflow import checks
from donflow import exterior as ext
from donflow import flow
from donflow import lattice as lat
from donflow.config import RunConfig

SEED = 20240811


def _announce(num, text):
    print(f"\n[criterion {num}] {text}: PASS")


def test_criterion_1_pointwise_identity_suite():
    t0 = time.monotonic()
    records = checks.suite_appendixA(SEED, 100000)
    elapsed = time.monotonic() - t0
    for rec in records:
        assert rec["tol"] <= 1e-9
        assert rec["rel_err"] <= 1e-9, rec
    assert elapsed < 60.0
    _announce(1, f"{len(records)} identity families x 1e5 samples "
                 f"within 1e-9 in {elapsed:.1f}s")


def test_criterion_2_theta_suite():
    t0 = time.monotonic()
    records = checks.suite_theta(SEED, 10000)
    elapsed = time.monotonic() - t0
    by_name = {r["name"]: r for r in records}
    for name in ("theta_wedge_rho", "theta_forms", "theta_square",
                 "theta_self_dual"):
        assert by_name[name]["passed"], by_name[name]
    ratio_err = by_name["theta_derivative"]["rel_err"]
    assert ratio_err <= 0.8          # halved step: error ratio 4 +- 20%
    assert elapsed < 10.0
    _announce(2, f"Theta identities and second-order derivative check "
                 f"(ratio within 4 +- {ratio_err:.3f}) in {elapsed:.1f}s")


def test_criterion_3_cross_formula_equalities():
    records = checks.suite_hyperkahler(SEED, 10000)
    by_name = {r["name"]: r for r in records}
    for rec in records:
        assert rec["passed"], rec
    # theta is compared on the suite's pointwise samples, the rest on
    # n = 8 spectral fields
    for name in ("energy_cross", "theta_cross", "hessian_cross"):
        assert by_name[name]["rel_err"] <= 1e-10, by_name[name]
    rel = by_name["gradient_cross"]["rel_err"]
    assert rel <= 1e-8
    _announce(3, f"energy/theta/hessian cross-formulas to 1e-10 and "
                 f"gradient to {rel:.2e}")


def test_criterion_4_gradient_metric_consistency():
    (rec,) = checks.suite_gradient(SEED, 20)
    assert rec["samples"] == 20
    worst = rec["rel_err"]
    assert worst <= 1e-6
    _announce(4, f"20 gradient/metric pairs consistent to {worst:.2e}")


@pytest.fixture(scope="module")
def convergence_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept") / "flow"
    cfg = RunConfig(n=8, scheme="spectral", T=50.0, tol_stationary=1e-8,
                    seed=7, epsilon=0.05, kmax=2, out_every=10,
                    out_dir=str(out))
    result = flow.run(cfg)
    rows = list(csv.DictReader(open(result.csv_path)))
    return result, rows


def test_criterion_5_flow_convergence(convergence_run):
    result, rows = convergence_run
    assert result.reason == "stationary"
    g = lat.Grid(8)
    energies = [float(r["energy"]) for r in rows]
    # strictly decreasing until the energy excess reaches round-off
    for a, b in zip(energies, energies[1:]):
        assert b <= a
        if a - 2.0 > 1e-12:
            assert b < a
    for r in rows:
        assert float(r["l1_norm"]) <= float(r["l1_bound"]) + 1e-10
        assert float(r["coh_drift_max"]) < 1e-12
        for v in r.values():
            assert math.isfinite(float(v))
    dist = np.abs(result.state.rho - g.constant(ext.OMEGA1)).max()
    assert dist < 1e-6
    excess = result.state.monitors["energy"] - 2.0
    assert abs(excess) < 1e-8
    _announce(5, f"flow reached the minimum in {result.steps} steps "
                 f"(sup distance {dist:.2e}, energy excess {excess:.2e})")


def test_criterion_6_hessian_at_minimum():
    g = lat.Grid(8, "spectral")
    omega = ext.Base(g.constant(ext.OMEGA1))
    gen = np.random.Generator(np.random.Philox(SEED + 2))
    worst = 0.0
    for _ in range(50):
        mu = lat.random_trig_field(gen, 2, 4)(g)
        rh = lat.d1(g, mu)
        rh *= 1.0 / np.abs(rh).max()
        h = flow.hessian_form(g, omega, rh)
        flat = lat.integrate(g, ext.norm2_sq(rh))
        worst = max(worst, abs(h - flat) / flat)
    assert worst <= 1e-10
    x0 = orc.coords(g)[0] + np.zeros(g.shape)
    mu0 = orc.zeros(g, 1)
    mu0[1] = np.sin(2 * np.pi * x0)
    val = flow.hessian_form(g, omega, lat.d1(g, mu0))
    assert val == pytest.approx(2 * np.pi ** 2, rel=1e-12)
    _announce(6, f"50 quadratic-form probes equal the flat L2 norm "
                 f"to {worst:.2e}; worked value 2 pi^2 reproduced")


def test_criterion_7_covariant_hessian_ledger():
    by_name = {r["name"]: r for r in checks.suite_hessiancov(SEED, 1)}
    res = {n: by_name[f"covariant_ledger_n{n}"]["rel_err"] for n in (8, 12)}
    assert res[8] < 1e-3
    assert res[12] < res[8]
    residual0 = by_name["covariant_ledger_minimum"]["abs_err"]
    assert residual0 < 1e-10
    _announce(7, f"ledger residual {res[8]:.2e} at n=8, {res[12]:.2e} at "
                 f"n=12, {residual0:.2e} at the minimum")


def test_criterion_8_degeneracy_honesty(tmp_path):
    g = lat.Grid(8)
    x0 = orc.coords(g)[0] + np.zeros(g.shape)
    mu = orc.zeros(g, 1)
    mu[1] = np.sin(2 * np.pi * x0)
    rho0 = g.constant(ext.OMEGA1) + lat.d1(g, mu) * 0.9999 / (2 * np.pi)
    assert 0 < ext.u_of(rho0).min() < 1e-3
    cfg = RunConfig(n=8, T=10.0, out_dir=str(tmp_path / "deg"))
    with pytest.raises(flow.StepFailure):
        flow.run(cfg, rho0=rho0)
    diag = json.loads((tmp_path / "deg" / "failure.json").read_text())
    assert diag["u_min"] > 0
    # the last attempt: its step and the order of the scheme that took it
    # (1 on the first step of a run, 2 on the second, 3 after)
    assert diag["order"] in ((1,) if diag["t"] == 0.0 else (2, 3))
    assert 0 < diag["dt"] <= flow.DT_ACCURACY
    rows = list(csv.DictReader(open(tmp_path / "deg" / "monitors.csv")))
    assert rows
    for r in rows:
        for v in r.values():
            assert math.isfinite(float(v))
    payload = np.fromfile(tmp_path / "deg" / "snapshot_failed.bin", "<f8")
    assert np.all(np.isfinite(payload))
    _announce(8, "near-degenerate run aborts with StepFailure and a finite "
                 "diagnostic trail (no NaN anywhere)")
