"""The benchmark's workloads.

Each workload builds its inputs from a seed and runs as a short sequence of
calls into a public entry point (what ``donflow run`` or ``donflow check``
executes).  ``calls`` is a generator that pauses between calls, so the
harness can time every call and calibrate the machine's speed in between;
its return value goes to ``check``, which returns the gate as a list of
(criterion, passed) pairs, one operation each, and the digest that two runs
of the same code and seed must reproduce bit for bit.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

import numpy as np

from donflow import checks, flow
from donflow import exterior as ext
from donflow import lattice as lat
from donflow.config import RunConfig


def sha256(data):
    return hashlib.sha256(data).hexdigest()


class FlowWorkload:
    """The flow from ``initial_data`` to stationarity (``converge``) or to
    flow time ``T``, as consecutive ``flow.run(cfg, rho0=...)`` calls of
    flow time ``segment``, each starting from the previous final state.

    The step size is the stability cap from the first step on (the initial
    step is larger than the cap at every n used here) and grows back to it
    after a rejection, so the segments take the same steps as one call
    would; each adds one ``monitors`` evaluation and two snapshots.  A fixed
    ``input_seed`` replaces the run's seed.
    """

    def __init__(self, name, n, T, segment, converge, input_seed=None):
        self.name = name
        self.n = n
        self.T = T
        self.segment = segment
        self.converge = converge
        self.input_seed = input_seed

    def config(self, seed, T, out_dir):
        if self.input_seed is not None:
            seed = self.input_seed
        return RunConfig(n=self.n, scheme="spectral", seed=seed, epsilon=0.05,
                         kmax=2, T=T, tol_stationary=1e-8, out_every=10,
                         out_dir=str(out_dir))

    def setup(self, seed):
        cfg = self.config(seed, self.T, ".")
        grid = lat.Grid(cfg.n, cfg.scheme)
        rng = np.random.Generator(np.random.Philox(cfg.seed))
        return flow.initial_data(grid, rng, cfg.epsilon, cfg.kmax)

    @staticmethod
    def input_digest(rho0):
        return sha256(np.ascontiguousarray(rho0).tobytes())

    def calls(self, seed, rho0, out_dir):
        results, rho, t = [], rho0, 0.0
        while True:
            res = flow.run(self.config(seed, self.segment,
                                       out_dir / f"seg{len(results)}"), rho0=rho)
            results.append(res)
            rho, t = res.state.rho, t + res.state.t
            if res.reason == "stationary" or t >= self.T:
                return rho0, t, results
            yield

    def check(self, seed, outcome, out_dir):
        rho0, t, results = outcome
        rows = []
        for res in results:
            with open(res.csv_path, newline="") as fh:
                rows.extend(csv.DictReader(fh))
        values = [[float(v) for v in row.values()] for row in rows]
        energies = [float(r["energy"]) for r in rows]
        final = results[-1].state
        grid = lat.Grid(self.n, "spectral")
        drift = np.abs(lat.cohomology(grid, final.rho)
                       - lat.cohomology(grid, rho0)).max()
        gate = [
            ("csv_finite", bool(rows) and all(
                math.isfinite(v) for row in values for v in row)),
            ("coh_drift", drift < 1e-12 and all(
                float(r["coh_drift_max"]) < 1e-12 for r in rows)),
            ("l1_bound", all(float(r["l1_norm"]) <= float(r["l1_bound"]) + 1e-10
                             for r in rows)),
            ("energy_monotone", all(b <= a for a, b in zip(energies, energies[1:]))),
        ]
        if self.converge:
            dist = float(np.abs(final.rho - grid.constant(ext.OMEGA1)).max())
            gate += [
                ("stationary", results[-1].reason == "stationary"),
                ("at_omega1", dist < 1e-6),
                ("energy_minimal", abs(final.monitors["energy"] - 2.0) < 1e-8),
            ]
        else:
            gate.append(("reached_T", t >= self.T))
        payload = (results[-1].csv_path.parent / "snapshot_final.bin").read_bytes()
        return gate, sha256(payload)


class VerifyWorkload:
    """``checks.run_suites`` over every suite at ``samples``, one call per
    suite in ``SUITE_ORDER``, which is what ``run_suites(["all"], ...)``
    does in one call; each check record is one operation.  The suites draw
    their own instances from the seed, so there are no inputs to build."""

    name = "verify_all"

    def __init__(self, samples):
        self.samples = samples

    def setup(self, seed):
        return None

    @staticmethod
    def input_digest(inputs):
        return ""

    def calls(self, seed, inputs, out_dir):
        records = []
        for i, suite in enumerate(checks.SUITE_ORDER):
            records.extend(checks.run_suites([suite], seed, self.samples)[0])
            if i + 1 == len(checks.SUITE_ORDER):
                return records
            yield

    def check(self, seed, records, out_dir):
        ok = all(rec["passed"] for rec in records)
        # the report exactly as ``donflow check --check-suite all`` writes it
        report = {"seed": seed, "samples": self.samples, "suites": ["all"],
                  "checks": records, "passed": ok}
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        gate = [(rec["name"], bool(rec["passed"])) for rec in records]
        return gate, sha256(text.encode())


WORKLOADS = {
    # the acceptance run, to stationarity: 4,096 sites, per-call overhead in
    # exterior and the step controller dominate.  Its input stays the
    # acceptance one (seed 7) whatever the run's seed: from about one fresh
    # draw in five the energy guard stalls near the minimum (dt collapses
    # at residual ~1e-6, a round-off effect: a lattice translation of the
    # same input converges), so there is no time to solution to measure
    "relax_n8": FlowWorkload("relax_n8", n=8, T=50.0, segment=0.05,
                             converge=True, input_seed=7),
    # 65,536 sites to a fixed flow time: bound by the lattice FFTs
    "march_n16": FlowWorkload("march_n16", n=16, T=0.004, segment=0.0008,
                              converge=False),
    # every check suite: exterior on 20,000-sample batches, the CG solve,
    # random_trig_field and hyperkahler, with no time stepping
    "verify_all": VerifyWorkload(samples=20000),
}

# The same entry points at sizes that run in seconds, for the self-check.
REDUCED = {
    "relax_n8": FlowWorkload("relax_n8", n=8, T=0.02, segment=0.01,
                             converge=False),
    "march_n16": FlowWorkload("march_n16", n=16, T=0.0005, segment=0.00025,
                              converge=False),
    "verify_all": VerifyWorkload(samples=50),
}
