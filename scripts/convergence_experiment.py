#!/usr/bin/env python3
"""Sweep seeds and perturbation amplitudes and record how the flow relaxes.

For each seed and epsilon the flow is integrated to stationarity and one
summary row is written: the outcome, steps, final time, final energy
excess, residual, next step size, sup distance to the constant form of
the class, and the rejected attempts by reason.  Output is plot-ready
CSV.  A run that stops on a step failure (a stall included) is a row
with reason ``failure``, read from its failure snapshot, and the
failure's message.  The last line
counts the stationary rows and gives their step range, and the failed
and cycling rows (residual above 1e-6 with the step above 1e-6 at the
end); the exit code is 1 when any row ends other than stationary, so the
sweep is a gate.

``--asd i --amplitudes a ...`` starts each run in the class of
omega1 + a omega_i^ASD instead of omega1: rho0 = omega1 + a omega_i^ASD +
d(eps lam), on the potential lam that ``flow.initial_data`` draws from
the seed; one row per seed, epsilon and amplitude.

    python3 scripts/convergence_experiment.py --n 8 --epsilons 0.02 0.05 0.1
    python3 scripts/convergence_experiment.py --seeds $(seq 1 43) --epsilons 0.05
    python3 scripts/convergence_experiment.py --epsilons 0.02 --asd 1 \\
        --amplitudes -0.3 -0.2 -0.1 -0.05 0.05 0.1 0.2 0.3
"""

import argparse
import csv
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from donflow import exterior as ext
from donflow import flow
from donflow import lattice as lat
from donflow.config import RunConfig
from donflow.snapshots import load_snapshot

ASD = {1: ext.OMEGA1_ASD, 2: ext.OMEGA2_ASD}


def _run(cfg, base):
    """The run's outcome as the row's fields, from the result of
    ``flow.run`` or, for a run that failed, from its failure.json and
    failure snapshot: the reason, steps, final time, energy excess,
    residual, the next step size (a failed run's: the diagnostic's dt),
    the rejected attempts by reason and the failure's message ("-" for a
    run that did not fail), and the final field."""
    rho0 = None
    if base is not None:
        rng = np.random.Generator(np.random.Philox(cfg.seed))
        rho0 = flow.initial_data(lat.Grid(cfg.n, cfg.scheme), rng,
                                 cfg.epsilon, cfg.kmax, base=base)
    try:
        res = flow.run(cfg, rho0=rho0)
    except flow.StepFailure as err:
        out = Path(cfg.out_dir)
        diag = json.loads((out / "failure.json").read_text())
        grid, rho, t, mon = load_snapshot(out / "snapshot_failed.json")
        return {"reason": "failure", "steps": diag["steps"], "t_final": t,
                "energy_excess": flow.energy(grid, ext.Base(rho)).excess,
                "residual_l2": mon["residual_l2"], "dt": diag["dt"],
                "rejected": diag["rejected"], "failure": str(err)}, rho
    return {"reason": res.reason, "steps": res.steps, "t_final": res.state.t,
            "energy_excess": res.state.excess,
            "residual_l2": res.state.monitors["residual_l2"],
            "dt": res.state.dt, "rejected": res.rejected,
            "failure": "-"}, res.state.rho


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=8)
    ap.add_argument("--scheme", default="spectral")
    ap.add_argument("--epsilons", type=float, nargs="+",
                    default=[0.02, 0.05, 0.1])
    ap.add_argument("--seeds", type=int, nargs="+", default=[7])
    ap.add_argument("--tol", type=float, default=1e-8)
    ap.add_argument("--asd", type=int, choices=sorted(ASD))
    ap.add_argument("--amplitudes", type=float, nargs="+", default=[0.0])
    ap.add_argument("--out", type=Path, default=Path("convergence_sweep.csv"))
    args = ap.parse_args(argv)

    rows = []
    for seed in args.seeds:
        for eps in args.epsilons:
            for amp in (args.amplitudes if args.asd else [None]):
                base = (None if amp is None
                        else ext.OMEGA1 + amp * ASD[args.asd])
                with tempfile.TemporaryDirectory() as tmp:
                    cfg = RunConfig(n=args.n, scheme=args.scheme, T=100.0,
                                    tol_stationary=args.tol, seed=seed,
                                    epsilon=eps, out_every=50, out_dir=tmp)
                    t0 = time.monotonic()
                    outcome, rho = _run(cfg, base)
                    wall = time.monotonic() - t0
                g = lat.Grid(args.n, args.scheme)
                c = ext.OMEGA1 if base is None else base
                dist = float(np.abs(rho - g.constant(c)).max())
                rejected = outcome.pop("rejected")
                row = {"seed": seed, "epsilon": eps}
                if args.asd:
                    row.update(asd=args.asd, amplitude=amp)
                row.update(outcome, sup_distance=dist, wall_seconds=wall)
                row.update({f"rejected_{k}": v for k, v in rejected.items()})
                rows.append(row)
                label = "" if amp is None else f"a={amp:<6g} "
                print(f"seed={seed:<4d} eps={eps:<6g} {label}"
                      f"{row['reason']:<10s} steps={row['steps']:<6d} "
                      f"t={row['t_final']:.3f} "
                      f"residual={row['residual_l2']:.2e} "
                      f"dt={row['dt']:.2e} wall={wall:.1f}s"
                      + ("" if row["failure"] == "-" else f" {row['failure']}"))

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")
    stationary = [row["steps"] for row in rows if row["reason"] == "stationary"]
    steps = (f", steps {min(stationary)}-{max(stationary)}" if stationary
             else "")
    failed = sum(row["reason"] == "failure" for row in rows)
    cycling = sum(row["reason"] == "time" and row["residual_l2"] > 1e-6
                  and row["dt"] > 1e-6 for row in rows)
    others = (f"; {failed} failed, {cycling} cycling"
              if failed or cycling else "")
    print(f"{len(stationary)}/{len(rows)} stationary{steps}{others}")
    return 0 if len(stationary) == len(rows) else 1


if __name__ == "__main__":
    sys.exit(main())
