#!/usr/bin/env python3
"""Grid-refinement study of the discretization residuals.

Evaluates, on one fixed smooth field sampled at several resolutions,

* the mismatch between the moment-map gradient and the flow right hand side,
* the pointwise-star gradient identity,
* the covariant-Hessian ledger A + B + C + D - 2E,
* the covariant-Hessian identity (``cov_identity_rel``; ``donflow
  check`` reports it at n = 8, 12 and the minimum as the
  ``covariant_identity_*`` records of suite hessiancov),

and writes the residuals per grid size as CSV (spectral rates show up as
near-exponential decay, fd2 as second order).

    python3 scripts/refinement_study.py --sizes 8 12 16 --eps 0.1
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from donflow import exterior as ext
from donflow import flow
from donflow import hyperkahler as hk
from donflow import lattice as lat
from donflow.checks import exact_direction, perturbed_omega1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[8, 12, 16])
    ap.add_argument("--scheme", default="spectral")
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=21)
    ap.add_argument("--out", type=Path, default=Path("refinement_study.csv"))
    args = ap.parse_args(argv)

    gen = np.random.Generator(np.random.Philox(args.seed))
    rho_fn = lat.random_trig_field(gen, 1, ncomp=4)
    mu_fn = lat.random_trig_field(gen, 1, ncomp=4)

    rows = []
    for n in args.sizes:
        g = lat.Grid(n, args.scheme)
        base = ext.Base(perturbed_omega1(g, rho_fn, args.eps))
        mu, rh = exact_direction(g, mu_fn, 0.3)

        r = flow.rhs(g, base)
        grad_rel = (lat.l2_norm(g, hk.grad_hk(g, base) + r)
                    / lat.l2_norm(g, r))

        star_rel = float(np.abs(lat.d2(g, ext.theta_point(base))
                                - ext.star_rho1(hk.grad_potential(g, base),
                                                base)).max())

        rep = hk.hessiancov_check(g, base, rh, mu=mu)
        rows.append({
            "n": n,
            "scheme": args.scheme,
            "grad_vs_rhs_rel": grad_rel,
            "star_gradient_sup": star_rel,
            "ledger_rel": rep["abcde_relative"],
            "cov_identity_rel": rep["cov_residual"],
        })
        print(f"n={n:<3d} grad={grad_rel:.3e} star={star_rel:.3e} "
              f"ledger={rep['abcde_relative']:.3e}")

    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
