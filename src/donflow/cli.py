"""Command line driver: run / check / hessian / init.

Exit codes: 0 success (and all checks passed), 1 configuration error or a
bad input file (such as a malformed snapshot), 2 degeneracy or step failure
(with a diagnostic JSON) or failed checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from donflow import checks
from donflow import flow
from donflow import lattice as lat
from donflow.config import ConfigError, RunConfig, load_config, save_template
from donflow.exterior import Base, DegenerateForm, norm2_sq, u_of
from donflow.snapshots import load_snapshot


def _parser():
    p = argparse.ArgumentParser(
        prog="donflow",
        description="Donaldson geometric flow simulator on the flat four-torus")
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="JSON configuration file")
    common.add_argument("--out", type=Path, default=None,
                        help="override the output directory")
    common.add_argument("--seed", type=int, default=None,
                        help="override the configured seed")

    sub.add_parser("run", parents=[common],
                   help="integrate the flow, write CSV monitors and snapshots")
    sub.add_parser("check", parents=[common],
                   help="run randomized identity suites, write a JSON report")
    ph = sub.add_parser("hessian", parents=[common],
                        help="probe the Hessian quadratic form at a snapshot")
    ph.add_argument("--snapshot", type=Path, required=True,
                    help="snapshot header (.json) to probe")
    ph.add_argument("--directions", type=int, default=50,
                    help="number of random exact probe directions (>= 1)")
    pi = sub.add_parser("init", help="emit a template configuration file")
    pi.add_argument("--config", type=Path,
                    default=Path("donflow_config.json"))
    return p


def _load_config(args):
    cfg = load_config(args.config) if args.config else RunConfig().validate()
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "out", None) is not None:
        cfg.out_dir = str(args.out)
    return cfg.validate()


def _report_path(cfg, default_name):
    """The report file of check or hessian, not a directory, with its
    parent directory made and writable; called once the inputs are read
    and before any suite or probe runs, so a bad input leaves no directory
    behind.  A ConfigError names the key."""
    path = Path(cfg.report_path) if cfg.report_path else (
        Path(cfg.out_dir) / default_name)
    if path.is_dir():
        raise ConfigError(f"report_path: {path} is a directory")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"report_path: cannot create {path.parent}: "
                          f"{err.strerror}") from err
    if not os.access(path.parent, os.W_OK):
        raise ConfigError(f"report_path: {path.parent} is not writable")
    return path


def _cmd_run(args):
    cfg = _load_config(args)
    try:
        result = flow.run(cfg)
    except (flow.StepFailure, DegenerateForm) as err:
        print(f"donflow run: aborted: {err}", file=sys.stderr)
        return 2
    print(f"donflow run: {result.reason} after {result.steps} steps, "
          f"energy {result.state.monitors['energy']:.12f}, "
          f"residual {result.state.monitors['residual_l2']:.3e}")
    print("rejected attempts: " + ", ".join(
        f"{reason.replace('_', ' ')} {count}"
        for reason, count in result.rejected.items()))
    print(f"monitors: {result.csv_path}")
    return 0


def _cmd_check(args):
    cfg = _load_config(args)
    try:
        names = checks.suite_names(cfg.check_suite)
    except KeyError as err:
        print(f"donflow check: {err.args[0]}", file=sys.stderr)
        return 1
    path = _report_path(cfg, "checks_report.json")
    records, ok = checks.run_suites(names, cfg.seed, cfg.samples)
    report = {
        "seed": cfg.seed,
        "samples": cfg.samples,
        "suites": cfg.check_suite,
        "checks": records,
        "passed": ok,
    }
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for rec in records:
        status = "PASS" if rec["passed"] else "FAIL"
        print(f"[{status}] {rec['name']}: rel_err {rec['rel_err']:.3e} "
              f"(tol {rec['tol']:.1e})")
    print(f"report: {path}")
    return 0 if ok else 2


def _cmd_hessian(args):
    if args.directions < 1:
        print(f"donflow hessian: --directions must be >= 1, got "
              f"{args.directions}", file=sys.stderr)
        return 1
    cfg = _load_config(args)
    try:
        grid, rho, time, _ = load_snapshot(args.snapshot)
    except ValueError as err:
        print(f"donflow hessian: bad snapshot: {err}", file=sys.stderr)
        return 1
    if cfg.kmax > grid.n // 2:   # the directions live on the snapshot's grid
        raise ConfigError(f"kmax: must be <= n/2 = {grid.n // 2} of the "
                          f"snapshot, got {cfg.kmax}")
    path = _report_path(cfg, "hessian_report.json")
    try:
        b = Base(rho)
    except DegenerateForm as err:
        error = f"degenerate snapshot: {err}"
        path.write_text(json.dumps(
            {"snapshot": str(args.snapshot), "u_min": float(u_of(rho).min()),
             "error": error}, indent=2, sort_keys=True) + "\n")
        print(f"donflow hessian: {error}", file=sys.stderr)
        return 2
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    values, quotients = [], []
    for _ in range(args.directions):
        mu = lat.random_trig_field(rng, cfg.kmax, ncomp=4)(grid)
        rh = lat.d1(grid, mu)
        rh *= 1.0 / np.abs(rh).max()
        h = flow.hessian_form(grid, b, rh)
        flat = lat.integrate(grid, norm2_sq(rh))
        values.append(h)
        quotients.append(h / flat)
    report = {
        "snapshot": str(args.snapshot),
        "time": time,
        "n": grid.n,
        "scheme": grid.scheme,
        "u_min": float(b.u.min()),
        "directions": args.directions,
        "hessian_values": values,
        "quotients": quotients,
        "min_quotient": min(quotients),
        "max_quotient": max(quotients),
    }
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"donflow hessian: {args.directions} directions, quotients in "
          f"[{min(quotients):.12f}, {max(quotients):.12f}]")
    print(f"report: {path}")
    return 0


def _cmd_init(args):
    try:
        save_template(args.config)
    except OSError as err:
        raise ConfigError(f"config: cannot write {args.config}: "
                          f"{err.strerror}") from err
    print(f"wrote template configuration to {args.config}")
    return 0


def main(argv=None):
    args = _parser().parse_args(argv)
    commands = {"run": _cmd_run, "check": _cmd_check,
                "hessian": _cmd_hessian, "init": _cmd_init}
    try:
        return commands[args.command](args)
    except ConfigError as err:  # exit 1 with the offending key
        print(f"donflow: configuration error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
