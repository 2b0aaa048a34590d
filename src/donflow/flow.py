"""The Donaldson geometric flow on the flat four-torus.

The flow is the negative gradient flow of the conformal energy

    E(rho) = integral of 2 |rho+|^2 / (|rho+|^2 - |rho-|^2)

over symplectic forms in a fixed cohomology class, taken with respect to
the Donaldson metric (gauge-fixed potentials paired through the pointwise
rho-metric Hodge star).  The evolution equation is

    d rho / dt = d star_rho d Theta(rho),

which stays inside the class exactly because the update is exact.
Near the minimum the flow linearizes to -L, L the flat Laplacian on exact
2-forms, whose stiff spectrum grows like n^2.  Time stepping is linearly
stabilized implicit-explicit BDF2 (SBDF2; Ascher, Ruuth & Wetton 1995)
with variable steps: L is implicit, solved as a real multiplier in the
real Fourier basis of each axis, and the rest of the velocity is
extrapolated explicitly, so a step costs one evaluation of the velocity
whatever n is and its size is capped for accuracy, not stability.  The
first step of a run is SBDF1.  A step is halved and retried when it
increases the energy excess, so energy monotonicity is enforced, not
hoped for.
"""

from __future__ import annotations

import csv
import fcntl
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from donflow import exterior as ext
from donflow import lattice as lat
from donflow.exterior import DegenerateForm
from donflow.snapshots import save_snapshot

CSV_FIELDS = ("t", "dt", "energy", "residual_l2", "u_min", "l1_norm",
              "l1_bound", "coh_drift_max")


class StepFailure(RuntimeError):
    """Time stepping could not produce an admissible monotone step."""

    def __init__(self, message, diagnostic=None):
        super().__init__(message)
        self.diagnostic = diagnostic or {}


@dataclass
class FlowState:
    rho: np.ndarray
    t: float
    dt: float
    excess: float          # energy excess of rho, see Energy
    monitors: dict


@dataclass
class EnergyReport:
    energy: float
    excess: float
    l1_norm: float
    l1_bound: float


@dataclass
class RunResult:
    reason: str            # "stationary" | "time"
    state: FlowState
    steps: int
    csv_path: Path
    snapshot_paths: list


class Energy(float):
    """An energy 2 Vol + excess, a float that keeps its excess: near the
    minimum the float is quantized at ulp(2) = 4.4e-16, while the excess, a
    sum of non-negative terms, keeps full relative precision."""

    def __new__(cls, excess):
        self = super().__new__(cls, 2.0 + excess)
        self.excess = excess
        return self


def energy(grid, rho):
    """Total energy 2 Vol + integral of |rho-|^2 / u (as |rho+|^2 - |rho-|^2
    = 2u): >= 2 Vol with equality iff rho is self-dual pointwise.  Returns
    an :class:`Energy`, whose excess is summed without cancellation.

    The flat star swaps the triples (0, 1, 2) and (3, 4, 5), so |rho-|^2
    = 1/2 sum_i (rho_i - rho_{i+3})^2, i < 3: one pass, one scratch plane."""
    u = ext.require_u(ext.u_of(rho))
    density = np.subtract(rho[0], rho[3])
    density *= density
    plane = np.empty_like(density)
    for i in (1, 2):
        np.subtract(rho[i], rho[i + 3], out=plane)
        plane *= plane
        density += plane
    density *= 0.5
    density /= u
    return Energy(lat.integrate(grid, density))


def rhs(grid, rho):
    """Minus the energy gradient: d star_rho d Theta(rho).  Exact by
    construction, so the cohomology class is conserved."""
    # nested, so Theta and d Theta are freed as soon as they are consumed
    return lat.d1(grid, ext.star_rho3(lat.d2(grid, ext.theta_point(rho)), rho))


def first_variation(grid, rho, rhohat):
    """Differential of the energy: integral of Theta(rho) ^ rhohat."""
    th = ext.theta_point(rho)
    return lat.integrate(grid, ext.wedge22(th, rhohat))


def donaldson_pairing(grid, rha, rhb, rho):
    """Donaldson inner product of two exact 2-forms at base point rho.

    Only the second argument's potential needs the gauge fix; the first may
    use any potential, which saves a CG solve.
    """
    lam_b = lat.least_norm_potential(grid, rhb, rho)
    lam_a = lat.exact_potential_flat(grid, rha)
    return lat.integrate(grid, ext.wedge13(lam_a, ext.star_rho1(lam_b, rho)))


def hessian_form(grid, rho, rhohat):
    """Quadratic form of the energy Hessian: integral of Theta_dot ^ rhohat."""
    td = ext.theta_dot_point(rho, rhohat)
    return lat.integrate(grid, ext.wedge22(td, rhohat))


def l1_report(grid, rho, e, t):
    """Energy report for rho, whose energy is the Energy e, with the L1 bound
    |rho|_L1 <= sqrt(c (E - Vol)).

    Raises StepFailure, with a diagnostic naming the flow time t, when the
    bound is violated.
    """
    l1 = lat.integrate(grid, np.sqrt(ext.norm2_sq(rho)))
    c = lat.integrate(grid, ext.wedge22(rho, rho))
    bound = math.sqrt(max(c * (e - 1.0), 0.0))
    if l1 > bound + 1e-10:
        raise StepFailure(
            f"L1 bound violated at t = {t:g}: {l1:.15g} > {bound:.15g}",
            diagnostic={"t": t, "l1_norm": l1, "l1_bound": bound,
                        "energy": e})
    return EnergyReport(energy=e, excess=e.excess, l1_norm=l1, l1_bound=bound)


def monitors(grid, rho, e, velocity, coh0, t):
    """Monitor values of the field rho at flow time t, given its energy e
    and its velocity rhs(grid, rho); residual_l2 is the velocity's flat L2
    norm (the stationarity test)."""
    rep = l1_report(grid, rho, e, t)
    drift = float(np.abs(lat.cohomology(grid, rho) - coh0).max())
    return {
        "energy": rep.energy,
        "residual_l2": lat.l2_norm(grid, velocity),
        "u_min": float(ext.u_of(rho).min()),
        "l1_norm": rep.l1_norm,
        "l1_bound": rep.l1_bound,
        "coh_drift_max": drift,
    }


def accept(grid, rho, t, dt, e, coh0):
    """The accepted state at rho, whose energy is the Energy e, and the
    flow's velocity there.  The velocity is evaluated once: the residual
    monitor reads it and the next step takes it as its first stage."""
    velocity = rhs(grid, rho)
    mon = monitors(grid, rho, e, velocity, coh0, t)
    return FlowState(rho, t, dt, e.excess, mon), velocity


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def initial_data(grid, rng, epsilon=0.05, kmax=2):
    """rho0 = omega1 + d(eps * lam), lam a random trigonometric 1-form.

    lam is normalized to sup norm epsilon; if the perturbed form dips below
    u = 0.5 anywhere, epsilon is halved (at most 20 times) and the same lam
    is reused, so the draw stays deterministic for a given seed.
    """
    lam = lat.random_trig_field(rng, kmax, ncomp=4)(grid)
    lam = lam / max(np.abs(lam).max(), 1e-300)
    base = grid.constant(ext.OMEGA1)
    eps = float(epsilon)
    for _ in range(21):
        rho = base + lat.d1(grid, eps * lam)
        if ext.u_of(rho).min() > 0.5:
            return rho
        eps *= 0.5
    raise DegenerateForm(
        f"initial data rejected down to epsilon = {eps:g}")


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

DT_ACCURACY = 0.004     # default step-size cap, in flow time


def _increment(grid, velocity, history, h):
    """The SBDF increment D = rho_{n+1} - rho_n of a step h from the state
    whose velocity F_n is given, with the flat Laplacian L implicit.

    ``history`` is [delta, F_{n-1}, h_{n-1}] of the accepted step before,
    delta = rho_n - rho_{n-1}, or empty.  With w = h / h_{n-1} and
    c = (1 + 2w) / (1 + w), variable-step SBDF2 (Wang & Ruuth 2008) is

        (c + hL) D = (w^2 / (1 + w) + hwL) delta + h ((1 + w) F_n - w F_{n-1}),

    and without a history SBDF1, (1 + hL) D = h F_n.  As w^2 / (1 + w)
    = w c - w, SBDF2 is D = w delta + (c/h + L)^-1 ((1 + w) F_n - w F_{n-1}
    - (w/h) delta): one resolvent, which is eight small gemms along the
    lattice axes (see :func:`donflow.lattice.resolvent`).  Every increment
    is exact up to round-off; at k = 0, where L = 0, a round-off mean in
    delta is damped by w^2 / (1 + 2w) per step, so the class does not
    drift.
    """
    if not history:
        return lat.resolvent(grid, velocity, 1.0 / h)
    delta, f_prev, h_prev = history
    w = h / h_prev
    force = np.multiply(velocity, 1.0 + w)
    scaled = np.multiply(f_prev, w)
    force -= scaled
    force -= np.multiply(delta, w / h, out=scaled)
    del scaled  # freed before the transform
    incr = lat.resolvent(grid, force, (1.0 + 2.0 * w) / ((1.0 + w) * h))
    incr += np.multiply(delta, w, out=force)
    return incr


def step(grid, state, velocity, coh0, dt_max, history, max_retries=20,
         dealias=False):
    """One accepted SBDF step from state, whose velocity rhs(grid,
    state.rho) is given (see :func:`_increment`): second order with the
    ``history`` of the step before, first order without.  A candidate that
    is degenerate or increases the energy excess is halved and retried
    with the same history.  Returns the accepted state and its velocity
    (see :func:`accept`).  Raises StepFailure when the retry budget is
    exhausted.

    ``history`` is a list, empty before the first step of a run.  On
    acceptance it is overwritten in place with this step's, before the new
    velocity is evaluated: the fields of the step before are freed first,
    so the velocity's temporaries come on top of two history fields, not
    four."""
    dt_start = min(state.dt, dt_max)
    last_error = "energy increased"
    for retry in range(max_retries + 1):
        dt = dt_start * 0.5 ** retry
        cand = _increment(grid, velocity, history, dt)
        cand += state.rho
        if dealias:
            cand = lat.dealias(grid, cand)
        try:
            e_new = energy(grid, cand)
        except DegenerateForm as err:
            last_error = str(err)
            continue
        if e_new.excess <= state.excess:
            history[:] = (cand - state.rho, velocity, dt)
            return accept(grid, cand, state.t + dt, min(dt * 1.1, dt_max),
                          e_new, coh0)
        last_error = f"energy increased by {e_new.excess - state.excess:.3e}"
    raise StepFailure(
        f"no admissible step after {max_retries} halvings: {last_error}",
        diagnostic={
            "t": state.t,
            "dt": dt,
            "order": 2 if history else 1,
            "error": last_error,
            "u_min": float(ext.u_of(state.rho).min()),
            "energy": state.monitors["energy"],
        })


class _OutputLock:
    """Guards an output directory against concurrent writers: an exclusive
    ``flock`` on ``.lock``, held for the life of the run.  The kernel drops
    it when the holder dies, so a ``.lock`` left by a killed run does not
    block the next one."""

    def __init__(self, out_dir):
        self.path = Path(out_dir) / ".lock"
        self._fh = None

    def __enter__(self):
        fh = open(self.path, "a")
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
            # a holder that was just releasing unlinked the file we locked
            if os.fstat(fh.fileno()).st_ino != os.stat(self.path).st_ino:
                raise BlockingIOError
        except (BlockingIOError, FileNotFoundError):
            fh.close()
            raise StepFailure(
                f"output directory is locked by another run: {self.path}")
        self._fh = fh
        return self

    def __exit__(self, *exc):
        self.path.unlink(missing_ok=True)
        self._fh.close()


def _format_row(row):
    return {k: format(v, ".17g") for k, v in row.items()}


def _write_failure(out_dir, diagnostic):
    (out_dir / "failure.json").write_text(
        json.dumps(diagnostic, indent=2, sort_keys=True) + "\n")


def run(config, rho0=None):
    """Integrate the flow until stationarity or final time: the run stops
    at the first accepted step with residual_l2 < tol_stationary or t >= T,
    so a fixed-T run may end past T.

    Writes the monitor CSV and the initial/final snapshots into
    ``config.out_dir``.  On StepFailure the partial CSV, a failure snapshot
    and a diagnostic JSON are flushed before the exception propagates.
    """
    config.validate()
    grid = lat.Grid(config.n, config.scheme)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if rho0 is None:
        rng = np.random.Generator(np.random.Philox(config.seed))
        rho0 = initial_data(grid, rng, config.epsilon, config.kmax)

    dt_cap = config.dt_max if config.dt_max is not None else DT_ACCURACY

    csv_path = out_dir / "monitors.csv"
    snaps = []
    with _OutputLock(out_dir):
        try:
            e0 = energy(grid, rho0)  # checks u before the class sums see rho0
            coh0 = lat.cohomology(grid, rho0)
            state, velocity = accept(grid, rho0, 0.0, min(config.dt0, dt_cap),
                                     e0, coh0)
        except DegenerateForm as err:
            u = ext.u_of(rho0)
            finite = np.isfinite(u)
            _write_failure(out_dir, {
                "t": 0.0, "error": str(err),
                "nonfinite_sites": int(u.size - np.count_nonzero(finite)),
                "u_min": float(u[finite].min()) if finite.any() else None})
            raise
        except StepFailure as err:
            _write_failure(out_dir, err.diagnostic)
            raise
        snaps.append(save_snapshot(out_dir / "snapshot_initial", grid,
                                   state.rho, state.t, state.monitors))
        steps, history = 0, []
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
            writer.writeheader()

            def emit(st):
                writer.writerow(_format_row({"t": st.t, "dt": st.dt, **st.monitors}))
                fh.flush()

            emit(state)
            try:
                while (state.monitors["residual_l2"] >= config.tol_stationary
                       and state.t < config.T):
                    state, velocity = step(grid, state, velocity, coh0,
                                           dt_cap, history,
                                           dealias=config.dealias)
                    steps += 1
                    if steps % config.out_every == 0:
                        emit(state)
            except StepFailure as err:
                if steps % config.out_every:
                    emit(state)
                snaps.append(save_snapshot(out_dir / "snapshot_failed", grid,
                                           state.rho, state.t, state.monitors))
                _write_failure(out_dir, err.diagnostic)
                raise
            if steps % config.out_every:
                emit(state)
        snaps.append(save_snapshot(out_dir / "snapshot_final", grid,
                                   state.rho, state.t, state.monitors))
    reason = ("stationary"
              if state.monitors["residual_l2"] < config.tol_stationary
              else "time")
    return RunResult(reason=reason, state=state, steps=steps,
                     csv_path=csv_path, snapshot_paths=snaps)
