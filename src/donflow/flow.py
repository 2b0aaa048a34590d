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
stabilized implicit-explicit BDF3 (SBDF3; Ascher, Ruuth & Wetton 1995)
with variable steps: L is implicit, solved as a real multiplier in the
real Fourier basis of each axis, and the rest of the velocity is
extrapolated explicitly, so a step costs one evaluation of the velocity
whatever n is and its size is capped for accuracy, not stability.  A run
starts with SBDF1, then SBDF2, then SBDF3.  A step is halved and retried
when it increases the energy excess, so energy monotonicity is enforced,
not hoped for.
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
class RunResult:
    reason: str            # "stationary" | "time"
    state: FlowState
    steps: int
    csv_path: Path


class Energy(float):
    """An energy 2 Vol + excess, a float that keeps its excess: near the
    minimum the float is quantized at ulp(2) = 4.4e-16, while the excess, a
    sum of non-negative terms, keeps full relative precision."""

    def __new__(cls, excess):
        self = super().__new__(cls, 2.0 + excess)
        self.excess = excess
        return self


def energy(grid, b):
    """Total energy 2 Vol + integral of |rho-|^2 / u (as |rho+|^2 - |rho-|^2
    = 2u): >= 2 Vol with equality iff rho is self-dual pointwise.  Returns
    an :class:`Energy`, whose excess is summed without cancellation.

    The flat star swaps the triples (0, 1, 2) and (3, 4, 5), so |rho-|^2
    = 1/2 sum_i (rho_i - rho_{i+3})^2, i < 3: one pass, one scratch plane."""
    rho = b.rho
    density = np.subtract(rho[0], rho[3])
    density *= density
    plane = np.empty_like(density)
    for i in (1, 2):
        np.subtract(rho[i], rho[i + 3], out=plane)
        plane *= plane
        density += plane
    density *= 0.5
    density /= b.u
    return Energy(lat.integrate(grid, density))


def rhs(grid, b):
    """Minus the energy gradient at the Base b: d star_rho d Theta(rho).
    Exact by construction, so the cohomology class is conserved."""
    # nested, so Theta and d Theta are freed as soon as they are consumed
    return lat.d1(grid, ext.star_rho3(lat.d2(grid, ext.theta_point(b)), b))


def first_variation(grid, b, rhohat):
    """Differential of the energy: integral of Theta(rho) ^ rhohat."""
    th = ext.theta_point(b)
    return lat.integrate(grid, ext.wedge22(th, rhohat))


def donaldson_pairing(grid, rha, rhb, b):
    """Donaldson inner product of two exact 2-forms at the Base b.

    Only the second argument's potential needs the gauge fix; the first may
    use any potential, which saves a CG solve.
    """
    lam_b = lat.least_norm_potential(grid, rhb, b)
    lam_a = lat.exact_potential_flat(grid, rha)
    return lat.integrate(grid, ext.wedge13(lam_a, ext.star_rho1(lam_b, b)))


def hessian_form(grid, b, rhohat):
    """Quadratic form of the energy Hessian: integral of Theta_dot ^ rhohat."""
    td = ext.theta_dot_point(b, rhohat)
    return lat.integrate(grid, ext.wedge22(td, rhohat))


def l1_report(grid, rho, e, t, coh):
    """The L1 norm of rho, whose energy is the Energy e and whose
    cohomology class is coh, and its bound sqrt(c (E - Vol)), c = integral
    of rho ^ rho, as the pair (l1_norm, l1_bound).

    c is a class invariant: for rho = coh + an exact form, the exact part
    wedges to an integral of zero, so c = coh ^ coh and no integral is
    taken.  Raises StepFailure, with a diagnostic naming the flow time t,
    when the bound is violated.
    """
    l1 = lat.integrate(grid, np.sqrt(ext.norm2_sq(rho)))
    c = float(ext.wedge22(coh, coh))
    bound = math.sqrt(max(c * (e - 1.0), 0.0))
    if l1 > bound + 1e-10:
        raise StepFailure(
            f"L1 bound violated at t = {t:g}: {l1:.15g} > {bound:.15g}",
            diagnostic={"t": t, "l1_norm": l1, "l1_bound": bound,
                        "energy": e})
    return l1, bound


def monitors(grid, b, e, velocity, coh0, t):
    """Monitor values of the field at the Base b at flow time t, given its
    energy e, its velocity rhs(grid, b) and the class coh0 of the run;
    residual_l2 is the velocity's flat L2 norm (the stationarity test).

    The class drift ``coh_drift_max`` is not among them: it is recorded,
    not enforced, so :func:`run` adds it for the states it writes out
    alone (see there)."""
    l1, bound = l1_report(grid, b.rho, e, t, coh0)
    return {
        "energy": e,
        "residual_l2": lat.l2_norm(grid, velocity),
        "u_min": float(b.u.min()),
        "l1_norm": l1,
        "l1_bound": bound,
    }


def accept(grid, b, t, dt, e, coh0):
    """The accepted state at the Base b, whose energy is the Energy e, and
    the flow's velocity there.  The velocity is evaluated once: the
    residual monitor reads it and the next step takes it as its F_n."""
    velocity = rhs(grid, b)
    mon = monitors(grid, b, e, velocity, coh0, t)
    return FlowState(b.rho, t, dt, e.excess, mon), velocity


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

DT_ACCURACY = 0.0075    # step-size cap, in flow time
MAX_HALVINGS = 20       # retries of a step before it fails


def _sbdf_weights(steps):
    """Weights of variable-step SBDFk, k = len(steps), for the steps
    (h_n, h_{n-1}, ...), newest first: alpha_0..alpha_k differentiate the
    Lagrange interpolant through rho_{n+1}, rho_n, ..., rho_{n+1-k} at
    t_{n+1}, and beta_0..beta_{k-1} extrapolate through the values at t_n,
    ..., t_{n+1-k} to t_{n+1}."""
    t = [0.0]                   # t_{n+1-j} - t_{n+1}
    for h in steps:
        t.append(t[-1] - h)
    nodes = range(1, len(t))
    alpha = [sum(-1.0 / tm for tm in t[1:])]
    alpha += [math.prod(-t[m] for m in nodes if m != j)
              / math.prod(t[j] - t[m] for m in range(len(t)) if m != j)
              for j in nodes]
    beta = [math.prod(t[m] / (t[m] - t[j]) for m in nodes if m != j)
            for j in nodes]
    return alpha, beta


def _increment(grid, velocity, history, h):
    """The SBDF increment D = rho_{n+1} - rho_n of a step h from the state
    whose velocity F_n is given, with the flat Laplacian L implicit.

    ``history`` holds the records (delta_i, F_{n-i}, h_{n-i}) of the last
    accepted steps, newest first, delta_i = rho_{n+1-i} - rho_{n-i}; the
    order k is one more than its length (at most 2).  BDFk is taken on
    rho, and G = F + L rho is extrapolated through the last k velocities
    (weights from :func:`_sbdf_weights`).  Written in the increments,

        D = -sum_i e_i delta_i + (alpha_0 + L)^-1 (sum_j beta_j F_{n-j}
              + sum_i (a_i + alpha_0 e_i) delta_i),

    with a_i = sum_{j > i} alpha_j and e_i = sum_{j >= i} beta_j: one
    resolvent, which is eight small gemms along the lattice axes (see
    :func:`donflow.lattice.resolvent`).  Every increment is exact up to
    round-off; at k = 0, where L = 0, a round-off mean in the deltas
    follows the BDF recurrence of y' = 0, whose spurious roots lie inside
    the unit disk, so the class does not drift.
    """
    alpha, beta = _sbdf_weights([h] + [rec[2] for rec in history])
    force = np.multiply(velocity, beta[0])
    scratch = np.empty_like(force)
    for i, (delta, f_prev, _) in enumerate(history, 1):
        force += np.multiply(f_prev, beta[i], out=scratch)
        force += np.multiply(delta, sum(alpha[i + 1:])
                             + alpha[0] * sum(beta[i:]), out=scratch)
    del scratch  # freed before the resolvent
    incr = lat.resolvent(grid, force, alpha[0])
    for i, (delta, _, _) in enumerate(history, 1):
        incr -= np.multiply(delta, sum(beta[i:]), out=force)
    return incr


def step(grid, state, velocity, coh0, dt_max, history):
    """One accepted SBDF step from state, whose velocity at state.rho is
    given (see :func:`_increment`): third order with the records of the
    two steps before in ``history``, second order with one, first order
    without.  A candidate that is degenerate or increases the energy
    excess is halved and retried with the same history: at the
    linearization F = -L, variable-step SBDF3 damps every mode through a
    step ratio of 0.5 (or 2^-20) and the growth by 1.1 that follows.
    Returns the accepted state and its velocity (see :func:`accept`, which
    shares the candidate's Base with its energy: one Pfaffian per step).
    Raises StepFailure after MAX_HALVINGS halvings.

    ``history`` is a list, empty before the first step of a run.  On
    acceptance it is overwritten in place, this step's record first and
    the one from three steps back dropped, before the new velocity is
    evaluated: the dropped fields are freed first, so the velocity's
    temporaries come on top of four history fields, not six."""
    dt_start = min(state.dt, dt_max)
    last_error = "energy increased"
    for retry in range(MAX_HALVINGS + 1):
        dt = dt_start * 0.5 ** retry
        cand = _increment(grid, velocity, history, dt)
        cand += state.rho
        try:
            b = ext.Base(cand)
        except DegenerateForm as err:
            last_error = str(err)
            continue
        e_new = energy(grid, b)
        if e_new.excess <= state.excess:
            history[:] = [(cand - state.rho, velocity, dt)] + history[:1]
            return accept(grid, b, state.t + dt, min(dt * 1.1, dt_max),
                          e_new, coh0)
        last_error = f"energy increased by {e_new.excess - state.excess:.3e}"
    raise StepFailure(
        f"no admissible step after {MAX_HALVINGS} halvings: {last_error}",
        diagnostic={
            "t": state.t,
            "dt": dt,
            "order": len(history) + 1,
            "error": last_error,
            "u_min": state.monitors["u_min"],
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


def _u_where_finite(rho):
    """u of rho, NaN at the sites with a non-finite component, where the
    pfaffian's products would warn (inf * 0).  Only the failure diagnostic
    of a degenerate rho0 reads it."""
    finite = np.isfinite(rho).all(axis=0)
    u = np.full(finite.shape, np.nan)
    u[finite] = ext.u_of(rho[:, finite])
    return u


def _require_shape(grid, rho):
    """Raise StepFailure at t = 0 unless rho is a 2-form field on grid."""
    shape, want = np.shape(rho), (6,) + grid.shape
    if shape != want:
        raise StepFailure(
            f"rho0 has shape {shape}, expected {want}",
            diagnostic={"t": 0.0, "rho0_shape": list(shape),
                        "expected_shape": list(want)})


def _require_closed(grid, rho):
    """Raise StepFailure at t = 0 unless d rho vanishes to round-off
    (relative to n max|rho|): the flow moves closed forms in their class,
    and the L1 bound reads its c from the class."""
    closure = float(np.abs(lat.d2(grid, rho)).max())
    bound = 1e-10 * grid.n * float(np.abs(rho).max())
    if closure > bound:
        raise StepFailure(
            f"rho0 is not closed: max |d rho0| = {closure:.3e} > {bound:.3e}",
            diagnostic={"t": 0.0, "d_rho_max": closure, "d_rho_bound": bound})


def run(config, rho0=None):
    """Integrate the flow until stationarity or final time: the run stops
    at the first accepted step with residual_l2 < tol_stationary or t >= T,
    so a fixed-T run may end past T.

    Writes the monitor CSV and the initial/final snapshots into
    ``config.out_dir``.  On StepFailure the partial CSV, a failure snapshot
    and a diagnostic JSON are flushed before the exception propagates; a
    ``rho0`` of the wrong shape or not closed fails at t = 0
    (:func:`_require_shape`, :func:`_require_closed`), and a degenerate
    ``rho0`` or a rejected :func:`initial_data` draw writes the diagnostic
    JSON before its DegenerateForm propagates.

    The class drift ``coh_drift_max`` is computed for the written states
    only: each CSV row, which every snapshot header follows.  At t = 0 it
    is exactly 0, as the class of rho0 is coh0 itself.
    """
    config.validate()
    grid = lat.Grid(config.n, config.scheme)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "monitors.csv"
    with _OutputLock(out_dir):
        try:
            if rho0 is None:
                rng = np.random.Generator(np.random.Philox(config.seed))
                rho0 = initial_data(grid, rng, config.epsilon, config.kmax)
            _require_shape(grid, rho0)
            # a non-finite entry makes u NaN or +-inf, since each component
            # is in exactly one product of u: the Base rejects it before d
            # sees it (d must not, as 0 * inf spreads NaN along an axis)
            with np.errstate(invalid="ignore", over="ignore"):
                b0 = ext.Base(rho0)
            _require_closed(grid, rho0)
            e0 = energy(grid, b0)
            coh0 = lat.cohomology(grid, rho0)
            # a CFL-style start below the cap; the step then grows by 1.1
            dt0 = min(0.2 / config.n ** 2, DT_ACCURACY)
            state, velocity = accept(grid, b0, 0.0, dt0, e0, coh0)
            state.monitors["coh_drift_max"] = 0.0
            del b0  # its u is not kept beside the steps
        except DegenerateForm as err:
            diagnostic = {"t": 0.0, "error": str(err)}
            if rho0 is not None:    # None: initial_data rejected its draw
                u = _u_where_finite(rho0)
                finite = np.isfinite(u)
                diagnostic.update(
                    nonfinite_sites=int(u.size - np.count_nonzero(finite)),
                    u_min=float(u[finite].min()) if finite.any() else None)
            _write_failure(out_dir, diagnostic)
            raise
        except StepFailure as err:
            _write_failure(out_dir, err.diagnostic)
            raise
        save_snapshot(out_dir / "snapshot_initial", grid, state.rho, state.t,
                      state.monitors)
        steps, history = 0, []
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
            writer.writeheader()

            def emit(st):
                if "coh_drift_max" not in st.monitors:   # set at t = 0
                    st.monitors["coh_drift_max"] = float(
                        np.abs(lat.cohomology(grid, st.rho) - coh0).max())
                writer.writerow(_format_row({"t": st.t, "dt": st.dt, **st.monitors}))
                fh.flush()

            emit(state)
            try:
                while (state.monitors["residual_l2"] >= config.tol_stationary
                       and state.t < config.T):
                    state, velocity = step(grid, state, velocity, coh0,
                                           DT_ACCURACY, history)
                    steps += 1
                    if steps % config.out_every == 0:
                        emit(state)
            except StepFailure as err:
                if steps % config.out_every:
                    emit(state)
                save_snapshot(out_dir / "snapshot_failed", grid, state.rho,
                              state.t, state.monitors)
                _write_failure(out_dir, err.diagnostic)
                raise
            if steps % config.out_every:
                emit(state)
        save_snapshot(out_dir / "snapshot_final", grid, state.rho, state.t,
                      state.monitors)
    reason = ("stationary"
              if state.monitors["residual_l2"] < config.tol_stationary
              else "time")
    return RunResult(reason=reason, state=state, steps=steps,
                     csv_path=csv_path)
