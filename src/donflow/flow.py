"""The Donaldson geometric flow on the flat four-torus.

The flow is the negative gradient flow of the conformal energy

    E(rho) = integral of 2 |rho+|^2 / (|rho+|^2 - |rho-|^2)

over symplectic forms in a fixed cohomology class, taken with respect to
the Donaldson metric (gauge-fixed potentials paired through the pointwise
rho-metric Hodge star).  The evolution equation is

    d rho / dt = d star_rho d Theta(rho),

which stays inside the class exactly because the update is exact.
Near the minimum the flow linearizes to -L, L the flat Laplacian on exact
2-forms, whose stiff spectrum grows like n^2.  Time stepping is
exponential time differencing (ETD; Cox & Matthews 2002, Hochbruck &
Ostermann 2010) with variable steps: -L is integrated exactly, through
real multipliers phi_k(-hL) in the real Fourier basis of each axis, and
N = F + L rho, the rest of the velocity, through its Newton interpolant
over the last three times, so a step costs one evaluation of the velocity
whatever n is and is sized for accuracy, not stability.  A run starts
with ETD1, then ETD2, growing the step by 1.1 from 0.2 / n^2; from the
third step on, ETD3's own third-order term sets the step against TOL =
1e-5 (absolute, flat L2 on rho), under the cap DT_ACCURACY = 0.015.  At
n = 8, seed 7, a run reaches stationarity in 51 steps (SBDF3 took 63) and
its residual decays at the spectral gap 4 pi^2 exactly.  A step is halved
and retried when it increases the energy excess, so energy monotonicity
is enforced, not hoped for; a run whose steps stay tiny stops as stalled
instead of spinning.  A looser TOL is no saving: at 1e-4, rho0 = omega1 +
0.2 omega1_ASD + d(0.02 lam) at n = 8 cycles at residual 0.12 with steps
of 1.3e-3, and the energy guard never trips.
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
    rejected: dict         # rejected attempts by reason, see REJECTIONS


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

def initial_data(grid, rng, epsilon=0.05, kmax=2, base=ext.OMEGA1):
    """rho0 = base + d(eps * lam), lam a random trigonometric 1-form and
    base the six components of a constant 2-form, omega1 by default.

    lam is normalized to sup norm 1; if the perturbed form dips below
    u = 0.5 anywhere, epsilon is halved (at most 20 times) and the same lam
    is reused, so the draw stays deterministic for a given seed.
    """
    lam = lat.random_trig_field(rng, kmax, ncomp=4)(grid)
    lam = lam / max(np.abs(lam).max(), 1e-300)
    base = grid.constant(base)
    for halvings in range(21):
        eps = float(epsilon) * 0.5 ** halvings
        rho = base + lat.d1(grid, eps * lam)
        if ext.u_of(rho).min() > 0.5:
            return rho
    raise DegenerateForm(
        f"initial data rejected down to epsilon = {eps:g}")


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

# the step-size cap: uncapped, the error test lets steps grow past 40 in a
# class with an anti-self-dual part, where runs then stall or stop at T
DT_ACCURACY = 0.015
TOL = 1e-5              # error per step of ETD3: flat L2, absolute in rho
MAX_RETRIES = 20        # retries of a step before it fails
STALL_DT = 1e-7         # a run whose accepted steps stay below STALL_DT
STALL_STEPS = 200       # for STALL_STEPS steps in a row has stalled
REJECTIONS = ("error_test", "energy_increase", "degenerate")


class History:
    """What an ETD step keeps of the accepted steps before it, for the
    divided differences of N = F + L rho, as spectra (see
    :func:`donflow.lattice.to_spectrum`):

    - ``p`` = L D^ - F^_n of the last step, D its increment and F_n its
      velocity, set by :meth:`record` and spent by :meth:`next_c1`;
    - ``c1``, the first divided difference that the last step used (None
      until the second step);
    - ``h`` and ``h_prev``, the last two accepted step sizes;
    - ``rejected``, the rejected attempts of the run by reason, one of
      ``REJECTIONS``.
    """

    def __init__(self):
        self.p = self.c1 = None
        self.h = self.h_prev = 0.0
        self.rejected = dict.fromkeys(REJECTIONS, 0)

    @property
    def order(self):
        """The order of the next step: 1 without a step before it, 2 after
        one, 3 from then on."""
        return 1 if self.p is None else 2 if self.c1 is None else 3

    def next_c1(self, fhat):
        """c1 = (F^ + p) / h of the next step, of velocity spectrum fhat, in
        p's memory, which the history gives up; None before the first step."""
        c1, self.p = self.p, None
        if c1 is not None:
            c1 += fhat
            c1 *= 1.0 / self.h
        return c1

    def record(self, grid, dhat, fhat, c1, h):
        """Record an accepted step h of increment spectrum dhat, velocity
        spectrum fhat and divided difference c1: p = L D^ - F^, in dhat."""
        dhat *= grid.laplace_symbol[..., None]
        self.p = np.subtract(dhat, fhat, out=dhat)
        self.c1, self.h, self.h_prev = c1, h, self.h


# phi_k(z) = sum_j z^j / (j + k)!, k = 1, 2, 3, to 20 terms: where |z| < 1
# the first term left out is below 1/21! < 1e-19
_PHI_SERIES = np.array([[1.0 / math.factorial(j + k) for k in (1, 2, 3)]
                        for j in range(20)])


def phi_functions(z):
    """phi_1, phi_2, phi_3 at the real values z <= 0 of a 1-d array, as
    the rows of a (3, len(z)) array: expm1(z) / z, then phi_{k+1} =
    (phi_k - 1/k!) / z, and the series where |z| < 1, on which those
    differences cancel (phi_3 loses a relative 1e-12 at z = -0.01)."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1.0
    out = np.empty((3, z.size))
    out[:, small] = (np.vander(z[small], len(_PHI_SERIES), increasing=True)
                     @ _PHI_SERIES).T
    zb = z[~small]
    phi = np.expm1(zb) / zb
    for k in range(3):
        out[k, ~small] = phi
        phi = (phi - 1.0 / math.factorial(k + 1)) / zb
    return out


def _step_factor(err):
    """The controller of order-3 steps: the next step over this one,
    0.9 (TOL / err)^(1/3) clipped to [0.2, 2]."""
    return 2.0 if err == 0 else min(max(0.9 * (TOL / err) ** (1 / 3), 0.2), 2.0)


def _increment(grid, order, fhat, c1, history, dt, work):
    """The spectrum of the increment D^ of an ETD step dt of the given
    order from the state whose velocity's spectrum is fhat, c1 the step's
    first divided difference (None at order 1), and its error estimate:
    (D^, err).  ``work`` is a spectrum-sized scratch buffer.

    D^ = w1 F^ + w2 c1 + w3 c2 with w1 = h phi_1, w2 = h^2 phi_2 and
    w3 = 2 h^3 phi_3 + h_{n-1} h^2 phi_2, each evaluated on the distinct
    values of the Laplace symbol (:func:`phi_functions`) and gathered, and
    c2 = (c1 - c1_prev) / (h_{n-1} + h_{n-2}); err is the flat L2 norm of
    w3 c2 (0 below order 3)."""
    levels, index = grid.laplace_levels
    h1, h2 = history.h, history.h_prev
    phi1, phi2, phi3 = phi_functions(-dt * levels)
    weights = [dt * phi1, dt * dt * phi2]
    if order == 3:
        weights.append((2 * dt ** 3 * phi3 + h1 * weights[1]) / (h1 + h2))
    weights = np.take(weights[:order], index, axis=1)[..., None]
    err = 0.0
    if order == 3:
        spec = np.subtract(c1, history.c1)
        spec *= weights[2]
        flat = spec.reshape(-1)
        err = math.sqrt(float(np.einsum("i,i->", flat, flat)) * grid.h ** 4)
        spec += np.multiply(fhat, weights[0], out=work)
    else:
        spec = np.multiply(fhat, weights[0])
    if order > 1:
        spec += np.multiply(c1, weights[1], out=work)
    return spec, err


def step(grid, state, velocity, coh0, history):
    """One accepted ETD step from state, whose velocity F_n at state.rho
    is given; ``history`` is the run's :class:`History`, which the step
    updates on acceptance and resets to its start on failure.

    With the flat Laplacian L and N = F + L rho, the increment of a step
    h integrates -L exactly and the Newton interpolant of N through the
    last three times (Cox & Matthews 2002):

        D = h phi_1 F_n + h^2 phi_2 c1 + (2 h^3 phi_3 + h_{n-1} h^2 phi_2) c2,

    each phi_k(-hL) a real multiplier on the real basis, and c1, c2 the
    divided differences of N (see :func:`_increment`): ETD1 on the first
    step (c1 = c2 = 0), ETD2 on the second (c2 = 0).  One forward
    transform of F_n per step and one inverse per attempt.  An order-3
    attempt whose error estimate is above TOL is shrunk by
    :func:`_step_factor` before any transform, and a candidate that is
    degenerate or increases the energy excess is halved.  The next step is
    the accepted one times 1.1 at orders 1 and 2 and times
    :func:`_step_factor` from order 3 on; every step is capped at
    DT_ACCURACY.  Returns the accepted state and its velocity (see
    :func:`accept`, which shares the candidate's Base with its energy: one
    Pfaffian per step).  Raises StepFailure after MAX_RETRIES retries.

    The new c1 (:meth:`History.next_c1`) overwrites the history's p, and
    on acceptance the new p (:meth:`History.record`) takes the memory of
    D^: the velocity is evaluated beside two spectra."""
    order = history.order
    scratch = np.empty(velocity.size)
    fhat = lat.to_spectrum(grid, velocity, scratch)
    work = scratch.reshape(fhat.shape)
    c1 = history.next_c1(fhat)
    dt, shrink = min(state.dt, DT_ACCURACY), 1.0
    last_error = "energy increased"
    for _ in range(MAX_RETRIES + 1):
        dt *= shrink
        spec, err = _increment(grid, order, fhat, c1, history, dt, work)
        if err > TOL:
            history.rejected["error_test"] += 1
            last_error = f"error {err:.3e} above TOL = {TOL:g}"
            shrink = _step_factor(err)
            continue
        cand = lat.from_spectrum(grid, spec, scratch, out=np.empty(spec.size))
        cand += state.rho
        try:
            b = ext.Base(cand)
        except DegenerateForm as exc:
            history.rejected["degenerate"] += 1
            last_error, shrink = str(exc), 0.5
            continue
        e_new = energy(grid, b)
        if e_new.excess <= state.excess:
            break
        history.rejected["energy_increase"] += 1
        last_error = f"energy increased by {e_new.excess - state.excess:.3e}"
        shrink = 0.5
    else:
        history.c1 = None
        raise StepFailure(
            f"no admissible step after {MAX_RETRIES} retries: {last_error}",
            diagnostic={
                "t": state.t,
                "dt": dt,
                "order": order,
                "error": last_error,
                "u_min": state.monitors["u_min"],
                "energy": state.monitors["energy"],
            })
    history.record(grid, spec, fhat, c1, dt)
    del scratch, work, fhat, spec
    grow = _step_factor(err) if order == 3 else 1.1
    return accept(grid, b, state.t + dt, min(dt * grow, DT_ACCURACY), e_new,
                  coh0)


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


def _stall(state, dt):
    """The StepFailure of a run whose last STALL_STEPS accepted steps, the
    last one dt, were all below STALL_DT."""
    residual = state.monitors["residual_l2"]
    return StepFailure(
        f"stalled at t = {state.t:g}: {STALL_STEPS} steps in a row below "
        f"{STALL_DT:g} (last {dt:.3e}) at residual {residual:.3e}",
        diagnostic={"t": state.t, "error": "stalled", "stall_dt": STALL_DT,
                    "stall_steps": STALL_STEPS, "dt": dt,
                    "residual_l2": residual})


def run(config, rho0=None):
    """Integrate the flow until stationarity or final time: the run stops
    at the first accepted step with residual_l2 < tol_stationary or t >= T,
    so a fixed-T run may end past T.

    Writes the monitor CSV and the initial/final snapshots into
    ``config.out_dir``.  A run whose accepted steps stay below STALL_DT
    for STALL_STEPS steps in a row stops with a StepFailure that names the
    stall.  On StepFailure the partial CSV, a failure snapshot and a
    diagnostic JSON (with the steps taken and the rejected attempts by
    reason, for a failure after t = 0) are flushed before the exception
    propagates; a ``rho0`` of the wrong shape or not closed fails at t = 0
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
            # a CFL-style start; the step then grows by 1.1
            state, velocity = accept(grid, b0, 0.0, 0.2 / config.n ** 2, e0,
                                     coh0)
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
        steps, history, stalled = 0, History(), 0
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
                    state, velocity = step(grid, state, velocity, coh0, history)
                    steps += 1
                    if steps % config.out_every == 0:
                        emit(state)
                    stalled = stalled + 1 if history.h < STALL_DT else 0
                    if stalled == STALL_STEPS:
                        raise _stall(state, history.h)
            except StepFailure as err:
                err.diagnostic.update(steps=steps, rejected=history.rejected)
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
                     csv_path=csv_path, rejected=history.rejected)
