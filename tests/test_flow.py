import csv
import decimal
import json
import math
import weakref

import numpy as np
import oracles
import pytest

from donflow import checks
from donflow import cli
from donflow import exterior as ext
from donflow import flow
from donflow import hyperkahler as hk
from donflow import lattice as lat
from donflow.checks import exact_direction, perturbed_omega1
from donflow.config import RunConfig
from donflow.exterior import DegenerateForm


def sgrid(n=8):
    return lat.Grid(n, "spectral")


def test_energy_values():
    g = sgrid(8)
    assert flow.energy(g, ext.Base(g.constant(ext.OMEGA1))) == pytest.approx(
        2.0, abs=1e-13)
    assert flow.energy(g, ext.Base(g.constant(0.7 * ext.OMEGA1))) == (
        pytest.approx(2.0, abs=1e-12))
    rho = g.constant([1.5, 0, 0, 0.5, 0, 0])
    assert flow.energy(g, ext.Base(rho)) == pytest.approx(8 / 3, abs=1e-12)


def test_energy_lower_bound(rng):
    g = sgrid(8)
    for eps in (0.1, 0.4, 0.7):
        rho = perturbed_omega1(g, lat.random_trig_field(rng, 2, 4), eps)
        e = flow.energy(g, ext.Base(rho))
        assert e >= 2.0 - 1e-12
        minus = ext.sd_split(rho)[1]
        if np.abs(minus).max() > 1e-12:
            assert e > 2.0


@pytest.mark.parametrize("call", [
    lambda rho, out: flow.energy(sgrid(4), ext.Base(rho)),
    lambda rho, out: flow.rhs(sgrid(4), ext.Base(rho)),
    lambda rho, out: ext.theta_point(ext.Base(rho)),
    lambda rho, out: ext.star_rho3(np.ones((4,) + rho.shape[1:]),
                                   ext.Base(rho)),
    lambda rho, out: hk.k_functions(ext.Base(rho)),
    lambda rho, out: ext.Base(rho),
    lambda rho, out: flow.run(RunConfig(n=4, T=1.0, out_dir=out), rho0=rho),
], ids=["energy", "rhs", "theta_point", "star_rho3", "k_functions", "Base",
        "run"])
def test_degenerate_reports_first_index(call, tmp_path):
    # u is checked where a Base is built, and by a run at t = 0; every
    # function of the twisted geometry takes a Base, so a degenerate rho
    # is reported before any of them runs
    g = sgrid(4)
    rho = g.constant(ext.OMEGA1)
    rho[:, 1, 2, 3, 0] = [1, 0, 0, -1, 0, 0]   # u = -1
    rho[:, 2, 0, 0, 1] = 0.0                   # u = 0, later in C order
    with pytest.raises(DegenerateForm, match=r"first index \(1, 2, 3, 0\)"):
        call(rho, str(tmp_path / "out"))


def test_one_pfaffian_per_base_point(tmp_path, monkeypatch, rng):
    # u is computed once per base point, when its Base is built: a run
    # computes one Pfaffian per energy, and a function handed a Base none
    pfaffian, calls = ext.pfaffian, []

    def counted(w):
        calls.append(None)
        return pfaffian(w)

    g = sgrid(8)
    rho0 = flow.initial_data(g, np.random.Generator(np.random.Philox(7)))
    rho = perturbed_omega1(g, lat.random_trig_field(rng, 2, 4), 0.2)
    mu, rh = exact_direction(g, lat.random_trig_field(rng, 2, 4), 0.3)
    energies = _count_calls(monkeypatch, "energy")
    monkeypatch.setattr(ext, "pfaffian", counted)
    cfg = RunConfig(n=8, T=0.1, seed=7, out_dir=str(tmp_path / "out"))
    assert flow.run(cfg, rho0=rho0).steps > 5
    assert len(calls) == len(energies)
    calls.clear()
    hk.grad_hk(g, ext.Base(rho))
    assert len(calls) == 1
    calls.clear()
    hk.hessiancov_check(g, ext.Base(rho), rh, mu)
    assert len(calls) == 1
    b = ext.Base(rho)
    calls.clear()
    lat.least_norm_potential(g, rh, b)
    assert calls == []


def test_rhs_vanishes_at_stationary_points(rng):
    g = sgrid(8)
    assert np.abs(flow.rhs(g, ext.Base(g.constant(ext.OMEGA1)))).max() == 0.0
    const = g.constant([1.2, 0.1, -0.3, 0.9, 0.2, 0.0])
    assert ext.u_of(const).min() > 0.5
    assert np.abs(flow.rhs(g, ext.Base(const))).max() < 1e-11


def test_rhs_linearization_at_minimum(rng):
    # rhs(omega1 + eps rh) ~ eps * d star d (-2 rh_minus) to O(eps^2)
    g = sgrid(8)
    _, rh = exact_direction(g, lat.random_trig_field(rng, 2, 4), 0.5)
    minus = ext.sd_split(rh)[1]
    lin = lat.d1(g, ext.star3_flat(lat.d2(g, -2.0 * minus)))
    for eps in (1e-4, 5e-5):
        r = flow.rhs(g, ext.Base(g.constant(ext.OMEGA1) + eps * rh)) / eps
        err = lat.l2_norm(g, r - lin)
        assert err < 10 * eps * lat.l2_norm(g, lin)


def test_first_variation_vanishes_at_minimum(rng):
    g = sgrid(8)
    _, rh = exact_direction(g, lat.random_trig_field(rng, 2, 4), 0.5)
    val = flow.first_variation(g, ext.Base(g.constant(ext.OMEGA1)), rh)
    assert abs(val) < 1e-12


def test_first_variation_matches_energy_differences(rng):
    g = sgrid(8)
    rho = perturbed_omega1(g, lat.random_trig_field(rng, 2, 4), 0.3)
    _, rh = exact_direction(g, lat.random_trig_field(rng, 2, 4), 0.3)
    val = flow.first_variation(g, ext.Base(rho), rh)

    def fd(t):
        return (flow.energy(g, ext.Base(rho + t * rh))
                - flow.energy(g, ext.Base(rho - t * rh))) / (2 * t)

    e1, e2 = abs(fd(1e-3) - val), abs(fd(5e-4) - val)
    assert e1 < 1e-5 * max(1.0, abs(val))
    assert 3.0 < e1 / e2 < 5.0


def test_donaldson_norm_values(rng):
    g = sgrid(8)
    omega = ext.Base(g.constant(ext.OMEGA1))
    zero = g.zeros(2)
    assert flow.donaldson_pairing(g, zero, zero, omega) == 0.0
    x0 = oracles.coords(g)[0] + np.zeros(g.shape)
    mu = g.zeros(1)
    mu[1] = np.sin(2 * np.pi * x0)
    rh = lat.d1(g, mu)
    assert flow.donaldson_pairing(g, rh, rh, omega) == pytest.approx(0.5, abs=1e-9)
    _, rh2 = exact_direction(g, lat.random_trig_field(rng, 2, 4), 0.5)
    assert flow.donaldson_pairing(g, rh2, rh2, omega) > 0


def test_gradient_metric_consistency(rng):
    g = sgrid(8)
    for _ in range(5):
        b = ext.Base(
            perturbed_omega1(g, lat.random_trig_field(rng, 2, 4), 0.25))
        _, rh = exact_direction(g, lat.random_trig_field(rng, 2, 4), 0.4)
        lhs = flow.first_variation(g, b, rh)
        rhs_val = flow.donaldson_pairing(g, rh, flow.rhs(g, b), b)
        assert lhs == pytest.approx(-rhs_val, rel=1e-6, abs=1e-10)


def test_energy_decay_rate_is_gradient_norm(rng):
    g = sgrid(8)
    b = ext.Base(perturbed_omega1(g, lat.random_trig_field(rng, 2, 4), 0.3))
    r = flow.rhs(g, b)
    de = flow.first_variation(g, b, r)
    assert de <= 0
    assert de == pytest.approx(-flow.donaldson_pairing(g, r, r, b), rel=1e-6)


def test_donaldson_metric_builds_no_metric_matrices(rng, monkeypatch):
    g = sgrid(8)
    b = ext.Base(perturbed_omega1(g, lat.random_trig_field(rng, 2, 4), 0.3))
    _, rh1 = exact_direction(g, lat.random_trig_field(rng, 2, 4), 0.4)
    _, rh2 = exact_direction(g, lat.random_trig_field(rng, 2, 4), 0.4)

    def forbidden(*args, **kwargs):
        raise AssertionError("4x4 metric matrix built")

    monkeypatch.setattr(ext, "g_rho", forbidden)
    monkeypatch.setattr(ext, "lu4", forbidden)
    assert flow.donaldson_pairing(g, rh1, rh1, b) > 0
    assert math.isfinite(flow.donaldson_pairing(g, rh1, rh2, b))


def test_hessian_at_minimum_worked_value():
    g = sgrid(8)
    omega = ext.Base(g.constant(ext.OMEGA1))
    assert flow.hessian_form(g, omega, g.zeros(2)) == 0.0
    x0 = oracles.coords(g)[0] + np.zeros(g.shape)
    mu = g.zeros(1)
    mu[1] = np.sin(2 * np.pi * x0)
    rh = lat.d1(g, mu)
    assert flow.hessian_form(g, omega, rh) == pytest.approx(2 * np.pi ** 2, rel=1e-12)
    flat = lat.integrate(g, ext.norm2_sq(rh))
    assert flow.hessian_form(g, omega, rh) == pytest.approx(flat, rel=1e-12)
    # equivalent forms: 2 int |rh_minus|^2, with int rh ^ rh = 0 for exact rh
    minus = ext.sd_split(rh)[1]
    assert flow.hessian_form(g, omega, rh) == pytest.approx(
        2 * lat.integrate(g, ext.norm2_sq(minus)), rel=1e-12)
    assert abs(lat.integrate(g, ext.wedge22(rh, rh))) < 1e-12


def test_hessian_matches_first_variation_differences(rng):
    g = sgrid(8)
    rho = perturbed_omega1(g, lat.random_trig_field(rng, 2, 4), 0.2)
    _, rh = exact_direction(g, lat.random_trig_field(rng, 2, 4), 0.3)
    val = flow.hessian_form(g, ext.Base(rho), rh)

    def fd(t):
        return (flow.first_variation(g, ext.Base(rho + t * rh), rh)
                - flow.first_variation(g, ext.Base(rho - t * rh), rh)) / (2 * t)

    e1, e2 = abs(fd(1e-3) - val), abs(fd(5e-4) - val)
    assert e1 < 1e-4 * max(1.0, abs(val))
    assert 3.0 < e1 / e2 < 5.0


def test_hessian_polarization_symmetric(rng):
    g = sgrid(8)
    base = ext.Base(
        perturbed_omega1(g, lat.random_trig_field(rng, 2, 4), 0.2))
    _, a = exact_direction(g, lat.random_trig_field(rng, 2, 4), 0.3)
    _, b = exact_direction(g, lat.random_trig_field(rng, 2, 4), 0.3)
    bil_ab = lat.integrate(g, ext.wedge22(ext.theta_dot_point(base, a), b))
    bil_ba = lat.integrate(g, ext.wedge22(ext.theta_dot_point(base, b), a))
    scale = abs(bil_ab) + abs(bil_ba) + 1.0
    assert abs(bil_ab - bil_ba) < 1e-10 * scale


def _l1_report(grid, rho):
    return flow.l1_report(grid, rho, flow.energy(grid, ext.Base(rho)), 0.0,
                          lat.cohomology(grid, rho))


def test_l1_report_equality_cases(rng):
    g = sgrid(8)
    omega = g.constant(ext.OMEGA1)
    l1, bound = _l1_report(g, omega)
    assert l1 == pytest.approx(math.sqrt(2), rel=1e-12)
    assert bound == pytest.approx(math.sqrt(2), rel=1e-12)
    l1, bound = _l1_report(g, g.constant(3.0 * ext.OMEGA1))
    assert l1 == pytest.approx(bound, rel=1e-12)
    rho = g.constant([1.5, 0, 0, 0.5, 0, 0])
    l1, bound = _l1_report(g, rho)
    # c = int rho ^ rho = 1.5 and E = 8/3, so the bound sqrt(1.5 * 5/3) is
    # attained: constant fields always sit on the Cauchy-Schwarz equality
    assert l1 == pytest.approx(math.sqrt(2.5), rel=1e-12)
    assert bound == pytest.approx(math.sqrt(2.5), rel=1e-12)
    pert = perturbed_omega1(g, lat.random_trig_field(rng, 2, 4), 0.4)
    l1, bound = _l1_report(g, pert)
    assert l1 <= bound + 1e-10
    assert l1 < bound


@pytest.mark.parametrize("scheme", ["spectral", "fd2"])
def test_l1_bound_reads_the_class_invariant(rng, scheme):
    # the exact part of rho wedges to an integral of zero, so the c of the
    # bound, read from the class, is the lattice integral of rho ^ rho
    g = lat.Grid(8, scheme)
    pert = perturbed_omega1(g, lat.random_trig_field(rng, 2, 4), 0.4)
    coh = lat.cohomology(g, pert)
    c = lat.integrate(g, ext.wedge22(pert, pert))
    assert float(ext.wedge22(coh, coh)) == pytest.approx(c, rel=1e-14)


def _state(grid, rho, dt):
    coh0 = lat.cohomology(grid, rho)
    b = ext.Base(rho)
    st, velocity = flow.accept(grid, b, 0.0, dt, flow.energy(grid, b), coh0)
    return st, velocity, coh0


def _count_calls(monkeypatch, name):
    """Count the calls of flow.<name>, as every caller in flow sees it."""
    calls = []
    fn = getattr(flow, name)

    def counted(grid, b):
        calls.append(b)
        return fn(grid, b)

    monkeypatch.setattr(flow, name, counted)
    return calls


def test_step_reuses_the_accepted_velocity(monkeypatch):
    g = sgrid(8)
    rho0 = flow.initial_data(g, np.random.Generator(np.random.Philox(5)))
    dt = flow.DT_ACCURACY
    st, v, coh0 = _state(g, rho0, dt)
    calls = _count_calls(monkeypatch, "rhs")
    energies = _count_calls(monkeypatch, "energy")
    history = flow.History()
    new, new_v = flow.step(g, st, v, coh0, dt_max=dt, history=history)
    # one rhs: the velocity at the accepted field
    assert len(calls) == 1
    assert len(energies) == 1
    assert calls[-1].rho is new.rho
    assert lat.l2_norm(g, new_v) == new.monitors["residual_l2"]

    # the first candidate reads as an energy increase, so it is rejected;
    # the rejected attempt evaluates no rhs, and the retry at dt / 2 starts
    # from the same velocity and history
    energy = flow.energy
    verdicts = []

    def guard(grid, b):
        e = energy(grid, b)
        return verdicts.pop() if verdicts else e

    monkeypatch.setattr(flow, "energy", guard)
    for start, velocity, hist in ((st, v, flow.History()),
                                  (new, new_v, history)):
        calls.clear()
        energies.clear()
        verdicts.append(flow.Energy(math.inf))
        retried, _ = flow.step(g, start, velocity, coh0, dt_max=dt,
                               history=hist)
        assert len(calls) == 1
        assert len(energies) == 2
        assert retried.t - start.t == 0.5 * min(start.dt, dt)
        assert hist.rejected == {"error_test": 0, "energy_increase": 1,
                                 "degenerate": 0}


def test_step_makes_no_transforms(monkeypatch):
    # the exponential multipliers of ETD1, ETD2 and ETD3 are gemms in the
    # real Fourier basis; rhs, energy and the monitors make no transform
    # either
    g = sgrid(8)
    rho0 = flow.initial_data(g, np.random.Generator(np.random.Philox(5)))
    st, v, coh0 = _state(g, rho0, flow.DT_ACCURACY)
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn",
                 "irfftn"):
        monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name)))
    history = flow.History()
    for _ in range(3):
        st, v = flow.step(g, st, v, coh0, flow.DT_ACCURACY, history)
        flow.rhs(g, ext.Base(st.rho))
    assert history.order == 3
    assert calls == []


def _wrap_every_function(monkeypatch, module, calls):
    """Make each function of ``module`` append its name to ``calls``."""
    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in module.__all__:
        fn = getattr(module, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(module, name, counting(name, fn))


def _run_and_check(tmp_path, samples):
    cfg = RunConfig(n=4, T=0.02, out_dir=str(tmp_path / "out"))
    assert flow.run(cfg).steps > 0
    _, passed = checks.run_suites(["all"], 0, samples)
    assert passed


def test_package_makes_no_transforms(monkeypatch, tmp_path):
    # on fresh grids, a run and every check suite call no numpy.fft entry
    # point, set-up included
    calls = []
    _wrap_every_function(monkeypatch, np.fft, calls)
    _run_and_check(tmp_path, 20)
    assert calls == []


def test_package_makes_no_linalg_calls(monkeypatch, tmp_path):
    # nor any numpy.linalg function: every 4x4 factorization is
    # exterior.lu4, and the real Fourier basis normalizes its own rows
    calls = []
    _wrap_every_function(monkeypatch, np.linalg, calls)
    _run_and_check(tmp_path, 200)
    assert calls == []


def test_step_frees_the_old_history_before_the_velocity(monkeypatch):
    # the new c1 is computed in the memory of the history's p, and on
    # acceptance the new p takes the memory of the increment's spectrum:
    # when the new velocity is evaluated, the old c1, the spectrum of F_n
    # and the transform's scratch are gone, and the history holds two
    # spectra, p's old memory among them
    g = sgrid(8)
    rho0 = flow.initial_data(g, np.random.Generator(np.random.Philox(5)))
    st, v, coh0 = _state(g, rho0, flow.DT_ACCURACY)
    history = flow.History()
    for _ in range(2):
        st, v = flow.step(g, st, v, coh0, flow.DT_ACCURACY, history)
    assert history.order == 3
    old_p, old_c1 = history.p, weakref.ref(history.c1)
    to_spectrum, from_spectrum, buffers = lat.to_spectrum, lat.from_spectrum, []

    def forward(grid, f, scratch=None):
        buffers.append(weakref.ref(scratch))
        out = to_spectrum(grid, f, scratch)
        buffers.append(weakref.ref(out))
        return out

    def inverse(grid, spec, scratch=None, out=None):
        buffers.append(weakref.ref(spec))
        return from_spectrum(grid, spec, scratch, out)

    rhs, seen = flow.rhs, []

    def probe(grid, b):
        scratch, fhat, spec = (ref() for ref in buffers)
        seen.append((old_c1() is None, scratch is None, fhat is None,
                     history.c1 is old_p, history.p is spec))
        return rhs(grid, b)

    monkeypatch.setattr(lat, "to_spectrum", forward)
    monkeypatch.setattr(lat, "from_spectrum", inverse)
    monkeypatch.setattr(flow, "rhs", probe)
    st, v = flow.step(g, st, v, coh0, flow.DT_ACCURACY, history)
    assert seen == [(True, True, True, True, True)]
    assert history.p.shape == history.c1.shape == g.shape + (6,)


@pytest.mark.parametrize("ratio", [0.25, 0.5, 1.0, 3.0])
def test_step_follows_the_etd_recurrence(monkeypatch, ratio):
    # one Fourier mode y cos(2 pi x0) on omega2 over omega1 with
    # F = -lambda y, lambda = ratio * L for the mode's Laplace symbol L:
    # the amplitudes follow the scalar ETD1/ETD2/ETD3 recurrence, the
    # third order from the third step on, through step ratios w = 1.1,
    # 1.1, 0.5, 1.5 and 1; at ratio 1, where N = 0, they are the exact
    # decay y0 e^{-L t}.  The steps are given, so the error test is off;
    # the perturbation is self-dual, so the excess stays 0 and no step is
    # rejected.  A self-dual mode is not closed (closed and self-dual is
    # constant), so the field leaves its class and its integral of
    # rho ^ rho is not the class's: the monitors, whose L1 bound reads that
    # integral from the class, do not apply to it
    g = sgrid(4)
    lap = (2 * np.pi) ** 2
    lam = ratio * lap
    base = g.constant(ext.OMEGA1)
    mode = (np.cos(2 * np.pi * oracles.coords(g)[0])
            * ext.OMEGA2.reshape(6, 1, 1, 1, 1))
    mode = mode + np.zeros((6,) + g.shape)
    monkeypatch.setattr(flow, "rhs", lambda grid, b: -lam * (b.rho - base))
    monkeypatch.setattr(flow, "monitors", lambda grid, b, e, velocity, coh0,
                        t: {"energy": e})
    monkeypatch.setattr(flow, "TOL", math.inf)
    hs = [0.01, 0.011, 0.0121, 0.00605, 0.009075, 0.009075]
    y0 = 0.1
    st, v, coh0 = _state(g, base + y0 * mode, hs[0])
    history = flow.History()
    for h, want in zip(hs, oracles.etd_amplitudes(lam, lap, hs, y0)):
        st.dt = h
        t = st.t
        st, v = flow.step(g, st, v, coh0, dt_max=h, history=history)
        assert st.t == t + h
        assert st.excess == 0.0
        assert np.abs(st.rho - base - want * mode).max() <= 1e-14 * y0
        if ratio == 1.0:
            assert want == pytest.approx(y0 * math.exp(-lap * st.t),
                                         rel=1e-14)
    assert history.rejected == dict.fromkeys(flow.REJECTIONS, 0)


def test_step_is_stationary_at_minimum():
    g = sgrid(8)
    st, v, coh0 = _state(g, g.constant(ext.OMEGA1), dt=0.2 / 64)
    history = flow.History()
    new, new_v = flow.step(g, st, v, coh0, dt_max=0.2 / 64, history=history)
    assert np.array_equal(new.rho, st.rho)
    again, _ = flow.step(g, new, new_v, coh0, dt_max=0.2 / 64,
                         history=history)
    assert np.array_equal(again.rho, st.rho)
    assert new.monitors["energy"] == pytest.approx(2.0, abs=1e-13)


def test_step_decreases_energy(rng):
    g = sgrid(8)
    rng2 = np.random.Generator(np.random.Philox(5))
    rho0 = flow.initial_data(g, rng2, epsilon=0.05, kmax=2)
    st, v, coh0 = _state(g, rho0, dt=0.2 / 64)
    energies = [st.monitors["energy"]]
    history = flow.History()
    for _ in range(10):
        st, v = flow.step(g, st, v, coh0, dt_max=0.2 / 64, history=history)
        energies.append(st.monitors["energy"])
        assert np.abs(lat.cohomology(g, st.rho) - coh0).max() < 1e-12
    diffs = np.diff(energies)
    assert np.all(diffs <= 0)
    assert energies[-1] < energies[0]


def test_step_survives_huge_dt():
    # the implicit Laplacian makes every step size stable on the linear
    # part: steps of dt = 1 from the initial data keep the excess monotone
    g = sgrid(8)
    rng2 = np.random.Generator(np.random.Philox(6))
    rho0 = flow.initial_data(g, rng2, epsilon=0.05, kmax=2)
    st, v, coh0 = _state(g, rho0, dt=1.0)
    history = flow.History()
    for _ in range(3):
        new, v = flow.step(g, st, v, coh0, dt_max=1.0, history=history)
        assert 0 < new.t - st.t <= 1.0
        assert new.excess <= st.excess
        assert new.monitors["energy"] <= st.monitors["energy"]
        assert np.abs(lat.cohomology(g, new.rho) - coh0).max() < 1e-12
        st = new


def test_step_failure_near_degenerate(monkeypatch):
    g = sgrid(8)
    x0 = oracles.coords(g)[0] + np.zeros(g.shape)
    mu = g.zeros(1)
    mu[1] = np.sin(2 * np.pi * x0)
    rho = g.constant(ext.OMEGA1) + lat.d1(g, mu) * 0.9999 / (2 * np.pi)
    u = ext.u_of(rho)
    assert 0 < u.min() < 2e-4
    st, v, coh0 = _state(g, rho, dt=0.2 / 64)
    monkeypatch.setattr(flow, "MAX_RETRIES", 8)
    history = flow.History()
    with pytest.raises(flow.StepFailure) as err:
        flow.step(g, st, v, coh0, dt_max=0.2 / 64, history=history)
    assert history.rejected["degenerate"] + history.rejected[
        "energy_increase"] == 9
    assert err.value.diagnostic["t"] == 0.0


def test_step_failure_reports_the_order(monkeypatch):
    # the diagnostic names the order of the scheme and the size of the
    # last attempt: order 1 without a step before it, 2 after one, 3 after
    # two; the failed step has spent the history's fields, so the history
    # starts over at order 1
    g = sgrid(8)
    rho0 = flow.initial_data(g, np.random.Generator(np.random.Philox(5)))
    energy = flow.energy
    monkeypatch.setattr(flow, "MAX_RETRIES", 2)
    orders = []
    for before in range(3):
        st, v, coh0 = _state(g, rho0, flow.DT_ACCURACY)
        history = flow.History()
        for _ in range(before):
            st, v = flow.step(g, st, v, coh0, flow.DT_ACCURACY, history)
        monkeypatch.setattr(flow, "energy",
                            lambda grid, b: flow.Energy(math.inf))
        with pytest.raises(flow.StepFailure) as err:
            flow.step(g, st, v, coh0, flow.DT_ACCURACY, history)
        monkeypatch.setattr(flow, "energy", energy)
        orders.append(err.value.diagnostic["order"])
        assert history.order == 1
        if before < 2:      # no error test: the last attempt, halved twice
            assert err.value.diagnostic["dt"] == min(
                st.dt, flow.DT_ACCURACY) * 0.25
    assert orders == [1, 2, 3]


def _phi_reference(z, k):
    """phi_k(z) = sum_j z^j / (j + k)! in 60-digit decimal arithmetic: the
    series for |z| <= 40 (its terms below 1e-40 of the first), else
    expm1(z) / z and phi_{i+1} = (phi_i - 1/i!) / z, whose cancellations
    the 60 digits absorb."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        x = decimal.Decimal(z)
        if abs(z) <= 40:
            total, term, j = decimal.Decimal(0), 1 / decimal.Decimal(
                math.factorial(k)), 0
            while term != 0 and abs(term) > decimal.Decimal("1e-45"):
                total += term
                j += 1
                term = term * x / (j + k)
            return float(total)
        phi = (x.exp() - 1) / x
        for i in range(1, k):
            phi = (phi - 1 / decimal.Decimal(math.factorial(i))) / x
        return float(phi)


def test_phi_functions_match_the_series():
    # the series below |z| = 1, expm1 and the recurrence above it, each
    # within a few ulp of the series: at z = 0 exactly 1/k!, and at the
    # switch, where the recurrence would cancel most in phi_3
    z = -np.concatenate([[0.0, 1e-300, 1e-12, 1e-6, 1e-3, 0.1, 0.5],
                         np.nextafter(1.0, 0.0) * np.ones(1), [1.0, 1.5, 3.0],
                         [10.0, 39.5, 1e3, 1e5, 1e12]])
    phis = flow.phi_functions(z)
    assert phis.shape == (3, z.size)
    for k in (1, 2, 3):
        want = np.array([_phi_reference(x, k) for x in z])
        assert np.abs(phis[k - 1] - want).max() <= 4e-16 * want.max()
        assert np.all(np.abs(phis[k - 1] - want) <= 2e-15 * want), k
        assert phis[k - 1][0] == 1.0 / math.factorial(k)


def test_error_rejection_costs_no_transform_and_no_energy(monkeypatch):
    # a third-order attempt whose c2 term is above TOL is shrunk by the
    # controller before any inverse transform or energy, and counted under
    # its reason; the accepted step is dt times the factors
    g = sgrid(8)
    rho0 = flow.initial_data(g, np.random.Generator(np.random.Philox(5)))
    st, v, coh0 = _state(g, rho0, flow.DT_ACCURACY)
    history = flow.History()
    for _ in range(2):
        st, v = flow.step(g, st, v, coh0, flow.DT_ACCURACY, history)
    energies = _count_calls(monkeypatch, "energy")
    inverse, factors = [], []
    from_spectrum, step_factor = lat.from_spectrum, flow._step_factor

    def counted(*args, **kwargs):
        inverse.append(None)
        return from_spectrum(*args, **kwargs)

    def recorded(err):
        factors.append(step_factor(err))
        return factors[-1]

    monkeypatch.setattr(lat, "from_spectrum", counted)
    monkeypatch.setattr(flow, "_step_factor", recorded)
    st.dt = 1.0
    new, _ = flow.step(g, st, v, coh0, 1.0, history)
    rejected = history.rejected["error_test"]
    assert rejected >= 1
    assert history.rejected["energy_increase"] == 0
    assert len(inverse) == len(energies) == 1
    # the factors of the rejections, then that of the accepted step
    assert len(factors) == rejected + 1
    assert all(f < 0.9 for f in factors[:-1])
    taken = math.prod(factors[:-1])
    assert new.t - st.t == pytest.approx(taken, rel=1e-12)
    assert new.dt == min(taken * factors[-1], 1.0)


def test_run_stops_a_stall(tmp_path, monkeypatch):
    # rho0 = omega1 + 0.2 omega1_ASD + d(0.02 lam), lam the seed-7
    # potential of initial_data: the energy guard compares round-off in
    # the excess of this class, and the steps collapse below 1e-10 near
    # t = 0.6 at a residual above tol_stationary.  The stall stop ends the
    # run well inside a budget of 1000 steps, with a diagnostic naming it
    step, calls = flow.step, []

    def budgeted(*args, **kwargs):
        calls.append(None)
        assert len(calls) <= 1000, "no stop within 1000 steps"
        return step(*args, **kwargs)

    monkeypatch.setattr(flow, "step", budgeted)
    g = sgrid(8)
    rng = np.random.Generator(np.random.Philox(7))
    rho0 = flow.initial_data(g, rng, 0.02, 2,
                             base=ext.OMEGA1 + 0.2 * ext.OMEGA1_ASD)
    out = tmp_path / "out"
    cfg = RunConfig(n=8, T=50.0, tol_stationary=1e-8, seed=7, epsilon=0.02,
                    out_every=10, out_dir=str(out))
    with pytest.raises(flow.StepFailure, match="stalled"):
        flow.run(cfg, rho0=rho0)
    diag = json.loads((out / "failure.json").read_text())
    assert diag["error"] == "stalled"
    assert diag["stall_dt"] == flow.STALL_DT
    assert diag["stall_steps"] == flow.STALL_STEPS
    assert 0 < diag["dt"] < flow.STALL_DT
    assert diag["residual_l2"] > cfg.tol_stationary
    assert diag["steps"] == len(calls)
    assert (out / "snapshot_failed.json").exists()


def test_run_fd2_scheme(tmp_path):
    cfg = RunConfig(n=8, scheme="fd2", T=0.05, epsilon=0.05, seed=11,
                    out_every=5, out_dir=str(tmp_path / "fd2"))
    res = flow.run(cfg)
    rows = list(csv.DictReader(open(res.csv_path)))
    energies = [float(r["energy"]) for r in rows]
    assert all(b <= a for a, b in zip(energies, energies[1:]))
    assert max(float(r["coh_drift_max"]) for r in rows) < 1e-15


def test_run_stationary_immediately(tmp_path):
    cfg = RunConfig(n=8, T=1.0, out_dir=str(tmp_path / "out"))
    g = lat.Grid(8)
    res = flow.run(cfg, rho0=g.constant(ext.OMEGA1))
    assert res.reason == "stationary"
    assert res.steps == 0
    rows = list(csv.DictReader(open(res.csv_path)))
    assert len(rows) == 1
    assert float(rows[0]["energy"]) == pytest.approx(2.0, abs=1e-13)
    assert (tmp_path / "out" / "snapshot_final.json").exists()


def test_run_short_flow_monotone(tmp_path):
    cfg = RunConfig(n=8, T=0.02, epsilon=0.05, kmax=2, seed=3, out_every=2,
                    out_dir=str(tmp_path / "out"))
    res = flow.run(cfg)
    assert res.reason in ("time", "stationary")
    rows = list(csv.DictReader(open(res.csv_path)))
    energies = [float(r["energy"]) for r in rows]
    assert all(b <= a + 1e-14 for a, b in zip(energies, energies[1:]))
    assert max(float(r["coh_drift_max"]) for r in rows) < 1e-12
    for r in rows:
        for k, v in r.items():
            assert math.isfinite(float(v)), (k, v)


def test_run_computes_the_class_once_per_written_row(tmp_path, monkeypatch):
    # coh_drift_max is only recorded: a run computes the class once for
    # coh0 and once per CSV row after the first, whose drift is exactly 0.
    # 19 steps with a row every fourth write rows at steps 0, 4, 8, 12, 16
    # and 19; the flat form is stationary at once and writes one
    calls = []
    cohomology = lat.cohomology

    def counted(grid, rho):
        calls.append(rho)
        return cohomology(grid, rho)

    monkeypatch.setattr(lat, "cohomology", counted)
    g = sgrid(8)
    rho0 = flow.initial_data(g, np.random.Generator(np.random.Philox(3)))
    n_rows = []
    for name, out_every, start in [("short", 4, rho0),
                                   ("flat", 1, g.constant(ext.OMEGA1))]:
        cfg = RunConfig(n=8, T=0.02, out_every=out_every,
                        out_dir=str(tmp_path / name))
        calls.clear()
        res = flow.run(cfg, rho0=start)
        rows = list(csv.DictReader(open(res.csv_path)))
        n_rows.append(len(rows))
        assert len(calls) == 1 + (len(rows) - 1)
        assert float(rows[0]["coh_drift_max"]) == 0.0
        coh0 = cohomology(g, start)
        drift = float(np.abs(cohomology(g, res.state.rho) - coh0).max())
        assert float(rows[-1]["coh_drift_max"]) == drift
        header = json.loads((tmp_path / name / "snapshot_final.json").read_text())
        assert header["monitors"]["coh_drift_max"] == drift
    assert n_rows == [6, 1]


def test_run_costs_one_rhs_and_one_energy_per_step(tmp_path, monkeypatch):
    rhs_calls = _count_calls(monkeypatch, "rhs")
    energy_calls = _count_calls(monkeypatch, "energy")
    cfg = RunConfig(n=8, T=0.1, epsilon=0.05, kmax=2, seed=3, out_every=1,
                    out_dir=str(tmp_path / "out"))
    res = flow.run(cfg)
    assert res.steps > 5
    # one rhs and one energy per accepted step, plus one of each for the
    # initial state: the run's only rejections are error tests, which
    # evaluate neither.  The dt column is the next step's size: 1.1 times
    # each of the first two steps, then the step times the controller's
    # factor in [0.2, 2], up to the cap; a step is the dt of the row
    # before it unless the error test shrank it
    assert res.rejected["error_test"] > 0
    assert res.rejected["energy_increase"] == res.rejected["degenerate"] == 0
    rows = list(csv.DictReader(open(res.csv_path)))
    ts, dts = (np.array([float(r[key]) for r in rows]) for key in ("t", "dt"))
    taken = np.diff(ts)
    assert dts[1:3] == pytest.approx(np.minimum(taken[:2] * 1.1,
                                                flow.DT_ACCURACY), rel=1e-12)
    cap = np.minimum(2 * taken[2:], flow.DT_ACCURACY)
    assert np.all(dts[3:] >= 0.2 * taken[2:] * (1 - 1e-12))
    assert np.all(dts[3:] <= cap * (1 + 1e-12))
    shrunk = taken < dts[:-1] * (1 - 1e-12)
    assert np.all(taken <= dts[:-1] * (1 + 1e-12))
    assert 1 <= np.count_nonzero(shrunk) <= res.rejected["error_test"]
    assert len(rhs_calls) == res.steps + 1
    assert len(energy_calls) == res.steps + 1


def test_run_reaches_stationarity_on_seed_28(tmp_path, monkeypatch):
    # the acceptance configuration on seed 28: when the energy was summed as
    # |rho+|^2/u, the guard rejected round-off increases near E = 2 and dt
    # collapsed to 1e-10 at t = 0.2956; a budget keeps that failure finite
    step, calls = flow.step, []

    def budgeted(*args, **kwargs):
        calls.append(None)
        assert len(calls) <= 1000, "no stationarity within 1000 steps"
        return step(*args, **kwargs)

    monkeypatch.setattr(flow, "step", budgeted)
    cfg = RunConfig(n=8, scheme="spectral", T=50.0, tol_stationary=1e-8,
                    seed=28, epsilon=0.05, kmax=2, out_every=10,
                    out_dir=str(tmp_path / "out"))
    assert flow.run(cfg).reason == "stationary"


@pytest.mark.parametrize("seed", [7, 28])
def test_run_reaches_stationarity_above_the_dt_bound(tmp_path, monkeypatch, seed):
    # a cap of 2.2e-3 was 12% above the stability bound of the RK4 stepper
    # this one replaced: when the guard compared the energies 2 + excess,
    # quantized at ulp(2), that run spun for thousands of steps with the
    # energy at 2.0; comparing the excess rejected the unstable steps
    step, calls = flow.step, []

    def budgeted(*args, **kwargs):
        calls.append(None)
        assert len(calls) <= 1500, "no stationarity within 1500 steps"
        return step(*args, **kwargs)

    monkeypatch.setattr(flow, "step", budgeted)
    monkeypatch.setattr(flow, "DT_ACCURACY", 2.2e-3)
    cfg = RunConfig(n=8, scheme="spectral", T=50.0, tol_stationary=1e-8,
                    seed=seed, epsilon=0.05, kmax=2, out_every=10,
                    out_dir=str(tmp_path / "out"))
    assert flow.run(cfg).reason == "stationary"


def test_run_flush_on_failure(tmp_path):
    g = lat.Grid(8)
    x0 = oracles.coords(g)[0] + np.zeros(g.shape)
    mu = g.zeros(1)
    mu[1] = np.sin(2 * np.pi * x0)
    rho0 = g.constant(ext.OMEGA1) + lat.d1(g, mu) * 0.9999 / (2 * np.pi)
    cfg = RunConfig(n=8, T=1.0, out_dir=str(tmp_path / "out"))
    with pytest.raises(flow.StepFailure):
        flow.run(cfg, rho0=rho0)
    out = tmp_path / "out"
    assert (out / "failure.json").exists()
    assert (out / "snapshot_failed.json").exists()
    rows = list(csv.DictReader(open(out / "monitors.csv")))
    assert rows, "partial CSV must be flushed"
    for r in rows:
        assert all(math.isfinite(float(v)) for v in r.values())
    assert not (out / ".lock").exists()


def test_run_rejects_a_rho0_that_is_not_closed(tmp_path, monkeypatch, capsys):
    # omega1 + 0.1 cos(2 pi x0) omega2 has d = 0.2 pi sin(2 pi x0) times a
    # 3-form; its integral of rho ^ rho is not the class's, so the L1 bound
    # read from the class would stop the run with a misleading violation
    def not_closed(grid):
        x0 = oracles.coords(grid)[0] + np.zeros(grid.shape)
        return grid.constant(ext.OMEGA1) + 0.1 * np.cos(2 * np.pi * x0) * (
            grid.constant(ext.OMEGA2))

    g = lat.Grid(4)
    cfg = RunConfig(n=4, T=1.0, out_dir=str(tmp_path / "out"))
    with pytest.raises(flow.StepFailure, match="rho0 is not closed"):
        flow.run(cfg, rho0=not_closed(g))
    diag = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert diag["t"] == 0.0
    assert diag["d_rho_max"] == pytest.approx(0.2 * np.pi, rel=1e-12)
    assert diag["d_rho_bound"] == pytest.approx(4e-10, rel=1e-12)  # n max|rho0|
    # the same field from the command line is a step failure, exit code 2
    monkeypatch.setattr(flow, "initial_data", lambda grid, *a: not_closed(grid))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"n": 4, "out_dir": str(tmp_path / "cli")}))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert "rho0 is not closed" in capsys.readouterr().err


@pytest.mark.parametrize("shape", [(6, 8, 8, 8, 8), (6, 4, 4, 4)],
                         ids=["n8_field", "missing_axis"])
def test_run_rejects_a_rho0_of_the_wrong_shape(tmp_path, shape):
    # an n = 8 field under n = 4, or a field missing an axis, stops at t = 0
    # on its shape, with both shapes in failure.json
    cfg = RunConfig(n=4, T=1.0, out_dir=str(tmp_path / "out"))
    rho0 = np.ones(shape) * ext.OMEGA1.reshape((6,) + (1,) * (len(shape) - 1))
    with pytest.raises(flow.StepFailure, match="rho0 has shape"):
        flow.run(cfg, rho0=rho0)
    diag = json.loads((tmp_path / "out" / "failure.json").read_text())
    assert diag == {"t": 0.0, "rho0_shape": list(shape),
                    "expected_shape": [6, 4, 4, 4, 4]}


def test_run_stops_on_nan_initial_data(tmp_path):
    g = lat.Grid(4)

    def reject(token):
        raise AssertionError(f"non-finite value {token} in an output")

    for bad, c in [(np.nan, 0)] + [(np.inf, c) for c in range(6)]:
        rho0 = g.constant(ext.OMEGA1)
        rho0[c, 1, 2, 3, 0] = bad
        out = tmp_path / f"{bad}-{c}"
        cfg = RunConfig(n=4, T=1.0, out_dir=str(out))
        with pytest.raises(DegenerateForm,
                           match=r"\(1 not finite\), first index \(1, 2, 3, 0\)"):
            flow.run(cfg, rho0=rho0)
        diag = json.loads((out / "failure.json").read_text(),
                          parse_constant=reject)
        assert diag["nonfinite_sites"] == 1 and diag["u_min"] == 1.0
        for path in out.iterdir():
            if path.suffix == ".json":
                json.loads(path.read_text(), parse_constant=reject)
            elif path.suffix == ".csv":
                for row in csv.DictReader(open(path)):
                    assert all(math.isfinite(float(v)) for v in row.values())
            elif path.suffix == ".bin":
                assert np.isfinite(np.fromfile(path)).all()


def test_run_rejects_locked_directory(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    cfg = RunConfig(n=8, T=1.0, out_dir=str(out))
    g = lat.Grid(8)
    with flow._OutputLock(out):
        with pytest.raises(flow.StepFailure, match="locked"):
            flow.run(cfg, rho0=g.constant(ext.OMEGA1))
    assert not (out / ".lock").exists()


def test_run_ignores_a_stale_lock(tmp_path):
    # a .lock left behind by a killed run has no holder
    out = tmp_path / "out"
    out.mkdir()
    (out / ".lock").touch()
    cfg = RunConfig(n=8, T=1.0, out_dir=str(out))
    res = flow.run(cfg, rho0=lat.Grid(8).constant(ext.OMEGA1))
    assert res.reason == "stationary"
    assert not (out / ".lock").exists()


@pytest.mark.parametrize("n", [8, 16])
def test_run_decays_at_the_spectral_gap(tmp_path, n):
    # near the minimum the flow is the flat Laplacian on exact 2-forms, so
    # the residual decays at its spectral gap 4 pi^2; at the step cap the
    # BDF3 root is 0.90% below it
    cfg = RunConfig(n=n, scheme="spectral", T=50.0, tol_stationary=1e-8,
                    seed=7, epsilon=0.05, kmax=2, out_every=1,
                    out_dir=str(tmp_path / "out"))
    res = flow.run(cfg)
    assert res.reason == "stationary"
    rows = list(csv.DictReader(open(res.csv_path)))
    late = [(float(r["t"]), math.log(float(r["residual_l2"]))) for r in rows
            if float(r["residual_l2"]) < 1e-4]
    assert len(late) > 10
    t, log_res = np.array(late).T
    rate = -np.polyfit(t, log_res, 1)[0]
    assert rate == pytest.approx(4 * np.pi ** 2, rel=0.01)


def test_run_decays_at_the_fd2_gap(tmp_path):
    # fd2's Laplacian has the gap n^2 sin^2(2 pi / n), 32 at n = 8
    cfg = RunConfig(n=8, scheme="fd2", T=50.0, tol_stationary=1e-8,
                    seed=7, epsilon=0.05, kmax=2, out_every=1,
                    out_dir=str(tmp_path / "out"))
    res = flow.run(cfg)
    assert res.reason == "stationary"
    rows = list(csv.DictReader(open(res.csv_path)))
    late = [(float(r["t"]), math.log(float(r["residual_l2"]))) for r in rows
            if float(r["residual_l2"]) < 1e-4]
    assert len(late) > 10
    t, log_res = np.array(late).T
    rate = -np.polyfit(t, log_res, 1)[0]
    assert rate == pytest.approx(64 * math.sin(2 * math.pi / 8) ** 2, rel=0.01)


def _fixed_steps(grid, start, t_end, k):
    """The fields at the ends of k steps of size h = t_end / k, the first
    len(start) - 1 of them given: ``start`` holds the fields at t = 0, h,
    ..., which seed the history, so with three the first step taken is
    ETD3 and with one it is ETD1.  A given step of increment D from the
    field of velocity F leaves the history's p = L D^ - F^, and the c1
    of the step after it is (F^' + p) / h, in the spectra of the transform
    halves.  The error test is off, as the steps are given."""
    h = t_end / k
    coh0 = lat.cohomology(grid, start[0])
    fields, history = [start[0]], flow.History()
    b = ext.Base(start[0])
    st, v = flow.accept(grid, b, 0.0, h, flow.energy(grid, b), coh0)
    for i, rho in enumerate(start[1:], 1):
        fhat = lat.to_spectrum(grid, v)
        if history.p is not None:
            history.c1 = (fhat + history.p) / h
        history.p = (lat.to_spectrum(grid, rho - fields[-1])
                     * grid.laplace_symbol[..., None] - fhat)
        history.h, history.h_prev = h, history.h
        b = ext.Base(rho)
        st, v = flow.accept(grid, b, i * h, h, flow.energy(grid, b), coh0)
        fields.append(rho)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flow, "TOL", math.inf)      # the steps are given
        while len(fields) <= k:
            st.dt = h
            st, v = flow.step(grid, st, v, coh0, h, history)
            fields.append(st.rho)
    assert st.t == pytest.approx(t_end, rel=1e-12)   # no step was rejected
    return fields


def test_step_is_third_order():
    # fixed-step self-convergence to T = 0.004 against 160 steps: halving
    # the step divides the error by 8 +- 20%.  A first-order start caps
    # the order at 2, so every run takes its first two steps from the
    # reference and starts with ETD3
    g = sgrid(8)
    rho0 = flow.initial_data(g, np.random.Generator(np.random.Philox(1)))
    ref = _fixed_steps(g, [rho0], 0.004, 160)
    errs = [lat.l2_norm(g, _fixed_steps(g, ref[:2 * 160 // k + 1:160 // k],
                                        0.004, k)[-1] - ref[-1])
            for k in (10, 20, 40)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 6.4 < coarse / fine < 9.6


@pytest.mark.parametrize("n, tol", [(8, 0.1), (16, 1e-2)])
def test_run_matches_a_fine_reference(tmp_path, n, tol):
    # the controlled one-call run to T = 0.004 from a first step 0.2 / n^2
    # against 40 fixed steps to the same end, whose own error is ~8e-5: at
    # n = 16 (five steps) the transient error is within 1% of the change
    # rho(T) - rho0.  At n = 8 the run takes two steps, 0.003125 and
    # 0.0034375, and ends at t = 0.00656, past T; both are large against
    # the data's stiffest modes (h lambda ~ 2 at |k|^2 = 16): 7e-2 on seeds
    # 1-3, and as much with a first step exact in L, so the step size sets
    # it, not the first-order start
    g = sgrid(n)
    cfg = RunConfig(n=n, T=0.004, seed=1, epsilon=0.05, kmax=2,
                    out_dir=str(tmp_path / "out"))
    res = flow.run(cfg)
    rho0 = flow.initial_data(g, np.random.Generator(np.random.Philox(1)))
    ref = _fixed_steps(g, [rho0], res.state.t, 40)[-1]
    err = lat.l2_norm(g, res.state.rho - ref) / lat.l2_norm(g, ref - rho0)
    assert err < tol
