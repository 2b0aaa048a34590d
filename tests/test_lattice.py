import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from donflow import exterior as ext
from donflow import flow
from donflow import lattice as lat
import oracles as orc


@pytest.fixture(params=["spectral", "fd2"])
def grid(request):
    return lat.Grid(8, request.param)


def sgrid(n=8):
    return lat.Grid(n, "spectral")


def test_grid_validation():
    with pytest.raises(ValueError):
        lat.Grid(7)
    with pytest.raises(ValueError):
        lat.Grid(2)
    with pytest.raises(ValueError):
        lat.Grid(8, "upwind")


def test_derivative_of_constant_vanishes(grid):
    f = np.full(grid.shape, 1.37)
    assert np.abs(lat.d0(grid, f)).max() == pytest.approx(0.0, abs=1e-14)


def test_spectral_derivative_is_exact_on_low_modes():
    g = sgrid(8)
    x0 = orc.coords(g)[0] + np.zeros(g.shape)
    f = np.sin(2 * np.pi * x0)
    df = lat.d0(g, f)
    assert_allclose(df[0], 2 * np.pi * np.cos(2 * np.pi * x0), atol=1e-12)
    assert np.abs(df[1:]).max() < 1e-13


def test_fd2_derivative_has_central_difference_symbol():
    g = lat.Grid(8, "fd2")
    x0 = orc.coords(g)[0] + np.zeros(g.shape)
    f = np.sin(2 * np.pi * x0)
    df = lat.d0(g, f)
    fac = math.sin(2 * np.pi * g.h) / g.h
    assert_allclose(df[0], fac * np.cos(2 * np.pi * x0), atol=1e-12)


@pytest.mark.parametrize("n", [4, 6, 8, 16])
def test_fd2_derivative_is_the_exact_central_difference(rng, n):
    # every table entry of d0..d3 and delta2 adds sign * (n/2) (f(x + h) -
    # f(x - h)) into its output component, bit for bit, in table order
    g = lat.Grid(n, "fd2")
    ops = [(lambda f, k=k: lat.d(g, f, k), lat.D_TABLES[k], k)
           for k in range(4)]
    ops.append((lambda f: lat.delta2(g, f), lat.DELTA2_TABLE, 2))
    for op, table, deg in ops:
        f = rng.normal(size=(lat.FORM_COMPS[deg],) + g.shape)
        want = np.zeros((max(o for o, *_ in table) + 1,) + g.shape)
        for o, i, a, sign in table:
            diff = (n / 2) * (np.roll(f[i], -1, axis=a)
                              - np.roll(f[i], 1, axis=a))
            want[o] += sign * diff
        assert np.array_equal(np.reshape(op(f), want.shape), want), table


@pytest.mark.parametrize("n", [4, 6, 8])
def test_shift_difference_is_s_minus_s_inverse(n):
    s = lat.Grid(n).shift_difference
    assert set(np.unique(s)) == {-1.0, 0.0, 1.0}
    want = np.zeros((n, n))
    for j in range(n):
        want[j, (j + 1) % n] = 1.0
        want[j, (j - 1) % n] = -1.0
    assert np.array_equal(s, want)


def _scheme_symbol(grid, k):
    """b(k) of the scheme, written out independently of the package."""
    if abs(k) == grid.n // 2:
        return 0.0
    if grid.scheme == "spectral":
        return 2 * np.pi * k
    return grid.n * math.sin(2 * np.pi * k / grid.n)


@pytest.mark.parametrize("deg", range(4))
@pytest.mark.parametrize("kvec", [(1, -2, 3, 2), (4, 1, 0, -3)])
def test_d_of_plane_wave_matches_wedge_oracle(grid, rng, deg, kvec):
    # d (cos(2 pi k.x) alpha) = -sin(2 pi k.x) (sum_a b(k_a) e_a) ^ alpha
    xs = orc.coords(grid)
    phase = 2 * np.pi * sum(k * x for k, x in zip(kvec, xs)) + np.zeros(grid.shape)
    ncomp = lat.FORM_COMPS[deg]
    alpha = rng.normal(size=ncomp)
    beta = np.array([_scheme_symbol(grid, k) for k in kvec])
    wedge = orc.wedge_tensor(orc.form_to_tensor(beta, 1), 1,
                             orc.form_to_tensor(alpha, deg), deg)
    want = orc.tensor_to_form(wedge, deg + 1)
    if deg == 0:
        f = alpha[0] * np.cos(phase)
    else:
        f = np.moveaxis(np.cos(phase)[..., None] * alpha, -1, 0)
    expect = np.moveaxis(-np.sin(phase)[..., None] * want, -1, 0)
    got = lat.d(grid, f, deg)
    assert_allclose(got, expect[0] if deg == 3 else expect, atol=1e-12)


@pytest.mark.parametrize("deg", range(4))
def test_d_of_last_axis_nyquist_mode_is_zero(grid, deg):
    # the alternating mode on the axis the real transform halves
    x3 = orc.coords(grid)[3] + np.zeros(grid.shape)
    wave = np.cos(np.pi * grid.n * x3)
    ncomp = lat.FORM_COMPS[deg]
    f = wave if deg == 0 else np.arange(1.0, ncomp + 1).reshape(-1, 1, 1, 1, 1) * wave
    out = lat.d(grid, f, deg)
    assert out.dtype == np.float64
    assert np.all(out == 0.0)


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("scheme", lat.SCHEMES)
def test_d_of_constant_and_alternating_modes_is_exactly_zero(rng, n, scheme):
    # d/dx = M (S - S^-1): the exact subtraction kills both modes on every axis
    g = lat.Grid(n, scheme)
    alternating = [np.broadcast_to((-1.0) ** np.rint(n * x), g.shape)
                   for x in orc.coords(g)]
    for mode in [np.ones(g.shape)] + alternating:
        for deg in range(4):
            ncomp = lat.FORM_COMPS[deg]
            f = mode if deg == 0 else np.moveaxis(
                mode[..., None] * rng.normal(size=ncomp), -1, 0)
            assert np.all(lat.d(g, f, deg) == 0.0)
        assert np.all(lat.delta2(g, np.moveaxis(
            mode[..., None] * rng.normal(size=6), -1, 0)) == 0.0)


@pytest.mark.parametrize("n", [4, 6, 8, 16])
@pytest.mark.parametrize("scheme", lat.SCHEMES)
def test_d_matches_fourier_oracle_on_white_noise(rng, n, scheme):
    g = lat.Grid(n, scheme)

    def rel_err(got, want):
        return np.abs(got - want).max() / np.abs(want).max()

    for deg in range(4):
        f = np.moveaxis(rng.normal(size=g.shape + (lat.FORM_COMPS[deg],)), -1, 0)
        f = f[0] if deg == 0 else f
        assert rel_err(lat.d(g, f, deg), orc.d_fourier(g, f, deg)) <= 1e-13
    w = np.moveaxis(rng.normal(size=g.shape + (6,)), -1, 0)
    assert rel_err(lat.delta2(g, w), orc.d_fourier(g, w, 1, adjoint=True)) <= 1e-13


def test_d_and_rhs_make_no_transforms(monkeypatch, rng):
    g = lat.Grid(8)
    rho = flow.initial_data(g, rng)
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft",
                 "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft"):
        monkeypatch.setattr(np.fft, name, counting(getattr(np.fft, name)))
    # random_trig_field makes no transform either
    fields = [_random_field(g, rng, lat.FORM_COMPS[deg]) for deg in range(4)]
    flow.rhs(g, ext.Base(rho))
    for deg, f in enumerate(fields):
        lat.d(g, f, deg)
    lat.delta2(g, rho)
    lat._class_means(g, fields[1])
    lat.inv_laplace(g, rho)
    lat.resolvent(g, rho, 250.0)
    assert calls == []


@pytest.mark.parametrize("n", [4, 6, 8, 16])
@pytest.mark.parametrize("scheme", lat.SCHEMES)
def test_axis_matrix_is_diagonal_in_the_real_basis(n, scheme):
    # M is a symmetric circulant with the real, even symbol b / (2 sin),
    # free at k = 0 and n/2 (0 for spectral, n/2 for fd2), so Q M Q^T is
    # diagonal
    g = lat.Grid(n, scheme)
    m = g.axis_matrix
    assert np.array_equal(m, m.T)
    q, k = g.real_basis
    free = n / 2 if scheme == "fd2" else 0.0
    want = np.array([free if kk in (0, n // 2) else
                     _scheme_symbol(g, kk) / (2 * math.sin(2 * np.pi * kk / n))
                     for kk in k])
    assert np.abs(q @ m @ q.T - np.diag(want)).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("scheme", lat.SCHEMES)
@pytest.mark.parametrize("n", [4, 6, 8, 16])
def test_harmonic_projection_matches_fourier_mask(n, scheme, rng):
    # parity-class means against the zero-symbol modes of a complex fftn,
    # on a 1-form and a scalar field; a second projection changes nothing
    g = lat.Grid(n, scheme)
    for shape in ((4,) + g.shape, g.shape):
        f = rng.normal(size=shape)
        p = orc.harmonic_projection(g, f)
        assert p.shape == f.shape
        assert np.abs(p - orc.harmonic_fourier(n, f)).max() <= 1e-15
        assert np.abs(orc.harmonic_projection(g, p) - p).max() <= 1e-16


def _random_field(grid, rng, ncomp, kmax=2, amp=1.0):
    f = lat.random_trig_field(rng, kmax, ncomp)(grid)
    return amp * f


def test_d_squared_is_zero(grid, rng):
    f0 = _random_field(grid, rng, 1)
    f1 = _random_field(grid, rng, 4)
    f2 = _random_field(grid, rng, 6)
    scale = max(np.abs(f1).max(), np.abs(f2).max()) * grid.n ** 2
    assert np.abs(lat.d1(grid, lat.d0(grid, f0))).max() < 1e-13 * scale
    assert np.abs(lat.d2(grid, lat.d1(grid, f1))).max() < 1e-13 * scale
    assert np.abs(lat.d3(grid, lat.d2(grid, f2))).max() < 1e-13 * scale


def test_derivative_has_zero_mean(grid, rng):
    f1 = _random_field(grid, rng, 4)
    w = lat.d1(grid, f1)
    for c in range(6):
        assert abs(math.fsum(w[c].ravel())) < 1e-10


def test_integrate_volume_and_band_limited():
    g = sgrid(8)
    assert lat.integrate(g, np.ones(g.shape)) == pytest.approx(1.0, abs=0)
    x0 = orc.coords(g)[0] + np.zeros(g.shape)
    val = lat.integrate(g, np.sin(2 * np.pi * x0) ** 2)
    assert val == pytest.approx(0.5, abs=1e-15)
    w11 = ext.wedge22(g.constant(ext.OMEGA1), g.constant(ext.OMEGA1))
    assert lat.integrate(g, w11) == pytest.approx(2.0, abs=1e-13)


def test_discrete_stokes(grid, rng):
    f3 = _random_field(grid, rng, 4)
    val = lat.integrate(grid, lat.d3(grid, f3))
    assert abs(val) < 1e-13 * max(1.0, np.abs(f3).max() * grid.n)


def test_cohomology_of_constants():
    g = sgrid(8)
    assert_allclose(lat.cohomology(g, g.constant(ext.OMEGA1)),
                    [1, 0, 0, 1, 0, 0], atol=0)
    assert_allclose(lat.cohomology(g, g.constant(3 * ext.OMEGA2)),
                    [0, 3, 0, 0, 3, 0], atol=0)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_cohomology_matches_exactly_rounded_sums(rng, n):
    g = sgrid(n)
    omega = g.constant(ext.OMEGA1)
    for rho in (np.moveaxis(rng.normal(size=g.shape + (6,)), -1, 0),
                np.moveaxis(1e3 * rng.uniform(-1, 1, size=g.shape + (6,)) + 7.0,
                            -1, 0),
                omega + lat.d1(g, 0.05 * _random_field(g, rng, 4))):
        want = [math.fsum(rho[c].ravel()) / n ** 4 for c in range(6)]
        assert np.abs(lat.cohomology(g, rho) - want).max() <= 1e-18


def test_cohomology_invariant_under_exact_shift(rng):
    for scheme, tol in (("fd2", 0.0), ("spectral", 1e-14)):
        g = lat.Grid(8, scheme)
        lam = 0.05 * _random_field(g, rng, 4)
        rho = g.constant(ext.OMEGA1) + lat.d1(g, lam)
        drift = lat.cohomology(g, rho) - lat.cohomology(g, g.constant(ext.OMEGA1))
        if scheme == "fd2":
            # class-carrying components are reproduced bitwise at this scale
            assert drift[0] == 0.0 and drift[3] == 0.0
            assert np.abs(drift).max() < 1e-16
        else:
            assert np.abs(drift).max() < tol


def test_delta2_is_adjoint_of_d1(grid, rng):
    lam = _random_field(grid, rng, 4)
    w = _random_field(grid, rng, 6)
    lhs = float(np.sum(lat.d1(grid, lam) * w))
    rhs = float(np.sum(lam * lat.delta2(grid, w)))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-10)


def test_resolvent_on_cosine_modes(grid):
    # cos(2 pi k.x) is an eigenfunction of the scheme Laplacian with
    # eigenvalue sum_i b(k_i)^2, so (s + L)^-1 divides it by s + that
    n = grid.n
    b = orc._scheme_b(n, grid.scheme)
    x = [c + np.zeros(grid.shape) for c in orc.coords(grid)]
    for k in ((0, 0, 0, 0), (1, 0, 0, 0), (1, 2, 0, 3), (3, 1, 2, 1)):
        f = np.cos(2 * np.pi * sum(ki * xi for ki, xi in zip(k, x)))
        lam = sum(b[ki] ** 2 for ki in k)
        for shift in (0.5, 250.0):
            assert_allclose(lat.resolvent(grid, np.stack([f, -2 * f]), shift),
                            np.stack([f, -2 * f]) / (shift + lam),
                            atol=1e-14)


@pytest.mark.parametrize("scheme", lat.SCHEMES)
@pytest.mark.parametrize("n", [4, 6, 8, 12, 16])
def test_multipliers_match_fourier_oracle(n, scheme, rng):
    # the real-basis gemms against a complex fftn multiplier, on a 2-form
    # and a scalar field of white noise
    g = lat.Grid(n, scheme)
    lap = orc.laplace_fourier(n, scheme)
    inv = np.divide(1.0, lap, out=np.zeros_like(lap), where=lap > 0)
    for shape in ((6,) + g.shape, g.shape):
        f = rng.normal(size=shape)
        for got, mult in ((lat.inv_laplace(g, f), inv),
                          (lat.resolvent(g, f, 0.5), 1.0 / (0.5 + lap)),
                          (lat.resolvent(g, f, 250.0), 1.0 / (250.0 + lap))):
            ref = orc.fourier_multiply(f, mult)
            assert got.shape == f.shape
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_inv_laplace_reads_its_symbol_from_the_grid(monkeypatch, rng):
    # 1/|k|^2 is built once per Grid, bit for bit the guarded division it
    # replaces, and a later inv_laplace divides nothing
    g = lat.Grid(8)
    sym = g.laplace_symbol
    want = np.divide(1.0, sym, out=np.zeros_like(sym), where=sym > 0)
    assert g.inv_laplace_symbol.tobytes() == want.tobytes()
    f = rng.normal(size=(6,) + g.shape)
    first = lat.inv_laplace(g, f)

    def no_divide(*args, **kwargs):
        raise AssertionError("inv_laplace rebuilt its symbol")

    monkeypatch.setattr(np, "divide", no_divide)
    assert lat.inv_laplace(g, f).tobytes() == first.tobytes()
    assert lat._multiply(g, f, want).tobytes() == first.tobytes()


def test_random_trig_field_aliases_like_sampled_cosines():
    # at n = 4 the modes +-2 of kmax = 2 both land on the Nyquist frequency,
    # and those of kmax = 3 also fold +-3 onto -+1
    seed = 20240811
    for kmax in (2, 3):
        fn = lat.random_trig_field(np.random.Generator(np.random.Philox(seed)),
                                   kmax, 4)
        ref = orc.trig_field_direct(np.random.Generator(np.random.Philox(seed)),
                                    kmax, 4, 4)
        assert_allclose(fn(lat.Grid(4)), ref, atol=1e-13 * np.abs(ref).max())


def test_random_trig_field_is_grid_independent(rng):
    fn = lat.random_trig_field(rng, 2, ncomp=4)
    a = fn(sgrid(8))
    b = fn(sgrid(16))
    assert_allclose(a, b[:, ::2, ::2, ::2, ::2], atol=1e-12)
    for c in range(4):
        assert abs(math.fsum(a[c].ravel())) < 1e-10


# ---------------------------------------------------------------------------
# exactness and the least-norm potential
# ---------------------------------------------------------------------------

def test_exact_potential_flat_roundtrip(grid, rng):
    lam = _random_field(grid, rng, 4)
    rhohat = lat.d1(grid, lam)
    res, lam0 = lat.exactness_residual(grid, rhohat)
    assert res < 1e-12
    assert_allclose(lat.d1(grid, lam0), rhohat, atol=1e-11)


def test_exactness_rejects_harmonic_and_nonclosed(grid, rng):
    harmonic = grid.constant(ext.OMEGA2)
    res, _ = lat.exactness_residual(grid, harmonic)
    assert res > 0.99
    omega = grid.constant(ext.OMEGA1)
    with pytest.raises(lat.NotExact):
        lat.least_norm_potential(grid, harmonic, ext.Base(omega))
    closed_not_exact = omega + 0.01 * lat.d1(grid, _random_field(grid, rng, 4))
    with pytest.raises(lat.NotExact):
        lat.least_norm_potential(grid, closed_not_exact, ext.Base(omega))


def test_least_norm_zero():
    g = sgrid(8)
    lam = lat.least_norm_potential(g, g.zeros(2),
                                   ext.Base(g.constant(ext.OMEGA1)))
    assert np.abs(lam).max() == 0.0


def test_least_norm_recovers_coexact_potential():
    g = sgrid(8)
    x0 = orc.coords(g)[0] + np.zeros(g.shape)
    lam_true = g.zeros(1)
    lam_true[1] = np.sin(2 * np.pi * x0)
    rhohat = lat.d1(g, lam_true)
    lam = lat.least_norm_potential(g, rhohat, ext.Base(g.constant(ext.OMEGA1)))
    assert_allclose(lam, lam_true, atol=1e-9)
    val = lat.integrate(g, ext.wedge13(lam, ext.star1_flat(lam)))
    assert val == pytest.approx(0.5, abs=1e-9)


def test_least_norm_strips_gauge_part(rng):
    g = sgrid(8)
    lam0 = 0.3 * _random_field(g, rng, 4)
    phi = _random_field(g, rng, 1)
    rhohat = lat.d1(g, lam0 + lat.d0(g, phi))
    lam = lat.least_norm_potential(g, rhohat, ext.Base(g.constant(ext.OMEGA1)))
    assert lat.l2_norm(g, lat.d1(g, lam) - rhohat) < 1e-9
    # star lam is closed with zero periods (flat metric: star = table)
    star = ext.star1_flat(lam)
    assert lat.l2_norm(g, lat.d3(g, star)) < 1e-8
    assert np.abs(star.mean(axis=(1, 2, 3, 4))).max() < 1e-10


def _perturbed_rho(g, rng, eps=0.3):
    lam = lat.random_trig_field(rng, 1, ncomp=4)(g)
    pert = lat.d1(g, lam)
    pert *= eps / np.abs(pert).max()
    rho = g.constant(ext.OMEGA1) + pert
    assert ext.u_of(rho).min() > 0.2
    return rho


def test_least_norm_gauge_orthogonality_curved(rng):
    g = sgrid(8)
    rho = _perturbed_rho(g, rng)
    rhohat = lat.d1(g, 0.1 * _random_field(g, rng, 4))
    lam = lat.least_norm_potential(g, rhohat, ext.Base(rho))
    assert lat.l2_norm(g, lat.d1(g, lam) - rhohat) < 1e-9

    def star1(a):
        return ext.hodge1(ext.Metric(ext.g_rho(rho)), a)

    # orthogonal to exact and to constant (harmonic) test 1-forms
    for _ in range(3):
        mu = lat.d0(g, _random_field(g, rng, 1))
        val = lat.integrate(g, ext.wedge13(mu, star1(lam)))
        assert abs(val) < 1e-8
    for i in range(4):
        mu = g.zeros(1)
        mu[i] = 1.0
        val = lat.integrate(g, ext.wedge13(mu, star1(lam)))
        assert abs(val) < 1e-8


def test_donaldson_pairing_symmetric(rng):
    g = sgrid(8)
    rho = _perturbed_rho(g, rng)
    rh1 = lat.d1(g, 0.1 * _random_field(g, rng, 4))
    rh2 = lat.d1(g, 0.1 * _random_field(g, rng, 4))
    b = ext.Base(rho)
    lam1 = lat.least_norm_potential(g, rh1, b)
    lam2 = lat.least_norm_potential(g, rh2, b)

    def star1(a):
        return ext.hodge1(ext.Metric(ext.g_rho(rho)), a)

    v12 = lat.integrate(g, ext.wedge13(lam1, star1(lam2)))
    v21 = lat.integrate(g, ext.wedge13(lam2, star1(lam1)))
    assert v12 == pytest.approx(v21, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("case", ["flat", "curved", "gauge"])
def test_least_norm_matches_the_full_field_cg(rng, monkeypatch, case):
    # nu held as its 4 x 16 class values, weighted by the (n/2)^4 sites of
    # each class, runs the iteration of the full-field CG
    g = sgrid(8)
    flat = g.constant(ext.OMEGA1)
    rho = _perturbed_rho(g, rng) if case == "curved" else flat
    lam = 0.1 * _random_field(g, rng, 4)
    if case == "gauge":
        lam += lat.d0(g, _random_field(g, rng, 1))
    rhohat = lat.d1(g, lam)
    b = ext.Base(rho)
    want, iters = orc.least_norm_potential_full(g, rhohat, b)
    calls = []
    star = ext.star_rho1
    monkeypatch.setattr(ext, "star_rho1",
                        lambda *a, **k: calls.append(1) or star(*a, **k))
    got = lat.least_norm_potential(g, rhohat, b)
    # one star per iteration, and one for the initial residual
    assert abs(len(calls) - 1 - iters) <= 1
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    if case == "curved":
        assert iters > 3


def test_least_norm_potential_memory():
    # phi, r and p are updated in place and nu is 64 numbers: the solve
    # never holds more than a few field-sized arrays (744 kB measured,
    # 1,476 kB with a full-field nu and fresh Krylov vectors)
    g = sgrid(8)
    b = ext.Base(flow.initial_data(g, np.random.Generator(np.random.Philox(7))))
    rhohat = flow.rhs(g, b)
    lat.least_norm_potential(g, rhohat, b)
    tracemalloc.start()
    try:
        lat.least_norm_potential(g, rhohat, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_least_norm_no_convergence_budget(rng):
    g = sgrid(8)
    rho = _perturbed_rho(g, rng)
    rhohat = lat.d1(g, 0.1 * _random_field(g, rng, 4))
    with pytest.raises(lat.NoConvergence):
        lat.least_norm_potential(g, rhohat, ext.Base(rho), rtol=1e-16,
                                 max_iter=2)
