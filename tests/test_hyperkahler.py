import numpy as np
import pytest
from numpy.testing import assert_allclose

from donflow import exterior as ext
from donflow import flow
from donflow import hyperkahler as hk
from donflow import lattice as lat
from donflow.checks import exact_direction, perturbed_omega1, random_rho
import oracles as orc


def sgrid(n=8):
    return lat.Grid(n, "spectral")


# ---------------------------------------------------------------------------
# the standard triple
# ---------------------------------------------------------------------------

def test_triple_wedge_relations_exact():
    for i in range(3):
        for j in range(3):
            val = ext.wedge22(hk.OMEGAS[i], hk.OMEGAS[j])
            assert val == (2.0 if i == j else 0.0)


def test_triple_quaternion_relations_exact():
    j1, j2, j3 = orc.JS
    eye = np.eye(4)
    for j in orc.JS:
        assert np.array_equal(j @ j, -eye)
    assert np.array_equal(j1 @ j2, j3)
    assert np.array_equal(j2 @ j3, j1)
    assert np.array_equal(j3 @ j1, j2)
    assert np.array_equal(j2 @ j1, -j3)


def test_triple_self_dual():
    for w in hk.OMEGAS:
        assert_allclose(ext.star2_flat(w), w, atol=0)


# ---------------------------------------------------------------------------
# moment-map functions
# ---------------------------------------------------------------------------

def test_k_functions_worked_values():
    assert_allclose(hk.k_functions(ext.Base(ext.OMEGA1)), [2, 0, 0], atol=1e-14)
    assert_allclose(hk.k_functions(ext.Base(ext.OMEGA2)), [0, 2, 0], atol=1e-14)
    rho = np.array([1.5, 0, 0, 0.5, 0, 0])
    k = hk.k_functions(ext.Base(rho))
    assert_allclose(k, [8 / 3, 0, 0], atol=1e-14)
    u = ext.u_of(rho)
    plus, _ = ext.sd_split(rho)
    assert 2 * ext.norm2_sq(plus) == pytest.approx(u ** 2 * np.sum(k ** 2))


def test_k_identities_pointwise(rng):
    rho = random_rho(rng, (3000,), u_min=0.05)
    u = ext.u_of(rho)
    k = hk.k_functions(ext.Base(rho))
    plus, minus = ext.sd_split(rho)
    recon = 0.5 * u * np.einsum("i...,ic->c...", k, hk.OMEGAS)
    assert_allclose(recon, plus, atol=1e-11)
    assert_allclose(2 * ext.norm2_sq(plus), u ** 2 * np.sum(k ** 2, axis=0),
                    atol=1e-10)
    assert_allclose(ext.norm2_sq(plus) - ext.norm2_sq(minus), 2 * u, atol=1e-11)


def test_k_functions_degenerate():
    with pytest.raises(ext.DegenerateForm):
        hk.k_functions(ext.Base(np.array([1.0, 0, 0, 0, 0, 0])))


# ---------------------------------------------------------------------------
# cross formulas against the flow module
# ---------------------------------------------------------------------------

def test_energy_hk_values_and_cross(rng):
    g = sgrid(8)
    assert hk.energy_hk(g, ext.Base(g.constant(ext.OMEGA1))) == pytest.approx(
        2.0, abs=1e-13)
    rho_c = ext.Base(g.constant([1.5, 0, 0, 0.5, 0, 0]))
    assert hk.energy_hk(g, rho_c) == pytest.approx(8 / 3, rel=1e-13)
    b = ext.Base(perturbed_omega1(g, lat.random_trig_field(rng, 2, 4), 0.4))
    ea, eb = flow.energy(g, b), hk.energy_hk(g, b)
    assert abs(ea - eb) < 1e-11 * ea


def test_theta_hk_matches_theta_point(rng):
    b = ext.Base(np.array([1.5, 0, 0, 0.5, 0, 0]))
    assert_allclose(hk.theta_hk(b), ext.theta_point(b), atol=1e-13)
    sample = ext.Base(random_rho(rng, (100000,), u_min=0.05))
    dev = np.abs(hk.theta_hk(sample) - ext.theta_point(sample)).max()
    assert dev < 1e-11


def test_grad_hk_zero_at_minimum():
    g = sgrid(8)
    assert np.abs(hk.grad_hk(g, ext.Base(g.constant(ext.OMEGA1)))).max() < 1e-12


def test_grad_hk_is_minus_rhs_with_refinement(rng):
    seeds = np.random.Generator(np.random.Philox(77))
    fn = lat.random_trig_field(seeds, 1, ncomp=4)
    rel = {}
    for n in (8, 12):
        g = lat.Grid(n)
        lam = fn(g)
        pert = lat.d1(g, lam)
        pert *= 0.03 / np.abs(pert).max()
        b = ext.Base(g.constant(ext.OMEGA1) + pert)
        r = flow.rhs(g, b)
        rel[n] = lat.l2_norm(g, hk.grad_hk(g, b) + r) / lat.l2_norm(g, r)
    assert rel[12] < rel[8]
    assert rel[12] < 1e-8


def test_exact_gradient_identity_pointwise_star(rng):
    # d Theta = star_rho( sum_i dK_i o J_i^rho ) on smooth fields
    g = sgrid(8)
    rho = perturbed_omega1(g, lat.random_trig_field(rng, 1, 4), 0.01)
    b = ext.Base(rho)
    lhs = lat.d2(g, ext.theta_point(b))
    tot = hk.grad_potential(g, b)
    assert np.abs(lhs - ext.star_rho1(tot, b)).max() < 1e-6
    # the matrix form sum_i (J_i^rho)^T dK_i is the reference of the
    # contraction form
    ref = sum(np.einsum("...ji,j...->i...", ext.j_rho(j, rho), lat.d0(g, ki))
              for j, ki in zip(orc.JS, hk.k_functions(b)))
    assert np.abs(tot - ref).max() <= 1e-13 * np.abs(ref).max()


def test_interior2_applies_the_complex_structures(rng):
    # J_i v = i(v) omega_i for the flat triple, bit for bit
    for v in (rng.normal(size=(4, 500)), rng.normal(size=(4, 8, 8, 8, 8))):
        for j, w in zip(orc.JS, hk.OMEGAS):
            assert np.array_equal(ext.interior2(v, w),
                                  np.einsum("ab,b...->a...", j, v))


def test_omega_pair_matches_the_matrix_form(rng):
    x, y = rng.normal(size=(2, 4, 500))
    for i, w in enumerate(hk.OMEGAS):
        ref = orc.omega_pair_matrix(w, x, y)
        assert np.abs(hk._omega_pair(i, x, y) - ref).max() <= (
            1e-15 * np.abs(ref).max())


def test_hessiancov_c_is_the_bracket_integral(rng):
    # C = int sum omega_i(X, [X_Ki, X]) dvol_rho, taken directly
    g = sgrid(8)
    b = ext.Base(perturbed_omega1(g, lat.random_trig_field(rng, 1, 4), 0.1))
    mu, rh = exact_direction(g, lat.random_trig_field(rng, 1, 4), 0.3)
    x = hk.vector_from_potential(b, mu)
    dx = hk._gradient(g, x)
    c = 0.0
    for w, ki in zip(hk.OMEGAS, hk.k_functions(b)):
        xk = -hk.vector_from_potential(b, lat.d0(g, ki))
        bracket = hk._nabla(x, hk._gradient(g, xk)) - hk._nabla(xk, dx)
        c += lat.integrate(g, orc.omega_pair_matrix(w, x, bracket) * b.u)
    rep = hk.hessiancov_check(g, b, rh, mu=mu)
    assert abs(c) > 1e-4
    assert abs(rep["C"] - c) <= 1e-13 * abs(c)


def test_hessian_hk_matches_hessian_form(rng):
    g = sgrid(8)
    omega = ext.Base(g.constant(ext.OMEGA1))
    assert hk.hessian_hk(g, omega, orc.zeros(g, 2)) == 0.0
    x0 = orc.coords(g)[0] + np.zeros(g.shape)
    mu = orc.zeros(g, 1)
    mu[1] = np.sin(2 * np.pi * x0)
    rh = lat.d1(g, mu)
    assert hk.hessian_hk(g, omega, rh) == pytest.approx(2 * np.pi ** 2, rel=1e-12)
    base = ext.Base(perturbed_omega1(g, lat.random_trig_field(rng, 2, 4), 0.25))
    _, rh2 = exact_direction(g, lat.random_trig_field(rng, 2, 4), 0.4)
    a = flow.hessian_form(g, base, rh2)
    b = hk.hessian_hk(g, base, rh2)
    assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


# ---------------------------------------------------------------------------
# linearized moment maps
# ---------------------------------------------------------------------------

def test_vector_from_potential_solves_contraction(rng):
    g = sgrid(8)
    rho = perturbed_omega1(g, lat.random_trig_field(rng, 2, 4), 0.3)
    mu, _ = exact_direction(g, lat.random_trig_field(rng, 2, 4), 0.4)
    x = hk.vector_from_potential(ext.Base(rho), mu)
    assert np.abs(ext.interior2(x, rho) + mu).max() < 1e-11


def test_khat_hhat_zero_direction():
    g = sgrid(8)
    omega = ext.Base(g.constant(ext.OMEGA1))
    zero_mu = orc.zeros(g, 1)
    x = hk.vector_from_potential(omega, zero_mu)
    khat, hhat = orc.khat_hhat(g, omega, orc.zeros(g, 2), x)
    assert np.abs(khat).max() == 0.0
    assert np.abs(hhat).max() < 1e-13


def test_khat_equals_hhat_at_minimum(rng):
    # constant K: L_X K = 0, so the two linearizations agree pointwise
    g = sgrid(8)
    omega = ext.Base(g.constant(ext.OMEGA1))
    mu, rh = exact_direction(g, lat.random_trig_field(rng, 2, 4), 0.5)
    x = hk.vector_from_potential(omega, mu)
    khat, hhat = orc.khat_hhat(g, omega, rh, x)
    assert np.abs(khat - hhat).max() < 1e-10 * max(1.0, np.abs(khat).max())


def test_contraction_exchange_identity(rng):
    # (i(X) w) ^ rho + (w - K rho) ^ i(X) rho = 0 pointwise, any w
    rho = random_rho(rng, (500,), u_min=0.05)
    u = ext.u_of(rho)
    for w_const in (ext.OMEGA1, ext.OMEGA3, rng.normal(size=6)):
        w = np.broadcast_to(w_const[:, None], rho.shape)
        x = rng.normal(size=rho.shape[1:] + (4,)).T
        kw = ext.wedge22(w, rho) / u
        w_r = w - kw * rho
        lhs = (ext.wedge12(ext.interior2(x, w), rho)
               + ext.wedge12(ext.interior2(x, rho), w_r))
        assert np.abs(lhs).max() < 1e-12 * max(1.0, np.abs(rho).max() ** 3)


def test_self_dual_contraction_star_identity(rng):
    # (i(X) w_i) ^ rho = -star_rho(i(J_i X) rho) for the compatible triple
    rho = random_rho(rng, (500,), u_min=0.05)
    x = rng.normal(size=rho.shape[1:] + (4,)).T
    for i in range(3):
        w = np.broadcast_to(hk.OMEGAS[i][:, None], rho.shape)
        lhs = ext.wedge12(ext.interior2(x, w), rho)
        jx = np.einsum("ab,b...->a...", orc.JS[i], x)
        rhs = -ext.star_rho1(ext.interior2(jx, rho), ext.Base(rho))
        assert_allclose(lhs, rhs, atol=1e-9)


def test_lie_derivative_relation(rng):
    # L_X K_i = H_hat_i - K_hat_i up to discretization error
    g = sgrid(8)
    b = ext.Base(perturbed_omega1(g, lat.random_trig_field(rng, 1, 4), 0.02))
    mu, rh = exact_direction(g, lat.random_trig_field(rng, 1, 4), 0.05)
    x = hk.vector_from_potential(b, mu)
    khat, hhat = orc.khat_hhat(g, b, rh, x)
    lxk = orc.lie_derivative_k(g, b, x)
    dev = np.abs(lxk - (hhat - khat)).max()
    assert dev < 1e-5 * max(1.0, np.abs(hhat).max())


# ---------------------------------------------------------------------------
# covariant Hessian ledger
# ---------------------------------------------------------------------------

def test_hessiancov_at_minimum(rng):
    g = sgrid(8)
    mu, rh = exact_direction(g, lat.random_trig_field(rng, 2, 4), 0.5)
    rep = hk.hessiancov_check(g, ext.Base(g.constant(ext.OMEGA1)), rh, mu=mu)
    for key in ("B", "C", "D", "E"):
        assert abs(rep[key]) < 1e-10
    assert abs(rep["A"]) < 1e-10          # int rhohat ^ rhohat = 0 for exact
    assert rep["abcde_residual"] < 1e-10
    assert rep["cov_residual"] < 1e-12


def test_hessiancov_zero_direction():
    g = sgrid(8)
    rep = hk.hessiancov_check(g, ext.Base(g.constant(ext.OMEGA1)), orc.zeros(g, 2),
                              mu=orc.zeros(g, 1))
    for key in ("A", "B", "C", "D", "E"):
        assert rep[key] == 0.0


def test_hessiancov_refines(rng):
    seeds = np.random.Generator(np.random.Philox(21))
    rho_fn = lat.random_trig_field(seeds, 1, ncomp=4)
    mu_fn = lat.random_trig_field(seeds, 1, ncomp=4)
    res = {}
    for n in (8, 12):
        g = lat.Grid(n)
        pert = lat.d1(g, rho_fn(g))
        pert *= 0.1 / np.abs(pert).max()
        b = ext.Base(g.constant(ext.OMEGA1) + pert)
        mu = mu_fn(g)
        mu *= 0.3 / np.abs(mu).max()
        rep = hk.hessiancov_check(g, b, lat.d1(g, mu), mu=mu)
        res[n] = rep["abcde_relative"]
        assert rep["cov_residual"] < 1e-6
    assert res[8] < 1e-3
    assert res[12] < res[8]


def test_hessian3_at_critical_point(rng):
    # at the minimum the Hamiltonian fields of K vanish, so the Hessian is
    # the plain L2 norm of H_hat against dvol_rho
    g = sgrid(8)
    omega = ext.Base(g.constant(ext.OMEGA1))
    mu, rh = exact_direction(g, lat.random_trig_field(rng, 2, 4), 0.4)
    x = hk.vector_from_potential(omega, mu)
    _, hhat = orc.khat_hhat(g, omega, rh, x)
    val = lat.integrate(g, np.sum(hhat ** 2, axis=0) * omega.u)
    assert val == pytest.approx(flow.hessian_form(g, omega, rh), rel=1e-10)


# ---------------------------------------------------------------------------
# rigidity of constant moment maps
# ---------------------------------------------------------------------------

def test_constant_k_forces_u_at_least_one(rng):
    # pointwise forms with K = (2,0,0) exist exactly when u >= 1
    u = rng.uniform(1.0, 3.0, size=400)
    nu = rng.normal(size=(400, 3))
    nu /= np.linalg.norm(nu, axis=-1, keepdims=True)
    asd = np.stack([ext.OMEGA1_ASD, ext.OMEGA2_ASD, ext.OMEGA3_ASD])
    minus = np.sqrt(u * (u - 1.0))[:, None] * np.einsum("bi,ic->bc", nu, asd)
    rho = (u[:, None] * ext.OMEGA1 + minus).T
    assert_allclose(ext.u_of(rho), u, atol=1e-12)
    k = hk.k_functions(ext.Base(rho))
    assert_allclose(k[0], 2.0, atol=1e-12)
    assert np.abs(k[1:]).max() < 1e-12
    assert ext.u_of(rho).min() >= 1.0 - 1e-12


def test_nonminimal_fields_have_nonconstant_k(rng):
    g = sgrid(8)
    rho = perturbed_omega1(g, lat.random_trig_field(rng, 2, 4), 0.3)
    k = hk.k_functions(ext.Base(rho))
    spread = max(k[i].max() - k[i].min() for i in range(3))
    assert spread > 1e-3
    # converse: tiny moment-map variation pins the field to omega1
    tiny = perturbed_omega1(g, lat.random_trig_field(rng, 2, 4), 1e-10)
    kt = hk.k_functions(ext.Base(tiny))
    spread_t = max(kt[i].max() - kt[i].min() for i in range(3))
    assert spread_t < 1e-9
    assert np.abs(tiny - g.constant(ext.OMEGA1)).max() < 1e-6
