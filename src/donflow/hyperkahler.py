"""The flat-torus hyperKaehler structure and its cross-formulas.

The standard triple (omega1, omega2, omega3) together with the quaternionic
complex structures gives closed-form alternatives for the energy, the Theta
map, the gradient and the Hessian in terms of the moment-map functions

    K_i = (omega_i ^ rho) / dvol_rho.

Every function here is an independent route to a quantity the flow module
computes differently, which makes this module the oracle suite for the flow.
"""

from __future__ import annotations

import numpy as np

from donflow import exterior as ext
from donflow import lattice as lat

# the quaternionic complex structures J_i (left multiplication by i, j, k)
# enter only as J_i v = i(v) omega_i
OMEGAS = np.stack([ext.OMEGA1, ext.OMEGA2, ext.OMEGA3])


def k_functions(b):
    """Moment-map functions K_i = (omega_i ^ rho)/dvol_rho, shape (3, ...)."""
    return np.stack([ext.wedge22(w, b.rho) for w in OMEGAS]) / b.u


def energy_hk(grid, b):
    """Energy as half the L2 norm squared of K against dvol_rho."""
    k = k_functions(b)
    return 0.5 * lat.integrate(grid, np.sum(k ** 2, axis=0) * b.u)


def theta_hk(b):
    """Theta through the moment maps: sum_i (K_i omega_i - K_i^2 rho / 2)."""
    k = k_functions(b)
    lin = np.einsum("i...,ic->c...", k, OMEGAS)
    return lin - 0.5 * np.sum(k ** 2, axis=0) * b.rho


def grad_potential(grid, b):
    """The 1-form sum_i dK_i o J_i^rho, with J_i^rho the twisted complex
    structure, rho(J_i^rho v, w) = rho(v, J_i w).  With X_i the vector field
    of i(X_i) rho = -dK_i, dK_i(J_i^rho v) = -rho(J_i X_i, v), so the sum
    is -i(sum_i J_i X_i) rho, with J_i X_i = i(X_i) omega_i."""
    jx = sum(ext.interior2(vector_from_potential(b, lat.d0(grid, ki)), w)
             for w, ki in zip(OMEGAS, k_functions(b)))
    return -ext.interior2(jx, b.rho)


def grad_hk(grid, b):
    """Energy gradient as sum_i d(dK_i o J_i^rho), the d of
    :func:`grad_potential`; equals -rhs up to discretization error."""
    return lat.d1(grid, grad_potential(grid, b))


def vector_from_potential(b, mu):
    """The vector field X with i(X) rho = -mu, pointwise: P(rho)^-1 =
    -P(star rho) / pf(rho), so X is mu contracted into star rho over pf = u."""
    return ext.interior2(mu, ext.star2_flat(b.rho)) / b.u


def _khat(b, rhohat, k):
    """K_hat_i = (omega_i - K_i rho) ^ rhohat / dvol_rho, shape (3, ...)."""
    wr = np.stack([ext.wedge22(w, rhohat) for w in OMEGAS])
    return (wr - k * ext.wedge22(b.rho, rhohat)) / b.u


def _hessian_density(khat, k, u, rr):
    """sum_i (K_hat_i^2 u - K_i^2 rr / 2), with rr = rhohat ^ rhohat."""
    return np.sum(khat ** 2, axis=0) * u - 0.5 * np.sum(k ** 2, axis=0) * rr


def hessian_hk(grid, b, rhohat):
    """Hessian through the moment maps:
    integral of sum_i (K_hat_i^2 dvol_rho - K_i^2 rhohat^2 / 2)."""
    rhohat = np.asarray(rhohat)
    k = k_functions(b)
    khat = _khat(b, rhohat, k)
    return lat.integrate(
        grid, _hessian_density(khat, k, b.u, ext.wedge22(rhohat, rhohat)))


def _gradient(grid, x):
    """Flat derivatives dx[c, a] = partial_c x^a of the vector field x."""
    out = np.empty((4,) + np.shape(x))
    for a in range(4):
        out[:, a] = lat.d0(grid, x[a])
    return out


def _nabla(y, dx):
    """Flat covariant derivative along y of the field whose gradient is dx."""
    return np.einsum("c...,ca...->a...", y, dx)


def _omega_pair(i, x, y):
    """omega_i(x, y) = i(y) i(x) omega_i pointwise."""
    return ext.interior1(y, ext.interior2(x, OMEGAS[i]))


def hessiancov_check(grid, b, rhohat, mu):
    """Covariant-Hessian bookkeeping at (rho, rhohat).

    Evaluates the five integrals

        A = -1/2 int sum K_i^2 rhohat ^ rhohat
        B = int sum (i(X_Ki) omega_i) ^ (i(X) rho) ^ rhohat
        C = int sum omega_i(X, [X_Ki, X]) dvol_rho
        D = int sum (L_X K_i)^2 dvol_rho
        E = int sum H_hat_i (L_X K_i) dvol_rho

    whose ledger A + B + C + D = 2E holds in the continuum, together with
    both sides of the covariant-Hessian identity.  The Lie bracket uses the
    convention [Y, Z] = nabla_Z Y - nabla_Y Z and X solves i(X) rho = -mu
    with d mu = rhohat.  Returns a report dict.
    """
    rhohat, u = np.asarray(rhohat), b.u
    k = k_functions(b)
    dk = [lat.d0(grid, ki) for ki in k]
    x = vector_from_potential(b, mu)
    khat = _khat(b, rhohat, k)
    # H_hat_i = (d i(X) omega_i) ^ rho / dvol_rho
    hhat = np.stack([ext.wedge22(lat.d1(grid, ext.interior2(x, w)), b.rho)
                     for w in OMEGAS]) / b.u
    lxk = np.stack([ext.interior1(x, dki) for dki in dk])  # L_X K_i

    # the Hamiltonian fields X_Ki, i(X_Ki) rho = dK_i; each field is
    # dropped once the last term that reads it is taken
    xk = [-vector_from_potential(b, dki) for dki in dk]
    del dk
    ixrho = ext.interior2(x, b.rho)
    rr = ext.wedge22(rhohat, rhohat)

    a_val = lat.integrate(grid, -0.5 * np.sum(k ** 2, axis=0) * rr)
    b_val = 0.0
    d_val = lat.integrate(grid, np.sum(lxk ** 2, axis=0) * u)
    e_val = lat.integrate(grid, np.sum(hhat * lxk, axis=0) * u)
    hh = lat.integrate(grid, np.sum(hhat ** 2, axis=0) * u)
    kk = lat.integrate(grid, _hessian_density(khat, k, u, rr))
    del hhat, khat, k, lxk
    nab_kx = 0.0   # sum_i omega_i(X, nabla_{X_Ki} X) dvol_rho
    nab_xk = 0.0   # sum_i omega_i(X, nabla_X X_Ki) dvol_rho
    dx = _gradient(grid, x)
    for i in range(3):
        ixkw = ext.interior2(xk[i], OMEGAS[i])
        b_val += lat.integrate(
            grid, ext.wedge22(ext.wedge11(ixkw, ixrho), rhohat))
        cov_kx = _nabla(xk[i], dx)
        cov_xk = _nabla(x, _gradient(grid, xk[i]))
        nab_kx += lat.integrate(grid, _omega_pair(i, x, cov_kx) * u)
        nab_xk += lat.integrate(grid, _omega_pair(i, x, cov_xk) * u)
        xk[i] = None

    # [X_Ki, X] = nabla_X X_Ki - nabla_{X_Ki} X, and C is linear in it
    c_val = nab_xk - nab_kx
    abcde = a_val + b_val + c_val + d_val - 2.0 * e_val
    scale = sum(abs(v) for v in (a_val, b_val, c_val, d_val, 2 * e_val)) + 1e-300
    cov_lhs = hh + nab_kx
    cov_rhs = kk + b_val + nab_xk
    return {
        "A": a_val, "B": b_val, "C": c_val, "D": d_val, "E": e_val,
        "abcde_residual": abs(abcde),
        "abcde_relative": abs(abcde) / max(scale, 1e-14),
        "cov_lhs": cov_lhs,
        "cov_rhs": cov_rhs,
        "cov_residual": abs(cov_lhs - cov_rhs) / (abs(cov_lhs) + abs(cov_rhs) + 1e-14),
    }
