"""Brute-force oracles for the exterior algebra, lattice and flow tests.

Everything here works on fully antisymmetric index tensors and enumerates
permutations, sums sampled cosines mode by mode, runs a scalar recurrence
or eliminates in exact rational arithmetic, so it shares no code (and no
sign tables) with the package.  The exceptions come last: the lattice
and hyperkaehler names that only tests read, and the full-field CG, kept
to check how the package's solve stores and updates its vectors.
"""

import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np

from donflow import exterior as ext
from donflow import hyperkahler as hk
from donflow import lattice as lat
from donflow.exterior import IDX2, IDX3


def perm_sign(p):
    sign = 1
    p = list(p)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def _basis_indices(k):
    if k == 0:
        return ((),)
    if k == 1:
        return ((0,), (1,), (2,), (3,))
    if k == 2:
        return IDX2
    if k == 3:
        return IDX3
    return ((0, 1, 2, 3),)


def form_to_tensor(comps, k):
    """Components in the package's basis order -> antisymmetric tensor."""
    if k == 0:
        return float(np.asarray(comps).reshape(()))
    comps = np.atleast_1d(np.asarray(comps, dtype=float))
    t = np.zeros((4,) * k)
    for c, idx in zip(comps, _basis_indices(k)):
        for p in permutations(range(k)):
            t[tuple(idx[i] for i in p)] += perm_sign(p) * c
    return t


def tensor_to_form(t, k):
    if k == 0:
        return float(t)
    t = np.asarray(t)
    return np.array([t[idx] for idx in _basis_indices(k)])


def wedge_tensor(t1, k1, t2, k2):
    """Wedge product of antisymmetric tensors by permutation summation."""
    k = k1 + k2
    norm = math.factorial(k1) * math.factorial(k2)
    if k1 == 0:
        return float(t1) * np.asarray(t2)
    if k2 == 0:
        return np.asarray(t1) * float(t2)
    t1, t2 = np.asarray(t1), np.asarray(t2)
    out = np.zeros((4,) * k)
    for idx in np.ndindex(*((4,) * k)):
        acc = 0.0
        for p in permutations(range(k)):
            ii = tuple(idx[i] for i in p)
            acc += perm_sign(p) * t1[ii[:k1]] * t2[ii[k1:]]
        out[idx] = acc / norm
    return out


def interior_tensor(v, t, k):
    """Contraction with a vector in the first slot."""
    v, t = np.asarray(v), np.asarray(t)
    if k == 1:
        return float(v @ t)
    return np.tensordot(v, t, axes=(0, 0))


def levi_civita():
    eps = np.zeros((4, 4, 4, 4))
    for p in permutations(range(4)):
        eps[p] = perm_sign(p)
    return eps


_EPS = levi_civita()


def _raise_indices(ginv, t, k):
    up = np.asarray(t)
    for ax in range(k):
        up = np.moveaxis(np.tensordot(ginv, up, axes=(1, ax)), 0, ax)
    return up


def hodge_tensor(g, t, k):
    """Hodge star via index raising and the Levi-Civita symbol."""
    g = np.asarray(g)
    s = np.sqrt(np.linalg.det(g))
    if k == 0:
        return float(t) * s * _EPS
    up = _raise_indices(np.linalg.inv(g), t, k)
    out = np.tensordot(up, _EPS, axes=(tuple(range(k)), tuple(range(k))))
    out = out * s / math.factorial(k)
    return float(out) if k == 4 else out


def inner_tensor(g, t1, t2, k):
    """Metric inner product of two k-form tensors."""
    up = _raise_indices(np.linalg.inv(np.asarray(g)), t2, k)
    return float(np.tensordot(np.asarray(t1), up, axes=k)) / math.factorial(k)


def trig_field_direct(rng, kmax, ncomp, n):
    """Reference for ``lattice.random_trig_field(rng, kmax, ncomp)`` on the
    n^4 lattice: the same draws (one mode per antipodal pair in lexicographic
    order, then amplitudes, then phases), summed cosine by cosine.  Returned
    component-first, ``(ncomp, n, n, n, n)``."""
    modes = [k for k in product(range(-kmax, kmax + 1), repeat=4)
             if any(k) and next(c for c in k if c) > 0]
    amps = rng.normal(size=(len(modes), ncomp))
    phases = rng.uniform(0, 2 * np.pi, size=(len(modes), ncomp))
    x = np.arange(n) / n
    out = np.zeros((n,) * 4 + (ncomp,))
    for k, a, ph in zip(modes, amps, phases):
        arg = 2 * np.pi * (k[0] * x[:, None, None, None] + k[1] * x[:, None, None]
                           + k[2] * x[:, None] + k[3] * x)
        out += a * np.cos(arg[..., None] + ph)
    return np.moveaxis(out, -1, 0)


def _scheme_b(n, scheme):
    """b(k) along one axis in fft order: i b(k) is the derivative symbol,
    0 at the Nyquist frequency."""
    k = np.fft.fftfreq(n) * n
    b = 2 * np.pi * k if scheme == "spectral" else n * np.sin(2 * np.pi * k / n)
    b[np.abs(k) == n // 2] = 0.0
    return b


def _wedge_map(a, k):
    """Matrix of alpha -> e_a ^ alpha from degree k to k + 1, in the
    package's component order."""
    e_a = np.eye(4)[a]
    basis = np.eye(math.comb(4, k))
    cols = [np.atleast_1d(tensor_to_form(
        wedge_tensor(e_a, 1, form_to_tensor(col, k), k), k + 1)) for col in basis]
    return np.array(cols, dtype=float).T


def d_fourier(grid, f, k, adjoint=False):
    """Reference for ``lattice.d(grid, f, k)``: d f = sum_a e_a ^ d/dx_a f,
    each d/dx_a the multiplier i b(k_a) applied with a complex fftn/ifftn
    over the lattice.  With ``adjoint`` it applies the flat L2 adjoint
    instead, from degree k + 1 to k (``lattice.delta2`` for k = 1).  Takes
    and returns component-first fields and works component-last inside."""
    n = grid.n
    b = _scheme_b(n, grid.scheme)
    src, dst = (k + 1, k) if adjoint else (k, k + 1)
    f = np.moveaxis(np.asarray(f, dtype=float).reshape(
        (math.comb(4, src),) + (n,) * 4), 0, -1)
    fk = np.fft.fftn(f, axes=(0, 1, 2, 3))
    out = np.zeros((n,) * 4 + (math.comb(4, dst),))
    for a in range(4):
        shape = [1] * 5
        shape[a] = n
        df = np.fft.ifftn(1j * b.reshape(shape) * fk, axes=(0, 1, 2, 3)).real
        w = _wedge_map(a, k)
        # d/dx is antisymmetric, so the adjoint of e_a ^ d/dx_a is -w.T d/dx_a
        out += -df @ w if adjoint else df @ w.T
    return out[..., 0] if out.shape[-1] == 1 else np.moveaxis(out, -1, 0)


def harmonic_fourier(n, f):
    """Reference for :func:`harmonic_projection` on the n^4 lattice:
    one complex fftn over the lattice axes, every mode with some k_i
    outside {0, n/2} set to zero, one ifftn."""
    k = np.abs(np.fft.fftfreq(n) * n)
    keep = (k == 0) | (k == n // 2)
    mask = np.ones((n,) * 4, dtype=bool)
    for a in range(4):
        mask &= keep.reshape([n if b == a else 1 for b in range(4)])
    fk = np.fft.fftn(np.asarray(f), axes=(-4, -3, -2, -1))
    return np.fft.ifftn(fk * mask, axes=(-4, -3, -2, -1)).real


def laplace_fourier(n, scheme):
    """Symbol sum_a b(k_a)^2 of minus the scheme Laplacian on the complex
    fftn spectrum of the n^4 lattice, shape (n, n, n, n)."""
    b2 = _scheme_b(n, scheme) ** 2
    return sum(b2.reshape([n if b == a else 1 for b in range(4)])
               for a in range(4))


def fourier_multiply(f, mult):
    """Reference for a real Fourier multiplier: one complex fftn over the
    last four (lattice) axes, the product with ``mult`` given on that
    spectrum, one ifftn, the real part."""
    fk = np.fft.fftn(np.asarray(f), axes=(-4, -3, -2, -1))
    return np.fft.ifftn(fk * mult, axes=(-4, -3, -2, -1)).real


def etd_amplitudes(lam, lap, hs, y0, nodes=40):
    """Amplitudes y_1..y_K of one Fourier mode, whose flat Laplace symbol
    is ``lap``, under exponential steps of sizes ``hs`` on y' = F(y) =
    -lam y.

    The linear part -lap y is integrated exactly and N(y) = F(y) + lap y
    through its interpolant: step k (from 0) takes the Lagrange polynomial
    p through N at t_k, ..., t_{k+1-q}, q = min(k + 1, 3), and

        y_{k+1} = e^{-h lap} y_k + integral_0^h e^{-(h - s) lap} p(t_k + s) ds,

    the variation of constants, by Gauss-Legendre quadrature on ``nodes``
    points (exact to round-off for a quadratic times the exponential while
    h lap is of order one).
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    ys, times = [float(y0)], [0.0]
    for h in hs:
        q = min(len(ys), 3)
        s = 0.5 * h * (x + 1.0) + times[-1]
        past = list(zip(times[-q:], ys[-q:]))
        poly = sum((lap - lam) * y * np.prod([(s - tm) / (tj - tm)
                                              for tm, _ in past if tm != tj],
                                             axis=0)
                   for tj, y in past)
        kernel = np.exp(-(times[-1] + h - s) * lap)
        ys.append(math.exp(-h * lap) * ys[-1]
                  + 0.5 * h * float(np.sum(w * kernel * poly)))
        times.append(times[-1] + h)
    return ys[1:]


# wedge11, wedge12, interior2, form2_matrix, star_rho3 and theta_point as
# stacked textbook expressions, a temporary per term.  The package fills
# the same sums in place, term by term in the same order, so its results
# must equal these bit for bit; omega_pair_matrix, the pairing of a
# constant 2-form through its matrix, agrees with hyperkahler's
# contractions to round-off.

def wedge11_stacked(l1, l2):
    a0, a1, a2, a3 = np.asarray(l1)
    b0, b1, b2, b3 = np.asarray(l2)
    return np.stack([
        a0 * b1 - a1 * b0,
        a0 * b2 - a2 * b0,
        a0 * b3 - a3 * b0,
        a2 * b3 - a3 * b2,
        a3 * b1 - a1 * b3,
        a1 * b2 - a2 * b1,
    ])


def wedge12_stacked(l, w):
    l0, l1, l2, l3 = np.asarray(l)
    w01, w02, w03, w23, w31, w12 = np.asarray(w)
    return np.stack([
        l1 * w23 + l2 * w31 + l3 * w12,
        l0 * w23 - l2 * w03 + l3 * w02,
        -l0 * w31 - l1 * w03 + l3 * w01,
        l0 * w12 - l1 * w02 + l2 * w01,
    ])


def form2_matrix_stacked(w):
    w01, w02, w03, w23, w31, w12 = np.asarray(w)
    z = np.zeros_like(w01)
    rows = [
        np.stack([z, w01, w02, w03], axis=-1),
        np.stack([-w01, z, w12, -w31], axis=-1),
        np.stack([-w02, -w12, z, w23], axis=-1),
        np.stack([-w03, w31, -w23, z], axis=-1),
    ]
    return np.stack(rows, axis=-2)


def interior2_stacked(v, w):
    v0, v1, v2, v3 = np.asarray(v)
    w01, w02, w03, w23, w31, w12 = np.asarray(w)
    return np.stack([
        -v1 * w01 - v2 * w02 - v3 * w03,
        v0 * w01 - v2 * w12 + v3 * w31,
        v0 * w02 + v1 * w12 - v3 * w23,
        v0 * w03 - v1 * w31 + v2 * w23,
    ])


def omega_pair_matrix(w, x, y):
    """w(x, y) as x^T P y, with P the antisymmetric matrix of w."""
    return np.einsum("a...,ab,b...->...", x, form2_matrix_stacked(w), y)


def star_rho3_stacked(f, rho, u):
    f = np.asarray(f)
    signs = np.array([1.0, -1.0, 1.0, -1.0]).reshape((4,) + (1,) * (f.ndim - 1))
    star1 = signs * f
    return interior2_stacked(interior2_stacked(star1, rho), rho) / u


def theta_point_stacked(rho, u):
    rho = np.asarray(rho)
    norm_sq = np.einsum("i...,i...->...", rho, rho)
    return rho[[3, 4, 5, 0, 1, 2]] / u - (0.5 * norm_sq / u ** 2) * rho


# the metric layer as direct expressions: Metric.form2's minors read
# through fancy-indexed (strided) views of the inverse, and g_rho as one
# three-operand einsum

def metric_form2_strided(inv):
    """Gram matrix of the 2-form basis under the inverse metric ``inv``:
    minor (I, J) is the J-component of row_i1 ^ row_i2."""
    rows = np.moveaxis(inv, -1, 0)
    i1, i2 = np.array(IDX2).T
    return np.moveaxis(wedge11_stacked(rows[..., i1], rows[..., i2]), 0, -1)


def g_rho_einsum(rho, inv, vol):
    """P g^-1 P^T / u, u = pf(rho) / vol."""
    w01, w02, w03, w23, w31, w12 = np.asarray(rho)
    u = (w01 * w23 + w02 * w31 + w03 * w12) / vol
    p = form2_matrix_stacked(rho)
    gram = np.einsum("...ik,...kl,...jl->...ij", p, inv, p)
    return gram / u[..., None, None]


def star_rho1_stacked(l, rho, u):
    """rho ^ star(rho ^ l) / u, the flat star a sign table between two
    stacked wedges."""
    y = wedge12_stacked(l, rho)
    signs = np.array([1.0, -1.0, 1.0, -1.0]).reshape((4,) + (1,) * (y.ndim - 1))
    return wedge12_stacked(-(signs * y), rho) / u


def exact_det_inv(m):
    """Determinant and inverse of one 4x4 float matrix by Gauss-Jordan
    elimination in exact rational arithmetic, each rounded once to a
    float at the end; a singular matrix gives det 0 and a NaN inverse."""
    a = [[Fraction(float(x)) for x in row] + [Fraction(int(i == j))
                                              for j in range(4)]
         for i, row in enumerate(np.asarray(m))]
    det = Fraction(1)
    for k in range(4):
        p = next((r for r in range(k, 4) if a[r][k] != 0), None)
        if p is None:
            return 0.0, np.full((4, 4), np.nan)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        det *= a[k][k]
        a[k] = [x / a[k][k] for x in a[k]]
        for r in range(4):
            if r != k:
                a[r] = [x - a[r][k] * y for x, y in zip(a[r], a[k])]
    return float(det), np.array([[float(x) for x in row[4:]] for row in a])


# lattice's test-only names: zero forms, the coordinates of the sites and
# the projection onto the discrete-harmonic modes

def zeros(grid, k):
    """The zero k-form field on the lattice."""
    c = lat.FORM_COMPS[k]
    return np.zeros(grid.shape if c == 1 else (c,) + grid.shape)


def coords(grid):
    """Coordinate arrays x0..x3 of the sites, each broadcastable to the
    lattice."""
    x = np.arange(grid.n) / grid.n
    return [x.reshape([grid.n if ax == i else 1 for i in range(4)])
            for ax in range(4)]


def harmonic_projection(grid, f):
    """Project onto the discrete-harmonic modes (all derivative symbols zero).

    For either scheme these are the Fourier modes with every k_i in
    {0, n/2}; they span the kernel of d on each degree, with the constants
    as the k = 0 member: the fields unchanged by a two-site shift, so the
    projection is the package's mean over each of the 16 parity classes of
    sites (``lattice._class_means``), broadcast back.
    """
    means = lat._class_means(grid, f)
    return np.broadcast_to(means, means.shape[:-8] + (grid.n // 2, 2) * 4
                           ).reshape(np.shape(f))


# hyperkahler's test-only names: the quaternionic complex structures
# (left multiplication by i, j, k) solving the cyclic compatibility
# relations, the linearized moment maps and the Lie derivative of K

J1, J2, J3 = ext.quaternion_triple(ext.OMEGA1, ext.OMEGA2, ext.OMEGA3)
JS = np.stack([J1, J2, J3])


def khat_hhat(grid, b, rhohat, x):
    """Linearized moment maps along rhohat and along the flow of X,

        K_hat_i = (omega_i - K_i rho) ^ rhohat / dvol_rho,
        H_hat_i = (d i(X) omega_i) ^ rho / dvol_rho,

    with X any vector field of -d i(X) rho = rhohat; two (3, ...) arrays."""
    rr = ext.wedge22(b.rho, rhohat)
    khat = np.stack([ext.wedge22(w, rhohat) - ki * rr
                     for w, ki in zip(hk.OMEGAS, hk.k_functions(b))])
    hhat = np.stack([ext.wedge22(lat.d1(grid, ext.interior2(x, w)), b.rho)
                     for w in hk.OMEGAS])
    return khat / b.u, hhat / b.u


def lie_derivative_k(grid, b, x):
    """L_X K_i = i(X) dK_i, shape (3, ...)."""
    return np.stack([ext.interior1(x, lat.d0(grid, ki))
                     for ki in hk.k_functions(b)])


# the textbook form of lattice.least_norm_potential: CG on full fields,
# with the harmonic part nu a (4, n, n, n, n) field kept in the harmonic
# subspace by projecting every nu iterate, and fresh Krylov vectors each
# step.  It runs on the package's operators, so it checks the
# representation of nu and the in-place updates, not d or the star

def least_norm_potential_full(grid, rhohat, b, rtol=1e-10, max_iter=None):
    """The gauge-fixed potential and the number of CG iterations taken."""
    lam0 = lat.exact_potential_flat(grid, rhohat)
    if max_iter is None:
        max_iter = 50 * grid.n

    def apply_b(phi, nu):
        return lat.d0(grid, phi) + nu

    def apply_bt(w3):
        return -lat.d3(grid, w3), harmonic_projection(
            grid, -ext.star3_flat(w3))

    def normal_op(phi, nu):
        return apply_bt(ext.star_rho1(apply_b(phi, nu), b))

    b_phi, b_nu = apply_bt(ext.star_rho1(lam0, b))
    r_phi, r_nu = -b_phi, -b_nu
    phi = np.zeros(grid.shape)
    nu = zeros(grid, 1)
    z_phi, z_nu = lat.inv_laplace(grid, r_phi), r_nu
    p_phi, p_nu = z_phi.copy(), z_nu.copy()
    rz = float(np.sum(r_phi * z_phi) + np.sum(r_nu * z_nu))
    r0 = math.sqrt(float(np.sum(r_phi ** 2) + np.sum(r_nu ** 2)))
    lam_scale = math.sqrt(float(np.sum(lam0 ** 2))) + 1e-300

    def converged(rnorm, rz_val):
        return (rnorm <= rtol * r0
                or math.sqrt(max(rz_val, 0.0)) <= rtol * lam_scale)

    if r0 == 0.0 or converged(r0, rz):
        return lam0, 0
    for it in range(1, max_iter + 1):
        q_phi, q_nu = normal_op(p_phi, p_nu)
        alpha = rz / float(np.sum(p_phi * q_phi) + np.sum(p_nu * q_nu))
        phi += alpha * p_phi
        nu += alpha * p_nu
        r_phi -= alpha * q_phi
        r_nu -= alpha * q_nu
        rnorm = math.sqrt(float(np.sum(r_phi ** 2) + np.sum(r_nu ** 2)))
        z_phi, z_nu = lat.inv_laplace(grid, r_phi), r_nu
        rz_new = float(np.sum(r_phi * z_phi) + np.sum(r_nu * z_nu))
        if converged(rnorm, rz_new):
            return lam0 + apply_b(phi, nu), it
        beta = rz_new / rz
        rz = rz_new
        p_phi = z_phi + beta * p_phi
        p_nu = z_nu + beta * p_nu
    raise lat.NoConvergence(f"no convergence in {max_iter} steps")
