"""Pointwise exterior algebra and metric geometry of an oriented R^4.

Every operation here acts on a single tangent space.  A k-form is an array
with its components on the first axis, ``(c, *batch)``, so a point ``(c,)``
and a lattice field ``(c, n, n, n, n)`` go through the same code; scalars
and 4-forms have no component axis.  Linear maps and metrics keep their two
matrix axes last, ``(*batch, 4, 4)``, as ``@`` expects.

Component conventions (frozen; the rest of the package depends on them):

* vectors / 1-forms: 4 components in the coordinate basis ``d0..d3`` /
  ``e0..e3``.
* 2-forms: 6 components ordered ``(c01, c02, c03, c23, c31, c12)`` for the
  basis ``(e0^e1, e0^e2, e0^e3, e2^e3, e3^e1, e1^e2)``.  With this ordering
  the volume ratio of a 2-form is the sign-free sum of products
  ``u = c01*c23 + c02*c31 + c03*c12``.
* 3-forms: 4 components for the basis ``(e123, e023, e013, e012)``.
* 4-forms: one coefficient, multiple of ``e0^e1^e2^e3`` (the orientation).
* metrics: symmetric positive definite 4x4 matrices, orientation fixed so
  that ``e0^e1^e2^e3 > 0``.

All sign tables below were derived once from the permutation signs of the
bases above and are frozen here; the test suite re-derives them from a
brute-force permutation oracle.

The flow runs on the flat T^4, so the twisted stars, Theta and its
derivative, ``norm2_sq`` and ``sd_split`` are flat closed forms.  Only the
metric layer of the appendix A checks takes a metric ``g``: ``hodge1/2/3``,
``self_dual_basis``, ``u_of``, ``a_of`` and ``g_rho``.

The rho-twisted geometry takes its base point as a :class:`Base`: u is
checked once, when the Base is built, and never by a function taking it.

A metric argument is a :class:`Metric`, the one place a metric is
factored: it wraps one batch, factors it and checks its determinant when
it is built, as a Base checks u, and keeps its inverse, determinant,
volume and (built on first use) 2-form Gram matrix for as long as it
lives.  The determinant and inverse come from one pivoted LU,
:func:`lu4`: g_rho reaches condition numbers near 1e5, where cofactor
formulas raised the ``twisted_metric`` check's error from 2e-14..2e-13
to 6.1e-10 (tolerance 1e-9) and an unpivoted Cholesky factorization was
16 times less accurate than LU; over check seeds 0-24 no appendix A
record's largest error moved by more than 1.3 times from LAPACK's.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

U_FLOOR = 1e-10  # 2-forms with volume ratio u below this are treated as degenerate


class DegenerateForm(ValueError):
    """A 2-form failed a nondegeneracy precondition (u or Pfaffian too small)."""


class NonPositiveMetric(ValueError):
    """A matrix handed in as a metric has a nonpositive determinant."""


class NotPositivePlane(ValueError):
    """A triple of 2-forms does not span a positive definite wedge Gram matrix."""


# index pairs of the 2-form basis and index triples of the 3-form basis
IDX2 = ((0, 1), (0, 2), (0, 3), (2, 3), (3, 1), (1, 2))
IDX3 = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))

# wedge-dual pairing on 2-forms: E_I ^ E_{DUAL2[I]} = +dvol, all other pairs 0
DUAL2 = np.array([3, 4, 5, 0, 1, 2])

# e_i ^ f_i = W13_SIGN[i] * dvol  (f_i the i-th 3-form basis element)
W13_SIGN = np.array([1.0, -1.0, 1.0, -1.0])

# standard self-dual basis omega_i = e0^ei + ej^ek (i,j,k cyclic) and the
# anti-self-dual partners
OMEGA1 = np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
OMEGA2 = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
OMEGA3 = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 1.0])
OMEGA1_ASD = np.array([1.0, 0.0, 0.0, -1.0, 0.0, 0.0])
OMEGA2_ASD = np.array([0.0, 1.0, 0.0, 0.0, -1.0, 0.0])
OMEGA3_ASD = np.array([0.0, 0.0, 1.0, 0.0, 0.0, -1.0])


# ---------------------------------------------------------------------------
# wedge and interior products
# ---------------------------------------------------------------------------

def wedge13(l, f):
    """Wedge of a 1-form with a 3-form: coefficient of the output 4-form."""
    return np.einsum("i...,i,i...->...", np.asarray(l), W13_SIGN, np.asarray(f))


def wedge22(w1, w2):
    """Wedge of two 2-forms: coefficient of the output 4-form."""
    return np.einsum("i...,i...->...", np.asarray(w1), np.asarray(w2)[DUAL2])


def interior1(v, l):
    """Contraction of a 1-form with a vector (a scalar)."""
    return np.einsum("i...,i...->...", np.asarray(v), np.asarray(l))


# bilinear maps as tables of signed products v_a * w_J, one row per output
# component, each summed left to right as the expression it stands for

# wedge11: a0 b1 - a1 b0, a0 b2 - a2 b0, a0 b3 - a3 b0, a2 b3 - a3 b2,
# a3 b1 - a1 b3, a1 b2 - a2 b1
_WEDGE11 = (((1, 0, 1), (-1, 1, 0)), ((1, 0, 2), (-1, 2, 0)),
            ((1, 0, 3), (-1, 3, 0)), ((1, 2, 3), (-1, 3, 2)),
            ((1, 3, 1), (-1, 1, 3)), ((1, 1, 2), (-1, 2, 1)))

# wedge12: l1 w23 + l2 w31 + l3 w12, l0 w23 - l2 w03 + l3 w02,
# -l0 w31 - l1 w03 + l3 w01, l0 w12 - l1 w02 + l2 w01
_WEDGE12 = (((1, 1, 3), (1, 2, 4), (1, 3, 5)),
            ((1, 0, 3), (-1, 2, 2), (1, 3, 1)),
            ((-1, 0, 4), (-1, 1, 2), (1, 3, 0)),
            ((1, 0, 5), (-1, 1, 1), (1, 2, 0)))

# interior2: -v1 w01 - v2 w02 - v3 w03, v0 w01 - v2 w12 + v3 w31,
# v0 w02 + v1 w12 - v3 w23, v0 w03 - v1 w31 + v2 w23
_INTERIOR2 = (((-1, 1, 0), (-1, 2, 1), (-1, 3, 2)),
             ((1, 0, 0), (-1, 2, 5), (1, 3, 4)),
             ((1, 0, 1), (1, 1, 5), (-1, 3, 3)),
             ((1, 0, 2), (-1, 1, 4), (1, 2, 3)))


def _bilinear(v, w, table, out=None):
    """The form whose i-th component is the signed sum table[i] of
    products v_a * w_J, filled in place (into ``out``, if given, apart
    from v and w) through one scratch plane.  A leading minus negates v_a
    before the product, so each component is rounded exactly as the
    expression it stands for."""
    v, w = np.asarray(v), np.asarray(w)
    if out is None:
        out = np.empty((len(table),)
                       + np.broadcast_shapes(v.shape[1:], w.shape[1:]),
                       np.result_type(v, w))
    plane = np.empty_like(out[0, ...])
    v, w = list(v), list(w)
    for i, ((sign, a, j), *rest) in enumerate(table):
        y = out[i, ...]     # a view, also for a point (c,)
        if sign < 0:
            np.negative(v[a], out=y)
            np.multiply(y, w[j], out=y)
        else:
            np.multiply(v[a], w[j], out=y)
        for sign, a, j in rest:
            np.multiply(v[a], w[j], out=plane)
            (np.add if sign > 0 else np.subtract)(y, plane, out=y)
    return out


def wedge11(l1, l2):
    """Wedge of two 1-forms, as a 2-form."""
    return _bilinear(l1, l2, _WEDGE11)


def wedge12(l, w):
    """Wedge of a 1-form with a 2-form, as a 3-form."""
    return _bilinear(l, w, _WEDGE12)


def interior2(v, w):
    """Contraction of a 2-form with a vector, as a 1-form."""
    return _bilinear(v, w, _INTERIOR2)


def interior4(v, c):
    """Contraction of a 4-form coefficient with a vector, as a 3-form."""
    return star1_flat(v) * np.asarray(c)


# ---------------------------------------------------------------------------
# 2-forms as antisymmetric matrices
# ---------------------------------------------------------------------------

def form2_matrix(w):
    """Antisymmetric matrix P with P[i,j] = w(d_i, d_j), shape
    (*batch, 4, 4): each component w[c] is copied to P[IDX2[c]] and
    negated into its transpose, in one preallocated output."""
    w = np.asarray(w)
    out = np.zeros(w.shape[1:] + (4, 4), w.dtype)
    for c, (i, j) in enumerate(IDX2):
        out[..., i, j] = w[c]
        np.negative(w[c], out=out[..., j, i])
    return out


def pfaffian(w):
    """Pfaffian of the component matrix: c01*c23 + c02*c31 + c03*c12."""
    w01, w02, w03, w23, w31, w12 = np.asarray(w)
    return w01 * w23 + w02 * w31 + w03 * w12


def form2_matrix_inv(w):
    """Inverse of the component matrix of a nondegenerate 2-form.

    Uses the 4d identity P(w) @ P(dual w) = -pf(w) * Id, so no LU solve is
    needed; raises DegenerateForm where |pf(w)| <= U_FLOOR.
    """
    w = np.asarray(w)
    pf = require_pf(pfaffian(w))
    return -form2_matrix(w[DUAL2]) / pf[..., None, None]


# ---------------------------------------------------------------------------
# metrics and Hodge stars
# ---------------------------------------------------------------------------

def lu4(m, inverse=False):
    """Determinants of the 4x4 matrices m (*batch, 4, 4), or with
    ``inverse`` (det, inverses), by LU with partial pivoting (Golub & Van
    Loan, Matrix Computations, 3.4) on the 16 entries as contiguous planes
    of the batch.  One scan down each column swaps a row into the pivot
    place where its |entry| is strictly larger, so the pivot is the first
    maximal one, as in LAPACK's getrf; the rows below it are left in
    another order, so an exact tie in a later column (integer matrices)
    may pivot on another row, as accurately, differing in the last bit.
    The inverse swaps the multipliers with the rows and solves
    L U x = P e_c.  A zero pivot has zeros below it and takes zero
    multipliers: det exactly 0, no warning and a NaN inverse; a singular
    matrix whose elimination rounds instead reads a tiny det of either
    sign (-1.1e-15 on one in {-2..2}) and a finite inverse near 1/|det|,
    which a :class:`Metric` accepts where that det is positive.  NaN
    propagates."""
    m = np.asarray(m, dtype=float)
    size = m.size // 16
    a = np.empty((4, 4 + inverse, size))  # a[i, 4]: the row's place in m
    a[:, :4] = np.moveaxis(m.reshape(size, 4, 4), 0, -1)
    a[:, 4:] = np.arange(4)[:, None, None]
    odd, recip = np.zeros(size, bool), np.empty((4, size))
    for k in range(4):
        lo = 0 if inverse else k
        for r in range(k + 1, 4):
            sel = np.abs(a[r, k]) > np.abs(a[k, k])
            odd ^= sel
            a[k, lo:], a[r, lo:] = (np.where(sel, a[r, lo:], a[k, lo:]),
                                    np.where(sel, a[k, lo:], a[r, lo:]))
        np.divide(1.0, a[k, k] + (a[k, k] == 0), out=recip[k])
        a[k + 1:, k] *= recip[k]
        a[k + 1:, k + 1:4] -= a[k + 1:, k, None] * a[k, k + 1:4]
    det = np.where(odd, -1.0, 1.0) * a[0, 0] * a[1, 1] * a[2, 2] * a[3, 3]
    if not inverse:
        return det.reshape(m.shape[:-2])
    x = (a[:, 4, None] == np.arange(4)[:, None]).astype(float)  # P e_c
    for i in range(4):
        for j in range(i):
            x[i] -= a[i, j] * x[j]
    for i in range(3, -1, -1):
        for j in range(i + 1, 4):
            x[i] -= a[i, j] * x[j]
        x[i] *= recip[i]
    x[..., det == 0] = np.nan
    return det.reshape(m.shape[:-2]), np.moveaxis(x, -1, 0).reshape(m.shape)


class Metric:
    """A metric batch ``g`` of shape (*batch, 4, 4), factored by one
    :func:`lu4` call when it is built: its inverse ``inv``, determinant
    ``det`` and ``vol``, the coefficient of the volume form dvol_g
    (orientation e0123 > 0).  Raises NonPositiveMetric unless every det is
    positive."""

    def __init__(self, g):
        self.g = np.asarray(g)
        self.det, self.inv = lu4(self.g, inverse=True)
        if not np.all(self.det > 0):  # NaN fails too
            raise NonPositiveMetric("metric determinant is not positive "
                                    f"(min {self.det.min():.3e})")
        self.vol = np.sqrt(self.det)

    @cached_property
    def form2(self):
        """Inner product matrix on 2-forms: the 6x6 Gram matrix of the 2-form
        basis under g^{-1}."""
        rows = np.moveaxis(self.inv, -1, 0)  # rows[j, ..., i] = inv[..., i, j]
        i1, i2 = np.array(IDX2).T
        # minor (I, J) is the J-component of row_i1 ^ row_i2; np.take
        # gathers each side C-contiguous, where rows[..., i1] would leave
        # every component plane strided
        return np.moveaxis(wedge11(np.take(rows, i1, axis=-1),
                                   np.take(rows, i2, axis=-1)), 0, -1)


def norm2_sq(w):
    """Squared Euclidean norm of a 2-form."""
    w = np.asarray(w)
    return np.einsum("i...,i...->...", w, w)


def hodge1(g, l):
    """Hodge star of a 1-form, as a 3-form."""
    y = np.einsum("...ij,j...->i...", g.inv, np.asarray(l))
    return g.vol * star1_flat(y)


def hodge2(g, w):
    """Hodge star of a 2-form, as a 2-form.

    Defined through a ^ (star b) = <a, b>_g dvol_g; for the Euclidean metric
    this swaps the (c01,c02,c03) and (c23,c31,c12) triples.
    """
    y = np.einsum("...ij,j...->i...", g.form2, np.asarray(w))
    return g.vol * y[DUAL2]


def hodge3(g, f):
    """Hodge star of a 3-form, as a 1-form (inverse of hodge1 up to sign)."""
    return np.einsum("...ij,j...->i...", g.g, star3_flat(f)) / g.vol


def star1_flat(l):
    """Flat Hodge star of a 1-form, W13_SIGN[i] * l[i]."""
    l = np.asarray(l)
    return W13_SIGN.reshape((4,) + (1,) * (l.ndim - 1)) * l


def star2_flat(w):
    return np.asarray(w)[DUAL2]


def star3_flat(f):
    return -star1_flat(f)


def sd_split(w):
    """Flat self-dual / anti-self-dual split w = w_plus + w_minus."""
    w = np.asarray(w, dtype=float)
    sw = star2_flat(w)
    plus = w + sw  # halved in place: one field per half, no temporaries
    plus *= 0.5
    minus = w - sw
    minus *= 0.5
    return plus, minus


def self_dual_basis(g):
    """Wedge-orthonormal basis of the self-dual 2-forms of g.

    Returns shape (6, ..., 3), the three forms stacked on the last axis,
    with basis_a ^ basis_b = 2 delta_ab dvol_g: the flat omega_a projected
    by (1 + star_g) / 2, which is injective on them since they are
    wedge-positive and its kernel, the g-anti-self-dual forms, is not.
    """
    unit = (6,) + (1,) * (g.g.ndim - 2)
    plus = [(w.reshape(unit) + hodge2(g, w)) / 2
            for w in (OMEGA1, OMEGA2, OMEGA3)]
    return np.stack(_wedge_gram_schmidt(plus, g.vol), axis=-1)


# ---------------------------------------------------------------------------
# the rho-dependent geometry
# ---------------------------------------------------------------------------

def u_of(rho, g=None):
    """Volume ratio u = (rho ^ rho) / (2 dvol_g).  May be <= 0."""
    u = pfaffian(np.asarray(rho))
    if g is None:
        return u
    return u / g.vol


def a_of(rho, g=None):
    """Linear map A with g(A v, w) = rho(v, w); det A = u^2.

    In column-vector convention A = G^{-1} P^T with P the component matrix,
    so for rho = omega1 and the Euclidean metric A is the standard complex
    structure (A d0 = d1, A d2 = d3, squares to -1).
    """
    pt = np.swapaxes(form2_matrix(np.asarray(rho)), -1, -2)
    return pt if g is None else g.inv @ pt


def _require_above_floor(size, what, least):
    """Raise DegenerateForm, naming the first index, where size <= U_FLOOR
    or is not finite."""
    ok = (size > U_FLOOR) & (size < np.inf)   # False at NaN
    if not np.all(ok):
        bad = np.argwhere(~np.atleast_1d(ok))
        first = tuple(int(i) for i in bad[0])
        raise DegenerateForm(   # the least value skips NaN
            f"{what} <= {U_FLOOR:g} or not finite at {bad.shape[0]} point(s) "
            f"({np.count_nonzero(~np.isfinite(size))} not finite), first "
            f"index {first}, {least} = {np.fmin.reduce(size, axis=None):.3e}")


def require_u(u):
    """Return the volume ratio u; raise DegenerateForm, naming the first
    offending index, where u <= U_FLOOR or is not finite."""
    _require_above_floor(u, "volume ratio u", "u_min")
    return u


def require_pf(pf):
    """Return the Pfaffian pf; raise DegenerateForm, naming the first
    offending index, where |pf| <= U_FLOOR (rho ^ rho vanishes) or is
    not finite."""
    _require_above_floor(np.abs(pf), "Pfaffian |pf|", "min |pf|")
    return pf


class Base:
    """A base point ``rho`` of the rho-twisted geometry and its volume
    ratio ``u``, checked by :func:`require_u` when the Base is built."""

    def __init__(self, rho):
        self.rho = np.asarray(rho)
        self.u = require_u(u_of(self.rho))


def g_rho(rho, g=None):
    """The unique metric with the volume form of g whose self-dual forms are
    the R^rho image of the self-dual forms of g.

    g_rho(v, w) = u^{-1} g(Av, Aw), which with A = g^{-1} P^T is the closed
    form P g^{-1} P^T / u, computed as that product of batched matrices,
    left to right (P P^T / u for the flat metric, g None); requires
    u > U_FLOOR.
    """
    rho = np.asarray(rho)
    u = require_u(u_of(rho, g))
    p = form2_matrix(rho)
    pt = np.swapaxes(p, -1, -2)
    gram = p @ pt if g is None else p @ g.inv @ pt
    gram /= u[..., None, None]
    return gram


def r_rho(w, b):
    """Wedge-preserving involution R w = w - (w^rho / dvol_rho) rho.

    Sends rho to -rho and fixes the wedge-orthogonal complement of rho.
    Metric independent.
    """
    return w - wedge22(w, b.rho) / b.u * b.rho


# wedge12(star3_flat(y), w) as a table on y: -W13_SIGN folded into its signs
_STAR3_WEDGE12 = tuple(tuple((-sign * int(W13_SIGN[a]), a, j)
                             for sign, a, j in row) for row in _WEDGE12)


def star_rho1(l, b, out=None):
    """rho-twisted Hodge star on 1-forms: rho ^ star(rho ^ l) / u.

    Agrees with the Hodge star of g_rho(rho).  The flat star's signs are
    folded into the table of the wedge12 that reads it (exact: they are
    +-1), which writes into ``out`` if given, l itself allowed; the
    division by u is in place.
    """
    out = _bilinear(_bilinear(l, b.rho, _WEDGE12), b.rho, _STAR3_WEDGE12,
                    out)
    out /= b.u
    return out


def star_rho2(w, b):
    """rho-twisted Hodge star on 2-forms: R star R, an involution."""
    return r_rho(star2_flat(r_rho(w, b)), b)


# interior2(star1_flat(f), w) as a table on f: W13_SIGN folded into its signs
_STAR1_INTERIOR2 = tuple(tuple((sign * int(W13_SIGN[a]), a, j)
                               for sign, a, j in row) for row in _INTERIOR2)


def star_rho3(f, b):
    """rho-twisted Hodge star on 3-forms, the Hodge star of g_rho(rho).

    Closed form -P P^T (W13_SIGN f) / u, with P the component matrix of
    rho: g_rho = P P^T / u, and its volume is 1 since det P = u^2.  Since
    P^T y is the contraction of rho with y, and -P z that of rho with z, no
    matrix is built.  Satisfies star_rho3(star_rho1(l)) = -l.

    The signs of the flat star are folded into the first contraction's
    table (exact: they are +-1), and the division by u is in place.
    """
    out = interior2(_bilinear(f, b.rho, _STAR1_INTERIOR2), b.rho)
    out /= b.u
    return out


def theta_point(b):
    """The 2-form Theta = star(rho/u) - (|rho/u|^2 / 2) rho at the Base b.

    Wedge-orthogonal to rho; vanishes exactly when rho is self-dual.
    star(rho) / u is two slice divisions, as the flat star swaps the
    triples (0, 1, 2) and (3, 4, 5); the rest is subtracted in place,
    one component at a time through one scratch plane.
    """
    rho, u = b.rho, b.u
    out = np.empty(rho.shape, np.result_type(rho, u, 1.0))
    np.divide(rho[3:], u, out=out[:3])
    np.divide(rho[:3], u, out=out[3:])
    coeff = 0.5 * norm2_sq(rho) / u ** 2
    plane = np.empty_like(coeff)
    for i in range(6):
        y = out[i, ...]     # a view, also for a point (6,)
        y -= np.multiply(coeff, rho[i], out=plane)
    return out


def theta_dot_point(b, rhohat):
    """Directional derivative of theta_point at b in direction rhohat:

        (rhohat + star_rho rhohat) / u - |rho^+ / u|^2 rhohat,

    with |rho^+|^2 = |rho|^2 / 2 + u, as |rho^+|^2 - |rho^-|^2 = 2u.
    """
    rhohat, u = np.asarray(rhohat), b.u
    coeff = (0.5 * norm2_sq(b.rho) + u) / u ** 2
    return (rhohat + star_rho2(rhohat, b)) / u - coeff * rhohat


def j_rho(jmap, rho):
    """The unique linear map M with rho(M v, w) = rho(v, J w).

    M = (P J P^{-1})^T for P the component matrix of rho.
    """
    rho = np.asarray(rho)
    m = form2_matrix(rho) @ np.asarray(jmap) @ form2_matrix_inv(rho)
    return np.swapaxes(m, -1, -2)


def quaternion_triple(w1, w2, w3):
    """Solve the cyclic relations w2(., J3 .) = w1, w3(., J1 .) = w2,
    w1(., J2 .) = w3 for the three linear maps (J1, J2, J3).

    When the inputs wedge-pairwise vanish and share a common square the
    outputs satisfy the quaternion relations Ji^2 = -1, Jj Jk = -Jk Jj = Ji.
    """
    ws = [np.asarray(w) for w in (w1, w2, w3)]
    ps = [form2_matrix(w) for w in ws]
    inv = [form2_matrix_inv(w) for w in ws]
    return inv[2] @ ps[1], inv[0] @ ps[2], inv[1] @ ps[0]


def _wedge_gram_schmidt(forms, vol):
    """Orthonormalize three 2-forms to w_i ^ w_j = 2 delta_ij vol."""
    out = []
    for a, w in enumerate(forms):
        for b in range(a):
            w = w - wedge22(w, out[b]) / (2.0 * vol) * out[b]
        sq = wedge22(w, w) / (2.0 * vol)
        if not np.all(sq > 1e-10):  # NaN fails too
            raise NotPositivePlane(f"wedge Gram pivot {a} fell below 1e-10")
        out.append(w / np.sqrt(sq))
    return out


def metric_from_vol_and_plane(vol, basis):
    """Reconstruct the unique metric with volume form ``vol`` whose self-dual
    2-forms are spanned by ``basis``.

    Parameters
    ----------
    vol : array (...,)
        Positive coefficient of the target volume form.
    basis : array (6, ..., 3)
        Three 2-forms stacked on the last axis, spanning a positive
        subspace: their wedge Gram matrix divided by ``vol`` must be
        positive definite.

    Returns
    -------
    array (..., 4, 4), the metric matrix.  Postconditions: its volume
    coefficient equals ``vol`` and each basis element is self-dual for it.
    """
    vol = np.asarray(vol, dtype=float)
    basis = np.asarray(basis, dtype=float)
    if not np.all(vol > 0):
        raise NotPositivePlane("volume form must be positive")
    # its pivots are the ratios of the Gram matrix's leading minors, so it
    # raises NotPositivePlane unless the Gram matrix is positive definite
    w1, w2, w3 = _wedge_gram_schmidt(np.moveaxis(basis, -1, 0), vol)
    # J1 of quaternion_triple, w3(., J1 .) = w2, alone
    j1 = form2_matrix_inv(w3) @ form2_matrix(w2)

    # w1(., J1 .) is the metric up to sign; a definite form has the sign of
    # its trace
    cand = form2_matrix(w1) @ j1
    gm = np.sign(np.trace(cand, axis1=-2, axis2=-1))[..., None, None] * cand
    return 0.5 * (gm + np.swapaxes(gm, -1, -2))
