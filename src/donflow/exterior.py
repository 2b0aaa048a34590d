"""Pointwise exterior algebra and metric geometry of an oriented R^4.

Every operation here acts on a single tangent space.  A k-form is an array
with its components on the first axis, ``(c, *batch)``, so a point ``(c,)``
and a lattice field ``(c, n, n, n, n)`` go through the same code; scalars
and 4-forms have no component axis.  Linear maps and metrics keep their two
matrix axes last, ``(*batch, 4, 4)``, as ``numpy.linalg`` and ``@`` expect.

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

The determinant, inverse and solve of a metric stay LAPACK's: g_rho reaches
condition numbers near 1e5, where cofactor formulas raised the
``twisted_metric`` check's error from 2e-14..2e-13 to 6.1e-10 (tolerance
1e-9) and an unpivoted Cholesky factorization was 16 times less accurate
than LU.  :class:`Metric` is the one place a metric is factored: it keeps
its inverse, determinant, volume and 2-form Gram matrix for as long as it
lives, and every function taking a metric ``g`` accepts an array or a
``Metric``, so a caller that wraps a batch once factors it once.  Only
``a_of``'s solve is not shared.
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

EUCLID = np.eye(4)

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

def wedge11(a, b):
    """Wedge of two 1-forms, as a 2-form."""
    a0, a1, a2, a3 = np.asarray(a)
    b0, b1, b2, b3 = np.asarray(b)
    return np.stack([
        a0 * b1 - a1 * b0,
        a0 * b2 - a2 * b0,
        a0 * b3 - a3 * b0,
        a2 * b3 - a3 * b2,
        a3 * b1 - a1 * b3,
        a1 * b2 - a2 * b1,
    ])


def wedge12(l, w):
    """Wedge of a 1-form with a 2-form, as a 3-form."""
    l0, l1, l2, l3 = np.asarray(l)
    w01, w02, w03, w23, w31, w12 = np.asarray(w)
    return np.stack([
        l1 * w23 + l2 * w31 + l3 * w12,
        l0 * w23 - l2 * w03 + l3 * w02,
        -l0 * w31 - l1 * w03 + l3 * w01,
        l0 * w12 - l1 * w02 + l2 * w01,
    ])


def wedge13(l, f):
    """Wedge of a 1-form with a 3-form: coefficient of the output 4-form."""
    return np.einsum("i...,i,i...->...", np.asarray(l), W13_SIGN, np.asarray(f))


def wedge22(a, b):
    """Wedge of two 2-forms: coefficient of the output 4-form."""
    return np.einsum("i...,i...->...", np.asarray(a), np.asarray(b)[DUAL2])


def interior1(v, l):
    """Contraction of a 1-form with a vector (a scalar)."""
    return np.einsum("i...,i...->...", np.asarray(v), np.asarray(l))


def interior2(v, w):
    """Contraction of a 2-form with a vector, as a 1-form."""
    v0, v1, v2, v3 = np.asarray(v)
    w01, w02, w03, w23, w31, w12 = np.asarray(w)
    return np.stack([
        -v1 * w01 - v2 * w02 - v3 * w03,
        v0 * w01 - v2 * w12 + v3 * w31,
        v0 * w02 + v1 * w12 - v3 * w23,
        v0 * w03 - v1 * w31 + v2 * w23,
    ])


def interior4(v, c):
    """Contraction of a 4-form coefficient with a vector, as a 3-form."""
    return star1_flat(v) * np.asarray(c)


# ---------------------------------------------------------------------------
# 2-forms as antisymmetric matrices
# ---------------------------------------------------------------------------

def form2_matrix(w):
    """Antisymmetric matrix P with P[i,j] = w(d_i, d_j), shape
    (*batch, 4, 4)."""
    w01, w02, w03, w23, w31, w12 = np.asarray(w)
    z = np.zeros_like(w01)
    rows = [
        np.stack([z, w01, w02, w03], axis=-1),
        np.stack([-w01, z, w12, -w31], axis=-1),
        np.stack([-w02, -w12, z, w23], axis=-1),
        np.stack([-w03, w31, -w23, z], axis=-1),
    ]
    return np.stack(rows, axis=-2)


def pfaffian(w):
    """Pfaffian of the component matrix: c01*c23 + c02*c31 + c03*c12."""
    w01, w02, w03, w23, w31, w12 = np.asarray(w)
    return w01 * w23 + w02 * w31 + w03 * w12


def form2_matrix_inv(w, pf=None):
    """Inverse of the component matrix of a nondegenerate 2-form.

    Uses the 4d identity P(w) @ P(dual w) = -pf(w) * Id, so no LU solve is
    needed; ``pf`` may be passed if already computed.
    """
    w = np.asarray(w)
    if pf is None:
        pf = pfaffian(w)
    return -form2_matrix(w[DUAL2]) / pf[..., None, None]


# ---------------------------------------------------------------------------
# metrics and Hodge stars
# ---------------------------------------------------------------------------

class Metric:
    """A metric batch ``g`` of shape (*batch, 4, 4) with its LAPACK factors,
    each computed on first use and kept for as long as the value lives."""

    def __init__(self, g):
        self.g = np.asarray(g)

    @cached_property
    def inv(self):
        return np.linalg.inv(self.g)

    @cached_property
    def det(self):
        return np.linalg.det(self.g)

    @cached_property
    def vol(self):
        """Coefficient of the volume form dvol_g (orientation e0123 > 0)."""
        if not np.all(self.det > 0):  # NaN fails too
            raise NonPositiveMetric("metric determinant is not positive "
                                    f"(min {self.det.min():.3e})")
        return np.sqrt(self.det)

    @cached_property
    def form2(self):
        """Inner product matrix on 2-forms: the 6x6 Gram matrix of the 2-form
        basis under g^{-1}."""
        rows = np.moveaxis(self.inv, -1, 0)  # rows[j, ..., i] = inv[..., i, j]
        i1, i2 = np.array(IDX2).T
        # minor (I, J) is the J-component of row_i1 ^ row_i2
        return np.moveaxis(wedge11(rows[..., i1], rows[..., i2]), 0, -1)

    def expand(self):
        """This metric with a unit axis before the matrix axes,
        ``g[..., None, :, :]``, whose factors are views of this one's."""
        out = Metric(self.g[..., None, :, :])
        out.inv = self.inv[..., None, :, :]
        out.det = self.det[..., None]
        out.vol = self.vol[..., None]
        out.form2 = self.form2[..., None, :, :]
        return out


def as_metric(g):
    """``g`` as a :class:`Metric`; a Metric, or None (the flat metric), is
    returned as it is."""
    return g if g is None or isinstance(g, Metric) else Metric(g)


def vol_coeff(g):
    """Coefficient of the volume form dvol_g (orientation e0123 > 0)."""
    return as_metric(g).vol


def metric2(g):
    """Inner product matrix on 2-forms induced by the metric g: the 6x6
    Gram matrix of the 2-form basis under g^{-1}."""
    return as_metric(g).form2


def norm2_sq(w, g=None):
    """Squared metric norm of a 2-form (Euclidean metric when g is None)."""
    w = np.asarray(w)
    if g is None:
        return np.einsum("i...,i...->...", w, w)
    return np.einsum("i...,...ij,j...->...", w, metric2(g), w)


def hodge1(g, l):
    """Hodge star of a 1-form, as a 3-form."""
    g = as_metric(g)
    y = np.einsum("...ij,j...->i...", g.inv, np.asarray(l))
    return g.vol * star1_flat(y)


def hodge2(g, w):
    """Hodge star of a 2-form, as a 2-form.

    Defined through a ^ (star b) = <a, b>_g dvol_g; for the Euclidean metric
    this swaps the (c01,c02,c03) and (c23,c31,c12) triples.
    """
    g = as_metric(g)
    y = np.einsum("...ij,j...->i...", g.form2, np.asarray(w))
    return g.vol * y[DUAL2]


def hodge3(g, f):
    """Hodge star of a 3-form, as a 1-form (inverse of hodge1 up to sign)."""
    g = as_metric(g)
    return np.einsum("...ij,j...->i...", g.g, star3_flat(f)) / g.vol


def star1_flat(l):
    """Flat Hodge star of a 1-form, W13_SIGN[i] * l[i]."""
    l = np.asarray(l)
    return W13_SIGN.reshape((4,) + (1,) * (l.ndim - 1)) * l


def star2_flat(w):
    return np.asarray(w)[DUAL2]


def star3_flat(f):
    return -star1_flat(f)


def sd_split(w, g=None):
    """Self-dual / anti-self-dual split w = w_plus + w_minus."""
    w = np.asarray(w, dtype=float)
    sw = star2_flat(w) if g is None else hodge2(g, w)
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
    g = as_metric(g)
    flat = np.transpose([OMEGA1, OMEGA2, OMEGA3])
    flat = flat.reshape((6,) + (1,) * (g.g.ndim - 2) + (3,))  # (6, ..., 3)
    plus, _ = sd_split(flat, g.expand())
    return np.stack(_wedge_gram_schmidt(plus, g.vol), axis=-1)


# ---------------------------------------------------------------------------
# the rho-dependent geometry
# ---------------------------------------------------------------------------

def u_of(rho, g=None):
    """Volume ratio u = (rho ^ rho) / (2 dvol_g).  May be <= 0."""
    u = pfaffian(np.asarray(rho))
    if g is None:
        return u
    return u / as_metric(g).vol


def a_of(rho, g=None):
    """Linear map A with g(A v, w) = rho(v, w); det A = u^2.

    In column-vector convention A = G^{-1} P^T with P the component matrix,
    so for rho = omega1 and the Euclidean metric A is the standard complex
    structure (A d0 = d1, A d2 = d3, squares to -1).
    """
    p = form2_matrix(np.asarray(rho))
    pt = np.swapaxes(p, -1, -2)
    if g is None:
        return pt
    return np.linalg.solve(np.broadcast_to(as_metric(g).g, pt.shape), pt)


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


def g_rho(rho, g=None):
    """The unique metric with the volume form of g whose self-dual forms are
    the R^rho image of the self-dual forms of g.

    Computed as g_rho(v, w) = u^{-1} g(Av, Aw); requires u > U_FLOOR.
    """
    rho, g = np.asarray(rho), as_metric(g)
    u = require_u(u_of(rho, g))
    a = a_of(rho, g)
    if g is None:
        gram = np.einsum("...ki,...kj->...ij", a, a)
    else:
        gram = np.einsum("...ki,...kl,...lj->...ij", a, g.g, a)
    return gram / u[..., None, None]


def r_rho(w, rho):
    """Wedge-preserving involution R w = w - (w^rho / dvol_rho) rho.

    Sends rho to -rho and fixes the wedge-orthogonal complement of rho.
    Metric independent; requires rho ^ rho != 0.
    """
    w, rho = np.asarray(w), np.asarray(rho)
    pf = require_pf(pfaffian(rho))
    return w - wedge22(w, rho) / pf * rho


def star_rho1(l, rho, g=None):
    """rho-twisted Hodge star on 1-forms: rho ^ star(rho ^ l) / u.

    Agrees with the Hodge star of g_rho(rho, g).
    """
    rho, g = np.asarray(rho), as_metric(g)
    u = require_u(u_of(rho, g))
    inner = star3_flat(wedge12(l, rho)) if g is None else hodge3(g, wedge12(l, rho))
    return wedge12(inner, rho) / u


def star_rho2(w, rho, g=None):
    """rho-twisted Hodge star on 2-forms: R star R, an involution."""
    rho, g = np.asarray(rho), as_metric(g)
    require_u(u_of(rho, g))
    rw = r_rho(w, rho)
    srw = star2_flat(rw) if g is None else hodge2(g, rw)
    return r_rho(srw, rho)


def star_rho3(f, rho, g=None):
    """rho-twisted Hodge star on 3-forms, the Hodge star of g_rho(rho, g).

    Closed form -P G^{-1} P^T (W13_SIGN f) / pf(rho), with P the component
    matrix of rho and G^{-1} = Id when g is None: g_rho = P G^{-1} P^T / u
    has the volume form of g, and u vol(g) = pf(rho).  Since P^T y is the
    contraction of rho with y, and -P z that of rho with z, no matrix is
    built.  Satisfies star_rho3(star_rho1(l)) = -l.
    """
    rho, g = np.asarray(rho), as_metric(g)
    require_u(u_of(rho, g))
    y = interior2(star1_flat(f), rho)   # W13_SIGN f
    if g is not None:
        y = np.einsum("...ij,j...->i...", g.inv, y)
    return interior2(y, rho) / pfaffian(rho)


def theta_point(rho, g=None):
    """The 2-form Theta = star(rho/u) - (|rho/u|^2 / 2) rho.

    Wedge-orthogonal to rho; vanishes exactly when rho is self-dual.
    """
    rho, g = np.asarray(rho), as_metric(g)
    u = require_u(u_of(rho, g))
    srho = star2_flat(rho) if g is None else hodge2(g, rho)
    n2 = norm2_sq(rho, g)
    return srho / u - (0.5 * n2 / u ** 2) * rho


def theta_dot_point(rho, rhohat, g=None):
    """Directional derivative of theta_point at rho in direction rhohat:

        (rhohat + star_rho rhohat) / u - |rho^+ / u|^2 rhohat.
    """
    rho, rhohat, g = np.asarray(rho), np.asarray(rhohat), as_metric(g)
    u = require_u(u_of(rho, g))
    plus, _ = sd_split(rho, g)
    srh = star_rho2(rhohat, rho, g)
    coeff = norm2_sq(plus, g) / u ** 2
    return (rhohat + srh) / u - coeff * rhohat


def j_rho(jmap, rho):
    """The unique linear map M with rho(M v, w) = rho(v, J w).

    M = (P J P^{-1})^T for P the component matrix of rho.
    """
    rho = np.asarray(rho)
    pf = require_pf(pfaffian(rho))
    p = form2_matrix(rho)
    pinv = form2_matrix_inv(rho, pf)
    m = p @ np.asarray(jmap) @ pinv
    return np.swapaxes(m, -1, -2)


def quaternion_triple(w1, w2, w3):
    """Solve the cyclic relations w2(., J3 .) = w1, w3(., J1 .) = w2,
    w1(., J2 .) = w3 for the three linear maps (J1, J2, J3).

    When the inputs wedge-pairwise vanish and share a common square the
    outputs satisfy the quaternion relations Ji^2 = -1, Jj Jk = -Jk Jj = Ji.
    """
    ws = [np.asarray(w) for w in (w1, w2, w3)]
    ps = [form2_matrix(w) for w in ws]
    inv = [form2_matrix_inv(w, require_pf(pfaffian(w))) for w in ws]
    return inv[2] @ ps[1], inv[0] @ ps[2], inv[1] @ ps[0]


def _wedge_gram_schmidt(basis, vol):
    """Orthonormalize three 2-forms to w_i ^ w_j = 2 delta_ij vol."""
    out = []
    for a in range(3):
        w = np.asarray(basis[..., a], dtype=float)
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
    w1, w2, w3 = _wedge_gram_schmidt(basis, vol)
    # J1 of quaternion_triple, w3(., J1 .) = w2, alone
    j1 = form2_matrix_inv(w3, require_pf(pfaffian(w3))) @ form2_matrix(w2)

    # w1(., J1 .) is the metric up to sign; a definite form has the sign of
    # its trace
    cand = form2_matrix(w1) @ j1
    gm = np.sign(np.trace(cand, axis1=-2, axis2=-1))[..., None, None] * cand
    return 0.5 * (gm + np.swapaxes(gm, -1, -2))
