"""Periodic k-form fields on the unit four-torus.

Fields are plain numpy arrays over an n^4 lattice in lexicographic
``(x0, x1, x2, x3)`` order (x0 slowest), with a leading component axis of
size 4/6/4 for degrees 1..3 in the component conventions of
:mod:`donflow.exterior`, ``(c, n, n, n, n)``.  Scalars and 4-forms have no
component axis.

A derivative along one axis is the Fourier multiplier ``i b(k)``.  The
schemes differ only in b: ``spectral`` has b(k) = 2 pi k and ``fd2``
b(k) = n sin(2 pi k / n), the central-difference symbol.  Both vanish at
k = 0 and at the Nyquist entry k = n/2, so d/dx = M (S - S^-1), where S is
the one-site cyclic shift along the axis and M the real symmetric
circulant n x n matrix with the even symbol b(k) / (2 sin(2 pi k / n))
(free at k = 0, n/2: 0 for spectral, n/2 for fd2, whose M is (n/2) I).
Both factors are small gemms along the axis of a component's ``(sites
before, n, sites after)`` view.  S - S^-1 is the 0/+-1 matrix
``Grid.shift_difference``: each entry of its product is one subtraction
f(x + h) - f(x - h) plus exact zeros, so it is bit for bit that
subtraction, and a field constant or alternating along the axis has
derivative exactly 0.  The input must be finite (0 * inf is NaN, which
would spread along the axis).  d on degree k is a table of entries
``(out, in, axis, sign)``, ``e_axis ^ E_in = sign * E_out``, derived from
the basis permutation signs, each applied as one such derivative;
``delta2`` is its adjoint.
The symbols are translation invariant, so d o d = 0 and the per-component
mean of any derivative vanishes, each to round-off.

The discrete-harmonic fields, on which every derivative symbol vanishes,
are the Fourier modes with every k_i in {0, n/2}: the fields unchanged by
a two-site shift.  :func:`least_norm_potential` keeps the harmonic part
of its unknown as its means over the 16 parity classes of sites, 4 x 16
class values.
:func:`inv_laplace` and the flow's exponential step are Fourier
multipliers that depend on each frequency only through b(k)^2, so they
are even in every k_i and diagonal in the real basis of
cos(2 pi k x / n) and sin(2 pi k x / n) along each axis
(``Grid.real_basis``): a product of one such function per axis is a sum
of the plane waves e^{2 pi i k.x} over the sign flips of the k_i, on
which an even multiplier takes one value.  They are applied like d, by
small dense gemms along the lattice axes: four into that basis
(:func:`to_spectrum`), multiplications there, four back
(:func:`from_spectrum`), with no FFT and no complex array.
:func:`random_trig_field` is a direct sum of its sampled cosines, one axis
at a time.  The module calls no FFT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from donflow import exterior as ext

SCHEMES = ("spectral", "fd2")

FORM_COMPS = {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}

# index tuples of the basis of each degree, in component order
_BASIS = (((),), ((0,), (1,), (2,), (3,)), ext.IDX2, ext.IDX3,
          ((0, 1, 2, 3),))


class NotExact(ValueError):
    """A 2-form field handed in as exact fails the image-of-d validation."""


class NoConvergence(RuntimeError):
    """The conjugate gradient solve exceeded its iteration budget."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on [0,1)^4 with a derivative scheme."""

    n: int
    scheme: str = "spectral"

    def __post_init__(self):
        if self.n < 4 or self.n % 2:
            raise ValueError(f"grid size must be even and >= 4, got {self.n}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, want one of {SCHEMES}")

    @property
    def h(self):
        return 1.0 / self.n

    @property
    def shape(self):
        return (self.n,) * 4

    def _b(self, k):
        """b at the frequencies k, in the float precision of k's type."""
        turn = 8 * np.arctan(np.result_type(k, 1.0).type(1))  # 2 pi
        if self.scheme == "spectral":
            b = turn * k
        else:
            b = np.sin(turn * k / self.n) * self.n
        # the central-difference stencil kills the alternating mode exactly;
        # for spectral derivatives of real fields the odd Nyquist part is
        # dropped for the same reason
        b[np.abs(k) == self.n // 2] = 0.0
        return b

    @cached_property
    def axis_matrix(self):
        """Real symmetric circulant M with d/dx = M (S - S^-1) along one
        axis, (S f)(x) = f(x + h); its symbol b(k) / (2 sin(2 pi k / n)) is
        even, and free at k = 0, n/2, which S - S^-1 kills: fd2 takes n/2
        there as elsewhere, so M = (n/2) I, and spectral 0.  The spectral
        first column is the symbol's cosine sum, in extended precision where
        the platform has it, with each 2 pi k j / n reduced to 2 pi r / n,
        r = k j mod n folded into [0, n/2], so M is exactly symmetric."""
        n = self.n
        if self.scheme == "fd2":
            return np.eye(n) * (n / 2)
        k = np.arange(1, n // 2, dtype=np.longdouble)
        turn = 8 * np.arctan(np.longdouble(1))  # 2 pi
        mult = self._b(k) / (2 * np.sin(turn * k / n))
        site = np.arange(n)
        r = np.outer(k, site) % n
        col = mult @ np.cos(turn * np.minimum(r, n - r) / n) * (2 / n)
        return col.astype(float)[(site[:, None] - site) % n]

    @cached_property
    def shift_difference(self):
        """S - S^-1 as an n x n matrix of 0 and +-1: row j holds +1 at
        j + 1 and -1 at j - 1 (mod n).  Each entry of a product with a
        finite f is the one rounding of f(x + h) - f(x - h) plus n - 2 exact
        zeros, so the gemm equals the subtraction bit for bit whatever the
        kernel's summation order, up to the sign of a zero."""
        eye = np.eye(self.n)
        return np.roll(eye, 1, axis=1) - np.roll(eye, -1, axis=1)

    @cached_property
    def real_basis(self):
        """Orthonormal real Fourier basis along one axis: the n x n matrix Q
        whose rows are cos(2 pi k x / n) for k = 0..n/2 and sin(2 pi k x / n)
        for k = 1..n/2-1, normalized, and the |k| of each row."""
        n = self.n
        k = np.concatenate([np.arange(n // 2 + 1), np.arange(1, n // 2)])
        arg = 2 * np.pi * np.outer(k, np.arange(n)) / n
        q = np.concatenate([np.cos(arg[:n // 2 + 1]), np.sin(arg[n // 2 + 1:])])
        return q / np.sqrt((q * q).sum(axis=1, keepdims=True)), k

    @cached_property
    def laplace_symbol(self):
        """Nonnegative symbol of -laplacian on the real basis, shape
        (n, n, n, n)."""
        return sum(b ** 2 for b in _on_axes(self._b(self.real_basis[1])))

    @cached_property
    def laplace_levels(self):
        """The distinct values of ``laplace_symbol``, ascending, and the
        index of each mode's value among them, shape (n, n, n, n): values[
        index] is the symbol bit for bit.  The symbol sums one b(k)^2 per
        axis, so its values are the sums over the few distinct b(k)^2 of
        each axis, taken in the same order; a function of the symbol is
        evaluated on these values and gathered."""
        axis_values, axis_index = np.unique(self._b(self.real_basis[1]) ** 2,
                                            return_inverse=True)
        values, index = np.unique(sum(_on_axes(axis_values)),
                                  return_inverse=True)
        grid_index = index.reshape((axis_values.size,) * 4)[
            np.ix_(axis_index, axis_index, axis_index, axis_index)]
        return values, grid_index

    @cached_property
    def inv_laplace_symbol(self):
        """1 / laplace_symbol, and 0 on its kernel modes: the multiplier of
        :func:`inv_laplace`."""
        sym = self.laplace_symbol
        return np.divide(1.0, sym, out=np.zeros_like(sym), where=sym > 0)

    def zeros(self, k):
        c = FORM_COMPS[k]
        return np.zeros(self.shape if c == 1 else (c,) + self.shape)

    def constant(self, comps):
        """Constant 2-form field with the given six components."""
        out = np.empty((6,) + self.shape)
        out[:] = np.reshape(comps, (6, 1, 1, 1, 1))
        return out


def _on_axes(v):
    """A per-axis array on the real basis, laid along each lattice axis."""
    return [v.reshape([-1 if a == ax else 1 for a in range(4)])
            for ax in range(4)]


def to_spectrum(grid, f, scratch=None):
    """The coefficients of a field on the real basis of every axis, laid
    out (a0, a1, a2, a3, components): a new array, with a trailing axis of
    length 1 for a scalar field.

    Each gemm Q @ X.T transforms the last lattice axis of the 2-d view X
    and moves it to the front, so four of them leave the spectrum in that
    layout.  They alternate between the result and ``scratch``, a buffer
    of the field's size (allocated when None): no transpose copy and no
    complex array."""
    q = grid.real_basis[0]
    n = grid.n
    if scratch is None:
        scratch = np.empty(np.size(f))
    out = np.empty(np.size(f))
    src = np.reshape(f, (-1, n))
    for dst in (scratch, out, scratch, out):
        src = np.matmul(q, src.T, out=dst.reshape(n, -1)).reshape(-1, n)
    return out.reshape(grid.shape + (-1,))


def from_spectrum(grid, spec, scratch=None, out=None):
    """The field whose spectrum is ``spec`` (see :func:`to_spectrum`), in
    ``out``, a buffer of its size, or in place where ``out`` is None: four
    gemms X.T @ Q take the first axis back to the last, alternating
    between ``out`` and ``scratch`` (allocated when None).  Returns
    ``out``'s memory shaped (components, n, n, n, n)."""
    q = grid.real_basis[0]
    n = grid.n
    if scratch is None:
        scratch = np.empty(spec.size)
    if out is None:
        out = spec
    src = spec
    for dst in (scratch, out, scratch, out):
        src = np.matmul(src.reshape(n, -1).T, q, out=dst.reshape(-1, n))
    return out.reshape((-1,) + grid.shape)


def _derivative(grid, f, table, ncomp):
    """Apply a first order operator given as (out, in, axis, sign) entries:
    out_o = sum of sign * d/dx_axis in_i, each as two small gemms along the
    axis, M ((S - S^-1) f), the inner one exact (``Grid.shift_difference``).
    f must be finite.  One output component comes back as a scalar field."""
    n = grid.n
    comps = np.reshape(f, (-1,) + grid.shape)
    out = np.zeros((ncomp,) + grid.shape)
    shift = grid.shift_difference
    for o, i, axis, sign in table:
        # the axis in the middle: (sites before it, n, sites after it)
        pre, post = n ** axis, n ** (3 - axis)
        fi = comps[i].reshape(pre, n, post)
        # on the last axis single gemms from the right, with M = M^T
        if post == 1:
            deriv = (fi.reshape(pre, n) @ shift.T) @ grid.axis_matrix
        else:
            deriv = grid.axis_matrix @ (shift @ fi)
        acc = out[o].reshape(deriv.shape)
        (np.add if sign > 0 else np.subtract)(acc, deriv, out=acc)
    return out if ncomp > 1 else out[0]


def _parity(idx):
    return sum(a > b for pos, a in enumerate(idx) for b in idx[pos + 1:]) % 2


def _d_table(k):
    """Entries (out, in, axis, sign) of d on degree k, one for every basis
    element E_in and axis outside it: e_axis ^ E_in = sign * E_out."""
    src, dst = _BASIS[k], _BASIS[k + 1]
    table = []
    for i, idx in enumerate(src):
        for axis in range(4):
            if axis in idx:
                continue
            o = next(j for j, out in enumerate(dst) if set(out) == {axis, *idx})
            sign = (-1) ** (_parity((axis,) + idx) + _parity(dst[o]))
            table.append((o, i, axis, sign))
    return tuple(table)


D_TABLES = tuple(_d_table(k) for k in range(4))

# the flat L2 adjoint of d1: swap in and out in the table, and d/dx is
# antisymmetric
DELTA2_TABLE = tuple((i, o, axis, -sign) for o, i, axis, sign in D_TABLES[1])


def d(grid, fld, k):
    """Exterior derivative of a finite degree-k field, each table entry two
    small gemms M ((S - S^-1) f) along its axis."""
    return _derivative(grid, fld, D_TABLES[k], FORM_COMPS[k + 1])


def d0(grid, f):
    """Exterior derivative of a 0-form, as a 1-form field."""
    return d(grid, f, 0)


def d1(grid, lam):
    """Exterior derivative of a 1-form, as a 2-form field."""
    return d(grid, lam, 1)


def d2(grid, w):
    """Exterior derivative of a 2-form, as a 3-form field."""
    return d(grid, w, 2)


def d3(grid, f):
    """Exterior derivative of a 3-form, as a 4-form coefficient field."""
    return d(grid, f, 3)


def delta2(grid, w):
    """Formal adjoint of d1 in the flat component L2 pairing."""
    return _derivative(grid, w, DELTA2_TABLE, 4)


def inv_laplace(grid, f):
    """Inverse of the (scheme) Laplacian, zero on its kernel modes: one
    multiplication between the two halves of the transform, which share
    one scratch buffer."""
    scratch = np.empty(np.size(f))
    spec = to_spectrum(grid, f, scratch)
    spec *= grid.inv_laplace_symbol[..., None]
    return from_spectrum(grid, spec, scratch).reshape(np.shape(f))


def _class_means(grid, f):
    """Means of f over the 16 parity classes of sites, shaped
    ``f.shape[:-4] + (1, 2) * 4`` to broadcast over a ``(n/2, 2) * 4`` view."""
    means = np.reshape(f, np.shape(f)[:-4] + (grid.n // 2, 2) * 4)
    for axis in (-8, -6, -4, -2):  # n/2 terms per mean: fast and accurate
        means = means.mean(axis=axis, keepdims=True)
    return means


def integrate(grid, f4):
    """Integral of a 4-form field: h^4 times a pairwise component sum."""
    return float(np.sum(f4)) * grid.h ** 4


def l2_norm(grid, fld):
    """Flat L2 norm of a component field."""
    return math.sqrt(float(np.sum(np.asarray(fld) ** 2)) * grid.h ** 4)


def cohomology(grid, rho):
    """Per-component grid means of a 2-form field, exactly rounded unless
    within ~1e-20 of a tie.  Each component splits without error into a
    high part on the grid of a power of two sigma > 2 n^4 max|rho_c|, whose
    sum is exact, and a low part below ulp(sigma) (Rump, Ogita, Oishi 2008).
    The steps share one scratch buffer."""
    comps = np.reshape(rho, (6, -1))
    nsites = comps.shape[1]
    buf = np.abs(comps)
    _, expo = np.frexp(2 * nsites * buf.max(axis=1))
    sigma = np.ldexp(1.0, expo)[:, None]
    high = np.subtract(np.add(comps, sigma, out=buf), sigma, out=buf)
    high_sum = high.sum(axis=1)
    low = np.subtract(comps, high, out=buf)
    return (high_sum + low.sum(axis=1)) / nsites


def exactness_residual(grid, rhohat):
    """Relative L2 distance of a 2-form field from the image of d, and the
    flat-metric potential lam0 = delta (laplace^-1 rhohat), whose d is the
    projection of rhohat onto that image."""
    lam0 = delta2(grid, inv_laplace(grid, rhohat))
    den = l2_norm(grid, rhohat)
    gap = d1(grid, lam0)  # l2_norm(gap - rhohat), squared in place
    gap -= rhohat
    num = math.sqrt(float(np.sum(np.square(gap, out=gap))) * grid.h ** 4)
    return 0.0 if den == 0 else num / den, lam0


def exact_potential_flat(grid, rhohat):
    """Flat-metric potential lam0 with d lam0 = rhohat; raises NotExact
    when rhohat is farther than 1e-10 (relative L2) from the image of d."""
    res, lam0 = exactness_residual(grid, rhohat)
    if res > 1e-10:
        raise NotExact(f"2-form is not exact: distance {res:.3e} from the "
                       "image of d exceeds 1e-10 (relative L2)")
    return lam0


def least_norm_potential(grid, rhohat, b, rtol=1e-10, max_iter=None):
    """Gauge-fixed potential of an exact 2-form field.

    Returns the 1-form lam minimizing the metric energy
    ``integral(lam ^ star lam)`` over all solutions of ``d lam = rhohat``,
    where ``star`` is the Hodge star of the metric g_rho(rho), in closed
    form :func:`donflow.exterior.star_rho1` (the flat metric is rho =
    omega1).  The minimizer is the potential whose ``star lam`` is exact
    (closed with zero periods): lam0 + d phi + nu, lam0 the flat potential,
    by CG with nu held as its 4 x 16 parity-class values, each weighted by
    the (n/2)^4 sites of its class, and the Krylov vectors updated in place.

    Parameters
    ----------
    rhohat : (6,n,n,n,n) array
        Must lie in the image of d up to 1e-10 (relative L2).
    b : donflow.exterior.Base
        Base point, a (6,n,n,n,n) field.
    rtol : float
        Relative residual target of the preconditioned CG solve.
    max_iter : int
        Iteration budget, default ``50 * n``.

    Raises
    ------
    NotExact, NoConvergence
    """
    lam0 = exact_potential_flat(grid, rhohat)
    if max_iter is None:
        max_iter = 50 * grid.n
    # the closed corrections are d(phi) plus the discrete-harmonic 1-forms
    # nu (constants and the zero-symbol Nyquist combinations)
    n, half = grid.n, grid.n // 2
    weight = half ** 4
    scratch = np.empty(grid.shape)

    def apply_b(phi, nu):
        # nu tiled over the last two axes: inner loops of n^2 sites
        out = d0(grid, phi)
        tail = np.broadcast_to(nu, (4, 1, 2, 1, 2) + (half, 2) * 2)
        view = out.reshape((4, half, 2, half, 2, n * n))
        view += tail.reshape((4, 1, 2, 1, 2, n * n))
        return out

    def apply_bt(w3):
        # adjoint of apply_b through the wedge pairing with 3-forms:
        # l ^ w3 = sum_i l_i W13_SIGN_i w3_i; the nu part sums w3 over each
        # class, a class mean times the weight that inner products carry
        q_phi = d3(grid, w3)
        return (np.negative(q_phi, out=q_phi),
                ext.star1_flat(_class_means(grid, w3)))

    def normal_op(phi, nu):
        # the star overwrites the 1-form it reads: one field less per step
        lam = apply_b(phi, nu)
        return apply_bt(ext.star_rho1(lam, b, out=lam))

    def inner(a_phi, a_nu, b_phi, b_nu):
        return float(np.multiply(a_phi, b_phi, out=scratch).sum()
                     + weight * np.sum(a_nu * b_nu))

    # r = -B^T star(lam0); the preconditioner is inv_laplace on phi and the
    # identity on nu, so z_nu is r_nu itself
    r_phi, r_nu = apply_bt(ext.star_rho1(-lam0, b))
    phi = np.zeros(grid.shape)
    nu = np.zeros_like(r_nu)
    z_phi = inv_laplace(grid, r_phi)
    p_phi, p_nu = z_phi.copy(), r_nu.copy()
    rz = inner(r_phi, r_nu, z_phi, r_nu)
    r0 = math.sqrt(inner(r_phi, r_nu, r_phi, r_nu))
    # sqrt(r' M^-1 r) is in potential units and can be compared against the
    # particular solution's own scale; this terminates cleanly when the
    # initial residual is pure round-off (lam0 already gauge-fixed)
    lam_scale = math.sqrt(float(np.sum(lam0 ** 2))) + 1e-300

    def converged(rnorm, rz_val):
        return (rnorm <= rtol * r0
                or math.sqrt(max(rz_val, 0.0)) <= rtol * lam_scale)

    if r0 == 0.0 or converged(r0, rz):
        return lam0

    rnorm = r0
    for _ in range(max_iter):
        q_phi, q_nu = normal_op(p_phi, p_nu)
        alpha = rz / inner(p_phi, p_nu, q_phi, q_nu)
        # r -= alpha q, then phi += alpha p through q's buffer
        q_phi *= alpha
        r_phi -= q_phi
        r_nu -= alpha * q_nu
        phi += np.multiply(p_phi, alpha, out=q_phi)
        nu += alpha * p_nu
        rnorm = math.sqrt(inner(r_phi, r_nu, r_phi, r_nu))
        z_phi = inv_laplace(grid, r_phi)
        rz_new = inner(r_phi, r_nu, z_phi, r_nu)
        if converged(rnorm, rz_new):
            return np.add(lam0, apply_b(phi, nu), out=lam0)
        beta = rz_new / rz
        rz = rz_new
        p_phi *= beta
        p_phi += z_phi
        p_nu = r_nu + beta * p_nu
    raise NoConvergence(
        f"CG stalled at relative residual {rnorm / r0:.3e} after {max_iter} steps")


def random_trig_field(rng, kmax, ncomp=1):
    """Random real trigonometric polynomial with modes |k_i| <= kmax, zero mean.

    Returns a closure evaluating the field on any grid, so refinement studies
    can sample the same smooth function at several resolutions.  It is the
    direct sum of the sampled cosines, taken one axis at a time, so modes
    aliasing onto one lattice frequency add up as they must.
    """
    # one mode per antipodal pair, the k lexicographically after k = 0,
    # whose a cos(2 pi k.x + ph) = a/2 e^{i ph} e^{2 pi i k.x} + conjugate
    # at -k, the mirror image in that order
    npairs = (2 * kmax + 1) ** 4 // 2
    amps = rng.normal(size=(npairs, ncomp))
    phases = rng.uniform(0, 2 * np.pi, size=(npairs, ncomp))
    half = 0.5 * amps * np.exp(1j * phases)
    coef = np.concatenate([half[::-1].conj(), np.zeros((1, ncomp)), half])
    coef = coef.T.reshape((ncomp,) + (2 * kmax + 1,) * 4)

    def evaluate(grid):
        n = grid.n
        # e^{2 pi i k x / n} at the sites x, its argument reduced mod n
        wave = np.exp(2j * np.pi / n * (
            np.outer(np.arange(-kmax, kmax + 1), np.arange(n)) % n))
        out = coef
        for _ in range(4):  # sums the first k axis, appends its x axis
            out = np.tensordot(out, wave, axes=(1, 0))
        out = np.ascontiguousarray(out.real)
        return out if ncomp > 1 else out[0]

    return evaluate
