"""Brute-force oracles for the exterior algebra, lattice and flow tests.

Everything here works on fully antisymmetric index tensors and enumerates
permutations, sums sampled cosines mode by mode, or evaluates Chebyshev
series, so it shares no code (and no sign tables) with the package.
"""

import math
from itertools import permutations, product

import numpy as np
from numpy.polynomial.chebyshev import chebder, chebval

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
    """Reference for ``lattice.harmonic_projection`` on the n^4 lattice:
    one complex fftn over the lattice axes, every mode with some k_i
    outside {0, n/2} set to zero, one ifftn."""
    k = np.abs(np.fft.fftfreq(n) * n)
    keep = (k == 0) | (k == n // 2)
    mask = np.ones((n,) * 4, dtype=bool)
    for a in range(4):
        mask &= keep.reshape([n if b == a else 1 for b in range(4)])
    fk = np.fft.fftn(np.asarray(f), axes=(-4, -3, -2, -1))
    return np.fft.ifftn(fk * mask, axes=(-4, -3, -2, -1)).real


def _rkc_chebyshev(s):
    """The series of T_s, w0 = 1 + 10 / s^2 and T_s, T_s', T_s'' at w0, for
    the damped s-stage RKC2 scheme with damping 10."""
    ts = [0.0] * s + [1.0]
    w0 = 1.0 + 10.0 / s ** 2
    return (ts, w0) + tuple(chebval(w0, chebder(ts, m)) for m in range(3))


def rkc_amplification(s, z):
    """Stability polynomial R_s(z) = a_s + b_s T_s(w0 + w1 z) with
    w1 = T_s'(w0) / T_s''(w0), b_s = T_s''(w0) / T_s'(w0)^2 and
    a_s = 1 - b_s T_s(w0)."""
    ts, w0, t0, t1, t2 = _rkc_chebyshev(s)
    b = t2 / t1 ** 2
    return 1.0 - b * t0 + b * chebval(w0 + (t1 / t2) * z, ts)


def rkc_stability_interval(s):
    """beta with |R_s| <= 1 on [-beta, 0]: w0 + w1 z stays >= -1."""
    _, w0, _, t1, t2 = _rkc_chebyshev(s)
    return (1.0 + w0) * t2 / t1
