"""Brute-force oracles for the exterior algebra and lattice tests.

Everything here works on fully antisymmetric index tensors and enumerates
permutations, or sums sampled cosines mode by mode, so it shares no code
(and no sign tables) with the package.
"""

import math
from itertools import permutations, product

import numpy as np

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
    order, then amplitudes, then phases), summed cosine by cosine."""
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
    return out
