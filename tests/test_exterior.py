import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import donflow
from donflow import exterior as ext
from donflow import flow
from donflow import lattice as lat
from donflow.checks import random_rho, random_spd, suite_appendixA
import oracles as orc

# left multiplication by the unit quaternions i, j, k on H = R^4
J1_STD = np.array([[0., -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
J2_STD = np.array([[0., 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
J3_STD = np.array([[0., 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])

form6 = st.lists(st.floats(-3, 3), min_size=6, max_size=6).map(np.array)
form4 = st.lists(st.floats(-3, 3), min_size=4, max_size=4).map(np.array)


def wedge_oracle(c1, k1, c2, k2):
    t = orc.wedge_tensor(orc.form_to_tensor(c1, k1), k1,
                         orc.form_to_tensor(c2, k2), k2)
    return orc.tensor_to_form(t, k1 + k2)


# ---------------------------------------------------------------------------
# frozen sign tables against the permutation oracle
# ---------------------------------------------------------------------------

def test_wedge_tables_match_permutation_oracle(rng):
    for _ in range(25):
        a, b = rng.normal(size=6), rng.normal(size=6)
        l, f = rng.normal(size=4), rng.normal(size=4)
        assert_allclose(ext.wedge22(a, b), wedge_oracle(a, 2, b, 2), atol=1e-12)
        assert_allclose(ext.wedge12(l, a), wedge_oracle(l, 1, a, 2), atol=1e-12)
        assert_allclose(ext.wedge13(l, f), wedge_oracle(l, 1, f, 3), atol=1e-12)
        assert_allclose(ext.wedge11(l, f), wedge_oracle(l, 1, f, 1), atol=1e-12)


def test_interior_tables_match_tensor_oracle(rng):
    for _ in range(25):
        v = rng.normal(size=4)
        w, _, c = rng.normal(size=6), rng.normal(size=4), rng.normal()
        t = orc.interior_tensor(v, orc.form_to_tensor(w, 2), 2)
        assert_allclose(ext.interior2(v, w), orc.tensor_to_form(t, 1), atol=1e-12)
        t4 = orc.interior_tensor(v, orc.form_to_tensor(c, 4), 4)
        assert_allclose(ext.interior4(v, np.asarray(c)), orc.tensor_to_form(t4, 3),
                        atol=1e-12)


def test_hodge_matches_levi_civita_oracle(rng):
    for _ in range(25):
        g = random_spd(rng)
        gm = ext.Metric(g)
        l, w, f = rng.normal(size=4), rng.normal(size=6), rng.normal(size=4)
        assert_allclose(ext.hodge1(gm, l),
                        orc.tensor_to_form(orc.hodge_tensor(g, orc.form_to_tensor(l, 1), 1), 3),
                        atol=1e-10)
        assert_allclose(ext.hodge2(gm, w),
                        orc.tensor_to_form(orc.hodge_tensor(g, orc.form_to_tensor(w, 2), 2), 2),
                        atol=1e-10)
        assert_allclose(ext.hodge3(gm, f),
                        orc.tensor_to_form(orc.hodge_tensor(g, orc.form_to_tensor(f, 3), 3), 1),
                        atol=1e-10)


def test_form2_matrix_inverse_identity(rng):
    rho = random_rho(rng, (40,), u_min=0.05)
    p = ext.form2_matrix(rho)
    pinv = ext.form2_matrix_inv(rho)
    assert_allclose(p @ pinv, np.broadcast_to(np.eye(4), p.shape), atol=1e-10)


def test_form2_matrix_inv_rejects_degenerate():
    with pytest.raises(ext.DegenerateForm, match="Pfaffian"):
        ext.form2_matrix_inv(np.array([1., 0, 0, 0, 0, 0]))


# ---------------------------------------------------------------------------
# wedge / interior behavior
# ---------------------------------------------------------------------------

def test_wedge22_worked_values():
    assert ext.wedge22(ext.OMEGA1, ext.OMEGA1) == pytest.approx(2.0)
    assert ext.wedge22(ext.OMEGA1, ext.OMEGA2) == pytest.approx(0.0)
    rho = np.array([1.5, 0, 0, 0.5, 0, 0])
    assert ext.wedge22(rho, rho) == pytest.approx(1.5)
    assert ext.u_of(rho) == pytest.approx(0.75)


def test_interior_worked_values():
    e01 = np.zeros(6); e01[0] = 1.0
    assert_allclose(ext.interior2(np.array([1., 0, 0, 0]), e01), [0, 1, 0, 0])
    e123 = np.array([1., 0, 0, 0])
    assert ext.wedge13(np.array([1., 0, 0, 0]), e123) == pytest.approx(1.0)
    assert_allclose(ext.interior4(np.array([0., 1, 0, 0]), np.asarray(1.0)),
                    [0, -1, 0, 0])


@given(form6, form6)
@settings(max_examples=60, deadline=None)
def test_wedge22_symmetric_bilinear(a, b):
    assert ext.wedge22(a, b) == pytest.approx(ext.wedge22(b, a), abs=1e-9)
    assert ext.wedge22(a + b, a + b) == pytest.approx(
        ext.wedge22(a, a) + 2 * ext.wedge22(a, b) + ext.wedge22(b, b), abs=1e-8)


@given(form4, form4, form6)
@settings(max_examples=60, deadline=None)
def test_interior_leibniz_on_1_wedge_2(v, l, w):
    # i(v)(l ^ w) = (i(v)l) w - l ^ i(v)w
    lhs = orc.tensor_to_form(orc.interior_tensor(
        v, orc.form_to_tensor(ext.wedge12(l, w), 3), 3), 2)
    rhs = ext.interior1(v, l) * np.asarray(w) - ext.wedge11(l, ext.interior2(v, w))
    assert_allclose(lhs, rhs, atol=1e-9)


def test_interior_leibniz_on_2_wedge_2(rng):
    for _ in range(20):
        v, a, b = rng.normal(size=4), rng.normal(size=6), rng.normal(size=6)
        lhs = ext.interior4(v, np.asarray(ext.wedge22(a, b)))
        rhs = ext.wedge12(ext.interior2(v, a), b) + ext.wedge12(ext.interior2(v, b), a)
        assert_allclose(lhs, rhs, atol=1e-10)


# ---------------------------------------------------------------------------
# Hodge stars
# ---------------------------------------------------------------------------

def test_hodge_flat_tables():
    e0 = np.array([1., 0, 0, 0])
    flat = ext.Metric(np.eye(4))
    assert_allclose(ext.hodge1(flat, e0), [1, 0, 0, 0])  # e123
    assert_allclose(ext.hodge2(flat, ext.OMEGA1), ext.OMEGA1)
    assert_allclose(ext.star2_flat(np.arange(6.)), [3, 4, 5, 0, 1, 2])
    assert_allclose(ext.star1_flat(e0), ext.hodge1(flat, e0))


def test_hodge_defining_identity_6x6_solve(rng):
    # solve a ^ (star b) = <a,b>_g dvol_g for star b over the 2-form basis
    g = np.diag([0.5, 0.5, 2.0, 2.0])
    gm = ext.Metric(g)
    s = gm.vol
    basis = np.eye(6)
    pair = np.array([[ext.wedge22(basis[i], basis[j]) for j in range(6)]
                     for i in range(6)])
    for _ in range(5):
        b = rng.normal(size=6)
        inner = np.array([orc.inner_tensor(g, orc.form_to_tensor(basis[i], 2),
                                           orc.form_to_tensor(b, 2), 2)
                          for i in range(6)])
        star_b = np.linalg.solve(pair, inner * s)
        assert_allclose(ext.hodge2(gm, b), star_b, atol=1e-10)
    e01 = basis[0]
    expect = np.linalg.solve(pair, s * np.array(
        [orc.inner_tensor(g, orc.form_to_tensor(basis[i], 2),
                          orc.form_to_tensor(e01, 2), 2) for i in range(6)]))
    assert_allclose(ext.hodge2(gm, e01), expect, atol=1e-12)


def test_hodge_squares(rng):
    g = ext.Metric(random_spd(rng, (50,), unit_vol=True))
    l = rng.normal(size=(50, 4)).T
    w = rng.normal(size=(50, 6)).T
    f = rng.normal(size=(50, 4)).T
    assert_allclose(ext.hodge3(g, ext.hodge1(g, l)), -l, atol=1e-11)
    assert_allclose(ext.hodge2(g, ext.hodge2(g, w)), w, atol=1e-11)
    assert_allclose(ext.hodge1(g, ext.hodge3(g, f)), -f, atol=1e-11)


def test_hodge_duality_vector_identities(rng):
    # star(g(v,.)) = i(v) dvol_g  and  star(i(v) dvol_g) = -g(v,.)
    g = ext.Metric(random_spd(rng, (50,)))
    v = rng.normal(size=(50, 4)).T
    gv = np.einsum("...ij,j...->i...", g.g, v)
    ivvol = ext.interior4(v, g.vol)
    assert_allclose(ext.hodge1(g, gv), ivvol, atol=1e-10)
    assert_allclose(ext.hodge3(g, ivvol), -gv, atol=1e-10)


def test_nonpositive_metric_rejected():
    # a negative det, a zero det and NaN, each rejected by the build alone
    with pytest.raises(ext.NonPositiveMetric):
        ext.Metric(np.diag([1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(ext.NonPositiveMetric):
        ext.Metric(np.diag([1.0, 1.0, 0.0, 1.0]))
    with np.errstate(invalid="ignore"), pytest.raises(ext.NonPositiveMetric):
        ext.Metric(np.stack([np.eye(4), np.full((4, 4), np.nan)]))


def test_metric_is_factored_once_when_built(monkeypatch, rng):
    calls = []
    lu4 = ext.lu4

    def counted(m, inverse=False):
        calls.append(inverse)
        return lu4(m, inverse)

    monkeypatch.setattr(ext, "lu4", counted)
    g = random_spd(rng, (30,))
    gm = ext.Metric(g)
    assert calls == [True]
    det, inv = lu4(g, inverse=True)
    assert np.array_equal(gm.det, det) and np.array_equal(gm.inv, inv)
    assert np.array_equal(gm.vol, np.sqrt(det))
    gm.form2
    assert calls == [True]


# every function of a metric g (an ``exterior.Metric``)
G_FUNCTIONS = {"hodge1", "hodge2", "hodge3", "self_dual_basis", "u_of", "a_of",
               "g_rho"}


def test_g_functions_lists_every_function_of_a_metric():
    takes_g = {name for name, fn in inspect.getmembers(ext, inspect.isfunction)
               if not name.startswith("_") and fn.__module__ == ext.__name__
               and "g" in inspect.signature(fn).parameters}
    assert takes_g == G_FUNCTIONS


def _readme_sentence(start):
    """The README sentence that begins with ``start``, less ``start``."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return re.split(r"\.\s", readme.split(start, 1)[1], maxsplit=1)[0]


def test_readme_lists_exactly_the_functions_of_a_metric():
    text = _readme_sentence("A metric argument `g`")
    assert set(re.findall(r"`(\w+)`", text)) == G_FUNCTIONS


# the public functions of the package that take a base point, an
# exterior.Base b
BASE_FUNCTIONS = {
    # exterior
    "r_rho", "star_rho1", "star_rho2", "star_rho3", "theta_point",
    "theta_dot_point",
    # flow
    "energy", "rhs", "first_variation", "hessian_form", "donaldson_pairing",
    "monitors", "accept",
    # lattice
    "least_norm_potential",
    # hyperkahler
    "k_functions", "energy_hk", "theta_hk", "grad_potential", "grad_hk",
    "vector_from_potential", "hessian_hk", "hessiancov_check",
}


def test_base_functions_lists_every_function_of_a_base_point():
    modules = [importlib.import_module(f"donflow.{info.name}")
               for info in pkgutil.iter_modules(donflow.__path__)]
    takes_b = {name for mod in modules
               for name, fn in inspect.getmembers(mod, inspect.isfunction)
               if not name.startswith("_") and fn.__module__ == mod.__name__
               and "b" in inspect.signature(fn).parameters}
    assert takes_b == BASE_FUNCTIONS


def test_readme_lists_exactly_the_functions_of_a_base_point():
    text = _readme_sentence("A base point `b`")
    assert set(re.findall(r"`(\w+)`", text)) == BASE_FUNCTIONS


def test_appendixA_factors_each_metric_once(monkeypatch):
    calls = {"inverse": 0, "det": 0}
    lu4 = ext.lu4

    def counted(m, inverse=False):
        calls["inverse" if inverse else "det"] += 1
        return lu4(m, inverse)

    monkeypatch.setattr(ext, "lu4", counted)
    assert all(rec["passed"] for rec in suite_appendixA(0, 200))
    # one factorization carrying the identity per metric batch (g, gu, gc,
    # g_rho, g0), which brings its determinant along; determinant-only: two
    # for det_a, two in random_spd(unit_vol) and one of the quaternion
    # frames
    assert calls["inverse"] == 5
    assert calls["det"] == 5


# ---------------------------------------------------------------------------
# the plane-wise LU of 4x4 matrices
# ---------------------------------------------------------------------------

def _agrees_with_lapack(m, rtol=1e-12):
    det, inv = ext.lu4(m, inverse=True)
    assert np.array_equal(ext.lu4(m), det)    # one elimination, either path
    assert_allclose(det, np.linalg.det(m), rtol=rtol, atol=0)
    ref = np.linalg.inv(m)
    assert np.all(np.abs(inv - ref)
                  <= rtol * np.abs(ref).max(axis=(-2, -1), keepdims=True))


def test_lu4_matches_lapack_on_metrics(rng):
    for batch in ((1000,), (3, 5), ()):
        _agrees_with_lapack(random_spd(rng, batch))


def test_lu4_pivots_past_zero_leading_entries(rng):
    # a_of has a zero diagonal, so no column finds its pivot in place
    _agrees_with_lapack(ext.a_of(random_rho(rng, (500,), 0.05)))
    perm = np.eye(4)[[2, 0, 3, 1]]
    det, inv = ext.lu4(perm, inverse=True)
    assert det == np.linalg.det(perm) == -1.0
    assert np.array_equal(inv, perm.T)


def test_lu4_is_as_accurate_as_lapack_on_ill_conditioned_g_rho(rng):
    # at condition numbers near 1e5 both factorizations round to errors of
    # a few 1e-12, and differ from each other by as much; against exact
    # rational arithmetic the plane-wise LU errs at most twice as much as
    # LAPACK (measured: within 1.3 times over eight seeds)
    g = ext.Metric(random_spd(rng, (2000,)))
    gr = ext.g_rho(np.sqrt(g.vol) * random_rho(rng, (2000,), 0.01), g)
    cond = np.linalg.cond(gr)
    keep = np.flatnonzero(cond <= 2e5)
    gr = gr[keep[np.argsort(cond[keep])[-40:]]]
    assert np.linalg.cond(gr).min() > 1e4
    exact = [orc.exact_det_inv(m) for m in gr]
    det_x = np.array([d for d, _ in exact])
    inv_x = np.array([i for _, i in exact])

    def errors(det, inv):
        scale = np.abs(inv_x).max(axis=(-2, -1))
        return (np.abs(det / det_x - 1).max(),
                (np.abs(inv - inv_x).max(axis=(-2, -1)) / scale).max())

    ours = errors(*ext.lu4(gr, inverse=True))
    lapack = errors(np.linalg.det(gr), np.linalg.inv(gr))
    assert ours[0] <= 2 * lapack[0] and ours[1] <= 2 * lapack[1]
    assert max(ours) < 1e-11


def test_lu4_on_integer_matrices_with_ties(rng):
    # entries in {-2..2} tie for the pivot in most columns, where the
    # scan may pivot on another row than getrf; against exact rational
    # arithmetic every result stays within 1e-12 (measured: 2.4e-15).  A
    # singular matrix's rounded elimination need not reach an exact 0
    # (measured: one of 92 at 1.1e-15, the same with getrf's row order;
    # LAPACK's det reaches 1.8e-15), so its det is held to the same bound
    m = rng.integers(-2, 3, size=(1000, 4, 4)).astype(float)
    det, inv = ext.lu4(m, inverse=True)
    assert np.array_equal(ext.lu4(m), det)
    exact = [orc.exact_det_inv(x) for x in m]
    det_x = np.array([d for d, _ in exact])
    inv_x = np.array([i for _, i in exact])
    sing = det_x == 0
    assert 0 < np.count_nonzero(sing) < 200
    assert np.abs(det[sing]).max() <= 1e-12
    assert np.abs(det[~sing] / det_x[~sing] - 1).max() <= 1e-12
    scale = np.abs(inv_x[~sing]).max(axis=(-2, -1))
    assert (np.abs(inv[~sing] - inv_x[~sing]).max(axis=(-2, -1))
            <= 1e-12 * scale).all()


def test_lu4_of_singular_matrices():
    # a zero pivot takes zero multipliers: det exactly 0, as LAPACK gives,
    # and a NaN inverse, with no RuntimeWarning (the suite raises them)
    rank2 = np.array([[1.0, 2, 3, 4], [2, 4, 6, 8], [1, 1, 1, 1], [0, 1, 2, 3]])
    for m in (np.diag([1.0, 1.0, 0.0, 1.0]), rank2, np.zeros((4, 4))):
        det, inv = ext.lu4(m, inverse=True)
        assert det == 0 and np.linalg.det(m) == 0
        assert np.isnan(inv).all()
    det, inv = ext.lu4(np.stack([2 * np.eye(4), rank2]), inverse=True)
    assert det[0] == 16 and det[1] == 0
    assert np.array_equal(inv[0], np.eye(4) / 2) and np.isnan(inv[1]).all()


def test_lu4_propagates_nan():
    for i, j in ((0, 0), (0, 3), (2, 1), (3, 3)):
        m = np.eye(4) + 0.5
        m[i, j] = np.nan
        det, inv = ext.lu4(m, inverse=True)
        assert np.isnan(det) and np.isnan(inv).all()
        assert np.isnan(ext.lu4(m))


# ---------------------------------------------------------------------------
# u, A and the induced metric
# ---------------------------------------------------------------------------

def test_a_of_standard_complex_structure():
    a = ext.a_of(ext.OMEGA1)
    assert_allclose(a, J1_STD, atol=1e-14)
    assert ext.u_of(ext.OMEGA1) == pytest.approx(1.0)
    assert np.linalg.det(a) == pytest.approx(1.0)


@given(form6)
@settings(max_examples=80, deadline=None)
def test_det_a_is_u_squared(rho):
    with np.errstate(divide="ignore", invalid="ignore"):
        det = np.linalg.det(ext.a_of(rho))
    assert det == pytest.approx(ext.u_of(rho) ** 2, abs=1e-9)


def test_det_a_is_u_squared_general_metric(rng):
    g = ext.Metric(random_spd(rng, (200,)))
    rho = rng.uniform(-1, 1, size=(200, 6)).T
    assert_allclose(np.linalg.det(ext.a_of(rho, g)), ext.u_of(rho, g) ** 2,
                    atol=1e-10)


def test_g_rho_compatible_pair_reproduces_metric():
    assert_allclose(ext.g_rho(ext.OMEGA1), np.eye(4), atol=1e-14)
    assert_allclose(ext.g_rho(3.7 * ext.OMEGA1), np.eye(4), atol=1e-12)


def test_g_rho_worked_example():
    rho = np.array([1., 0, 0, 2, 0, 0])  # e01 + 2 e23
    a = ext.a_of(rho)
    assert_allclose(a @ np.array([1., 0, 0, 0]), [0, 1, 0, 0], atol=1e-14)
    assert_allclose(a @ np.array([0., 0, 1, 0]), [0, 0, 0, 2], atol=1e-14)
    assert_allclose(ext.g_rho(rho), np.diag([0.5, 0.5, 2.0, 2.0]), atol=1e-14)


def test_g_rho_volume_preserved(rng):
    g = ext.Metric(random_spd(rng, (100,)))
    rho = np.sqrt(g.vol) * random_rho(rng, (100,), u_min=0.05)
    gr = ext.g_rho(rho, g)
    assert_allclose(np.linalg.det(gr), np.linalg.det(g.g), rtol=1e-9)


@pytest.mark.parametrize("metric", [False, True])
def test_g_rho_is_the_einsum_product(rng, metric):
    g = ext.Metric(random_spd(rng, (300,))) if metric else None
    rho = random_rho(rng, (300,), u_min=0.05)
    if metric:
        rho = np.sqrt(g.vol) * rho
    gr = ext.g_rho(rho, g)
    inv, det = (np.eye(4), 1.0) if g is None else (g.inv, g.det)
    want = orc.g_rho_einsum(rho, inv, np.sqrt(det))
    scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
    assert np.all(np.abs(gr - want) <= 1e-14 * scale)
    assert np.all(np.abs(gr - np.swapaxes(gr, -1, -2)) <= 1e-14 * scale)
    assert_allclose(np.linalg.det(gr), det, rtol=1e-9)


def test_metric_form2_equals_the_strided_expression(rng):
    # the minors are gathered into contiguous rows; the arithmetic is the
    # strided expression's, so the bits are too
    for batch in ((), (300,), (3, 7)):
        g = ext.Metric(random_spd(rng, batch))
        assert _same_bits(g.form2, orc.metric_form2_strided(g.inv))


def test_g_rho_rejects_degenerate():
    with pytest.raises(ext.DegenerateForm):
        ext.g_rho(np.array([1., 0, 0, 0, 0, 0]))


def test_base_keeps_the_checked_volume_ratio(rng):
    rho = random_rho(rng, (50,), u_min=0.05)
    b = ext.Base(rho)
    assert b.rho is rho
    assert np.array_equal(b.u, ext.u_of(rho))
    for bad in ([1., 0, 0, 0, 0, 0], [1., 0, 0, -1, 0, 0], [np.nan] * 6):
        with pytest.raises(ext.DegenerateForm, match="volume ratio u"):
            ext.Base(np.array(bad))


# ---------------------------------------------------------------------------
# R and the twisted stars
# ---------------------------------------------------------------------------

def test_r_rho_basics(rng):
    omega = ext.Base(ext.OMEGA1)
    assert_allclose(ext.r_rho(ext.OMEGA1, omega), -ext.OMEGA1, atol=1e-14)
    assert_allclose(ext.r_rho(ext.OMEGA2, omega), ext.OMEGA2, atol=1e-14)
    b = ext.Base(np.array([1.5, 0, 0, 0.5, 0, 0])[:, None])
    w = rng.normal(size=(50, 6)).T
    assert_allclose(ext.r_rho(ext.r_rho(w, b), b), w, atol=1e-13)


def test_r_rho_preserves_wedge(rng):
    b = ext.Base(random_rho(rng, (100,), u_min=0.05))
    w = rng.normal(size=(100, 6)).T
    t = rng.normal(size=(100, 6)).T
    assert_allclose(ext.wedge22(ext.r_rho(w, b), ext.r_rho(t, b)),
                    ext.wedge22(w, t), atol=1e-10)


def test_star_rho_at_compatible_form(rng):
    w = rng.normal(size=(20, 6)).T
    assert_allclose(ext.star_rho2(w, ext.Base(ext.OMEGA1[:, None])),
                    ext.star2_flat(w),
                    atol=1e-13)


def test_star_rho_interior_identity(rng):
    # star_rho(i(X) rho) = -rho ^ g(X, .), g Euclidean
    rho = random_rho(rng, (60,), u_min=0.05)
    x = rng.normal(size=(60, 4)).T
    lhs = ext.star_rho1(ext.interior2(x, rho), ext.Base(rho))
    assert_allclose(lhs, -ext.wedge12(x, rho), atol=1e-9)


def test_star_rho_agrees_with_hodge_of_g_rho(rng):
    rho = random_rho(rng, (60,), u_min=0.05)
    gr = ext.Metric(ext.g_rho(rho))
    b = ext.Base(rho)
    l = rng.normal(size=(60, 4)).T
    w = rng.normal(size=(60, 6)).T
    f = rng.normal(size=(60, 4)).T
    assert_allclose(ext.star_rho1(l, b), ext.hodge1(gr, l), atol=1e-9)
    assert_allclose(ext.star_rho2(w, b), ext.hodge2(gr, w), atol=1e-9)
    assert_allclose(ext.star_rho3(f, b), ext.hodge3(gr, f), atol=1e-9)
    # odd-degree square: star_rho3(star_rho1(l)) = -l
    assert_allclose(ext.star_rho3(ext.star_rho1(l, b), b), -l, atol=1e-9)
    assert_allclose(ext.star_rho2(ext.star_rho2(w, b), b), w, atol=1e-9)


def test_sd_split_values(rng):
    p, m = ext.sd_split(ext.OMEGA1)
    assert_allclose(p, ext.OMEGA1, atol=1e-14)
    assert_allclose(m, 0 * m, atol=1e-14)
    rho = np.array([1.5, 0, 0, 0.5, 0, 0])
    p, m = ext.sd_split(rho)
    assert_allclose(p, ext.OMEGA1, atol=1e-14)
    assert_allclose(m, 0.5 * ext.OMEGA1_ASD, atol=1e-14)
    assert ext.norm2_sq(p) - ext.norm2_sq(m) == pytest.approx(2 * ext.u_of(rho))
    w = rng.normal(size=(50, 6)).T
    wp, wm = ext.sd_split(w)
    assert_allclose(ext.wedge22(wp, wm), 0, atol=1e-12)
    assert_allclose(wp + wm, w, atol=1e-14)


# ---------------------------------------------------------------------------
# Theta
# ---------------------------------------------------------------------------

def test_theta_vanishes_at_self_dual():
    assert_allclose(ext.theta_point(ext.Base(ext.OMEGA1)), np.zeros(6), atol=0)
    assert_allclose(ext.theta_point(ext.Base(2.5 * ext.OMEGA2)), np.zeros(6),
                    atol=1e-15)


def test_theta_worked_example():
    rho = np.array([1.5, 0, 0, 0.5, 0, 0])
    th = ext.theta_point(ext.Base(rho))
    assert_allclose(th, [-8 / 3, 0, 0, 8 / 9, 0, 0], atol=1e-13)
    assert ext.wedge22(th, rho) == pytest.approx(0.0, abs=1e-13)
    assert ext.wedge22(th, th) == pytest.approx(-128 / 27)


def test_theta_identities(rng):
    rho = random_rho(rng, (200,), u_min=0.1)
    u = ext.u_of(rho)
    th = ext.theta_point(ext.Base(rho))
    assert_allclose(ext.wedge22(th, rho), 0, atol=1e-10)
    p, m = ext.sd_split(rho)
    np2, nm2 = ext.norm2_sq(p), ext.norm2_sq(m)
    # both closed forms of Theta
    alt1 = 2 * p / u - (np2 / u ** 2) * rho
    alt2 = -(nm2 * p + np2 * m) / u ** 2
    assert_allclose(th, alt1, atol=1e-9)
    assert_allclose(th, alt2, atol=1e-9)
    # squared volume identity (right side is a multiple of dvol = e0123)
    assert_allclose(ext.wedge22(th, th), -2 * np2 * nm2 / u ** 3, atol=1e-8)


def test_theta_wedge_rho_zero_on_sd_families(rng):
    for _ in range(30):
        c = rng.uniform(0.2, 2.0)
        rho = c * ext.OMEGA1 + ext.OMEGA2
        if ext.u_of(rho) <= 0.05:
            continue
        th = ext.theta_point(ext.Base(rho))
        assert ext.wedge22(th, rho) == pytest.approx(0.0, abs=1e-12)


def test_theta_dot_at_minimum(rng):
    rh = rng.normal(size=(30, 6)).T
    omega = ext.Base(np.broadcast_to(ext.OMEGA1[:, None], (6, 30)))
    td = ext.theta_dot_point(omega, rh)
    _, minus = ext.sd_split(rh)
    assert_allclose(td, -2 * minus, atol=1e-13)
    assert_allclose(ext.theta_dot_point(ext.Base(ext.OMEGA1), ext.OMEGA2),
                    np.zeros(6), atol=1e-15)


def test_theta_dot_matches_finite_differences(rng):
    rho = random_rho(rng, (50,), u_min=0.5)
    rh = rng.normal(size=(50, 6)).T
    td = ext.theta_dot_point(ext.Base(rho), rh)

    def fd(t):
        return (ext.theta_point(ext.Base(rho + t * rh))
                - ext.theta_point(ext.Base(rho - t * rh))) / (2 * t)

    e1 = np.abs(fd(1e-3) - td).max()
    e2 = np.abs(fd(5e-4) - td).max()
    assert e1 < 1e-2 * max(1.0, np.abs(td).max())
    ratio = e1 / e2
    assert 3.2 < ratio < 4.8


# ---------------------------------------------------------------------------
# the in-place kernels, bit for bit
# ---------------------------------------------------------------------------

def _same_bits(got, want):
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


def test_in_place_kernels_equal_the_stacked_expressions(rng):
    # interior2, star_rho1, star_rho3 and theta_point fill their outputs in
    # place, each component summed term by term in the order of its stacked
    # expression in oracles, so the two agree bit for bit, signed zeros
    # included
    g = lat.Grid(8)
    field = flow.initial_data(g, np.random.Generator(np.random.Philox(7)))
    dtheta = lat.d2(g, ext.theta_point(ext.Base(field)))
    batch = random_rho(rng, (50,), u_min=0.1)
    cases = [  # (a vector or 3-form, a 2-form)
        (np.array([0.0, -0.0, 1.5, -2.0]), batch[:, 0]),   # a point (c,)
        (rng.normal(size=(4, 50)), batch),                 # a 1-d batch
        (rng.normal(size=4), field),            # a constant against a field
        (dtheta, field),                        # the n = 8, seed-7 field
    ]
    for f, rho in cases:
        b = ext.Base(rho)
        assert _same_bits(ext.interior2(f, rho), orc.interior2_stacked(f, rho))
        assert _same_bits(ext.star_rho3(f, b),
                          orc.star_rho3_stacked(f, rho, b.u))
        assert _same_bits(ext.star_rho1(f, b),
                          orc.star_rho1_stacked(f, rho, b.u))
        assert _same_bits(ext.theta_point(b), orc.theta_point_stacked(rho, b.u))
    # a constant 2-form against a field of vectors, as hyperkahler has it
    assert _same_bits(ext.interior2(dtheta, ext.OMEGA2),
                      orc.interior2_stacked(dtheta, ext.OMEGA2))
    # wedge11, wedge12 and form2_matrix the same way: a point with signed
    # zeros, a batch, and a constant against a field either way round
    zeros1 = np.array([0.0, -0.0, 1.5, -2.0])
    zeros2 = np.array([-0.0, 0.0, -0.0, 3.0, 0.0, -1.0])
    vectors = rng.normal(size=(4, 50))
    cases = [  # (a 1-form, a 1-form, a 2-form)
        (zeros1, -zeros1[::-1], zeros2),              # a point (c,)
        (vectors, rng.normal(size=(4, 50)), batch),   # a 1-d batch
        (rng.normal(size=4), dtheta, field),          # a constant, a field
        (dtheta, zeros1, ext.OMEGA2),                 # a field, a constant
    ]
    for l1, l2, w in cases:
        assert _same_bits(ext.wedge11(l1, l2), orc.wedge11_stacked(l1, l2))
        assert _same_bits(ext.wedge12(l1, w), orc.wedge12_stacked(l1, w))
        assert _same_bits(ext.form2_matrix(w), orc.form2_matrix_stacked(w))


# ---------------------------------------------------------------------------
# J^rho and quaternion triples
# ---------------------------------------------------------------------------

def test_j_rho_defining_identity(rng):
    rho = random_rho(rng, (100,), u_min=0.05)
    m = ext.j_rho(J1_STD, rho)
    p = ext.form2_matrix(rho)
    lhs = np.einsum("...ki,...kl->...il", m, p)   # rho(M v, w)
    rhs = p @ J1_STD                              # rho(v, J w)
    assert_allclose(lhs, rhs, atol=1e-10)


def test_j_rho_at_compatible_form():
    # rho(J^rho v, w) = rho(v, J w): at rho = omega1 the compatible J1 flips
    # sign while J2 (which anticommutes through the pairing) is fixed
    assert_allclose(ext.j_rho(J1_STD, ext.OMEGA1), -J1_STD, atol=1e-14)
    assert_allclose(ext.j_rho(J2_STD, ext.OMEGA1), J2_STD, atol=1e-14)


def test_quaternion_triple_standard():
    j1, j2, j3 = ext.quaternion_triple(ext.OMEGA1, ext.OMEGA2, ext.OMEGA3)
    assert_allclose(j1, J1_STD, atol=1e-14)
    assert_allclose(j2, J2_STD, atol=1e-14)
    assert_allclose(j3, J3_STD, atol=1e-14)
    assert_allclose(j1 @ j2, j3, atol=1e-14)
    assert_allclose(j2 @ j1, -j3, atol=1e-14)
    for j in (j1, j2, j3):
        assert_allclose(j @ j, -np.eye(4), atol=1e-14)


def test_quaternion_triple_scale_invariant():
    j = ext.quaternion_triple(ext.OMEGA1, ext.OMEGA2, ext.OMEGA3)
    js = ext.quaternion_triple(2 * ext.OMEGA1, 2 * ext.OMEGA2, 2 * ext.OMEGA3)
    for a, b in zip(j, js):
        assert_allclose(a, b, atol=1e-14)


def test_quaternion_triple_properties(rng):
    j1, j2, j3 = ext.quaternion_triple(ext.OMEGA1, ext.OMEGA2, ext.OMEGA3)
    ps = [ext.form2_matrix(w) for w in (ext.OMEGA1, ext.OMEGA2, ext.OMEGA3)]
    for _ in range(20):
        v = rng.normal(size=4)
        w = rng.normal(size=4)
        cols = np.stack([v, j1 @ v, j2 @ v, j3 @ v], axis=1)
        assert abs(np.linalg.det(cols)) > 1e-12 * max(1, np.linalg.norm(v) ** 4)
        vals = [v @ p @ (j @ v) for p, j in zip(ps, (j1, j2, j3))]
        assert_allclose(vals, vals[0], atol=1e-12)
        for p, j in zip(ps, (j1, j2, j3)):
            assert w @ p @ (j @ v) == pytest.approx(v @ p @ (j @ w), abs=1e-12)


def test_anticommuting_compatible_triple_closes(rng):
    # conjugated standard triples stay compatible and satisfy J1 J2 = +/- J3
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        js = [q.T @ j @ q for j in (J1_STD, J2_STD, J3_STD)]
        for a in js:
            assert_allclose(a @ a, -np.eye(4), atol=1e-12)
            assert_allclose(a.T, -a, atol=1e-12)  # compatible with euclidean g
        prod = js[0] @ js[1]
        assert (np.allclose(prod, js[2], atol=1e-12)
                or np.allclose(prod, -js[2], atol=1e-12))


# ---------------------------------------------------------------------------
# compatibility characterizations
# ---------------------------------------------------------------------------

def _sd_basis_oracle(g):
    """Wedge-orthonormal self-dual basis from the eigenspace projector."""
    g = ext.Metric(g)
    star = np.stack([ext.hodge2(g, e) for e in np.eye(6)], axis=1)
    proj = 0.5 * (np.eye(6) + star)     # projector onto the +1 eigenspace
    uu, ss, _ = np.linalg.svd(proj)
    assert np.sum(ss > 0.5) == 3
    cols = [uu[:, i] for i in range(3)]
    vol = g.vol
    out = []
    for w in cols:
        for prev in out:
            w = w - (ext.wedge22(w, prev) / (2 * vol)) * prev
        out.append(w / np.sqrt(ext.wedge22(w, w) / (2 * vol)))
    return np.stack(out)


def test_self_dual_basis_spans_the_oracle_plane(rng):
    g = random_spd(rng, (200,))
    gm = ext.Metric(g)
    basis = ext.self_dual_basis(gm)                     # (6, 200, 3)
    vol = gm.vol
    assert_allclose(ext.hodge2(ext.Metric(g[:, None]), basis), basis, rtol=0,
                    atol=1e-12)
    gram = np.stack([[ext.wedge22(basis[..., a], basis[..., b]) for b in range(3)]
                     for a in range(3)])                # (3, 3, 200)
    assert_allclose(gram / vol, np.broadcast_to(2 * np.eye(3)[..., None], gram.shape),
                    rtol=0, atol=1e-12)
    # the wedge pairing is an inner product on the self-dual plane, so the
    # part of an oracle form outside span(basis) is what its wedge-orthogonal
    # projection onto the basis leaves over
    for i in range(200):
        for w in _sd_basis_oracle(g[i]):
            coef = ext.wedge22(w[:, None], basis[:, i]) / (2 * vol[i])
            assert_allclose(basis[:, i] @ coef, w, rtol=0, atol=1e-12)


def test_appendixA_needs_no_svd_and_quaternion_triple_no_linalg(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("unexpected numpy.linalg call")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    assert all(rec["passed"] for rec in suite_appendixA(0, 200))
    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, forbidden)
    j1, j2, j3 = ext.quaternion_triple(ext.OMEGA1, ext.OMEGA2, ext.OMEGA3)
    assert_allclose(j1 @ j2, j3, atol=1e-14)


def _compatible_triple(rng):
    g = random_spd(rng)
    w = _sd_basis_oracle(g)[0]
    j = np.linalg.solve(ext.form2_matrix(w), g)
    return w, g, j


def test_compatible_pair_properties(rng):
    # g = w(., J.) implies dvol_w = dvol_g, w self-dual, and the 1-form
    # identity star(w ^ l) = -l o J
    for _ in range(20):
        w, g, j = _compatible_triple(rng)
        g = ext.Metric(g)
        assert_allclose(j @ j, -np.eye(4), atol=1e-9)
        assert ext.wedge22(w, w) / 2 == pytest.approx(g.vol, rel=1e-9)
        assert_allclose(ext.hodge2(g, w), w, atol=1e-9)
        for _ in range(5):
            l = rng.normal(size=4)
            assert_allclose(ext.hodge3(g, ext.wedge12(l, w)), -(j.T @ l),
                            atol=1e-8)


def test_unit_volume_self_dual_form_is_compatible(rng):
    # dvol_w = dvol_g and w self-dual imply an orientation-compatible J with
    # g = w(., J.)
    for _ in range(20):
        g = random_spd(rng)
        basis = _sd_basis_oracle(g)
        t = rng.normal(size=3)
        t /= np.linalg.norm(t)
        w = t @ basis
        assert ext.wedge22(w, w) / 2 == pytest.approx(ext.Metric(g).vol, rel=1e-9)
        j = np.linalg.solve(ext.form2_matrix(w), g)
        assert_allclose(j @ j, -np.eye(4), atol=1e-8)
        assert np.linalg.det(j) == pytest.approx(1.0, abs=1e-8)


def test_metric_equivalences(rng):
    # the characterizations of the induced metric g_rho agree pairwise
    for _ in range(20):
        w, g, j = _compatible_triple(rng)
        gm = ext.Metric(g)
        rho = np.sqrt(gm.vol) * random_rho(rng, u_min=0.1)
        gr = ext.Metric(ext.g_rho(rho, gm))
        u = ext.u_of(rho, gm)
        base = ext.Base(rho)
        # volume matches
        assert np.linalg.det(gr.g) == pytest.approx(np.linalg.det(g), rel=1e-9)
        # 1-form star is the closed formula
        l = rng.normal(size=4)
        assert_allclose(ext.hodge1(gr, l),
                        ext.wedge12(ext.hodge3(gm, ext.wedge12(l, rho)), rho) / u,
                        atol=1e-8)
        # vector identity
        x = rng.normal(size=4)
        assert_allclose(ext.hodge1(gr, ext.interior2(x, rho)),
                        -ext.wedge12(g @ x, rho), atol=1e-8)
        # g_rho = (R w)(., J^rho .)
        jr = ext.j_rho(j, rho)
        pw = ext.form2_matrix(ext.r_rho(w, base))
        assert_allclose(pw @ jr, gr.g, atol=1e-8)
        # self-dual spaces are exchanged by R
        for wa in _sd_basis_oracle(g):
            rwa = ext.r_rho(wa, base)
            assert_allclose(ext.hodge2(gr, rwa), rwa, atol=1e-8)
        # 2-form star is R star R
        t = rng.normal(size=6)
        assert_allclose(ext.hodge2(gr, t),
                        ext.r_rho(ext.hodge2(gm, ext.r_rho(t, base)), base),
                        atol=1e-8)


# ---------------------------------------------------------------------------
# metric reconstruction from volume form and self-dual plane
# ---------------------------------------------------------------------------

def test_metric_from_vol_and_plane_standard():
    basis = np.stack([ext.OMEGA1, ext.OMEGA2, ext.OMEGA3], axis=-1)
    g = ext.metric_from_vol_and_plane(np.asarray(1.0), basis)
    assert_allclose(g, np.eye(4), atol=1e-13)
    # permuted basis gives the same metric (uniqueness)
    gp = ext.metric_from_vol_and_plane(
        np.asarray(1.0), np.stack([ext.OMEGA2, ext.OMEGA3, ext.OMEGA1], axis=-1))
    assert_allclose(gp, np.eye(4), atol=1e-13)


def test_metric_from_vol_and_plane_roundtrip(rng):
    for _ in range(25):
        g0 = random_spd(rng, unit_vol=True)
        basis = _sd_basis_oracle(g0)
        vol = ext.Metric(g0).vol
        g = ext.metric_from_vol_and_plane(vol, basis.T)
        assert_allclose(g, g0, atol=1e-9)
        g = ext.Metric(g)
        assert g.vol == pytest.approx(vol, rel=1e-9)
        for w in basis:
            assert_allclose(ext.hodge2(g, w), w, atol=1e-9)


def test_metric_from_vol_and_plane_rejects_bad_plane():
    bad = np.stack([ext.OMEGA1, ext.OMEGA1, ext.OMEGA2], axis=-1)  # rank 2
    with pytest.raises((ext.NotPositivePlane, ext.DegenerateForm)):
        ext.metric_from_vol_and_plane(np.asarray(1.0), bad)
    asd = np.stack([ext.OMEGA1_ASD, ext.OMEGA2_ASD, ext.OMEGA3_ASD], axis=-1)
    with pytest.raises(ext.NotPositivePlane):
        ext.metric_from_vol_and_plane(np.asarray(1.0), asd)
    std = np.stack([ext.OMEGA1, ext.OMEGA2, ext.OMEGA3], axis=-1)
    with pytest.raises(ext.NotPositivePlane):     # NaN fails the guards
        ext.metric_from_vol_and_plane(np.asarray(np.nan), std)
    with pytest.raises(ext.NotPositivePlane):
        ext.metric_from_vol_and_plane(np.asarray(1.0), std * np.nan)
