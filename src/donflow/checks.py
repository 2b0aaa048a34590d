"""Randomized identity suites behind the ``check`` subcommand.

Each suite runs a family of exact identities over seeded random instances
and returns one JSON-able record per check:

    {name, identity, lhs, rhs, abs_err, rel_err, tol, passed,
     samples, grid_n, scheme}

``lhs``/``rhs`` hold representative magnitudes (largest values seen), the
errors are maxima over the whole batch.  Identical seed and sizes give a
bit-identical report.
"""

from __future__ import annotations

import numpy as np

from donflow import exterior as ext
from donflow import flow
from donflow import hyperkahler as hk
from donflow import lattice as lat

SUITE_ORDER = ("appendixA", "theta", "hyperkahler", "gradient", "hessiancov")

# the lattice of the field suites (hessiancov refines it to n = 12 as well)
GRID_N = 8
SCHEME = "spectral"


def _record(name, identity, lhs, rhs, err, tol, samples=None, grid_n=None,
            scheme=None, rel_scale=None):
    rel = err / rel_scale if rel_scale else err
    return {
        "name": name,
        "identity": identity,
        "lhs": float(np.max(np.abs(lhs))),
        "rhs": float(np.max(np.abs(rhs))),
        "abs_err": float(err),
        "rel_err": float(rel),
        "tol": float(tol),
        "passed": bool(rel <= tol),
        "samples": samples,
        "grid_n": grid_n,
        "scheme": scheme,
    }


def _rng(seed, idx):
    return np.random.Generator(np.random.Philox(1000 * int(seed) + idx))


def random_rho(rng, batch=(), u_min=0.05, g=None):
    """Random 2-forms of shape (6,) + batch with volume ratio above u_min
    (for the ``exterior.Metric`` g, flat if None), resampling the entries
    that fall below it.  Each draw is batch + (6,) uniform numbers,
    moved to component-first; every round draws the whole batch, so the
    stream does not depend on how many entries are redrawn."""
    vol = np.broadcast_to(1.0 if g is None else g.vol, batch)
    vol = vol.reshape(-1)
    root = np.sqrt(vol)
    rho = todo = None
    for _ in range(501):
        # (6, batch size), in the draw's transposed memory order
        draw = rng.uniform(-1.0, 1.0, size=batch + (6,)).reshape(-1, 6).T
        if rho is None:
            rho, todo = root * draw, np.arange(draw.shape[1])
        else:
            rho[:, todo] = root[todo] * draw[:, todo]
        todo = todo[ext.u_of(rho[:, todo]) / vol[todo] <= u_min]
        if not todo.size:
            return rho.reshape((6,) + batch)
    raise RuntimeError("sampling admissible forms failed")


def random_spd(rng, batch=(), unit_vol=False):
    """Random symmetric positive definite 4x4 matrices of shape
    batch + (4, 4), scaled to unit determinant if unit_vol."""
    m = rng.normal(size=batch + (4, 4))
    g = np.einsum("...ki,...kj->...ij", m, m) + 0.4 * np.eye(4)
    if unit_vol:
        g = g / np.linalg.det(g)[..., None, None] ** 0.25
    return g


def perturbed_omega1(grid, field, eps):
    """omega1 plus d of the 1-form field ``field(grid)`` (a
    ``random_trig_field`` closure), scaled to sup norm eps."""
    pert = lat.d1(grid, field(grid))
    pert *= eps / np.abs(pert).max()
    return grid.constant(ext.OMEGA1) + pert


def exact_direction(grid, field, amp):
    """The 1-form ``field(grid)`` scaled to sup norm amp, and its d."""
    mu = field(grid)
    mu *= amp / np.abs(mu).max()
    return mu, lat.d1(grid, mu)


def suite_appendixA(seed, samples):
    """Appendix A's pointwise identities.  Each of its five metric batches
    is wrapped in one ``exterior.Metric``, so it is factored once, and
    dropped after its last check."""
    rng = _rng(seed, 0)
    out = []
    b = int(samples)

    rho = rng.uniform(-1, 1, size=(b, 6)).T
    det = np.linalg.det(ext.a_of(rho))
    u2 = ext.u_of(rho) ** 2
    out.append(_record("det_a", "det(A) = u^2 (euclidean)", det, u2,
                       np.abs(det - u2).max(), 1e-9, b,
                       rel_scale=max(1.0, np.abs(u2).max())))

    g = ext.Metric(random_spd(rng, (b,)))
    detg = np.linalg.det(ext.a_of(rho, g))
    u2g = ext.u_of(rho, g) ** 2
    out.append(_record("det_a_metric", "det(A) = u^2 (general metric)",
                       detg, u2g, np.abs(detg - u2g).max(), 1e-9, b,
                       rel_scale=max(1.0, np.abs(u2g).max())))

    gu = ext.Metric(random_spd(rng, (b,), unit_vol=True))
    l = rng.normal(size=(b, 4)).T
    w = rng.normal(size=(b, 6)).T
    f = rng.normal(size=(b, 4)).T
    errs = max(
        np.abs(ext.hodge3(gu, ext.hodge1(gu, l)) + l).max(),
        np.abs(ext.hodge2(gu, ext.hodge2(gu, w)) - w).max(),
        np.abs(ext.hodge1(gu, ext.hodge3(gu, f)) + f).max(),
    )
    del gu
    out.append(_record("hodge_square", "star(star) = (-1)^k on degree k",
                       1.0, 1.0, errs, 1e-9, b,
                       rel_scale=max(1.0, np.abs(w).max())))

    v = rng.normal(size=(b, 4)).T
    gv = np.einsum("...ij,j...->i...", g.g, v)
    ivvol = ext.interior4(v, g.vol)
    dual1 = np.abs(ext.hodge1(g, gv) - ivvol).max()
    dual2 = np.abs(ext.hodge3(g, ivvol) + gv).max()
    del g
    out.append(_record("vector_duality",
                       "star g(v,.) = i(v) dvol; star i(v) dvol = -g(v,.)",
                       gv, ivvol, max(dual1, dual2), 1e-9, b,
                       rel_scale=max(1.0, np.abs(ivvol).max())))

    # random compatible triples (omega, g, J) with g = omega(., J.)
    gc = ext.Metric(random_spd(rng, (b,)))
    sd = ext.self_dual_basis(gc)
    wc = sd[..., 0]
    jc = ext.form2_matrix_inv(wc) @ gc.g
    errc = np.abs(jc @ jc + np.eye(4)).max()
    lam = rng.normal(size=(b, 4)).T
    lhs = ext.hodge3(gc, ext.wedge12(lam, wc))
    rhs = -np.einsum("...ji,j...->i...", jc, lam)
    out.append(_record("compatible_star",
                       "g = w(., J.) iff star(w ^ l) = -l o J and vol match",
                       lhs, rhs,
                       max(errc, np.abs(lhs - rhs).max(),
                           np.abs(ext.wedge22(wc, wc) / 2 - gc.vol).max(),
                           np.abs(ext.hodge2(gc, wc) - wc).max()),
                       1e-9, b, rel_scale=max(1.0, np.abs(lhs).max())))

    rho2 = random_rho(rng, (b,), 0.05, gc)
    gr = ext.Metric(ext.g_rho(rho2, gc))
    u = ext.u_of(rho2, gc)
    scale = max(1.0, float(np.abs(gr.g).max()))
    e2 = np.abs(ext.hodge1(gr, lam)
                - ext.wedge12(ext.hodge3(gc, ext.wedge12(lam, rho2)), rho2)
                / u).max()
    x = rng.normal(size=(b, 4)).T
    e3 = np.abs(ext.hodge1(gr, ext.interior2(x, rho2))
                + ext.wedge12(np.einsum("...ij,j...->i...", gc.g, x), rho2)).max()
    jr = ext.j_rho(jc, rho2)
    base2 = ext.Base(rho2)
    e4 = np.abs(ext.form2_matrix(ext.r_rho(wc, base2)) @ jr - gr.g).max()
    rsd = ext.r_rho(sd, ext.Base(rho2[..., None]))
    e5 = max(np.abs(ext.hodge2(gr, rsd[..., a]) - rsd[..., a]).max()
             for a in range(3))
    t = rng.normal(size=(b, 6)).T
    e6 = np.abs(ext.hodge2(gr, t)
                - ext.r_rho(ext.hodge2(gc, ext.r_rho(t, base2)), base2)).max()
    evol = np.abs(gr.det - gc.det).max()
    del gc, gr
    out.append(_record("twisted_metric",
                       "six characterizations of g_rho agree pairwise",
                       1.0, 1.0, max(e2, e3, e4, e5, e6, evol), 1e-9, b,
                       rel_scale=scale ** 2))

    g0 = ext.Metric(random_spd(rng, (b,), unit_vol=True))
    basis = ext.self_dual_basis(g0)
    grec = ext.metric_from_vol_and_plane(g0.vol, basis)
    out.append(_record("metric_reconstruction",
                       "unique metric from volume form and self-dual plane",
                       grec, g0.g, np.abs(grec - g0.g).max(), 1e-9, b,
                       rel_scale=max(1.0, np.abs(g0.g).max())))
    del g0

    rr = ext.r_rho(ext.r_rho(t, base2), base2)
    ew = np.abs(ext.wedge22(ext.r_rho(t, base2), ext.r_rho(w, base2))
                - ext.wedge22(t, w)).max()
    out.append(_record("reflection", "R^2 = id and R preserves the pairing",
                       rr, t, max(np.abs(rr - t).max(), ew), 1e-9, b,
                       rel_scale=max(1.0, np.abs(t).max() ** 2)))

    j1, j2, j3 = ext.quaternion_triple(ext.OMEGA1, ext.OMEGA2, ext.OMEGA3)
    eq = max(np.abs(j1 @ j2 - j3).max(), np.abs(j2 @ j1 + j3).max(),
             np.abs(j1 @ j1 + np.eye(4)).max())
    vv = rng.normal(size=(b, 4))
    cols = np.stack([vv, vv @ j1.T, vv @ j2.T, vv @ j3.T], axis=-1)
    dets = np.linalg.det(cols)
    norms = np.einsum("...i,...i->...", vv, vv)
    frame_ok = float(np.min(np.abs(dets) / np.maximum(norms ** 2, 1e-30)))
    out.append(_record("quaternion_triple",
                       "cyclic solves give quaternion relations and frames",
                       dets, norms ** 2, eq + max(0.0, 1e-6 - frame_ok),
                       1e-9, b, rel_scale=1.0))
    return out


def suite_theta(seed, samples):
    rng = _rng(seed, 1)
    b = int(samples)
    out = []
    rho = random_rho(rng, (b,), 0.3)
    base = ext.Base(rho)
    u = base.u
    th = ext.theta_point(base)
    scale = max(1.0, float(np.abs(th).max() * np.abs(rho).max()))
    out.append(_record("theta_wedge_rho", "Theta ^ rho = 0",
                       th, rho, np.abs(ext.wedge22(th, rho)).max(), 1e-11,
                       b, rel_scale=scale))

    plus, minus = ext.sd_split(rho)
    np2, nm2 = ext.norm2_sq(plus), ext.norm2_sq(minus)
    alt1 = 2 * plus / u - (np2 / u ** 2) * rho
    alt2 = -(nm2 * plus + np2 * minus) / u ** 2
    out.append(_record("theta_forms", "the closed forms of Theta agree",
                       alt1, alt2,
                       max(np.abs(th - alt1).max(), np.abs(th - alt2).max()),
                       1e-10, b, rel_scale=max(1.0, float(np.abs(th).max()))))

    lhs = ext.wedge22(th, th)
    rhs = -2 * np2 * nm2 / u ** 3
    out.append(_record("theta_square",
                       "Theta ^ Theta = -2|r+|^2 |r-|^2 / u^3 dvol",
                       lhs, rhs, np.abs(lhs - rhs).max(), 1e-9, b,
                       rel_scale=max(1.0, float(np.abs(rhs).max()))))

    sd = (rng.uniform(0.3, 2.0, size=(b, 1)) * ext.OMEGA1).T
    th_sd = ext.theta_point(ext.Base(sd))
    out.append(_record("theta_self_dual", "Theta = 0 iff rho self-dual",
                       th_sd, 0.0, np.abs(th_sd).max(), 1e-12, b,
                       rel_scale=1.0))

    rh = rng.normal(size=(b, 6)).T
    td = ext.theta_dot_point(base, rh)

    def fd(t):
        return (ext.theta_point(ext.Base(rho + t * rh))
                - ext.theta_point(ext.Base(rho - t * rh))) / (2 * t)

    e1 = np.abs(fd(1e-3) - td).max()
    e2 = np.abs(fd(5e-4) - td).max()
    ratio = e1 / e2
    rec = _record("theta_derivative",
                  "Theta_dot matches second order differences (ratio 4)",
                  ratio, 4.0, abs(ratio - 4.0), 0.8, b, rel_scale=1.0)
    out.append(rec)
    return out


def suite_hyperkahler(seed, samples):
    rng = _rng(seed, 2)
    b = int(samples)
    out = []
    rho = random_rho(rng, (b,), 0.05)
    base = ext.Base(rho)
    u = base.u
    k = hk.k_functions(base)
    plus, minus = ext.sd_split(rho)
    recon = 0.5 * u * np.einsum("i...,ic->c...", k, hk.OMEGAS)
    e1 = np.abs(recon - plus).max()
    e2 = np.abs(2 * ext.norm2_sq(plus) - u ** 2 * np.sum(k ** 2, axis=0)).max()
    e3 = np.abs(ext.norm2_sq(plus) - ext.norm2_sq(minus) - 2 * u).max()
    out.append(_record("moment_map_split",
                       "r+ = (u/2) sum K_i w_i and the norm identities",
                       recon, plus, max(e1, e2, e3), 1e-10, b,
                       rel_scale=max(1.0, float(np.abs(plus).max() ** 2))))

    dev = np.abs(hk.theta_hk(base) - ext.theta_point(base)).max()
    out.append(_record("theta_cross", "moment-map Theta = direct Theta",
                       1.0, 1.0, dev, 1e-11, b,
                       rel_scale=max(1.0, float(np.abs(rho).max()))))

    g = lat.Grid(GRID_N, SCHEME)
    gen = np.random.Generator(np.random.Philox(2000 * int(seed) + 5))
    base_f = ext.Base(
        perturbed_omega1(g, lat.random_trig_field(gen, 2, 4), 0.25))
    ea, eb = flow.energy(g, base_f), hk.energy_hk(g, base_f)
    out.append(_record("energy_cross", "conformal energy = moment-map energy",
                       ea, eb, abs(ea - eb), 1e-10, 1, GRID_N, SCHEME,
                       rel_scale=abs(ea)))
    _, rh_f = exact_direction(g, lat.random_trig_field(gen, 2, 4), 0.4)
    ha = flow.hessian_form(g, base_f, rh_f)
    hb = hk.hessian_hk(g, base_f, rh_f)
    out.append(_record("hessian_cross", "Hessian = moment-map Hessian",
                       ha, hb, abs(ha - hb), 1e-10, 1, GRID_N, SCHEME,
                       rel_scale=max(1.0, abs(ha))))

    base_g = ext.Base(
        perturbed_omega1(g, lat.random_trig_field(gen, 1, 4), 0.003))
    r = flow.rhs(g, base_g)
    num = lat.l2_norm(g, hk.grad_hk(g, base_g) + r)
    den = lat.l2_norm(g, r)
    out.append(_record("gradient_cross",
                       "moment-map gradient = minus flow rhs (band limited)",
                       num, den, num / den, 1e-8, 1, GRID_N, SCHEME,
                       rel_scale=1.0))
    return out


def suite_gradient(seed, samples):
    gen = np.random.Generator(np.random.Philox(3000 * int(seed) + 7))
    g = lat.Grid(GRID_N, SCHEME)
    pairs = max(2, min(int(samples), 20))
    worst = 0.0
    last = (0.0, 0.0)
    for _ in range(pairs):
        # the closure draws its modes before gen draws the amplitude;
        # that order fixes the report
        base = ext.Base(perturbed_omega1(g, lat.random_trig_field(gen, 2, 4),
                                         gen.uniform(0.05, 0.3)))
        _, rh = exact_direction(g, lat.random_trig_field(gen, 2, 4), 0.4)
        lhs = flow.first_variation(g, base, rh)
        rhs = -flow.donaldson_pairing(g, rh, flow.rhs(g, base), base)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12))
        last = (lhs, rhs)
    return [_record("gradient_consistency",
                    "dE(rho)[rhohat] = -<rhs, rhohat> in the Donaldson metric",
                    last[0], last[1], worst, 1e-6, pairs, GRID_N, SCHEME,
                    rel_scale=1.0)]


def suite_hessiancov(seed, samples):
    gen = np.random.Generator(np.random.Philox(4000 * int(seed) + 9))
    out = []
    rho_fn = lat.random_trig_field(gen, 1, 4)
    mu_fn = lat.random_trig_field(gen, 1, 4)
    res = {}
    for n in (GRID_N, 12):
        g = lat.Grid(n, SCHEME)
        base = ext.Base(perturbed_omega1(g, rho_fn, 0.1))
        mu, rh = exact_direction(g, mu_fn, 0.3)
        rep = hk.hessiancov_check(g, base, rh, mu=mu)
        res[n] = rep["abcde_relative"]
        out.append(_record(f"covariant_ledger_n{n}",
                           "A + B + C + D = 2E for the Hessian ledger",
                           rep["cov_lhs"], rep["cov_rhs"],
                           res[n], 1e-3, 1, n, SCHEME, rel_scale=1.0))
    out.append(_record("covariant_ledger_refines",
                       "ledger residual decreases under refinement",
                       res[GRID_N], res[12],
                       0.0 if res[12] <= res[GRID_N] else 1.0, 0.5, 2, 12,
                       SCHEME, rel_scale=1.0))
    g = lat.Grid(GRID_N, SCHEME)
    mu0 = mu_fn(g)
    rep0 = hk.hessiancov_check(g, ext.Base(g.constant(ext.OMEGA1)),
                               lat.d1(g, mu0), mu=mu0)
    out.append(_record("covariant_ledger_minimum",
                       "ledger vanishes identically at the minimum",
                       rep0["cov_lhs"], rep0["cov_rhs"],
                       rep0["abcde_residual"], 1e-10, 1, GRID_N, SCHEME,
                       rel_scale=1.0))
    return out


SUITES = {
    "appendixA": suite_appendixA,
    "theta": suite_theta,
    "hyperkahler": suite_hyperkahler,
    "gradient": suite_gradient,
    "hessiancov": suite_hessiancov,
}


def suite_names(names):
    """The suites that ``names`` selects (all for "all"), in SUITE_ORDER;
    raises KeyError on an unknown name."""
    if "all" in names:
        return list(SUITE_ORDER)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise KeyError(f"unknown check suite {unknown[0]!r}; "
                       f"available: {sorted(SUITES)} or 'all'")
    return [name for name in SUITE_ORDER if name in names]


def run_suites(names, seed, samples):
    """Run the named suites (or all for "all"); returns (records, all_passed)."""
    records = []
    for name in suite_names(names):
        records.extend(SUITES[name](seed, samples))
    return records, all(r["passed"] for r in records)
