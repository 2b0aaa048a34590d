"""Randomized identity suites behind the ``check`` subcommand.

Each suite runs a family of exact identities over seeded random instances
and returns one JSON-able record per check:

    {name, identity, lhs, rhs, abs_err, rel_err, tol, passed,
     samples, grid_n, scheme}

``lhs``/``rhs`` hold representative magnitudes (largest values seen), the
errors are maxima over the whole batch.  Identical seed and sizes give a
bit-identical report.

The pointwise suites (appendixA, theta, and the first two records of
hyperkahler) draw each input for the whole batch, in a fixed stream
order and component-first, as every form in the package is stored: a
(c, samples) array whose components are each one contiguous row.  A
2-form with a volume-ratio floor comes from :func:`random_rho`, which
draws flat forms for the whole batch once and then redraws only the
samples still below the floor, so how many numbers a suite's stream
holds depends on the data.  The identities are evaluated on slices of
``CHUNK`` samples, and each term's largest (or smallest) magnitude is
folded across the slices with np.maximum (np.minimum); no sum or mean
is folded, so no record depends on CHUNK.
Only the drawn inputs grow with the batch, and each is dropped after the
last record that reads it.  At 20,000 samples appendixA and hessiancov,
whose fields do not grow with the samples, peak close together
(ru_maxrss 53.1 and 52.8 MB, each alone); above that appendixA sets
the peak at about 0.6 kB per sample (100 MB at 100,000).
"""

from __future__ import annotations

import numpy as np

from donflow import exterior as ext
from donflow import flow
from donflow import hyperkahler as hk
from donflow import lattice as lat

SUITE_ORDER = ("appendixA", "theta", "hyperkahler", "gradient", "hessiancov")

# the lattice of the field suites, and the refined one on which
# hessiancov repeats its ledger and hyperkahler compares gradients
GRID_N = 8
FINE_N = 12
SCHEME = "spectral"


# samples per slice of a pointwise suite, read at call time
CHUNK = 4096


def _slices(samples):
    """Consecutive slices of CHUNK samples covering the batch.  A slice of
    one sample is widened to two with a neighbour, where the batch has
    two: einsum sums the contiguous components of a (c, 1) slice with
    vector instructions, in another order than on a longer slice, while a
    sample seen twice changes no maximum or minimum."""
    for start in range(0, samples, CHUNK):
        lo = max(0, min(start, samples - 2))
        yield slice(lo, min(samples, max(start + CHUNK, lo + 2)))


def _fold(samples, terms, minima=()):
    """The whole-batch np.max of |term| for each array in the dict
    ``terms(s)`` (np.min for the names in ``minima``), evaluated on the
    slices s of :func:`_slices` and folded across them with np.maximum
    (np.minimum).  These propagate NaN as np.max and np.min do, and a
    maximum of maxima is exact, so each value equals the whole-batch one
    bit for bit."""
    folded = {}
    for s in _slices(samples):
        for name, term in terms(s).items():
            op = np.minimum if name in minima else np.maximum
            value = op.reduce(np.abs(term), axis=None)
            folded[name] = op(folded[name], value) if name in folded else value
    return folded


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


def random_rho(rng, batch=(), u_min=0.05):
    """Random 2-forms of shape (6,) + batch with flat volume ratio u above
    u_min, each component uniform in (-1, 1).  A metric only scales them:
    sqrt(vol) times one has u above u_min for the metric of volume vol.
    The first round draws (6, batch size) numbers, component-first; each
    of up to 500 later rounds draws (6, pending) numbers for the samples
    still at or below u_min, and no others.  Raises RuntimeError if some
    remain."""
    rho = rng.uniform(-1.0, 1.0, size=(6,) + batch).reshape(6, -1)
    todo = np.flatnonzero(ext.u_of(rho) <= u_min)
    for _ in range(500):
        if not todo.size:
            break
        rho[:, todo] = rng.uniform(-1.0, 1.0, size=(6, todo.size))
        todo = todo[ext.u_of(rho[:, todo]) <= u_min]
    if todo.size:
        raise RuntimeError("sampling admissible forms failed")
    return rho.reshape((6,) + batch)


def random_spd(rng, batch=(), unit_vol=False):
    """Random symmetric positive definite 4x4 matrices of shape
    batch + (4, 4), scaled to unit determinant if unit_vol."""
    m = rng.normal(size=batch + (4, 4))
    g = np.swapaxes(m, -1, -2) @ m + 0.4 * np.eye(4)
    if unit_vol:
        g = g / ext.lu4(g)[..., None, None] ** 0.25
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
    """Appendix A's pointwise identities.  Each metric batch is drawn
    whole, as matrices; each slice of it is built into one
    ``exterior.Metric``, factored once for every term that reads it.
    Each input is dropped after the last record that reads it."""
    rng = _rng(seed, 0)
    b = int(samples)
    rho = rng.uniform(-1, 1, size=(6, b))
    g = random_spd(rng, (b,))
    gu = random_spd(rng, (b,), unit_vol=True)
    l = rng.normal(size=(4, b))
    w = rng.normal(size=(6, b))
    f = rng.normal(size=(4, b))
    v = rng.normal(size=(4, b))

    def metric_terms(s):
        rs, vs, gs = rho[:, s], v[:, s], ext.Metric(g[s])
        det = ext.lu4(ext.a_of(rs))
        u2 = ext.u_of(rs) ** 2
        detg = ext.lu4(ext.a_of(rs, gs))
        u2g = ext.u_of(rs, gs) ** 2
        gv = np.einsum("...ij,j...->i...", gs.g, vs)
        ivvol = ext.interior4(vs, gs.vol)
        return {"det": det, "u2": u2, "det_err": det - u2,
                "detg": detg, "u2g": u2g, "detg_err": detg - u2g,
                "gv": gv, "ivvol": ivvol,
                "dual1": ext.hodge1(gs, gv) - ivvol,
                "dual2": ext.hodge3(gs, ivvol) + gv}

    def hodge_terms(s):
        ls, ws, fs, gs = l[:, s], w[:, s], f[:, s], ext.Metric(gu[s])
        return {"e1": ext.hodge3(gs, ext.hodge1(gs, ls)) + ls,
                "e2": ext.hodge2(gs, ext.hodge2(gs, ws)) - ws,
                "e3": ext.hodge1(gs, ext.hodge3(gs, fs)) + fs,
                "w": ws}

    m = _fold(b, metric_terms)
    del rho, g, v
    h = _fold(b, hodge_terms)
    del gu, l, f
    out = [
        _record("det_a", "det(A) = u^2 (euclidean)", m["det"], m["u2"],
                m["det_err"], 1e-9, b, rel_scale=max(1.0, m["u2"])),
        _record("det_a_metric", "det(A) = u^2 (general metric)",
                m["detg"], m["u2g"], m["detg_err"], 1e-9, b,
                rel_scale=max(1.0, m["u2g"])),
        _record("hodge_square", "star(star) = (-1)^k on degree k",
                1.0, 1.0, max(h["e1"], h["e2"], h["e3"]), 1e-9, b,
                rel_scale=max(1.0, h["w"])),
        _record("vector_duality",
                "star g(v,.) = i(v) dvol; star i(v) dvol = -g(v,.)",
                m["gv"], m["ivvol"], max(m["dual1"], m["dual2"]), 1e-9, b,
                rel_scale=max(1.0, m["ivvol"])),
    ]

    gc = random_spd(rng, (b,))
    lam = rng.normal(size=(4, b))
    rho2 = random_rho(rng, (b,), 0.05)
    x = rng.normal(size=(4, b))
    t = rng.normal(size=(6, b))

    def twisted_terms(s):
        gs, ls, xs = ext.Metric(gc[s]), lam[:, s], x[:, s]
        ts, ws = t[:, s], w[:, s]
        # u(r2, gs) is u(rho2) up to rounding
        r2 = np.sqrt(gs.vol) * rho2[:, s]
        # random compatible triples (omega, g, J) with g = omega(., J.)
        sd = ext.self_dual_basis(gs)
        wc = sd[..., 0]
        jc = ext.form2_matrix_inv(wc) @ gs.g
        lhs = ext.hodge3(gs, ext.wedge12(ls, wc))
        rhs = -np.einsum("...ji,j...->i...", jc, ls)
        gr = ext.Metric(ext.g_rho(r2, gs))
        u = ext.u_of(r2, gs)
        base2 = ext.Base(r2)
        rsd = ext.r_rho(sd, ext.Base(r2[..., None]))
        terms = {
            "lhs": lhs, "rhs": rhs,
            "j_square": jc @ jc + np.eye(4),
            "star": lhs - rhs,
            "vol": ext.wedge22(wc, wc) / 2 - gs.vol,
            "self_dual": ext.hodge2(gs, wc) - wc,
            "gr": gr.g,
            "e2": (ext.hodge1(gr, ls)
                   - ext.wedge12(ext.hodge3(gs, ext.wedge12(ls, r2)), r2)
                   / u),
            "e3": (ext.hodge1(gr, ext.interior2(xs, r2))
                   + ext.wedge12(np.einsum("...ij,j...->i...", gs.g, xs),
                                 r2)),
            "e4": (ext.form2_matrix(ext.r_rho(wc, base2))
                   @ ext.j_rho(jc, r2) - gr.g),
            "e6": (ext.hodge2(gr, ts)
                   - ext.r_rho(ext.hodge2(gs, ext.r_rho(ts, base2)), base2)),
            "evol": gr.det - gs.det,
        }
        for a in range(3):
            terms[f"e5_{a}"] = ext.hodge2(gr, rsd[..., a]) - rsd[..., a]
        # the reflection R of rho2, last: built before e6, whose first
        # hodge2(gr, .) sets the slice's peak memory, it raised that peak
        rt = ext.r_rho(ts, base2)
        rr = ext.r_rho(rt, base2)
        terms.update(rr=rr, t=ts, rr_err=rr - ts,
                     pairing=(ext.wedge22(rt, ext.r_rho(ws, base2))
                              - ext.wedge22(ts, ws)))
        return terms

    tw = _fold(b, twisted_terms)
    del gc, lam, x, t, w, rho2
    out.append(_record("compatible_star",
                       "g = w(., J.) iff star(w ^ l) = -l o J and vol match",
                       tw["lhs"], tw["rhs"],
                       max(tw["j_square"], tw["star"], tw["vol"],
                           tw["self_dual"]),
                       1e-9, b, rel_scale=max(1.0, tw["lhs"])))
    e5 = max(tw[f"e5_{a}"] for a in range(3))
    scale = max(1.0, float(tw["gr"]))
    out.append(_record("twisted_metric",
                       "six characterizations of g_rho agree pairwise",
                       1.0, 1.0,
                       max(tw["e2"], tw["e3"], tw["e4"], e5, tw["e6"],
                           tw["evol"]),
                       1e-9, b, rel_scale=scale ** 2))

    g0 = random_spd(rng, (b,), unit_vol=True)

    def reconstruction_terms(s):
        gs = ext.Metric(g0[s])
        grec = ext.metric_from_vol_and_plane(gs.vol, ext.self_dual_basis(gs))
        return {"grec": grec, "g": gs.g, "err": grec - gs.g}

    rec = _fold(b, reconstruction_terms)
    del g0
    out.append(_record("metric_reconstruction",
                       "unique metric from volume form and self-dual plane",
                       rec["grec"], rec["g"], rec["err"], 1e-9, b,
                       rel_scale=max(1.0, rec["g"])))

    out.append(_record("reflection", "R^2 = id and R preserves the pairing",
                       tw["rr"], tw["t"], max(tw["rr_err"], tw["pairing"]),
                       1e-9, b, rel_scale=max(1.0, tw["t"] ** 2)))

    j1, j2, j3 = ext.quaternion_triple(ext.OMEGA1, ext.OMEGA2, ext.OMEGA3)
    eq = max(np.abs(j1 @ j2 - j3).max(), np.abs(j2 @ j1 + j3).max(),
             np.abs(j1 @ j1 + np.eye(4)).max())
    vv = rng.normal(size=(b, 4))

    def frame_terms(s):
        vs = vv[s]
        cols = np.stack([vs, vs @ j1.T, vs @ j2.T, vs @ j3.T], axis=-1)
        dets = ext.lu4(cols)
        norms2 = np.einsum("...i,...i->...", vs, vs) ** 2
        return {"dets": dets, "norms2": norms2,
                "frame": dets / np.maximum(norms2, 1e-30)}

    q = _fold(b, frame_terms, minima=("frame",))
    frame_ok = float(q["frame"])
    out.append(_record("quaternion_triple",
                       "cyclic solves give quaternion relations and frames",
                       q["dets"], q["norms2"], eq + max(0.0, 1e-6 - frame_ok),
                       1e-9, b, rel_scale=1.0))
    return out


def suite_theta(seed, samples):
    rng = _rng(seed, 1)
    b = int(samples)
    rho = random_rho(rng, (b,), 0.3)

    def theta_terms(s):
        rs = rho[:, s]
        base = ext.Base(rs)
        u = base.u
        th = ext.theta_point(base)
        plus, minus = ext.sd_split(rs)
        np2, nm2 = ext.norm2_sq(plus), ext.norm2_sq(minus)
        alt1 = 2 * plus / u - (np2 / u ** 2) * rs
        alt2 = -(nm2 * plus + np2 * minus) / u ** 2
        lhs = ext.wedge22(th, th)
        rhs = -2 * np2 * nm2 / u ** 3
        return {"th": th, "rho": rs, "wedge": ext.wedge22(th, rs),
                "alt1": alt1, "alt2": alt2,
                "alt1_err": th - alt1, "alt2_err": th - alt2,
                "lhs": lhs, "rhs": rhs, "square_err": lhs - rhs}

    m = _fold(b, theta_terms)
    scale = max(1.0, float(m["th"] * m["rho"]))
    out = [
        _record("theta_wedge_rho", "Theta ^ rho = 0", m["th"], m["rho"],
                m["wedge"], 1e-11, b, rel_scale=scale),
        _record("theta_forms", "the closed forms of Theta agree",
                m["alt1"], m["alt2"], max(m["alt1_err"], m["alt2_err"]),
                1e-10, b, rel_scale=max(1.0, float(m["th"]))),
        _record("theta_square", "Theta ^ Theta = -2|r+|^2 |r-|^2 / u^3 dvol",
                m["lhs"], m["rhs"], m["square_err"], 1e-9, b,
                rel_scale=max(1.0, float(m["rhs"]))),
    ]

    sd = rng.uniform(0.3, 2.0, size=b) * ext.OMEGA1[:, None]
    th_sd = _fold(b, lambda s: {"th": ext.theta_point(ext.Base(sd[:, s]))})
    th_sd = th_sd["th"]
    del sd
    out.append(_record("theta_self_dual", "Theta = 0 iff rho self-dual",
                       th_sd, 0.0, th_sd, 1e-12, b, rel_scale=1.0))

    rh = rng.normal(size=(6, b))

    def derivative_terms(s):
        rs, hs = rho[:, s], rh[:, s]
        td = ext.theta_dot_point(ext.Base(rs), hs)

        def fd(t):
            return (ext.theta_point(ext.Base(rs + t * hs))
                    - ext.theta_point(ext.Base(rs - t * hs))) / (2 * t)

        return {"e1": fd(1e-3) - td, "e2": fd(5e-4) - td}

    d = _fold(b, derivative_terms)
    ratio = d["e1"] / d["e2"]
    out.append(_record("theta_derivative",
                       "Theta_dot matches second order differences (ratio 4)",
                       ratio, 4.0, abs(ratio - 4.0), 0.8, b, rel_scale=1.0))
    return out


def suite_hyperkahler(seed, samples):
    rng = _rng(seed, 2)
    b = int(samples)
    rho = random_rho(rng, (b,), 0.05)

    def moment_terms(s):
        rs = rho[:, s]
        base = ext.Base(rs)
        u = base.u
        k = hk.k_functions(base)
        plus, minus = ext.sd_split(rs)
        recon = 0.5 * u * np.einsum("i...,ic->c...", k, hk.OMEGAS)
        return {
            "recon": recon, "plus": plus, "e1": recon - plus,
            "e2": 2 * ext.norm2_sq(plus) - u ** 2 * np.sum(k ** 2, axis=0),
            "e3": ext.norm2_sq(plus) - ext.norm2_sq(minus) - 2 * u,
            "dev": hk.theta_hk(base) - ext.theta_point(base),
            "rho": rs}

    m = _fold(b, moment_terms)
    del rho
    out = [
        _record("moment_map_split",
                "r+ = (u/2) sum K_i w_i and the norm identities",
                m["recon"], m["plus"], max(m["e1"], m["e2"], m["e3"]), 1e-10,
                b, rel_scale=max(1.0, float(m["plus"] ** 2))),
        _record("theta_cross", "moment-map Theta = direct Theta",
                1.0, 1.0, m["dev"], 1e-11, b,
                rel_scale=max(1.0, float(m["rho"]))),
    ]

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

    # the two gradients are different discretizations: over seeds 0-399
    # their gap reaches 1.24e-8 at n = 8, above the tolerance, and 2.4e-12
    # at n = 12
    fine = lat.Grid(FINE_N, SCHEME)
    base_g = ext.Base(
        perturbed_omega1(fine, lat.random_trig_field(gen, 1, 4), 0.003))
    r = flow.rhs(fine, base_g)
    num = lat.l2_norm(fine, hk.grad_hk(fine, base_g) + r)
    den = lat.l2_norm(fine, r)
    out.append(_record("gradient_cross",
                       "moment-map gradient = minus flow rhs (band limited)",
                       num, den, num / den, 1e-8, 1, FINE_N, SCHEME,
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


def _ledger_sides(rep):
    """The two sides A + B + C + D and 2E of a hessiancov_check ledger."""
    return rep["A"] + rep["B"] + rep["C"] + rep["D"], 2.0 * rep["E"]


def _covariant_identity(name, rep, tol, n):
    """The covariant-Hessian identity of a hessiancov_check report: its two
    sides and their relative residual."""
    return _record(name, "|H_hat|^2 + sum w_i(X, nabla_XKi X) = Hessian + B"
                   " + sum w_i(X, nabla_X XKi) (covariant Hessian)",
                   rep["cov_lhs"], rep["cov_rhs"], rep["cov_residual"], tol,
                   1, n, SCHEME, rel_scale=1.0)


def suite_hessiancov(seed, samples):
    gen = np.random.Generator(np.random.Philox(4000 * int(seed) + 9))
    out = []
    rho_fn = lat.random_trig_field(gen, 1, 4)
    mu_fn = lat.random_trig_field(gen, 1, 4)
    res = {}
    for n in (GRID_N, FINE_N):
        g = lat.Grid(n, SCHEME)
        base = ext.Base(perturbed_omega1(g, rho_fn, 0.1))
        mu, rh = exact_direction(g, mu_fn, 0.3)
        rep = hk.hessiancov_check(g, base, rh, mu=mu)
        res[n] = rep["abcde_relative"]
        out.append(_record(f"covariant_ledger_n{n}",
                           "A + B + C + D = 2E for the Hessian ledger",
                           *_ledger_sides(rep),
                           res[n], 1e-3, 1, n, SCHEME, rel_scale=1.0))
        out.append(_covariant_identity(f"covariant_identity_n{n}", rep,
                                       1e-6, n))
    out.append(_record("covariant_ledger_refines",
                       "ledger residual decreases under refinement",
                       res[GRID_N], res[FINE_N],
                       0.0 if res[FINE_N] <= res[GRID_N] else 1.0, 0.5, 2,
                       FINE_N, SCHEME, rel_scale=1.0))
    g = lat.Grid(GRID_N, SCHEME)
    mu0 = mu_fn(g)
    rep0 = hk.hessiancov_check(g, ext.Base(g.constant(ext.OMEGA1)),
                               lat.d1(g, mu0), mu=mu0)
    out.append(_record("covariant_ledger_minimum",
                       "ledger vanishes identically at the minimum",
                       *_ledger_sides(rep0),
                       rep0["abcde_residual"], 1e-10, 1, GRID_N, SCHEME,
                       rel_scale=1.0))
    out.append(_covariant_identity("covariant_identity_minimum", rep0,
                                   1e-12, GRID_N))
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
