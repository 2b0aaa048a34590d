import json
import tracemalloc

import numpy as np
import pytest

from donflow import checks
from donflow import exterior as ext
from donflow import hyperkahler as hk
from donflow import lattice as lat


def test_all_suites_pass_at_small_samples():
    records, ok = checks.run_suites(["all"], seed=3, samples=1500)
    assert ok
    names = {r["name"] for r in records}
    # every registered suite contributed records
    assert {"det_a", "theta_wedge_rho", "moment_map_split",
            "gradient_consistency", "covariant_ledger_minimum"} <= names
    for rec in records:
        assert rec["passed"], rec
        json.dumps(rec)           # records must be JSON-able as-is


def test_suites_are_deterministic():
    a, _ = checks.run_suites(["theta", "hyperkahler"], seed=11, samples=800)
    b, _ = checks.run_suites(["theta", "hyperkahler"], seed=11, samples=800)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c, _ = checks.run_suites(["theta"], seed=12, samples=800)
    assert json.dumps([r for r in a if r["name"].startswith("theta")],
                      sort_keys=True) != json.dumps(c, sort_keys=True)


def test_unknown_suite_rejected():
    with pytest.raises(KeyError, match="nonsense"):
        checks.run_suites(["nonsense"], seed=0, samples=10)


def test_suite_order_does_not_matter():
    a, _ = checks.run_suites(["gradient", "theta"], seed=5, samples=600)
    b, _ = checks.run_suites(["theta", "gradient"], seed=5, samples=600)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.mark.parametrize("metric", [False, True])
def test_random_rho_samples_are_admissible(metric):
    rng = np.random.Generator(np.random.Philox(3))
    g = ext.Metric(checks.random_spd(rng, (2000,))) if metric else None
    rho = checks.random_rho(rng, (2000,), 0.3)
    assert rho.shape == (6, 2000)
    if metric:
        rho = np.sqrt(g.vol) * rho
    assert np.all(ext.u_of(rho, g) > 0.3)


class _CountingRng:
    """A generator that records the size of each uniform draw."""

    def __init__(self, seed):
        self.rng = np.random.Generator(np.random.Philox(seed))
        self.sizes = []

    def uniform(self, low, high, size):
        self.sizes.append(size)
        return self.rng.uniform(low, high, size=size)


def test_random_rho_redraws_only_the_pending_samples():
    b, u_min = 3000, 0.3
    first = np.random.Generator(np.random.Philox(4)).uniform(
        -1, 1, size=(6, b))
    rng = _CountingRng(4)
    rho = checks.random_rho(rng, (b,), u_min)
    # the samples admissible in the first draw are that draw, bit for bit
    kept = ext.u_of(first) > u_min
    assert 0 < kept.sum() < b
    assert rho[:, kept].tobytes() == first[:, kept].tobytes()
    assert not np.any(np.all(rho[:, ~kept] == first[:, ~kept], axis=0))
    # each later round draws the samples still pending, and no others
    pending = [size[1] for size in rng.sizes[1:]]
    assert rng.sizes[0] == (6, b) and pending[0] == b - kept.sum()
    assert all(size[0] == 6 for size in rng.sizes[1:])
    assert all(a >= c for a, c in zip(pending, pending[1:]))


def test_random_rho_is_component_first():
    # each component is one contiguous row, as for every form in the package
    rng = np.random.Generator(np.random.Philox(5))
    for batch, strides in (((50,), (400, 8)), ((3, 5), (120, 40, 8))):
        rho = checks.random_rho(rng, batch, 0.3)
        assert rho.flags.c_contiguous and rho.strides == strides
    assert checks.random_rho(rng, (), 0.3).shape == (6,)


def test_random_rho_gives_up_on_an_unattainable_bound():
    # on the flat cube u = c01 c23 + c02 c31 + c03 c12 <= 3
    rng = np.random.Generator(np.random.Philox(0))
    with pytest.raises(RuntimeError, match="sampling admissible forms failed"):
        checks.random_rho(rng, (4,), 3.0)


def test_gradient_cross_passes_where_the_n8_gradients_part():
    # at seed 85 the two discretized gradients differ by 1.24e-8 at n = 8,
    # above the record's tolerance; on the n = 12 grid by 1.6e-12
    (rec,) = [r for r in checks.suite_hyperkahler(85, 2)
              if r["name"] == "gradient_cross"]
    assert rec["grid_n"] == checks.FINE_N == 12 and rec["tol"] == 1e-8
    assert rec["passed"] and rec["rel_err"] < 1e-10, rec


@pytest.mark.parametrize("seed", [0, 5])
def test_reports_do_not_depend_on_the_chunk_size(monkeypatch, seed):
    # 23 samples: slices of one (each widened to two), of 7 with a last
    # slice of 2, and the whole batch in one slice
    reports = []
    for chunk in (1, 7, 23, 4096):
        monkeypatch.setattr(checks, "CHUNK", chunk)
        records, _ = checks.run_suites(["appendixA", "theta", "hyperkahler"],
                                       seed, 23)
        reports.append(json.dumps(records, sort_keys=True))
    assert len(set(reports)) == 1


@pytest.mark.parametrize("seed", [0, 3])
def test_ledger_records_report_the_ledger_sides(seed):
    # lhs and rhs are |A + B + C + D| and |2E| of the ledger each record
    # names, on the inputs suite_hessiancov draws; each covariant_identity
    # record reports the same report's covariant-Hessian identity
    gen = np.random.Generator(np.random.Philox(4000 * seed + 9))
    rho_fn = lat.random_trig_field(gen, 1, 4)
    mu_fn = lat.random_trig_field(gen, 1, 4)
    reps = {}
    for n in (checks.GRID_N, checks.FINE_N):
        g = lat.Grid(n, checks.SCHEME)
        base = ext.Base(checks.perturbed_omega1(g, rho_fn, 0.1))
        mu, rh = checks.exact_direction(g, mu_fn, 0.3)
        reps[f"covariant_ledger_n{n}"] = hk.hessiancov_check(g, base, rh,
                                                             mu=mu)
    g = lat.Grid(checks.GRID_N, checks.SCHEME)
    mu0 = mu_fn(g)
    reps["covariant_ledger_minimum"] = hk.hessiancov_check(
        g, ext.Base(g.constant(ext.OMEGA1)), lat.d1(g, mu0), mu=mu0)
    records = {r["name"]: r for r in checks.suite_hessiancov(seed, 1)}
    for name, rep in reps.items():
        assert records[name]["lhs"] == abs(rep["A"] + rep["B"] + rep["C"]
                                           + rep["D"])
        assert records[name]["rhs"] == abs(2 * rep["E"])
        assert records[name]["lhs"] != abs(rep["cov_lhs"])
        ident = records[name.replace("ledger", "identity")]
        assert ident["lhs"] == abs(rep["cov_lhs"])
        assert ident["rhs"] == abs(rep["cov_rhs"])
        assert ident["rel_err"] == rep["cov_residual"] and ident["passed"]
    assert [r["tol"] for name, r in records.items()
            if name.startswith("covariant_identity")] == [1e-6, 1e-6, 1e-12]


def test_fold_propagates_nan_as_the_whole_batch_max(monkeypatch):
    monkeypatch.setattr(checks, "CHUNK", 2)
    x = np.array([1.0, 2.0, np.nan, 0.5, 3.0])
    assert [(s.start, s.stop) for s in checks._slices(5)] == [(0, 2), (2, 4),
                                                             (3, 5)]
    folded = checks._fold(5, lambda s: {"max": x[s], "min": x[s]},
                          minima=("min",))
    assert np.isnan(folded["max"]) and np.isnan(np.max(x))
    assert np.isnan(folded["min"]) and np.isnan(np.min(x))
    rec = checks._record("nan", "a NaN in the second slice", 1.0, 1.0,
                         folded["max"], 1e-9, 5)
    assert not rec["passed"]
    y = np.where(np.isnan(x), -4.0, -x)
    folded = checks._fold(5, lambda s: {"max": y[s], "min": y[s]},
                          minima=("min",))
    assert (folded["max"], folded["min"]) == (4.0, 0.5)


def test_appendixA_memory_does_not_grow_with_whole_batch_temporaries():
    # tracemalloc peaks of suite_appendixA(0, 40000) under numpy 2.4: 24 MB
    # folded over slices of CHUNK samples, 113 MB for the whole-batch
    # evaluation it replaced (57 MB at 20,000 samples); the drawn inputs
    # alone are 0.9 kB per sample, 36 MB if all were live at once
    tracemalloc.start()
    try:
        records = checks.suite_appendixA(0, 40000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(rec["passed"] for rec in records)
    assert peak < 48e6, f"peak {peak / 1e6:.1f} MB"
