"""Spans and counters recorded from outside the program.

The tracer replaces public donflow functions by timing wrappers while a
traced run is in progress.  Intra-package calls look the functions up as
module attributes (``lat.d2(...)``, ``ext.u_of(...)``) or through names and
tables bound at import time (``flow.save_snapshot``, ``checks.SUITES``), so
every such binding of the original function object is swapped and restored
afterwards.  Nothing under ``src/`` is edited.

A span is (name, start, end, parent); spans stay in memory and are written
out once the run has finished.  FFTs are counted, not timed, at the
``numpy.fft`` / ``scipy.fft`` entry points that ``donflow.lattice`` calls, so
their time stays inside the lattice span that asked for them.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import math
import statistics
import sys
import time
import types

import numpy as np

# Public functions wrapped as spans, by module.  ``random_trig_field`` is a
# factory: its span times the returned closure, where the work happens.
SPANS = {
    "flow": ("step", "rhs", "energy", "monitors", "initial_data"),
    "lattice": ("d1", "d2", "cohomology", "least_norm_potential",
                "random_trig_field"),
    "exterior": ("theta_point", "star_rho3", "g_rho", "u_of", "sd_split",
                 "norm2_sq", "star_rho1", "star_rho2", "theta_dot_point"),
    "hyperkahler": ("energy_hk", "theta_hk", "grad_hk", "hessian_hk",
                    "hessiancov_check"),
    "checks": ("suite_appendixA", "suite_theta", "suite_hyperkahler",
               "suite_gradient", "suite_hessiancov"),
    "snapshots": ("save_snapshot",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in SPANS.items() for fn in fns)

# Transform entry points of numpy.fft and scipy.fft; the r*/ir*/h*/ih* ones
# take or give real data and cost half a complex transform.
FFT_FUNCS = frozenset(
    pre + base for base in ("fft", "fft2", "fftn")
    for pre in ("", "i", "r", "ir", "h", "ih"))
FFT_MODULES = ("numpy.fft", "scipy.fft")


class Tracer:
    """Collects spans and FFT counters for one traced interval."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = []
        self.fft_transforms = 0
        self.fft_bytes = 0
        self.fft_flops = 0.0
        self.snapshot_bytes = 0
        self.missing = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter_ns())
        self.ends.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    def factory_span(self, name, factory):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return self.span(name, factory(*args, **kwargs))
        return wrapper

    def snapshot_span(self, name, fn):
        timed = self.span(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hpath = timed(*args, **kwargs)
            header = json.loads(hpath.read_text())
            self.snapshot_bytes += (hpath.stat().st_size
                                    + (hpath.parent / header["payload"]).stat().st_size)
            return hpath
        return wrapper

    def fft_counter(self, fn):
        name = fn.__name__
        factor = 2.5 if name.startswith(("r", "ir", "h", "ih")) else 5.0
        default_axes = {"n": None, "2": (-2, -1)}.get(name[-1], (-1,))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            inp = args[0] if args else kwargs.get("a", kwargs.get("x"))
            axes = args[2] if len(args) > 2 else kwargs.get(
                "axes", kwargs.get("axis", default_axes))
            self._count_fft(np.asarray(inp), out, axes, factor)
            return out
        return wrapper

    def _count_fft(self, inp, out, axes, factor):
        if axes is None:
            axes = range(inp.ndim)
        elif isinstance(axes, int):
            axes = (axes,)
        # a real transform changes the length of one axis; the transform
        # length is the longer of the two sides on every transformed axis
        length = math.prod(max(inp.shape[a], out.shape[a]) for a in axes)
        batch = inp.size // max(1, math.prod(inp.shape[a] for a in axes))
        self.fft_transforms += 1
        self.fft_bytes += int(inp.nbytes + out.nbytes)
        if length > 1:
            self.fft_flops += factor * length * math.log2(length) * batch

    # -- installation --------------------------------------------------------

    def install(self, package):
        """Wrap every listed function of ``package`` (e.g. ``donflow``)."""
        modules = {name: importlib.import_module(f"{package.__name__}.{name}")
                   for name in SPANS}
        all_mods = [m for k, m in sys.modules.items()
                    if k == package.__name__ or k.startswith(package.__name__ + ".")]
        for mod_name, fns in SPANS.items():
            mod = modules[mod_name]
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                orig = getattr(mod, fn_name, None)
                if orig is None:
                    self.missing.append(name)
                    continue
                if name == "lattice.random_trig_field":
                    new = self.factory_span(name, orig)
                elif name == "snapshots.save_snapshot":
                    new = self.snapshot_span(name, orig)
                else:
                    new = self.span(name, orig)
                self._rebind(all_mods, orig, new)
        self._install_fft(modules["lattice"])

    def _rebind(self, mods, orig, new):
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, attr, new)
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if item is orig:
                            self._setitem(val, key, new)

    def _install_fft(self, lattice):
        """Count the transforms ``lattice`` requests, at its own bindings."""
        for attr, val in list(vars(lattice).items()):
            if isinstance(val, types.ModuleType):
                proxy = self._fft_proxy(val)
                if proxy is not None:
                    self._set(lattice, attr, proxy)
            elif (callable(val) and getattr(val, "__name__", "") in FFT_FUNCS
                  and getattr(val, "__module__", "").startswith(FFT_MODULES)):
                self._set(lattice, attr, self.fft_counter(val))

    def _fft_proxy(self, mod):
        """A copy of ``mod`` whose FFT entry points count their calls."""
        if mod.__name__ in FFT_MODULES:
            proxy = types.ModuleType(mod.__name__)
            proxy.__dict__.update(vars(mod))
            for fn in FFT_FUNCS:
                if callable(getattr(mod, fn, None)):
                    setattr(proxy, fn, self.fft_counter(getattr(mod, fn)))
            return proxy
        if mod.__name__ in ("numpy", "scipy"):
            sub = sys.modules.get(mod.__name__ + ".fft")
            if sub is None:
                return None
            proxy = types.ModuleType(mod.__name__)
            proxy.__dict__.update(vars(mod))
            proxy.fft = self._fft_proxy(sub)
            return proxy
        return None

    def _set(self, obj, attr, new):
        self._undo.append((setattr, obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def _setitem(self, table, key, new):
        self._undo.append((dict.__setitem__, table, key, table[key]))
        table[key] = new

    def uninstall(self):
        while self._undo:
            setter, obj, key, old = self._undo.pop()
            setter(obj, key, old)

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Per-span (duration, self time) in ns; self = duration - children."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= dur[i]
        return dur, own

    def root_ns(self, start_ns, end_ns):
        """Summed duration of the top-level spans inside [start, end]."""
        return sum(e - s for s, e, p in zip(self.starts, self.ends, self.parents)
                   if p < 0 and s >= start_ns and e <= end_ns)

    def layer_metrics(self):
        """Every per-layer metric as name -> (value, unit)."""
        dur, own = self.self_times()
        by_name = {name: [] for name in SPAN_NAMES}
        step_ms = []
        for name, d, s in zip(self.names, dur, own):
            by_name[name].append(s)
            if name == "flow.step":
                step_ms.append(d / 1e6)
        out = {}
        for name, vals in by_name.items():
            out[f"{name}.calls"] = (len(vals), "count")
            out[f"{name}.self_ms_p50"] = (
                statistics.median(vals) / 1e6 if vals else 0.0, "ms")
            out[f"{name}.self_s_total"] = (sum(vals) / 1e9, "s")

        steps = len(step_ms)
        pct, tail = tail_percentile(step_ms)
        out["flow.step.ms_p50"] = (statistics.median(step_ms) if step_ms else 0.0, "ms")
        out["flow.step.ms_tail"] = (tail, "ms")
        out["flow.step.tail_pct"] = (pct, "%")
        rhs = len(by_name["flow.rhs"])
        mon = len(by_name["flow.monitors"])
        # every attempt evaluates four RK4 stages and every monitors call one
        # rhs (the stationarity residual), so attempts = (rhs - monitors) / 4;
        # each step call ends in exactly one accepted attempt
        out["flow.rhs_per_step"] = (rhs / steps if steps else 0.0, "ratio")
        out["flow.rejected_steps"] = (
            (rhs - mon) / 4 - steps if steps else 0.0, "count")
        out["lattice.fft.transforms"] = (self.fft_transforms, "count")
        out["lattice.fft.bytes_computed"] = (self.fft_bytes, "bytes")
        out["lattice.fft.flops_computed"] = (self.fft_flops, "flop")
        out["snapshots.save_snapshot.bytes"] = (self.snapshot_bytes, "bytes")
        return out

    def dump(self, path):
        """Write the spans as gzipped JSON: names and rows of
        [name index, start ns, end ns, parent index]."""
        index = {name: i for i, name in enumerate(SPAN_NAMES)}
        rows = [[index[n], s, e, p] for n, s, e, p in
                zip(self.names, self.starts, self.ends, self.parents)]
        with gzip.open(path, "wt") as fh:
            json.dump({"names": SPAN_NAMES, "spans": rows}, fh,
                      separators=(",", ":"))


def tail_percentile(samples, candidates=(99.9, 99, 95, 90, 75, 50), beyond=10):
    """Highest candidate percentile with at least ``beyond`` samples above
    its nearest-rank value; (0, 0) when there are too few samples."""
    ordered = sorted(samples)
    for pct in candidates:
        rank = math.ceil(pct / 100 * len(ordered))
        if rank >= 1 and len(ordered) - rank >= beyond:
            return pct, ordered[rank - 1]
    return 0.0, 0.0
