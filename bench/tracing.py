"""In-memory spans at the layer boundaries of `degenspec`.

`install(tracer)` replaces each layer's public functions at the module
attribute where each importing module binds them (for example
`traces.integrate_semi_infinite` and `zeta_det.elliptic_trace_u`), and wraps
the integrands and trace callables that cross a layer boundary.  A span
records its name, start, end and parent; a layer's self time is its span
time minus the time of its direct children.  A wrapper whose target is gone
is recorded in `tracer.missing` and its metrics are reported as missing.
"""

from __future__ import annotations

import functools
import time

import numpy as np

_PANEL_NODES = 15  # 7-15 Gauss-Kronrod: one panel is 15 evaluations


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []      # [name, start, end, parent index]
        self._stack = []
        self.counts = {}
        self.missing = set()
        self.installed = set()

    def count(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def inside(self, names) -> bool:
        return any(self.spans[i][0] in names for i in self._stack)

    def call(self, name: str, fn, *args, **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def totals(self) -> dict:
        """name -> {"calls", "total_s", "self_s"} over closed spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0 and end is not None:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), c in zip(self.spans, child):
            if end is None:
                continue
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - c
        return out


def _replace(tracer: Tracer, module, attr: str, make) -> None:
    target = getattr(module, attr, None)
    key = f"{module.__name__}.{attr}"
    if target is None or not callable(target):
        tracer.missing.add(key)
        return
    wrapper = make(target)
    functools.update_wrapper(wrapper, target)
    setattr(module, attr, wrapper)
    tracer.installed.add(key)


def _span(tracer, name):
    """A plain layer boundary; exceptions are counted as name.errors."""
    def make(fn):
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            except Exception:
                tracer.count(name + ".errors")
                raise
            finally:
                tracer.close(index)
        return wrapper
    return make


def _engine(tracer):
    """Quadrature entry points: time the integrand as a child span and
    count evaluations, panels and failures."""
    from degenspec.errors import QuadratureError

    def make(fn):
        def wrapper(f, *args, **kwargs):
            if not tracer.active:
                return fn(f, *args, **kwargs)

            def integrand(x, *a, **k):
                return tracer.call("special_fn.integrand", f, x, *a, **k)

            index = tracer.open("special_fn")
            try:
                res = fn(integrand, *args, **kwargs)
            except QuadratureError as exc:
                tracer.count("special_fn.errors")
                tracer.count("special_fn.evals", exc.evaluations)
                raise
            finally:
                tracer.close(index)
            tracer.count("special_fn.evals", res.evaluations)
            return res
        return wrapper
    return make


def _zeta_public(tracer, name):
    """A zeta_det entry point: its trace callable (first argument) is wrapped
    to count the t-points requested and to time them as a child span.  Only
    the outermost zeta_det call wraps, so nested calls count once."""
    def make(fn):
        def wrapper(trace, *args, **kwargs):
            if not tracer.active:
                return fn(trace, *args, **kwargs)
            if callable(trace) and not tracer.inside(_ZETA_NAMES):
                inner = trace

                def trace(t, *a, **k):
                    tracer.count("zeta_det.trace_points", int(np.size(t)))
                    return tracer.call("zeta_det.trace", inner, t, *a, **k)
            return tracer.call(name, fn, trace, *args, **kwargs)
        return wrapper
    return make


def _provider(tracer):
    """surface_trace_provider: each returned callable becomes a span that
    reads hits and misses off its lru_cache."""
    def make(fn):
        def wrapper(*args, **kwargs):
            cached = fn(*args, **kwargs)

            def trace(t):
                if not tracer.active:
                    return cached(t)
                before = cached.cache_info()
                try:
                    return tracer.call("traces.provider", cached, t)
                finally:
                    after = cached.cache_info()
                    tracer.count("traces.provider.hits",
                                 after.hits - before.hits)
                    tracer.count("traces.provider.misses",
                                 after.misses - before.misses)
            trace.cache_info = cached.cache_info
            return trace
        return wrapper
    return make


# (module, attributes, span name) for the plain layer wrappers; modules are
# named by their import path so a removed module reads as missing
LAYERS = (
    ("degenspec.hplane", ("heat_kernel_h", "heat_kernel_h_complex"), "hplane"),
    ("degenspec.traces", ("heat_kernel_h",), "hplane"),
    ("degenspec.zeta_det", ("heat_kernel_h",), "hplane"),
    ("degenspec.traces", ("hyperbolic_trace", "hyperbolic_sum_reduced"),
     "traces.htr"),
    ("degenspec.zeta_det", ("hyperbolic_trace",), "traces.htr"),
    ("degenspec.selberg", ("hyperbolic_sum_reduced",), "traces.htr"),
    ("degenspec.traces", ("elliptic_trace_u", "elliptic_trace_r"),
     "traces.etr"),
    ("degenspec.zeta_det", ("elliptic_trace_u",), "traces.etr"),
    ("degenspec.traces", ("identity_trace",), "traces.identity"),
    ("degenspec.traces", ("standard_trace", "truncated_trace"),
     "traces.standard"),
    ("degenspec.degeneration", ("g_degenerating_counting",),
     "degeneration.g"),
    ("degenspec.degeneration", ("fit_slope_vs_logQ",), "degeneration.fit"),
    ("degenspec.degeneration", ("c_w_kernel", "error_term_experiment"),
     "degeneration"),
    ("degenspec.zeta_det", ("_continued_mellin",), "zeta_det.mellin"),
    ("degenspec.selberg", ("selberg_zeta_product", "selberg_logderiv_series",
                           "selberg_logderiv_integral",
                           "selberg_logderiv_kbessel", "truncated_logderiv"),
     "selberg"),
    ("degenspec.cli", ("main",), "cli"),
    ("degenspec.geometry", ("load_surface", "load_family"), "geometry"),
    ("degenspec.cli", ("load_surface", "load_family"), "geometry"),
)

ENGINE_BINDINGS = (
    ("degenspec.special_fn", ("integrate_finite", "integrate_semi_infinite")),
    ("degenspec.hplane", ("integrate_semi_infinite",)),
    ("degenspec.traces", ("integrate_semi_infinite",)),
    ("degenspec.zeta_det", ("integrate_finite", "integrate_semi_infinite")),
    ("degenspec.degeneration", ("integrate_finite",)),
    ("degenspec.selberg", ("integrate_semi_infinite",)),
)

ZETA_ENTRIES = (
    (("spectral_zeta_mellin", "hurwitz_zeta", "truncated_zeta"),
     "zeta_det.zeta"),
    (("det_laplacian", "log_det_truncated", "mellin_regularized_integral"),
     "zeta_det.det"),
    (("fit_trace_expansion", "heat_coefficients"), "zeta_det.fit"),
)
_ZETA_NAMES = frozenset(name for _, name in ZETA_ENTRIES)


def _module(tracer, path, attrs):
    import importlib
    try:
        return importlib.import_module(path)
    except ImportError:
        tracer.missing.update(f"{path}.{a}" for a in attrs)
        return None


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; call before the inputs are loaded."""
    for path, attrs in ENGINE_BINDINGS:
        module = _module(tracer, path, attrs)
        for attr in attrs if module else ():
            _replace(tracer, module, attr, _engine(tracer))
    for path, attrs, name in LAYERS:
        module = _module(tracer, path, attrs)
        for attr in attrs if module else ():
            _replace(tracer, module, attr, _span(tracer, name))
    zeta = _module(tracer, "degenspec.zeta_det", ("spectral_zeta_mellin",))
    for attrs, name in ZETA_ENTRIES if zeta else ():
        for attr in attrs:
            _replace(tracer, zeta, attr, _zeta_public(tracer, name))
    traces = _module(tracer, "degenspec.traces", ("surface_trace_provider",))
    if traces:
        _replace(tracer, traces, "surface_trace_provider", _provider(tracer))


# per-layer metric -> (the wrapped attributes it needs, unit, how to read it)
def _self(name):
    return lambda tot, cnt: tot.get(name, {}).get("self_s", 0.0)


def _calls(name):
    return lambda tot, cnt: tot.get(name, {}).get("calls", 0)


def _count(key):
    return lambda tot, cnt: cnt.get(key, 0)


def _integrand_s(tot, cnt):
    return tot.get("special_fn.integrand", {}).get("total_s", 0.0)


def _overhead_ratio(tot, cnt):
    integrand = _integrand_s(tot, cnt)
    return _self("special_fn")(tot, cnt) / integrand if integrand else 0.0


def _hit_ratio(tot, cnt):
    hits = cnt.get("traces.provider.hits", 0)
    lookups = hits + cnt.get("traces.provider.misses", 0)
    return hits / lookups if lookups else 0.0


_ENGINE = ("degenspec.traces.integrate_semi_infinite",
           "degenspec.hplane.integrate_semi_infinite",
           "degenspec.zeta_det.integrate_finite",
           "degenspec.degeneration.integrate_finite")

METRICS = {
    "special_fn.calls": (_ENGINE, "count", _calls("special_fn")),
    "special_fn.evals": (_ENGINE, "count", _count("special_fn.evals")),
    "special_fn.panels": (_ENGINE, "count",
                          lambda tot, cnt: cnt.get("special_fn.evals", 0)
                          // _PANEL_NODES),
    "special_fn.self_s": (_ENGINE, "s", _self("special_fn")),
    "special_fn.integrand_s": (_ENGINE, "s", _integrand_s),
    "special_fn.overhead_ratio": (_ENGINE, "ratio", _overhead_ratio),
    "special_fn.errors": (_ENGINE, "count", _count("special_fn.errors")),
    "traces.etr.calls": (("degenspec.traces.elliptic_trace_u",), "count",
                         _calls("traces.etr")),
    "traces.etr.self_s": (("degenspec.traces.elliptic_trace_u",), "s",
                          _self("traces.etr")),
    "traces.htr.self_s": (("degenspec.traces.hyperbolic_trace",), "s",
                          _self("traces.htr")),
    "traces.identity.self_s": (("degenspec.traces.identity_trace",), "s",
                               _self("traces.identity")),
    "traces.provider.hit_ratio": (
        ("degenspec.traces.surface_trace_provider",), "ratio", _hit_ratio),
    "hplane.calls": (("degenspec.hplane.heat_kernel_h",), "count",
                     _calls("hplane")),
    "hplane.self_s": (("degenspec.hplane.heat_kernel_h",), "s",
                      _self("hplane")),
    "degeneration.g.calls": (
        ("degenspec.degeneration.g_degenerating_counting",), "count",
        _calls("degeneration.g")),
    "degeneration.g.self_s": (
        ("degenspec.degeneration.g_degenerating_counting",), "s",
        _self("degeneration.g")),
    "degeneration.g.errors": (
        ("degenspec.degeneration.g_degenerating_counting",), "count",
        _count("degeneration.g.errors")),
    "degeneration.fit.self_s": (
        ("degenspec.degeneration.fit_slope_vs_logQ",), "s",
        _self("degeneration.fit")),
    "zeta_det.mellin.calls": (("degenspec.zeta_det._continued_mellin",),
                              "count", _calls("zeta_det.mellin")),
    "zeta_det.mellin.self_s": (("degenspec.zeta_det._continued_mellin",),
                               "s", _self("zeta_det.mellin")),
    "zeta_det.fit.self_s": (("degenspec.zeta_det.fit_trace_expansion",), "s",
                            _self("zeta_det.fit")),
    "zeta_det.det.self_s": (("degenspec.zeta_det.det_laplacian",), "s",
                            _self("zeta_det.det")),
    "zeta_det.trace_points": (("degenspec.zeta_det.spectral_zeta_mellin",),
                              "count", _count("zeta_det.trace_points")),
    "selberg.self_s": (("degenspec.selberg.selberg_logderiv_integral",), "s",
                       _self("selberg")),
    "cli.calls": (("degenspec.cli.main",), "count", _calls("cli")),
    "cli.self_s": (("degenspec.cli.main",), "s", _self("cli")),
}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced pass; None where a target is missing."""
    tot, cnt = tracer.totals(), tracer.counts
    out = {}
    for name, (needs, _unit, read) in METRICS.items():
        present = any(n in tracer.installed for n in needs)
        out[name] = read(tot, cnt) if present else None
    return out
