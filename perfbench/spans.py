"""Span tracer for the traced benchmark run.

The tracer wraps, from outside the program, the public functions of each
slidekick module, scipy's ``solve_ivp`` and the ``OdeSolution`` objects it
returns.  Every call becomes a span (name, start, end, parent) kept in
memory; the spans are reduced to the per-layer metrics at the end of the
run and written out as JSON lines.  Nothing in the program is edited: the
wrappers replace module attributes and are removed again by ``uninstall``.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# (module, attribute, span name): the public functions timed per layer
WRAPPED = [
    ("slidekick.fields", "find_fold", "fields.find_fold"),
    ("slidekick.integrator", "integrate", "integrator.integrate"),
    ("slidekick.slow_manifold", "strip_crossing", "slow_manifold.strip_crossing"),
    ("slidekick.inner", "distinguished_solution", "inner.distinguished_solution"),
    ("slidekick.inner", "normalized_solution", "inner.normalized_solution"),
    ("slidekick.inner", "omega0", "inner.omega0"),
    ("slidekick.poincare", "map_P_epsilon", "poincare.map_P_epsilon"),
    ("slidekick.poincare", "exterior_map", "poincare.exterior_map"),
    ("slidekick.poincare", "fit_tangency_constants", "poincare.fit_tangency_constants"),
    ("slidekick.bifurcation", "stribeck_attractor", "bifurcation.stribeck_attractor"),
    ("slidekick.bifurcation", "centre_semistability", "bifurcation.centre_semistability"),
    ("slidekick.bifurcation", "homoclinic_scan", "bifurcation.homoclinic_scan"),
    ("slidekick.models", "model", "models.model"),
]

# spans at the scipy boundary; they are leaves and do not count as children
# when the self time of a program function is computed
SCIPY_SPANS = ("integrator.solve_ivp", "integrator.dense")

PROFILES = ("linear", "poly2", "poly3")

# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    "fields.eval_us": ("us", "lower"),
    "fields.find_fold.calls": ("count", "lower"),
    "fields.find_fold.s": ("s", "lower"),
    **{f"regularization.eval_us.{p}": ("us", "lower") for p in PROFILES},
    **{f"regularization.deriv_us.{p}": ("us", "lower") for p in PROFILES},
    "integrator.radau.calls": ("count", "lower"),
    "integrator.radau.steps": ("count", "lower"),
    "integrator.radau.nfev": ("count", "lower"),
    "integrator.radau.njev": ("count", "lower"),
    "integrator.radau.nlu": ("count", "lower"),
    "integrator.radau.s": ("s", "lower"),
    "integrator.rk45.calls": ("count", "lower"),
    "integrator.rk45.steps": ("count", "lower"),
    "integrator.rk45.nfev": ("count", "lower"),
    "integrator.rk45.s": ("s", "lower"),
    "integrator.other.calls": ("count", "lower"),
    "integrator.other.steps": ("count", "lower"),
    "integrator.other.nfev": ("count", "lower"),
    "integrator.other.s": ("s", "lower"),
    "integrator.integrate.calls": ("count", "lower"),
    "integrator.integrate.s": ("s", "lower"),
    "integrator.dense_calls": ("count", "lower"),
    "integrator.dense_s": ("s", "lower"),
    "integrator.min_step": ("1", "higher"),
    "slow_manifold.strip_crossing.calls": ("count", "lower"),
    "slow_manifold.strip_crossing.s": ("s", "lower"),
    "slow_manifold.strip_crossing.steps": ("count", "lower"),
    "slow_manifold.strip_crossing.distinct_ratio": ("ratio", "higher"),
    "inner.distinguished_solution.s": ("s", "lower"),
    "inner.normalized_solution.s": ("s", "lower"),
    "inner.omega0.s": ("s", "lower"),
    "poincare.map_P_epsilon.calls": ("count", "lower"),
    "poincare.map_P_epsilon.s": ("s", "lower"),
    "poincare.map_P_epsilon.self_s": ("s", "lower"),
    "poincare.exterior_map.calls": ("count", "lower"),
    "poincare.exterior_map.s": ("s", "lower"),
    "poincare.fit_tangency_constants.s": ("s", "lower"),
    "bifurcation.self_s": ("s", "lower"),
    "models.model.calls": ("count", "lower"),
    "models.model.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None


class _TracedDense:
    """Stands in for an OdeSolution and records each evaluation."""

    def __init__(self, dense, tracer):
        self._dense = dense
        self._tracer = tracer

    def __call__(self, t):
        s = self._tracer._open("integrator.dense")
        try:
            return self._dense(t)
        finally:
            self._tracer._close(s)

    def __getattr__(self, attr):
        return getattr(self._dense, attr)


def _method_name(method) -> str:
    name = method if isinstance(method, str) else getattr(method, "__name__", str(method))
    return name.lower()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name) -> Span:
        s = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        s.start = time.perf_counter()
        return s

    def _close(self, s: Span) -> None:
        s.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, info=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(s)
            if info is not None:
                s.info = info(args, kwargs, result)
            return result

        if hasattr(fn, "cache_clear"):
            traced.cache_clear = fn.cache_clear
        return traced

    # -- installing --------------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        # modules bind imported names at import time, so every binding of
        # the original object in the program's modules is replaced
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "slidekick" or mod_name.startswith("slidekick.")
                                   or mod_name == "scipy.integrate"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        import importlib

        import numpy as np
        import scipy.integrate

        for mod_name, attr, name in WRAPPED:
            original = getattr(importlib.import_module(mod_name), attr)
            info = _strip_info if name == "slow_manifold.strip_crossing" else None
            self._replace_everywhere(original, self._wrap(name, original, info))

        tracer = self
        solve_ivp = scipy.integrate.solve_ivp

        @functools.wraps(solve_ivp)
        def traced_solve_ivp(*args, **kwargs):
            s = tracer._open("integrator.solve_ivp")
            try:
                sol = solve_ivp(*args, **kwargs)
            finally:
                tracer._close(s)
            steps = max(len(sol.t) - 1, 0)
            d = np.abs(np.diff(sol.t))
            d = d[d > 0.0]
            min_step = float(d.min()) if d.size else None
            s.info = {
                "method": _method_name(kwargs.get("method", "RK45")),
                "steps": steps,
                "nfev": int(sol.nfev),
                "njev": int(sol.njev),
                "nlu": int(sol.nlu),
                "min_step": min_step,
            }
            if sol.sol is not None:
                sol.sol = _TracedDense(sol.sol, tracer)
            return sol

        self._replace_everywhere(solve_ivp, traced_solve_ivp)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "info": s.info}) + "\n")


def _strip_info(args, kwargs, result):
    x_enter = args[1] if len(args) > 1 else kwargs["x_enter"]
    return {"x_enter": float(x_enter)}


def per_layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Reduce the spans of one traced round to the per-layer metrics.

    The self time of a program function is its duration minus the time of
    the program functions it called; scipy-boundary spans are not
    subtracted, so map_P_epsilon's self time holds its exterior stages P and
    Pbar, and a scan's self time holds its own direct solver calls.
    """
    dur = [s.end - s.start for s in spans]
    # nearest enclosing program-function span of each span
    prog_parent = []
    for s in spans:
        p = s.parent
        while p >= 0 and spans[p].name in SCIPY_SPANS:
            p = spans[p].parent
        prog_parent.append(p)
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s.name not in SCIPY_SPANS and prog_parent[i] >= 0:
            child_time[prog_parent[i]] += dur[i]

    m = dict.fromkeys(PER_LAYER, 0.0)

    def add(key, value):
        m[key] += value

    min_step = None
    entries: list[float] = []
    for i, s in enumerate(spans):
        name = s.name
        if name == "integrator.solve_ivp":
            info = s.info or {}
            method = info.get("method", "rk45")
            group = method if method in ("radau", "rk45") else "other"
            add(f"integrator.{group}.calls", 1)
            add(f"integrator.{group}.steps", info.get("steps", 0))
            add(f"integrator.{group}.nfev", info.get("nfev", 0))
            if group == "radau":
                add("integrator.radau.njev", info.get("njev", 0))
                add("integrator.radau.nlu", info.get("nlu", 0))
            add(f"integrator.{group}.s", dur[i])
            ms = info.get("min_step")
            if ms is not None and (min_step is None or ms < min_step):
                min_step = ms
            if prog_parent[i] >= 0 and spans[prog_parent[i]].name == "slow_manifold.strip_crossing":
                add("slow_manifold.strip_crossing.steps", info.get("steps", 0))
            continue
        if name == "integrator.dense":
            add("integrator.dense_calls", 1)
            add("integrator.dense_s", dur[i])
            continue
        if f"{name}.calls" in PER_LAYER:
            add(f"{name}.calls", 1)
        if f"{name}.s" in PER_LAYER:
            add(f"{name}.s", dur[i])
        if f"{name}.self_s" in PER_LAYER:
            add(f"{name}.self_s", dur[i] - child_time[i])
        if name.startswith("bifurcation."):
            add("bifurcation.self_s", dur[i] - child_time[i])
        if name == "slow_manifold.strip_crossing" and s.info is not None:
            entries.append(s.info["x_enter"])
    m["integrator.min_step"] = float(min_step) if min_step is not None else 0.0
    # share of crossings whose entry abscissa was new in the run; with no
    # crossing at all nothing was repeated
    m["slow_manifold.strip_crossing.distinct_ratio"] = (
        len(set(entries)) / len(entries) if entries else 1.0
    )
    return m


def time_calls(fn, args_list) -> float:
    """Median microseconds per call of ``fn`` over fixed arguments:
    seven repeats of about 2000 calls."""
    loops = max(1, 2000 // len(args_list))
    samples = []
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(loops):
            for a in args_list:
                fn(*a)
        samples.append((time.perf_counter() - t0) / (loops * len(args_list)))
    return 1e6 * statistics.median(samples)


def probe_layers(wl) -> dict[str, float]:
    """L0 probes at fixed points: X+/X- of the workload's models and the
    three profiles, in microseconds per call."""
    out = {"fields.eval_us": statistics.median(time_calls(f, pts) for f, pts in wl.fields_for_probe())}
    reg = wl.sk.regularization
    vs = [(-0.95 + 1.9 * k / 15,) for k in range(16)]
    for key, prof in zip(PROFILES, (reg.phi_linear(), reg.phi_polynomial(2), reg.phi_polynomial(3))):
        out[f"regularization.eval_us.{key}"] = time_calls(prof.eval, vs)
        out[f"regularization.deriv_us.{key}"] = time_calls(prof.deriv, [(v, 1) for (v,) in vs])
    return out
