"""Span tracer for the traced benchmark run, and the per-layer metrics
computed from its spans.

`Tracer.install()` wraps every public function and every public method
of the classes defined in the nine layer modules, and rebinds each
wrapped object in every `nilcat.*` namespace that holds it (modules
import public functions by name, e.g. `verify` binds
`find_theta_tilde`).  `uninstall()` puts every original back.  Spans are
recorded only while a request is open, so the benchmark's own checks
leave no spans.

A span is `[name, start, end, parent, request, extra]`: `parent` is the
index of the enclosing span (-1 at the top), `extra` holds the work
counters read from the call's arguments and result after the span has
closed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

import numpy as np

LAYERS = ("period", "profile", "catenoid", "helicoid", "nil3", "cmc",
          "meshes", "verify", "cli")
SAMPLERS = ("catenoid.xyz", "helicoid.xyz", "cmc.xyz")
_MARK = "__bench_wrapped__"


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _points(args, kwargs, out):
    u = np.asarray(_arg(args, kwargs, 1, "u"))
    v = np.asarray(_arg(args, kwargs, 2, "v"))
    return {"points": int(np.broadcast(u, v).size)}


def _quad(args, kwargs, out):
    return {"err": float(out.quadrature_error_estimate),
            "ok": bool(out.converged)}


# Work counters read after a call returns, keyed by span name.
HOOKS = {
    "period.L_integral": _quad,
    "period.appendix_I_decomposition": _quad,
    "profile.solve_profile": lambda a, k, out: {
        "nodes": out.nodes_n, "interp_error": out.interp_error},
    "profile.eval": lambda a, k, out: {
        "points": int(np.size(_arg(a, k, 1, "u")))},
    "catenoid.xyz": _points,
    "helicoid.xyz": _points,
    "cmc.xyz": _points,
    "nil3.surface_jet2": _points,
    "cmc.reflect_and_mesh": lambda a, k, out: {"faces": out.n_faces},
    "meshes.write_obj": lambda a, k, out: {
        "bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    "meshes.write_ply": lambda a, k, out: {
        "bytes": os.path.getsize(_arg(a, k, 1, "path"))},
}


def _public_callables(module):
    """(span name, owner, attribute, original) for one layer module.

    Module functions are named `layer.func`; methods `layer.method`, or
    `layer.Class.method` when that name is already taken.
    """
    layer = module.__name__.rsplit(".", 1)[1]
    found, methods = [], []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) \
                != module.__name__:
            continue
        if inspect.isclass(obj):
            for attr, fn in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(fn):
                    methods.append((obj, attr, fn))
        elif callable(obj):
            found.append((f"{layer}.{name}", module, name, obj))
    taken = {f[0] for f in found}
    for cls, attr, fn in methods:
        name = f"{layer}.{attr}"
        if name in taken:
            name = f"{layer}.{cls.__name__}.{attr}"
        taken.add(name)
        found.append((name, cls, attr, fn))
    return found


def nilcat_modules():
    import nilcat
    mods = [nilcat]
    for m in LAYERS + ("errors",):
        mods.append(importlib.import_module(f"nilcat.{m}"))
    return mods


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   self.request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                rec[5] = hook(args, kwargs, out)
            return out

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for m in LAYERS:
            module = importlib.import_module(f"nilcat.{m}")
            for name, owner, attr, fn in _public_callables(module):
                w = self._wrap(name, fn)
                wrappers[id(fn)] = w
                if inspect.isclass(owner):
                    self._undo.append((owner, attr, fn))
                    setattr(owner, attr, w)
        for module in nilcat_modules():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def installed_wrappers():
    """Names of nilcat attributes that are tracer wrappers right now."""
    left = []
    for module in nilcat_modules():
        for attr, obj in vars(module).items():
            if getattr(obj, _MARK, False):
                left.append(f"{module.__name__}.{attr}")
            elif inspect.isclass(obj) and obj.__module__.startswith("nilcat"):
                for a, fn in vars(obj).items():
                    if getattr(fn, _MARK, False):
                        left.append(f"{obj.__qualname__}.{a}")
    return left


# -- per-layer metrics -----------------------------------------------------

def self_times(spans):
    """Self time of each span: its duration minus its children's."""
    self_t = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_t[s[3]] -= s[2] - s[1]
    return self_t


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, alphas, verify_stats):
    """Per-layer metrics of one traced run.

    `alphas` is the number of alpha values the run's requests completed,
    `verify_stats` the check counts read from the verify outputs.
    Metrics of calls the workload never makes read 0.
    """
    self_t = self_times(spans)
    calls, self_s, extra = {}, {}, {}
    for s, t in zip(spans, self_t):
        calls[s[0]] = calls.get(s[0], 0) + 1
        self_s[s[0]] = self_s.get(s[0], 0.0) + t

    def tot(name, key):
        return sum(s[5][key] for s in spans if s[0] == name and s[5])

    def mx(names, key):
        return max((s[5][key] for s in spans if s[0] in names and s[5]),
                   default=0.0)

    # L evaluations made by a root solve, and sampler points requested by
    # a jet; spans are stored parent-first, so one forward pass suffices.
    in_root = [False] * len(spans)
    root_evals = jet_points = 0
    for i, s in enumerate(spans):
        p = s[3]
        in_root[i] = s[0] == "period.find_theta_tilde" \
            or (p >= 0 and in_root[p])
        if s[0] == "period.L_integral" and in_root[i]:
            root_evals += 1
        if s[0] in SAMPLERS and p >= 0 and spans[p][0] == "nil3.surface_jet2":
            jet_points += s[5]["points"]

    quads = [s[5] for s in spans if s[0] in (
        "period.L_integral", "period.appendix_I_decomposition")]
    m = {}
    for name in ("period.find_theta_tilde", "period.L_integral",
                 "profile.solve_profile", "profile.eval"):
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in ("period.find_theta_tilde", "period.L_integral",
                 "period.appendix_I_decomposition", "profile.solve_profile",
                 "profile.eval", "catenoid.build_catenoid", "catenoid.xyz",
                 "catenoid.mesh_catenoid", "helicoid.mesh_helicoid",
                 "helicoid.ruling_residual", "cmc.build_cmc_annulus",
                 "cmc.reflect_and_mesh", "nil3.surface_jet2",
                 "nil3.mean_curvature", "nil3.gauss_map_and_residuals",
                 "nil3.graph_jet", "meshes.write_obj", "meshes.write_ply",
                 "meshes.read_obj", "meshes.read_ply",
                 "meshes.euler_characteristic", "meshes.grid_mesh_faces",
                 "verify.run_verification", "cli.main"):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    m["period.theta_solves_per_alpha"] = _ratio(
        calls.get("period.find_theta_tilde", 0), alphas)
    m["period.L_evals_per_root"] = _ratio(
        root_evals, calls.get("period.find_theta_tilde", 0))
    m["period.quad_converged_ratio"] = _ratio(
        sum(q["ok"] for q in quads), len(quads))
    m["period.quad_err_max"] = max((q["err"] for q in quads), default=0.0)
    m["profile.nodes_total"] = tot("profile.solve_profile", "nodes")
    m["profile.interp_error_max"] = mx(("profile.solve_profile",),
                                       "interp_error")
    points = tot("profile.eval", "points")
    m["profile.eval.points"] = points
    m["profile.eval.points_per_call"] = _ratio(
        points, calls.get("profile.eval", 0))
    m["profile.eval.ns_per_point"] = 1e9 * _ratio(
        self_s.get("profile.eval", 0.0), points)
    m["catenoid.xyz.points"] = tot("catenoid.xyz", "points")
    m["cmc.reflect_and_mesh.faces"] = tot("cmc.reflect_and_mesh", "faces")
    jets = tot("nil3.surface_jet2", "points")
    m["nil3.surface_jet2.points"] = jets
    m["nil3.sampler_points_per_jet_point"] = _ratio(jet_points, jets)
    m["meshes.write_obj.bytes"] = tot("meshes.write_obj", "bytes")
    m["meshes.write_ply.bytes"] = tot("meshes.write_ply", "bytes")
    m["verify.checks"] = verify_stats["checks"]
    m["verify.failed_checks"] = verify_stats["failed"]
    m["verify.worst_margin"] = verify_stats["worst_margin"]

    total = sum(self_t)
    for layer in LAYERS:
        names = [n for n in calls if n.split(".", 1)[0] == layer]
        m[f"{layer}.calls"] = sum(calls[n] for n in names)
        m[f"{layer}.self_s"] = sum(self_s[n] for n in names)
        m[f"{layer}.self_share"] = _ratio(m[f"{layer}.self_s"], total)
    m["trace.spans"] = len(spans)
    m["trace.span_self_s"] = total
    return m
