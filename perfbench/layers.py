"""The traced layers of ``ehv`` and the per-layer metrics computed from them.

Tracing wraps public functions from outside the package.  ``ehv`` modules
bind each other's functions by name (``from .vec import gamma_vec``), so a
function is replaced in every ``ehv`` module that holds it, and methods are
replaced on their class.  ``installed`` restores every binding on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import re
import sys

import numpy as np

from spans import self_times
from workloads import SPEC

MODULES = ("core", "gamma", "vec", "integrands", "quadrature", "series",
           "identities", "biorthogonal", "registry", "report", "params", "cli")

# layer -> the functions it covers, as "module.function" or "module.Class.method"
LAYERS = {
    "core.theta": ("core.theta",),
    "gamma.elliptic_gamma": ("gamma.elliptic_gamma",
                             "gamma.elliptic_gamma_reciprocal",
                             "gamma.elliptic_gamma_multi",
                             "gamma.elliptic_factorial_s"),
    "vec.gamma_vec": ("vec.gamma_vec",),
    "vec.theta_vec": ("vec.theta_vec",),
    "integrands.mesh_eval": ("integrands.FactorIntegrand.mesh_eval",),
    "integrands.rhs_closed_form": ("integrands.rhs_closed_form",),
    "integrands.validate_domain": ("integrands.validate_domain",),
    "quadrature.integrate": ("quadrature.integrate_mesh_fn",),
    "series.sum_V_info": ("series.sum_V_info",),
    "series.multi_sum": ("series.milne_sum_sides", "series.milne_condition",
                         "series.gustafson_rakha_sum_sides",
                         "series.gustafson_rakha_condition"),
    "identities.theta_identity": ("identities.riemann_identity_residual",
                                  "identities.riemann_identity_scale",
                                  "identities.partial_fraction_residual",
                                  "identities.partial_fraction_scale",
                                  "identities.id1_residual",
                                  "identities.id1_scale",
                                  "identities.id3_residual",
                                  "identities.id3_scale"),
    "identities.kratt": ("identities.krattenthaler_condition",
                         "identities.krattenthaler_det_sides"),
    "biorthogonal.biorth_value": ("biorthogonal.biorth_value",),
    "biorthogonal.norm_h": ("biorthogonal.norm_h",),
    "biorthogonal.beta_value": ("biorthogonal.RahmanParams.beta_value",),
    "biorthogonal.contour_check": ("biorthogonal.contour_check",),
    "registry.accept": ("registry.Sampler.accept",),
}

_DRAWS = re.compile(r"^(?:ident|id1|id2|id3) x(\d+) ")


def _counting(tracer, layer, fn, key, measure):
    """Span wrapper that also adds ``measure(result)`` to ``layer.key``."""
    inner = tracer.span(layer, fn)
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = inner(*args, **kwargs)
        counts[f"{layer}.{key}"] += measure(out)
        return out

    return wrapper


def _integrate(tracer, layer, fn):
    """The quadrature driver: its mesh callback gets a span of its own, and
    the grid sizes it asks for and its final grid are counted."""
    inner = tracer.span(layer, fn)
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(mesh_fn, *args, **kwargs):
        traced_mesh = tracer.span("quadrature.mesh_fn", mesh_fn)

        def mesh(N):
            out = traced_mesh(N)
            counts[f"{layer}.nodes_evaluated"] += np.size(out)
            return out

        res = inner(mesh, *args, **kwargs)
        counts[f"{layer}.final_nodes"] += res.nodes_used
        counts[f"{layer}.converged"] += bool(res.converged)
        return res

    return wrapper


def _accept(tracer, layer, fn):
    """The rejection sampler: every candidate drawn is an attempt."""
    inner = tracer.span(layer, fn)
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(self, draw, *args, **kwargs):
        def counted_draw():
            counts[f"{layer}.attempts"] += 1
            return draw()

        out = inner(self, counted_draw, *args, **kwargs)
        counts[f"{layer}.accepted"] += 1
        return out

    return wrapper


def _wrapper(tracer, layer, fn):
    if layer in ("vec.gamma_vec", "vec.theta_vec"):
        return _counting(tracer, layer, fn, "points", np.size)
    if layer == "integrands.mesh_eval":
        return _counting(tracer, layer, fn, "nodes", np.size)
    if layer == "series.sum_V_info":
        return _counting(tracer, layer, fn, "terms", lambda r: r.terms)
    if layer == "quadrature.integrate":
        return _integrate(tracer, layer, fn)
    if layer == "registry.accept":
        return _accept(tracer, layer, fn)
    return tracer.span(layer, fn)


@contextlib.contextmanager
def installed(tracer):
    """Route every layer function through ``tracer`` inside the block.

    Yields the targets that no longer exist in ``ehv``; ``missing_metrics``
    names the metrics they leave unmeasured.
    """
    modules = [importlib.import_module("ehv")] + [
        importlib.import_module(f"ehv.{m}") for m in MODULES]
    undo = []
    missing = []
    try:
        for layer, targets in LAYERS.items():
            for target in targets:
                mod_name, *path = target.split(".")
                owner = sys.modules[f"ehv.{mod_name}"]
                if len(path) == 2:
                    owner = getattr(owner, path[0], None)
                orig = getattr(owner, path[-1], None)
                if orig is None:
                    missing.append(target)
                    continue
                wrapped = _wrapper(tracer, layer, orig)
                if len(path) == 2:
                    undo.append((owner, path[-1], orig))
                    setattr(owner, path[-1], wrapped)
                    continue
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            undo.append((mod, name, orig))
                            setattr(mod, name, wrapped)
        yield missing
    finally:
        for owner, name, orig in reversed(undo):
            setattr(owner, name, orig)


def missing_metrics(missing_targets) -> list[str]:
    """The per-layer metrics of every layer that lost one of its targets:
    they read 0 or too little, and must not be read as a change in speed."""
    lost = {layer for layer, targets in LAYERS.items()
            if set(targets) & set(missing_targets)}
    if "quadrature.integrate" in lost:     # its wrapper also records mesh_fn
        lost.add("quadrature.mesh_fn")
    return [m["name"] for m in SPEC["per_layer"]
            if m["name"].rpartition(".")[0] in lost]


def metrics(tracer, calls) -> dict:
    """Per-layer metrics of one traced pass: every per-layer metric in
    BENCHMARK.json except trace.overhead_s, which needs an untraced pass."""
    times = self_times(tracer.spans)
    counts = tracer.counts

    def stat(layer, i):     # i: 0 calls, 1 inclusive seconds, 2 self seconds
        return times.get(layer, (0, 0.0, 0.0))[i]

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    rows = [row for c in calls for row in c.outcome.get("rows", ())]
    draws = sum(int(m.group(1)) for m in map(_DRAWS.match, (r["name"] for r in rows)) if m)
    quad = "quadrature.integrate"
    derived = {
        "core.theta.us_per_call": ratio(stat("core.theta", 2), stat("core.theta", 0), 1e6),
        "vec.gamma_vec.ns_per_point": ratio(stat("vec.gamma_vec", 2),
                                            counts["vec.gamma_vec.points"], 1e9),
        "vec.theta_vec.ns_per_point": ratio(stat("vec.theta_vec", 2),
                                            counts["vec.theta_vec.points"], 1e9),
        "integrands.mesh_eval.ns_per_node": ratio(stat("integrands.mesh_eval", 2),
                                                  counts["integrands.mesh_eval.nodes"], 1e9),
        f"{quad}.useful_node_frac": ratio(counts[f"{quad}.final_nodes"],
                                          counts[f"{quad}.nodes_evaluated"]),
        f"{quad}.converged_frac": ratio(counts[f"{quad}.converged"], stat(quad, 0)),
        "identities.theta_identity.evals_per_draw": ratio(
            stat("identities.theta_identity", 0), draws),
        "registry.accept.accept_frac": ratio(counts["registry.accept.accepted"],
                                             counts["registry.accept.attempts"]),
        "registry.accept.total_s": stat("registry.accept", 1),
        "registry.rejections": sum(c.rejections for c in calls),
        "report.rows": len(rows),
    }
    out = {}
    for name in (m["name"] for m in SPEC["per_layer"]):
        layer, _, metric = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif metric == "calls":
            out[name] = stat(layer, 0)
        elif metric == "self_s":
            out[name] = stat(layer, 2)
        elif name != "trace.overhead_s":
            out[name] = counts[name]    # points, nodes, terms, attempts, ...
    return out
