"""High-accuracy integration over the torus T^n.

The rule is the tensor-product equispaced (trapezoid) rule: for analytic
periodic integrands the node average

    (1/N^n) sum_{k in Z_N^n} f(w^{k_1}, ..., w^{k_n}),   w = e^{2 pi i / N}

equals the contour integral over prod dz_j / (2 pi i z_j) up to an error
decaying geometrically in N.  Convergence control is node doubling: the
estimate's error is the magnitude of the last doubling change, with no
extrapolation.

Determinism: node values are summed in chunks of _CHUNK along the outermost
axis, and the chunk partials are combined in a fixed binary tree keyed by
chunk index (series.tree_sum).
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimit
from .integrands import IntegrandSpec, make_integrand, require_valid
from .series import tree_sum

_DEFAULT_MAX_NODES = 10_000_000
_CHUNK = 16


# A doubling change at or below this fraction of the node average of |f| is
# float64 rounding in the node sum (a few ulps of the summed magnitudes):
# further doubling cannot shrink it, and an integral whose value is 0 never
# meets the relative stop rule.
_ROUNDING_FLOOR = 1e-14


def _max_nodes() -> int:
    """EHV_MAX_NODES as a positive integer; unset or empty means the default."""
    raw = os.environ.get("EHV_MAX_NODES", "")
    if not raw:
        return _DEFAULT_MAX_NODES
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise ResourceLimit(
            f"EHV_MAX_NODES must be a positive integer, got {raw!r}")
    return budget


@dataclass(frozen=True)
class QuadratureConfig:
    nodes_per_dim: int = 128
    max_doublings: int = 4
    rel_tol: float = 1e-10

    def __post_init__(self):
        if self.nodes_per_dim < 8:
            raise ValueError("nodes_per_dim must be >= 8")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")


def default_config(n: int) -> QuadratureConfig:
    """Node counts tuned per rank: 128 / 96 / 64 per dim for n = 1 / 2 / 3+."""
    return QuadratureConfig(nodes_per_dim={1: 128, 2: 96}.get(n, 64))


@dataclass
class QuadratureResult:
    value: complex
    est_error: float
    nodes_used: int          # point count of the finest evaluated grid
    dim: int
    converged: bool


def _reduce_array(arr: np.ndarray):
    """Chunked deterministic sums of the values and of their moduli."""
    sums, abs_sums = [], []
    for i in range(0, arr.shape[0], _CHUNK):
        chunk = arr[i:i + _CHUNK]
        sums.append(complex(np.sum(chunk)))
        abs_sums.append(float(np.sum(np.abs(chunk))))
    return tree_sum(sums), tree_sum(abs_sums)


def integrate_mesh_fn(mesh_fn, n: int, cfg: QuadratureConfig | None = None):
    """Doubling driver over a mesh builder: mesh_fn(N) -> value array (N,)*n.

    Returns the node average at the finest grid with the last doubling
    change as error estimate.  Converged means that change is within
    rel_tol of the value, or at the rounding floor of the node sum (the
    only way an integral whose value is 0 can converge).  Stops early once
    the node budget would be exceeded (the initial grid over budget raises
    ResourceLimit).
    """
    if cfg is None:
        cfg = default_config(n)
    budget = _max_nodes()
    N = cfg.nodes_per_dim
    if N ** n > budget:
        raise ResourceLimit(
            f"initial grid {N}^{n} exceeds EHV_MAX_NODES={budget}"
        )
    value = _reduce_array(np.asarray(mesh_fn(N)))[0] / (N ** n)
    est = math.inf
    converged = False
    for _ in range(cfg.max_doublings):
        if (2 * N) ** n > budget:
            break
        N = 2 * N
        total, abs_total = _reduce_array(np.asarray(mesh_fn(N)))
        value2 = total / (N ** n)
        est = abs(value2 - value)
        value = value2
        if (est <= cfg.rel_tol * abs(value)
                or est <= _ROUNDING_FLOOR * abs_total / (N ** n)):
            converged = True
            break
    return QuadratureResult(value=value, est_error=est, nodes_used=N ** n,
                            dim=n, converged=converged)


def circle_integral(f, cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """(1/2 pi i) closed-contour integral of f(z) dz/z over the unit circle.

    f may be a plain callable or carry a vectorized mesh_eval(N).
    """
    if hasattr(f, "mesh_eval"):
        return integrate_mesh_fn(f.mesh_eval, 1, cfg)
    return torus_integral(lambda zs: f(zs[0]), 1, cfg)


def torus_integral(f, n: int, cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Tensor-product rule over T^n with doubling control.

    f may carry a vectorized mesh_eval(N); otherwise it is called pointwise
    as f((z_1, ..., z_n)) on every grid node, in C order.
    """
    if hasattr(f, "mesh_eval"):
        return integrate_mesh_fn(f.mesh_eval, n, cfg)

    def mesh(N):
        z1d = np.exp(2j * np.pi * np.arange(N) / N)
        vals = np.fromiter((f(zs) for zs in itertools.product(z1d, repeat=n)),
                           dtype=complex, count=N ** n)
        return vals.reshape((N,) * n)

    return integrate_mesh_fn(mesh, n, cfg)


def integrate_spec(spec: IntegrandSpec, cfg: QuadratureConfig | None = None):
    """Domain-validate and integrate a family integrand over T^n."""
    require_valid(spec)
    integrand = make_integrand(spec)
    return integrate_mesh_fn(integrand.mesh_eval, spec.n, cfg)
