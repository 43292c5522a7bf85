"""High-accuracy integration over the torus T^n.

The rule is the tensor-product equispaced (trapezoid) rule: for analytic
periodic integrands the node average

    (1/N^n) sum_{k in Z_N^n} f(w^{k_1}, ..., w^{k_n}),   w = e^{2 pi i / N}

equals the contour integral over prod dz_j / (2 pi i z_j) up to an error
decaying geometrically in N (Trefethen & Weideman, SIAM Rev. 2014).
Convergence control is one ladder of grids, N0 * (2, 3, 4, 6, 8, ...) with
N0 = nodes_per_dim, up to N0 * 2^max_doublings: the estimate's error is the
magnitude of its change from a coarser grid, with no extrapolation.  As the
error falls geometrically, a step of 3/2 or 4/3 confirms a value as a
doubling would: once 2 N0 has missed the stop rule, the driver tries 3 N0
before 4 N0.  max_doublings bounds the top grid, N0 * 2^max_doublings, as
in a doubling loop; with max_doublings = 1 the ladder is 2 N0 alone.

The grids nest: w_N^k = w_{2N}^{2k}, so the N-node average is the average
over the even nodes of the 2N grid.  The first grid the driver evaluates is
therefore 2 N0, and its first change is against the average of its even
subgrid, the N0 grid, taken from the arrays the 2 N0 sums already hold; no
N0 tables are built.  If that change misses the stop rule, 2 N0 is
compared with the grid N' = 2 floor(3N/8) (144 at N = 192), and kept if
that change meets the rule.  Each later rung is compared with the rung
below it, 3 N0 with 2 N0, 4 N0 with 3 N0, and so on.  A change estimates
the error of the coarser grid; with the error falling as r^N for a pole
radius r, the finer grid's error is r^(N/4) of it against N', about 2% at
N = 192 under the samplers' cap r <= 0.925, and r^(N/3) or r^(N/4) of it
at a rung.  N' < N, so N' fits wherever N does; a rung that does not fit
ends the ladder at the rung below it.  With max_doublings = 0, or when
2 N0 is over the node budget, the driver evaluates N0 alone and reports
est_error = inf and converged = False.

There is one ladder loop, integrate_sums, over a node-sums function
sums(N) -> (node averages, |f| sums, cell shape), which with subgrid=True
also returns the node averages of the even subgrid, and the count points(N)
of what sums(N) evaluates or holds, which EHV_MAX_NODES bounds.  Two kinds
of sums feed it:

- a mesh (integrate_mesh_fn): an array (M,)*n + cells at N nodes per axis,
  M = N or, folded by the caller with the fold weights multiplied in,
  M = N/2 + 1, its N^n grid nodes counted against the budget.  Its trailing
  cell axes give one integral per cell over the same nodes (a Gram matrix
  on one weight, say), refined until every cell has converged;
- a FactorIntegrand (integrate_factors), through its node_sums on the path
  its exponent vectors select (see the integrands module): the pairwise
  contraction (C_n, n >= 3), the Weyl-orbit sum (A_n, n >= 2), else the
  mesh.  A list whose factors prove z_j -> 1/z_j symmetry sums over
  k_j in [0, N/2] with weights 1, 2, ..., 2, 1 at an even N: the
  contraction or the mesh folded.  An odd N, or a list without the proof,
  takes the unfolded sum.

Whatever the path, a result's nodes_used is N^n, and points(N) counts the
folded arrays where the sum folds.

Determinism, per path: every mesh, folded or full, with or without cell
axes, is reduced by the one integrands.mesh_sums, which sums each cell's
nodes as one C-contiguous row, so a cell gets the bits a mesh of its own
would (numpy's pairwise summation of a contiguous row, pinned by a test).
The contraction is one np.einsum whose path depends only on the shapes,
run on one BLAS thread where numpy's bundled OpenBLAS exports its
thread-count symbols, so its bits repeat for a given numpy whatever the
host's thread count; with another BLAS they repeat at a given thread count
(integrands._one_blas_thread).  The orbit sum adds fixed blocks of
representatives in a fixed order.  The paths, folded or not, agree to
rounding (within 1e-14 relative on the tested integrands), not bit for
bit.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimit
from .integrands import FactorIntegrand, mesh_sums

_DEFAULT_MAX_NODES = 10_000_000


# A change at or below this fraction of the node average of |f| is
# float64 rounding in the node sum (a few ulps of the summed magnitudes):
# finer grids cannot shrink it, and an integral whose value is 0 never
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
    """value is a complex, or an array of the cell shape for a mesh with cell
    axes; est_error is the largest cell's change, converged holds for all."""

    value: complex | np.ndarray
    est_error: float
    nodes_used: int          # point count of the finest evaluated grid
    converged: bool


def _ladder(N0: int, max_doublings: int) -> list[int]:
    """The grids after N0: N0 * (2, 3, 4, 6, 8, 12, ...), up to and
    including N0 * 2^max_doublings; empty for max_doublings < 1."""
    rungs = []
    for j in range(1, max_doublings + 1):
        if j > 1:
            rungs.append(3 * N0 << (j - 2))
        rungs.append(N0 << j)
    return rungs


def integrate_sums(sums, points, n: int, cfg: QuadratureConfig | None = None):
    """The ladder driver over a node-sums function: sums(N) -> (node
    averages, |f| sums, cell shape), one entry per cell as mesh_sums
    gives them, and sums(N, True) -> the same and the node averages of the
    even subgrid (the N/2 grid); points(N) counts what sums(N) evaluates or
    holds.

    The grids are the rungs N0 * (2, 3, 4, 6, 8, ...), N0 = nodes_per_dim,
    up to N0 * 2^max_doublings (_ladder).  The first rung, 2 N0, is compared
    with its even subgrid, the N0 grid, and, if that change leaves a cell
    unconverged, with N' = 2 floor(3N/8), and kept, that change its
    estimate, if every cell converges on it; else the estimate is the
    smaller of the two changes (each the largest over the cells).  Each
    later rung is compared with the rung below it, that change its
    estimate.  A cell has converged when its change is within rel_tol of
    its value, or at the rounding floor of its node sum (the only way an
    integral whose value is 0 can converge).  The driver stops at the first
    rung on which every cell converges, at the top rung, or before a rung
    whose points(N) exceeds the node budget (an initial grid over budget
    raises ResourceLimit).  With max_doublings = 0, or when points(2 N0)
    exceeds the budget, N0 alone is evaluated, with est_error = inf and
    converged = False.  Returns the node average at the finest grid, per
    cell, with its estimate.  nodes_used is N^n whatever the path.
    """
    if cfg is None:
        cfg = default_config(n)
    budget = _max_nodes()
    N = cfg.nodes_per_dim
    if points(N) > budget:
        raise ResourceLimit(f"initial grid {N}^{n} ({points(N)} points) "
                            f"exceeds EHV_MAX_NODES={budget}")
    est, converged = math.inf, False
    rungs = _ladder(N, cfg.max_doublings)
    if not rungs or points(rungs[0]) > budget:
        value, _, cells = sums(N)
    else:
        N = rungs[0]
        value, abs_total, cells, coarse = sums(N, True)

        def change_from(other):
            """(largest change, whether every cell meets the stop rule)."""
            change = [abs(b - a) for a, b in zip(other, value)]
            return max(change), all(
                d <= cfg.rel_tol * abs(v) or d <= _ROUNDING_FLOOR * s / (N ** n)
                for d, v, s in zip(change, value, abs_total))

        est, converged = change_from(coarse)
        if not converged:
            between, converged = change_from(sums(2 * (3 * N // 8))[0])
            est = between if converged else min(est, between)
        for finer in rungs[1:]:
            if converged or points(finer) > budget:
                break
            N, coarse = finer, value
            value, abs_total, _ = sums(N)
            est, converged = change_from(coarse)
    return QuadratureResult(
        value=np.array(value).reshape(cells) if cells else value[0],
        est_error=est, nodes_used=N ** n, converged=converged)


def integrate_mesh_fn(mesh_fn, n: int, cfg: QuadratureConfig | None = None):
    """integrate_sums over a mesh builder, mesh_fn(N) -> array (M,)*n + cells
    (M = N, or N/2 + 1 folded by the builder), reduced by mesh_sums; the
    budget counts the N^n grid nodes."""
    return integrate_sums(
        lambda N, subgrid=False: mesh_sums(np.asarray(mesh_fn(N)), N, n, subgrid),
        lambda N: N ** n, n, cfg)


def integrate_factors(ig: FactorIntegrand,
                      cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Integrate a factor integrand through its node_sums, on the path it
    selects."""
    return integrate_sums(ig.node_sums, ig.points, ig.n, cfg)


def torus_integral(f, n: int, cfg: QuadratureConfig | None = None) -> QuadratureResult:
    """Tensor-product rule over T^n with ladder control, f called
    pointwise as f((z_1, ..., z_n)) on every grid node, in C order: the
    reference the vectorized mesh path is tested against."""

    def mesh(N):
        z1d = np.exp(2j * np.pi * np.arange(N) / N)
        vals = np.fromiter((f(zs) for zs in itertools.product(z1d, repeat=n)),
                           dtype=complex, count=N ** n)
        return vals.reshape((N,) * n)

    return integrate_mesh_fn(mesh, n, cfg)
