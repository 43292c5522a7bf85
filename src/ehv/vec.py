"""Vectorized (numpy, float64) kernels for quadrature-node evaluation.

Products are cut by core.DEFAULT_POLICY, the float64 rule of the scalar
evaluators, and raise TruncationFailure beyond its max_terms as they do.
theta_vec also takes one base per element, broadcast against its
arguments, and runs every element to the largest cutoff that any element
needs; so a stack of identity draws, each with its own p, is one call.
On an object array of mpmath numbers it runs the same loop at their
precision, cut by the mode's policy (core.default_policy()).
Inputs are assumed pre-validated (domain-checked integrands keep all pole
lattices away from the evaluated circles), so there are no per-factor pole
guards; a final finiteness check catches the rest.

gamma_vec evaluates Gamma on the N nodes c w^k (w^N = 1) by the series of
gamma.py, log Gamma(x) = sum_m (x^m - (pq/x)^m) / (m (1-q^m)(1-p^m)) on
|pq| < |x| < 1, for a stack of K constants c at once, one table row each.
The shift law Gamma(b x) = theta(x; o) Gamma(x) moves each c by the fewest
steps to rho = max(|x|, |pq|/|x|) <= max(_TABLE_RHO, |o|^{1/2}) (a shift
plan per row).  The series of all rows is one cumprod of M =
cutoff(1/((1-|q|)(1-|p|)), rho) terms at the largest rho of the stack;
the terms, folded modulo N, give every row through one (K, N) inverse FFT
and one exp.  A row thus carries at least the terms its own rho needs, and
its last bits depend on the constants stacked with it.  The theta_vec
shift factors stay a separate product, multiplied or divided per row, so
reciprocal rows are exactly 0 where one is theta(1; o) = 0 (the z^2 = 1
nodes), and a Gamma pole divides by it; one finiteness check over the
stack raises PoleHit.  At p = 0 or q = 0 the rows are qpoch_vec values.
"""

from __future__ import annotations

import numpy as np

from .core import DEFAULT_POLICY, default_policy
from .errors import NonConvergent, PoleHit
from .gamma import log_gamma_terms, shift_plan

# Theta partial products stay below exp(scale / (1-|p|)); beyond this scale
# theta_vec accumulates logs instead to dodge overflow.
_DIRECT_SCALE = 40.0

# A table shifts only until rho <= this: each shift step costs a theta_vec
# table, while the extra series terms go into the one FFT.
_TABLE_RHO = 0.9


def qpoch_vec(z: np.ndarray, b) -> np.ndarray:
    """(z; b)_oo elementwise."""
    babs = abs(b)
    if babs >= 1.0:
        raise NonConvergent("qpoch_vec requires |b| < 1")
    z = np.asarray(z, dtype=complex)
    if babs == 0.0:
        return 1.0 - z
    kmax = DEFAULT_POLICY.terms("qpoch_vec", float(np.max(np.abs(z))), babs)
    out = np.ones_like(z)
    w = z.copy()
    f = np.empty_like(z)
    for _ in range(kmax):
        out *= np.subtract(1.0, w, out=f)
        w *= b
    return out


def theta_vec(z: np.ndarray, p) -> np.ndarray:
    """theta(z; p) = (z;p)_oo (p/z;p)_oo elementwise.

    p is one base or an array of bases that broadcasts against z, one per
    element; the product runs to the largest cutoff that any element
    needs.  An object array of mpmath numbers runs the same loop in their
    precision, cut by the mode's policy, with no log-space accumulation.

    The factor loops work in place: a stacked table's temporaries would
    otherwise be allocated and freed once per factor."""
    z, p = _operand(z), _operand(p)
    pabs = np.asarray(np.abs(p), dtype=float)
    if pabs.max() >= 1.0:
        raise NonConvergent("theta_vec requires |p| < 1")
    w2 = np.asarray(p / z)
    mp = w2.dtype == object
    policy = default_policy() if mp else DEFAULT_POLICY
    sabs = np.asarray(np.maximum(np.abs(z), np.abs(w2)), dtype=float)
    kmax = policy.batch_terms("theta_vec", sabs, pabs)
    direct = mp or sabs.max() < _DIRECT_SCALE
    acc = np.ones_like(w2) if direct else np.zeros_like(w2)
    w1, f1, f2 = np.empty_like(w2), np.empty_like(w2), np.empty_like(w2)
    w1[...] = z
    for _ in range(kmax):
        np.subtract(1.0, w1, out=f1)
        f1 *= np.subtract(1.0, w2, out=f2)
        if direct:
            acc *= f1
        else:
            acc += np.log(f1, out=f1)
        w1 *= p
        w2 *= p
    return acc if direct else np.exp(acc)


def _operand(x) -> np.ndarray:
    """x as a complex array, or as given if it holds mpmath numbers."""
    x = np.asarray(x)
    return x if x.dtype == object else x.astype(complex, copy=False)


def gamma_vec(c, N: int, q, p, *, inverse=False) -> np.ndarray:
    """Gamma(c w^k; q, p), k < N, w = e^{2 pi i/N}; 1/Gamma where inverse.

    c is one constant, giving shape (N,), or a sequence of K constants,
    giving (K, N), one row each; inverse is one flag or one per constant.
    """
    qa, pa = abs(q), abs(p)
    if qa >= 1.0 or pa >= 1.0:
        raise NonConvergent("gamma_vec requires |q| < 1 and |p| < 1")
    cs = [c] if np.ndim(c) == 0 else list(c)
    inv = np.broadcast_to(np.asarray(inverse, dtype=bool), (len(cs),))
    if any(v == 0 for v in cs):
        raise PoleHit("gamma_vec argument contains z = 0")
    z = np.exp(2j * np.pi * np.arange(N) / N)
    x = np.array(cs, dtype=complex)[:, None] * z
    if pa == 0.0 or qa == 0.0:
        poch = qpoch_vec(x, q if pa == 0.0 else p)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(inv[:, None], poch, 1.0 / poch)
    else:
        plans = [shift_plan(abs(v), q, p, _TABLE_RHO) for v in cs]
        b, o = plans[0][:2]
        ns = [n for _, _, n in plans]
        x = x * np.array([b ** min(n, 0) for n in ns])[:, None]
        shift = np.ones_like(x)
        for step in range(max(abs(n) for n in ns)):
            rows = [r for r, n in enumerate(ns) if abs(n) > step]
            shift[rows] *= theta_vec(x[rows], o)
            x[rows] *= b
        A, B = log_gamma_terms([v * b ** n for v, n in zip(cs, ns)], q, p,
                               DEFAULT_POLICY)
        # fold term m of row r into bin r N + (+-m mod N)
        sign = np.where(inv, -1.0, 1.0)
        m = np.arange(1, A.shape[0] + 1)[:, None]
        row = N * np.arange(len(cs))
        coef = np.zeros(x.size, dtype=complex)
        np.add.at(coef, (row + m % N).ravel(), (A * sign).ravel())
        np.add.at(coef, (row + -m % N).ravel(), (B * -sign).ravel())
        out = np.exp(N * np.fft.ifft(coef.reshape(x.shape)))
        steps = np.array(ns)
        divide = (steps != 0) & ((steps > 0) != inv)
        times = (steps != 0) & ~divide
        with np.errstate(divide="ignore", invalid="ignore"):
            out[divide] /= shift[divide]
            out[times] *= shift[times]
    if not np.all(np.isfinite(out)):
        raise PoleHit("gamma_vec evaluated on or beyond a pole lattice point")
    return out[0] if np.ndim(c) == 0 else out
