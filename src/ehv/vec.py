"""Vectorized (numpy, float64) kernels for quadrature-node evaluation.

Products are cut by core.DEFAULT_POLICY, the float64 rule of the scalar
evaluators, and raise TruncationFailure beyond its max_terms as they do.
Inputs are assumed pre-validated (domain-checked integrands keep all pole
lattices away from the evaluated circles), so there are no per-factor pole
guards; a final finiteness check catches the rest.

gamma_vec evaluates Gamma on the N nodes c w^k (w^N = 1) by the series of
gamma.py, log Gamma(x) = sum_m (x^m - (pq/x)^m) / (m (1-q^m)(1-p^m)) on
|pq| < |x| < 1.  The shift law Gamma(b x) = theta(x; o) Gamma(x) moves c by
the fewest steps to rho = max(|x|, |pq|/|x|) <= max(_TABLE_RHO, |o|^{1/2}),
and the M = cutoff(1/((1-|q|)(1-|p|)), rho) terms, folded modulo N, give
the table through one length-N inverse FFT.  The theta_vec shift factors
stay a separate product, so reciprocal tables are exactly 0 where one is
theta(1; o) = 0 (the z^2 = 1 nodes), and a Gamma pole divides by it and
ends in PoleHit.
"""

from __future__ import annotations

import numpy as np

from .core import DEFAULT_POLICY
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
    for _ in range(kmax):
        out *= 1.0 - w
        w *= b
    return out


def theta_vec(z: np.ndarray, p) -> np.ndarray:
    """theta(z; p) = (z;p)_oo (p/z;p)_oo elementwise."""
    pabs = abs(p)
    if pabs >= 1.0:
        raise NonConvergent("theta_vec requires |p| < 1")
    z = np.asarray(z, dtype=complex)
    if pabs == 0.0:
        return 1.0 - z
    zi = p / z
    scale = float(max(np.max(np.abs(z)), np.max(np.abs(zi))))
    kmax = DEFAULT_POLICY.terms("theta_vec", scale, pabs)
    if scale < _DIRECT_SCALE:
        out = np.ones_like(z)
        w1 = z.copy()
        w2 = zi.copy()
        for _ in range(kmax):
            out *= (1.0 - w1) * (1.0 - w2)
            w1 *= p
            w2 *= p
        return out
    acc = np.zeros_like(z)
    w1 = z.copy()
    w2 = zi.copy()
    for _ in range(kmax):
        acc += np.log((1.0 - w1) * (1.0 - w2))
        w1 *= p
        w2 *= p
    return np.exp(acc)


def gamma_vec(c, N: int, q, p, *, inverse: bool = False) -> np.ndarray:
    """Gamma(c w^k; q, p), k < N, w = e^{2 pi i/N}; 1/Gamma with inverse=True."""
    qa, pa = abs(q), abs(p)
    if qa >= 1.0 or pa >= 1.0:
        raise NonConvergent("gamma_vec requires |q| < 1 and |p| < 1")
    if c == 0:
        raise PoleHit("gamma_vec argument contains z = 0")
    x = c * np.exp(2j * np.pi * np.arange(N) / N)
    if pa == 0.0 or qa == 0.0:
        poch = qpoch_vec(x, q if pa == 0.0 else p)
        return poch if inverse else 1.0 / poch
    b, o, n = shift_plan(abs(c), q, p, _TABLE_RHO)
    shift = np.ones(N, dtype=complex)
    x = x * b ** min(n, 0)
    for _ in range(abs(n)):
        shift *= theta_vec(x, o)
        x = x * b
    A, B = log_gamma_terms(c * b ** n, q, p, DEFAULT_POLICY)
    m = np.arange(1, A.size + 1)
    coef = np.zeros(N, dtype=complex)
    np.add.at(coef, m % N, -A if inverse else A)
    np.add.at(coef, -m % N, B if inverse else -B)
    g = np.exp(N * np.fft.ifft(coef))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = g / shift if (n > 0) != inverse else g * shift
    if not np.all(np.isfinite(out)):
        raise PoleHit("gamma_vec evaluated on or beyond a pole lattice point")
    return out
