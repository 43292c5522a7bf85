"""Vectorized (numpy, float64) kernels for quadrature-node evaluation.

These mirror the scalar evaluators in core/gamma for arrays of points.
Inputs are assumed pre-validated (domain-checked integrands keep all pole
lattices away from the evaluated circles), so there are no per-factor pole
guards here; a final finiteness check catches anything that slips through.
Products are cut by core.DEFAULT_POLICY, the float64 rule of the scalar
evaluators.
"""

from __future__ import annotations

import numpy as np

from .core import DEFAULT_POLICY
from .errors import NonConvergent, PoleHit

# Partial products stay below exp(scale / ((1-|q|)(1-|p|))); beyond this
# scale we accumulate logs instead to dodge overflow.
_DIRECT_SCALE = 40.0


def qpoch_vec(z: np.ndarray, b) -> np.ndarray:
    """(z; b)_oo elementwise."""
    babs = abs(b)
    if babs >= 1.0:
        raise NonConvergent("qpoch_vec requires |b| < 1")
    z = np.asarray(z, dtype=complex)
    if babs == 0.0:
        return 1.0 - z
    kmax = DEFAULT_POLICY.cutoff(float(np.max(np.abs(z))), babs)
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
    kmax = DEFAULT_POLICY.cutoff(scale, pabs)
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


def gamma_vec(z: np.ndarray, q, p, *, inverse: bool = False) -> np.ndarray:
    """Elliptic gamma elementwise via the row-cut double product.

    inverse=True returns 1/Gamma computed as den/num, so reciprocal tables
    are exactly 0 (not inf/nan) at the lattice points where Gamma blows up;
    integrand denominators rely on this at the z^2 = 1 grid nodes.
    """
    qa, pa = abs(q), abs(p)
    if qa >= 1.0 or pa >= 1.0:
        raise NonConvergent("gamma_vec requires |q| < 1 and |p| < 1")
    z = np.asarray(z, dtype=complex)
    if np.any(z == 0):
        raise PoleHit("gamma_vec argument contains z = 0")
    zi = 1.0 / z
    if pa == 0.0 or qa == 0.0:
        poch = qpoch_vec(z, q if pa == 0.0 else p)
        return poch if inverse else 1.0 / poch
    za = float(np.max(np.abs(z)))
    zia = float(np.max(np.abs(zi)))
    scale = max(za, qa * pa * zia)
    use_logs = scale >= _DIRECT_SCALE
    kmax = DEFAULT_POLICY.cutoff(scale, pa)
    num = np.ones_like(z)
    den = np.ones_like(z)
    acc = np.zeros_like(z) if use_logs else None
    pk = 1.0 + 0.0j
    for _ in range(kmax):
        jmax = DEFAULT_POLICY.cutoff(scale * abs(pk), qa)
        w_den = z * pk
        w_num = zi * (q * p * pk)
        for _ in range(jmax):
            if use_logs:
                acc += np.log(1.0 - w_num) - np.log(1.0 - w_den)
            else:
                num *= 1.0 - w_num
                den *= 1.0 - w_den
            w_den *= q
            w_num *= q
        pk *= p
    if use_logs:
        return np.exp(-acc) if inverse else np.exp(acc)
    out = den / num if inverse else num / den
    if not np.all(np.isfinite(out)):
        raise PoleHit("gamma_vec evaluated on or beyond a pole lattice point")
    return out
