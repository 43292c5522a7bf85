"""Foundation layer: truncated infinite products and theta functions.

Conventions used throughout the package:

    (z; b)_oo        = prod_{k>=0} (1 - z b^k),                     |b| < 1
    theta(z; p)      = (z; p)_oo * (p/z; p)_oo,                     z != 0
    theta(z; p; q)_n = prod_{l=0}^{n-1} theta(z q^l; p),            n >= 0
    theta(z; p; q)_n = 1 / theta(z q^n; p; q)_{-n},                 n < 0

theta(z;p) vanishes exactly on the lattice z = p^k, k in Z, and obeys the
quasi-periodicity relations

    theta(p z; p) = theta(1/z; p) = -theta(z; p) / z.

The Jacobi theta_1 function is exposed through the multiplicative theta via

    theta_1(u; sigma, tau) = p^(1/8) * i * q^(-u/2) * (p;p)_oo * theta(q^u; p)

with q = exp(2 pi i sigma), p = exp(2 pi i tau).  Principal branches are
fixed by evaluating p^(1/8) = exp(pi i tau / 4) and q^(-u/2) = exp(-pi i
sigma u) directly from the modular parameters.

Truncation is set by the precision mode and is not an argument: every
product reads ``default_policy()``, the 1e-16 tail rule in standard mode
and the 1e-38 one in extended mode (``DEFAULT_POLICY`` and
``_EXTENDED_POLICY``).

Scalar theta is memoized.  ``theta(z, p)`` is a pure function of its
arguments and the mode, and one check evaluates the same arguments many
times (a residual and its scale, the term ratios of a terminating sum), so
the public ``theta`` keeps the last ``THETA_MEMO_SIZE`` values in an LRU
memo keyed on (z, p, the mode's policy) and on the types of z and p: a
value is never served to the other mode.  Only floats and complex
numbers without a zero part are memoized, so two equal keys always have
the same bits (no signed zero can hide behind ``==``); mpmath numbers,
whose arithmetic depends on ``mp.dps``, bypass it.  Exceptions are never
memoized.  The 16 powers p^(+-k), k <= 8, of theta's exact-zero test are
kept per such base p in an LRU memo of their own.  Both memos are bounded
and keyed on everything their values depend on, so no value depends on the
calls before it and no memo needs emptying.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from ._backend import EXTENDED, cexp, clog, get_precision, is_mp
from .errors import DomainError, NonConvergent, PoleHit, TruncationFailure

_TWO_PI = 2.0 * math.pi

# Above this factor count, products accumulate in log space to dodge
# overflow; each factor is near 1 so principal logs compose exactly.
_LOG_SPACE_COUNT = 64
_LOG_SPACE_MAGNITUDE = 1e3

# PoleHit threshold: evaluation raises PoleHit instead of returning a huge
# value when the relative distance to a pole (for elliptic gamma), or
# |theta| of a reciprocal factor, falls below this.
POLE_EPS = 1e-13

# Degeneracy guards: an identity raises DegenerateConfiguration, and the
# biorthogonal recurrence SingularStep, when a value it divides by is below
# DEGENERATE_EPS; a series raises PoleHit when a denominator factorial is
# below DENOMINATOR_EPS.  Both only catch values that underflow towards 0;
# near-poles are POLE_EPS's job.
DEGENERATE_EPS = 1e-250
DENOMINATOR_EPS = 1e-280

# Entries of theta's memo: one check call repeats arguments within a few
# hundred evaluations (a residual and its scale, consecutive sum terms).
THETA_MEMO_SIZE = 256


@dataclass(frozen=True, eq=False)
class TruncationPolicy:
    """Tail-bound control for all infinite products; one per precision mode.

    A product is cut at the first index K where the geometric tail bound
    |z| |b|^K / (1 - |b|) drops below eps; exceeding max_terms first is a
    TruncationFailure.  Policies compare and hash by identity: the two
    modes' instances are the only ones the package makes, and theta's memo
    key hashes one on every call.
    """

    eps: float
    max_terms: int

    def cutoff(self, scale: float, base_mod: float) -> int:
        """Smallest K with scale * base_mod^K / (1 - base_mod) < eps."""
        if scale == 0.0 or base_mod == 0.0:
            return 1
        target = self.eps * (1.0 - base_mod) / scale
        if target >= 1.0:
            return 1
        k = int(math.ceil(math.log(target) / math.log(base_mod)))
        return max(k, 1)

    def terms(self, what: str, scale: float, base_mod: float) -> int:
        """cutoff(scale, base_mod), or TruncationFailure beyond max_terms."""
        k = self.cutoff(scale, base_mod)
        if k > self.max_terms:
            raise TruncationFailure(
                f"{what} needs {k} terms, policy allows {self.max_terms}")
        return k

    def batch_terms(self, what: str, scales, base_mods) -> int:
        """The largest terms() over a float array of scales, each paired
        with its base modulus from a float array that broadcasts onto it.

        cutoff() grows with the scale and with the base, so the pair of
        largest scale needs at least the terms of every pair of a smaller
        or equal base; the search goes on among the pairs of larger base.
        """
        base_mods = np.asarray(base_mods, dtype=float)
        lead = scales.ndim - base_mods.ndim
        spread = tuple(range(lead)) + tuple(
            lead + i for i, n in enumerate(base_mods.shape) if n == 1)
        s = scales.max(axis=spread, keepdims=True).ravel()
        b = base_mods.ravel()
        k = 0
        while s.size:
            i = s.argmax()
            k = max(k, self.terms(what, float(s[i]), float(b[i])))
            larger = b > b[i]
            s, b = s[larger], b[larger]
        return k


DEFAULT_POLICY = TruncationPolicy(eps=1e-16, max_terms=4096)
_EXTENDED_POLICY = TruncationPolicy(eps=1e-38, max_terms=16384)


def default_policy() -> TruncationPolicy:
    """Mode-aware default: 1e-16 tails in float64, 1e-38 in extended mode."""
    return _EXTENDED_POLICY if get_precision() == EXTENDED else DEFAULT_POLICY


@dataclass(frozen=True)
class Moduli:
    """The pair of bases (q, p), both strictly inside the unit disk.

    q = 0 or p = 0 are legal degenerations (theta(z;0) = 1 - z) and are
    first-class code paths everywhere downstream.
    """

    q: complex
    p: complex

    def __post_init__(self):
        if not abs(self.q) < 1.0:       # NaN fails this test too
            raise ValueError(f"|q| must be < 1, got {abs(self.q)}")
        if not abs(self.p) < 1.0:
            raise ValueError(f"|p| must be < 1, got {abs(self.p)}")

    def swapped(self) -> "Moduli":
        return Moduli(q=self.p, p=self.q)


def qpochhammer(z, b):
    """(z; b)_oo = prod_{k>=0} (1 - z b^k), truncated under the mode's policy."""
    policy = default_policy()
    babs = abs(b)
    if babs >= 1.0:
        raise NonConvergent(f"qpochhammer requires |b| < 1, got {babs}")
    if z == 0:
        return 1.0 + 0.0 * z
    if babs == 0.0:
        return 1.0 - z
    kmax = policy.terms("qpochhammer", abs(z), babs)
    use_logs = kmax > _LOG_SPACE_COUNT or abs(z) > _LOG_SPACE_MAGNITUDE
    w = z
    if use_logs:
        acc = 0.0
        for _ in range(kmax):
            f = 1.0 - w
            if f == 0:
                return 0.0 * z
            acc = acc + clog(f)
            w = w * b
        return cexp(acc)
    acc = 1.0 + 0.0 * z
    for _ in range(kmax):
        acc = acc * (1.0 - w)
        w = w * b
    return acc


@functools.lru_cache(maxsize=64, typed=True)
def _zero_lattice(p) -> frozenset:
    # The zeros of theta at z = p^k, 1 <= |k| <= 8, built from the same
    # power expressions a caller would write (p**k and p**(-k)), so the
    # exact-zero test stays exact in floating point.
    powers = set()
    for k in range(1, 9):
        powers.add(p ** k)
        try:
            powers.add(p ** (-k))
        except OverflowError:       # |p| < 1e-38: no finite z is that large
            break
    return frozenset(powers)


def _on_zero_lattice(z, p) -> bool:
    if z == 1:
        return True
    if p == 0:
        return False
    if _memoizable(p):
        return z in _zero_lattice(p)
    return z in _zero_lattice.__wrapped__(p)


def _memoizable(x) -> bool:
    """Whether values equal to x have its bits: a float, or a complex with
    no zero part (0j == -0j); never an mpmath number, whose arithmetic
    follows the working precision."""
    t = type(x)
    return t is float or (t is complex and x.real != 0 and x.imag != 0)


def theta(z, p):
    """theta(z; p) = (z; p)_oo (p/z; p)_oo, memoized (module docstring)."""
    policy = default_policy()
    if _memoizable(z) and _memoizable(p):
        return _theta_memo(z, p, policy)
    return _theta_product(z, p, policy)


def _theta_product(z, p, policy: TruncationPolicy):
    if z == 0:
        raise DomainError("theta requires z != 0")
    pabs = abs(p)
    if pabs >= 1.0:
        raise NonConvergent(f"theta requires |p| < 1, got {pabs}")
    if _on_zero_lattice(z, p):
        return 0.0 * z
    if pabs == 0.0:
        return 1.0 - z
    zi = 1.0 / z
    scale = max(abs(z), pabs * abs(zi))
    kmax = policy.terms("theta", scale, pabs)
    use_logs = kmax > _LOG_SPACE_COUNT or scale > _LOG_SPACE_MAGNITUDE
    w1 = z
    w2 = p * zi
    if use_logs:
        log = clog if is_mp(w2) else cmath.log
        acc = 0.0
        for _ in range(kmax):
            f = (1.0 - w1) * (1.0 - w2)
            if f == 0:
                return 0.0 * z
            acc = acc + log(f)
            w1 = w1 * p
            w2 = w2 * p
        return cexp(acc)
    acc = 1.0 + 0.0 * z
    for _ in range(kmax):
        acc = acc * (1.0 - w1) * (1.0 - w2)
        w1 = w1 * p
        w2 = w2 * p
    return acc


_theta_memo = functools.lru_cache(maxsize=THETA_MEMO_SIZE, typed=True)(
    _theta_product)


def theta_multi(zs, p):
    """Product of theta over a sequence; the empty sequence gives 1."""
    zs = list(zs)
    for z in zs:
        if z == 0:
            raise DomainError("theta requires z != 0")
    acc = 1.0 + 0.0j
    for z in zs:
        acc = acc * theta(z, p)
    return acc


def theta_factorial(z, p, q, n: int):
    """Elliptic shifted factorial theta(z; p; q)_n for any integer n.

    n >= 0: prod_{l=0}^{n-1} theta(z q^l; p).
    n <  0: 1 / theta(z q^n; p; q)_{-n}, i.e. 1 / prod_{l=1}^{-n} theta(z q^-l; p).
    """
    if z == 0:
        raise DomainError("theta_factorial requires z != 0")
    if n == 0:
        return 1.0 + 0.0j
    if n > 0:
        acc = 1.0 + 0.0j
        w = z
        for _ in range(n):
            acc = acc * theta(w, p)
            w = w * q
        return acc
    acc = 1.0 + 0.0j
    w = z
    for _ in range(-n):
        w = w / q
        f = theta(w, p)
        if abs(f) < POLE_EPS:
            raise PoleHit(
                f"theta_factorial denominator theta({w!r}; p) vanishes"
            )
        acc = acc * f
    return 1.0 / acc


def theta_factorial_multi(zs, p, q, n: int):
    """theta(z_1, ..., z_k; p; q)_n = prod_j theta(z_j; p; q)_n."""
    acc = 1.0 + 0.0j
    for z in zs:
        acc = acc * theta_factorial(z, p, q, n)
    return acc


def theta1(u, sigma, tau):
    """Jacobi theta_1 via the multiplicative theta function.

    Requires Im(tau) > 0 so that |p| < 1.  sigma may be real (|q| = 1).
    """
    im_tau = float(tau.imag) if hasattr(tau, "imag") else 0.0
    if not im_tau > 0:
        raise DomainError("theta1 requires Im(tau) > 0")
    two_pi_i = _TWO_PI * 1j
    p = cexp(two_pi_i * tau)
    q_u = cexp(two_pi_i * sigma * u)          # q^u without a log branch cut
    pref = cexp(two_pi_i * tau / 8.0) * 1j * cexp(-two_pi_i * sigma * u / 2.0)
    return pref * qpochhammer(p, p) * theta(q_u, p)
