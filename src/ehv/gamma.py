"""Elliptic gamma function and relatives.

    Gamma(z; q, p) = prod_{j,k>=0} (1 - q^{j+1} p^{k+1} / z) / (1 - z q^j p^k)

solves the pair of difference laws

    Gamma(q z) = theta(z; p) Gamma(z),   Gamma(p z) = theta(z; q) Gamma(z),

is symmetric in (q, p), and satisfies the reflection law
Gamma(z) Gamma(pq/z) = 1.  The complex-order shifted factorial is the ratio
theta(z; p; q)_s = Gamma(z q^s) / Gamma(z).

Evaluation uses the Laurent series of the logarithm on the annulus
|pq| < |w| < 1, which holds no zero or pole of Gamma:

    log Gamma(w; q, p) = sum_{m>=1} (w^m - (pq/w)^m) / (m (1 - q^m)(1 - p^m)).

Shift law: with b the base of larger modulus and o the other,
Gamma(b z) = theta(z; o) Gamma(z), so Gamma(z) = Gamma(z b^n) / S for n > 0
and Gamma(z b^n) S for n < 0, with S = prod theta(z b^j; o) over j from
min(n, 0) to max(n, 0) - 1.  n is the fewest steps that leave
rho = max(|w|, |pq|/|w|) <= |o|^{1/2} at w = z b^n (tables accept a larger
rho, see vec.py).  Truncation: M = policy.cutoff(1/((1-|q|)(1-|p|)), rho)
terms, as |m (1-q^m)(1-p^m)| >= (1-|q|)(1-|p|) bounds the tail by the
geometric rule of every product here.  The policy is the precision mode's
(core.default_policy), not an argument; only the float64 node tables of
vec.py pass core.DEFAULT_POLICY in either mode.  Every zero of S is a zero
or pole of Gamma, so a dividing factor within POLE_EPS relative distance
of its theta zero raises PoleHit, and a multiplying one makes the value
exactly 0: the reciprocal at z = 1 is exactly 0 through theta(1; o) = 0.
Either base 0 leaves one Pochhammer symbol, Gamma(z; q, 0) = 1/(z; q)_oo.

Two relatives that remain sensible as |q| -> 1 are provided: the double
sine S(u; w1, w2) built from the modularly paired bases q = e^{2 pi i
w1/w2}, qt = e^{-2 pi i w2/w1}, and the modified gamma G(u; w1, w2, w3),
a four-fold product over the (q, p) and (qt, pt) lattices.  G regroups
exactly into two plain elliptic gamma factors,

    G(u; w) = Gamma(e^{2 pi i u/w2}; q, p) * Gamma(pt e^{-2 pi i u/w1}; qt, pt),

which is how it is evaluated here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._backend import cexp, cpow
from .core import (POLE_EPS, Moduli, TruncationPolicy, default_policy,
                   qpochhammer, theta)
from .errors import NonConvergent, PoleHit

_TWO_PI_I = 2j * math.pi


def shift_plan(zabs, q, p, rho_cap=0.0):
    """(b, o, n): the bases of the shift law and its step count n.

    n (> 0 inward) is the least |n| leaving rho = max(|w|, |pq|/|w|) at
    most max(rho_cap, |o|^{1/2}) at |w| = |z b^n|.
    """
    qa, pa = float(abs(q)), float(abs(p))
    b, o = (q, p) if qa >= pa else (p, q)
    step = -math.log(max(qa, pa))
    hi = math.log(max(rho_cap, math.sqrt(min(qa, pa))))
    u = math.log(float(zabs))
    n_lo, n_hi = (u - hi) / step, (u + hi - math.log(qa * pa)) / step
    return b, o, max(math.ceil(n_lo), 0) + min(math.floor(n_hi), 0)


def log_gamma_terms(w, q, p, policy: TruncationPolicy):
    """Terms A_m, B_m (m = 1..M) of log Gamma(w x) = sum A_m x^m - B_m x^-m.

    Holds for |x| = 1 when |pq| < |w| < 1; M is the module's truncation
    rule at rho = max(|w|, |pq|/|w|).  A list of K arguments w gives terms
    of shape (M, K), one column each, M at the largest rho among them.
    Returns numpy arrays (of mpmath numbers in extended mode).
    """
    ws = w if isinstance(w, list) else [w]
    qa, pa = float(abs(q)), float(abs(p))
    rho = max(max(float(abs(v)), qa * pa / float(abs(v))) for v in ws)
    M = policy.terms("elliptic gamma series", 1.0 / ((1.0 - qa) * (1.0 - pa)),
                     rho)
    k = len(ws)
    pows = np.cumprod(np.full((M, 2 * k + 2),
                              ws + [q * p / v for v in ws] + [q, p]), axis=0)
    d = (np.arange(1, M + 1) * (1.0 - pows[:, -2]) * (1.0 - pows[:, -1]))[:, None]
    A, B = pows[:, :k] / d, pows[:, k:2 * k] / d
    return (A, B) if isinstance(w, list) else (A[:, 0], B[:, 0])


def _zero_gap(x, o):
    """|1 - x o^-k| for the zero o^k of theta(.; o) nearest x in modulus."""
    k = round(math.log(float(abs(x))) / math.log(float(abs(o))))
    return abs(1.0 - x * cpow(o, -k))


def pole_guard(z, q, p, inverse: bool = False):
    """The shift plan (b, o, n) of z, after raising PoleHit if z lies within
    POLE_EPS relative distance of a pole of Gamma(.; q, p) (of 1/Gamma with
    inverse): of a theta zero of a shift factor that divides.  Both bases
    are nonzero."""
    b, o, n = shift_plan(abs(z), q, p)
    if (n > 0) != inverse:
        x = z * cpow(b, min(n, 0))
        for _ in range(abs(n)):
            if _zero_gap(x, o) < POLE_EPS:
                raise PoleHit(f"z within {POLE_EPS} relative distance of a pole")
            x = x * b
    return b, o, n


def _gamma_core(z, q, p, inverse: bool = False):
    """Gamma(z; q, p), or 1/Gamma with inverse=True: exactly 0 where a shift
    factor is, as at z = 1 (integrand denominators rely on this at z^2 = 1)."""
    if z == 0:
        raise PoleHit("elliptic gamma argument z = 0")
    qa, pa = abs(q), abs(p)
    if qa >= 1.0 or pa >= 1.0:
        raise NonConvergent("elliptic gamma requires |q| < 1 and |p| < 1")
    if pa == 0.0 or qa == 0.0:
        # Gamma(z; q, 0) = 1 / (z; q)_oo
        poch = qpochhammer(z, q if pa == 0.0 else p)
        if inverse:
            return poch
        if abs(poch) < POLE_EPS:
            raise PoleHit("z within guard distance of the degenerate pole lattice")
        return 1.0 / poch

    b, o, n = pole_guard(z, q, p, inverse)
    divide = (n > 0) != inverse        # the shift factors divide the result
    shift = 1.0 + 0.0 * z
    x = z * cpow(b, min(n, 0))
    for _ in range(abs(n)):
        shift = shift * theta(x, o)
        x = x * b
    A, B = log_gamma_terms(z * cpow(b, n), q, p, default_policy())
    g = cexp(B.sum() - A.sum() if inverse else A.sum() - B.sum())
    return g / shift if divide else g * shift


def elliptic_gamma(z, m: Moduli):
    """Gamma(z; q, p) with pole-proximity guard."""
    return _gamma_core(z, m.q, m.p)


def elliptic_gamma_reciprocal(z, m: Moduli):
    """1/Gamma(z; q, p); exactly 0 on the pole lattice of Gamma."""
    return _gamma_core(z, m.q, m.p, inverse=True)


def elliptic_gamma_multi(zs, m: Moduli):
    """Gamma(z_1, ..., z_k; q, p) = prod_j Gamma(z_j; q, p); empty -> 1."""
    acc = 1.0 + 0.0j
    for z in zs:
        acc = acc * _gamma_core(z, m.q, m.p)
    return acc


def elliptic_factorial_s(z, s, m: Moduli):
    """theta(z; p; q)_s = Gamma(z q^s) / Gamma(z) for complex order s."""
    return (_gamma_core(z * cpow(m.q, s), m.q, m.p)
            / _gamma_core(z, m.q, m.p))


@dataclass(frozen=True)
class QuasiPeriods:
    """Quasi-period triple (w1, w2, w3) and its four derived bases.

        q  = e^{2 pi i w1/w2}     q_tilde = e^{-2 pi i w2/w1}
        p  = e^{2 pi i w3/w2}     p_tilde = e^{2 pi i w3/w1}
    """

    omega1: complex
    omega2: complex
    omega3: complex
    q: complex = field(init=False, repr=False, compare=False)
    q_tilde: complex = field(init=False, repr=False, compare=False)
    p: complex = field(init=False, repr=False, compare=False)
    p_tilde: complex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w1, w2, w3 = self.omega1, self.omega2, self.omega3
        for name, x in (("q", w1 / w2), ("q_tilde", -w2 / w1),
                        ("p", w3 / w2), ("p_tilde", w3 / w1)):
            object.__setattr__(self, name, cexp(_TWO_PI_I * x))

    @property
    def validity(self) -> dict:
        """Which of the four derived bases lie inside the unit disk."""
        return {name: abs(b) < 1.0 for name, b in (
            ("q", self.q), ("qt", self.q_tilde), ("p", self.p), ("pt", self.p_tilde))}


def double_sine(u, omega1, omega2):
    """S(u; w1, w2) = (e^{2 pi i u/w2}; q)_oo / (e^{2 pi i u/w1} qt; qt)_oo."""
    q = cexp(_TWO_PI_I * omega1 / omega2)
    qt = cexp(-_TWO_PI_I * omega2 / omega1)
    if abs(q) >= 1.0 or abs(qt) >= 1.0:
        raise NonConvergent(
            "double sine requires Im(w1/w2) > 0 so that |q|, |qt| < 1"
        )
    num = qpochhammer(cexp(_TWO_PI_I * u / omega2), q)
    den = qpochhammer(cexp(_TWO_PI_I * u / omega1) * qt, qt)
    if abs(den) < POLE_EPS:
        raise PoleHit("double sine denominator Pochhammer vanishes")
    return num / den


def modified_gamma_G(u, w: QuasiPeriods):
    """Modified elliptic gamma G(u; w1, w2, w3) = Gamma(x; q, p) Gamma(pt/y;
    qt, pt), x = e^{2 pi i u/w2}, y = e^{2 pi i u/w1}: the two double products
    multiply out to the defining four-fold product factor by factor."""
    v = w.validity
    if not (v["q"] and v["p"] and v["pt"]):
        raise NonConvergent(f"modified gamma requires |q|, |p|, |pt| < 1; "
                            f"validity flags: {v}")
    x = cexp(_TWO_PI_I * u / w.omega2)
    y = cexp(_TWO_PI_I * u / w.omega1)
    part_qp = _gamma_core(x, w.q, w.p)
    part_mod = _gamma_core(w.p_tilde / y, w.q_tilde, w.p_tilde)
    return part_qp * part_mod
