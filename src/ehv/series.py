"""Theta hypergeometric series and all series-level identities.

The very-well-poised series is

    V(t_0; t_1, ..., t_{r-4}; q, p; x)
      = sum_n theta(t_0 q^{2n};p)/theta(t_0;p)
              prod_{m=0}^{r-4} theta(t_m;p;q)_n / theta(q t_0/t_m;p;q)_n (qx)^n

with balancing prod_{m=1}^{r-4} t_m = t_0^{(r-5)/2} q^{(r-7)/2} (either
square-root sign) and termination through some t_m = q^{-N}.

Terminating sums are evaluated term-recursively through the ratio of
successive coefficients, so a sum of N+1 terms costs O(N) theta calls.
Multi-index sums iterate the index box in lexicographic order and combine
terms in a fixed pairwise tree, making results independent of any work
partitioning.  Each multi-sum identity has one function that evaluates its
terms and its closed form (milne_parts, gustafson_rakha_parts); its sides
and its cancellation condition number are read from that one evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._backend import cpow
from .core import (DENOMINATOR_EPS, POLE_EPS, Moduli, theta, theta_factorial,
                   theta_factorial_multi, theta_multi)
from .errors import (
    BalancingViolation,
    ConstraintViolation,
    NotTerminating,
    PoleHit,
)
from .report import VerificationReport


def tree_sum(values):
    """Fixed-shape pairwise sum; deterministic regardless of chunking."""
    vals = list(values)
    if not vals:
        return 0.0 + 0.0j
    while len(vals) > 1:
        nxt = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return vals[0]


def match_qpow(t, q):
    """N in [0, 512] with t = q^(-N) to relative 1e-9, else None."""
    if q == 0:
        return None
    w = 1.0 + 0.0j
    ta = abs(t)
    for n in range(513):
        if abs(t - w) <= 1e-9 * abs(w):
            return n
        w = w / q
        if abs(w) > 1.5 * ta and abs(w) > 1.0:
            break
    return None


class SeriesEval(tuple):
    """(value, last_term_mag, terms_used) with .value/.last_term/.terms."""

    __slots__ = ()

    def __new__(cls, value, last_term, terms):
        return super().__new__(cls, (value, last_term, terms))

    value = property(lambda s: s[0])
    last_term = property(lambda s: s[1])
    terms = property(lambda s: s[2])


@dataclass(frozen=True)
class VSpec:
    """Very-well-poised terminating series data.

    t0: distinguished parameter; t: (t_1 .. t_{r-4}); x: argument;
    N: termination index (some t_m must equal q^(-N)).
    """

    t0: complex
    t: tuple
    x: complex
    moduli: Moduli
    N: int
    balancing_sign: int = field(init=False, default=1)

    def __post_init__(self):
        object.__setattr__(self, "t", tuple(self.t))
        if self.N < 0:
            raise ValueError("termination index N must be >= 0")
        r = len(self.t) + 4
        prod = 1.0 + 0.0j
        for v in self.t:
            prod *= v
        target = cpow(self.t0, (r - 5) / 2.0) * cpow(self.moduli.q, (r - 7) / 2.0)
        ratio = prod / target
        if abs(ratio - 1.0) <= 1e-10:
            object.__setattr__(self, "balancing_sign", 1)
        elif abs(ratio + 1.0) <= 1e-10:
            object.__setattr__(self, "balancing_sign", -1)
        else:
            raise BalancingViolation(
                f"very-well-poised balancing violated: product/target = {ratio}"
            )
        q = self.moduli.q
        qN = cpow(q, -self.N)
        if not any(abs(v - qN) <= 1e-9 * abs(qN) for v in self.t):
            raise NotTerminating(
                f"not terminating: no parameter equals q^(-{self.N})"
            )


def sum_V_info(spec: VSpec) -> SeriesEval:
    """Terminating very-well-poised sum of N+1 terms.

    The vwp prefactor theta(t0 q^{2n};p)/theta(t0;p) is evaluated fresh per
    term; the factorial part advances by its term ratio.  last_term of the
    result carries the LARGEST term magnitude, which over the final sum is
    the cancellation condition number of the evaluation.
    """
    m = spec.moduli
    p, q = m.p, m.q
    th0 = theta(spec.t0, p)
    if abs(th0) < POLE_EPS:
        raise PoleHit("theta(t0; p) vanishes")
    qx = q * spec.x
    terms = [1.0 + 0.0j]
    fac = 1.0 + 0.0j          # running factorial-part coefficient
    arg = 1.0 + 0.0j          # (qx)^n
    for n in range(spec.N):
        num = theta(spec.t0 * q ** n, p)
        den = theta(q ** (n + 1), p)
        for v in spec.t:
            num = num * theta(v * q ** n, p)
            d = theta(q * spec.t0 / v * q ** n, p)
            den = den * d
        if den == 0 or abs(den) < DENOMINATOR_EPS:
            raise PoleHit(f"denominator factorial vanishes at term {n + 1}")
        fac = fac * (num / den)
        if fac == 0:
            break
        arg = arg * qx
        terms.append(theta(spec.t0 * q ** (2 * n + 2), p) / th0 * fac * arg)
    return SeriesEval(tree_sum(terms), max(abs(v) for v in terms), len(terms))


def sum_V(spec: VSpec):
    return sum_V_info(spec).value


def twelveV(t0, ts, m: Moduli):
    """V-series at x = 1, terminated at the least N with some t = q^(-N)."""
    best = None
    for v in ts:
        n = match_qpow(v, m.q)
        if n is not None and (best is None or n < best):
            best = n
    if best is None:
        raise NotTerminating("not terminating: no parameter matches q^(-N)")
    return sum_V(VSpec(t0=t0, t=tuple(ts), x=1.0, moduli=m, N=best))


def frenkel_turaev_rhs(t0, t1, t4, t5, N: int, m: Moduli):
    """Closed form of the terminating vwp sum with termination index N."""
    p, q = m.p, m.q
    num = theta_factorial_multi(
        [q * t0, q * t0 / (t1 * t4), q * t0 / (t1 * t5), q * t0 / (t4 * t5)],
        p, q, N)
    den = theta_factorial_multi(
        [q * t0 / (t1 * t4 * t5), q * t0 / t1, q * t0 / t4, q * t0 / t5],
        p, q, N)
    if den == 0 or abs(den) < DENOMINATOR_EPS:
        raise PoleHit("closed-form denominator factorial vanishes")
    return num / den


def _check_v12_balance(t, m: Moduli):
    prod = 1.0 + 0.0j
    for v in t[1:]:
        prod *= v
    target = t[0] ** 3 * m.q ** 2
    if abs(prod - target) > 1e-10 * abs(target):
        raise BalancingViolation(
            f"12-parameter balancing violated: prod/target = {prod / target}"
        )


def bailey_map(t, q):
    """The transform's parameter map, an involution: s_0 = q t_0^2 / (t_1 t_2
    t_3), s_i = s_0 t_i / t_0 for i = 1, 2, 3, and s_i = t_i for i >= 4."""
    t0 = t[0]
    s0 = q * t0 * t0 / (t[1] * t[2] * t[3])
    return (s0,) + tuple(s0 * t[i] / t0 for i in (1, 2, 3)) + tuple(t[4:])


def bailey_transform_check(t, N: int, m: Moduli,
                           perm=(0, 1, 2, 3), tol: float = 1e-11,
                           name: str = "bailey") -> VerificationReport:
    """Compare the vwp sum against its Bailey-transformed partner.

    t = (t_0 .. t_7) with prod_{m>=1} t_m = t_0^3 q^2 and t_6 = q^(-N);
    perm permutes which of (t_4, t_5, t_6, t_7) land in the transformed
    slots s_4 .. s_7 (the value is permutation independent).
    """
    t = tuple(t)
    if len(t) != 8:
        raise ValueError("expected 8 parameters t_0 .. t_7")
    _check_v12_balance(t, m)
    if sorted(perm) != [0, 1, 2, 3]:
        raise ValueError("perm must permute (0, 1, 2, 3)")
    p, q = m.p, m.q
    t0 = t[0]
    lhs = twelveV(t0, t[1:], m)
    s = bailey_map(t, q)
    s0 = s[0]
    tail = tuple(t[4 + i] for i in perm)
    pref_num = theta_factorial_multi(
        [q * t0, q * s0 / t[4], q * s0 / t[5], q * t0 / (t[4] * t[5])],
        p, q, N)
    pref_den = theta_factorial_multi(
        [q * s0, q * t0 / t[4], q * t0 / t[5], q * s0 / (t[4] * t[5])],
        p, q, N)
    rhs = pref_num / pref_den * twelveV(s0, s[1:4] + tail, m)
    return VerificationReport.from_sides(
        name, lhs, rhs, tol, params={"t": list(t), "N": N, "perm": list(perm)})


def _contiguous_parts(t, m: Moduli):
    """Raw residuals (LHS - RHS) of the three contiguous relations and, per
    relation, the largest participating term, from one set of evaluations."""
    t = tuple(t)
    if len(t) != 8:
        raise ValueError("expected 8 parameters t_0 .. t_7")
    p, q = m.p, m.q
    t0, t1, t2, t3, t4, t5, t6, t7 = t
    mid = (t1, t2, t3, t4, t5)

    def E(head, tail):
        return twelveV(head, tail, m)

    e_base = E(t0, mid + (t6, t7))
    e_dn_up = E(t0, mid + (t6 / q, q * t7))
    e_up_dn = E(t0, mid + (q * t6, t7 / q))
    shifted_mid = tuple(q * v for v in mid)
    e_big_a = E(q * q * t0, shifted_mid + (t6, q * t7))
    e_big_b = E(q * q * t0, shifted_mid + (q * t6, t7))

    prod_t = theta_multi(mid, p)
    prod_qt0 = theta_multi([q * t0 / v for v in mid], p)

    coef1 = (theta_multi([q * t0, q * q * t0, q * t7 / t6, t6 * t7 / (q * t0)], p)
             / theta_multi([q * t0 / t6, q * q * t0 / t6, t0 / t7, t7 / (q * t0)], p)
             * prod_t / prod_qt0)
    r1 = (e_base - e_dn_up) - coef1 * e_big_a

    term_a = (theta(t7, p)
              / theta_multi([t6 / (q * t0), t6 / (q * q * t0), t6 / t7], p)
              * theta_multi([v * t6 / (q * t0) for v in mid], p) * e_big_a)
    term_b = (theta(t6, p)
              / theta_multi([t7 / (q * t0), t7 / (q * q * t0), t7 / t6], p)
              * theta_multi([v * t7 / (q * t0) for v in mid], p) * e_big_b)
    rhs2 = prod_qt0 / theta_multi([q * t0, q * q * t0], p) * e_base
    r2 = term_a + term_b - rhs2

    coef_a = (theta_multi([t7, t0 / t7, q * t0 / t7], p)
              / theta_multi([q * t7 / t6, t7 / t6], p)
              * theta_multi([q * t0 / (t6 * v) for v in mid], p))
    coef_b = (theta_multi([t6, t0 / t6, q * t0 / t6], p)
              / theta_multi([q * t6 / t7, t6 / t7], p)
              * theta_multi([q * t0 / (t7 * v) for v in mid], p))
    last = theta(q * t0 / (t6 * t7), p) * prod_t * e_base
    r3 = coef_a * (e_dn_up - e_base) + coef_b * (e_up_dn - e_base) + last

    s1 = max(abs(e_base), abs(e_dn_up), abs(coef1 * e_big_a))
    s2 = max(abs(term_a), abs(term_b), abs(rhs2))
    s3 = max(abs(coef_a) * (abs(e_dn_up) + abs(e_base)),
             abs(coef_b) * (abs(e_up_dn) + abs(e_base)),
             abs(last))
    return (r1, r2, r3), (s1, s2, s3)


def contiguous_relative_residuals(t, m: Moduli):
    """Residuals normalized per relation by the largest participating term."""
    rs, ss = _contiguous_parts(t, m)
    return tuple(abs(r) / s for r, s in zip(rs, ss))


def milne_parts(tpars, b, c, d, Ns, m: Moduli):
    """(terms of the multi-sum in lexicographic box order, closed form) of
    the box-constrained multiple vwp summation, with e determined by
    b c d e = q^(1 + |N|)."""
    tpars = tuple(tpars)
    Ns = tuple(int(N) for N in Ns)
    n = len(tpars)
    if len(Ns) != n:
        raise ValueError("need one box bound per parameter")
    p, q = m.p, m.q
    totN = sum(Ns)
    e = cpow(q, 1 + totN) / (b * c * d)

    def tf(z, k):
        return theta_factorial(z, p, q, k)

    terms = []
    idx = [0] * n
    while True:
        lam = tuple(idx)
        tot = sum(lam)
        val = cpow(q, sum((j + 1) * lam[j] for j in range(n)))
        for j in range(n):
            val *= theta(tpars[j] * cpow(q, lam[j] + tot), p) / theta(tpars[j], p)
        for i in range(n):
            for j in range(i + 1, n):
                val *= (theta(tpars[i] / tpars[j] * cpow(q, lam[i] - lam[j]), p)
                        / theta(tpars[i] / tpars[j], p))
        for i in range(n):
            for j in range(n):
                val *= (tf(tpars[i] / tpars[j] * cpow(q, -Ns[j]), lam[i])
                        / tf(q * tpars[i] / tpars[j], lam[i]))
        for j in range(n):
            val *= tf(tpars[j], tot) / tf(tpars[j] * cpow(q, 1 + Ns[j]), tot)
        val *= tf(b, tot) * tf(c, tot) / (tf(q / d, tot) * tf(q / e, tot))
        for j in range(n):
            val *= (tf(d * tpars[j], lam[j]) * tf(e * tpars[j], lam[j])
                    / (tf(tpars[j] * q / b, lam[j]) * tf(tpars[j] * q / c, lam[j])))
        terms.append(val)
        # lexicographic advance over the box
        k = n - 1
        while k >= 0 and idx[k] == Ns[k]:
            idx[k] = 0
            k -= 1
        if k < 0:
            break
        idx[k] += 1

    rhs = (tf(q / (b * d), totN) * tf(q / (c * d), totN)
           / (tf(q / d, totN) * tf(q / (b * c * d), totN)))
    for j in range(n):
        rhs *= (tf(tpars[j] * q, Ns[j]) * tf(tpars[j] * q / (b * c), Ns[j])
                / (tf(tpars[j] * q / b, Ns[j]) * tf(tpars[j] * q / c, Ns[j])))
    return terms, rhs


def milne_sum_sides(terms, rhs):
    """(multi-sum, closed form) from milne_parts."""
    return (tree_sum(terms), rhs)


def milne_condition(terms) -> float:
    """Cancellation condition number max|term| / |sum| of the multi-sum,
    from the terms of milne_parts."""
    total = tree_sum(terms)
    if total == 0:
        return math.inf
    return max(abs(v) for v in terms) / abs(total)


def _compositions(n, total):
    """All (lam_1..lam_n) with lam_k >= 0 summing to total, lexicographic."""
    if n == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(n - 1, total - head):
            yield (head,) + rest


def gustafson_rakha_parts(t, t_extra, tglob, N: int, m: Moduli):
    """(terms of the sum, closed form) of the constrained-sum identity with
    prod t_k = q^(-N).

    The sum ranges over compositions lam_1 + ... + lam_n = N; negative
    factorial indices follow theta(z)_(-k) = 1/theta(z q^(-k))_k.  The
    closed form is the branch of the parity of n.
    """
    t = tuple(t)
    t_extra = tuple(t_extra)
    if len(t_extra) != 3:
        raise ValueError("expected exactly 3 trailing parameters")
    n = len(t)
    p, q = m.p, m.q
    prod_t = 1.0 + 0.0j
    for v in t:
        prod_t *= v
    qN = cpow(q, -N)
    if abs(prod_t - qN) > 1e-10 * abs(qN):
        raise ConstraintViolation(
            f"prod t_k must equal q^(-N); got ratio {prod_t / qN}"
        )
    allpars = t + t_extra
    prod_all = 1.0 + 0.0j
    for v in allpars:
        prod_all *= v

    def tf(z, k):
        return theta_factorial(z, p, q, k)

    terms = []
    for lam in _compositions(n, N):
        num = 1.0 + 0.0j
        for i in range(n):
            for j in range(i + 1, n):
                num *= tf(tglob * t[i] * t[j], lam[i] + lam[j])
        for i in range(n):
            for te in t_extra:
                num *= tf(tglob * t[i] * te, lam[i])
        for i in range(n):
            for j in range(n):
                num *= tf(t[i] / t[j], -lam[j])
        den = 1.0 + 0.0j
        for i in range(n):
            for j in range(n):
                if i != j:
                    den *= tf(t[i] / t[j], lam[i] - lam[j])
        for j in range(n):
            den *= tf(cpow(tglob, n + 1) / t[j] * prod_all, -lam[j])
        if den == 0:
            raise PoleHit("vanishing denominator factorial in constrained sum")
        terms.append(num / den)

    one_neg = tf(1.0 + 0.0j, -N)
    if n % 2 == 0:
        den = tf(cpow(tglob, n // 2), -N)
        for i in range(3):
            for j in range(i + 1, 3):
                den *= tf(cpow(tglob, (n + 2) // 2) * t_extra[i] * t_extra[j], -N)
        rhs = one_neg / den
    else:
        den = 1.0 + 0.0j
        for te in t_extra:
            den *= tf(cpow(tglob, (n + 1) // 2) * te, -N)
        den *= tf(cpow(tglob, (n + 3) // 2) * t_extra[0] * t_extra[1] * t_extra[2], -N)
        rhs = one_neg / den
    return terms, rhs


def gustafson_rakha_sum_sides(terms, rhs):
    """(constrained sum, closed form) from gustafson_rakha_parts."""
    return (tree_sum(terms), rhs)


def gustafson_rakha_condition(terms) -> float:
    """Cancellation condition number max|term| / |sum| of the LHS, from
    the terms of gustafson_rakha_parts."""
    total = tree_sum(terms)
    if total == 0:
        return math.inf
    return max(abs(v) for v in terms) / abs(total)
