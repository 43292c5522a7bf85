"""Closed forms as factor lists on zero torus variables.

The oracle is the hand-written product of each family's closed form, one
scalar Gamma at a time.  The factor lists must agree with it to 1e-13 in
float64 and to 1e-30 at 36 digits, and in float64 they make one gamma_vec
call and no scalar Gamma call.
"""

import cmath
import math
import random

import mpmath
import pytest

from ehv import _backend, gamma, integrands
from ehv._backend import cpow
from ehv.core import Moduli, qpochhammer, theta
from ehv.errors import PoleHit
from ehv.gamma import elliptic_gamma_multi
from ehv.identities import DiffSide, an_difference_residual
from ehv.integrands import Family, IntegrandSpec, ParamSet, rhs_closed_form


def _prod(seq):
    out = 1.0 + 0.0j
    for v in seq:
        out = out * v
    return out


def _pochs(m):
    return qpochhammer(m.p, m.p), qpochhammer(m.q, m.q)


def oracle(spec):
    """The family's closed form as a hand-written scalar-Gamma product."""
    fam, n, ps, m = spec.family, spec.n, spec.params, spec.moduli
    pp, qq = _pochs(m)
    G = lambda *args: elliptic_gamma_multi(args, m)

    if fam in (Family.E, Family.CN_I):
        t = ps.t
        A = spec.product_A
        val = 2.0 ** n * math.factorial(n) / (pp * qq) ** n
        for i in range(len(t)):
            for j in range(i + 1, len(t)):
                val *= G(t[i] * t[j])
        for ti in t:
            val /= G(A / ti)
        return val

    if fam is Family.CN_II:
        t = ps.t
        tc = ps.extras["t"]
        B = spec.product_B
        val = 2.0 ** n * math.factorial(n) / (pp * qq) ** n
        for j in range(1, n + 1):
            val *= G(cpow(tc, j)) / G(tc)
            for r in range(5):
                for s_ in range(r + 1, 5):
                    val *= G(cpow(tc, j - 1) * t[r] * t[s_])
            for r in range(5):
                val /= G(cpow(tc, 1 - j) * B / t[r])
        return val

    if fam is Family.CN_III:
        x = ps.x
        t1, t2, t3 = ps.t
        tc = ps.extras["t"]
        A = spec.product_A
        q = m.q
        val = 2.0 ** n / (pp * qq) ** n * cpow(G(tc), n)
        for i in range(n):
            for j in range(i + 1, n):
                val *= x[j] * theta(x[i] / x[j], m.p) * theta(tc / (x[i] * x[j]), m.p)
        for i in range(1, n + 1):
            xi = x[i - 1]
            for pair in (t1 * t2, t1 * t3, t2 * t3):
                val *= G(pair * cpow(q, i - 1))
            val /= G(A / xi) * G(A * xi / tc)
            for tk in (t1, t2, t3):
                val *= G(xi * tk) * G(tc * tk / xi)
                val /= G(A * cpow(q, 1 - i) / tk)
        return val

    if fam is Family.AN_I:
        t, f = ps.t, ps.f
        A, B = spec.product_A, spec.product_B
        val = math.factorial(n + 1) / (qq * pp) ** n
        val *= G(A)
        for fj in f:
            val *= G(B / fj)
        for tk in t:
            for fj in f:
                val *= G(tk * fj)
        for tk in t:
            val /= G(tk * B)
        for fj in f:
            val /= G(A * B / fj)
        return val

    if fam is Family.AN_II:
        return _oracle_an2(spec)
    return _oracle_an3(spec)


def _oracle_an2(spec):
    ps, m, n = spec.params, spec.moduli, spec.n
    t1, t2, t3, t4, t5 = ps.t
    tc, sc = ps.extras["t"], ps.extras["s"]
    pp, qq = _pochs(m)
    G = lambda *args: elliptic_gamma_multi(args, m)
    P5 = t1 * t2 * t3 * t4 * t5
    val = math.factorial(n + 1) / (qq * pp) ** n
    if n % 2 == 1:                       # n = 2m - 1
        mm = (n + 1) // 2
        val *= G(cpow(tc, mm), cpow(sc, mm), cpow(sc, mm - 1) * t4 * t5)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            val *= G(cpow(tc, mm - 1) * ps.t[i] * ps.t[j])
        for k in (t4, t5):
            val /= G(cpow(tc, 2 * mm - 2) * cpow(sc, mm - 1) * t1 * t2 * t3 * k)
        for j in range(1, mm + 1):
            for i in (t1, t2, t3):
                for k in (t4, t5):
                    val *= G(cpow(tc * sc, j - 1) * i * k)
            for a, b in ((t1, t2), (t1, t3), (t2, t3)):
                val /= G(cpow(tc * sc, mm + j - 2) * a * b * t4 * t5)
        for j in range(1, mm):
            val *= G(cpow(tc * sc, j), cpow(tc, j) * cpow(sc, j - 1) * t4 * t5)
            for a, b in ((t1, t2), (t1, t3), (t2, t3)):
                val *= G(cpow(tc, j - 1) * cpow(sc, j) * a * b)
            for k in (t4, t5):
                val /= G(cpow(tc, mm + j - 2) * cpow(sc, mm + j - 1)
                         * t1 * t2 * t3 * k)
        return val
    mm = n // 2                          # n = 2m
    val *= G(cpow(tc, mm) * t1, cpow(tc, mm) * t2, cpow(tc, mm) * t3)
    val *= G(cpow(sc, mm) * t4, cpow(sc, mm) * t5)
    val *= G(cpow(tc, mm - 1) * t1 * t2 * t3)
    val /= G(cpow(tc, 2 * mm - 1) * cpow(sc, mm - 1) * P5,
             cpow(tc, 2 * mm - 1) * cpow(sc, mm) * t1 * t2 * t3)
    for j in range(1, mm + 1):
        val *= G(cpow(tc * sc, j), cpow(tc, j) * cpow(sc, j - 1) * t4 * t5)
        for i in (t1, t2, t3):
            for k in (t4, t5):
                val *= G(cpow(tc * sc, j - 1) * i * k)
        for k in (t4, t5):
            val /= G(cpow(tc, mm + j - 2) * cpow(sc, mm + j - 1) * P5 / k)
        for a, b in ((t1, t2), (t1, t3), (t2, t3)):
            val *= G(cpow(tc, j - 1) * cpow(sc, j) * a * b)
            val /= G(cpow(tc * sc, mm + j - 1) * a * b * t4 * t5)
    return val


def _oracle_an3(spec):
    ps, m, n = spec.params, spec.moduli, spec.n
    t = ps.t
    tc = ps.extras["t"]
    pp, qq = _pochs(m)
    G = lambda *args: elliptic_gamma_multi(args, m)
    val = math.factorial(n + 1) / (qq * pp) ** n
    if n % 2 == 1:                       # n = 2l - 1, n + 4 = 2l + 3 parameters
        ll = (n + 1) // 2
        head = _prod(t[: 2 * ll])
        tail = t[2 * ll:]                # 3 entries
        val *= G(cpow(tc, ll), head) / G(cpow(tc, ll) * head)
        for i in range(2 * ll):
            for j in range(2 * ll, 2 * ll + 3):
                val *= G(tc * t[i] * t[j])
        for i in range(2 * ll):
            for j in range(i + 1, 2 * ll):
                val *= G(tc * t[i] * t[j])
        for i in range(3):
            for j in range(i + 1, 3):
                val *= G(cpow(tc, ll + 1) * tail[i] * tail[j])
        allprod = _prod(t)
        for i in range(2 * ll):
            val /= G(cpow(tc, 2 * ll + 1) * allprod / t[i])
        for tj in tail:
            val /= G(cpow(tc, ll + 1) * allprod / tj)
        return val
    ll = n // 2                          # n = 2l, n + 4 = 2l + 4 parameters
    head = _prod(t[: 2 * ll + 1])
    tail = t[2 * ll + 1:]                # 3 entries
    val *= G(head, cpow(tc, ll + 2) * _prod(tail))
    val /= G(cpow(tc, ll + 2) * _prod(t))
    for i in range(2 * ll + 1):
        for j in range(2 * ll + 1, 2 * ll + 4):
            val *= G(tc * t[i] * t[j])
    for i in range(2 * ll + 1):
        for j in range(i + 1, 2 * ll + 1):
            val *= G(tc * t[i] * t[j])
    for tj in tail:
        val *= G(cpow(tc, ll + 1) * tj)
    allprod = _prod(t)
    for i in range(2 * ll + 1):
        val /= G(cpow(tc, 2 * ll + 2) * allprod / t[i])
    for tj in tail:
        val /= G(cpow(tc, ll + 1) * tj * head)
    return val


# -- draws --------------------------------------------------------------------

MODULI = [(0.31, 0.23), (0.8, 0.1), (0.5 + 0.3j, 0.2 - 0.1j), (0.2, 0.45),
          (0.3 - 0.2j, 0.4j)]

CASES = [(Family.E, 1)] + [(fam, n) for fam in (
    Family.CN_I, Family.CN_II, Family.CN_III, Family.AN_I, Family.AN_II,
    Family.AN_III) for n in (1, 2, 3)]


def _draw(rng, family, n, q, p):
    """A spec of the family at rank n: every parameter of modulus in
    [0.4, 0.9] with a random phase."""
    arg = lambda: rng.uniform(0.4, 0.9) * cmath.exp(2j * cmath.pi * rng.random())
    seqs, extras = integrands._READS[family]
    ps = ParamSet(t=tuple(arg() for _ in range(integrands._COUNTS[family](n))),
                  f=tuple(arg() for _ in range(n + 2)) if "f" in seqs else (),
                  x=tuple(arg() for _ in range(n)) if "x" in seqs else (),
                  extras={key: arg() for key in extras})
    return IntegrandSpec(family, n, ps, Moduli(q, p))


def _mp(spec):
    """spec with every parameter and both moduli as mpmath numbers."""
    ps, m = spec.params, spec.moduli
    seq = lambda vals: tuple(map(mpmath.mpc, vals))
    return IntegrandSpec(spec.family, spec.n, ParamSet(
        t=seq(ps.t), f=seq(ps.f), x=seq(ps.x),
        extras={k: mpmath.mpc(v) for k, v in ps.extras.items()}),
        Moduli(mpmath.mpc(m.q), mpmath.mpc(m.p)))


def _rel(a, b):
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("family,n", CASES, ids=lambda v: getattr(v, "value", v))
def test_closed_form_matches_oracle(family, n):
    """float64 against the oracle at all five moduli; at 36 digits, one
    draw at the moduli of the case's turn, against the oracle to 1e-30 and
    against float64 to 1e-13."""
    case = CASES.index((family, n))
    rng = random.Random(1009 * case)
    for q, p in MODULI:
        spec = _draw(rng, family, n, q, p)
        got = rhs_closed_form(spec)
        assert type(got) is complex
        assert _rel(got, oracle(spec)) <= 1e-13
    spec = _draw(rng, family, n, *MODULI[case % len(MODULI)])
    with _backend.precision(_backend.EXTENDED):
        hi, want = rhs_closed_form(_mp(spec)), oracle(_mp(spec))
    assert isinstance(hi, mpmath.mpc)
    assert abs(hi - want) <= mpmath.mpf(10) ** -30 * abs(want)
    assert _rel(rhs_closed_form(spec), complex(hi)) <= 1e-13


def test_gamma_argument_on_a_pole_raises(moduli):
    # t0 t1 = 1 is the pole z = 1 of Gamma(t0 t1)
    spec = IntegrandSpec(Family.CN_I, 1,
                         ParamSet(t=(2.0, 0.5, 0.6, 0.7, 0.8)), moduli)
    with pytest.raises(PoleHit):
        rhs_closed_form(spec)


@pytest.mark.parametrize("gap", [1e-15, 1e-14])
def test_gamma_argument_near_a_pole_raises(gap):
    # t0 t1 = 1 + gap lies within POLE_EPS of the pole z = 1 of Gamma(t0 t1):
    # the float64 closed form raises, as the scalar path does, instead of
    # returning a huge finite value (1.31e19 at 1e-15)
    spec = IntegrandSpec(Family.CN_I, 1, ParamSet(
        t=(2.0 * (1 + gap), 0.5, 0.6, 0.7, 0.8)), Moduli(0.31, 0.23))
    with pytest.raises(PoleHit):
        rhs_closed_form(spec)
    with pytest.raises(PoleHit):
        integrands.closed_form(spec)(())


# -- one Gamma path -------------------------------------------------------------


def _count(monkeypatch):
    """Patch integrands.gamma_vec and gamma._gamma_core to record their
    calls; returns the two lists."""
    vec_calls, core_calls = [], []
    kernel, core = integrands.gamma_vec, gamma._gamma_core

    def counting_vec(c, N, q, p, *, inverse=False):
        vec_calls.append(list(zip(c, inverse)))
        return kernel(c, N, q, p, inverse=inverse)

    def counting_core(*args, **kwargs):
        core_calls.append(args)
        return core(*args, **kwargs)

    monkeypatch.setattr(integrands, "gamma_vec", counting_vec)
    monkeypatch.setattr(gamma, "_gamma_core", counting_core)
    return vec_calls, core_calls


@pytest.mark.parametrize("family,n", CASES, ids=lambda v: getattr(v, "value", v))
def test_closed_form_is_one_table_call(family, n, monkeypatch):
    spec = _draw(random.Random(5), family, n, 0.31, 0.23)
    vec_calls, core_calls = _count(monkeypatch)
    rhs_closed_form(spec)
    assert len(vec_calls) == 1 and core_calls == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_an_difference_is_one_table_call(n, monkeypatch):
    m = Moduli(0.31, 0.23)
    rng = random.Random(11 + n)
    t = tuple(0.9 * cmath.exp(2j * cmath.pi * rng.random()) for _ in range(n + 1))
    f = tuple(0.92 * cmath.exp(2j * cmath.pi * rng.random()) for _ in range(n + 2))
    vec_calls, core_calls = _count(monkeypatch)
    r = an_difference_residual(t, f, m, DiffSide.CLOSED_FORM)
    assert abs(r) <= 1e-12
    assert len(vec_calls) == 1 and core_calls == []
    keys = vec_calls[0]
    assert len(keys) == len(set(keys))
