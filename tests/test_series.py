"""Series engine: terminating vwp sums and their identities."""

import cmath
import math

import pytest

from ehv import registry
from ehv.core import Moduli, theta, theta_factorial
from ehv.errors import BalancingViolation, NotTerminating
from ehv.series import (
    VSpec,
    _contiguous_parts,
    bailey_map,
    bailey_transform_check,
    contiguous_relative_residuals,
    frenkel_turaev_rhs,
    gustafson_rakha_parts,
    gustafson_rakha_sum_sides,
    milne_parts,
    milne_sum_sides,
    match_qpow,
    sum_V,
    sum_V_info,
    tree_sum,
    twelveV,
)


def qpoch_n(z, q, n):
    """(z; q)_n finite product."""
    out = 1.0 + 0.0j
    for k in range(n):
        out *= 1.0 - z * q ** k
    return out


def naive_V(t0, ts, x, N, m):
    """Direct term-by-term transcription, independent of sum_V's recursion."""
    p, q = m.p, m.q
    tot = 0.0 + 0.0j
    for n in range(N + 1):
        val = theta(t0 * q ** (2 * n), p) / theta(t0, p) * (q * x) ** n
        for tm in (t0,) + tuple(ts):
            val *= (theta_factorial(tm, p, q, n)
                    / theta_factorial(q * t0 / tm, p, q, n))
        tot += val
    return tot


def draw_ft(rng, arg, m, N):
    q = m.q
    t0, t1, t4, t5 = (arg(rng, 0.45, 0.8) for _ in range(4))
    t6 = q ** -N
    t7 = q * t0 * t0 / (t1 * t4 * t5 * t6)
    return t0, (t1, t4, t5, t6, t7)


def draw_v12(rng, arg, m, N, lo=0.45, hi=0.85):
    q = m.q
    t0, t1, t2, t3, t4, t5 = (arg(rng, lo, hi) for _ in range(6))
    t6 = q ** -N
    t7 = t0 ** 3 * q * q / (t1 * t2 * t3 * t4 * t5 * t6)
    return (t0, t1, t2, t3, t4, t5, t6, t7)


class TestHelpers:
    def test_tree_sum_matches_plain_sum(self):
        vals = [complex(k, -k) for k in range(37)]
        assert tree_sum(vals) == pytest.approx(sum(vals))

    def test_match_qpow(self, moduli):
        q = moduli.q
        assert match_qpow(q ** -4, q) == 4
        assert match_qpow(1.0 + 0j, q) == 0
        assert match_qpow(0.77 + 0.1j, q) is None


class TestSumV:
    def test_single_term(self, rng, arg, moduli):
        t0, ts = draw_ft(rng, arg, moduli, 0)
        spec = VSpec(t0=t0, t=ts, x=1.0, moduli=moduli, N=0)
        assert sum_V(spec) == 1.0

    def test_matches_naive_transcription(self, rng, arg, moduli):
        t0, ts = draw_ft(rng, arg, moduli, 4)
        spec = VSpec(t0=t0, t=ts, x=1.0, moduli=moduli, N=4)
        got = sum_V(spec)
        want = naive_V(t0, ts, 1.0, 4, moduli)
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_termination_has_n_plus_1_terms(self, rng, arg, moduli):
        t0, ts = draw_ft(rng, arg, moduli, 3)
        info = sum_V_info(VSpec(t0=t0, t=ts, x=1.0, moduli=moduli, N=3))
        assert info.terms == 4
        # the (N+1)-th coefficient contains theta(q^0; p), identically zero
        # up to the rounding of the accumulated shift q^-3 q^3
        q, p = moduli.q, moduli.p
        assert abs(theta_factorial(q ** -3, p, q, 4)) < 1e-12

    def test_p0_matches_classical_w_series(self, rng, arg):
        m0 = Moduli(0.31, 0.0)
        q = m0.q
        t0, ts = draw_ft(rng, arg, m0, 5)
        got = sum_V(VSpec(t0=t0, t=ts, x=1.0, moduli=m0, N=5))
        want = 0.0 + 0.0j
        for n in range(6):
            val = (1 - t0 * q ** (2 * n)) / (1 - t0) * q ** n
            for tm in (t0,) + ts:
                val *= qpoch_n(tm, q, n) / qpoch_n(q * t0 / tm, q, n)
            want += val
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_p_continuity_to_zero(self, rng, arg):
        m_small = Moduli(0.31, 1e-10)
        m_zero = Moduli(0.31, 0.0)
        t0, ts = draw_ft(rng, arg, m_small, 4)
        a = sum_V(VSpec(t0=t0, t=ts, x=1.0, moduli=m_small, N=4))
        b = sum_V(VSpec(t0=t0, t=ts, x=1.0, moduli=m_zero, N=4))
        assert abs(a - b) <= 1e-7 * abs(b)

    def test_balancing_violation(self, moduli):
        with pytest.raises(BalancingViolation):
            VSpec(t0=0.5, t=(0.6, 0.7, 0.8, moduli.q ** -2, 0.4), x=1.0,
                  moduli=moduli, N=2)

    def test_not_terminating(self, moduli):
        q = moduli.q
        t0 = 0.5
        # balanced (r = 9 -> t0^2 q) but no q^-N parameter
        t1, t4, t5 = 0.6, 0.7, 0.8
        t6 = 0.9
        t7 = q * t0 * t0 / (t1 * t4 * t5 * t6)
        with pytest.raises(NotTerminating):
            VSpec(t0=t0, t=(t1, t4, t5, t6, t7), x=1.0, moduli=moduli, N=2)

    def test_total_ellipticity_compensated_pair(self, rng, arg, moduli):
        # multiplying t1 by p and dividing t2 by p preserves the value
        t = draw_v12(rng, arg, moduli, 3)
        base = twelveV(t[0], t[1:], moduli)
        p = moduli.p
        moved = (t[0], t[1] * p, t[2] / p) + t[3:]
        shifted = twelveV(moved[0], moved[1:], moduli)
        assert abs(shifted - base) <= 1e-10 * abs(base)


class TestFrenkelTuraev:
    def test_n0_trivial(self, moduli):
        assert frenkel_turaev_rhs(0.5, 0.6, 0.7, 0.8, 0, moduli) == 1.0

    def test_sum_matches_closed_form(self, moduli):
        # the registry sampler rejects draws whose evaluation cancels more
        # than the float64 budget allows; on those the 1e-12 bound is real
        from ehv.registry import Sampler, draw_ft_instance

        smp = Sampler(314)
        for _ in range(20):
            _, (lhs, rhs) = draw_ft_instance(smp, moduli)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_n1_two_term_expansion_from_raw_thetas(self, rng, arg, moduli):
        # both sides expanded with direct theta calls only
        q, p = moduli.q, moduli.p
        t0, t1, t4, t5 = (arg(rng, 0.45, 0.8) for _ in range(4))
        N = 1
        t6 = q ** -N
        t7 = q * t0 * t0 / (t1 * t4 * t5 * t6)
        term1 = theta(t0 * q * q, p) / theta(t0, p) * q
        for tm in (t0, t1, t4, t5, t6, t7):
            term1 *= theta(tm, p) / theta(q * t0 / tm, p)
        lhs = 1.0 + term1
        num = [q * t0, q * t0 / (t1 * t4), q * t0 / (t1 * t5),
               q * t0 / (t4 * t5)]
        den = [q * t0 / (t1 * t4 * t5), q * t0 / t1, q * t0 / t4, q * t0 / t5]
        rhs = 1.0 + 0.0j
        for a, b in zip(num, den):
            rhs *= theta(a, p) / theta(b, p)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


class TestBailey:
    def test_trivial_N0(self, moduli):
        t = draw_v12(__import__("random").Random(5),
                     lambda r, lo, hi: r.uniform(lo, hi)
                     * cmath.exp(2j * cmath.pi * r.random()),
                     moduli, 0)
        rep = bailey_transform_check(t, 0, moduli)
        assert rep.passed and rep.lhs == pytest.approx(1.0)

    def test_random_instance(self, rng, arg, moduli):
        t = draw_v12(rng, arg, moduli, 3)
        rep = bailey_transform_check(t, 3, moduli, tol=1e-11)
        assert rep.passed, rep.rel_err

    def test_permutations_agree(self, rng, arg, moduli):
        t = draw_v12(rng, arg, moduli, 2)
        r1 = bailey_transform_check(t, 2, moduli, perm=(0, 1, 2, 3))
        r2 = bailey_transform_check(t, 2, moduli, perm=(1, 0, 2, 3))
        assert abs(r1.rhs - r2.rhs) <= 1e-13 * abs(r1.rhs)

    def test_involution(self, rng, arg, moduli):
        t = draw_v12(rng, arg, moduli, 2)
        back = bailey_map(bailey_map(t, moduli.q), moduli.q)
        assert all(abs(a - b) <= 1e-12 * abs(a) for a, b in zip(t, back))

    def test_balancing_gate(self, moduli):
        with pytest.raises(BalancingViolation):
            bailey_transform_check((0.5,) * 8, 1, moduli)


class TestContiguous:
    def test_residuals_small(self, rng, arg, moduli):
        for n in (1, 2, 3, 4):
            t = draw_v12(rng, arg, moduli, n, lo=0.5, hi=0.8)
            rr = contiguous_relative_residuals(t, moduli)
            assert max(rr) <= 1e-11, (n, rr)

    def test_swap_t6_t7_third_relation(self, rng, arg, moduli):
        # relation 3 is symmetric under the (t6, t7) exchange
        t = draw_v12(rng, arg, moduli, 3, lo=0.5, hi=0.8)
        r3 = _contiguous_parts(t, moduli)[0][2]
        swapped = t[:6] + (t[7], t[6])
        r3s = _contiguous_parts(swapped, moduli)[0][2]
        scale = abs(twelveV(t[0], t[1:], moduli))
        assert abs(r3) <= 1e-10 * scale and abs(r3s) <= 1e-10 * scale


class TestMilne:
    def test_all_zero_box(self, rng, arg, moduli):
        parts = milne_parts((0.5,), 0.6, 0.7, 0.8, (0,), moduli)
        lhs, rhs = milne_sum_sides(*parts)
        assert lhs == 1.0 and rhs == pytest.approx(1.0)

    def test_n1_reduces_to_frenkel_turaev_shape(self, rng, arg, moduli):
        t1 = arg(rng, 0.45, 0.8)
        b, c, d = (arg(rng, 0.45, 0.8) for _ in range(3))
        parts = milne_parts((t1,), b, c, d, (3,), moduli)
        lhs, rhs = milne_sum_sides(*parts)
        assert abs(lhs - rhs) <= 1e-11 * abs(rhs)

    def test_n2_box(self, rng, arg, moduli):
        tp = (arg(rng, 0.45, 0.8), arg(rng, 0.45, 0.8))
        b, c, d = (arg(rng, 0.45, 0.8) for _ in range(3))
        parts = milne_parts(tp, b, c, d, (1, 1), moduli)
        lhs, rhs = milne_sum_sides(*parts)
        assert abs(lhs - rhs) <= 1e-11 * abs(rhs)

    def test_n2_against_independent_transcription(self, rng, arg, moduli):
        # literal re-transcription of the summand, no shared code path
        p, q = moduli.p, moduli.q
        tp = (arg(rng, 0.5, 0.8), arg(rng, 0.5, 0.8))
        b, c, d = (arg(rng, 0.5, 0.8) for _ in range(3))
        Ns = (1, 2)
        e = q ** (1 + sum(Ns)) / (b * c * d)

        def tf(z, k):
            return theta_factorial(z, p, q, k)

        want = 0.0 + 0.0j
        for l1 in range(Ns[0] + 1):
            for l2 in range(Ns[1] + 1):
                lam = (l1, l2)
                tot = l1 + l2
                val = q ** (1 * l1 + 2 * l2)
                for j in range(2):
                    val *= theta(tp[j] * q ** (lam[j] + tot), p) / theta(tp[j], p)
                val *= (theta(tp[0] / tp[1] * q ** (l1 - l2), p)
                        / theta(tp[0] / tp[1], p))
                for i in range(2):
                    for j in range(2):
                        val *= (tf(tp[i] / tp[j] * q ** -Ns[j], lam[i])
                                / tf(q * tp[i] / tp[j], lam[i]))
                for j in range(2):
                    val *= tf(tp[j], tot) / tf(tp[j] * q ** (1 + Ns[j]), tot)
                val *= (tf(b, tot) * tf(c, tot)
                        / (tf(q / d, tot) * tf(q / e, tot)))
                for j in range(2):
                    val *= (tf(d * tp[j], lam[j]) * tf(e * tp[j], lam[j])
                            / (tf(tp[j] * q / b, lam[j])
                               * tf(tp[j] * q / c, lam[j])))
                want += val
        parts = milne_parts(tp, b, c, d, Ns, moduli)
        got, _ = milne_sum_sides(*parts)
        assert abs(got - want) <= 1e-12 * abs(want)


class TestGustafsonRakha:
    @staticmethod
    def draw(rng, arg, m, n, N):
        ts = [arg(rng, 0.4, 0.9) for _ in range(n - 1)]
        tn = m.q ** (-N)
        for v in ts:
            tn /= v
        ts.append(tn)
        textra = tuple(arg(rng, 0.4, 0.9) for _ in range(3))
        return tuple(ts), textra, arg(rng, 0.3, 0.8)

    def test_single_composition(self, rng, arg, moduli):
        ts, textra, tg = self.draw(rng, arg, moduli, 2, 0)
        parts = gustafson_rakha_parts(ts, textra, tg, 0, moduli)
        lhs, rhs = gustafson_rakha_sum_sides(*parts)
        assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0)

    def test_n2_enumeration_oracle(self, rng, arg, moduli):
        # independent transcription over the two compositions of N=1
        p, q = moduli.p, moduli.q
        ts, textra, tg = self.draw(rng, arg, moduli, 2, 1)
        prod_all = ts[0] * ts[1] * textra[0] * textra[1] * textra[2]

        def tf(z, k):
            return theta_factorial(z, p, q, k)

        want = 0.0 + 0.0j
        for lam in ((0, 1), (1, 0)):
            num = tf(tg * ts[0] * ts[1], lam[0] + lam[1])
            for i in range(2):
                for te in textra:
                    num *= tf(tg * ts[i] * te, lam[i])
            for i in range(2):
                for j in range(2):
                    num *= tf(ts[i] / ts[j], -lam[j])
            den = (tf(ts[0] / ts[1], lam[0] - lam[1])
                   * tf(ts[1] / ts[0], lam[1] - lam[0]))
            for j in range(2):
                den *= tf(tg ** 3 / ts[j] * prod_all, -lam[j])
            want += num / den
        parts = gustafson_rakha_parts(ts, textra, tg, 1, moduli)
        got, _ = gustafson_rakha_sum_sides(*parts)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("n,N", [(2, 1), (2, 3), (3, 2), (3, 3)])
    def test_identity_both_parities(self, rng, arg, moduli, n, N):
        ts, textra, tg = self.draw(rng, arg, moduli, n, N)
        parts = gustafson_rakha_parts(ts, textra, tg, N, moduli)
        lhs, rhs = gustafson_rakha_sum_sides(*parts)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)

    def test_constraint_gate(self, moduli):
        from ehv.errors import ConstraintViolation

        with pytest.raises(ConstraintViolation):
            gustafson_rakha_parts((0.5, 0.5), (0.6, 0.7, 0.8), 0.5, 2, moduli)


@pytest.mark.parametrize("name,builder", [
    ("milne", "milne_parts"), ("gustafson_rakha", "gustafson_rakha_parts")])
def test_one_parts_call_per_candidate(monkeypatch, name, builder):
    """A sampler candidate's sides and condition come from one evaluation:
    the parts calls equal the candidates tried, the accepted draws (one a
    row) and the rejected ones."""
    calls = []
    parts = getattr(registry, builder)

    def counting(*args):
        calls.append(args)
        return parts(*args)

    monkeypatch.setattr(registry, builder, counting)
    rows = registry.run_check(name, registry.CheckOptions(seed=0))
    assert all(r.passed for r in rows)
    assert len(calls) == len(rows) + registry.rejection_count()


def test_ft_closed_form_only_within_the_cap(monkeypatch):
    """The ft_sum sampler evaluates the closed form only for a candidate
    whose cancellation ratio is within _COND_CAP: at seed 0 once a row,
    though candidates were rejected."""
    calls = []
    rhs = registry.frenkel_turaev_rhs

    def counting(*args):
        calls.append(args)
        return rhs(*args)

    monkeypatch.setattr(registry, "frenkel_turaev_rhs", counting)
    rows = registry.run_check("ft_sum", registry.CheckOptions(seed=0))
    assert registry.rejection_count() > 0
    assert len(calls) == len(rows) == 50
