"""Elliptic gamma, double sine, and the modified gamma function."""

import cmath
import functools
import math
import random

import mpmath
import numpy as np
import pytest

from ehv.core import Moduli, qpochhammer, theta
from ehv.errors import NonConvergent, PoleHit, TruncationFailure
from ehv.gamma import (
    QuasiPeriods,
    double_sine,
    elliptic_factorial_s,
    elliptic_gamma,
    elliptic_gamma_multi,
    elliptic_gamma_reciprocal,
    modified_gamma_G,
)
from ehv.core import theta_factorial
from ehv.vec import gamma_vec

# (q, p) pairs of the reference grids: real, unbalanced both ways, complex
REF_MODULI = ((0.31, 0.23), (0.8, 0.1), (0.1, 0.8), (0.5 + 0.3j, 0.2 - 0.1j))


def on_circle(rng):
    return cmath.exp(2j * cmath.pi * rng.random())


def gamma_ref(z, q, p):
    """Gamma(z; q, p) as the 40-digit double product, independent of ehv."""
    return _gamma_ref(z, *sorted((q, p), key=abs, reverse=True))


@functools.lru_cache(maxsize=None)
def _gamma_ref(z, q, p):
    # Rows run over p, the base of smaller modulus; each row (and the row
    # loop) stops once its first factor is within 1e-36 of 1.
    with mpmath.workdps(40):
        z, q, p = mpmath.mpc(z), mpmath.mpc(q), mpmath.mpc(p)
        log_tiny, log_q = math.log(1e-36), math.log(abs(q))
        num = den = mpmath.mpc(1)
        a, b = z, q * p / z                 # z p^k and q p^{k+1} / z
        while (s := float(max(abs(a), abs(b)))) >= 1e-36:
            x, y = a, b
            for _ in range(max(1, math.ceil((log_tiny - math.log(s)) / log_q))):
                den *= 1 - x
                num *= 1 - y
                x *= q
                y *= q
            a *= p
            b *= p
        return num / den


def _rel_err(got, want):
    return abs(got - want) / abs(want)


class TestEllipticGamma:
    def test_symmetric_point(self, moduli):
        pq = moduli.p * moduli.q
        val = elliptic_gamma(cmath.sqrt(pq), moduli)
        assert abs(val - 1.0) <= 1e-13

    def test_p_zero_reciprocal_pochhammer(self):
        m = Moduli(0.3, 0.0)
        z = 0.5 + 0.2j
        assert (elliptic_gamma(z, m) * qpochhammer(z, 0.3)
                == pytest.approx(1.0, abs=1e-14))

    def test_difference_law_oracle(self, moduli):
        z = 0.5
        g = elliptic_gamma(z, moduli)
        got = elliptic_gamma(moduli.q * z, moduli)
        assert abs(got - theta(z, moduli.p) * g) <= 1e-13 * abs(got)

    def test_difference_laws_random(self, rng, arg, moduli):
        worst = 0.0
        for _ in range(200):
            z = arg(rng, 0.2, 2.0)
            g = elliptic_gamma(z, moduli)
            worst = max(
                worst,
                abs(elliptic_gamma(moduli.q * z, moduli)
                    - theta(z, moduli.p) * g) / abs(g),
                abs(elliptic_gamma(moduli.p * z, moduli)
                    - theta(z, moduli.q) * g) / abs(g))
        assert worst <= 1e-12

    def test_base_symmetry(self, rng, arg, moduli):
        for _ in range(50):
            z = arg(rng, 0.3, 1.5)
            a = elliptic_gamma(z, moduli)
            b = elliptic_gamma(z, moduli.swapped())
            assert abs(a - b) <= 1e-13 * abs(a)

    def test_all_reflection_identities(self, rng, arg, moduli):
        q, p = moduli.q, moduli.p
        for _ in range(50):
            z = arg(rng, 0.3, 2.0)
            for pair in ((p * z, q / z), (q * z, p / z),
                         (p * q * z, 1.0 / z), (z, p * q / z)):
                assert abs(elliptic_gamma_multi(pair, moduli) - 1.0) <= 1e-12

    def test_pole_guard(self, moduli):
        with pytest.raises(PoleHit):
            elliptic_gamma(1.0, moduli)
        with pytest.raises(PoleHit):
            elliptic_gamma(1.0 / moduli.q, moduli)

    def test_pole_guard_both_directions(self, moduli):
        pq = moduli.p * moduli.q
        with pytest.raises(PoleHit):
            elliptic_gamma(1.0 + 1e-14, moduli)
        with pytest.raises(PoleHit):
            elliptic_gamma_reciprocal(pq * (1.0 + 1e-14), moduli)
        assert math.isfinite(abs(elliptic_gamma(1.0 + 1e-10, moduli)))
        assert math.isfinite(abs(elliptic_gamma_reciprocal(pq * (1.0 + 1e-10),
                                                           moduli)))
        assert elliptic_gamma_reciprocal(1.0, moduli) == 0

    def test_series_beyond_max_terms(self):
        # |z| = q = p = 0.99 is inside the annulus, so no theta shift factor
        # runs, and the series needs 5,041 terms against the limit of 4,096
        with pytest.raises(TruncationFailure, match="series needs 5041"):
            elliptic_gamma(0.99 * cmath.exp(0.3j), Moduli(0.99, 0.99))

    def test_matches_double_product(self):
        worst = 0.0
        for z, m in _scalar_grid():
            worst = max(worst, _rel_err(elliptic_gamma(z, m),
                                        gamma_ref(z, m.q, m.p)))
        assert worst <= 1e-13

    def test_matches_double_product_extended(self, extended):
        tol = mpmath.mpf(10) ** -30
        for z, m in _scalar_grid():
            mm = Moduli(mpmath.mpc(m.q), mpmath.mpc(m.p))
            got = elliptic_gamma(mpmath.mpc(z), mm)
            assert _rel_err(got, gamma_ref(z, m.q, m.p)) <= tol

    def test_nonconvergent(self):
        with pytest.raises(ValueError):
            Moduli(1.2, 0.3)


def _scalar_grid():
    """Seeded (z, moduli): |z| >= 1, |z| = 0.999, inside the annulus and
    at or below |pq|, each with a random phase."""
    rng = random.Random(6029)
    out = []
    for q, p in REF_MODULI[:2] + REF_MODULI[3:]:
        pq = abs(q * p)
        for r in (1.7, 1.0, 0.999, 0.45, pq, 0.6 * pq):
            out.append((r * cmath.exp(2j * cmath.pi * rng.random()),
                        Moduli(q, p)))
    return out


class TestGammaTable:
    @pytest.mark.parametrize("q, p", REF_MODULI)
    def test_matches_double_product(self, q, p):
        """Seeded nodes of every table agree with the 40-digit product."""
        rng = random.Random(6029)
        pq = abs(q * p)
        for r in (1.0, 0.999, 0.45, 1.01 * pq, 1.3):
            c = 1.0 if r == 1.0 else r * cmath.exp(2j * cmath.pi * rng.random())
            j = rng.randrange(1, 32)         # the same node k / N = j / 32
            for N in (96, 512, 2048):
                k = j * N // 32
                z = (c * np.exp(2j * np.pi * np.arange(N) / N))[k]
                ref = gamma_ref(complex(z), q, p)
                inv = gamma_vec(c, N, q, p, inverse=True)
                assert _rel_err(inv[k], 1 / ref) <= 1e-13
                if r == 1.0:
                    assert inv[0] == 0
                    with pytest.raises(PoleHit):
                        gamma_vec(c, N, q, p)
                else:
                    assert _rel_err(gamma_vec(c, N, q, p)[k], ref) <= 1e-13


class TestStackedGammaTable:
    """gamma_vec on a sequence of constants: one (K, N) call."""

    @staticmethod
    def _stack(rng, q, p):
        pq = abs(q * p)
        mods = (1.0, 0.999, 0.45, 1.01 * pq, 1.3, 0.7)
        cs = [1.0 if r == 1.0 else r * on_circle(rng) for r in mods]
        return cs, [True, False, True, False, True, False]

    @pytest.mark.parametrize("q, p", REF_MODULI)
    def test_rows_match_scalar_kernels(self, q, p):
        """Every row, mixed inverse flags, against the scalar kernels."""
        rng = random.Random(8081)
        cs, inv = self._stack(rng, q, p)
        m, N = Moduli(q, p), 96
        tabs = gamma_vec(cs, N, q, p, inverse=inv)
        assert tabs.shape == (len(cs), N)
        z = np.exp(2j * np.pi * np.arange(N) / N)
        for c, i, row in zip(cs, inv, tabs):
            for k in range(0, N, 7):
                if c == 1.0 and k == 0:
                    continue                 # 0 either way, tested below
                kernel = elliptic_gamma_reciprocal if i else elliptic_gamma
                assert _rel_err(row[k], kernel(complex(c * z[k]), m)) <= 1e-13

    def test_scalar_constant_gives_one_row(self):
        tab = gamma_vec(0.6 + 0.1j, 64, 0.31, 0.23)
        assert tab.shape == (64,)
        assert np.array_equal(tab, gamma_vec([0.6 + 0.1j], 64, 0.31, 0.23)[0])

    @pytest.mark.parametrize("q, p", [(0.31, 0.0), (0.0, 0.23)])
    def test_degenerate_base(self, q, p):
        cs, inv = [0.6 + 0.1j, 0.8j, -0.5], [False, True, True]
        tabs = gamma_vec(cs, 32, q, p, inverse=inv)
        z = np.exp(2j * np.pi * np.arange(32) / 32)
        m = Moduli(q, p)
        for c, i, row in zip(cs, inv, tabs):
            kernel = elliptic_gamma_reciprocal if i else elliptic_gamma
            for k in (0, 5, 17):
                assert _rel_err(row[k], kernel(complex(c * z[k]), m)) <= 1e-13

    @pytest.mark.parametrize("q, p", REF_MODULI)
    def test_unit_reciprocal_row_is_exactly_zero_at_z2_one(self, q, p):
        """1/Gamma(z^2) reads the c = 1 row at 2k mod N: exactly 0 at the
        nodes z = +-1, and only there."""
        N = 64
        row = gamma_vec([0.7, 1.0], N, q, p, inverse=[False, True])[1]
        on_z2 = row[2 * np.arange(N) % N]
        assert on_z2[0] == 0 and on_z2[N // 2] == 0
        assert np.count_nonzero(on_z2 == 0) == 2

    @pytest.mark.parametrize("q, p", REF_MODULI)
    def test_one_pole_row_fails_the_stack(self, q, p):
        with pytest.raises(PoleHit):
            gamma_vec([0.7, 1.0, 0.5j], 64, q, p, inverse=[False, False, True])
        with pytest.raises(PoleHit):
            gamma_vec([0.7, 0.0], 64, q, p)

    def test_tables_make_one_call_per_grid(self, monkeypatch):
        """FactorIntegrand._tables(N) builds all its Gamma and 1/Gamma rows
        but the c = 1 reciprocal one in one gamma_vec call; that row is a
        call of its own, made once per (N, q, p) in a process."""
        from ehv import integrands
        from ehv.registry import Sampler, _draw_spec

        stacks, rows = [], []

        def counted(c, N, q, p, *, inverse=False):
            if np.ndim(c):
                stacks.append(set(zip(c, inverse)))
            else:
                rows.append((c, inverse, N, q, p))
            return gamma_vec(c, N, q, p, inverse=inverse)

        monkeypatch.setattr(integrands, "gamma_vec", counted)
        integrands._unit_row.cache_clear()     # rows earlier tests built
        for family, n in ((integrands.Family.CN_II, 2),
                          (integrands.Family.AN_I, 2),
                          (integrands.Family.CN_III, 1)):
            ig = integrands.make_integrand(_draw_spec(Sampler(3), family, n))
            keys = {(f.c, f.kind is integrands.Kind.IGAMMA) for f in ig.factors
                    if f.kind in (integrands.Kind.GAMMA, integrands.Kind.IGAMMA)}
            assert (1, True) in keys
            for _ in range(2):
                stacks.clear()
                ig._tables(48)
                assert stacks == [keys - {(1, True)}]
        m = ig.moduli
        assert rows == [(1, True, 48, m.q, m.p)]


class TestGammaMulti:
    def test_empty(self, moduli):
        assert elliptic_gamma_multi([], moduli) == 1.0

    def test_reflection_pair(self, moduli):
        z = 0.73 + 0.21j
        pq = moduli.p * moduli.q
        assert abs(elliptic_gamma_multi([z, pq / z], moduli) - 1.0) <= 1e-13

    def test_factorizes(self, moduli):
        got = elliptic_gamma_multi([0.4, 0.6], moduli)
        want = elliptic_gamma(0.4, moduli) * elliptic_gamma(0.6, moduli)
        assert got == pytest.approx(want, rel=1e-14)

    def test_doubling_of_reflection_parameters(self, rng, arg, moduli):
        # the eight distinguished parameters multiply to 1/Gamma(z^-2)
        q, p = moduli.q, moduli.p
        z = 0.9 * on_circle(rng)
        pars = []
        for s in (1, -1):
            pars.extend([s * cmath.sqrt(p * q), s * cmath.sqrt(q) * p,
                         s * cmath.sqrt(p) * q, s * p * q])
        lhs = elliptic_gamma_multi([c * z for c in pars], moduli)
        rhs = 1.0 / elliptic_gamma_multi([z ** -2], moduli)
        assert abs(lhs - rhs) <= 1e-11 * abs(rhs)


class TestFactorialS:
    def test_s_zero(self, moduli):
        assert elliptic_factorial_s(0.4 + 0.1j, 0, moduli) == pytest.approx(1.0)

    def test_s_one_is_theta(self, moduli):
        z = 0.45 + 0.2j
        got = elliptic_factorial_s(z, 1, moduli)
        assert got == pytest.approx(theta(z, moduli.p), rel=1e-13)

    def test_integer_orders_match_theta_factorial(self, moduli):
        z = 0.5 + 0.05j
        for n in (2, 3):
            got = elliptic_factorial_s(z, n, moduli)
            want = theta_factorial(z, moduli.p, moduli.q, n)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_fractional_order_compose(self):
        m = Moduli(0.3, 0.2)
        z, s = 0.3, 2.5
        qs = m.q ** s
        want = elliptic_gamma(z * qs, m) / elliptic_gamma(z, m)
        assert elliptic_factorial_s(z, s, m) == pytest.approx(want, rel=1e-13)


class TestDoubleSine:
    W1, W2 = 1.0 + 0.4j, 1.0

    def test_pochhammer_oracle(self):
        u = 0.21 + 0.07j
        q = cmath.exp(2j * cmath.pi * self.W1 / self.W2)
        qt = cmath.exp(-2j * cmath.pi * self.W2 / self.W1)
        want = (qpochhammer(cmath.exp(2j * cmath.pi * u / self.W2), q)
                / qpochhammer(cmath.exp(2j * cmath.pi * u / self.W1) * qt, qt))
        assert double_sine(u, self.W1, self.W2) == pytest.approx(want, rel=1e-13)

    def test_zero_at_periods(self):
        # u = k w2 (k <= 0) makes the numerator argument hit 1 while the
        # denominator lattice stays clear
        assert double_sine(0.0, self.W1, self.W2) == 0.0
        assert abs(double_sine(-self.W2, self.W1, self.W2)) < 1e-12

    def test_nonconvergent_lower_half(self):
        with pytest.raises(NonConvergent):
            double_sine(0.3, 1.0 - 0.4j, 1.0)


class TestModifiedGamma:
    W = QuasiPeriods(1.0 + 0.4j, 1.0, 0.3 + 0.5j)

    def test_validity_flags(self):
        v = self.W.validity
        assert v == {"q": True, "qt": True, "p": True, "pt": True}

    def test_shift_by_omega1(self):
        u = 0.21 + 0.07j
        lhs = modified_gamma_G(u + self.W.omega1, self.W)
        rhs = (theta(cmath.exp(2j * cmath.pi * u / self.W.omega2), self.W.p)
               * modified_gamma_G(u, self.W))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_shift_by_omega2(self):
        u = 0.13 - 0.04j
        lhs = modified_gamma_G(u + self.W.omega2, self.W)
        rhs = (theta(cmath.exp(2j * cmath.pi * u / self.W.omega1),
                     self.W.p_tilde)
               * modified_gamma_G(u, self.W))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_shift_by_omega3_double_sine_product(self):
        u = 0.17 + 0.02j
        lhs = modified_gamma_G(u + self.W.omega3, self.W)
        w1, w2 = self.W.omega1, self.W.omega2
        rhs = (double_sine(u, w1, w2) * double_sine(w1 + w2 - u, w1, w2)
               * modified_gamma_G(u, self.W))
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)

    def test_small_p_approaches_inverse_double_sine(self):
        # w3 with large imaginary part makes p and pt ~ 1e-8
        w3 = 0.1 + 3.4j
        w = QuasiPeriods(1.0 + 0.4j, 1.0, w3)
        assert abs(w.p) < 1e-7 and abs(w.p_tilde) < 1e-7
        u = 0.23 + 0.06j
        got = modified_gamma_G(u, w)
        want = 1.0 / double_sine(u, w.omega1, w.omega2)
        assert abs(got - want) <= 1e-6 * abs(want)

    def test_requires_bases_inside_disk(self):
        bad = QuasiPeriods(1.0 + 0.4j, 1.0, 0.3 - 0.5j)   # |p| > 1
        with pytest.raises(NonConvergent):
            modified_gamma_G(0.2, bad)

    def test_third_shift_near_real_period_ratio(self):
        # Im(w1/w2) small but nonzero: approaching the unit-circle regime
        w = QuasiPeriods(1.0 + 0.05j, 1.0, 0.3 + 0.5j)
        u = 0.19 + 0.03j
        G0 = modified_gamma_G(u, w)
        lhs = modified_gamma_G(u + w.omega3, w)
        rhs = (double_sine(u, w.omega1, w.omega2)
               * double_sine(w.omega1 + w.omega2 - u, w.omega1, w.omega2) * G0)
        assert abs(lhs - rhs) <= 1e-10 * abs(lhs)
