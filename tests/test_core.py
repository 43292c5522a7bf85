"""Foundation layer: products, theta, shifted factorials, theta_1."""

import cmath

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ehv.core import (
    DEFAULT_POLICY,
    THETA_MEMO_SIZE,
    Moduli,
    _theta_memo,
    _theta_product,
    qpochhammer,
    theta,
    theta1,
    theta_factorial,
    theta_multi,
)
from ehv.errors import DomainError, NonConvergent, PoleHit, TruncationFailure
from ehv.vec import qpoch_vec, theta_vec


def direct_qpoch(z, b, terms=200):
    out = 1.0 + 0.0j
    w = complex(z)
    for _ in range(terms):
        out *= 1.0 - w
        w *= b
    return out


def direct_theta(z, p, terms=200):
    return direct_qpoch(z, p, terms) * direct_qpoch(p / z, p, terms)


class TestQPochhammer:
    def test_z_zero(self):
        assert qpochhammer(0.0, 0.5) == 1.0

    def test_b_zero_single_factor(self):
        assert qpochhammer(0.5, 0.0) == 0.5

    def test_half_half_against_direct_product(self):
        # frozen from the 200-term direct-product oracle
        val = qpochhammer(0.5, 0.5)
        assert val == pytest.approx(0.2887880950866024, rel=1e-15)
        assert abs(val - direct_qpoch(0.5, 0.5)) < 1e-16

    def test_complex_against_direct_product(self, rng, arg):
        for _ in range(50):
            z = arg(rng, 0.1, 3.0)
            b = arg(rng, 0.05, 0.7)
            got = qpochhammer(z, b)
            want = direct_qpoch(z, b)
            assert abs(got - want) <= 1e-13 * abs(want)

    def test_nonconvergent_base(self):
        with pytest.raises(NonConvergent):
            qpochhammer(0.5, 1.0)

    def test_truncation_failure(self):
        # 43,035 factors against the standard limit of 4,096
        with pytest.raises(TruncationFailure, match="qpochhammer needs 43035"):
            qpochhammer(0.5, 0.999)

    def test_tables_share_the_factor_limit(self):
        # a node table refuses the inputs its scalar kernel refuses
        with pytest.raises(TruncationFailure, match="qpoch_vec needs 43035"):
            qpoch_vec([0.5], 0.999)
        with pytest.raises(TruncationFailure, match="theta_vec needs 6077"):
            theta_vec([0.4 + 0.1j] * 4, 0.993)
        with pytest.raises(TruncationFailure, match="theta needs 6077"):
            theta(0.4 + 0.1j, 0.993)


class TestTheta:
    def test_unit_argument_is_exact_zero(self):
        assert theta(1.0, 0.3) == 0.0

    def test_p_zero(self):
        assert theta(0.4, 0.0) == pytest.approx(0.6)

    def test_against_direct_product_and_quasi_periodicity(self):
        z, p = 0.4 + 0.1j, 0.25
        val = theta(z, p)
        assert abs(val - direct_theta(z, p)) <= 1e-14 * abs(val)
        # theta(pz; p) = -theta(z; p)/z
        assert abs(theta(p * z, p) + val / z) <= 1e-13 * abs(val)

    def test_zero_lattice_exact(self):
        for p in (0.3, 0.25, 0.3 + 0.1j, 0.05 - 0.4j):
            for k in range(-8, 9):
                assert theta(p ** k, p) == 0.0

    def test_tiny_base_does_not_overflow(self):
        # p**(-8) overflows a float; theta(z; p) ~ (1 - z)(1 - p/z)
        assert theta(3e-40, 1e-40) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_quasi_periodicity_annulus(self, rng, arg):
        worst = 0.0
        for _ in range(400):
            z = arg(rng, 0.1, 10.0)
            p = arg(rng, 0.05, 0.6)
            t = theta(z, p)
            if t == 0:
                continue
            worst = max(worst,
                        abs(theta(p * z, p) + t / z) / abs(t),
                        abs(theta(1.0 / z, p) + t / z) / abs(t))
        assert worst <= 1e-12

    def test_domain_error(self):
        with pytest.raises(DomainError):
            theta(0.0, 0.3)


class TestThetaMemo:
    @staticmethod
    def grid(rng, arg):
        """(z, p) pairs over real, complex and zero bases: random z, the
        log-space path (|z| > 1e3 with more than 64 factors), the zero
        lattice, and a float z next to complex ones of equal value.  At
        z = p = -0.45 the sign of z's zero imaginary part reaches the value:
        theta is (-0+0j) at +0.0 and -0j at -0.0."""
        for p in (0.25, -0.45, 0.7, 0.3 + 0.1j, 0.05 - 0.4j, 0.6 + 0.3j, 0.0):
            zs = [arg(rng, 0.1, 3.0) for _ in range(6)]
            zs.append(arg(rng, 1e3, 5e3))
            if p != 0:
                zs += [p ** k for k in range(-8, 9)]
                zs += [complex(p, 0.0), complex(p, -0.0)]
            zs += [0.4, 0.4 + 0j, complex(0.4, -0.0)]
            for z in zs:
                yield z, p

    def test_equals_product_loop(self, rng, arg):
        cases = list(self.grid(rng, arg))
        assert any(abs(z) > 1e3 and DEFAULT_POLICY.cutoff(abs(z), abs(p)) > 64
                   for z, p in cases)
        for z, p in cases:
            want = repr(_theta_product(z, p, DEFAULT_POLICY))
            assert repr(theta(z, p)) == want, (z, p)
            assert repr(theta(z, p)) == want, (z, p)      # from the memo
        assert _theta_memo.cache_info().hits > 0

    def test_errors_raise_every_time(self):
        for _ in range(3):
            for z in (0.0, 0j):
                with pytest.raises(DomainError):
                    theta(z, 0.3 + 0.1j)
            for p in (1.0, 1.2j, 0.6 + 0.8j):
                with pytest.raises(NonConvergent):
                    theta(0.4 + 0.1j, p)
            with pytest.raises(TruncationFailure):     # 6,077 factors
                theta(0.4 + 0.1j, 0.993)

    def test_stays_within_bound(self, rng, arg):
        for _ in range(3 * THETA_MEMO_SIZE):
            theta(arg(rng, 0.1, 3.0), 0.3 + 0.1j)
        info = _theta_memo.cache_info()
        assert info.maxsize == THETA_MEMO_SIZE
        assert info.currsize == THETA_MEMO_SIZE


class TestThetaVecBases:
    """theta_vec with one base per element."""

    def test_matches_scalar_theta(self, rng, arg):
        z = np.array([arg(rng, 0.04, 25.0) for _ in range(400)])
        p = np.array([arg(rng, 0.05, 0.5) for _ in range(400)])
        got = theta_vec(z, p)
        want = np.array([theta(a, b) for a, b in zip(z.tolist(), p.tolist())])
        rel = np.abs(got - want) / np.abs(want)
        # a product of up to 2 x 59 factors: the scalar-base tables differ
        # from scalar theta by up to ~3e-15 on the same ranges
        assert np.median(rel) <= 1e-15 and rel.max() <= 1e-14

    @pytest.mark.parametrize("p", [0.23, 0.45 - 0.1j, -0.2j, 0.05])
    def test_full_base_array_gives_the_scalar_bits(self, rng, arg, p):
        # |z| up to 60 also takes the log-space branch
        for hi in (25.0, 60.0):
            z = np.array([arg(rng, 0.04, hi) for _ in range(300)])
            got = theta_vec(z, np.full(z.shape, p))
            assert np.array_equal(got.view(float), theta_vec(z, p).view(float))

    def test_one_slow_base_fails_the_stack(self):
        with pytest.raises(TruncationFailure) as scalar:
            theta(0.4 + 0j, 0.99999 + 0j)
        need = str(scalar.value).split()[2]
        with pytest.raises(TruncationFailure, match=f"theta_vec needs {need} "):
            theta_vec([0.4, 0.5], np.array([0.99999, 0.3]))

    @pytest.mark.parametrize("bshape", [(), (1, 1), (7, 1), (1, 5), (7, 5)])
    def test_batch_terms_is_the_largest_elementwise_cutoff(self, rng, bshape):
        scales = np.array([[rng.uniform(0.0, 30.0) for _ in range(5)]
                           for _ in range(7)])
        scales[0, 0] = 0.0                      # cutoff()'s own edge case
        bases = np.array([rng.uniform(0.0, 0.6) for _ in range(35)])
        bases = bases[:int(np.prod(bshape))].reshape(bshape)
        if bases.size > 1:
            bases.flat[1] = 0.0
        want = max(DEFAULT_POLICY.terms("x", float(s), float(b))
                   for s, b in zip(scales.ravel(),
                                   np.broadcast_to(bases, scales.shape).ravel()))
        assert DEFAULT_POLICY.batch_terms("x", scales, bases) == want

    def test_mpmath_elements(self, rng, arg, extended):
        z = [mpmath.mpc(arg(rng, 0.04, 25.0)) for _ in range(8)]
        p = [mpmath.mpc(arg(rng, 0.05, 0.5)) for _ in range(8)]
        got = theta_vec(np.array(z), np.array(p))
        for g, a, b in zip(got, z, p):
            assert abs(g - theta(a, b)) <= 1e-34 * abs(theta(a, b))


class TestThetaMulti:
    def test_empty_product(self):
        assert theta_multi([], 0.2) == 1.0

    def test_annihilating_factor(self):
        assert theta_multi([1.0, 0.5], 0.2) == 0.0

    def test_factorizes(self):
        p = 0.2
        got = theta_multi([0.3, 0.7], p)
        assert got == pytest.approx(theta(0.3, p) * theta(0.7, p))

    def test_zero_entry_rejected(self):
        with pytest.raises(DomainError):
            theta_multi([0.3, 0.0], 0.2)


class TestThetaFactorial:
    def test_empty(self):
        assert theta_factorial(0.77 + 0.1j, 0.2, 0.3, 0) == 1.0

    def test_positive_direct(self):
        z, p, q = 0.5, 0.2, 0.3
        want = theta(z, p) * theta(z * q, p)
        assert theta_factorial(z, p, q, 2) == pytest.approx(want, rel=1e-14)

    def test_negative_index_convention(self):
        z, p, q = 0.5, 0.2, 0.3
        want = 1.0 / theta(z / q, p)
        assert theta_factorial(z, p, q, -1) == pytest.approx(want, rel=1e-14)

    def test_inversion_rule(self, rng, arg):
        p, q = 0.2, 0.3 + 0.05j
        for _ in range(30):
            z = arg(rng, 0.3, 2.0)
            m = rng.randint(-5, 5)
            prod = (theta_factorial(z, p, q, m)
                    * theta_factorial(z * q ** m, p, q, -m))
            assert abs(prod - 1.0) <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(-4, 4), n=st.integers(-4, 4),
           seed=st.integers(0, 10 ** 6))
    def test_splitting(self, m, n, seed):
        import random

        rr = random.Random(seed)
        z = (0.3 + 1.5 * rr.random()) * cmath.exp(2j * cmath.pi * rr.random())
        p, q = 0.25, 0.31 + 0.04j
        lhs = theta_factorial(z, p, q, m + n)
        rhs = (theta_factorial(z, p, q, m)
               * theta_factorial(z * q ** m, p, q, n))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))

    def test_pole_hit(self):
        # z q^-1 lands exactly on the zero lattice
        p, q = 0.2, 0.3
        with pytest.raises(PoleHit):
            theta_factorial(q * p ** 2, p, q, -1)


class TestTheta1:
    SIGMA = 0.13 + 0.02j
    TAU = 0.2 + 0.31j

    def test_odd(self):
        u = 0.37 - 0.11j
        a = theta1(u, self.SIGMA, self.TAU)
        b = theta1(-u, self.SIGMA, self.TAU)
        assert abs(a + b) <= 1e-13 * abs(a)

    def test_zero_at_origin(self):
        assert theta1(0.0, self.SIGMA, self.TAU) == 0.0

    def test_shift_by_inverse_sigma_flips_sign(self):
        u = 0.37 - 0.11j
        a = theta1(u, self.SIGMA, self.TAU)
        b = theta1(u + 1.0 / self.SIGMA, self.SIGMA, self.TAU)
        assert abs(b + a) <= 1e-12 * abs(a)

    def test_second_quasi_period(self):
        # theta_1(u + tau/sigma) = -exp(-pi i tau - 2 pi i sigma u) theta_1(u)
        u = 0.21 + 0.05j
        sigma, tau = self.SIGMA, self.TAU
        a = theta1(u, sigma, tau)
        b = theta1(u + tau / sigma, sigma, tau)
        factor = -cmath.exp(-1j * cmath.pi * tau - 2j * cmath.pi * sigma * u)
        assert abs(b - factor * a) <= 1e-12 * abs(b)

    def test_requires_upper_half_tau(self):
        with pytest.raises(DomainError):
            theta1(0.3, self.SIGMA, 0.2 - 0.1j)


class TestModuli:
    def test_bounds(self):
        with pytest.raises(ValueError):
            Moduli(1.0, 0.2)
        with pytest.raises(ValueError):
            Moduli(0.2, -1.5)
        for nan in (float("nan"), complex(0.2, float("nan"))):
            with pytest.raises(ValueError):
                Moduli(nan, 0.2)
            with pytest.raises(ValueError):
                Moduli(0.2, nan)

    def test_degenerations_allowed(self):
        m = Moduli(0.0, 0.3)

    def test_swapped(self):
        m = Moduli(0.31, 0.23)
        assert m.swapped().q == 0.23 and m.swapped().p == 0.31
