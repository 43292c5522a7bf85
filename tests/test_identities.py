"""Theta identities, determinant evaluation, difference/transformation checks."""

import cmath
import functools
import math

import numpy as np
import pytest

from ehv.core import theta_factorial_multi
from ehv.errors import DegenerateConfiguration, DomainViolation, EHVError
from ehv.identities import (
    DiffSide,
    an_difference_residual,
    an_transformation_sides,
    id1_residual,
    id1_scale,
    id3_residual,
    id3_scale,
    krattenthaler_condition,
    krattenthaler_det_sides,
    partial_fraction_residual,
    partial_fraction_scale,
    riemann_identity_residual,
    riemann_identity_scale,
)
from ehv.quadrature import QuadratureConfig


def prod(seq):
    return functools.reduce(lambda a, b: a * b, seq, 1.0 + 0.0j)


class TestRiemannIdentity:
    def test_collapses_at_w_equals_z(self, rng, arg):
        p = 0.3
        x, y, z = (arg(rng, 0.3, 1.5) for _ in range(3))
        r = riemann_identity_residual(x, y, z, z, p)
        assert abs(r) <= 1e-14 * riemann_identity_scale(x, y, z, z, p)

    def test_p_zero_polynomial_identity(self, rng, arg):
        for _ in range(100):
            x, y, z, w = (arg(rng, 0.3, 1.5) for _ in range(4))
            assert abs(riemann_identity_residual(x, y, z, w, 0.0)) <= 1e-13

    def test_random_draws(self, rng, arg):
        worst = 0.0
        for _ in range(300):
            p = arg(rng, 0.05, 0.4)
            x, y, z, w = (arg(rng, 0.2, 2.0) for _ in range(4))
            worst = max(worst, abs(riemann_identity_residual(x, y, z, w, p))
                        / riemann_identity_scale(x, y, z, w, p))
        assert worst <= 1e-13


class TestPartialFraction:
    def test_n1_two_term(self, rng, arg):
        p = 0.35
        a, b, t = arg(rng, 0.3, 1.5), arg(rng, 0.3, 1.5), arg(rng, 0.3, 1.5)
        r = partial_fraction_residual([a], [b], t, p)
        assert abs(r) <= 1e-14 * partial_fraction_scale([a], [b], t, p)

    def test_n3_random(self, rng, arg):
        p = 0.4
        for _ in range(50):
            a = [arg(rng, 0.3, 1.6) for _ in range(3)]
            b = [arg(rng, 0.3, 1.6) for _ in range(3)]
            t = arg(rng, 0.3, 1.6)
            r = partial_fraction_residual(a, b, t, p)
            assert abs(r) <= 1e-12 * partial_fraction_scale(a, b, t, p)

    def test_perturbed_near_degenerate(self, rng, arg):
        p = 0.3
        a = [arg(rng, 0.4, 1.2) for _ in range(2)]
        b = [v * (1 + 1e-3) for v in a]
        t = arg(rng, 0.4, 1.2)
        r = partial_fraction_residual(a, b, t, p)
        assert abs(r) <= 1e-11 * partial_fraction_scale(a, b, t, p)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateConfiguration):
            partial_fraction_residual([0.5, 0.6], [0.6, 0.5], 0.9, 0.3)


class TestId1Id3:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_id1(self, rng, arg, n):
        p = 0.35
        t = [arg(rng, 0.4, 1.5) for _ in range(n + 1)]
        z = [arg(rng, 0.9, 1.1) for _ in range(n)]
        z.append(1.0 / prod(z))
        B = arg(rng, 0.3, 1.5)
        r = id1_residual(t, z, B, p)
        assert abs(r) <= 1e-12 * id1_scale(t, z, B, p)

    def test_id1_n1_equivalent_to_riemann_form(self, rng, arg):
        # both encode the same four-theta relation; check they agree on a draw
        p = 0.3
        t = [arg(rng, 0.5, 1.2) for _ in range(2)]
        z1 = arg(rng, 0.9, 1.1)
        z = [z1, 1.0 / z1]
        B = arg(rng, 0.4, 1.3)
        assert abs(id1_residual(t, z, B, p)) <= 1e-12 * id1_scale(t, z, B, p)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_id3(self, rng, arg, n):
        p = 0.35
        t = [arg(rng, 0.4, 1.5) for _ in range(n + 1)]
        f = [arg(rng, 0.4, 1.5) for _ in range(n + 2)]
        r = id3_residual(t, f, p)
        assert abs(r) <= 1e-12 * id3_scale(t, f, p)


class TestKrattenthaler:
    def test_n1_trivial(self, moduli):
        lhs, rhs = krattenthaler_det_sides(0.5, 0.6, 0.7, (0.9,), moduli)
        assert lhs == pytest.approx(1.0) and rhs == pytest.approx(1.0)

    def test_n2_hand_determinant(self, rng, arg, moduli):
        a, b, c = (arg(rng, 0.4, 0.9) for _ in range(3))
        X = (arg(rng, 0.6, 1.4), arg(rng, 0.6, 1.4))
        p, q = moduli.p, moduli.q

        def entry(i, j):
            num = theta_factorial_multi([a * X[i], a * c / X[i]], p, q, 2 - j)
            den = theta_factorial_multi([b * X[i], b * c / X[i]], p, q, 2 - j)
            return num / den

        hand = entry(0, 1) * entry(1, 2) - entry(0, 2) * entry(1, 1)
        lhs, rhs = krattenthaler_det_sides(a, b, c, X, moduli)
        assert abs(lhs - hand) <= 1e-12 * abs(hand)
        assert abs(lhs - rhs) <= 1e-11 * abs(rhs)

    def test_n5_against_numpy_lu(self, rng, arg, moduli):
        p, q = moduli.p, moduli.q
        while True:
            a, b, c = (arg(rng, 0.4, 0.9) for _ in range(3))
            X = tuple(arg(rng, 0.5, 1.5) for _ in range(5))
            mat = np.array(
                [[theta_factorial_multi([a * X[i], a * c / X[i]], p, q, 5 - j)
                  / theta_factorial_multi([b * X[i], b * c / X[i]], p, q, 5 - j)
                  for j in range(1, 6)] for i in range(5)], dtype=complex)
            # skip draws where the determinant cancels to noise level
            if abs(np.linalg.det(mat)) > 1e-6 * np.abs(mat).max() ** 5:
                break
        lu_det = np.linalg.det(mat)
        lhs, rhs = krattenthaler_det_sides(a, b, c, X, moduli)
        assert abs(lhs - lu_det) <= 1e-10 * abs(lu_det)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_condition_equals_the_entrywise_formula(self, rng, arg, moduli):
        # the matrix is built once; the measure is still max|entry|^n / |det|
        # with every entry built again, as the kratt sampler first used it
        def entrywise(a, b, c, X):
            lhs, _ = krattenthaler_det_sides(a, b, c, X, moduli)
            if lhs == 0:
                return math.inf
            n = len(X)
            p, q = moduli.p, moduli.q
            biggest = 0.0
            for i in range(n):
                for j in range(1, n + 1):
                    num = theta_factorial_multi([a * X[i], a * c / X[i]],
                                                p, q, n - j)
                    den = theta_factorial_multi([b * X[i], b * c / X[i]],
                                                p, q, n - j)
                    biggest = max(biggest, abs(num / den))
            return biggest ** n / abs(lhs)

        for n in (1, 2, 3, 4, 5):
            for _ in range(12):
                a, b, c = (arg(rng, 0.4, 0.9) for _ in range(3))
                X = tuple(arg(rng, 0.5, 1.5) for _ in range(n))
                try:
                    want = entrywise(a, b, c, X)
                except EHVError as exc:
                    with pytest.raises(type(exc)):
                        krattenthaler_condition(a, b, c, X, moduli)
                    continue
                assert krattenthaler_condition(a, b, c, X, moduli) == want

    def test_rescale_covariance(self, rng, arg, moduli):
        # X_i -> lam X_i with c -> lam^2 c is another instance; the two
        # sides must still agree after the move
        a, b, c = (arg(rng, 0.4, 0.9) for _ in range(3))
        X = tuple(arg(rng, 0.6, 1.3) for _ in range(3))
        lam = 1.17 - 0.21j
        X2 = tuple(lam * x for x in X)
        lhs, rhs = krattenthaler_det_sides(a, b, c / lam ** 0, X, moduli)
        lhs2, rhs2 = krattenthaler_det_sides(a / lam, b / lam, c * lam ** 2,
                                             X2, moduli)
        assert abs(lhs - rhs) <= 1e-11 * abs(rhs)
        assert abs(lhs2 - rhs2) <= 1e-11 * abs(rhs2)


def draw_an_tf(rng, arg, m, n, lo=0.72, hi=0.92):
    while True:
        t = tuple(arg(rng, lo, hi) for _ in range(n + 1))
        f = tuple(arg(rng, lo, hi) for _ in range(n + 2))
        if abs(prod(t + f)) > abs(m.p) * 1.1:
            return t, f


class TestAnDifference:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_form_side(self, rng, arg, moduli, n):
        t, f = draw_an_tf(rng, arg, moduli, n)
        r = an_difference_residual(t, f, moduli, DiffSide.CLOSED_FORM)
        assert abs(r) <= 1e-12

    def test_integral_side_n1(self, rng, arg, moduli):
        t, f = draw_an_tf(rng, arg, moduli, 1)
        cfg = QuadratureConfig(nodes_per_dim=256, max_doublings=2,
                               rel_tol=1e-10)
        r = an_difference_residual(t, f, moduli, DiffSide.INTEGRAL, cfg)
        assert abs(r) <= 1e-8

    def test_domain_violation_after_shift(self, moduli):
        # product barely above |pq|: multiplying any t_r by q breaks it
        t = (0.60, 0.64)
        f = (0.58, 0.62, 0.66)
        assert abs(prod(t + f)) > abs(moduli.p * moduli.q)
        assert abs(prod(t + f)) * abs(moduli.q) < abs(moduli.p * moduli.q)
        with pytest.raises(DomainViolation):
            an_difference_residual(t, f, moduli, DiffSide.CLOSED_FORM)


class TestAnTransformation:
    def test_f_equals_s_symmetric(self, rng, arg, moduli):
        tg = 0.62 * cmath.exp(0.3j)
        f = tuple(arg(rng, 0.6, 0.8) for _ in range(3))
        lhs, rhs, _, _ = an_transformation_sides(
            tg, f, f, moduli,
            QuadratureConfig(nodes_per_dim=256, max_doublings=1,
                             rel_tol=1e-10))
        assert lhs == rhs

    def test_random_admissible(self, rng, arg, moduli):
        from ehv.integrands import an_trans_domain_check

        tg = 0.62 * cmath.exp(0.3j)
        while True:
            f = tuple(arg(rng, 0.6, 0.8) for _ in range(3))
            s = tuple(arg(rng, 0.6, 0.8) for _ in range(3))
            if an_trans_domain_check(tg, f, s, moduli).ok:
                break
        lhs, rhs, _, _ = an_transformation_sides(
            tg, f, s, moduli,
            QuadratureConfig(nodes_per_dim=256, max_doublings=2,
                             rel_tol=1e-10))
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)

    def test_boundary_gated_before_integration(self, moduli):
        # |t^2 S| < |pq| must be rejected up front
        with pytest.raises(DomainViolation):
            an_transformation_sides(0.1, (0.5, 0.5, 0.5), (0.2, 0.2, 0.2),
                                    moduli)
