"""Theta identities, determinant evaluation, difference/transformation checks."""

import cmath
import functools
import math

import mpmath
import numpy as np
import pytest

from ehv import core, identities, registry
from ehv.core import DEGENERATE_EPS, theta, theta_factorial_multi, theta_multi
from ehv.errors import DegenerateConfiguration, DomainViolation, EHVError
from ehv.identities import (
    DiffSide,
    an_difference_residual,
    an_shift_coefficients,
    an_transformation_sides,
    id1_residual,
    id1_scale,
    id1_terms,
    id3_parts,
    id3_residual,
    id3_scale,
    krattenthaler_condition,
    krattenthaler_det_sides,
    partial_fraction_parts,
    partial_fraction_residual,
    partial_fraction_scale,
    riemann_identity_residual,
    riemann_identity_scale,
    riemann_terms,
)
from ehv.quadrature import QuadratureConfig
from ehv.series import (
    gustafson_rakha_condition,
    gustafson_rakha_parts,
    gustafson_rakha_sum_sides,
    milne_condition,
    milne_parts,
    milne_sum_sides,
    tree_sum,
)


def prod(seq):
    return functools.reduce(lambda a, b: a * b, seq, 1.0 + 0.0j)


class TestRiemannIdentity:
    def test_collapses_at_w_equals_z(self, rng, arg):
        p = 0.3
        x, y, z = (arg(rng, 0.3, 1.5) for _ in range(3))
        terms = riemann_terms(x, y, z, z, p)
        r = riemann_identity_residual(terms)
        assert abs(r) <= 1e-14 * riemann_identity_scale(terms)

    def test_p_zero_polynomial_identity(self, rng, arg):
        for _ in range(100):
            x, y, z, w = (arg(rng, 0.3, 1.5) for _ in range(4))
            terms = riemann_terms(x, y, z, w, 0.0)
            assert abs(riemann_identity_residual(terms)) <= 1e-13

    def test_random_draws(self, rng, arg):
        worst = 0.0
        for _ in range(300):
            p = arg(rng, 0.05, 0.4)
            x, y, z, w = (arg(rng, 0.2, 2.0) for _ in range(4))
            terms = riemann_terms(x, y, z, w, p)
            worst = max(worst, abs(riemann_identity_residual(terms))
                        / riemann_identity_scale(terms))
        assert worst <= 1e-13


class TestPartialFraction:
    def test_n1_two_term(self, rng, arg):
        p = 0.35
        a, b, t = arg(rng, 0.3, 1.5), arg(rng, 0.3, 1.5), arg(rng, 0.3, 1.5)
        parts = partial_fraction_parts([a], [b], t, p)
        r = partial_fraction_residual(*parts)
        assert abs(r) <= 1e-14 * partial_fraction_scale(*parts)

    def test_n3_random(self, rng, arg):
        p = 0.4
        for _ in range(50):
            a = [arg(rng, 0.3, 1.6) for _ in range(3)]
            b = [arg(rng, 0.3, 1.6) for _ in range(3)]
            t = arg(rng, 0.3, 1.6)
            parts = partial_fraction_parts(a, b, t, p)
            r = partial_fraction_residual(*parts)
            assert abs(r) <= 1e-12 * partial_fraction_scale(*parts)

    def test_perturbed_near_degenerate(self, rng, arg):
        p = 0.3
        a = [arg(rng, 0.4, 1.2) for _ in range(2)]
        b = [v * (1 + 1e-3) for v in a]
        t = arg(rng, 0.4, 1.2)
        parts = partial_fraction_parts(a, b, t, p)
        r = partial_fraction_residual(*parts)
        assert abs(r) <= 1e-11 * partial_fraction_scale(*parts)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateConfiguration):
            partial_fraction_parts([0.5, 0.6], [0.6, 0.5], 0.9, 0.3)


class TestId1Id3:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_id1(self, rng, arg, n):
        p = 0.35
        t = [arg(rng, 0.4, 1.5) for _ in range(n + 1)]
        z = [arg(rng, 0.9, 1.1) for _ in range(n)]
        z.append(1.0 / prod(z))
        B = arg(rng, 0.3, 1.5)
        terms = id1_terms(t, z, B, p)
        assert abs(id1_residual(terms)) <= 1e-12 * id1_scale(terms)

    def test_id1_n1_equivalent_to_riemann_form(self, rng, arg):
        # both encode the same four-theta relation; check they agree on a draw
        p = 0.3
        t = [arg(rng, 0.5, 1.2) for _ in range(2)]
        z1 = arg(rng, 0.9, 1.1)
        z = [z1, 1.0 / z1]
        B = arg(rng, 0.4, 1.3)
        terms = id1_terms(t, z, B, p)
        assert abs(id1_residual(terms)) <= 1e-12 * id1_scale(terms)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_id3(self, rng, arg, n):
        p = 0.35
        t = [arg(rng, 0.4, 1.5) for _ in range(n + 1)]
        f = [arg(rng, 0.4, 1.5) for _ in range(n + 2)]
        parts = id3_parts(t, f, p)
        assert abs(id3_residual(*parts)) <= 1e-12 * id3_scale(*parts)


# -- the per-draw scalar formulas, kept as the oracle of the stacked ones ------


def oracle_riemann_terms(x, y, z, w, p):
    return (theta_multi([x * w, x / w, y * z, y / z], p),
            theta_multi([x * z, x / z, y * w, y / w], p),
            y / w * theta_multi([x * y, x / y, w * z, w / z], p))


def oracle_shift_coefficients(t, B, p):
    A = prod(t)
    thA = theta(A, p)
    if abs(thA) < DEGENERATE_EPS:
        raise DegenerateConfiguration("theta(A; p) = 0")
    coeffs = []
    for r in range(len(t)):
        val = theta(B * t[r], p) / thA
        for j in range(len(t)):
            if j != r:
                d = theta(t[r] / t[j], p)
                if abs(d) < DEGENERATE_EPS:
                    raise DegenerateConfiguration("t_r/t_j collision")
                val *= theta(A * B * t[j], p) / d
        coeffs.append(val)
    return coeffs


def oracle_id1_terms(t, z, B, p):
    if abs(prod(z) - 1.0) > 1e-12:
        raise ValueError("constraint prod(z) = 1 violated")
    A = prod(t)
    terms = []
    for r, val in enumerate(oracle_shift_coefficients(t, B, p)):
        for zk in z:
            val *= theta(t[r] / zk, p) / theta(A * B * zk, p)
        terms.append(val)
    return terms


def oracle_id3_parts(t, f, p):
    AB = prod(t) * prod(f)
    lhs_num = theta_multi([AB / fj for fj in f], p)
    lhs_den = theta_multi([AB * tj for tj in t], p)
    if abs(lhs_den) < DEGENERATE_EPS:
        raise DegenerateConfiguration("theta(A B t_j; p) = 0")
    terms = []
    for r in range(len(t)):
        num = theta_multi([t[r] * fj for fj in f], p)
        den = theta(AB * t[r], p)
        for j in range(len(t)):
            if j != r:
                d = theta(t[r] / t[j], p)
                if abs(d) < DEGENERATE_EPS:
                    raise DegenerateConfiguration("t_r/t_j collision")
                den *= d
        terms.append(num / den)
    return lhs_num / lhs_den, terms


def oracle_ident(x, y, z, w, p):
    """(all terms, |residual| / scale) of one draw."""
    first, second, rhs = terms = oracle_riemann_terms(x, y, z, w, p)
    return list(terms), abs((first - second) - rhs) / max(map(abs, terms))


def oracle_id1(t, z, B, p):
    terms = oracle_id1_terms(t, z, B, p)
    return terms, abs(tree_sum(terms) - 1.0) / max([1.0] + [abs(v) for v in terms])


def oracle_id3(t, f, p):
    lhs, terms = oracle_id3_parts(t, f, p)
    return [lhs] + terms, (abs(lhs - tree_sum(terms))
                           / max([abs(lhs)] + [abs(v) for v in terms]))


def batched_ident(x, y, z, w, p):
    terms = riemann_terms(x, y, z, w, p)
    return (terms, np.abs(riemann_identity_residual(terms))
            / riemann_identity_scale(terms))


def batched_id1(t, z, B, p):
    terms = id1_terms(t, z, B, p)
    return terms, np.abs(id1_residual(terms)) / id1_scale(terms)


def batched_id3(t, f, p):
    lhs, terms = id3_parts(t, f, p)
    return (np.concatenate([np.expand_dims(lhs, -1), terms], axis=-1),
            np.abs(id3_residual(lhs, terms)) / id3_scale(lhs, terms))


CASES = {
    "ident": (registry._ident_draw, batched_ident, oracle_ident),
    "id1": (registry._id1_draw, batched_id1, oracle_id1),
    "id3": (registry._id3_draw, batched_id3, oracle_id3),
}


def ranked_draws(draw, seed, count):
    """The first count draws of a check's seeded sequence, by rank."""
    smp = registry.Sampler(seed)
    ranks = {}
    for _ in range(count):
        n, args = draw(smp)
        ranks.setdefault(n, []).append(args)
    return ranks


def stack(rows):
    return [np.array(col) for col in zip(*rows)]


class TestStackedIdentities:
    """ident, id1 and id3 evaluate their draws as stacked arrays."""

    @pytest.mark.parametrize("seed", [0, 1009])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_batch_matches_per_draw_oracle(self, name, seed):
        draw, batched, oracle = CASES[name]
        for rows in ranked_draws(draw, seed, 200).values():
            terms, rel = batched(*stack(rows))
            for i, row in enumerate(rows):
                want_terms, want_rel = oracle(*row)
                for got, want in zip(terms[i], want_terms):
                    assert abs(got - want) <= 1e-13 * abs(want)
                assert abs(rel[i] - want_rel) <= 1e-13

    def test_id3_collision_in_one_row(self):
        rows = ranked_draws(registry._id3_draw, 0, 40)[2][:6]
        t, f, p = rows[3]
        rows[3] = ((t[0], t[0], t[2]), f, p)
        with pytest.raises(DegenerateConfiguration) as scalar:
            oracle_id3(*rows[3])
        with pytest.raises(DegenerateConfiguration) as batch:
            id3_parts(*stack(rows))
        assert str(batch.value) == str(scalar.value) == "t_r/t_j collision"

    def test_id1_vanishing_theta_a_in_one_row(self):
        rows = ranked_draws(registry._id1_draw, 0, 40)[1][:6]
        _, z, B, p = rows[2]
        rows[2] = ((2.0 + 0j, 0.5 + 0j), z, B, p)      # A = 1 exactly
        with pytest.raises(DegenerateConfiguration) as scalar:
            oracle_id1(*rows[2])
        with pytest.raises(DegenerateConfiguration) as batch:
            id1_terms(*stack(rows))
        assert str(batch.value) == str(scalar.value) == "theta(A; p) = 0"

    def test_id1_broken_constraint_in_one_row(self):
        rows = ranked_draws(registry._id1_draw, 0, 40)[3][:6]
        t, z, B, p = rows[4]
        rows[4] = (t, [z[0] * 1.01] + z[1:], B, p)
        with pytest.raises(ValueError) as scalar:
            oracle_id1(*rows[4])
        with pytest.raises(ValueError) as batch:
            id1_terms(*stack(rows))
        assert str(batch.value) == str(scalar.value)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_extended_batch_matches_scalar_path(self, extended, name):
        draw, batched, oracle = CASES[name]
        for rows in ranked_draws(draw, 0, 5).values():
            assert isinstance(rows[0][-1], mpmath.mpc)
            terms, rel = batched(*stack(rows))
            for i, row in enumerate(rows):
                want_terms, want_rel = oracle(*row)
                for got, want in zip(terms[i], want_terms):
                    assert abs(got - want) <= 1e-30 * abs(want)
                assert abs(rel[i] - want_rel) <= 1e-30

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_extended_single_draw(self, extended, name):
        # one unstacked draw: products of mpmath numbers are mpmath scalars
        draw, batched, oracle = CASES[name]
        row = next(iter(ranked_draws(draw, 0, 3).values()))[0]
        terms, rel = batched(*row)
        want_terms, want_rel = oracle(*row)
        for got, want in zip(terms, want_terms):
            assert abs(got - want) <= 1e-30 * abs(want)
        assert abs(rel - want_rel) <= 1e-30

    def test_extended_single_draw_shift_coefficients(self, extended):
        t, _, B, p = ranked_draws(registry._id1_draw, 0, 3)[3][0]
        got = an_shift_coefficients(t, B, p)
        for g, w in zip(got, oracle_shift_coefficients(t, B, p)):
            assert abs(g - w) <= 1e-30 * abs(w)

    def test_id1_cross_ratio_on_the_zero_lattice(self):
        # t_0/t_1 = p^-2, where theta vanishes; theta_vec gives a rounding
        # error there, the argument test of the guard catches it
        rows = ranked_draws(registry._id1_draw, 0, 40)[2][:6]
        t, z, B, p = rows[1]
        rows[1] = ((p ** -2, 1.0 + 0j, t[2]), z, B, p)
        with pytest.raises(DegenerateConfiguration) as scalar:
            oracle_id1(*rows[1])
        for args in (rows[1], stack(rows)):
            with pytest.raises(DegenerateConfiguration) as batch:
                id1_terms(*args)
            assert str(batch.value) == str(scalar.value) == "t_r/t_j collision"

    def test_id3_theta_abt_on_the_zero_lattice(self):
        rows = ranked_draws(registry._id3_draw, 0, 40)[1][:6]
        t, f, p = rows[0]
        # A B t_1 = p^3 exactly up to rounding: t_1 absorbs the difference
        AB = prod(t) * prod(f)
        t1 = cmath.sqrt(p ** 3 / (AB / t[1]))
        rows[0] = ((t[0], t1), f, p)
        with pytest.raises(DegenerateConfiguration) as batch:
            id3_parts(*stack(rows))
        assert str(batch.value) == "theta(A B t_j; p) = 0"

    def test_check_sees_every_draw_once_in_rank_batches(self):
        def draw(smp):
            n = smp.rng.randint(1, 3)
            return n, (n, smp.rng.random())

        seen = []

        def relative(rows):
            assert len({n for n, _ in rows}) == 1
            assert len(rows) <= registry._BATCH
            seen.extend(rows)
            return [v for _, v in rows]

        rep = registry._identity_check(registry.CheckOptions(seed=3), 1.0,
                                       "x", draw, relative)
        smp = registry.Sampler(3)
        want = [draw(smp)[1] for _ in range(1000)]
        assert sorted(seen) == sorted(want)
        assert rep.lhs == max(v for _, v in want)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_checks_make_no_scalar_theta_call(self, monkeypatch, name):
        calls = []

        def counting(fn):
            def wrapper(*args):
                calls.append(args)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(identities, "theta", counting(identities.theta))
        monkeypatch.setattr(core, "theta", counting(core.theta))
        rows = registry.run_check(name, registry.CheckOptions(seed=0))
        assert rows[0].passed and calls == []

    @pytest.mark.parametrize("name,builder,evaluations,theta_vec_calls", [
        ("ident", "riemann_terms", 8, 8),
        ("id1", "id1_terms", 9, 18),
        ("id2", "partial_fraction_parts", 1000, 0),
        ("id3", "id3_parts", 9, 9),
    ])
    def test_one_term_evaluation_per_batch(self, monkeypatch, name, builder,
                                           evaluations, theta_vec_calls):
        """At seed 0 the 1000 draws of ident, id1 and id3 come in 8, 9 and 9
        rank batches, and id2 evaluates one draw at a time: each batch's
        terms are evaluated once, for its residual and its scale alike (id1
        takes its coefficients in a theta_vec call of their own)."""
        counts = {builder: 0, "theta_vec": 0}

        def counting(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(registry, builder,
                            counting(builder, getattr(registry, builder)))
        monkeypatch.setattr(identities, "theta_vec",
                            counting("theta_vec", identities.theta_vec))
        rows = registry.run_check(name, registry.CheckOptions(seed=0))
        assert rows[0].passed
        assert counts == {builder: evaluations, "theta_vec": theta_vec_calls}


class TestReaders:
    def test_readers_give_the_bits_of_their_formulas(self, moduli):
        """Each reader of an identity's one evaluation gives, on one draw,
        the bits of the residual, scale, sides or condition it reads."""
        smp = registry.Sampler(0)
        terms = riemann_terms(*registry._ident_draw(smp)[1])
        first, second, rhs = terms
        assert riemann_identity_residual(terms) == (first - second) - rhs
        assert riemann_identity_scale(terms) == max(map(abs, terms))

        terms = id1_terms(*registry._id1_draw(smp)[1])
        assert id1_residual(terms) == tree_sum(list(terms)) - 1.0
        assert id1_scale(terms) == max([1.0] + [abs(v) for v in terms])

        for parts, residual, scale in (
                (partial_fraction_parts(*registry._id2_draw(smp)[1]),
                 partial_fraction_residual, partial_fraction_scale),
                (id3_parts(*registry._id3_draw(smp)[1]),
                 id3_residual, id3_scale)):
            lhs, terms = parts
            assert residual(lhs, terms) == lhs - tree_sum(list(terms))
            assert scale(lhs, terms) == max([abs(lhs)]
                                            + [abs(v) for v in terms])

        q = moduli.q
        t1, t2 = 0.6 + 0.2j, 0.5 - 0.3j
        for parts, sides, condition in (
                (milne_parts((0.55 + 0.1j, 0.6 - 0.2j), 0.6, 0.7j, 0.5,
                             (1, 2), moduli),
                 milne_sum_sides, milne_condition),
                (gustafson_rakha_parts((t1, t2, q ** -3 / (t1 * t2)),
                                       (0.6, 0.7j, 0.5), 0.55, 3, moduli),
                 gustafson_rakha_sum_sides, gustafson_rakha_condition)):
            terms, rhs = parts
            total = tree_sum(terms)
            assert sides(terms, rhs) == (total, rhs)
            assert condition(terms) == max(map(abs, terms)) / abs(total)


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
