"""Integrand builders, symmetries, closed forms, and serialization."""

import cmath
import functools
import itertools
import json

import numpy as np
import pytest

from ehv.core import Moduli, theta_multi
from ehv.gamma import elliptic_gamma_multi
from ehv.integrands import (
    FactorIntegrand,
    Family,
    IntegrandSpec,
    Kind,
    ParamSet,
    _grid_view,
    make_an_trans_integrand,
    make_integrand,
    rhs_closed_form,
    validate_domain,
)
from ehv.params import load_params, spec_from_params, spec_to_params


def prod(seq):
    return functools.reduce(lambda a, b: a * b, seq, 1.0 + 0.0j)


def on_circle(rng):
    return cmath.exp(2j * cmath.pi * rng.random())


class TestValidation:
    def test_e_family_small_product_fails(self):
        m = Moduli(0.3, 0.3)
        spec = IntegrandSpec(Family.E, 1, ParamSet(t=(0.5,) * 5), m)
        result = validate_domain(spec)
        # |A| = 0.03125 < |pq| = 0.09
        assert not result.ok

    def test_e_family_large_product_passes(self):
        m = Moduli(0.3, 0.3)
        spec = IntegrandSpec(Family.E, 1, ParamSet(t=(0.8,) * 5), m)
        assert validate_domain(spec).ok

    def test_cn3_coupling_bound(self, moduli):
        spec = IntegrandSpec(
            Family.CN_III, 1,
            ParamSet(t=(0.6, 0.6, 0.6), x=(0.5,), extras={"t": 0.55}), moduli)
        result = validate_domain(spec)
        assert not result.ok
        assert "|t| < |x_0|" in result.failures()

    def test_parameter_counts_enforced(self, moduli):
        with pytest.raises(ValueError):
            IntegrandSpec(Family.E, 1, ParamSet(t=(0.5,) * 4), moduli)
        with pytest.raises(ValueError):
            IntegrandSpec(Family.CN_I, 2, ParamSet(t=(0.5,) * 6), moduli)
        with pytest.raises(ValueError):
            IntegrandSpec(Family.AN_II, 1, ParamSet(t=(0.5,) * 5), moduli)

    def test_zero_parameter_rejected(self):
        with pytest.raises(ValueError):
            ParamSet(t=(0.5, 0.0))

    @pytest.mark.parametrize("family,n,params,unread", [
        (Family.E, 1, dict(t=(0.5,) * 5, extras={"t": 0.3}), "extra 't'"),
        (Family.CN_I, 1, dict(t=(0.5,) * 5, extras={"N": 4}), "extra 'N'"),
        (Family.CN_II, 1, dict(t=(0.5,) * 5, extras={"t": 0.3, "s": 0.4}),
         "extra 's'"),
        (Family.AN_I, 1, dict(t=(0.5,) * 2, f=(0.6,) * 3, x=(0.7,)),
         "sequence x"),
        (Family.CN_III, 1, dict(t=(0.5,) * 3, x=(0.7,), f=(0.6,),
                                extras={"t": 0.3}), "sequence f"),
        (Family.AN_III, 1, dict(t=(0.5,) * 5, extras={"t": 0.3, "s": 0.4}),
         "extra 's'"),
    ])
    def test_unread_parameters_rejected(self, moduli, family, n, params,
                                        unread):
        """An extra or a sequence the family's integrand never reads is
        refused, so no sweep or file can vary a parameter that does not
        enter the integral."""
        with pytest.raises(ValueError, match=f"does not read {unread}"):
            IntegrandSpec(family, n, ParamSet(**params), moduli)


class TestDeltaE:
    def make(self, rng, arg, moduli):
        return IntegrandSpec(Family.E, 1,
                             ParamSet(t=tuple(arg(rng, 0.35, 0.8)
                                              for _ in range(5))), moduli)

    def test_inversion_symmetry(self, rng, arg, moduli):
        spec = self.make(rng, arg, moduli)
        z = 0.9 * on_circle(rng)
        ig = make_integrand(spec)
        a, b = ig((z,)), ig((1.0 / z,))
        assert abs(a - b) <= 1e-12 * abs(a)

    def test_base_swap_symmetry(self, rng, arg, moduli):
        spec = self.make(rng, arg, moduli)
        sw = IntegrandSpec(Family.E, 1, spec.params, moduli.swapped())
        z = on_circle(rng)
        a, b = make_integrand(spec)((z,)), make_integrand(sw)((z,))
        assert abs(a - b) <= 1e-12 * abs(a)

    def test_mesh_agrees_with_scalar(self, rng, arg, moduli):
        spec = self.make(rng, arg, moduli)
        ig = make_integrand(spec)
        vals = ig.mesh_eval(16)
        for k in (1, 5, 11):
            z = cmath.exp(2j * cmath.pi * k / 16)
            assert abs(vals[k] - ig((z,))) <= 1e-11 * abs(vals[k])


def _gather(tab, evec):
    """tab[(e . k) mod N] on the grid by an index array: the oracle of
    _grid_view."""
    N = tab.size
    ks = np.meshgrid(*[np.arange(N)] * len(evec), indexing="ij")
    return tab[np.mod(sum(e * k for e, k in zip(evec, ks)), N)]


def _gathered_mesh(ig, N):
    """The integrand on the N^n grid by one index gather per exponent
    vector, multiplied in table order: the oracle of mesh_eval."""
    out = np.ones((N,) * ig.n, dtype=complex)
    for evec, tab in ig._tables(N).items():
        out = out * _gather(tab, evec)
    return out


class TestGridView:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("N", [8, 12])
    def test_equals_the_gather_bit_for_bit(self, n, N):
        tab = np.exp(1j * np.arange(N)) * (1 + np.arange(N))
        for evec in itertools.product(range(-2, 3), repeat=n):
            view = _grid_view(tab, evec)
            assert view.shape == (N,) * n and not view.flags.writeable
            assert np.array_equal(view, _gather(tab, evec)), evec

    @pytest.mark.parametrize("family,n", [
        (Family.E, 1), (Family.CN_III, 1), (Family.AN_II, 1),
        (Family.CN_I, 2), (Family.CN_III, 2), (Family.AN_I, 2),
        (Family.AN_III, 2), (Family.CN_II, 3), (Family.AN_I, 3),
    ])
    def test_mesh_matches_the_gather(self, rng, arg, moduli, family, n):
        from ehv.registry import Sampler, _draw_spec

        if n <= 2:
            spec = _draw_spec(Sampler(rng.randint(0, 10 ** 6)), family, n)
        else:       # the rank-3 samplers reject most draws
            t = {Family.CN_II: 5, Family.AN_I: n + 1}[family]
            f = n + 2 if family is Family.AN_I else 0
            extras = {"t": 0.4} if family is Family.CN_II else {}
            spec = IntegrandSpec(family, n, ParamSet(
                t=tuple(arg(rng, 0.6, 0.85) for _ in range(t)),
                f=tuple(arg(rng, 0.6, 0.85) for _ in range(f)),
                extras=extras), moduli)
        ig = make_integrand(spec)
        N = 12 if n == 3 else 48
        got, want = ig.mesh_eval(N), _gathered_mesh(ig, N)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


class TestCnFamilies:
    def test_e_is_cn1_rank_one(self, rng, arg):
        # E is C_1 of type I: the same factor list and closed form, bit for
        # bit, and the closed form is the former E-only scalar-Gamma product
        # to 1e-13
        from ehv.core import qpochhammer

        for moduli in (Moduli(0.31, 0.23), Moduli(0.8, 0.1),
                       Moduli(0.5 + 0.3j, 0.2 - 0.1j)):
            for _ in range(5):
                t = tuple(arg(rng, 0.5, 0.9) for _ in range(5))
                e = IntegrandSpec(Family.E, 1, ParamSet(t=t), moduli)
                c1 = IntegrandSpec(Family.CN_I, 1, ParamSet(t=t), moduli)
                assert (repr(make_integrand(e).factors)
                        == repr(make_integrand(c1).factors))
                assert repr(rhs_closed_form(e)) == repr(rhs_closed_form(c1))
                G = lambda z: elliptic_gamma_multi([z], moduli)
                A = prod(t)
                want = 2.0 / (qpochhammer(moduli.q, moduli.q)
                              * qpochhammer(moduli.p, moduli.p))
                for i in range(5):
                    for j in range(i + 1, 5):
                        want *= G(t[i] * t[j])
                for i in range(5):
                    want /= G(A / t[i])
                assert abs(rhs_closed_form(e) - want) <= 1e-13 * abs(want)

    def test_hyperoctahedral_invariance(self, rng, arg, moduli):
        spec = IntegrandSpec(Family.CN_I, 2,
                             ParamSet(t=tuple(arg(rng, 0.72, 0.85)
                                              for _ in range(7))), moduli)
        ig = make_integrand(spec)
        for _ in range(20):
            z = (on_circle(rng), on_circle(rng))
            v = ig(z)
            assert abs(ig((z[1], z[0])) - v) <= 1e-12 * abs(v)
            assert abs(ig((1 / z[0], z[1])) - v) <= 1e-12 * abs(v)

    def test_cn2_unit_coupling_factorizes(self, rng, arg, moduli):
        t5 = tuple(arg(rng, 0.5, 0.8) for _ in range(5))
        spec = IntegrandSpec(Family.CN_II, 2,
                             ParamSet(t=t5, extras={"t": 1.0 + 0.0j}), moduli)
        especs = IntegrandSpec(Family.E, 1, ParamSet(t=t5), moduli)
        z = (0.97 * on_circle(rng), on_circle(rng))
        got = make_integrand(spec)(z)
        ie = make_integrand(especs)
        want = ie((z[0],)) * ie((z[1],))
        assert abs(got - want) <= 1e-11 * abs(want)

    def test_cn3_rank1_equals_delta_e(self, rng, arg, moduli):
        x1 = arg(rng, 0.55, 0.8)
        t3 = tuple(arg(rng, 0.5, 0.75) for _ in range(3))
        tc = arg(rng, 0.15, 0.4)
        spec = IntegrandSpec(Family.CN_III, 1,
                             ParamSet(t=t3, x=(x1,), extras={"t": tc}), moduli)
        espec = IntegrandSpec(Family.E, 1,
                              ParamSet(t=(x1,) + t3 + (tc / x1,)), moduli)
        z = on_circle(rng)
        got = make_integrand(spec)((z,))
        want = make_integrand(espec)((z,))
        assert abs(got - want) <= 1e-11 * abs(want)

    def test_cn3_base_swap_asymmetric(self, rng, arg, moduli):
        spec = IntegrandSpec(
            Family.CN_III, 2,
            ParamSet(t=(0.5, 0.6, 0.55), x=(0.7, 0.75), extras={"t": 0.4}),
            moduli)
        sw = IntegrandSpec(Family.CN_III, 2, spec.params, moduli.swapped())
        z = (cmath.exp(0.6j), cmath.exp(-1.2j))
        v1 = make_integrand(spec)(z)
        v2 = make_integrand(sw)(z)
        assert abs(v1 - v2) > 1e-3 * abs(v1)

    def test_cn2_rank1_rhs_equals_e_rhs(self, rng, arg, moduli):
        t5 = tuple(arg(rng, 0.55, 0.8) for _ in range(5))
        spec = IntegrandSpec(Family.CN_II, 1,
                             ParamSet(t=t5, extras={"t": arg(rng, 0.2, 0.5)}),
                             moduli)
        espec = IntegrandSpec(Family.E, 1, ParamSet(t=t5), moduli)
        a = rhs_closed_form(spec)
        b = rhs_closed_form(espec)
        assert abs(a - b) <= 1e-12 * abs(b)


class TestAnFamilies:
    def test_an1_rank1_equals_delta_e(self, rng, arg, moduli):
        t2 = tuple(arg(rng, 0.45, 0.75) for _ in range(2))
        f3 = tuple(arg(rng, 0.45, 0.75) for _ in range(3))
        spec = IntegrandSpec(Family.AN_I, 1, ParamSet(t=t2, f=f3), moduli)
        espec = IntegrandSpec(Family.E, 1, ParamSet(t=t2 + f3), moduli)
        z = on_circle(rng)
        got = make_integrand(spec)((z,))
        want = make_integrand(espec)((z,))
        assert abs(got - want) <= 1e-11 * abs(want)

    def test_permutation_with_constrained_variable(self, rng, arg, moduli):
        t3 = tuple(arg(rng, 0.5, 0.75) for _ in range(3))
        f4 = tuple(arg(rng, 0.5, 0.75) for _ in range(4))
        spec = IntegrandSpec(Family.AN_I, 2, ParamSet(t=t3, f=f4), moduli)
        z1, z2 = on_circle(rng), on_circle(rng)
        z3 = 1.0 / (z1 * z2)
        ig = make_integrand(spec)
        v = ig((z1, z2))
        # swapping the free variables and absorbing the constrained one
        assert abs(ig((z2, z1)) - v) <= 1e-12 * abs(v)
        assert abs(ig((z3, z2)) - v) <= 1e-12 * abs(v)
        assert abs(ig((z1, z3)) - v) <= 1e-12 * abs(v)


def _cn_display(family, n, ps, z, m):
    """(Gamma numerator, Gamma denominator, prefactor) of the C_n display:
    prod_j prod_c Gamma(c z_j^{+-1}) / (Gamma(z_j^{+-2}) Gamma(A z_j^{+-1}))
    times the pair factors in z_j^{+-1} z_k^{+-1} of each type."""
    t, tc = ps.t, ps.extras.get("t")
    if family is Family.CN_II:
        A = tc ** (2 * n - 2) * prod(t)
    elif family is Family.CN_III:
        A = tc * prod(t) * m.q ** (n - 1)
    else:
        A = prod(t)
    num, den, pre = [], [], 1.0
    for j, w in enumerate(z):
        axis = (ps.x[j], *t, tc / ps.x[j]) if family is Family.CN_III else t
        num += [c * w for c in axis] + [c / w for c in axis]
        den += [w * w, 1 / (w * w), A * w, A / w]
    for j in range(n):
        for k in range(j + 1, n):
            if family is Family.CN_III:
                # z_k theta(z_j/z_k, 1/(z_j z_k); p), the ordered prefactor
                pre *= z[k] * theta_multi([z[j] / z[k], 1 / (z[j] * z[k])],
                                          m.p)
                continue
            cross = [z[j] * z[k], z[j] / z[k], z[k] / z[j], 1 / (z[j] * z[k])]
            den += cross
            if family is Family.CN_II:
                num += [tc * v for v in cross]
    return num, den, pre


def _an_display(family, n, ps, z):
    """(Gamma numerator, Gamma denominator) of the A_n display on the torus
    z_1...z_{n+1} = 1: the per-variable factors, the pair factors in
    z_i z_j, and 1/Gamma(z_i/z_j) for i != j."""
    zs = list(z) + [1 / prod(z)]
    t, tc, s = ps.t, ps.extras.get("t"), ps.extras.get("s")
    num = []
    den = [zs[i] / zs[j] for i in range(n + 1) for j in range(n + 1) if i != j]
    for w in zs:
        if family is Family.AN_I:
            num += [c / w for c in t] + [c * w for c in ps.f]
            den.append(prod(t) * prod(ps.f) * w)
        elif family is Family.AN_II:
            num += [c * w for c in t[:3]] + [c / w for c in t[3:]]
            den.append((tc * s) ** (n - 1) * prod(t) * w)
        else:
            num += [c / w for c in t[:n + 1]] + [tc * c * w for c in t[n + 1:]]
            den.append(tc ** (n + 2) * prod(t) / w)
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            if family is Family.AN_II:
                num += [tc * zs[i] * zs[j], s / (zs[i] * zs[j])]
            elif family is Family.AN_III:
                num.append(tc * zs[i] * zs[j])
    return num, den


def _an_transform_display(tg, f, s, z):
    """(Gamma numerator, Gamma denominator) of one side of the f <-> s
    transformation: Gamma(t f_j / z_k, s_j z_k) over
    Gamma(z_i/z_j) (i != j) Gamma(t^{n+1} S z_k, t B / z_k)."""
    n = len(z)
    zs = list(z) + [1 / prod(z)]
    num = [tg * c / w for w in zs for c in f] + [c * w for w in zs for c in s]
    den = [zs[i] / zs[j] for i in range(n + 1) for j in range(n + 1) if i != j]
    den += [tg ** (n + 1) * prod(s) * w for w in zs]
    den += [tg * prod(f) / w for w in zs]
    return num, den


_TRANSCRIBED = ([(Family.E, 1)]
                + [(fam, n) for fam in (Family.CN_I, Family.CN_II, Family.CN_III,
                                        Family.AN_I, Family.AN_II, Family.AN_III)
                   for n in (1, 2, 3)]
                + [("an_transform", 1), ("an_transform", 2)])


class TestTranscription:
    """Every factor list at one torus point against a direct transcription
    of its display in elliptic_gamma_multi and theta, no factor engine."""

    @pytest.mark.parametrize(
        "case,n", _TRANSCRIBED,
        ids=[f"{getattr(c, 'value', c)}-{n}" for c, n in _TRANSCRIBED])
    def test_against_independent_transcription(self, rng, arg, moduli, case, n):
        draw = lambda k: tuple(arg(rng, 0.5, 0.75) for _ in range(k))
        z = tuple(on_circle(rng) for _ in range(n))
        pre = 1.0
        if case == "an_transform":
            tg, f, s = arg(rng, 0.5, 0.75), draw(n + 2), draw(n + 2)
            got = make_an_trans_integrand(tg, f, s, prod(f), prod(s), moduli)(z)
            num, den = _an_transform_display(tg, f, s, z)
        else:
            nt = {Family.E: 5, Family.CN_I: 2 * n + 3, Family.CN_II: 5,
                  Family.CN_III: 3, Family.AN_I: n + 1, Family.AN_II: 5,
                  Family.AN_III: n + 4}[case]
            t, f = draw(nt), draw(n + 2) if case is Family.AN_I else ()
            x = draw(n) if case is Family.CN_III else ()
            extras = {"t": arg(rng, 0.3, 0.45), "s": arg(rng, 0.5, 0.75)}
            reads = {Family.E: "", Family.CN_I: "", Family.AN_I: "",
                     Family.AN_II: "ts"}.get(case, "t")
            ps = ParamSet(t=t, f=f, x=x,
                          extras={k: extras[k] for k in reads})
            got = make_integrand(IntegrandSpec(case, n, ps, moduli))(z)
            if case.value.startswith("Cn") or case is Family.E:
                num, den, pre = _cn_display(case, n, ps, z, moduli)
            else:
                num, den = _an_display(case, n, ps, z)
        want = (pre * elliptic_gamma_multi(num, moduli)
                / elliptic_gamma_multi(den, moduli))
        assert abs(got - want) <= 1e-11 * abs(want)


class TestWeylInvariance:
    """Pointwise symmetry-group invariance, 100 random points per family."""

    @staticmethod
    def _spec(rng, arg, moduli, family, n):
        from ehv.registry import Sampler, _draw_spec

        if n <= 2:
            return _draw_spec(Sampler(rng.randint(0, 10 ** 6)), family, n)
        # the rank-3 samplers reject most draws, and a symmetry of the
        # integrand needs no admissible parameters
        draw = lambda k: tuple(arg(rng, 0.6, 0.9) for _ in range(k))
        t = {Family.AN_I: n + 1, Family.AN_II: 5, Family.AN_III: n + 4}[family]
        t, f = draw(t), draw(n + 2) if family is Family.AN_I else ()
        extras = {"t": arg(rng, 0.6, 0.9), "s": arg(rng, 0.6, 0.9)}
        reads = {Family.AN_I: "", Family.AN_II: "ts", Family.AN_III: "t"}
        return IntegrandSpec(family, n, ParamSet(
            t=t, f=f, extras={k: extras[k] for k in reads[family]}), moduli)

    @staticmethod
    def _transposed(ig, z):
        """The integrand at z with each pair of the n+1 constrained
        variables (z_1, ..., z_n, 1/(z_1...z_n)) swapped."""
        full = list(z) + [1 / np.prod(z)]
        for i in range(len(full)):
            for j in range(i + 1, len(full)):
                w = list(full)
                w[i], w[j] = w[j], w[i]
                yield ig(tuple(w[:-1]))

    @pytest.mark.parametrize("family,n", [
        (Family.CN_I, 2), (Family.CN_II, 2), (Family.CN_III, 2),
        (Family.AN_I, 2), (Family.AN_II, 2), (Family.AN_III, 2),
        (Family.AN_I, 3), (Family.AN_II, 3), (Family.AN_III, 3),
    ])
    def test_invariance_100_points(self, rng, arg, moduli, family, n):
        # the manifest action per display: full hyperoctahedral for the
        # plain C_n types; inversions only for the determinant-derived type
        # (its theta prefactor and per-axis x_i are order-attached);
        # permutations of the n+1 constrained variables for the A_n types,
        # which is what the factor-multiset check proves from the factors
        spec = self._spec(rng, arg, moduli, family, n)
        ig = make_integrand(spec)
        worst = 0.0
        for _ in range(100):
            z = tuple(on_circle(rng) for _ in range(n))
            v = ig(z)
            if family in (Family.CN_I, Family.CN_II):
                worst = max(worst, abs(ig((z[1], z[0])) - v) / abs(v),
                            abs(ig((1 / z[0], z[1])) - v) / abs(v))
            elif family is Family.CN_III:
                worst = max(worst, abs(ig((1 / z[0], z[1])) - v) / abs(v),
                            abs(ig((z[0], 1 / z[1])) - v) / abs(v),
                            abs(ig((1 / z[0], 1 / z[1])) - v) / abs(v))
            else:
                worst = max([worst] + [abs(w - v) / abs(v)
                                       for w in self._transposed(ig, z)])
        assert worst <= 1e-12, (family, worst)
        if family in (Family.AN_I, Family.AN_II, Family.AN_III):
            assert ig._weyl_invariant()

    def test_multiset_check_refuses_a_broken_symmetry(self, rng, arg, moduli):
        # one cross factor fewer: the oracle sees the symmetry broken, and
        # the multiset check does not claim it
        ig = make_integrand(self._spec(rng, arg, moduli, Family.AN_I, 3))
        cross = next(f for f in ig.factors
                     if f.kind is Kind.IGAMMA and f.c == 1)
        broken = FactorIntegrand(3, moduli, [f for f in ig.factors
                                             if f is not cross])
        assert not broken._weyl_invariant() and broken.path == "mesh"
        z = tuple(on_circle(rng) for _ in range(3))
        v = broken(z)
        assert max(abs(w - v) / abs(v)
                   for w in self._transposed(broken, z)) > 1e-3


class TestPointwiseShiftIdentity:
    def test_an1_integrand_satisfies_shift_combination(self, rng, arg, moduli):
        # sum_r c_r Delta(z; ..., q t_r, ...) reproduces Delta(z; t) at n=1
        from ehv.identities import an_shift_coefficients
        from ehv.integrands import make_an1_spec

        t = tuple(arg(rng, 0.6, 0.85) for _ in range(2))
        f = tuple(arg(rng, 0.6, 0.85) for _ in range(3))
        z = on_circle(rng)
        base = make_integrand(make_an1_spec(t, f, moduli))((z,))
        coeffs = an_shift_coefficients(
            t, make_an1_spec(t, f, moduli).product_B, moduli.p)
        total = 0.0 + 0.0j
        for r in range(2):
            tt = list(t)
            tt[r] = moduli.q * tt[r]
            total += coeffs[r] * make_integrand(
                make_an1_spec(tuple(tt), f, moduli))((z,))
        assert abs(total - base) <= 1e-12 * abs(base)


class TestSerialization:
    def test_round_trip(self, rng, arg, moduli, tmp_path):
        spec = IntegrandSpec(
            Family.CN_III, 2,
            ParamSet(t=tuple(arg(rng, 0.5, 0.8) for _ in range(3)),
                     x=(arg(rng, 0.6, 0.8), arg(rng, 0.6, 0.8)),
                     extras={"t": arg(rng, 0.2, 0.5)}), moduli)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_to_params(spec)))
        back = spec_from_params(load_params(path))
        assert back.family == spec.family and back.n == spec.n
        assert back.params.t == spec.params.t
        assert back.params.x == spec.params.x
        assert back.params.extras["t"] == spec.params.extras["t"]
        assert back.moduli == spec.moduli

    def test_pole_radius_reported(self, moduli):
        spec = IntegrandSpec(Family.E, 1, ParamSet(t=(0.6, 0.6, 0.7, 0.8, 0.6)),
                             moduli)
        r = validate_domain(spec).radius
        assert r == pytest.approx(0.8)     # the largest |t_m|
        bad = IntegrandSpec(Family.E, 1, ParamSet(t=(0.5, 0.6, 0.7, 0.8, 0.4)),
                            moduli)
        assert validate_domain(bad).radius > 1.0   # invalid domain: pole outside


# -- the per-family inequality chains the pole table replaced, kept as oracle --


def _oracle_margins(spec):
    """(name, margin) of every inequality, written out family by family."""
    ps, m = spec.params, spec.moduli
    pq = abs(m.p * m.q)
    out = []

    def lt1(vals, label):
        out.extend((f"|{label}_{i}| < 1", 1.0 - abs(v)) for i, v in enumerate(vals))

    fam = spec.family
    if fam in (Family.E, Family.CN_I):
        lt1(ps.t, "t")
        out.append(("|pq| < |A|", abs(spec.product_A) - pq))
    elif fam is Family.CN_II:
        lt1(ps.t, "t")
        out.append(("|t| < 1", 1.0 - abs(ps.extras["t"])))
        out.append(("|pq| < |B|", abs(spec.product_B) - pq))
    elif fam is Family.CN_III:
        lt1(ps.x, "x")
        lt1(ps.t, "t")
        tmod = abs(ps.extras["t"])
        out.extend((f"|t| < |x_{i}|", abs(xv) - tmod) for i, xv in enumerate(ps.x))
        out.append(("|pq| < |A|", abs(spec.product_A) - pq))
    elif fam is Family.AN_I:
        lt1(ps.t, "t")
        lt1(ps.f, "f")
        out.append(("|pq| < |AB|", abs(spec.product_A * spec.product_B) - pq))
    elif fam is Family.AN_II:
        lt1(ps.t, "t")
        out.append(("|t| < 1", 1.0 - abs(ps.extras["t"])))
        out.append(("|s| < 1", 1.0 - abs(ps.extras["s"])))
        out.append(("|pq| < |B|", abs(spec.product_B) - pq))
    elif fam is Family.AN_III:
        lt1(ps.t, "t")
        out.append(("|t| < 1", 1.0 - abs(ps.extras["t"])))
        out.append(("|pq| < |A|", abs(spec.product_A) - pq))
    return out


def _oracle_radius(spec):
    """Largest interior-pole modulus, written out family by family."""
    ps, m = spec.params, spec.moduli
    pq = abs(m.p * m.q)
    fam = spec.family
    if fam is Family.E or fam is Family.CN_I:
        return max([abs(v) for v in ps.t] + [pq / abs(spec.product_A)])
    if fam is Family.CN_II:
        return max([abs(v) for v in ps.t]
                   + [abs(ps.extras["t"]), pq / abs(spec.product_B)])
    if fam is Family.CN_III:
        tmod = abs(ps.extras["t"])
        return max([abs(v) for v in ps.t] + [abs(v) for v in ps.x]
                   + [tmod / abs(v) for v in ps.x]
                   + [pq / abs(spec.product_A)])
    if fam is Family.AN_I:
        return max([abs(v) for v in ps.t] + [abs(v) for v in ps.f]
                   + [pq / abs(spec.product_A * spec.product_B)])
    if fam is Family.AN_II:
        return max([abs(v) for v in ps.t]
                   + [abs(ps.extras["t"]), abs(ps.extras["s"]),
                      pq / abs(spec.product_B)])
    if fam is Family.AN_III:
        tmod = abs(ps.extras["t"])
        return max([abs(v) for v in ps.t]
                   + [tmod, pq / abs(spec.product_A)])


class TestPoleTable:
    SAMPLED = [(Family.E, 1)] + [
        (fam, n) for fam in (Family.CN_I, Family.CN_II, Family.CN_III,
                             Family.AN_I, Family.AN_II, Family.AN_III)
        for n in (1, 2, 3)]

    @staticmethod
    def _candidates(family, n, seed, count=60):
        """Every spec the family's sampler builds, accepted or rejected, each
        also with all parameters scaled out past |t| = 1 and in past |pq|."""
        from ehv.registry import Sampler, _draw_spec

        class Recorder(Sampler):
            def accept(self, draw, ok, screen=None):
                self.drawn = [draw() for _ in range(count)]
                return self.drawn[0]

        def scaled(spec, c):
            ps = spec.params
            return IntegrandSpec(spec.family, spec.n, ParamSet(
                t=[c * v for v in ps.t], x=[c * v for v in ps.x],
                f=[c * v for v in ps.f],
                extras={k: c * v for k, v in ps.extras.items()}), spec.moduli)

        rec = Recorder(seed)
        _draw_spec(rec, family, n)
        return [scaled(spec, c) for spec in rec.drawn for c in (1.0, 1.15, 0.5)]

    @pytest.mark.parametrize("family,n", SAMPLED)
    def test_table_equals_family_chains(self, family, n):
        verdicts = set()
        for seed in (0, 1009):
            for spec in self._candidates(family, n, seed):
                vd = validate_domain(spec)
                margins = _oracle_margins(spec)
                assert vd.radius == _oracle_radius(spec)
                assert [(c.name, c.margin) for c in vd.checks] == margins
                assert vd.ok == all(mg > 0 for _, mg in margins)
                verdicts.add(vd.ok)
        assert False in verdicts   # rejected draws are covered too

    def test_an_transform_margins(self, moduli):
        from ehv.integrands import an_trans_domain_check
        from ehv.registry import Sampler

        smp = Sampler(0)
        pq = abs(moduli.p * moduli.q)
        for _ in range(50):
            tg, f, s = (smp.arg(0.3, 0.7), smp.args(3, 0.4, 0.9),
                        smp.args(3, 0.4, 0.9))
            want = [("|t| < 1", 1.0 - abs(tg))]
            want += [(f"|f_{i}| < 1", 1.0 - abs(v)) for i, v in enumerate(f)]
            want += [(f"|s_{i}| < 1", 1.0 - abs(v)) for i, v in enumerate(s)]
            want.append(("|pq| < |t^(n+1) B|",
                         abs(prod(f)) * abs(tg) ** 2 - pq))
            want.append(("|pq| < |t^(n+1) S|",
                         abs(prod(s)) * abs(tg) ** 2 - pq))
            got = an_trans_domain_check(tg, f, s, moduli)
            assert [(c.name, c.margin) for c in got.checks] == want
