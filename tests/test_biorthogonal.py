"""Biorthogonal families: series/recurrence/operator consistency and the
scalar-product structure against the beta weight."""

import cmath
import random

import numpy as np
import pytest

from ehv.core import Moduli, theta
from ehv.errors import InadmissibleContour
from ehv.biorthogonal import (
    OperatorGauge,
    RahmanParams,
    R_n,
    R_nm,
    T_n,
    V_coeff,
    _factorial_rows,
    _family_rows,
    apply_D,
    biorth_value,
    contour_check,
    eigen_residual,
    gauge_ratio,
    kappa_coeff,
    norm_h,
    recurrence_next,
    shifted_beta_sides,
    twelveV_integral_rep_sides,
)
from ehv.integrands import FactorIntegrand, mesh_sums
from ehv.quadrature import QuadratureConfig


@pytest.fixture(scope="module")
def rp():
    rr = random.Random(2)
    ph = lambda: cmath.exp(2j * cmath.pi * rr.random())
    t = (0.85 * ph(), 0.83 * ph(), 0.86 * ph(), 0.84 * ph(), 0.45 * ph())
    return RahmanParams(t=t, moduli=Moduli(0.8, 0.1))


CFG = QuadratureConfig(nodes_per_dim=512, max_doublings=2, rel_tol=1e-11)


class TestFamilies:
    def test_r0_is_one(self, rp):
        assert R_n(cmath.exp(0.3j), 0, rp) == 1.0
        assert T_n(cmath.exp(0.3j), 0, rp) == 1.0

    def test_inversion_symmetry(self, rp, rng):
        z = cmath.exp(2j * cmath.pi * rng.random())
        for n in (1, 2, 3):
            a, b = R_n(z, n, rp), R_n(1.0 / z, n, rp)
            assert abs(a - b) <= 1e-12 * abs(a)

    def test_node_array_matches_scalar(self, rp):
        z = np.array([cmath.exp(0.37j), cmath.exp(-1.1j)])
        for n in (1, 3):
            vec = _family_rows(z, [n], rp, "R")[0]
            assert abs(vec[0] - R_n(z[0], n, rp)) <= 1e-13 * abs(vec[0])
            tvec = _family_rows(z, [n], rp, "T")[0]
            assert abs(tvec[1] - T_n(z[1], n, rp)) <= 1e-13 * abs(tvec[1])

    def test_dual_family_via_involution(self, rp):
        # T_n equals R_n after t4 -> pq/A
        z = cmath.exp(0.42j)
        pq = rp.moduli.p * rp.moduli.q
        rp_inv = RahmanParams(t=rp.t[:4] + (pq / rp.A,), moduli=rp.moduli)
        for n in (1, 2):
            a, b = T_n(z, n, rp), R_n(z, n, rp_inv)
            assert abs(a - b) <= 1e-12 * abs(a)

    def test_two_index_reductions(self, rp):
        z = cmath.exp(0.8j)
        assert R_nm(z, 0, 0, rp) == 1.0
        for n in (1, 2):
            assert R_nm(z, n, 0, rp) == pytest.approx(R_n(z, n, rp), rel=1e-13)

    def test_two_index_base_swap(self, rp):
        z = cmath.exp(0.8j)
        swapped = RahmanParams(t=rp.t, moduli=rp.moduli.swapped())
        a = R_nm(z, 1, 2, rp)
        b = R_nm(z, 2, 1, swapped)
        assert abs(a - b) <= 1e-12 * abs(a)

    def test_rationality_fiber(self, rp):
        # gamma(z') = gamma(z) is solved (numerically, Newton) near z' = pz;
        # R_n takes the same value on the fiber
        p = rp.moduli.p
        xi, eta = 1.3, 0.7 + 0.1j
        z0 = cmath.exp(0.37j)
        target = gauge_ratio(z0, xi, eta, p)

        def f(w):
            return gauge_ratio(w, xi, eta, p) - target

        w = p * z0 * (1 + 1e-3)        # perturbed start away from z0
        for _ in range(60):
            h = 1e-7 * abs(w)
            d = (f(w + h) - f(w - h)) / (2 * h)
            step = f(w) / d
            w -= step
            if abs(step) < 1e-14 * abs(w):
                break
        assert abs(f(w)) < 1e-11
        assert abs(w - z0) > 1e-3      # genuinely different point
        for n in (2, 3):
            a, b = R_n(z0, n, rp), R_n(w, n, rp)
            assert abs(a - b) <= 1e-9 * abs(a)


class TestRecurrence:
    def test_seed_step_ignores_r_minus_1(self, rp):
        z = cmath.exp(0.42j)
        a = recurrence_next(0.0, 1.0, 0, z, rp)
        b = recurrence_next(123.456, 1.0, 0, z, rp)
        assert a == b
        assert abs(a - R_n(z, 1, rp)) <= 1e-12 * abs(a)

    def test_matches_series_to_n5(self, rp):
        z = cmath.exp(0.42j)
        rs = [1.0 + 0.0j, R_n(z, 1, rp)]
        for n in range(1, 5):
            rs.append(recurrence_next(rs[n - 1], rs[n], n, z, rp))
        for n in range(2, 6):
            want = R_n(z, n, rp)
            assert abs(rs[n] - want) <= 1e-10 * abs(want)

    def test_gauge_independence(self, rp):
        z = cmath.exp(0.42j)
        gauges = [OperatorGauge(),
                  OperatorGauge(xi=0.9 + 0.2j, eta=1.4 - 0.1j),
                  OperatorGauge(xi=2.0, eta=0.3 + 0.4j)]
        seqs = []
        for g in gauges:
            rs = [1.0 + 0.0j, R_n(z, 1, rp)]
            for n in range(1, 5):
                rs.append(recurrence_next(rs[n - 1], rs[n], n, z, rp, g))
            seqs.append(rs)
        for n in range(6):
            spread = max(abs(seqs[0][n] - s[n]) for s in seqs[1:])
            assert spread <= 1e-12 * max(1.0, abs(seqs[0][n]))


class TestOperator:
    def test_mu_one_kills_constants(self, rp):
        assert kappa_coeff(1.0 + 0.0j, rp) == 0.0
        z = cmath.exp(1.1j)
        assert apply_D(lambda w: 1.0, z, 1.0 + 0.0j, rp) == 0.0

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_eigen_annihilation(self, rp, n):
        q = rp.moduli.q
        worst = 0.0
        for k in range(20):
            z = cmath.exp(2j * cmath.pi * (k + 0.381) / 20)
            val = apply_D(lambda w: R_n(w, n, rp), z, q ** n, rp)
            scale = max(abs(V_coeff(z, q ** n, rp)),
                        abs(V_coeff(1 / z, q ** n, rp)),
                        abs(kappa_coeff(q ** n, rp)))
            scale *= max(1.0, abs(R_n(z, n, rp)))
            worst = max(worst, abs(val) / scale)
        assert worst <= 1e-10

    def test_residual_separates_the_spectrum(self, rp):
        # R_n is annihilated at mu = q^n and not at q^(n+1), so the
        # operator check can fail
        q = rp.moduli.q
        z = cmath.exp(1.1j)
        for n in (1, 2, 3):
            f = lambda w: R_n(w, n, rp)
            assert eigen_residual(f, z, q ** n, rp) <= 1e-13
            assert eigen_residual(f, z, q ** (n + 1), rp) > 0.1

    @pytest.mark.parametrize("nm", [(1, 1), (2, 1), (2, 2)])
    def test_two_index_annihilated_by_both_operators(self, rp, nm):
        n, m = nm
        q, p = rp.moduli.q, rp.moduli.p
        mu = q ** n * p ** m
        z = cmath.exp(0.83j)
        f = lambda w: R_nm(w, n, m, rp)
        scale = abs(f(z))
        for base in ("q", "p"):
            val = apply_D(f, z, mu, rp, base=base)
            vscale = max(abs(V_coeff(z, mu, rp, base)),
                         abs(V_coeff(1 / z, mu, rp, base)),
                         abs(kappa_coeff(mu, rp, base))) * max(1.0, scale)
            assert abs(val) / vscale <= 1e-10


class TestContour:
    def test_base_domain_admissible(self, rp):
        chk = contour_check(0, 0, 0, 0, rp)
        assert chk.admissible

    def test_shifted_t4_inadmissible(self):
        rp = RahmanParams(t=(0.6, 0.6, 0.6, 0.6, 0.5), moduli=Moduli(0.3, 0.2))
        chk = contour_check(2, 0, 0, 0, rp)
        assert not chk.admissible
        assert abs(chk.worst_pole) == pytest.approx(0.5 / 0.09, rel=1e-12)

    def test_admissible_grid_scan(self, rp):
        # every cell of the 4x4 single-index grid fits the unit circle
        for n in range(4):
            for m in range(4):
                assert contour_check(m, n, 0, 0, rp).admissible


class TestBiorthogonality:
    def test_diagonal_cells(self, rp):
        cells = [(n, n, 0, 0) for n in (0, 1, 2, 3)]
        vals, expected, _, _ = biorth_value(cells, rp, CFG)
        for val, exp in zip(vals, expected):
            assert abs(val - exp) <= 1e-8 * abs(exp)

    def test_off_diagonal_cells(self, rp):
        scale = abs(min((abs(norm_h(j, rp)) for j in range(4)))
                    * rp.beta_value())
        cells = [(n, m, 0, 0) for n, m in ((1, 0), (0, 1), (3, 2), (2, 3))]
        vals, expected, _, _ = biorth_value(cells, rp, CFG)
        for val, exp in zip(vals, expected):
            assert exp == 0
            assert abs(val) <= 1e-8 * scale

    def test_norm_h0_reduces_to_beta_value(self, rp):
        assert norm_h(0, rp) == pytest.approx(1.0)
        _, (expected,), _, _ = biorth_value([(0, 0, 0, 0)], rp, CFG)
        assert abs(expected - rp.beta_value()) <= 1e-13 * abs(expected)

    def test_norm_two_display_forms_agree(self, rp):
        # theta(A q^{2n}/(q t4)) in one display vs theta(A q^{2n-1}/t4)
        q, p = rp.moduli.q, rp.moduli.p
        for n in (1, 2, 3):
            a = theta(rp.A * q ** (2 * n) / (q * rp.t[4]), p)
            b = theta(rp.A * q ** (2 * n - 1) / rp.t[4], p)
            assert abs(a - b) <= 1e-12 * abs(a)

    def test_norm_h2_zero_indices_match_single(self, rp):
        # the two-index norm, q-base factor times p-base factor, at l = 0
        for n in (0, 1, 2):
            assert norm_h(n, rp, "q") * norm_h(0, rp, "p") \
                == pytest.approx(norm_h(n, rp), rel=1e-13)

    def test_off_diagonal_cell_converges(self):
        # an exactly-zero cell stops at the rounding floor of the node sum
        from ehv.registry import default_rahman_params

        _, (expected,), _, res = biorth_value([(0, 1, 0, 0)],
                                              default_rahman_params(0), CFG)
        assert expected == 0
        assert res.converged and res.nodes_used == 1024

    def test_biorth2_mirror_sets_agree(self):
        # the pshift set is the qshift set with (q, p) swapped, and Gamma is
        # symmetric in (q, p): cell (n, m, 0, 0) of the one is (0, 0, m, n)
        # of the other
        from ehv.registry import biorth2_param_sets

        set_a, set_b = biorth2_param_sets(0)
        assert set_b.t == set_a.t and set_b.moduli == set_a.moduli.swapped()
        cfg = QuadratureConfig(nodes_per_dim=1024, max_doublings=2,
                               rel_tol=1e-11)
        pairs = [(0, 0), (1, 0), (0, 1), (1, 1)]
        va, ea, _, _ = biorth_value([(n, m, 0, 0) for n, m in pairs],
                                    set_a, cfg)
        vb, _, _, _ = biorth_value([(0, 0, m, n) for n, m in pairs],
                                   set_b, cfg)
        scale = abs(ea[0])
        assert max(abs(a - b) for a, b in zip(va, vb)) <= 1e-12 * scale

    def test_inadmissible_gate(self):
        rp = RahmanParams(t=(0.6, 0.6, 0.6, 0.6, 0.5), moduli=Moduli(0.3, 0.2))
        with pytest.raises(InadmissibleContour):
            biorth_value([(3, 2, 0, 0)], rp, CFG)


class TestIntegralRepresentation:
    def test_depth_zero_trivial(self, rp):
        (lhs,), (rhs,), _ = twelveV_integral_rep_sides(0.6, 0.55, [(0, 0)],
                                                       rp, CFG)
        assert lhs == pytest.approx(1.0)
        assert abs(rhs - 1.0) <= 1e-10

    @pytest.mark.parametrize("mn", [(1, 0), (2, 0), (0, 1)])
    def test_depths_match(self, rp, mn):
        m, n = mn
        use = rp if n == 0 else RahmanParams(t=rp.t,
                                             moduli=rp.moduli.swapped())
        (lhs,), (rhs,), _ = twelveV_integral_rep_sides(
            0.6 + 0.1j, 0.55 - 0.05j, [(m, n)], use, CFG)
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)

    def test_gate_for_structurally_deep_indices(self, rp):
        with pytest.raises(InadmissibleContour):
            twelveV_integral_rep_sides(0.6, 0.55, [(1, 1)], rp, CFG)


class TestShiftedWeight:
    def test_zero_shift_is_beta_integral(self, rp):
        (lhs,), (rhs,), _ = shifted_beta_sides([(0, 0)], rp, CFG)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)
        assert abs(rhs - rp.beta_value()) <= 1e-13 * abs(rhs)

    @pytest.mark.parametrize("ij", [(1, 0), (2, 0)])
    def test_q_shifts(self, rp, ij):
        (lhs,), (rhs,), _ = shifted_beta_sides([ij], rp, CFG)
        assert abs(lhs - rhs) <= 1e-8 * abs(rhs)

    def test_theta_factorial_form_agrees(self, rp):
        # third display: factorial ratios times the unshifted value
        from ehv.core import theta_factorial_multi

        i = 1
        _, (rhs,), _ = shifted_beta_sides([(i, 0)], rp, CFG)
        p, q = rp.moduli.p, rp.moduli.q
        t = rp.t
        A = rp.A
        num = theta_factorial_multi([t[0] * t[k] for k in range(1, 5)],
                                    p, q, i)
        den = theta_factorial_multi([A / t[k] for k in range(1, 5)], p, q, i)
        want = num / den * rp.beta_value()
        assert abs(rhs - want) <= 1e-11 * abs(want)

    def test_gate(self, rp):
        with pytest.raises(InadmissibleContour):
            shifted_beta_sides([(1, 1)], rp, CFG)


def _hand_written_gate(candidates):
    """The unit-circle gate over a candidate list written out by hand, as
    intrep and shifted_beta once kept their own: (admissible, worst pole,
    margin)."""
    worst = max(candidates, key=abs)
    margin = 1.0 - abs(worst)
    return margin >= 1e-6, worst, margin


class TestWeightShiftGram:
    @pytest.fixture(scope="class")
    def sets(self):
        from ehv.registry import intrep_param_sets

        rp_q, rp_p = intrep_param_sets(0)
        return [(rp_q, [(0, 0), (1, 0), (2, 0)]), (rp_p, [(0, 1), (0, 2)])]

    @pytest.mark.parametrize("sides", ["intrep", "shifted_beta"])
    def test_cells_equal_single_cell_calls(self, sets, sides):
        def call(cells, rp):
            if sides == "intrep":
                return twelveV_integral_rep_sides(0.6 + 0.1j, 0.55 - 0.05j,
                                                  cells, rp, CFG)
            return shifted_beta_sides(cells, rp, CFG)

        for rp, cells in sets:
            lhs, rhs, res = call(cells, rp)
            assert len(lhs) == len(rhs) == len(cells)
            for cell, lhs_c, rhs_c in zip(cells, lhs, rhs):
                (lhs_1,), (rhs_1,), res_1 = call([cell], rp)
                assert repr((lhs_c, rhs_c)) == repr((lhs_1, rhs_1))
                assert res.nodes_used == res_1.nodes_used == 1024

    @pytest.mark.parametrize("check", ["intrep", "shifted_beta"])
    def test_one_driver_call_per_parameter_set(self, monkeypatch, check):
        import ehv.biorthogonal as bo
        from ehv.registry import CheckOptions, run_check

        calls = []
        driver = bo.integrate_mesh_fn

        def counting(*args, **kwargs):
            calls.append(1)
            return driver(*args, **kwargs)

        monkeypatch.setattr(bo, "integrate_mesh_fn", counting)
        rows = run_check(check, CheckOptions(seed=0))
        assert len(rows) == 5 and all(r.passed for r in rows)
        assert len(calls) == 2

    def test_gate_equals_the_hand_written_lists(self):
        # intrep listed t_0..t_4 and A^-1 q^(1-m) p^(1-n); shifted_beta
        # added t_0 q^m p^n, never larger in modulus than t_0
        rr = random.Random(8)
        seen = set()
        for k in range(60):
            moduli = [Moduli(0.8, 0.1), Moduli(0.1, 0.8),
                      Moduli(0.5 + 0.3j, 0.2 - 0.1j)][k % 3]
            t = tuple(rr.uniform(0.3, 0.97)
                      * cmath.exp(2j * cmath.pi * rr.random())
                      for _ in range(5))
            try:
                rp = RahmanParams(t=t, moduli=moduli)
            except ValueError:
                continue
            q, p, A = moduli.q, moduli.p, rp.A
            for m in range(3):
                for n in range(3):
                    last = q ** (1 - m) * p ** (1 - n) / A
                    chk = contour_check(0, m, 0, n, rp)
                    got = (chk.admissible, chk.worst_pole, chk.worst_margin)
                    assert got == _hand_written_gate(list(t) + [last])
                    assert got == _hand_written_gate(
                        list(t) + [t[0] * q ** m * p ** n, last])
                    seen.add(((m, n), chk.admissible))
        assert ((1, 1), False) in seen and ((0, 0), True) in seen


def _gram_meshes(check, seed):
    """The mesh builders the Gram integrals of one check call hand the
    driver, in order."""
    import ehv.biorthogonal as bo
    from ehv.registry import CheckOptions, run_check

    meshes = []
    driver = bo.integrate_mesh_fn

    def recording(mesh, n, cfg=None):
        meshes.append(mesh)
        return driver(mesh, n, cfg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bo, "integrate_mesh_fn", recording)
        run_check(check, CheckOptions(seed=seed))
    return meshes


def _unfolded(mesh, N):
    """The full N-node mesh of a Gram builder, as it is when the weight does
    not fold."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FactorIntegrand, "folded", lambda self, N: False)
        return mesh(N)


class TestGramFold:
    """At an even N a Gram mesh holds the nodes k in [0, N/2] with the
    weights 1, 2, ..., 2, 1: its tables are products over c z^{+-1} pairs
    and the E weight is sign-symmetric (see biorthogonal._gram)."""

    @pytest.mark.parametrize("seed", [0, 1009])
    @pytest.mark.parametrize("check", ["biorth", "biorth2", "intrep",
                                       "shifted_beta"])
    def test_folded_sums_equal_the_unfolded(self, check, seed):
        meshes = _gram_meshes(check, seed)
        assert len(meshes) == (1 if check == "biorth" else 2)
        for mesh in meshes:
            for N in (1024, 2048):
                folded, full = mesh(N), _unfolded(mesh, N)
                assert (folded.shape[0], full.shape[0]) == (N // 2 + 1, N)
                values, _, cells = mesh_sums(folded, N, 1)
                full_values, abs_sums, full_cells = mesh_sums(full, N, 1)
                assert cells == full_cells
                for v, u, s in zip(values, full_values, abs_sums):
                    assert abs(v - u) <= 1e-14 * s / N

    # biorth's own set is left to the sums above: the rounding of its
    # cancelling R_3 and T_3 rows makes its mesh symmetric only to 1.3e-14
    # of a cell's largest |f| (seed 1009, N = 2048)
    @pytest.mark.parametrize("seed", [0, 1009])
    @pytest.mark.parametrize("check", ["biorth2", "intrep", "shifted_beta"])
    def test_full_mesh_is_symmetric(self, check, seed):
        for mesh in _gram_meshes(check, seed):
            for N in (1024, 2048):
                full = _unfolded(mesh, N)
                mirror = full[-np.arange(N) % N]
                assert np.all(np.abs(full - mirror).max(axis=0)
                              <= 1e-14 * np.abs(full).max(axis=0))

    def test_odd_n_stays_unfolded(self):
        for mesh in _gram_meshes("shifted_beta", 0):
            for N in (1023, 2047):
                vals = mesh(N)
                assert vals.shape[0] == N
                assert np.array_equal(vals, _unfolded(mesh, N))


class TestOnePassTables:
    """Each Gram node table is built in one recursion to its largest index
    or depth; every row keeps the bits of its own single-row recursion."""

    Z = np.exp(2j * np.pi * (np.arange(16) + 0.37) / 16)

    @pytest.mark.parametrize("kind", ["R", "T"])
    @pytest.mark.parametrize("base", ["q", "p"])
    def test_family_rows_equal_single_index_rows(self, rp, kind, base):
        indices = [3, 0, 2, 3, 1]
        rows = _family_rows(self.Z, indices, rp, kind, base)
        assert rows.shape == (5, 16)
        for j, row in zip(indices, rows):
            single = _family_rows(self.Z, [j], rp, kind, base)[0]
            assert row.tobytes() == single.tobytes()

    @pytest.mark.parametrize("base", ["q", "p"])
    def test_mixed_kind_rows_equal_single_kind_rows(self, rp, base):
        indices, kinds = [3, 0, 2, 1, 3], ["R", "T", "T", "R", "T"]
        rows = _family_rows(self.Z, indices, rp, kinds, base)
        for j, kind, row in zip(indices, kinds, rows):
            single = _family_rows(self.Z, [j], rp, kind, base)[0]
            assert row.tobytes() == single.tobytes()

    def test_biorth_value_builds_each_theta_table_once(self, rp, monkeypatch):
        import ehv.biorthogonal as bo

        seen = []
        kernel = bo.theta_vec

        def recording(z, p):
            seen.append((np.asarray(z).tobytes(), p))
            return kernel(z, p)

        monkeypatch.setattr(bo, "theta_vec", recording)
        from ehv.registry import biorth2_param_sets

        set_a, set_b = biorth2_param_sets(0)
        for cells, params in (([(2, 1, 0, 0), (1, 3, 0, 0)], rp),
                              ([(0, 0, 1, 0), (0, 0, 0, 1)], set_b)):
            seen.clear()
            biorth_value(cells, params, CFG)
            assert seen and len(seen) == len(set(seen))

    def test_factorial_rows_equal_per_depth_products(self, rp):
        from ehv.vec import theta_vec

        def per_depth(w, p, q, k):
            out = np.ones_like(w)
            for _ in range(k):
                out = out * theta_vec(w, p)
                w = w * q
            return out

        w = rp.t[0] * self.Z
        p, q = rp.moduli.p, rp.moduli.q
        depths = [0, 2, 1, 2]
        rows = _factorial_rows(w, p, q, depths)
        assert rows.shape == (4, 16)
        for k, row in zip(depths, rows):
            assert row.tobytes() == per_depth(w, p, q, k).tobytes()

    def test_theta_tables_built_once_per_step(self, rp, monkeypatch):
        import ehv.biorthogonal as bo

        calls = []
        kernel = bo.theta_vec

        def counting(z, p):
            calls.append(1)
            return kernel(z, p)

        monkeypatch.setattr(bo, "theta_vec", counting)
        _family_rows(self.Z, [3, 0, 2, 3, 1], rp, "T", "p")
        assert len(calls) == 4 * 3
        calls.clear()
        _factorial_rows(rp.t[0] * self.Z, rp.moduli.p, rp.moduli.q,
                        [0, 2, 1, 2])
        assert len(calls) == 2


class TestGaugeValidation:
    def test_collision_detected(self, rp):
        g = OperatorGauge(xi=0.7 + 0.1j, eta=0.7 + 0.1j)
        with pytest.raises(ValueError):
            g.validate(rp)
