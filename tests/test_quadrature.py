"""Torus quadrature: exactness, convergence, determinism, budgets."""

import dataclasses
import math

import numpy as np
import pytest

from ehv import integrands
from ehv.core import Moduli
from ehv.errors import ResourceLimit
from ehv.integrands import (
    Factor,
    FactorIntegrand,
    Family,
    IntegrandSpec,
    Kind,
    ParamSet,
    _unit_row,
    make_integrand,
    mesh_sums,
    orbit_count,
    rhs_closed_form,
)
from ehv.quadrature import (
    QuadratureConfig,
    default_config,
    integrate_factors,
    integrate_mesh_fn,
    integrate_sums,
    torus_integral,
)
from ehv.registry import Sampler, _draw_spec, biorth2_param_sets


class TestExactness:
    def test_constant_on_circle(self):
        res = torus_integral(lambda zs: 1.0, 1,
                             QuadratureConfig(nodes_per_dim=16,
                                              max_doublings=1, rel_tol=1e-12))
        assert res.value == 1.0 and res.converged

    def test_zero_valued_integral_converges(self):
        # the value is 0, so only the rounding floor can stop the doubling
        res = torus_integral(lambda zs: zs[0], 1)
        assert res.converged
        assert res.nodes_used == 2 * default_config(1).nodes_per_dim
        assert abs(res.value) < 1e-15

    def test_pure_powers_vanish(self):
        cfg = QuadratureConfig(nodes_per_dim=32, max_doublings=0, rel_tol=1e-12)
        for k in (1, -1, 5, -9):
            res = torus_integral(lambda zs, k=k: zs[0] ** k, 1, cfg)
            assert abs(res.value) < 1e-14

    def test_constant_on_torus(self):
        res = torus_integral(lambda zs: 1.0, 2,
                             QuadratureConfig(nodes_per_dim=8,
                                              max_doublings=1, rel_tol=1e-12))
        assert res.value == pytest.approx(1.0)

    def test_mixed_power_vanishes(self):
        res = torus_integral(lambda zs: zs[0] / zs[1], 2,
                             QuadratureConfig(nodes_per_dim=16,
                                              max_doublings=0, rel_tol=1e-10))
        assert abs(res.value) < 1e-13


@pytest.fixture
def e_spec(rng, arg, moduli):
    while True:
        spec = IntegrandSpec(Family.E, 1,
                             ParamSet(t=tuple(arg(rng, 0.35, 0.7)
                                              for _ in range(5))), moduli)
        from ehv.integrands import validate_domain

        if validate_domain(spec).ok:
            return spec


class TestConvergence:
    def test_beta_integral_closed_form(self, e_spec):
        res = integrate_factors(make_integrand(e_spec), QuadratureConfig(
            nodes_per_dim=256, max_doublings=1, rel_tol=1e-11))
        rhs = rhs_closed_form(e_spec)
        assert abs(res.value - rhs) <= 1e-10 * abs(rhs)
        assert res.nodes_used == 512

    def test_doubling_error_decays_geometrically(self, e_spec):
        ig = make_integrand(e_spec)
        vals = {}
        for N in (64, 128, 256, 512):
            vals[N] = np.mean(ig.mesh_eval(N))
        e1 = abs(vals[128] - vals[64])
        e2 = abs(vals[256] - vals[128])
        assert e2 <= 0.5 * e1

    def test_half_circle_symmetry_doubling(self, e_spec):
        # z <-> 1/z symmetry: nodes k and N-k carry equal values
        ig = make_integrand(e_spec)
        N = 256
        vals = ig.mesh_eval(N)
        half = (vals[0] + vals[N // 2]
                + 2.0 * sum(vals[k] for k in range(1, N // 2)))
        assert abs(half / N - np.mean(vals)) <= 1e-12 * abs(np.mean(vals))

    def test_cn1_rank2_closed_form(self, rng, arg, moduli):
        from ehv.integrands import validate_domain

        while True:
            spec = IntegrandSpec(Family.CN_I, 2,
                                 ParamSet(t=tuple(arg(rng, 0.72, 0.85)
                                                  for _ in range(7))), moduli)
            if validate_domain(spec).ok:
                break
        res = integrate_factors(make_integrand(spec), QuadratureConfig(
            nodes_per_dim=96, max_doublings=2, rel_tol=1e-8))
        rhs = rhs_closed_form(spec)
        assert abs(res.value - rhs) <= 1e-6 * abs(rhs)


class TestDeterminism:
    def test_scalar_path_matches_mesh_path(self, e_spec):
        ig = make_integrand(e_spec)
        cfg = QuadratureConfig(nodes_per_dim=64, max_doublings=1,
                               rel_tol=1e-10)
        a = torus_integral(lambda zs: ig(zs), 1, cfg)
        b = integrate_mesh_fn(ig.mesh_eval, 1, cfg)
        assert a.value == pytest.approx(b.value, rel=1e-13)

    def test_scalar_path_matches_mesh_path_rank2(self):
        ig = FactorIntegrand(2, Moduli(0.31, 0.23), [
            Factor(Kind.THETA, 0.4 + 0.1j, (1, 0)),
            Factor(Kind.THETA, 0.5, (0, -1)),
            Factor(Kind.THETA, 0.3 - 0.2j, (1, -1)),
            Factor(Kind.MONO, 1.0, (-1, 1)),
        ])
        cfg = QuadratureConfig(nodes_per_dim=16, max_doublings=1,
                               rel_tol=1e-12)
        a = torus_integral(lambda zs: ig(zs), 2, cfg)
        b = integrate_mesh_fn(ig.mesh_eval, 2, cfg)
        assert a.nodes_used == b.nodes_used == 32 ** 2
        assert a.value == pytest.approx(b.value, rel=1e-13)

    def test_integral_does_not_depend_on_earlier_integrands(self):
        # biorth2's beta weight at seed 9081, alone, then after the weight of
        # seed 0 has built the c = 1 reciprocal rows at the same moduli: the
        # integral moved while that row was built in the first stack that
        # needed it, which set the term count of the other rows
        ig, other = (make_integrand(biorth2_param_sets(seed)[0].weight_spec())
                     for seed in (9081, 0))
        _unit_row.cache_clear()
        before = repr(integrate_factors(ig))
        _unit_row.cache_clear()
        integrate_factors(other)
        assert repr(integrate_factors(ig)) == before

    def test_float_and_complex_moduli_share_no_unit_row(self):
        # 0.31 and 0.31+0j are equal keys of other types; a complex with a
        # zero part (0j == -0j) is not memoized at all
        _unit_row.cache_clear()
        row = _unit_row(48, 0.31, 0.23)
        assert _unit_row(48, 0.31 + 0j, 0.23) is not row
        assert _unit_row.cache_info().currsize == 2
        spec = _draw_spec(Sampler(3), Family.CN_I, 1)
        for m in (Moduli(0.31 + 0j, 0.23), Moduli(0.31, 0.23 - 0j)):
            ig = make_integrand(dataclasses.replace(spec, moduli=m))
            ig._tables(48)
            assert _unit_row.cache_info().currsize == 2


class TestCellAxis:
    def test_cells_integrate_as_separate_meshes(self, e_spec):
        ig = make_integrand(e_spec)

        def flat(N):                 # exact at every grid: converges at once
            return np.full(N, 0.3 + 0.2j)

        def stacked(N):
            return np.stack([flat(N), ig.mesh_eval(N)], axis=-1)

        cfg = QuadratureConfig(nodes_per_dim=16, max_doublings=4,
                               rel_tol=1e-10)
        fast = integrate_mesh_fn(flat, 1, cfg)
        slow = integrate_mesh_fn(ig.mesh_eval, 1, cfg)
        both = integrate_mesh_fn(stacked, 1, cfg)
        assert fast.nodes_used == 32 < slow.nodes_used
        assert both.value.shape == (2,)
        assert (both.nodes_used, both.converged, both.est_error) == \
            (slow.nodes_used, slow.converged, slow.est_error)
        fixed = QuadratureConfig(nodes_per_dim=slow.nodes_used,
                                 max_doublings=0, rel_tol=1e-10)
        assert both.value[0] == integrate_mesh_fn(flat, 1, fixed).value
        assert both.value[1] == slow.value

    def test_rank2_cells_same_bits(self):
        ig = FactorIntegrand(2, Moduli(0.31, 0.23), [
            Factor(Kind.THETA, 0.4 + 0.1j, (1, 0)),
            Factor(Kind.THETA, 0.3 - 0.2j, (1, -1)),
        ])

        def cells(N):
            vals = ig.mesh_eval(N)
            return np.stack([vals, vals * (0.5 - 0.25j), vals.T], axis=-1)

        cfg = QuadratureConfig(nodes_per_dim=16, max_doublings=1,
                               rel_tol=1e-12)
        both = integrate_mesh_fn(cells, 2, cfg)
        for i in range(3):
            one = integrate_mesh_fn(lambda N: cells(N)[..., i], 2, cfg)
            assert both.value[i] == one.value


class TestReduction:
    """mesh_sums sums each cell's nodes as one C-contiguous row, so a cell
    summed among others gets the bits it gets alone.  That rests on numpy's
    pairwise summation of a contiguous reduction axis, which numpy does not
    document as a contract: this test pins it for the numpy in use."""

    @pytest.mark.parametrize("grid,cells", [
        ((1024,), (16,)), ((2048,), (5,)), ((192,), (192,)),
        ((96, 96), (3,)), ((513,), (4,))])
    def test_cells_summed_together_equal_each_alone(self, grid, cells):
        gen = np.random.default_rng(20240817)
        arr = (gen.standard_normal(grid + cells)
               + 1j * gen.standard_normal(grid + cells))
        N, n = grid[0], len(grid)
        values, abs_sums, shape, even = mesh_sums(arr, N, n, True)
        assert shape == cells and len(values) == math.prod(cells)
        for i, idx in enumerate(np.ndindex(cells)):
            alone = mesh_sums(arr[(...,) + idx], N, n, True)
            assert alone == ([values[i]], [abs_sums[i]], (), [even[i]])


def _hand_spec(rng, arg, family, n=3):
    """A spec of ``family`` at rank n built by hand: the rank >= 3 samplers
    reject most draws (CN_III's every draw), and the node sums need no
    admissible parameters."""
    draw = lambda k: tuple(arg(rng, 0.6, 0.85) for _ in range(k))
    sizes = {Family.E: (5, 0, 0), Family.CN_I: (2 * n + 3, 0, 0),
             Family.CN_II: (5, 0, 0),
             Family.CN_III: (3, 0, n), Family.AN_I: (n + 1, n + 2, 0),
             Family.AN_II: (5, 0, 0), Family.AN_III: (n + 4, 0, 0)}
    t, f, x = sizes[family]
    t, f, x = draw(t), draw(f), draw(x)
    extras = {"t": arg(rng, 0.3, 0.5), "s": arg(rng, 0.6, 0.85)}
    reads = {Family.E: "", Family.CN_I: "", Family.AN_I: "", Family.AN_II: "ts"}
    return IntegrandSpec(family, n, ParamSet(
        t=t, f=f, x=x, extras={k: extras[k] for k in reads.get(family, "t")}),
        Moduli(0.31, 0.23))


def _sums_equal_the_mesh(ig, N):
    """node_sums(N) against the mesh_sums reduction of the full grid."""
    (value,), (abs_sum,), cells = ig.node_sums(N)
    (mesh_value,), (mesh_abs,), _ = mesh_sums(ig.mesh_eval(N), N, ig.n)
    assert cells == ()
    assert abs(value - mesh_value) <= 1e-14 * abs(mesh_value)
    assert abs(abs_sum - mesh_abs) <= 1e-14 * mesh_abs


_RANK3_PATHS = {Family.CN_I: "pairwise", Family.CN_II: "pairwise",
                Family.CN_III: "pairwise", Family.AN_I: "orbit",
                Family.AN_II: "orbit", Family.AN_III: "orbit"}


class TestNodeSumPaths:
    """The pairwise contraction (C_n) and the Weyl-orbit sum (A_n) against
    the mesh_sums reduction of the full rank-3 grid."""

    @pytest.mark.parametrize("family", list(_RANK3_PATHS))
    def test_rank3_sums_equal_the_mesh(self, rng, arg, family):
        ig = make_integrand(_hand_spec(rng, arg, family))
        assert ig.path == _RANK3_PATHS[family]
        for N in (16, 24):
            _sums_equal_the_mesh(ig, N)

    def test_pairwise_with_loose_and_absent_variables(self):
        # z_1 only in a one-variable factor, z_4 in none, one constant
        ig = FactorIntegrand(4, Moduli(0.31, 0.23), [
            Factor(Kind.THETA, 0.4 + 0.1j, (1, 0, 0, 0)),
            Factor(Kind.THETA, 0.5, (0, 1, -1, 0)),
            Factor(Kind.GAMMA, 0.3 - 0.2j, (0, -1, 0, 0)),
            Factor(Kind.MONO, 2.0, (0, 0, 0, 0)),
        ])
        assert ig.path == "pairwise"
        for N in (8, 12):
            (value,), (abs_sum,), _ = ig.node_sums(N)
            (mesh_value,), (mesh_abs,), _ = mesh_sums(ig.mesh_eval(N), N, 4)
            assert abs(value - mesh_value) <= 1e-14 * abs(mesh_value)
            assert abs(abs_sum - mesh_abs) <= 1e-14 * mesh_abs

    def test_contraction_runs_on_one_blas_thread(self, rng, arg,
                                                 monkeypatch):
        """numpy's wheels bundle scipy-openblas, whose thread-count symbols
        _blas_threads finds: every einsum of the contraction then runs on
        one thread, and the count from before is restored after.  A numpy
        on another BLAS lacks them and takes the fallback."""
        blas = getattr(np.__config__, "CONFIG", {}).get(
            "Build Dependencies", {}).get("blas", {}).get("name")
        threads = integrands._blas_threads()
        assert (threads is not None) == (blas == "scipy-openblas")
        if threads is None:
            pytest.skip(f"BLAS {blas!r}: the fallback, on the BLAS's threads")
        get, put = threads
        seen, einsum = [], np.einsum

        def recording(*args, **kwargs):
            seen.append(get())
            return einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", recording)
        ig = make_integrand(_hand_spec(rng, arg, Family.CN_I))
        before = get()
        put(2)
        try:
            ig.node_sums(16, True)
            assert seen == [1, 1, 1] and get() == 2
        finally:
            put(before)

    def test_contraction_without_thread_symbols(self, rng, arg, monkeypatch):
        # the fallback: the einsum on the BLAS's own threads, same sums
        ig = make_integrand(_hand_spec(rng, arg, Family.CN_I))
        one = ig.node_sums(24, True)
        monkeypatch.setattr(integrands, "_blas_threads", lambda: None)
        for a, b in zip(ig.node_sums(24, True), one):
            assert np.allclose(a, b, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("family", [Family.CN_I, Family.AN_III])
    def test_repeated_calls_give_identical_bits(self, rng, arg, family):
        ig = make_integrand(_hand_spec(rng, arg, family))
        assert ig.node_sums(24) == ig.node_sums(24)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_orbit_weights_add_up_to_the_grid(self, n):
        import itertools
        from collections import Counter

        from ehv.integrands import _orbit_runs

        for N in (1, 2, 5, *range(8, 14), 16):
            reps, weights = [], []
            for prefix, top, pid, c, w in _orbit_runs(n, N):
                # pid, c and w are views the next block overwrites
                assert np.all(np.diff(pid) >= 0)
                reps.append([p[pid] for p in prefix] + [c.copy(), top[pid] - c])
                weights.append(w.copy())
            reps = np.concatenate([np.array(r).reshape(n + 1, -1)
                                   for r in reps], axis=1)
            weights = np.concatenate(weights)
            assert weights.sum() == N ** n
            assert np.all(np.diff(reps, axis=0) >= 0)
            assert np.all(reps.sum(axis=0) % N == 0)
            sorted_tuples = {t for t in itertools.combinations_with_replacement(
                range(N), n + 1) if sum(t) % N == 0}
            assert set(map(tuple, reps.T.tolist())) == sorted_tuples
            assert len(weights) == len(sorted_tuples) == orbit_count(n, N)
            fact = math.factorial(n + 1)
            for rep, w in zip(reps.T.tolist(), weights.tolist()):
                mults = Counter(rep).values()
                assert w == fact / math.prod(map(math.factorial, mults))

    @pytest.mark.parametrize("family", [Family.AN_I, Family.AN_II,
                                        Family.AN_III])
    @pytest.mark.parametrize("n,N", [(3, 24), (4, 12)])
    def test_orbit_sums_over_many_blocks(self, rng, arg, monkeypatch,
                                         family, n, N):
        """Blocks of 64 representatives, so each sum spans many blocks (the
        other tests' sums, at N <= 27, hold at most 576 representatives:
        one block of the default size): the sums against the full mesh, the
        subgrid call's first entries against the plain call bit for bit,
        and its even entry against the N/2 grid."""
        from ehv import integrands

        monkeypatch.setattr(integrands, "_ORBIT_BLOCK", 64)
        ig = make_integrand(_hand_spec(rng, arg, family, n))
        assert ig.path == "orbit" and orbit_count(n, N) > 64
        _sums_equal_the_mesh(ig, N)
        *fine, (even,) = ig.node_sums(N, True)
        assert fine == list(ig.node_sums(N))
        (coarse,), _, _ = ig.node_sums(N // 2)
        assert abs(even - coarse) <= 1e-14 * abs(coarse)

    def test_asymmetric_an_list_falls_back_to_the_mesh(self, rng, arg):
        ig = make_integrand(_hand_spec(rng, arg, Family.AN_I))
        cross = next(f for f in ig.factors
                     if f.kind is Kind.IGAMMA and f.c == 1)
        broken = FactorIntegrand(3, ig.moduli,
                                 [f for f in ig.factors if f is not cross])
        assert broken.path == "mesh"
        cfg = QuadratureConfig(nodes_per_dim=16, max_doublings=1,
                               rel_tol=1e-12)
        assert integrate_factors(broken, cfg) == \
            integrate_mesh_fn(broken.mesh_eval, 3, cfg)

    @pytest.mark.parametrize("family,n", [(Family.E, 1)] + [
        (family, n) for family in _RANK3_PATHS for n in (1, 2)])
    def test_ranks_one_and_two_keep_the_mesh(self, rng, arg, family, n):
        """Sampled rank-1 and rank-2 integrals keep the results of the full
        mesh through integrate_mesh_fn, whichever path sums them (the folded
        mesh, the rank-2 orbit sum, or the mesh): its node count and
        convergence exactly, and its value within 1e-14, not bit for bit."""
        from ehv.registry import Sampler, _draw_spec

        spec = _draw_spec(Sampler(rng.randint(0, 10 ** 6)), family, n)
        cfg = QuadratureConfig(nodes_per_dim=16, max_doublings=1,
                               rel_tol=1e-12)
        ig = make_integrand(spec)
        orbit = n == 2 and _RANK3_PATHS[family] == "orbit"
        assert ig.path == ("orbit" if orbit else "mesh")
        assert ig.folded(16) == (not orbit and (family, n) != (Family.CN_III, 2))
        res = integrate_factors(ig, cfg)
        mesh = integrate_mesh_fn(ig.mesh_eval, n, cfg)
        assert (res.nodes_used, res.converged) == (mesh.nodes_used,
                                                   mesh.converged)
        assert abs(res.value - mesh.value) <= 1e-14 * abs(mesh.value)

    @pytest.mark.parametrize("family", [Family.AN_I, Family.AN_II,
                                        Family.AN_III])
    def test_rank2_orbit_sums_equal_the_mesh(self, rng, arg, family):
        ig = make_integrand(_hand_spec(rng, arg, family, 2))
        assert ig.path == "orbit"
        for N in (16, 24, 27):
            _sums_equal_the_mesh(ig, N)
            assert ig.points(N) == orbit_count(2, N)


# (family, rank) of the lists whose sign symmetry is proven, so that their
# sums at an even N run over k_j in [0, N/2]
_FOLDED = ([(Family.E, 1), (Family.CN_III, 1)]
           + [(family, n) for family in (Family.CN_I, Family.CN_II)
              for n in (1, 2, 3, 4)]
           + [(family, 1) for family in (Family.AN_I, Family.AN_II,
                                         Family.AN_III)])


class TestFold:
    """Sums over k_j in [0, N/2] with weights 1, 2, ..., 2, 1, taken only
    where the factor multiset proves z_j -> 1/z_j symmetry and N is even."""

    @pytest.mark.parametrize("family,n", _FOLDED)
    def test_folded_sums_equal_the_unfolded(self, rng, arg, family, n):
        ig = make_integrand(_hand_spec(rng, arg, family, n))
        assert ig.sign_symmetric
        for N in ((16, 24) if n < 4 else (12, 16)):
            assert ig.folded(N)
            _sums_equal_the_mesh(ig, N)
        if ig.path == "mesh":
            assert ig.points(24) == 13 ** n

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_sign_broken_factor_stays_unfolded(self, rng, arg, n):
        ig = make_integrand(_hand_spec(rng, arg, Family.CN_I, n))
        first = next(f for f in ig.factors
                     if f.kind is Kind.GAMMA and f.evec[0] == -1)
        broken = FactorIntegrand(n, ig.moduli, [
            Factor(f.kind, 0.5 * f.c, f.evec) if f is first else f
            for f in ig.factors])
        assert not broken.sign_symmetric and not broken.folded(16)
        if n == 3:
            assert broken.points(16) == 2 * 3 * 16 ** 2 + 16 ** 2
            _sums_equal_the_mesh(broken, 16)
        else:
            assert broken.points(16) == 16 ** n
            cfg = QuadratureConfig(nodes_per_dim=16, max_doublings=1,
                                   rel_tol=1e-12)
            assert integrate_factors(broken, cfg) == \
                integrate_mesh_fn(broken.mesh_eval, n, cfg)

    @pytest.mark.parametrize("family,n", [(Family.E, 1), (Family.CN_I, 2),
                                          (Family.CN_II, 3)])
    def test_odd_n_stays_unfolded(self, rng, arg, family, n):
        ig = make_integrand(_hand_spec(rng, arg, family, n))
        assert ig.sign_symmetric and not ig.folded(9)
        if ig.path == "pairwise":
            assert ig.points(9) == 2 * 3 * 9 ** 2 + 9 ** 2
            _sums_equal_the_mesh(ig, 9)
        else:
            cfg = QuadratureConfig(nodes_per_dim=9, max_doublings=0,
                                   rel_tol=1e-12)
            assert integrate_factors(ig, cfg) == \
                integrate_mesh_fn(ig.mesh_eval, n, cfg)

    @pytest.mark.parametrize("n", [2, 3])
    def test_cn3_stays_unfolded_from_rank_two(self, rng, arg, n):
        # the ordered prefactor z_j theta(z_i/z_j, 1/(z_i z_j); p) is
        # symmetric in value, but its factor multiset is not
        ig = make_integrand(_hand_spec(rng, arg, Family.CN_III, n))
        assert not ig.sign_symmetric and not ig.folded(16)
        if n == 3:
            assert ig.points(16) == 2 * 3 * 16 ** 2 + 16 ** 2
            _sums_equal_the_mesh(ig, 16)
        else:
            assert ig.path == "mesh" and ig.points(16) == 16 ** 2
            cfg = QuadratureConfig(nodes_per_dim=16, max_doublings=1,
                                   rel_tol=1e-12)
            assert integrate_factors(ig, cfg) == \
                integrate_mesh_fn(ig.mesh_eval, 2, cfg)


# (family, rank, path, folded at an even N) of one list per node-sum path
_NESTED = [(Family.CN_III, 2, "mesh", False), (Family.E, 1, "mesh", True),
           (Family.CN_I, 1, "mesh", True), (Family.CN_I, 2, "mesh", True),
           (Family.CN_I, 3, "pairwise", True),
           (Family.CN_II, 3, "pairwise", True),
           (Family.CN_III, 3, "pairwise", False),
           (Family.AN_I, 2, "orbit", False), (Family.AN_III, 3, "orbit", False)]


class TestNestedGrid:
    """The N0 grid is the even subgrid of the 2 N0 grid: the driver takes
    its first coarse sum from there and builds no N0 tables.  If that change
    misses the stop rule, 2 N0 is compared with the grid N' = 2 floor(3N/8)
    before the driver climbs the ladder N0 * (3, 4, 6, 8, ...), each rung
    compared with the one below it."""

    @pytest.mark.parametrize("family,n,path,folded", _NESTED)
    def test_even_subgrid_equals_the_coarse_grid(self, rng, arg, family, n,
                                                 path, folded):
        ig = make_integrand(_hand_spec(rng, arg, family, n))
        assert (ig.path, ig.folded(32)) == (path, folded)
        for N0 in (16, 9):           # 9 -> 18: the odd subgrid of a fold
            *fine, (even,) = ig.node_sums(2 * N0, True)
            assert fine == list(ig.node_sums(2 * N0))
            (coarse,), _, _ = ig.node_sums(N0)
            assert abs(even - coarse) <= 1e-14 * abs(coarse)

    def test_two_cell_mesh(self, e_spec):
        ig = make_integrand(e_spec)
        calls = []

        def cells(N):
            calls.append(N)
            vals = ig.mesh_eval(N)
            return np.stack([vals, vals * np.exp(2j * np.pi * np.arange(N) / N)],
                            axis=-1)

        for N0 in (16, 9):
            *fine, even = mesh_sums(cells(2 * N0), 2 * N0, 1, True)
            assert fine == list(mesh_sums(cells(2 * N0), 2 * N0, 1))
            coarse, _, shape = mesh_sums(cells(N0), N0, 1)
            assert shape == (2,) and len(even) == 2
            for a, b in zip(even, coarse):
                assert abs(a - b) <= 1e-14 * abs(b)
            calls.clear()
            res = integrate_mesh_fn(cells, 1, QuadratureConfig(
                nodes_per_dim=N0, max_doublings=1, rel_tol=1e-30))
            assert calls == [2 * N0, 2 * (6 * N0 // 8)] and N0 not in calls
            assert not res.converged
            between, _, _ = mesh_sums(cells(calls[1]), calls[1], 1)
            assert res.est_error == min(
                max(abs(v - a) for v, a in zip(fine[0], even)),
                max(abs(v - a) for v, a in zip(fine[0], between)))

    @staticmethod
    def _recorded(ig):
        """A sums function for integrate_sums over ig that records its
        calls as (N, subgrid) and the grids ig builds tables on."""
        calls, tables = [], []
        build = ig._tables

        def recording_tables(N, atoms=None):
            tables.append(N)
            return build(N, atoms)

        ig._tables = recording_tables

        def sums(N, subgrid=False):
            calls.append((N, subgrid))
            return ig.node_sums(N, subgrid)

        return sums, calls, tables

    @pytest.mark.parametrize("family,n,path,folded", _NESTED)
    def test_first_grid_is_twice_the_start(self, rng, arg, family, n, path,
                                           folded):
        ig = make_integrand(_hand_spec(rng, arg, family, n))
        sums, calls, tables = self._recorded(ig)
        res = integrate_sums(sums, ig.points, n, QuadratureConfig(
            nodes_per_dim=8, max_doublings=2, rel_tol=1e-30))
        assert calls == [(16, True), (12, False), (24, False), (32, False)]
        assert tables == [16, 12, 24, 32]
        assert res.nodes_used == 32 ** n

    def test_converged_at_the_first_grid_in_one_call(self, e_spec):
        ig = make_integrand(e_spec)
        sums, calls, tables = self._recorded(ig)
        res = integrate_sums(sums, ig.points, 1, QuadratureConfig(
            nodes_per_dim=256, max_doublings=4, rel_tol=1e-10))
        assert res.converged and res.nodes_used == 512
        assert calls == [(512, True)] and tables == [512]

    def test_later_doublings_compare_with_the_previous_grid(self, e_spec):
        ig = make_integrand(e_spec)
        sums, calls, tables = self._recorded(ig)
        cfg = QuadratureConfig(nodes_per_dim=16, max_doublings=2,
                               rel_tol=1e-30)
        res = integrate_sums(sums, ig.points, 1, cfg)
        assert calls == [(32, True), (24, False), (48, False), (64, False)]
        assert tables == [32, 24, 48, 64]
        assert not res.converged and res.nodes_used == 64
        assert res.est_error == abs(res.value - ig.node_sums(48)[0][0])

    @pytest.mark.parametrize("values,est", [
        ({16: 1.0, 32: 1.5, 24: 1.25}, 0.25),      # the N' change is smaller
        ({16: 1.0, 32: 1.5, 24: 2.5}, 0.5),        # the doubling change is
    ])
    def test_unconverged_estimate_is_the_smaller_change(self, values, est):
        """Neither the 32 -> 16 nor the 32 -> 24 change meets the rule: the
        estimate is the smaller of the two."""
        def sums(N, subgrid=False):
            out = ([values[N]], [1.0], ())
            return out + ([values[N // 2]],) if subgrid else out

        res = integrate_sums(sums, lambda N: N, 1, QuadratureConfig(
            nodes_per_dim=16, max_doublings=1, rel_tol=1e-30))
        assert (res.est_error, res.converged, res.nodes_used) == (
            est, False, 32)

    def test_later_rung_estimate_is_its_own_change(self):
        """Past the first rung the estimate is the last rung's change, 2.0
        at 64 against 48, even where the first rung's changes were smaller
        (0.25 against 24)."""
        values = {16: 1.0, 32: 1.5, 24: 1.25, 48: 2.5, 64: 4.5}

        def sums(N, subgrid=False):
            out = ([values[N]], [1.0], ())
            return out + ([values[N // 2]],) if subgrid else out

        res = integrate_sums(sums, lambda N: N, 1, QuadratureConfig(
            nodes_per_dim=16, max_doublings=2, rel_tol=1e-30))
        assert (res.est_error, res.converged, res.nodes_used) == (
            2.0, False, 64)

    @pytest.mark.parametrize("family,n,rel_tol", [(Family.E, 1, 1e-3),
                                                  (Family.CN_I, 2, 5e-3)])
    def test_stop_through_the_three_quarter_grid(self, rng, arg, family, n,
                                                 rel_tol):
        """At N0 = 32 the 64 -> 32 change misses rel_tol (2.0e-3 and 2.4e-2
        relative) and the 64 -> 48 change meets it (1.2e-4 and 4.5e-4):
        64 is kept, with the 48 change as its error estimate, which bounds
        its error against the closed form (6.3e-6 and 7.4e-6)."""
        spec = _hand_spec(rng, arg, family, n)
        ig = make_integrand(spec)
        sums, calls, tables = self._recorded(ig)
        res = integrate_sums(sums, ig.points, n, QuadratureConfig(
            nodes_per_dim=32, max_doublings=2, rel_tol=rel_tol))
        assert calls == [(64, True), (48, False)] and tables == [64, 48]
        assert res.converged and res.nodes_used == 64 ** n
        assert res.est_error == abs(res.value - ig.node_sums(48)[0][0])
        assert res.est_error <= rel_tol * abs(res.value)
        assert abs(res.value - rhs_closed_form(spec)) <= res.est_error

    @pytest.mark.parametrize("family,n,rel_tol", [(Family.E, 1, 1e-5),
                                                  (Family.CN_I, 2, 5e-5)])
    def test_stop_on_the_three_n0_rung(self, rng, arg, family, n, rel_tol):
        """At N0 = 32 neither the 64 -> 32 change (2.0e-3 and 2.4e-2
        relative) nor the 64 -> 48 change (1.2e-4 and 4.5e-4) meets rel_tol;
        the 96 -> 64 change does (6.2e-6 and 7.4e-6): 96 is kept, with that
        change as its error estimate, which bounds its error against the
        closed form, and 128 is never evaluated."""
        spec = _hand_spec(rng, arg, family, n)
        ig = make_integrand(spec)
        sums, calls, tables = self._recorded(ig)
        res = integrate_sums(sums, ig.points, n, QuadratureConfig(
            nodes_per_dim=32, max_doublings=2, rel_tol=rel_tol))
        assert calls == [(64, True), (48, False), (96, False)]
        assert tables == [64, 48, 96]
        assert res.converged and res.nodes_used == 96 ** n
        assert res.est_error == abs(res.value - ig.node_sums(64)[0][0])
        assert res.est_error <= rel_tol * abs(res.value)
        assert abs(res.value - rhs_closed_form(spec)) <= res.est_error

    @pytest.mark.parametrize("family,n,path,folded", _NESTED)
    def test_one_doubling_is_the_first_rung_alone(self, rng, arg, family, n,
                                                  path, folded):
        ig = make_integrand(_hand_spec(rng, arg, family, n))
        sums, calls, tables = self._recorded(ig)
        res = integrate_sums(sums, ig.points, n, QuadratureConfig(
            nodes_per_dim=8, max_doublings=1, rel_tol=1e-30))
        assert calls == [(16, True), (12, False)] and tables == [16, 12]
        assert not res.converged and res.nodes_used == 16 ** n

    def test_rung_over_budget_ends_the_ladder(self, e_spec, monkeypatch):
        """The folded list holds 25 points at 48 nodes and 33 at 64: under a
        budget of 30 the ladder 32, 48, 64, 96, 128 ends at 48, the 3 N0
        rung, unconverged, its change from 32 the estimate."""
        ig = make_integrand(e_spec)
        assert (ig.points(48), ig.points(64)) == (25, 33)
        monkeypatch.setenv("EHV_MAX_NODES", "30")
        sums, calls, tables = self._recorded(ig)
        res = integrate_sums(sums, ig.points, 1, QuadratureConfig(
            nodes_per_dim=16, max_doublings=3, rel_tol=1e-30))
        assert calls == [(32, True), (24, False), (48, False)]
        assert (res.converged, res.nodes_used) == (False, 48)
        assert res.est_error == abs(res.value - ig.node_sums(32)[0][0])

    @pytest.mark.parametrize("doublings,budget", [(0, ""), (4, "100")])
    def test_start_grid_alone(self, e_spec, monkeypatch, doublings, budget):
        """No doubling allowed, or 2 N0 over the budget (the folded list
        holds 65 points at 128 nodes and 129 at 256): N0 alone, with no
        error estimate."""
        ig = make_integrand(e_spec)
        assert (ig.points(128), ig.points(256)) == (65, 129)
        monkeypatch.setenv("EHV_MAX_NODES", budget)
        sums, calls, tables = self._recorded(ig)
        res = integrate_sums(sums, ig.points, 1, QuadratureConfig(
            nodes_per_dim=128, max_doublings=doublings, rel_tol=1e-10))
        assert calls == [(128, False)] and tables == [128]
        assert (res.est_error, res.converged, res.nodes_used) == (
            np.inf, False, 128)


class TestBudget:
    def test_budget_counts_the_points_a_path_holds(self, rng, arg, monkeypatch):
        # 32^3 = 32768 grid nodes, but the folded contraction holds 2*3*17^2
        # pair entries plus a 17^2 intermediate: 2023 points; at 384^4 it
        # holds 2*6*193^2 + 193^3, within the default budget
        ig = make_integrand(_hand_spec(rng, arg, Family.CN_I))
        assert ig.points(32) == 2023
        assert make_integrand(_hand_spec(rng, arg, Family.CN_I, 4)).points(
            384) == 2 * 6 * 193 ** 2 + 193 ** 3 < 10_000_000
        monkeypatch.setenv("EHV_MAX_NODES", "2100")
        res = integrate_factors(ig, QuadratureConfig(
            nodes_per_dim=16, max_doublings=1, rel_tol=1e-30))
        assert res.nodes_used == 32 ** 3
        with pytest.raises(ResourceLimit):
            integrate_mesh_fn(ig.mesh_eval, 3, QuadratureConfig(
                nodes_per_dim=32, max_doublings=0, rel_tol=1e-8))

    def test_initial_grid_over_budget(self, e_spec, monkeypatch):
        monkeypatch.setenv("EHV_MAX_NODES", "100")
        ig = make_integrand(e_spec)
        with pytest.raises(ResourceLimit):
            integrate_mesh_fn(ig.mesh_eval, 1,
                              QuadratureConfig(nodes_per_dim=128,
                                               max_doublings=0,
                                               rel_tol=1e-8))

    def test_doubling_stops_at_budget(self, e_spec, monkeypatch):
        monkeypatch.setenv("EHV_MAX_NODES", "300")
        ig = make_integrand(e_spec)
        res = integrate_mesh_fn(ig.mesh_eval, 1,
                                QuadratureConfig(nodes_per_dim=128,
                                                 max_doublings=4,
                                                 rel_tol=1e-30))
        assert res.nodes_used == 256      # 2 N0 fits, 3 N0 = 384 does not

    @pytest.mark.parametrize("raw", ["1e6", "abc", "0", "-5"])
    def test_malformed_budget_rejected(self, e_spec, monkeypatch, raw):
        monkeypatch.setenv("EHV_MAX_NODES", raw)
        ig = make_integrand(e_spec)
        with pytest.raises(ResourceLimit, match="positive integer"):
            integrate_mesh_fn(ig.mesh_eval, 1, default_config(1))

    def test_default_configs(self):
        assert default_config(1).nodes_per_dim == 128
        assert default_config(2).nodes_per_dim == 96
        assert default_config(3).nodes_per_dim == 64
