"""Torus quadrature: exactness, convergence, determinism, budgets."""

import numpy as np
import pytest

from ehv.core import Moduli
from ehv.errors import ResourceLimit
from ehv.integrands import (
    Factor,
    FactorIntegrand,
    Family,
    IntegrandSpec,
    Kind,
    ParamSet,
    make_integrand,
    rhs_closed_form,
)
from ehv.quadrature import (
    QuadratureConfig,
    default_config,
    integrate_mesh_fn,
    integrate_spec,
    torus_integral,
)


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
        res = integrate_spec(e_spec, QuadratureConfig(
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
        res = integrate_spec(spec, QuadratureConfig(
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


class TestBudget:
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
        assert res.nodes_used == 256      # one doubling fits, two do not

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
