"""Acceptance suite: every verification target at its frozen tolerance.

Each test prints one PASS/FAIL line per criterion so a full run doubles as
a human-readable certification transcript:

    pytest tests/test_acceptance.py -v -s
"""

import cmath
import math
import time

import pytest

from ehv.core import Moduli, qpochhammer, theta
from ehv.errors import InadmissibleContour
from ehv.biorthogonal import (
    biorth_value,
    norm_h,
    shifted_beta_sides,
    twelveV_integral_rep_sides,
)
from ehv.gamma import QuasiPeriods, double_sine, elliptic_gamma, modified_gamma_G
from ehv.integrands import Family, IntegrandSpec, ParamSet, make_integrand, rhs_closed_form
from ehv.quadrature import QuadratureConfig, integrate_factors
from ehv.registry import (
    CheckOptions,
    Sampler,
    _draw_spec,
    biorth2_param_sets,
    default_rahman_params,
    intrep_param_sets,
    run_check,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def rank_cfg(n):
    if n == 1:
        return QuadratureConfig(nodes_per_dim=256, max_doublings=1,
                                rel_tol=1e-11)
    return QuadratureConfig(nodes_per_dim=96, max_doublings=2, rel_tol=1e-8)


def family_case(smp, family, n, tol, budget_s):
    spec = _draw_spec(smp, family, n)
    start = time.perf_counter()
    res = integrate_factors(make_integrand(spec), rank_cfg(n))
    elapsed = time.perf_counter() - start
    rhs = rhs_closed_form(spec)
    rel = abs(res.value - rhs) / abs(rhs)
    return rel, elapsed, res


def test_criterion_01_beta_integral_evaluation():
    """20 seeded admissible draws at q=0.31, p=0.23, |t| in [0.3, 0.85]."""
    smp = Sampler(101)
    worst_rel, worst_time, nodes = 0.0, 0.0, 0
    for _ in range(20):
        rel, elapsed, res = family_case(smp, Family.E, 1, 1e-9, 1.0)
        worst_rel = max(worst_rel, rel)
        worst_time = max(worst_time, elapsed)
        nodes = max(nodes, res.nodes_used)
    ok = worst_rel <= 1e-9 and worst_time < 1.0 and nodes <= 512
    report("criterion 1 (single beta integral, 20 draws)", ok,
           f"worst rel={worst_rel:.2e} tol=1e-9, worst {worst_time * 1e3:.0f} ms, "
           f"<= {nodes} nodes")


@pytest.mark.parametrize("family,label", [(Family.CN_I, "type I"),
                                          (Family.CN_II, "type II")])
def test_criterion_02_cn_types_one_two(family, label):
    smp = Sampler(202)
    rel1, t1, _ = family_case(smp, family, 1, 1e-9, 1.0)
    rel2, t2, res2 = family_case(smp, family, 2, 1e-6, 120.0)
    ok = (rel1 <= 1e-9 and t1 < 1.0 and rel2 <= 1e-6 and t2 < 120.0
          and res2.nodes_used <= 384 ** 2)
    report(f"criterion 2 ({label})", ok,
           f"n=1 rel={rel1:.2e}, n=2 rel={rel2:.2e} "
           f"({t2:.2f} s, {res2.nodes_used} nodes)")


def test_criterion_03_cn_type_three_and_asymmetry():
    smp = Sampler(303)
    rel1, t1, _ = family_case(smp, Family.CN_III, 1, 1e-9, 1.0)
    rel2, t2, _ = family_case(smp, Family.CN_III, 2, 1e-6, 120.0)
    spec = _draw_spec(smp, Family.CN_III, 2)
    swapped = IntegrandSpec(spec.family, spec.n, spec.params,
                            spec.moduli.swapped())
    zs = tuple(cmath.exp(2j * cmath.pi * smp.rng.random()) for _ in range(2))
    v1 = make_integrand(spec)(zs)
    v2 = make_integrand(swapped)(zs)
    asym = abs(v1 - v2) / abs(v1)
    ok = rel1 <= 1e-9 and rel2 <= 1e-6 and t1 < 1 and t2 < 120 and asym > 1e-3
    report("criterion 3 (determinant-type integral + base asymmetry)", ok,
           f"n=1 rel={rel1:.2e}, n=2 rel={rel2:.2e}, asymmetry={asym:.3f}")


def test_criterion_04_an_type_one():
    smp = Sampler(404)
    rel1, t1, _ = family_case(smp, Family.AN_I, 1, 1e-9, 1.0)
    rel2, t2, _ = family_case(smp, Family.AN_I, 2, 1e-6, 120.0)
    # n=1 must coincide with the 5-parameter beta evaluation
    spec = _draw_spec(smp, Family.AN_I, 1)
    pooled = IntegrandSpec(Family.E, 1,
                           ParamSet(t=spec.params.t + spec.params.f),
                           spec.moduli)
    agree = abs(rhs_closed_form(spec) - rhs_closed_form(pooled)) \
        / abs(rhs_closed_form(pooled))
    ok = rel1 <= 1e-9 and rel2 <= 1e-6 and agree <= 1e-12 and t2 < 120
    report("criterion 4 (constrained-torus integral, conjecture support)", ok,
           f"n=1 rel={rel1:.2e} (matches 5-parameter form to {agree:.1e}), "
           f"n=2 rel={rel2:.2e}")


@pytest.mark.parametrize("family,n,label", [
    (Family.AN_II, 1, "pair-coupled odd n=1"),
    (Family.AN_II, 2, "pair-coupled even n=2"),
    (Family.AN_III, 1, "single-coupled odd n=1"),
    (Family.AN_III, 2, "single-coupled even n=2"),
])
def test_criterion_05_an_types_two_three(family, n, label):
    smp = Sampler(505 + n)
    rel, t, _ = family_case(smp, family, n, 1e-6, 120.0)
    ok = rel <= 1e-6 and t < 120.0
    report(f"criterion 5 ({label})", ok, f"rel={rel:.2e} ({t:.2f} s)")


def test_criterion_06_terminating_sum_closed_form():
    reports = run_check("ft_sum", CheckOptions(seed=606, tol=1e-12))
    worst = max(r.rel_err for r in reports)
    ok = all(r.passed for r in reports) and len(reports) == 50
    report("criterion 6 (terminating sum, 50 draws, N <= 8)", ok,
           f"worst rel={worst:.2e} tol=1e-12")


def test_criterion_07_bailey_transform_all_permutations():
    reports = run_check("bailey", CheckOptions(seed=707, tol=1e-11, n=5))
    worst = max(r.rel_err for r in reports)
    ok = all(r.passed for r in reports) and len(reports) == 24
    report("criterion 7 (transform, 24 permutations at N=5)", ok,
           f"worst rel={worst:.2e} tol=1e-11")


def test_criterion_08_contiguous_relations():
    reports = run_check("contiguous", CheckOptions(seed=808, tol=1e-11))
    worst = max(r.abs_err for r in reports)
    ok = all(r.passed for r in reports)
    report("criterion 8 (three contiguous relations, n <= 4)", ok,
           f"worst residual={worst:.2e} tol=1e-11")


def test_criterion_09_multiple_box_sum():
    reports = run_check("milne", CheckOptions(seed=909, tol=1e-10))
    worst = max(r.rel_err for r in reports)
    ok = all(r.passed for r in reports)
    report("criterion 9 (box-constrained multiple sum, n <= 3)", ok,
           f"worst rel={worst:.2e} tol=1e-10")


def test_criterion_10_constrained_composition_sum():
    reports = run_check("gustafson_rakha", CheckOptions(seed=1010, tol=1e-9))
    worst = max(r.rel_err for r in reports)
    ok = all(r.passed for r in reports)
    report("criterion 10 (composition-constrained sum, both parities)", ok,
           f"worst rel={worst:.2e} tol=1e-9 (conjecture support)")


def test_criterion_11_determinant_evaluation():
    reports = run_check("kratt", CheckOptions(seed=1111, tol=1e-10))
    worst = max(r.rel_err for r in reports)
    ok = all(r.passed for r in reports)
    report("criterion 11 (determinant evaluation, n <= 5)", ok,
           f"worst rel={worst:.2e} tol=1e-10")


def test_criterion_12_theta_identities_thousand_draws():
    worsts = {}
    for name, check in (("four-product", "ident"), ("expansion-1", "id1"),
                        ("partial-fraction", "id2"), ("expansion-3", "id3")):
        rep = run_check(check, CheckOptions(seed=1212, tol=1e-12))[0]
        worsts[name] = rep.abs_err
        assert rep.passed, (name, rep.abs_err)
    ok = max(worsts.values()) <= 1e-12
    report("criterion 12 (theta identities, 1000 draws each)", ok,
           " ".join(f"{k}={v:.1e}" for k, v in worsts.items()))


def test_criterion_13_difference_equation_and_transformation():
    reps = run_check("an_diffeq", CheckOptions(seed=1313))
    closed = [r for r in reps if "closed" in r.name]
    integral = [r for r in reps if "integral" in r.name]
    rep_t = run_check("an_transform", CheckOptions(seed=1313, tol=1e-8))[0]
    ok = (all(r.passed and r.abs_err <= 1e-12 for r in closed)
          and all(r.passed and r.abs_err <= 1e-8 for r in integral)
          and rep_t.passed)
    report("criterion 13 (shift equation + symmetry transformation)", ok,
           f"closed worst={max(r.abs_err for r in closed):.1e}, "
           f"integral={integral[0].abs_err:.1e}, transform rel={rep_t.rel_err:.1e}")


def test_criterion_14_biorthogonality_single_and_two_index():
    rp = default_rahman_params(1414)
    cfg = QuadratureConfig(nodes_per_dim=512, max_doublings=2, rel_tol=1e-11)
    scale = abs(min(abs(norm_h(j, rp)) for j in range(4)) * rp.beta_value())
    worst_diag, worst_off = 0.0, 0.0
    cells = [(n, m, 0, 0) for n in range(4) for m in range(4)]
    vals, expecteds, _, _ = biorth_value(cells, rp, cfg)
    for (n, m, _, _), val, expected in zip(cells, vals, expecteds):
        if n == m:
            worst_diag = max(worst_diag, abs(val - expected) / abs(expected))
        else:
            worst_off = max(worst_off, abs(val) / scale)
    ok = worst_diag <= 1e-8 and worst_off <= 1e-8

    # two-index grids: the admissible cells carry the Kronecker structure;
    # cells mixing both shifted indices have no undeformed-contour
    # realization (|t4| < |q^m p^k| together with |A| > |q^(1-n) p^(1-l)|
    # forces |A| > |t4|, impossible) and must hit the gate.
    set_a, set_b = biorth2_param_sets(1414)
    cfg2 = QuadratureConfig(nodes_per_dim=1024, max_doublings=2, rel_tol=1e-11)
    worst2_diag, worst2_off = 0.0, 0.0
    for rp2, pairs in ((set_a, [(0, 0), (1, 0)]), (set_b, [(0, 0), (0, 1)])):
        scale2 = abs(norm_h(0, rp2, "q") * norm_h(0, rp2, "p")
                     * rp2.beta_value())
        cells = [(n_, m_, k_, l_) for (m_, k_) in pairs for (n_, l_) in pairs]
        vals, expecteds, _, _ = biorth_value(cells, rp2, cfg2)
        for (n_, m_, k_, l_), val, expected in zip(cells, vals, expecteds):
            if (m_, k_) == (n_, l_):
                worst2_diag = max(worst2_diag,
                                  abs(val - expected) / abs(expected))
            else:
                worst2_off = max(worst2_off, abs(val) / scale2)
    gated = 0
    for (m_, k_, n_, l_) in ((1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 0, 1)):
        with pytest.raises(InadmissibleContour):
            biorth_value([(n_, m_, k_, l_)], set_a, cfg2)
        gated += 1
    ok = ok and worst2_diag <= 1e-8 and worst2_off <= 1e-8 and gated == 3
    report("criterion 14 (biorthogonality 4x4 + two-index cells)", ok,
           f"diag={worst_diag:.1e} offdiag={worst_off:.1e} "
           f"two-index diag={worst2_diag:.1e} off={worst2_off:.1e} "
           f"({gated} structurally inadmissible cells gated)")


def test_criterion_15_operator_checks():
    # rows: D_{q^n} R_n, both operators on R_nm, recurrence vs series, gauge
    rows = run_check("operator", CheckOptions(seed=1515))
    assert [r.tol for r in rows] == [1e-10, 1e-10, 1e-10, 1e-12]
    report("criterion 15 (difference operator checks)",
           all(r.passed for r in rows),
           " ".join(f"{r.name}={r.abs_err:.1e}" for r in rows))


def test_criterion_16_weight_shift_and_integral_representation():
    rp_q, rp_p = intrep_param_sets(1616)
    cfg = QuadratureConfig(nodes_per_dim=512, max_doublings=2, rel_tol=1e-11)
    def worst(sides):
        lhs, rhs, _ = sides
        return max(abs(a - b) / abs(b) for a, b in zip(lhs, rhs))

    worst_sb = worst_ir = 0.0
    for rp, cells in ((rp_q, [(1, 0), (2, 0)]), (rp_p, [(0, 1), (0, 2)])):
        worst_sb = max(worst_sb, worst(shifted_beta_sides(cells, rp, cfg)))
        worst_ir = max(worst_ir, worst(twelveV_integral_rep_sides(
            0.6 + 0.1j, 0.55 - 0.05j, cells, rp, cfg)))
    # both-index-shifted cases require |A| > |q^(1-i) p^(1-j)| >= 1: no
    # admissible parameters exist on the undeformed circle; the gate fires
    gated = 0
    for i, j in ((1, 1), (2, 1), (1, 2), (2, 2)):
        with pytest.raises(InadmissibleContour):
            shifted_beta_sides([(i, j)], rp_q, cfg)
        with pytest.raises(InadmissibleContour):
            twelveV_integral_rep_sides(0.6, 0.55, [(i, j)], rp_q, cfg)
        gated += 2
    ok = worst_sb <= 1e-8 and worst_ir <= 1e-8 and gated == 8
    report("criterion 16 (shifted weight + integral representation)", ok,
           f"shifted worst={worst_sb:.1e}, representation worst={worst_ir:.1e} "
           f"({gated} index pairs with empty admissible region gated)")


def test_criterion_17_degenerations():
    q = 0.31
    smp = Sampler(1717)
    m_small = Moduli(q, 1e-10)
    from ehv.integrands import validate_domain

    spec = smp.accept(
        lambda: IntegrandSpec(Family.E, 1,
                              ParamSet(t=smp.args(5, 0.4, 0.8)), m_small),
        lambda s: validate_domain(s).ok)
    res = integrate_factors(make_integrand(spec),
                          QuadratureConfig(nodes_per_dim=256, max_doublings=1,
                                           rel_tol=1e-11))
    t = spec.params.t
    A = spec.product_A
    rhs = 2.0 / qpochhammer(q, q)
    for i in range(5):
        rhs *= qpochhammer(A / t[i], q)
        for j in range(i + 1, 5):
            rhs /= qpochhammer(t[i] * t[j], q)
    rel = abs(res.value - rhs) / abs(rhs)
    z = smp.arg(0.3, 1.5)
    unit = elliptic_gamma(z, Moduli(q, 0.0)) * qpochhammer(z, q)
    ok = rel <= 1e-6 and abs(unit - 1.0) <= 1e-13
    report("criterion 17 (small-p degeneration)", ok,
           f"quadrature vs q-factor form rel={rel:.2e}, "
           f"gamma(z;q,0)(z;q)oo-1={abs(unit - 1.0):.1e}")


def test_criterion_18_function_level_invariants():
    smp = Sampler(1818)
    worst_qp = worst_split = worst_gd = worst_refl = worst_sym = 0.0
    m = Moduli(0.31, 0.23)
    for _ in range(1000):
        z = smp.arg(0.1, 10.0)
        p = smp.arg(0.05, 0.6)
        t = theta(z, p)
        if t != 0:
            worst_qp = max(worst_qp,
                           abs(theta(p * z, p) + t / z) / abs(t),
                           abs(theta(1 / z, p) + t / z) / abs(t))
        w = smp.arg(0.2, 2.0)
        mth, nth = smp.rng.randint(-3, 3), smp.rng.randint(-3, 3)
        from ehv.core import theta_factorial

        lhs = theta_factorial(w, 0.23, 0.31, mth + nth)
        rhs = (theta_factorial(w, 0.23, 0.31, mth)
               * theta_factorial(w * 0.31 ** mth, 0.23, 0.31, nth))
        worst_split = max(worst_split,
                          abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30))
        zz = smp.arg(0.2, 2.0)
        g = elliptic_gamma(zz, m)
        worst_gd = max(
            worst_gd,
            abs(elliptic_gamma(m.q * zz, m) - theta(zz, m.p) * g) / abs(g),
            abs(elliptic_gamma(m.p * zz, m) - theta(zz, m.q) * g) / abs(g))
        worst_refl = max(worst_refl, abs(
            elliptic_gamma(zz, m) * elliptic_gamma(m.p * m.q / zz, m) - 1.0))
        worst_sym = max(worst_sym, abs(
            elliptic_gamma(zz, m) - elliptic_gamma(zz, m.swapped())) / abs(g))
    # modified gamma difference equations
    wqp = QuasiPeriods(1.0 + 0.4j, 1.0, 0.3 + 0.5j)
    u = 0.21 + 0.07j
    G0 = modified_gamma_G(u, wqp)
    x2 = cmath.exp(2j * cmath.pi * u / wqp.omega2)
    x1 = cmath.exp(2j * cmath.pi * u / wqp.omega1)
    r1 = abs(modified_gamma_G(u + wqp.omega1, wqp) - theta(x2, wqp.p) * G0)
    r2 = abs(modified_gamma_G(u + wqp.omega2, wqp) - theta(x1, wqp.p_tilde) * G0)
    s = double_sine
    r3 = abs(modified_gamma_G(u + wqp.omega3, wqp)
             - s(u, wqp.omega1, wqp.omega2)
             * s(wqp.omega1 + wqp.omega2 - u, wqp.omega1, wqp.omega2) * G0)
    gref = abs(G0)
    ok = (worst_qp <= 1e-12 and worst_split <= 1e-12 and worst_gd <= 1e-12
          and worst_refl <= 1e-12 and worst_sym <= 1e-13
          and max(r1, r2, r3) / gref <= 1e-10)
    report("criterion 18 (function-level invariant suites, 1000 draws)", ok,
           f"theta-shift={worst_qp:.1e} splitting={worst_split:.1e} "
           f"gamma-laws={worst_gd:.1e} reflection={worst_refl:.1e} "
           f"base-symmetry={worst_sym:.1e} modified-gamma={max(r1, r2, r3) / gref:.1e}")
