"""Named verification checks behind `ehv verify`.

Every entry draws seeded admissible parameters (rejection sampling against
the domain/contour gates, rejection count tracked), runs its identity at
the stated default tolerance, and yields VerificationReport rows in a
deterministic order.  Supplying a parameter file replaces the seeded draw
for the checks that accept one.
"""

from __future__ import annotations

import cmath
import math
import itertools
import random
import time
from dataclasses import dataclass

from .core import Moduli, qpochhammer
from .errors import EHVError, PoleHit
from .gamma import elliptic_gamma
from .identities import (
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
from .integrands import (
    Family,
    IntegrandSpec,
    ParamSet,
    make_integrand,
    rhs_closed_form,
    validate_domain,
)
from .biorthogonal import (
    RahmanParams,
    biorth_integral,
    contour_check,
    norm_h,
    shifted_beta_identity,
    twelveV_integral_rep_sides,
)
from .quadrature import QuadratureConfig, integrate_spec
from .report import VerificationReport
from .series import (
    VSpec,
    bailey_transform_check,
    contiguous_relative_residuals,
    frenkel_turaev_rhs,
    gustafson_rakha_condition,
    gustafson_rakha_sum_sides,
    milne_condition,
    milne_sum_sides,
    sum_V_info,
)

DEFAULT_MODULI = Moduli(0.31, 0.23)

DEFAULT_TOL = {
    "theorem1": 1e-9,
    "cn1": None,          # rank dependent, see _rank_tol
    "cn2": None,
    "cn3": None,
    "an1": None,
    "an2_odd": 1e-6,
    "an2_even": 1e-6,
    "an3_odd": 1e-6,
    "an3_even": 1e-6,
    "ft_sum": 1e-12,
    "bailey": 1e-11,
    "contiguous": 1e-11,
    "milne": 1e-10,
    "gustafson_rakha": 1e-9,
    "kratt": 1e-10,
    "ident": 1e-12,
    "id1": 1e-12,
    "id2": 1e-12,
    "id3": 1e-12,
    "an_diffeq": 1e-12,
    "an_transform": 1e-8,
    "biorth": 1e-8,
    "biorth2": 1e-8,
    "intrep": 1e-8,
    "shifted_beta": 1e-8,
    "degeneration_p0": 1e-6,
}


@dataclass
class CheckOptions:
    seed: int = 0
    tol: float | None = None
    nodes: int | None = None
    n: int | None = None
    m: int | None = None
    side: str | None = None
    params: dict | None = None


_REJECTION_COUNT = 0


def rejection_count() -> int:
    """Draws rejected by admissibility/conditioning gates in the last run."""
    return _REJECTION_COUNT


def _reset_rejections() -> None:
    global _REJECTION_COUNT
    _REJECTION_COUNT = 0


class Sampler:
    """Seeded rejection sampler for admissible parameter draws."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.rejections = 0

    def arg(self, lo: float, hi: float):
        from ._backend import coerce

        r = self.rng.uniform(lo, hi)
        return coerce(r * cmath.exp(2j * cmath.pi * self.rng.random()))

    def args(self, k: int, lo: float, hi: float):
        return tuple(self.arg(lo, hi) for _ in range(k))

    def accept(self, draw, ok, max_tries: int = 5000):
        global _REJECTION_COUNT
        for _ in range(max_tries):
            cand = draw()
            if ok(cand):
                return cand
            self.rejections += 1
            _REJECTION_COUNT += 1
        raise EHVError("rejection sampling exhausted; no admissible draw")


def _timer():
    start = time.perf_counter()
    return lambda: (time.perf_counter() - start) * 1e3


def _rank_tol(n: int) -> float:
    return 1e-9 if n == 1 else 1e-6


def _rank_cfg(n: int, nodes: int | None) -> QuadratureConfig:
    if n == 1:
        return QuadratureConfig(nodes_per_dim=nodes or 256, max_doublings=1,
                                rel_tol=1e-11)
    return QuadratureConfig(nodes_per_dim=nodes or 96, max_doublings=2,
                            rel_tol=1e-8)


def _family_report(name, spec, tol, nodes) -> VerificationReport:
    from .params import spec_to_params

    elapse = _timer()
    vd = validate_domain(spec)
    if not vd.ok:
        return VerificationReport.failure(
            name, f"DomainViolation {vd.failures()}", tol,
            params=spec_to_params(spec))
    res = integrate_spec(spec, _rank_cfg(spec.n, nodes))
    rhs = rhs_closed_form(spec)
    rep = VerificationReport.from_sides(
        name, res.value, rhs, tol, nodes=res.nodes_used,
        params=spec_to_params(spec))
    rep.runtime_ms = elapse()
    return rep


# -- seeded spec draws per family ------------------------------------------------


def _draw_spec(smp: Sampler, family: Family, n: int,
               moduli: Moduli = DEFAULT_MODULI) -> IntegrandSpec:
    def build():
        if family is Family.E:
            return IntegrandSpec(family, 1, ParamSet(t=smp.args(5, 0.3, 0.85)),
                                 moduli)
        if family is Family.CN_I:
            lo = 0.62 if n == 1 else 0.72
            return IntegrandSpec(family, n,
                                 ParamSet(t=smp.args(2 * n + 3, lo, 0.85)),
                                 moduli)
        if family is Family.CN_II:
            tc = smp.arg(0.2, 0.5) if n == 1 else smp.arg(0.6, 0.8)
            return IntegrandSpec(family, n,
                                 ParamSet(t=smp.args(5, 0.6, 0.85),
                                          extras={"t": tc}), moduli)
        if family is Family.CN_III:
            if n == 1:
                x = smp.args(1, 0.55, 0.8)
                t3 = smp.args(3, 0.5, 0.8)
                tc = smp.arg(0.15, 0.45)
            else:
                x = smp.args(n, 0.65, 0.85)
                t3 = smp.args(3, 0.8, 0.92)
                tc = smp.arg(0.45, 0.6)
            return IntegrandSpec(family, n, ParamSet(t=t3, x=x,
                                                     extras={"t": tc}), moduli)
        if family is Family.AN_I:
            lo = 0.45 if n == 1 else 0.55
            return IntegrandSpec(family, n,
                                 ParamSet(t=smp.args(n + 1, lo, 0.8),
                                          f=smp.args(n + 2, lo, 0.8)), moduli)
        if family is Family.AN_II:
            lo = 0.5 if n == 1 else 0.7
            sc_lo = 0.3 if n == 1 else 0.55
            return IntegrandSpec(
                family, n, ParamSet(t=smp.args(5, lo, 0.88),
                                    extras={"t": smp.arg(sc_lo, 0.75),
                                            "s": smp.arg(sc_lo, 0.75)}), moduli)
        if family is Family.AN_III:
            lo = 0.75
            return IntegrandSpec(
                family, n, ParamSet(t=smp.args(n + 4, lo, 0.92),
                                    extras={"t": smp.arg(0.7 if n == 1 else 0.8,
                                                         0.93)}), moduli)
        raise EHVError(f"no sampler for {family.value}")

    # the n=1 runs get at most 512 nodes, n>=2 runs at most 384 per dim;
    # keep the geometric convergence rate inside those budgets
    radius_cap = 0.88 if n == 1 else 0.925

    def ok(spec):
        vd = validate_domain(spec)
        return vd.ok and vd.radius <= radius_cap

    return smp.accept(build, ok)


def _spec_from_options(opts: CheckOptions, family: Family, n: int):
    if opts.params is not None:
        from .params import spec_from_params

        raw = dict(opts.params)
        raw.setdefault("family", family.value)
        raw.setdefault("n", n)
        return spec_from_params(raw)
    return None


# -- quadrature-family checks ----------------------------------------------------


def check_theorem1(opts: CheckOptions):
    tol = opts.tol or DEFAULT_TOL["theorem1"]
    spec = _spec_from_options(opts, Family.E, 1)
    if spec is not None:
        return [_family_report("theorem1", spec, tol, opts.nodes)]
    smp = Sampler(opts.seed)
    reports = []
    for i in range(20):
        spec = _draw_spec(smp, Family.E, 1)
        reports.append(_family_report(f"theorem1[{i}]", spec, tol, opts.nodes))
    return reports


def _check_family(opts, name, family, tol_fn, draws=2):
    reports = []
    for n_run in ([opts.n] if opts.n else [1, 2]):
        tol = opts.tol or tol_fn(n_run)
        spec = _spec_from_options(opts, family, n_run)
        if spec is not None:
            reports.append(_family_report(f"{name}[n={n_run}]", spec, tol,
                                          opts.nodes))
            continue
        smp = Sampler(opts.seed + n_run)
        for i in range(draws):
            spec = _draw_spec(smp, family, n_run)
            reports.append(_family_report(f"{name}[n={n_run},{i}]", spec, tol,
                                          opts.nodes))
    return reports


def check_cn1(opts):
    return _check_family(opts, "cn1", Family.CN_I, _rank_tol)


def check_cn2(opts):
    return _check_family(opts, "cn2", Family.CN_II, _rank_tol)


def check_cn3(opts):
    reports = _check_family(opts, "cn3", Family.CN_III, _rank_tol)
    # q <-> p asymmetry of the integrand at a generic point, encoded so that
    # pass means the relative difference exceeds the 1e-3 threshold.
    smp = Sampler(opts.seed + 99)
    spec = _draw_spec(smp, Family.CN_III, 2)
    swapped = IntegrandSpec(spec.family, spec.n, spec.params,
                            spec.moduli.swapped())
    zs = tuple(cmath.exp(2j * cmath.pi * smp.rng.random()) for _ in range(2))
    v1 = make_integrand(spec)(zs)
    v2 = make_integrand(swapped)(zs)
    rel = abs(v1 - v2) / abs(v1)
    clamped = min(rel, 1e-3)
    reports.append(VerificationReport.from_sides(
        "cn3 asymmetry (clamped at 1e-3)", clamped, 1e-3, 1e-12,
        params={"zs": list(zs)}))
    return reports


def check_an1(opts):
    reports = _check_family(opts, "an1 (conjecture support)", Family.AN_I,
                            _rank_tol)
    # n=1 closed form must coincide with the 5-parameter beta evaluation
    smp = Sampler(opts.seed + 7)
    spec = _draw_spec(smp, Family.AN_I, 1)
    pooled = IntegrandSpec(Family.E, 1,
                           ParamSet(t=spec.params.t + spec.params.f),
                           spec.moduli)
    reports.append(VerificationReport.from_sides(
        "an1[n=1] closed form vs beta evaluation",
        rhs_closed_form(spec), rhs_closed_form(pooled),
        opts.tol or 1e-12))
    return reports


def check_an2_odd(opts):
    opts2 = CheckOptions(**{**opts.__dict__, "n": opts.n or 1})
    return _check_family(opts2, "an2_odd", Family.AN_II,
                         lambda n: opts.tol or DEFAULT_TOL["an2_odd"])


def check_an2_even(opts):
    opts2 = CheckOptions(**{**opts.__dict__, "n": opts.n or 2})
    return _check_family(opts2, "an2_even", Family.AN_II,
                         lambda n: opts.tol or DEFAULT_TOL["an2_even"])


def check_an3_odd(opts):
    opts2 = CheckOptions(**{**opts.__dict__, "n": opts.n or 1})
    return _check_family(opts2, "an3_odd", Family.AN_III,
                         lambda n: opts.tol or DEFAULT_TOL["an3_odd"])


def check_an3_even(opts):
    opts2 = CheckOptions(**{**opts.__dict__, "n": opts.n or 2})
    return _check_family(opts2, "an3_even", Family.AN_III,
                         lambda n: opts.tol or DEFAULT_TOL["an3_even"])


# -- series checks ----------------------------------------------------------------


def draw_ft_instance(smp: Sampler, m: Moduli, nmax: int = 8, cond_cap: float = 30.0):
    """Admissible, well-conditioned terminating-sum instance.

    Rejects draws whose evaluation cancels more than cond_cap of the term
    scale; at higher cancellation no double-precision evaluation could
    certify the identity at 1e-12.
    """
    q = m.q

    def build():
        N = smp.rng.randint(0, nmax)
        t0, t1, t4, t5 = smp.args(4, 0.4, 0.85)
        return (N, t0, t1, t4, t5)

    def ok(c):
        N, t0, t1, t4, t5 = c
        t6 = q ** -N
        t7 = q * t0 * t0 / (t1 * t4 * t5 * t6)
        try:
            info = sum_V_info(VSpec(t0=t0, t=(t1, t4, t5, t6, t7), x=1.0,
                                    moduli=m, N=N))
            frenkel_turaev_rhs(t0, t1, t4, t5, N, m)
        except (PoleHit, EHVError):
            return False
        return abs(info.value) > 0 and info.last_term / abs(info.value) <= cond_cap

    return smp.accept(build, ok)


def check_ft_sum(opts):
    tol = opts.tol or DEFAULT_TOL["ft_sum"]
    m = DEFAULT_MODULI
    smp = Sampler(opts.seed)
    reports = []
    for i in range(50):
        N, t0, t1, t4, t5 = draw_ft_instance(smp, m)
        elapse = _timer()
        t6 = m.q ** -N
        t7 = m.q * t0 * t0 / (t1 * t4 * t5 * t6)
        lhs = sum_V_info(VSpec(t0=t0, t=(t1, t4, t5, t6, t7), x=1.0,
                               moduli=m, N=N)).value
        rhs = frenkel_turaev_rhs(t0, t1, t4, t5, N, m)
        rep = VerificationReport.from_sides(
            f"ft_sum[{i},N={N}]", lhs, rhs, tol,
            params={"t": [t0, t1, t4, t5], "N": N})
        rep.runtime_ms = elapse()
        reports.append(rep)
    return reports


def _draw_v12(smp: Sampler, m: Moduli, N: int, cond_cap: float = 100.0,
              check_transform: bool = False):
    q = m.q

    def build():
        t0, t1, t2, t3, t4, t5 = smp.args(6, 0.45, 0.85)
        t6 = q ** -N
        t7 = t0 ** 3 * q * q / (t1 * t2 * t3 * t4 * t5 * t6)
        return (t0, t1, t2, t3, t4, t5, t6, t7)

    def well_conditioned(t0, ts):
        info = sum_V_info(VSpec(t0=t0, t=ts, x=1.0, moduli=m, N=N))
        return abs(info.value) > 0 and info.last_term / abs(info.value) <= cond_cap

    def ok(t):
        try:
            s0 = q * t[0] ** 2 / (t[1] * t[2] * t[3])
            if abs(s0) > 8.0:
                return False
            if not well_conditioned(t[0], t[1:]):
                return False
            if check_transform:
                s123 = tuple(s0 * t[i] / t[0] for i in (1, 2, 3))
                if not well_conditioned(s0, s123 + t[4:]):
                    return False
            return True
        except EHVError:
            return False

    return smp.accept(build, ok)


def check_bailey(opts):
    tol = opts.tol or DEFAULT_TOL["bailey"]
    m = DEFAULT_MODULI
    smp = Sampler(opts.seed)
    N = min(5, opts.n or 3)
    t = _draw_v12(smp, m, N, cond_cap=30.0, check_transform=True)
    reports = []
    for i, perm in enumerate(itertools.permutations(range(4))):
        elapse = _timer()
        rep = bailey_transform_check(t, N, m, perm=perm, tol=tol,
                                     name=f"bailey[perm={i}]")
        rep.runtime_ms = elapse()
        reports.append(rep)
    return reports


def check_contiguous(opts):
    tol = opts.tol or DEFAULT_TOL["contiguous"]
    m = DEFAULT_MODULI
    reports = []
    for n in (1, 2, 3, 4):
        smp = Sampler(opts.seed + n)
        t = _draw_v12(smp, m, n, cond_cap=30.0)
        elapse = _timer()
        rr = contiguous_relative_residuals(t, m)
        ms = elapse()
        for j, r in enumerate(rr, start=1):
            rep = VerificationReport.from_sides(
                f"contiguous[rel{j},n={n}]", r, 0.0, tol,
                params={"t": list(t), "n": n})
            rep.runtime_ms = ms / 3
            reports.append(rep)
    return reports


def check_milne(opts):
    tol = opts.tol or DEFAULT_TOL["milne"]
    m = DEFAULT_MODULI
    reports = []
    for n in (1, 2, 3):
        smp = Sampler(opts.seed + 11 * n)

        def build():
            Ns = tuple(smp.rng.randint(0, 3) for _ in range(n))
            tpars = smp.args(n, 0.45, 0.8)
            b, c, d = smp.args(3, 0.45, 0.8)
            return (tpars, b, c, d, Ns)

        def ok(cand):
            tpars, b, c, d, Ns = cand
            try:
                lhs, rhs = milne_sum_sides(tpars, b, c, d, Ns, m)
                cond = milne_condition(tpars, b, c, d, Ns, m)
            except EHVError:
                return False
            return abs(rhs) > 1e-8 and cond <= 1e3

        tpars, b, c, d, Ns = smp.accept(build, ok)
        elapse = _timer()
        lhs, rhs = milne_sum_sides(tpars, b, c, d, Ns, m)
        rep = VerificationReport.from_sides(
            f"milne[n={n},N={list(Ns)}]", lhs, rhs, tol,
            params={"t": list(tpars), "b": b, "c": c, "d": d, "N": list(Ns)})
        rep.runtime_ms = elapse()
        reports.append(rep)
    return reports


def check_gustafson_rakha(opts):
    tol = opts.tol or DEFAULT_TOL["gustafson_rakha"]
    m = DEFAULT_MODULI
    reports = []
    for n in (2, 3):
        for N in (1, 2, 3):
            smp = Sampler(opts.seed + 17 * n + N)

            def build():
                ts = [smp.arg(0.4, 0.9) for _ in range(n - 1)]
                tn = m.q ** (-N)
                for v in ts:
                    tn = tn / v
                ts.append(tn)
                return (tuple(ts), smp.args(3, 0.4, 0.9), smp.arg(0.3, 0.8))

            def ok(cand):
                try:
                    lhs, rhs = gustafson_rakha_sum_sides(
                        cand[0], cand[1], cand[2], N, m)
                    cond = gustafson_rakha_condition(
                        cand[0], cand[1], cand[2], N, m)
                except EHVError:
                    return False
                return abs(rhs) > 1e-10 and abs(lhs) > 0 and cond <= 300.0

            ts, textra, tg = smp.accept(build, ok)
            elapse = _timer()
            lhs, rhs = gustafson_rakha_sum_sides(ts, textra, tg, N, m)
            rep = VerificationReport.from_sides(
                f"gustafson_rakha[n={n},N={N}]", lhs, rhs, tol,
                params={"t": list(ts), "t_extra": list(textra),
                        "tglob": tg, "N": N})
            rep.runtime_ms = elapse()
            reports.append(rep)
    return reports


def check_kratt(opts):
    tol = opts.tol or DEFAULT_TOL["kratt"]
    m = DEFAULT_MODULI
    reports = []
    for n in (1, 2, 3, 4, 5):
        smp = Sampler(opts.seed + n)

        def build():
            return (smp.args(3, 0.4, 0.9), smp.args(n, 0.5, 1.5))

        def ok(cand):
            try:
                return krattenthaler_condition(*cand[0], cand[1], m) <= 1e4
            except EHVError:
                return False

        (a, b, c), X = smp.accept(build, ok)
        elapse = _timer()
        lhs, rhs = krattenthaler_det_sides(a, b, c, X, m)
        rep = VerificationReport.from_sides(
            f"kratt[n={n}]", lhs, rhs, tol,
            params={"a": a, "b": b, "c": c, "X": list(X)})
        rep.runtime_ms = elapse()
        reports.append(rep)
    return reports


def _identity_check(opts, name, runner, draws=1000):
    tol = opts.tol or DEFAULT_TOL[name]
    smp = Sampler(opts.seed)
    elapse = _timer()
    worst = 0.0
    for _ in range(draws):
        worst = max(worst, runner(smp))
    rep = VerificationReport.from_sides(
        f"{name} x{draws} (max relative residual)", worst, 0.0, tol,
        params={"seed": opts.seed, "draws": draws})
    rep.runtime_ms = elapse()
    return [rep]


def _rand_p(smp):
    return smp.arg(0.05, 0.5)


def check_ident(opts):
    def run(smp):
        p = _rand_p(smp)
        x, y, z, w = smp.args(4, 0.2, 2.0)
        return abs(riemann_identity_residual(x, y, z, w, p)) \
            / riemann_identity_scale(x, y, z, w, p)

    return _identity_check(opts, "ident", run)


def check_id1(opts):
    def run(smp):
        p = _rand_p(smp)
        n = smp.rng.randint(1, 3)
        t = smp.args(n + 1, 0.4, 1.6)
        z = list(smp.args(n, 0.9, 1.1))
        prod = 1.0 + 0.0j
        for v in z:
            prod *= v
        z.append(1.0 / prod)
        B = smp.arg(0.2, 2.0)
        return abs(id1_residual(t, z, B, p)) / id1_scale(t, z, B, p)

    return _identity_check(opts, "id1", run)


def check_id2(opts):
    def run(smp):
        p = _rand_p(smp)
        n = smp.rng.randint(1, 3)
        a = smp.args(n, 0.2, 2.0)
        b = smp.args(n, 0.2, 2.0)
        t = smp.arg(0.2, 2.0)
        return abs(partial_fraction_residual(a, b, t, p)) \
            / partial_fraction_scale(a, b, t, p)

    return _identity_check(opts, "id2", run)


def check_id3(opts):
    def run(smp):
        p = _rand_p(smp)
        n = smp.rng.randint(1, 3)
        t = smp.args(n + 1, 0.4, 1.6)
        f = smp.args(n + 2, 0.4, 1.6)
        return abs(id3_residual(t, f, p)) / id3_scale(t, f, p)

    return _identity_check(opts, "id3", run)


def _draw_an_tf(smp, n, m, lo=0.72, hi=0.92, shifted_ok=True):
    def build():
        return (smp.args(n + 1, lo, hi), smp.args(n + 2, lo, hi))

    def ok(cand):
        t, f = cand
        prod = 1.0 + 0.0j
        for v in t + f:
            prod *= v
        # shifting any t_r by q must keep |pq| < |q A B|
        return abs(prod) > abs(m.p) * 1.1

    return smp.accept(build, ok)


def check_an_diffeq(opts):
    tol = opts.tol or DEFAULT_TOL["an_diffeq"]
    m = DEFAULT_MODULI
    reports = []
    sides = [opts.side] if opts.side else ["closed_form", "integral"]
    if "closed_form" in sides:
        for n in (1, 2, 3):
            smp = Sampler(opts.seed + n)
            t, f = _draw_an_tf(smp, n, m)
            elapse = _timer()
            r = an_difference_residual(t, f, m, DiffSide.CLOSED_FORM)
            rep = VerificationReport.from_sides(
                f"an_diffeq[closed,n={n}]", r, 0.0, tol,
                params={"t": list(t), "f": list(f)})
            rep.runtime_ms = elapse()
            reports.append(rep)
    if "integral" in sides:
        smp = Sampler(opts.seed + 31)
        t, f = _draw_an_tf(smp, 1, m)
        elapse = _timer()
        cfg = QuadratureConfig(nodes_per_dim=opts.nodes or 256,
                               max_doublings=2, rel_tol=1e-10)
        r = an_difference_residual(t, f, m, DiffSide.INTEGRAL, cfg)
        rep = VerificationReport.from_sides(
            "an_diffeq[integral,n=1]", r, 0.0, max(opts.tol or 1e-8, 1e-8),
            params={"t": list(t), "f": list(f)})
        rep.runtime_ms = elapse()
        reports.append(rep)
    return reports


def check_an_transform(opts):
    tol = opts.tol or DEFAULT_TOL["an_transform"]
    m = DEFAULT_MODULI
    smp = Sampler(opts.seed)

    def build():
        return (smp.arg(0.55, 0.7), smp.args(3, 0.6, 0.8), smp.args(3, 0.6, 0.8))

    def ok(cand):
        from .integrands import an_trans_domain_check

        return an_trans_domain_check(cand[0], cand[1], cand[2], m).ok

    tg, f, s = smp.accept(build, ok)
    elapse = _timer()
    cfg = QuadratureConfig(nodes_per_dim=opts.nodes or 256, max_doublings=2,
                           rel_tol=1e-10)
    lhs, rhs, res_l, res_r = an_transformation_sides(tg, f, s, m, cfg)
    rep = VerificationReport.from_sides(
        "an_transform[n=1]", lhs, rhs, tol,
        nodes=res_l.nodes_used + res_r.nodes_used,
        params={"t": tg, "f": list(f), "s": list(s)})
    rep.runtime_ms = elapse()
    return [rep]


# -- biorthogonality and weight-shift checks --------------------------------------


def _norms_healthy(rp: RahmanParams, nmax: int, base: str = "q") -> bool:
    """Reject draws whose diagonal norms degenerate; the off-diagonal scale
    |h_min N_E| must stay a meaningful size."""
    try:
        hs = [abs(norm_h(j, rp, base)) for j in range(nmax + 1)]
    except EHVError:
        return False
    return min(hs) > 1e-3 * max(hs)


def default_rahman_params(seed: int = 0) -> RahmanParams:
    """Admissible for the whole single-index grid n, m <= 3."""
    smp = Sampler(seed)

    def build():
        t = tuple(smp.arg(0.82, 0.88) for _ in range(4)) + (smp.arg(0.42, 0.48),)
        return RahmanParams(t=t, moduli=Moduli(0.8, 0.1))

    return smp.accept(build,
                      lambda rp: (contour_check(3, 3, 0, 0, rp).admissible
                                  and _norms_healthy(rp, 3)))


def check_biorth(opts):
    tol = opts.tol or DEFAULT_TOL["biorth"]
    if opts.params is not None:
        d = opts.params
        rp = RahmanParams(t=tuple(d["t"]),
                          moduli=Moduli(d.get("q", 0.8), d.get("p", 0.1)))
    else:
        rp = default_rahman_params(opts.seed)
    cfg = QuadratureConfig(nodes_per_dim=opts.nodes or 512, max_doublings=2,
                           rel_tol=1e-11)
    pairs = ([(opts.n, opts.m)] if opts.n is not None and opts.m is not None
             else [(n, m) for n in range(4) for m in range(4)])
    reports = []
    for n, m in pairs:
        elapse = _timer()
        rep = biorth_integral(n, m, rp, cfg, tol=tol)
        rep.runtime_ms = elapse()
        reports.append(rep)
    return reports


def biorth2_param_sets(seed: int = 0):
    """Two mirrored sets covering the unit-circle-admissible two-index cells.

    Cells with both shifted R and shifted T indices require |t4| < |q^m p^k|
    together with |A| > |q^(1-n) p^(1-l)|, which forces |A| > 1 or an
    ordering contradiction between |q| and |p|; those cells have no
    undeformed-contour realization at all.
    """
    smp = Sampler(seed)

    def build():
        t_big = tuple(smp.arg(0.945, 0.965) for _ in range(4))
        t4 = smp.arg(0.38, 0.42)
        return (RahmanParams(t=t_big + (t4,), moduli=Moduli(0.5, 0.25)),
                RahmanParams(t=t_big + (t4,), moduli=Moduli(0.25, 0.5)))

    def ok(sets):
        set_a, set_b = sets
        return (contour_check(1, 1, 0, 0, set_a).admissible
                and contour_check(0, 0, 1, 1, set_b).admissible
                and _norms_healthy(set_a, 1, "q")
                and _norms_healthy(set_b, 1, "p"))

    return smp.accept(build, ok)


def check_biorth2(opts):
    tol = opts.tol or DEFAULT_TOL["biorth2"]
    set_a, set_b = biorth2_param_sets(opts.seed)
    cfg = QuadratureConfig(nodes_per_dim=opts.nodes or 1024, max_doublings=2,
                           rel_tol=1e-11)
    reports = []
    for label, rp, cells in (
            ("qshift", set_a, [(0, 0), (1, 0)]),
            ("pshift", set_b, [(0, 0), (0, 1)])):
        for (m_, k_) in cells:
            for (n_, l_) in cells:
                elapse = _timer()
                rep = biorth_integral(n_, m_, rp, cfg, k=k_, l=l_, tol=tol)
                rep.name = f"biorth2/{label} " + rep.name
                rep.runtime_ms = elapse()
                reports.append(rep)
    return reports


def intrep_param_sets(seed: int = 0):
    smp = Sampler(seed)
    t = (tuple(smp.arg(0.82, 0.88) for _ in range(4)) + (smp.arg(0.42, 0.48),))
    return (RahmanParams(t=t, moduli=Moduli(0.8, 0.1)),
            RahmanParams(t=t, moduli=Moduli(0.1, 0.8)))


def check_intrep(opts):
    tol = opts.tol or DEFAULT_TOL["intrep"]
    rp_q, rp_p = intrep_param_sets(opts.seed)
    smp = Sampler(opts.seed + 5)
    alpha, beta = smp.arg(0.5, 0.7), smp.arg(0.5, 0.7)
    cfg = QuadratureConfig(nodes_per_dim=opts.nodes or 512, max_doublings=2,
                           rel_tol=1e-11)
    cases = [(rp_q, 0, 0), (rp_q, 1, 0), (rp_q, 2, 0),
             (rp_p, 0, 1), (rp_p, 0, 2)]
    reports = []
    for rp, m_, n_ in cases:
        elapse = _timer()
        lhs, rhs, res = twelveV_integral_rep_sides(alpha, beta, m_, n_, rp, cfg)
        rep = VerificationReport.from_sides(
            f"intrep[m={m_},n={n_}]", lhs, rhs, tol, nodes=res.nodes_used,
            params={"t": list(rp.t), "alpha": alpha, "beta": beta,
                    "m": m_, "n": n_})
        rep.runtime_ms = elapse()
        reports.append(rep)
    return reports


def check_shifted_beta(opts):
    tol = opts.tol or DEFAULT_TOL["shifted_beta"]
    rp_q, rp_p = intrep_param_sets(opts.seed)
    cfg = QuadratureConfig(nodes_per_dim=opts.nodes or 512, max_doublings=2,
                           rel_tol=1e-11)
    cases = [(rp_q, 0, 0), (rp_q, 1, 0), (rp_q, 2, 0),
             (rp_p, 0, 1), (rp_p, 0, 2)]
    reports = []
    for rp, i_, j_ in cases:
        elapse = _timer()
        rep = shifted_beta_identity(i_, j_, rp, cfg, tol=tol)
        rep.runtime_ms = elapse()
        reports.append(rep)
    return reports


def check_degeneration_p0(opts):
    tol = opts.tol or DEFAULT_TOL["degeneration_p0"]
    smp = Sampler(opts.seed)
    q = 0.31
    m_small = Moduli(q, 1e-10)
    spec = smp.accept(
        lambda: IntegrandSpec(Family.E, 1, ParamSet(t=smp.args(5, 0.4, 0.8)),
                              m_small),
        lambda s: validate_domain(s).ok)
    elapse = _timer()
    cfg = QuadratureConfig(nodes_per_dim=opts.nodes or 256, max_doublings=1,
                           rel_tol=1e-11)
    res = integrate_spec(spec, cfg)
    t = spec.params.t
    A = spec.product_A
    rhs = 2.0 / qpochhammer(q, q)
    for i in range(5):
        rhs *= qpochhammer(A / t[i], q)
        for j in range(i + 1, 5):
            rhs /= qpochhammer(t[i] * t[j], q)
    rep1 = VerificationReport.from_sides(
        "degeneration_p0[quadrature vs q-factor form]", res.value, rhs, tol,
        nodes=res.nodes_used, params={"t": list(t), "q": q})
    rep1.runtime_ms = elapse()

    z = smp.arg(0.3, 1.5)
    g0 = elliptic_gamma(z, Moduli(q, 0.0))
    rep2 = VerificationReport.from_sides(
        "degeneration_p0[gamma(z;q,0) (z;q)oo = 1]",
        g0 * qpochhammer(z, q), 1.0, 1e-13, params={"z": z, "q": q})
    return [rep1, rep2]


REGISTRY = {
    "theorem1": check_theorem1,
    "cn1": check_cn1,
    "cn2": check_cn2,
    "cn3": check_cn3,
    "an1": check_an1,
    "an2_odd": check_an2_odd,
    "an2_even": check_an2_even,
    "an3_odd": check_an3_odd,
    "an3_even": check_an3_even,
    "ft_sum": check_ft_sum,
    "bailey": check_bailey,
    "contiguous": check_contiguous,
    "milne": check_milne,
    "gustafson_rakha": check_gustafson_rakha,
    "kratt": check_kratt,
    "ident": check_ident,
    "id1": check_id1,
    "id2": check_id2,
    "id3": check_id3,
    "an_diffeq": check_an_diffeq,
    "an_transform": check_an_transform,
    "biorth": check_biorth,
    "biorth2": check_biorth2,
    "intrep": check_intrep,
    "shifted_beta": check_shifted_beta,
    "degeneration_p0": check_degeneration_p0,
}


def run_check(name: str, opts: CheckOptions):
    if name not in REGISTRY:
        raise EHVError(f"unknown identity {name!r}; known: {sorted(REGISTRY)}")
    _reset_rejections()
    return REGISTRY[name](opts)
