"""Named verification checks behind `ehv verify`.

Every entry is a generator ``fn(opts, tol)`` registered once, with its
default tolerance and the options it reads, by ``@_check(name, tol=...,
reads=...)``.  It draws seeded admissible parameters (rejection sampling
against the domain/contour gates, rejection count tracked), runs its
identity at ``tol`` and yields VerificationReport rows in a deterministic
order.  Every check reads ``seed`` and ``tol``; ``run_check`` refuses any
other option that is set and the check does not read.  A parameter file
replaces the draws of a family check by the one spec it gives
(``file_spec``) and supplies ``biorth``'s parameters.  ``run_check`` also
resolves the tolerance and times the rows.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import random
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ._backend import coerce
from .core import Moduli, qpochhammer
from .errors import EHVError, PoleHit
from .gamma import elliptic_gamma
from .identities import (
    DiffSide,
    an_difference_residual,
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
from .integrands import (
    Family,
    IntegrandSpec,
    ParamSet,
    an_trans_domain_check,
    domain_table,
    make_integrand,
    rhs_closed_form,
    validate_domain,
)
from .biorthogonal import (
    OperatorGauge,
    R_n,
    R_nm,
    RahmanParams,
    biorth_integral,
    contour_check,
    eigen_residual,
    norm_h,
    recurrence_next,
    shifted_beta_sides,
    twelveV_integral_rep_sides,
)
from .params import spec_from_params, spec_to_params
from .quadrature import QuadratureConfig, integrate_factors
from .report import VerificationReport
from .series import (
    VSpec,
    bailey_map,
    bailey_transform_check,
    contiguous_relative_residuals,
    frenkel_turaev_rhs,
    gustafson_rakha_condition,
    gustafson_rakha_parts,
    gustafson_rakha_sum_sides,
    milne_condition,
    milne_parts,
    milne_sum_sides,
    sum_V_info,
)

DEFAULT_MODULI = Moduli(0.31, 0.23)


@dataclass
class CheckOptions:
    seed: int = 0
    tol: float | None = None
    nodes: int | None = None
    n: int | None = None
    m: int | None = None
    params: dict | None = None      # a decoded file, see params.load_params


# name -> (check generator fn(opts, tol), default tolerance, the options of
# _OPTIONS it reads); a default of None leaves the tolerance to the rank, see
# _rank_tol
REGISTRY: dict = {}

# the CheckOptions a check may read besides seed and tol
_OPTIONS = ("nodes", "n", "m", "params")


def _check(name: str, tol: float | None = None, reads: tuple = ()):
    def register(fn):
        REGISTRY[name] = (fn, tol, reads)
        return fn

    return register


_REJECTION_COUNT = 0


def rejection_count() -> int:
    """Draws rejected by admissibility/conditioning gates in the last run."""
    return _REJECTION_COUNT


def _reset_rejections() -> None:
    global _REJECTION_COUNT
    _REJECTION_COUNT = 0


_TRIES = 5000        # candidates before a sampler gives up
_ALONE = 8           # candidates tried one at a time before the screen
_FIRST_BLOCK = 64    # screened blocks double from this ...
_LAST_BLOCK = 1024   # ... up to this


@dataclass(frozen=True)
class Screen:
    """A cheap array pre-test of a sampler's candidates.  One candidate is
    ``width`` consecutive doubles of the sampler's stream, and ``keep`` maps
    a (count, width) array of them to a mask that is False only where the
    exact gate cannot accept."""

    width: int
    keep: Callable[[np.ndarray], np.ndarray]


class Sampler:
    """Seeded rejection sampler for admissible parameter draws.

    ``accept`` returns the first candidate that ``ok`` admits, of at most
    _TRIES, and counts the others as rejections.  With a ``Screen`` the
    candidates after the first _ALONE are screened in blocks of 64 doubling
    to 1024: the block's doubles are read from the stream, the screen drops
    candidates in one array pass, the stream is rewound and the exact
    ``draw()`` and ``ok()`` run on each survivor in order, the stream skipped
    to it.  The screen never drops a candidate that ``ok`` admits, so every
    accepted draw, rejection count and final stream state is the one the
    plain loop gives.  The block is read, and the stream skipped, by
    ``getrandbits`` (``_doubles``), one C call each.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.rejections = 0

    def arg(self, lo: float, hi: float):
        r = self.rng.uniform(lo, hi)
        return coerce(r * cmath.exp(2j * cmath.pi * self.rng.random()))

    def args(self, k: int, lo: float, hi: float):
        return tuple(self.arg(lo, hi) for _ in range(k))

    def accept(self, draw, ok, screen: Screen | None = None):
        tried, block = 0, _FIRST_BLOCK
        while tried < _TRIES:
            if screen is None or tried < _ALONE:
                cand = draw()
                if ok(cand):
                    return cand
                self._reject(1)
                tried += 1
                continue
            count = min(block, _TRIES - tried)
            block = min(2 * block, _LAST_BLOCK)
            found, cand = self._screened(draw, ok, screen, count)
            if found:
                return cand
            tried += count
        raise EHVError("rejection sampling exhausted; no admissible draw")

    def _screened(self, draw, ok, screen: Screen, count: int):
        """(True, the first admitted candidate) of the next ``count``, the
        stream left just after it, else (False, None) past all of them."""
        rng = self.rng
        start = rng.getstate()
        u = _doubles(rng, count * screen.width)
        survivors = np.flatnonzero(screen.keep(u.reshape(count, screen.width)))
        if survivors.size:
            end = rng.getstate()
            rng.setstate(start)
            at = 0
            for i in survivors.tolist():
                rng.getrandbits(64 * (i - at) * screen.width)
                cand = draw()
                if ok(cand):
                    self._reject(i)
                    return True, cand
                at = i + 1
            rng.setstate(end)
        self._reject(count)
        return False, None

    def _reject(self, k: int) -> None:
        global _REJECTION_COUNT
        self.rejections += k
        _REJECTION_COUNT += k


def _doubles(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` doubles of ``rng.random()``, from one getrandbits
    call: random() builds a double from two 32-bit words a, b as
    ((a >> 5) 2^26 + (b >> 6)) / 2^53, and getrandbits(64 count) draws the
    same words in the same order, the first in the lowest bits."""
    words = np.frombuffer(rng.getrandbits(64 * count).to_bytes(8 * count, "little"),
                          dtype="<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) / 9007199254740992.0


def timed_rows(rows):
    """Pass rows through, setting each row's runtime_ms to the wall time
    since the previous one, so that the rows add up to the time taken."""
    last = time.perf_counter()
    for rep in rows:
        now = time.perf_counter()
        rep.runtime_ms = (now - last) * 1e3
        last = now
        yield rep


def _given(value, default):
    """value unless unset (None): 0 is a value, for its own check to reject."""
    return default if value is None else value


def check_tol(tol: float) -> float:
    """tol, or EHVError unless tol > 0 (so 0, negatives and NaN fail)."""
    if not tol > 0:
        raise EHVError(f"tolerance must be > 0, got {tol!r}")
    return tol


def _rank_tol(n: int) -> float:
    return 1e-9 if n == 1 else 1e-6


def _cfg(nodes: int | None, default: int, doublings: int,
         rel_tol: float) -> QuadratureConfig:
    """nodes (--nodes; None when unset, then default) per dimension."""
    return QuadratureConfig(nodes_per_dim=_given(nodes, default),
                            max_doublings=doublings, rel_tol=rel_tol)


def _rank_cfg(n: int, nodes: int | None) -> QuadratureConfig:
    return _cfg(nodes, 256, 1, 1e-11) if n == 1 else _cfg(nodes, 96, 2, 1e-8)


def _family_report(name, spec, tol, nodes) -> VerificationReport:
    vd = validate_domain(spec)
    if not vd.ok:
        return VerificationReport.failure(
            name, f"DomainViolation {vd.failures()}", tol,
            params=spec_to_params(spec))
    res = integrate_factors(make_integrand(spec), _rank_cfg(spec.n, nodes))
    return VerificationReport.from_sides(
        name, res.value, rhs_closed_form(spec), tol, nodes=res.nodes_used,
        params=spec_to_params(spec))


# -- seeded spec draws per family ------------------------------------------------


@functools.lru_cache(maxsize=None)
def _boxes(family: Family, n: int) -> tuple:
    """The arguments of a ``family`` draw at rank n in stream order:
    (field, count, lo, hi), count arguments of modulus in [lo, hi) for the
    sequence "t", "f" or "x", or one for the scalar extra "extras.<key>"."""
    one = n == 1
    return tuple({
        Family.E: [("t", 5, 0.3, 0.85)],
        Family.CN_I: [("t", 2 * n + 3, 0.62 if one else 0.72, 0.85)],
        Family.CN_II: [("extras.t", 1, 0.2, 0.5) if one
                       else ("extras.t", 1, 0.6, 0.8), ("t", 5, 0.6, 0.85)],
        Family.CN_III: [("x", 1, 0.55, 0.8), ("t", 3, 0.5, 0.8),
                        ("extras.t", 1, 0.15, 0.45)] if one else
                       [("x", n, 0.65, 0.85), ("t", 3, 0.8, 0.92),
                        ("extras.t", 1, 0.45, 0.6)],
        Family.AN_I: [("t", n + 1, 0.45 if one else 0.55, 0.8),
                      ("f", n + 2, 0.45 if one else 0.55, 0.8)],
        Family.AN_II: [("t", 5, 0.5 if one else 0.7, 0.88),
                       ("extras.t", 1, 0.3 if one else 0.55, 0.75),
                       ("extras.s", 1, 0.3 if one else 0.55, 0.75)],
        Family.AN_III: [("t", n + 4, 0.75, 0.92),
                        ("extras.t", 1, 0.7 if one else 0.8, 0.93)],
    }[family])


def _fields(boxes, arg) -> dict:
    """ParamSet's fields from the boxes, each argument drawn by arg(lo, hi)."""
    out = {"t": (), "f": (), "x": (), "extras": {}}
    for field, count, lo, hi in boxes:
        if field.startswith("extras."):
            out["extras"][field[len("extras."):]] = arg(lo, hi)
        else:
            out[field] = tuple(arg(lo, hi) for _ in range(count))
    return out


def _columns(u: np.ndarray):
    """arg(lo, hi) for _fields on the (count, width) doubles of a screened
    block: each argument's modulus lo + (hi - lo)·u and phase from the next
    column, as Sampler.arg computes them one double at a time."""
    phases = np.exp(2j * np.pi * u[:, 1::2])
    cols = iter(range(phases.shape[1]))

    def arg(lo, hi):
        i = next(cols)
        return (lo + (hi - lo) * u[:, 2 * i]) * phases[:, i]

    return arg


# a screened candidate is dropped only if it misses the radius cap by more
# than this, relative: far above the few-ulp gap between numpy's and
# CPython's complex arithmetic
_SCREEN_SLACK = 1 + 1e-12


def _draw_spec(smp: Sampler, family: Family, n: int,
               moduli: Moduli = DEFAULT_MODULI) -> IntegrandSpec:
    """A spec of ``family`` at rank n drawn from its boxes (_boxes) whose
    domain table holds with a pole radius within the node budget's cap.

    The exact gate (validate_domain) decides every candidate that the
    screen lets through.  The screen evaluates the same domain_table on
    numpy arrays of candidates built from the same stream doubles, and keeps
    whatever comes within _SCREEN_SLACK of passing, so no outcome of
    Sampler.accept depends on it.
    """
    boxes = _boxes(family, n)
    # the n=1 runs get at most 512 nodes, n>=2 runs at most 384 per dim;
    # keep the geometric convergence rate inside those budgets
    radius_cap = 0.88 if n == 1 else 0.925

    def build():
        return IntegrandSpec(family, n, ParamSet(**_fields(boxes, smp.arg)),
                             moduli)

    def ok(spec):
        vd = validate_domain(spec)
        return vd.ok and vd.radius <= radius_cap

    def keep(u):
        # the cap is below 1, so ok() holds iff every lhs <= radius_cap * rhs
        limit = radius_cap * _SCREEN_SLACK
        mask = np.ones(len(u), dtype=bool)
        for _, lhs, rhs in domain_table(family, n, m=moduli,
                                        **_fields(boxes, _columns(u))):
            mask &= lhs <= limit * rhs
        return mask

    width = 2 * sum(count for _, count, _, _ in boxes)
    return smp.accept(build, ok, Screen(width, keep))


def file_spec(params: dict, family: Family, n: int | None) -> IntegrandSpec:
    """The spec a decoded parameter file gives a check of ``family``: the
    file's family must be that one, and its n is the rank, which ``n``
    (--n), when given, must equal; else EHVError."""
    if params.get("family") != family.value:
        raise EHVError(f"the parameter file's family is "
                       f"{params.get('family')!r}; this check's is {family.value!r}")
    if n not in (None, params.get("n")):
        raise EHVError(f"--n {n} disagrees with the parameter file's n = "
                       f"{params.get('n')}")
    return spec_from_params(params)


def _file_check(opts, tol, name):
    """One row, ``name[n=<n>]``, at the spec of the parameter file."""
    spec = file_spec(opts.params, FAMILY_CHECKS[name][0], opts.n)
    check_parity(name, spec.n)
    yield _family_report(f"{name}[n={spec.n}]", spec,
                         _given(tol, _rank_tol(spec.n)), opts.nodes)


# -- quadrature-family checks ----------------------------------------------------


@_check("theorem1", tol=1e-9, reads=("nodes", "params"))
def check_theorem1(opts, tol):
    smp = Sampler(opts.seed)
    for i in range(20):
        spec = _draw_spec(smp, Family.E, 1)
        yield _family_report(f"theorem1[{i}]", spec, tol, opts.nodes)


def _check_family(opts, tol, name, family, rank=None):
    """Two seeded draws at each rank: opts.n, else ``rank``, else 1 and 2."""
    check_parity(name, opts.n)
    rank = _given(opts.n, rank)
    for n_run in ([1, 2] if rank is None else [rank]):
        rank_tol = _given(tol, _rank_tol(n_run))
        smp = Sampler(opts.seed + n_run)
        for i in range(2):
            spec = _draw_spec(smp, family, n_run)
            yield _family_report(f"{name}[n={n_run},{i}]", spec, rank_tol,
                                 opts.nodes)


# The family-integral checks, which `ehv sweep` also runs: name -> (family,
# rank); rank None runs ranks 1 and 2, and a sweep draws at rank 1.
FAMILY_CHECKS = {"theorem1": (Family.E, 1), "cn1": (Family.CN_I, None),
                 "cn2": (Family.CN_II, None), "cn3": (Family.CN_III, None),
                 "an1": (Family.AN_I, None), "an2_odd": (Family.AN_II, 1),
                 "an2_even": (Family.AN_II, 2), "an3_odd": (Family.AN_III, 1),
                 "an3_even": (Family.AN_III, 2)}


# The fixed-rank A_n checks test the closed form of one parity of n, which
# their names give; an n of the other parity is refused.
_PARITY_CHECKS = ("an2_odd", "an2_even", "an3_odd", "an3_even")


def check_parity(name: str, n: int | None) -> None:
    """EHVError when ``name`` is a parity check and n (--n or a parameter
    file's n) has the other parity."""
    if name in _PARITY_CHECKS and n is not None:
        rank = FAMILY_CHECKS[name][1]
        if (n - rank) % 2:
            raise EHVError(f"{name} takes an {('even', 'odd')[rank % 2]} n; "
                           f"got n = {n}")


_FAMILY_READS = ("nodes", "n", "params")


def _family_check(name, tol=None):
    family, rank = FAMILY_CHECKS[name]
    _check(name, tol, _FAMILY_READS)(functools.partial(
        _check_family, name=name, family=family, rank=rank))


_family_check("cn1")
_family_check("cn2")
_family_check("an2_odd", 1e-6)
_family_check("an2_even", 1e-6)
_family_check("an3_odd", 1e-6)
_family_check("an3_even", 1e-6)


@_check("cn3", reads=_FAMILY_READS)
def check_cn3(opts, tol):
    yield from _check_family(opts, tol, "cn3", *FAMILY_CHECKS["cn3"])
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
    yield VerificationReport.from_sides(
        "cn3 asymmetry (clamped at 1e-3)", clamped, 1e-3, 1e-12,
        params={"zs": list(zs)})


@_check("an1", reads=_FAMILY_READS)
def check_an1(opts, tol):
    yield from _check_family(opts, tol, "an1 (conjecture support)",
                             *FAMILY_CHECKS["an1"])
    # n=1 closed form must coincide with the 5-parameter beta evaluation
    smp = Sampler(opts.seed + 7)
    spec = _draw_spec(smp, Family.AN_I, 1)
    pooled = IntegrandSpec(Family.E, 1,
                           ParamSet(t=spec.params.t + spec.params.f),
                           spec.moduli)
    yield VerificationReport.from_sides(
        "an1[n=1] closed form vs beta evaluation",
        rhs_closed_form(spec), rhs_closed_form(pooled), _given(tol, 1e-12))


# -- series checks ----------------------------------------------------------------


_COND_CAP = 30.0     # largest term over |sum| of a terminating-sum draw


def draw_ft_instance(smp: Sampler, m: Moduli):
    """Admissible, well-conditioned terminating-sum instance, N <= 8.

    Rejects draws whose evaluation cancels more than _COND_CAP of the term
    scale; at higher cancellation no double-precision evaluation could
    certify the identity at 1e-12.  Returns ((N, t0, t1, t4, t5), (lhs, rhs)),
    the sides being those the acceptance test evaluated.
    """
    q = m.q
    sides = None

    def build():
        N = smp.rng.randint(0, 8)
        t0, t1, t4, t5 = smp.args(4, 0.4, 0.85)
        return (N, t0, t1, t4, t5)

    def ok(c):
        nonlocal sides
        N, t0, t1, t4, t5 = c
        t6 = q ** -N
        t7 = q * t0 * t0 / (t1 * t4 * t5 * t6)
        try:
            info = sum_V_info(VSpec(t0=t0, t=(t1, t4, t5, t6, t7), x=1.0,
                                    moduli=m, N=N))
            if not (abs(info.value) > 0
                    and info.last_term / abs(info.value) <= _COND_CAP):
                return False
            sides = (info.value, frenkel_turaev_rhs(t0, t1, t4, t5, N, m))
        except (PoleHit, EHVError):
            return False
        return True

    draw = smp.accept(build, ok)
    return draw, sides


@_check("ft_sum", tol=1e-12)
def check_ft_sum(opts, tol):
    smp = Sampler(opts.seed)
    for i in range(50):
        (N, t0, t1, t4, t5), (lhs, rhs) = draw_ft_instance(smp, DEFAULT_MODULI)
        yield VerificationReport.from_sides(
            f"ft_sum[{i},N={N}]", lhs, rhs, tol,
            params={"t": [t0, t1, t4, t5], "N": N})


def _draw_v12(smp: Sampler, m: Moduli, N: int, check_transform: bool = False):
    q = m.q

    def build():
        t0, t1, t2, t3, t4, t5 = smp.args(6, 0.45, 0.85)
        t6 = q ** -N
        t7 = t0 ** 3 * q * q / (t1 * t2 * t3 * t4 * t5 * t6)
        return (t0, t1, t2, t3, t4, t5, t6, t7)

    def well_conditioned(t0, ts):
        info = sum_V_info(VSpec(t0=t0, t=ts, x=1.0, moduli=m, N=N))
        return abs(info.value) > 0 and info.last_term / abs(info.value) <= _COND_CAP

    def ok(t):
        try:
            s = bailey_map(t, q)
            if abs(s[0]) > 8.0:
                return False
            if not well_conditioned(t[0], t[1:]):
                return False
            return not check_transform or well_conditioned(s[0], s[1:])
        except EHVError:
            return False

    return smp.accept(build, ok)


@_check("bailey", tol=1e-11, reads=("n",))
def check_bailey(opts, tol):
    m = DEFAULT_MODULI
    N = _given(opts.n, 3)
    if not 1 <= N <= 5:
        raise EHVError(f"bailey takes --n from 1 to 5, got {N}")
    smp = Sampler(opts.seed)
    t = _draw_v12(smp, m, N, check_transform=True)
    for i, perm in enumerate(itertools.permutations(range(4))):
        yield bailey_transform_check(t, N, m, perm=perm, tol=tol,
                                     name=f"bailey[perm={i}]")


@_check("contiguous", tol=1e-11)
def check_contiguous(opts, tol):
    m = DEFAULT_MODULI
    for n in (1, 2, 3, 4):
        smp = Sampler(opts.seed + n)
        t = _draw_v12(smp, m, n)
        for j, r in enumerate(contiguous_relative_residuals(t, m), start=1):
            yield VerificationReport.from_sides(
                f"contiguous[rel{j},n={n}]", r, 0.0, tol,
                params={"t": list(t), "n": n})


@_check("milne", tol=1e-10)
def check_milne(opts, tol):
    m = DEFAULT_MODULI
    sides = None
    for n in (1, 2, 3):
        smp = Sampler(opts.seed + 11 * n)

        def build():
            Ns = tuple(smp.rng.randint(0, 3) for _ in range(n))
            tpars = smp.args(n, 0.45, 0.8)
            b, c, d = smp.args(3, 0.45, 0.8)
            return (tpars, b, c, d, Ns)

        def ok(cand):
            nonlocal sides
            try:
                terms, rhs = milne_parts(*cand, m)
            except EHVError:
                return False
            sides = milne_sum_sides(terms, rhs)
            return abs(rhs) > 1e-8 and milne_condition(terms) <= 1e3

        tpars, b, c, d, Ns = smp.accept(build, ok)
        yield VerificationReport.from_sides(
            f"milne[n={n},N={list(Ns)}]", *sides, tol,
            params={"t": list(tpars), "b": b, "c": c, "d": d, "N": list(Ns)})


@_check("gustafson_rakha", tol=1e-9)
def check_gustafson_rakha(opts, tol):
    m = DEFAULT_MODULI
    sides = None
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
                nonlocal sides
                try:
                    terms, rhs = gustafson_rakha_parts(*cand, N, m)
                except EHVError:
                    return False
                sides = gustafson_rakha_sum_sides(terms, rhs)
                return (abs(rhs) > 1e-10 and abs(sides[0]) > 0
                        and gustafson_rakha_condition(terms) <= 300.0)

            ts, textra, tg = smp.accept(build, ok)
            yield VerificationReport.from_sides(
                f"gustafson_rakha[n={n},N={N}]", *sides, tol,
                params={"t": list(ts), "t_extra": list(textra),
                        "tglob": tg, "N": N})


@_check("kratt", tol=1e-10)
def check_kratt(opts, tol):
    m = DEFAULT_MODULI
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
        lhs, rhs = krattenthaler_det_sides(a, b, c, X, m)
        yield VerificationReport.from_sides(
            f"kratt[n={n}]", lhs, rhs, tol,
            params={"a": a, "b": b, "c": c, "X": list(X)})


# Draws of one rank evaluated together by an identity check: enough to
# amortize the per-call cost of the array kernels, few enough that the
# pending draws and their arrays stay small whatever the draw count.
_BATCH = 128


def _identity_check(opts, tol, name, draw, relative):
    """The worst |residual| / scale over 1000 seeded draws.  draw(smp)
    gives a draw's rank and its arguments; relative(rows) evaluates up to
    _BATCH draws of one rank together.  Evaluation never touches the
    sampler, so the draws are those of a per-draw loop."""
    smp = Sampler(opts.seed)
    draws = 1000
    pending: dict = {}
    worst = 0.0
    for _ in range(draws):
        n, args = draw(smp)
        rows = pending.setdefault(n, [])
        rows.append(args)
        if len(rows) == _BATCH:
            worst = max(worst, *relative(pending.pop(n)))
    for rows in pending.values():
        worst = max(worst, *relative(rows))
    return VerificationReport.from_sides(
        f"{name} x{draws} (max relative residual)", worst, 0.0, tol,
        params={"seed": opts.seed, "draws": draws})


def _stacked(fn):
    """relative() of _identity_check from a function of stacked arguments,
    one array per argument with the draws on the first axis."""
    return lambda rows: fn(*(np.array(col) for col in zip(*rows)))


def _rand_p(smp):
    return smp.arg(0.05, 0.5)


def _ident_draw(smp):
    p = _rand_p(smp)
    x, y, z, w = smp.args(4, 0.2, 2.0)
    return 1, (x, y, z, w, p)


def _id1_draw(smp):
    p = _rand_p(smp)
    n = smp.rng.randint(1, 3)
    t = smp.args(n + 1, 0.4, 1.6)
    z = list(smp.args(n, 0.9, 1.1))
    prod = 1.0 + 0.0j
    for v in z:
        prod *= v
    z.append(1.0 / prod)
    B = smp.arg(0.2, 2.0)
    return n, (t, z, B, p)


def _id2_draw(smp):
    p = _rand_p(smp)
    n = smp.rng.randint(1, 3)
    a = smp.args(n, 0.2, 2.0)
    b = smp.args(n, 0.2, 2.0)
    t = smp.arg(0.2, 2.0)
    return n, (a, b, t, p)


def _id3_draw(smp):
    p = _rand_p(smp)
    n = smp.rng.randint(1, 3)
    t = smp.args(n + 1, 0.4, 1.6)
    f = smp.args(n + 2, 0.4, 1.6)
    return n, (t, f, p)


@_check("ident", tol=1e-12)
def check_ident(opts, tol):
    @_stacked
    def relative(x, y, z, w, p):
        terms = riemann_terms(x, y, z, w, p)
        return np.abs(riemann_identity_residual(terms)) \
            / riemann_identity_scale(terms)

    yield _identity_check(opts, tol, "ident", _ident_draw, relative)


@_check("id1", tol=1e-12)
def check_id1(opts, tol):
    @_stacked
    def relative(t, z, B, p):
        terms = id1_terms(t, z, B, p)
        return np.abs(id1_residual(terms)) / id1_scale(terms)

    yield _identity_check(opts, tol, "id1", _id1_draw, relative)


@_check("id2", tol=1e-12)
def check_id2(opts, tol):
    def relative(rows):     # one draw at a time
        return [abs(partial_fraction_residual(*parts))
                / partial_fraction_scale(*parts)
                for parts in itertools.starmap(partial_fraction_parts, rows)]

    yield _identity_check(opts, tol, "id2", _id2_draw, relative)


@_check("id3", tol=1e-12)
def check_id3(opts, tol):
    @_stacked
    def relative(t, f, p):
        parts = id3_parts(t, f, p)
        return np.abs(id3_residual(*parts)) / id3_scale(*parts)

    yield _identity_check(opts, tol, "id3", _id3_draw, relative)


def _draw_an_tf(smp, n, m):
    def build():
        return (smp.args(n + 1, 0.72, 0.92), smp.args(n + 2, 0.72, 0.92))

    def ok(cand):
        t, f = cand
        prod = 1.0 + 0.0j
        for v in t + f:
            prod *= v
        # shifting any t_r by q must keep |pq| < |q A B|
        return abs(prod) > abs(m.p) * 1.1

    return smp.accept(build, ok)


@_check("an_diffeq", tol=1e-12, reads=("nodes",))
def check_an_diffeq(opts, tol):
    m = DEFAULT_MODULI
    for n in (1, 2, 3):
        smp = Sampler(opts.seed + n)
        t, f = _draw_an_tf(smp, n, m)
        r = an_difference_residual(t, f, m, DiffSide.CLOSED_FORM)
        yield VerificationReport.from_sides(
            f"an_diffeq[closed,n={n}]", r, 0.0, tol,
            params={"t": list(t), "f": list(f)})
    smp = Sampler(opts.seed + 31)
    t, f = _draw_an_tf(smp, 1, m)
    cfg = _cfg(opts.nodes, 256, 2, 1e-10)
    r = an_difference_residual(t, f, m, DiffSide.INTEGRAL, cfg)
    yield VerificationReport.from_sides(
        "an_diffeq[integral,n=1]", r, 0.0, max(tol, 1e-8),
        params={"t": list(t), "f": list(f)})


@_check("an_transform", tol=1e-8, reads=("nodes",))
def check_an_transform(opts, tol):
    m = DEFAULT_MODULI
    smp = Sampler(opts.seed)

    def build():
        return (smp.arg(0.55, 0.7), smp.args(3, 0.6, 0.8), smp.args(3, 0.6, 0.8))

    tg, f, s = smp.accept(build,
                          lambda cand: an_trans_domain_check(*cand, m).ok)
    cfg = _cfg(opts.nodes, 256, 2, 1e-10)
    lhs, rhs, res_l, res_r = an_transformation_sides(tg, f, s, m, cfg)
    yield VerificationReport.from_sides(
        "an_transform[n=1]", lhs, rhs, tol,
        nodes=res_l.nodes_used + res_r.nodes_used,
        params={"t": tg, "f": list(f), "s": list(s)})


# -- biorthogonality and weight-shift checks --------------------------------------


def _norms_healthy(rp: RahmanParams, nmax: int, base: str = "q") -> bool:
    """Reject draws whose diagonal norms degenerate; the off-diagonal scale
    |h_min N_E| must stay a meaningful size."""
    try:
        hs = [abs(norm_h(j, rp, base)) for j in range(nmax + 1)]
    except EHVError:
        return False
    return min(hs) > 1e-3 * max(hs)


def _draw_weight_t(smp: Sampler) -> tuple:
    """t_0..t_3 of modulus 0.82-0.88, then t_4 of modulus 0.42-0.48."""
    return smp.args(4, 0.82, 0.88) + (smp.arg(0.42, 0.48),)


def default_rahman_params(seed: int = 0) -> RahmanParams:
    """Admissible for the whole single-index grid n, m <= 3."""
    smp = Sampler(seed)

    def build():
        return RahmanParams(t=_draw_weight_t(smp), moduli=Moduli(0.8, 0.1))

    return smp.accept(build,
                      lambda rp: (contour_check(3, 3, 0, 0, rp).admissible
                                  and _norms_healthy(rp, 3)))


def _file_rahman_params(params: dict) -> RahmanParams:
    """The weight parameters of a decoded parameter file, which holds t, q
    and p and nothing else; else EHVError."""
    unread = sorted(set(params) - {"t", "q", "p"})
    if unread:
        raise EHVError(f"biorth does not read {', '.join(unread)} from a "
                       f"parameter file; it reads t, q and p")
    missing = [key for key in ("t", "q", "p") if key not in params]
    if missing:
        raise EHVError(f"biorth needs {', '.join(missing)} in its parameter file")
    return RahmanParams(t=params["t"], moduli=Moduli(params["q"], params["p"]))


@_check("biorth", tol=1e-8, reads=("nodes", "n", "m", "params"))
def check_biorth(opts, tol):
    """The 4x4 grid n, m <= 3, or the one cell given by both --n and --m."""
    if (opts.n is None) != (opts.m is None) or min(opts.n or 0, opts.m or 0) < 0:
        raise EHVError(f"biorth takes both --n >= 0 and --m >= 0, or neither; "
                       f"got n={opts.n}, m={opts.m}")
    rp = (default_rahman_params(opts.seed) if opts.params is None
          else _file_rahman_params(opts.params))
    cfg = _cfg(opts.nodes, 512, 2, 1e-11)
    cells = ([(opts.n, opts.m, 0, 0)] if opts.n is not None
             else [(n, m, 0, 0) for n in range(4) for m in range(4)])
    yield from biorth_integral(cells, rp, cfg, tol)


# the gauges the recurrence runs in; the first is the default one
_GAUGES = (OperatorGauge(), OperatorGauge(0.9 + 0.2j, 1.4 - 0.1j),
           OperatorGauge(2.0, 0.3 + 0.4j), OperatorGauge(0.8, 1.9 + 0.1j),
           OperatorGauge(1.7 - 0.3j, 0.55 + 0.25j))


@_check("operator", tol=1e-10)
def check_operator(opts, tol):
    """On biorth's parameters: D_{q^n} annihilates R_n (n < 5, 20 points on
    the circle), both operators annihilate R_nm (n, m < 3), the three-term
    recurrence gives R_2..R_5, and its gauge drops out to min(tol, 1e-12)."""
    rp = default_rahman_params(opts.seed)
    q, p = rp.moduli.q, rp.moduli.p
    params = {"t": list(rp.t), "q": q, "p": p}

    def row(label, worst, row_tol):
        return VerificationReport.from_sides(f"operator[{label}]", worst, 0.0,
                                             row_tol, params=params)

    yield row("D R_n,n<5", max(
        eigen_residual(functools.partial(R_n, n=n, rp=rp),
                       cmath.exp(2j * cmath.pi * (k + 0.381) / 20), q ** n, rp)
        for n in range(5) for k in range(20)), tol)
    yield row("D R_nm,n,m<3", max(
        eigen_residual(functools.partial(R_nm, n=n, m=m, rp=rp),
                       cmath.exp(0.83j), q ** n * p ** m, rp, base)
        for n in range(3) for m in range(3) for base in ("q", "p")), tol)
    z = cmath.exp(0.42j)
    series = [R_n(z, n, rp) for n in range(6)]
    runs = []
    for gauge in _GAUGES:
        gauge.validate(rp)
        rs = [1.0 + 0.0j, series[1]]
        for n in range(1, 5):
            rs.append(recurrence_next(rs[n - 1], rs[n], n, z, rp, gauge))
        runs.append(rs)
    yield row("recurrence,n<=5", max(
        abs(runs[0][n] - series[n]) / abs(series[n]) for n in range(2, 6)), tol)
    yield row("gauge", max(abs(runs[0][n] - rs[n]) / max(1.0, abs(runs[0][n]))
                           for rs in runs[1:] for n in range(6)),
              min(tol, 1e-12))


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


@_check("biorth2", tol=1e-8, reads=("nodes",))
def check_biorth2(opts, tol):
    set_a, set_b = biorth2_param_sets(opts.seed)
    cfg = _cfg(opts.nodes, 1024, 2, 1e-11)
    for label, rp, pairs in (
            ("qshift", set_a, [(0, 0), (1, 0)]),
            ("pshift", set_b, [(0, 0), (0, 1)])):
        cells = [(n_, m_, k_, l_) for (m_, k_) in pairs for (n_, l_) in pairs]
        for rep in biorth_integral(cells, rp, cfg, tol):
            rep.name = f"biorth2/{label} " + rep.name
            yield rep


def intrep_param_sets(seed: int = 0):
    t = _draw_weight_t(Sampler(seed))
    return (RahmanParams(t=t, moduli=Moduli(0.8, 0.1)),
            RahmanParams(t=t, moduli=Moduli(0.1, 0.8)))


def _weight_shift_cases(opts):
    """Config and the (params, [(q-depth, p-depth), ...]) sets of intrep and
    shifted_beta; each set is one Gram integral."""
    rp_q, rp_p = intrep_param_sets(opts.seed)
    return _cfg(opts.nodes, 512, 2, 1e-11), [
        (rp_q, [(0, 0), (1, 0), (2, 0)]), (rp_p, [(0, 1), (0, 2)])]


@_check("intrep", tol=1e-8, reads=("nodes",))
def check_intrep(opts, tol):
    cfg, sets = _weight_shift_cases(opts)
    smp = Sampler(opts.seed + 5)
    alpha, beta = smp.arg(0.5, 0.7), smp.arg(0.5, 0.7)
    for rp, depths in sets:
        lhs, rhs, res = twelveV_integral_rep_sides(alpha, beta, depths, rp, cfg)
        for (m_, n_), lhs_, rhs_ in zip(depths, lhs, rhs):
            yield VerificationReport.from_sides(
                f"intrep[m={m_},n={n_}]", lhs_, rhs_, tol, nodes=res.nodes_used,
                params={"t": list(rp.t), "alpha": alpha, "beta": beta,
                        "m": m_, "n": n_})


@_check("shifted_beta", tol=1e-8, reads=("nodes",))
def check_shifted_beta(opts, tol):
    cfg, sets = _weight_shift_cases(opts)
    for rp, shifts in sets:
        lhs, rhs, res = shifted_beta_sides(shifts, rp, cfg)
        for (i_, j_), lhs_, rhs_ in zip(shifts, lhs, rhs):
            yield VerificationReport.from_sides(
                f"shifted_beta[i={i_},j={j_}]", lhs_, rhs_, tol,
                nodes=res.nodes_used,
                params={"t": list(rp.t), "q": rp.moduli.q, "p": rp.moduli.p,
                        "i": i_, "j": j_})


@_check("degeneration_p0", tol=1e-6, reads=("nodes",))
def check_degeneration_p0(opts, tol):
    smp = Sampler(opts.seed)
    q = 0.31
    m_small = Moduli(q, 1e-10)
    spec = smp.accept(
        lambda: IntegrandSpec(Family.E, 1, ParamSet(t=smp.args(5, 0.4, 0.8)),
                              m_small),
        lambda s: validate_domain(s).ok)
    cfg = _cfg(opts.nodes, 256, 1, 1e-11)
    res = integrate_factors(make_integrand(spec), cfg)
    t = spec.params.t
    A = spec.product_A
    rhs = 2.0 / qpochhammer(q, q)
    for i in range(5):
        rhs *= qpochhammer(A / t[i], q)
        for j in range(i + 1, 5):
            rhs /= qpochhammer(t[i] * t[j], q)
    yield VerificationReport.from_sides(
        "degeneration_p0[quadrature vs q-factor form]", res.value, rhs, tol,
        nodes=res.nodes_used, params={"t": list(t), "q": q})

    z = smp.arg(0.3, 1.5)
    g0 = elliptic_gamma(z, Moduli(q, 0.0))
    yield VerificationReport.from_sides(
        "degeneration_p0[gamma(z;q,0) (z;q)oo = 1]",
        g0 * qpochhammer(z, q), 1.0, 1e-13, params={"z": z, "q": q})


def run_check(name: str, opts: CheckOptions) -> list[VerificationReport]:
    """The rows of check ``name`` at ``opts.tol`` or the check's default,
    which must be > 0 (else EHVError); each row's runtime_ms is the wall
    time since the previous row (sampling included).  An option of
    _OPTIONS that is set and that the check does not read raises EHVError.
    With ``opts.params`` a family check gives one row, at the file's spec.
    No row depends on the calls before it: every memo's key holds all that
    its values depend on."""
    if name not in REGISTRY:
        raise EHVError(f"unknown identity {name!r}; known: {sorted(REGISTRY)}")
    fn, default_tol, reads = REGISTRY[name]
    unread = [key for key in _OPTIONS
              if getattr(opts, key) is not None and key not in reads]
    if unread:
        raise EHVError(f"{name} does not read --{', --'.join(unread)}; it "
                       f"reads --{', --'.join(('seed', 'tol') + reads)}")
    if opts.params is not None and name in FAMILY_CHECKS:
        fn = functools.partial(_file_check, name=name)
    _reset_rejections()
    tol = _given(opts.tol, default_tol)
    return list(timed_rows(fn(opts, tol if tol is None else check_tol(tol))))
