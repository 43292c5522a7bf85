"""run_check: the registry's row timing, its independence of history and
the options each check reads."""

import cmath
import dataclasses
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ehv
from ehv import _backend, registry
from ehv.errors import EHVError
from ehv.integrands import Family
from ehv.quadrature import integrate_sums
from ehv.registry import REGISTRY, CheckOptions, run_check


def test_every_row_carries_its_time():
    reports = run_check("degeneration_p0", CheckOptions(seed=0))
    assert len(reports) == 2
    assert all(r.runtime_ms > 0 for r in reports)


def test_rows_add_up_to_the_call():
    # the sampling before each row counts towards that row
    start = time.perf_counter()
    reports = run_check("kratt", CheckOptions(seed=5))
    wall_ms = (time.perf_counter() - start) * 1e3
    total = sum(r.runtime_ms for r in reports)
    assert 0.9 * wall_ms <= total <= wall_ms


def test_rows_do_not_depend_on_earlier_calls():
    # id1 in a fresh interpreter, then here after other checks and an
    # extended-precision call: theta's memo is emptied by every run_check
    code = ("import dataclasses, json\n"
            "from ehv.registry import CheckOptions, run_check\n"
            "rows = run_check('id1', CheckOptions(seed=0))\n"
            "print(json.dumps([repr(dataclasses.replace(r, runtime_ms=0.0))"
            " for r in rows]))")
    src = str(Path(ehv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    fresh = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True, env=env)
    run_check("ident", CheckOptions(seed=0))
    run_check("bailey", CheckOptions(seed=0))
    with _backend.precision(_backend.EXTENDED):
        run_check("degeneration_p0", CheckOptions(seed=0))
    after = run_check("id1", CheckOptions(seed=0))
    assert ([repr(dataclasses.replace(r, runtime_ms=0.0)) for r in after]
            == json.loads(fresh.stdout))


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_each_check_refuses_the_options_it_does_not_read(name):
    # refused before any draw, whatever the value
    reads = REGISTRY[name][2]
    for key, value in (("nodes", 64), ("n", 1), ("m", 1), ("params", {})):
        if key not in reads:
            with pytest.raises(EHVError, match=f"does not read --{key};"):
                run_check(name, CheckOptions(**{key: value}))


def test_operator_passes_at_seed_0():
    rows = run_check("operator", CheckOptions(seed=0))
    assert [r.tol for r in rows] == [1e-10, 1e-10, 1e-10, 1e-12]
    assert all(r.passed for r in rows)


@pytest.mark.parametrize("name,seed", [("cn1", 0), ("cn1", 1009), ("cn2", 0),
                                       ("cn2", 1009), ("an1", 0)])
def test_rank3_integrals_converge(name, seed, monkeypatch):
    # at the default config: 192^3 against its even subgrid 96^3, then
    # against 144^3, then at most the rungs 288^3 (against 192^3) and 384^3
    # (against 288^3), which the contraction and the orbit sum fit in the
    # node budget
    results = []
    integrate = registry.integrate_factors

    def recording(ig, cfg=None):
        results.append(integrate(ig, cfg))
        return results[-1]

    monkeypatch.setattr(registry, "integrate_factors", recording)
    rows = run_check(name, CheckOptions(seed=seed, n=3))
    assert len(results) == 2
    assert all(res.converged and res.nodes_used <= 384 ** 3
               for res in results)
    assert all(r.passed for r in rows)


def test_cn2_rank3_passes_at_seed_7063():
    # row [n=3,1] failed with rel_err 2.6e-6 when 192^3 was the largest
    # grid in the budget; its pole radius is 0.923, and 384^3 now fits
    rows = run_check("cn2", CheckOptions(seed=7063, n=3))
    assert [r.name for r in rows] == ["cn2[n=3,0]", "cn2[n=3,1]"]
    assert all(r.passed and r.nodes == 384 ** 3 for r in rows)


@pytest.mark.parametrize("name,seed", [("cn1", 0), ("cn1", 1009), ("cn2", 0),
                                       ("cn2", 1009)])
def test_rank4_integrals_reach_384(name, seed, monkeypatch):
    # the folded contraction holds 2*6*193^2 + 193^3 = 7.6M points at 384^4,
    # within the default node budget (unfolded it would hold 58.4M): cn2's
    # integrals reach it, confirmed against 288^4; at each seed one of cn1's
    # stops at 192^4, confirmed against 144^4, and the other at 288^4,
    # confirmed against 192^4
    monkeypatch.delenv("EHV_MAX_NODES", raising=False)
    results = []
    integrate = registry.integrate_factors

    def recording(ig, cfg=None):
        results.append(integrate(ig, cfg))
        return results[-1]

    monkeypatch.setattr(registry, "integrate_factors", recording)
    rows = run_check(name, CheckOptions(seed=seed, n=4))
    assert len(results) == 2
    assert all(res.converged for res in results)
    assert [r.nodes for r in rows] == [res.nodes_used for res in results]
    nodes = {res.nodes_used for res in results}
    assert nodes == ({384 ** 4} if name == "cn2" else {192 ** 4, 288 ** 4})
    assert all(r.passed for r in rows)


def _recorded_stops(monkeypatch):
    """The integrals the checks take through integrate_factors, each as
    (result, whether it converged against a grid other than N/2).  Only
    the first grid is compared with its N/2 subgrid, and that needs no
    other sums: an integral that evaluated more than one grid and converged
    stopped on the 3N/4 grid at 2 N0, or on the rung below a later rung."""
    out = []

    def recording(ig, cfg=None):
        calls = []

        def sums(N, subgrid=False):
            calls.append(N)
            return ig.node_sums(N, subgrid)

        res = integrate_sums(sums, ig.points, ig.n, cfg)
        out.append((res, res.converged and len(calls) > 1))
        return res

    monkeypatch.setattr(registry, "integrate_factors", recording)
    return out


def _errors_within_the_estimate(name, opts, monkeypatch) -> int:
    """Checks that every row whose integral converged against a grid other
    than N/2 errs by at most its est_error (or 1e-13 relative, the rows'
    rounding); returns how many did."""
    stops = _recorded_stops(monkeypatch)
    rows = [r for r in run_check(name, opts) if r.nodes]
    assert len(rows) == len(stops)
    for row, (res, through) in zip(rows, stops):
        if through:
            assert abs(row.lhs - row.rhs) <= max(res.est_error,
                                                 1e-13 * abs(row.rhs)), row.name
    return sum(through for _, through in stops)


@pytest.mark.parametrize("name,seed", [("cn1", 0), ("cn1", 1009), ("cn2", 0),
                                       ("cn2", 1009), ("an1", 0)])
def test_rank3_stops_on_the_three_quarter_grid_within_its_estimate(
        name, seed, monkeypatch):
    # an1 --n 3 exhausts its sampler at seed 1009
    assert _errors_within_the_estimate(
        name, CheckOptions(seed=seed, n=3), monkeypatch) >= 1


def test_family_stops_on_the_three_quarter_grid_within_their_estimate(
        monkeypatch):
    # ranks 1 and 2 at seed 0: eleven rank-2 integrals stop so, cn1's two,
    # cn2's one and an2_even's second on 192^2 against 144^2, cn3's two and
    # an2_even's first on 288^2 against 192^2, and an1's and an3_even's two
    # each on 384^2 against 288^2
    assert sum(_errors_within_the_estimate(name, CheckOptions(seed=0),
                                           monkeypatch)
               for name in registry.FAMILY_CHECKS) >= 8


def test_family_report_validates_a_draw_once(monkeypatch):
    from ehv import integrands
    from ehv.integrands import Family

    spec = registry._draw_spec(registry.Sampler(0), Family.CN_I, 1)
    calls = []
    validate = integrands.validate_domain

    def counting(s):
        calls.append(s)
        return validate(s)

    monkeypatch.setattr(registry, "validate_domain", counting)
    monkeypatch.setattr(integrands, "validate_domain", counting)
    row = registry._family_report("cn1[n=1]", spec, 1e-9, None)
    assert row.passed and calls == [spec]


def test_table_rows_do_not_depend_on_earlier_calls():
    # family and Gram checks with the unit row memo empty, then again after
    # they and other checks have built the rows of the same (N, q, p); two
    # biorth2 rows at seed 1009 moved while the row was built in the first
    # stack that needed it
    from ehv import integrands

    calls = [("cn1", CheckOptions(seed=0)), ("an1", CheckOptions(seed=0, n=2)),
             ("biorth", CheckOptions(seed=0)),
             ("biorth2", CheckOptions(seed=1009))]

    def rows():
        return [repr(dataclasses.replace(r, runtime_ms=0.0))
                for name, opts in calls for r in run_check(name, opts)]

    integrands._unit_row.cache_clear()
    before = rows()
    for name in ("an1", "cn2", "cn3", "an2_odd", "intrep", "theorem1"):
        run_check(name, CheckOptions(seed=0))
    assert rows() == before


def test_a_second_check_call_builds_no_unit_row(monkeypatch):
    # theorem1 integrates 20 draws from 256 nodes, whose sums are the even
    # nodes of the first grid evaluated, 512: the c = 1 reciprocal row is
    # built at 512 once in a process, then read; no 256 table is built
    from ehv import integrands

    built = []
    kernel = integrands.gamma_vec

    def recording(c, N, q, p, *, inverse=False):
        cs = [c] if np.ndim(c) == 0 else c
        if (1, True) in zip(cs, np.broadcast_to(inverse, len(cs))):
            built.append(N)
        return kernel(c, N, q, p, inverse=inverse)

    monkeypatch.setattr(integrands, "gamma_vec", recording)
    integrands._unit_row.cache_clear()
    for want in ([512], []):
        built.clear()
        assert all(r.passed for r in run_check("theorem1", CheckOptions()))
        assert built == want


# -- the screened family sampler ---------------------------------------------


class _Unscreened(registry.Sampler):
    """The plain rejection loop: the oracle for the screened one."""

    def accept(self, draw, ok, screen=None):
        return super().accept(draw, ok)


class _Capture(registry.Sampler):
    """Keeps _draw_spec's draw, exact gate and screen, and builds one
    candidate from the stream doubles given to ``replay``."""

    def accept(self, draw, ok, screen=None):
        self.draw, self.ok, self.screen = draw, ok, screen
        return draw()

    def replay(self, doubles):
        self.rng = _Replay(doubles)
        return self.draw()


class _Replay(random.Random):
    def __init__(self, doubles):
        super().__init__(0)
        self.doubles = iter(doubles)

    def random(self):
        return next(self.doubles)


_SAMPLED = [(Family.E, 1)] + [(fam, n) for fam in list(Family)[1:]
                              for n in (1, 2, 3, 4)]

# the ranks at which the plain loop exhausts at many seeds, each exhaustion
# costing it about 0.2 s: these take two seeds
_EXHAUSTING = {(Family.CN_III, 3), (Family.CN_III, 4), (Family.AN_I, 3),
               (Family.AN_I, 4), (Family.AN_II, 4)}


def _two_draws(smp, family, n):
    out = []
    for _ in range(2):
        try:
            out.append(repr(registry._draw_spec(smp, family, n)))
        except EHVError as exc:
            out.append(str(exc))
        out.append((smp.rejections, smp.rng.getstate()[1]))
    return out


@pytest.mark.parametrize("family,n", _SAMPLED)
def test_screened_sampler_equals_the_plain_loop(family, n):
    seeds = (0, 1009) if (family, n) in _EXHAUSTING else range(40)
    for seed in seeds:
        got = _two_draws(registry.Sampler(seed), family, n)
        assert got == _two_draws(_Unscreened(seed), family, n), seed
        assert all(type(x[0]) is int for x in got[1::2])


def test_block_doubles_are_the_stream_doubles():
    # the screen's block read gives random()'s doubles one for one and
    # leaves the stream where random() leaves it
    block, plain = random.Random(7), random.Random(7)
    block.random(), plain.random()
    got = registry._doubles(block, 100_000)
    assert got.tolist() == [plain.random() for _ in range(100_000)]
    assert block.getstate() == plain.getstate()
    assert registry._doubles(block, 0).size == 0
    assert block.getstate() == plain.getstate()


def _doubles(family, n, spec, scale):
    """The stream doubles from which Sampler.arg draws spec's parameters,
    their moduli times ``scale``, in the order of the family's boxes."""
    ps = spec.params
    out = []
    for field, count, lo, hi in registry._boxes(family, n):
        values = ((ps.extras[field[len("extras."):]],)
                  if field.startswith("extras.") else getattr(ps, field))
        for v in values:
            out += [(scale * abs(v) - lo) / (hi - lo),
                    cmath.phase(v) / (2 * cmath.pi) % 1.0]
    return out


@pytest.mark.parametrize("family,n", _SAMPLED)
def test_screen_keeps_every_candidate_the_gate_admits(family, n):
    # TestPoleTable's candidates, their moduli scaled so that one row of the
    # domain table sits on the radius cap, then within 1e-15 of it on both
    # sides: every candidate that the exact gate admits passes the screen
    from ehv.integrands import validate_domain
    from test_integrands import TestPoleTable

    cap = 0.88 if n == 1 else 0.925
    smp = _Capture(0)
    registry._draw_spec(smp, family, n)
    cands = []
    for spec in TestPoleTable._candidates(family, n, 0, count=20):
        checks = [validate_domain(smp.replay(_doubles(family, n, spec, c))).checks
                  for c in (1.0, 2.0)]
        for at1, at2 in zip(*checks):
            # the row's ratio lhs/rhs goes as scale**k
            k = round(math.log2((at2.lhs / at2.rhs) / (at1.lhs / at1.rhs)))
            if k:
                on_cap = (cap / (at1.lhs / at1.rhs)) ** (1 / k)
                cands += [_doubles(family, n, spec, on_cap * (1 + i * 2e-16))
                          for i in range(-5, 6)]
    kept = smp.screen.keep(np.array(cands))
    admitted = [smp.ok(smp.replay(u)) for u in cands]
    assert all(kept[admitted])
    radii = [validate_domain(smp.replay(u)).radius
             for u, ok in zip(cands, admitted) if ok]
    assert not all(admitted)                    # the boundary is crossed
    if family is Family.CN_III and n >= 3:
        assert not radii    # |A| < |pq| under the cap (ROADMAP item 5)
    else:
        assert max(radii) > cap * (1 - 1e-15)   # and reached


def test_an_exhausted_screened_sampler_builds_eight_candidates():
    # cn3 --n 3 can never draw (ROADMAP item 5): the screen drops every
    # candidate after the first eight, which the exact gate tried alone
    class Counting(registry.Sampler):
        built = 0

        def accept(self, draw, ok, screen=None):
            def counted():
                self.built += 1
                return draw()

            return super().accept(counted, ok, screen)

    smp = Counting(3)
    with pytest.raises(EHVError, match="exhausted"):
        registry._draw_spec(smp, Family.CN_III, 3)
    assert smp.built == 8
    assert type(smp.rejections) is int and smp.rejections == 5000
    with pytest.raises(EHVError, match="exhausted"):
        run_check("cn3", CheckOptions(seed=0, n=3))
    assert type(registry.rejection_count()) is int
    assert registry.rejection_count() == 5000
