"""run_check: the registry's row timing, its independence of history and
the options each check reads."""

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ehv
from ehv import _backend, registry
from ehv.errors import EHVError
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
    # at the default config: 96^3, then at most two doublings to 384^3,
    # which the contraction and the orbit sum fit in the node budget
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
    # within the default node budget (unfolded it would hold 58.4M)
    monkeypatch.delenv("EHV_MAX_NODES", raising=False)
    results = []
    integrate = registry.integrate_factors

    def recording(ig, cfg=None):
        results.append(integrate(ig, cfg))
        return results[-1]

    monkeypatch.setattr(registry, "integrate_factors", recording)
    rows = run_check(name, CheckOptions(seed=seed, n=4))
    assert len(results) == 2
    assert all(res.nodes_used == 384 ** 4 for res in results)
    assert all(r.passed and r.nodes == 384 ** 4 for r in rows)


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
