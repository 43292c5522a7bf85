"""Tests of the benchmark's own machinery: tracing transparency, self-time
arithmetic, the correctness gate and the compare verdicts."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import SPEC, WORKLOADS  # noqa: E402

from ehv import core, integrands, registry, series, vec  # noqa: E402
from ehv.errors import EHVError  # noqa: E402
from ehv.registry import CheckOptions, run_check  # noqa: E402
from ehv.report import VerificationReport  # noqa: E402

# cheap checks that still reach every kind of wrapper: samplers, scalar theta,
# sum_V, multi-sums, Krattenthaler, tables, mesh_eval, the quadrature driver,
# biorthogonality cells
TRANSPARENCY_CHECKS = (
    ("ft_sum", CheckOptions(seed=3)),
    ("bailey", CheckOptions(seed=3)),
    ("milne", CheckOptions(seed=3)),
    ("kratt", CheckOptions(seed=3)),
    ("an2_odd", CheckOptions(seed=3)),
    ("an_diffeq", CheckOptions(seed=3)),
    ("biorth", CheckOptions(seed=3, n=1, m=1)),
)


def _rows(name, opts):
    out = []
    for rep in run_check(name, opts):
        d = rep.to_dict()
        d.pop("runtime_ms")
        out.append(json.dumps(d))
    return out


def test_traced_rows_identical_to_untraced():
    plain = [_rows(name, opts) for name, opts in TRANSPARENCY_CHECKS]
    tracer = Tracer()
    with layers.installed(tracer) as missing:
        traced = [_rows(name, opts) for name, opts in TRANSPARENCY_CHECKS]
    assert missing == []
    assert traced == plain
    calls = {name: n for name, (n, _, _) in self_times(tracer.spans).items()}
    for layer in ("core.theta", "vec.gamma_vec", "vec.theta_vec",
                  "integrands.mesh_eval", "quadrature.integrate",
                  "quadrature.mesh_fn", "series.sum_V_info", "series.multi_sum",
                  "identities.kratt", "biorthogonal.biorth_value",
                  "registry.accept"):
        assert calls.get(layer, 0) > 0, layer


def test_layer_metrics_of_a_traced_pass():
    from workloads import Workload

    tracer = Tracer()
    with layers.installed(tracer):
        calls = run.run_pass(Workload("t", ("kratt", "id2"), None, 100, 1), 3, {})
    got = layers.metrics(tracer, calls)
    assert list(got) == [m["name"] for m in SPEC["per_layer"]
                         if m["name"] != "trace.overhead_s"]
    assert got["registry.accept.attempts"] - got["registry.accept.calls"] \
        == got["registry.rejections"] > 0
    assert got["identities.theta_identity.evals_per_draw"] == 2.0
    assert got["report.rows"] == 6 and got["vec.gamma_vec.calls"] == 0


def test_wrappers_pass_caught_exceptions_through():
    """An EHVError raised in a traced function and caught by a sampler's
    ok() leaves the draw sequence unchanged and still closes its span."""
    def sample():
        smp = registry.Sampler(5)

        def ok(cand):
            try:
                core.theta(cand[0], 0.3)
            except EHVError:
                return False
            return True

        draws = iter([(0.0,), (0.0,), (smp.arg(0.3, 0.8),)])
        return smp.accept(lambda: next(draws), ok), smp.rejections

    plain = sample()
    tracer = Tracer()
    with layers.installed(tracer):
        traced = sample()
    assert traced == plain == (traced[0], 2)
    assert sum(s[0] == "core.theta" for s in tracer.spans) == 3
    assert tracer.counts["registry.accept.attempts"] == 3
    assert tracer.counts["registry.accept.accepted"] == 1
    accept = next(i for i, s in enumerate(tracer.spans) if s[0] == "registry.accept")
    assert all(s[3] == accept for s in tracer.spans if s[0] == "core.theta")


def test_installed_restores_every_binding():
    before = (core.theta, integrands.theta, series.theta, vec.gamma_vec,
              integrands.gamma_vec, integrands.FactorIntegrand.mesh_eval,
              registry.Sampler.accept)
    with layers.installed(Tracer()):
        assert integrands.gamma_vec is not before[4]
        assert integrands.gamma_vec is vec.gamma_vec
        assert integrands.theta is core.theta is series.theta
    after = (core.theta, integrands.theta, series.theta, vec.gamma_vec,
             integrands.gamma_vec, integrands.FactorIntegrand.mesh_eval,
             registry.Sampler.accept)
    assert after == before


def test_missing_target_is_reported(monkeypatch):
    monkeypatch.delattr(integrands, "validate_domain")
    with layers.installed(Tracer()) as missing:
        pass
    assert missing == ["integrands.validate_domain"]
    assert layers.missing_metrics(missing) == [
        "integrands.validate_domain.calls", "integrands.validate_domain.self_s"]
    assert "quadrature.mesh_fn.self_s" in layers.missing_metrics(
        ["quadrature.integrate_mesh_fn"])


def test_self_times_on_nested_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),
        ("a", 5.0, 9.0, 0),
        ("c", 6.0, 8.0, 3),
    ]
    got = self_times(spans)
    assert got == {"root": (1, 10.0, 3.0), "a": (2, 7.0, 4.0),
                   "b": (1, 1.0, 1.0), "c": (1, 2.0, 2.0)}
    assert sum(own for _, _, own in got.values()) == pytest.approx(10.0)


def test_tracer_records_parents_through_exceptions():
    tracer = Tracer()
    leaf = tracer.span("leaf", lambda x: 1 / x)

    def body():
        try:
            leaf(0)
        except ZeroDivisionError:
            pass
        return leaf(1) + leaf(2)

    assert tracer.span("outer", body)() == 1.5
    assert [(s[0], s[3]) for s in tracer.spans] == [
        ("outer", -1), ("leaf", 0), ("leaf", 0), ("leaf", 0)]


def _row(name, lhs, rhs, tol, params=None):
    return VerificationReport.from_sides(name, lhs, rhs, tol,
                                         params=params or {"k": 1}).to_dict()


def test_row_verdict_uses_abs_err_when_expected_is_zero():
    ok, margin = gate.row_verdict(_row("r", 1e-13, 0.0, 1e-12))
    assert ok and margin == pytest.approx(1.0)
    ok, margin = gate.row_verdict(_row("r", 2.0 + 1e-9, 2.0, 1e-8))
    assert ok and margin == pytest.approx(math.log10(1e-8 / 5e-10), rel=1e-6)
    ok, margin = gate.row_verdict(_row("r", 1e-6, 0.0, 1e-8))
    assert not ok and margin < 0


def test_gate_holds_calls_to_the_reference():
    good = {"rows": [_row("a", 1.0, 1.0 + 1e-12, 1e-10)]}
    ref = gate.reference_entry(good)
    assert gate.judge(ref, good).gate_ok

    looser = {"rows": [_row("a", 1.0, 1.0 + 1e-12, 1e-6)]}
    other_draw = {"rows": [_row("a", 1.0, 1.0 + 1e-12, 1e-10, {"k": 2})]}
    fewer = {"rows": []}
    failing = {"rows": [_row("a", 1.0, 1.1, 1e-10)]}
    for outcome in (looser, other_draw, fewer, failing):
        assert not gate.judge(ref, outcome).gate_ok
    assert not gate.judge(None, good).gate_ok
    assert not gate.judge(ref, gate.error_outcome(EHVError("boom"))).gate_ok


def test_gate_accepts_recorded_defects_as_not_passed():
    err = gate.error_outcome(EHVError("rejection sampling exhausted"))
    verdict = gate.judge(gate.reference_entry(err), err)
    assert verdict.gate_ok and not verdict.passed
    # rows where an error was recorded have nothing to be held to
    now_rows = {"rows": [_row("a", 1.0, 1.0, 1e-6)]}
    verdict = gate.judge(gate.reference_entry(err), now_rows)
    assert not verdict.gate_ok and "re-record" in verdict.reason

    bad = {"rows": [_row("a", 1.0, 1.0, 1e-10), _row("b", 1.0, 1.1, 1e-10)]}
    ref = gate.reference_entry(bad)
    assert ref["failing"] == ["b"]
    verdict = gate.judge(ref, bad)
    assert verdict.gate_ok and not verdict.passed
    fixed = {"rows": [_row("a", 1.0, 1.0, 1e-10), _row("b", 1.0, 1.0, 1e-10)]}
    assert gate.judge(ref, fixed).passed
    worse = {"rows": [_row("a", 1.0, 1.1, 1e-10), _row("b", 1.0, 1.1, 1e-10)]}
    assert not gate.judge(ref, worse).gate_ok


def test_reference_covers_every_pass():
    for workload in WORKLOADS.values():
        calls = gate.load_reference(workload.name)
        assert set(calls) == {gate.call_key(c, s, workload.n)
                              for c in workload.checks for s in workload.check_seeds}


def test_verdicts_under_bounds():
    base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(base, base, 0.1, "lower") == "unchanged"
    assert compare.verdict(base, [v * 1.3 for v in base], 0.1, "lower") == "worse"
    assert compare.verdict(base, [v * 0.5 for v in base], 0.1, "lower") == "better"
    assert compare.verdict(base, [v * 0.5 for v in base], 0.1, "higher") == "worse"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    assert compare.verdict(base, noisy, 0.1, "lower") == "unresolved"
    assert compare.verdict(base[:5], [v * 0.5 for v in base[:5]], 0.1, "lower") \
        == "unresolved"


def test_run_exits_2_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scalar", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "correct" not in proc.stdout
