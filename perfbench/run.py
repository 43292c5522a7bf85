"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload families --seed 0 --seconds 20 --trace 0

One process calls ``ehv.registry.run_check`` back to back (a closed loop
with one client), as ``ehv verify`` does, using ``ehv`` from ``src/`` of
this checkout.  A pass runs every check of the workload once at one check
seed; a cycle makes one pass at each of the workload's check seeds, in the
order ``workloads.pass_seeds`` derives from ``--seed``.  Cycles repeat while
``--seconds`` lasts (at least one).  Every call goes through the
correctness gate (gate.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes at the cycle's first check seed and reports the
per-layer metrics (layers.py), including the tracing overhead.  All times
are in reference seconds (see ``SpeedProbe``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed`` counts the
calls the gate rejects.  The full result (samples, per-call verdicts,
machine facts) is written to ``--out``, by default under
``perfbench/results/``.  Exit status: 0 when the gate accepts every call,
1 when it rejects one or a traced run's counts differ between passes over
the same inputs, 2 when ``ehv`` cannot be imported from this checkout.  A
traced run whose layer targets have gone from ``ehv`` warns on standard
error and lists the metrics left unmeasured in the result file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import select
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import facts
import gate
from workloads import SPEC, WORKLOADS, pass_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
TIME_UNITS = ("s", "us", "ns")

# The speed of a shared 2-vCPU host drifts by 20-30% within minutes: a
# pure-Python loop's throughput spread 18-26% (IQR / median) over 5-40 s
# blocks, in process CPU time as much as in wall time, so identical runs
# disagreed by more than any useful bound.  Every time the benchmark reports
# is therefore in reference seconds: wall seconds times REFERENCE_PROBE_S
# over the run's mean probe time.  The probe is a fixed mix of the two kinds
# of work ehv does, scalar complex products and numpy table arithmetic,
# taken between calls about once a second (~5% of a run).  Its mean, unlike
# its median, follows the share of time the host takes away, which is what
# stretches the calls.  setup_s is scaled the same way: between two sets of
# runs its wall-time median moved by up to 0.1 s of 0.4 s.  The result file
# keeps the raw wall times and the probe samples.
REFERENCE_PROBE_S = 0.05
PROBE_EVERY_S = 1.0


def _probe_kernel():
    acc = 1 + 0j
    for _ in range(10000):
        w1, w2 = 0.3 + 0.4j, 0.23 / (0.3 + 0.4j)
        for _ in range(8):
            acc = acc * (1 - w1) * (1 - w2)
            w1 *= 0.23
            w2 *= 0.23
        acc /= abs(acc)
    z = 0.7 * np.exp(2j * np.pi * np.arange(2048) / 2048)
    for _ in range(200):
        table = np.log((1 - z) * (1 - 0.1 / z))
    return acc, table


class SpeedProbe:
    """Host speed samples, taken between calls at most once a second."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def maybe_sample(self) -> None:
        if perf_counter() - self._last < PROBE_EVERY_S:
            return
        start = perf_counter()
        _probe_kernel()
        self._last = perf_counter()
        self.samples.append(self._last - start)

    def scale(self) -> float:
        """Factor from this run's wall seconds to reference seconds."""
        return REFERENCE_PROBE_S / statistics.fmean(self.samples)


@dataclass
class Call:
    check: str
    seed: int
    seconds: float
    outcome: dict
    verdict: gate.Verdict
    rejections: int

    def record(self) -> dict:
        return {"check": self.check, "seed": self.seed, "seconds": self.seconds,
                "passed": self.verdict.passed, "gate_ok": self.verdict.gate_ok,
                "reason": self.verdict.reason, "margin": self.verdict.margin,
                "rejections": self.rejections}


def import_ehv():
    """Import ``ehv`` from this checkout's ``src/``; exit 2 if it is not there."""
    if not (SRC / "ehv" / "__init__.py").is_file():
        print(f"run.py: no ehv package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ehv

    if Path(ehv.__file__).resolve().parent != (SRC / "ehv").resolve():
        print(f"run.py: imported ehv from {ehv.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return ehv


def measure_setup() -> list[float]:
    """Wall times of fresh interpreters importing ``ehv.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import ehv.cli"],
                                env=env, cwd=ROOT)
        # Popen.wait(timeout) polls in sleeps of up to 50 ms, which rounded
        # every time up to a 50 ms step; a pidfd wakes at the child's exit.
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = select.select([pidfd], [], [], 120)[0]
        finally:
            os.close(pidfd)
        times.append(perf_counter() - start)
        if not exited:
            proc.kill()
        if proc.wait() != 0:
            raise subprocess.CalledProcessError(proc.returncode, proc.args)
    return times


def run_pass(workload, check_seed: int, reference: dict,
             probe: SpeedProbe | None = None) -> list[Call]:
    from ehv import registry
    from ehv.errors import EHVError

    calls = []
    for check in workload.checks:
        opts = registry.CheckOptions(seed=check_seed, n=workload.n)
        start = perf_counter()
        try:
            reports = registry.run_check(check, opts)
        except Exception as exc:   # a failing call is a result, not a crash
            seconds = perf_counter() - start
            if not isinstance(exc, EHVError):
                traceback.print_exc()
            outcome = gate.error_outcome(exc)
        else:
            seconds = perf_counter() - start
            outcome = gate.rows_outcome(reports)
        verdict = gate.judge(reference.get(gate.call_key(check, check_seed, workload.n)),
                             outcome)
        calls.append(Call(check, check_seed, seconds, outcome, verdict,
                          registry.rejection_count()))
        if probe:
            probe.maybe_sample()
    return calls


def _keep_going(done: int, started: float, last: float, seconds: float) -> bool:
    """Start another round (a cycle, or a pair of passes) while it is
    predicted to end no more than half a round after the deadline."""
    return done == 0 or perf_counter() - started + last / 2 <= seconds


def percentile(values, pct: int) -> float:
    if pct >= 100:
        return max(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def run_untraced(workload, seed: int, seconds: float, reference: dict) -> dict:
    probe = SpeedProbe()
    probe.maybe_sample()
    setup = measure_setup()
    cycle = pass_seeds(workload, seed)
    passes = []
    started = perf_counter()
    last = 0.0
    while _keep_going(len(passes), started, last, seconds):
        t0 = perf_counter()
        passes += [run_pass(workload, s, reference, probe) for s in cycle]
        last = perf_counter() - t0
    scale = probe.scale()
    calls = [c for p in passes for c in p]
    call_times = [c.seconds for c in calls]
    campaigns = [sum(c.seconds for c in p) for p in passes]
    tail = percentile(call_times, workload.tail_pct)
    values = {
        "campaign_s": (statistics.median(campaigns) * scale, len(campaigns)),
        "check_p50_s": (statistics.median(call_times) * scale, len(call_times)),
        "check_tail_s": (tail * scale, len(call_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "pass_frac": (sum(c.verdict.passed for c in calls) / len(calls), len(calls)),
        # failing rows show in pass_frac instead
        "margin_digits": (min((c.verdict.margin for c in calls
                               if c.verdict.margin is not None),
                              default=float("nan")), len(calls)),
        "setup_s": (statistics.median(setup) * scale, len(setup)),
    }
    return {
        "passes": len(passes),
        "check_seeds": [p[0].seed for p in passes],
        "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"],
                                "samples": values[m["name"]][1]}
                    for m in SPEC["end_to_end"]},
        "tail_percentile": workload.tail_pct,
        "tail_calls_beyond": sum(t > tail for t in call_times),
        "reference_scale": scale,
        "wall_samples": {"campaign_s": campaigns, "setup_s": setup,
                         "check_s": call_times, "probe_s": probe.samples},
        "calls": calls,
    }


def run_traced(workload, seed: int, seconds: float, reference: dict) -> dict:
    import layers
    from spans import Tracer, call_edges

    check_seed = pass_seeds(workload, seed)[0]
    tracer = Tracer()
    # an untimed first pass, so that neither side of the first pair pays
    # for first-touch page faults and lazy set-up alone
    probe = SpeedProbe()
    calls = run_pass(workload, check_seed, reference, probe)
    plain, traced, per_pass = [], [], []
    edges: dict = {}
    missing: list = []
    started = perf_counter()
    last = 0.0
    while _keep_going(len(traced), started, last, seconds):
        t0 = perf_counter()
        # alternate which side of a pair runs first
        for traced_side in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if not traced_side:
                p = run_pass(workload, check_seed, reference, probe)
                plain.append(sum(c.seconds for c in p))
                calls += p
                continue
            tracer.clear()
            with layers.installed(tracer) as missing:
                p = run_pass(workload, check_seed, reference, probe)
            traced.append(sum(c.seconds for c in p))
            calls += p
            per_pass.append(layers.metrics(tracer, p))
            for key, (n, s) in call_edges(tracer.spans).items():
                rec = edges.setdefault(key, [0, 0.0])
                rec[0] += n
                rec[1] += s
        last = perf_counter() - t0
    tracer.clear()
    # times are medians over passes, in reference seconds; counts (and the
    # ratios of counts) must repeat exactly, as every pass has the same inputs
    scale = probe.scale()
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    values = {name: (statistics.median(m[name] for m in per_pass) * scale
                     if units[name] in TIME_UNITS else per_pass[0][name])
              for name in per_pass[0]}
    values["trace.overhead_s"] = (statistics.median(traced)
                                  - statistics.median(plain)) * scale
    counts_differ = [name for name in per_pass[0] if units[name] not in TIME_UNITS
                     and any(m[name] != per_pass[0][name] for m in per_pass)]
    return {
        "passes": len(traced),
        "check_seeds": [check_seed],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
        "reference_scale": scale,
        "wall_samples": {"traced_campaign_s": traced, "untraced_campaign_s": plain,
                         "per_pass": per_pass, "probe_s": probe.samples},
        "counts_differ": counts_differ,
        "missing_targets": missing,
        "missing_metrics": layers.missing_metrics(missing),
        "edges": {k: {"calls": n, "inclusive_s": s} for k, (n, s) in sorted(edges.items())},
        "calls": calls,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="result file (default: perfbench/results/)")
    args = ap.parse_args(argv)

    import_ehv()
    workload = WORKLOADS[args.workload]
    reference = gate.load_reference(workload.name)
    load_before = facts.loadavg()
    run = (run_traced if args.trace else run_untraced)(
        workload, args.seed, args.seconds, reference)
    calls = run.pop("calls")
    failed = [c for c in calls if not c.verdict.gate_ok]
    result = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "machine": facts.machine(),
        "loadavg_before": load_before, "loadavg_after": facts.loadavg(),
        "correct": not failed and not run.get("counts_differ"),
        "attempted": len(calls), "failed": len(failed),
        **run, "calls": [c.record() for c in calls],
    }
    out = args.out or HERE / "results" / (
        f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")

    for c in failed:
        print(f"gate: {c.check} seed={c.seed}: {c.verdict.reason}", file=sys.stderr)
    if run.get("counts_differ"):
        print(f"trace: counts differ between passes over the same inputs: "
              f"{run['counts_differ']}", file=sys.stderr)
    if run.get("missing_targets"):
        print(f"trace: WARNING: {run['missing_targets']} no longer exist in ehv, so "
              f"{run['missing_metrics']} no longer measure their whole layer; "
              f"update LAYERS in perfbench/layers.py", file=sys.stderr)
    for name, m in result["metrics"].items():
        samples = f" (n={m['samples']})" if "samples" in m else ""
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}{samples}")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
