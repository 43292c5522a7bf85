"""Compare two suite result files under the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE.json NEW.json

For each workload and end-to-end metric it prints both medians with their
quartiles, the change, and a verdict:

worse       the new median is worse than the base median by more than the bound
better      the new runs beat the base runs (seed by seed) in at least nine
            tenths of at least ten pairs, and the medians differ by more
            than the base's own spread
unresolved  the run-to-run spread (IQR / median) of either side exceeds the
            bound, unless every new run is better than every base run; or
            the new runs look better, but over fewer than ten pairs
unchanged   otherwise

It then prints the per-layer medians of the traced runs and their change; a
metric whose layer lost a target in ``ehv`` on either side reads
``missing`` instead of a change.  Results taken on different machines are
flagged at the top and the bottom.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import facts
from workloads import SPEC

MIN_PAIRS = 10      # fewest paired runs a "better" verdict may rest on


def spread(values) -> float:
    """Distance between the first and third quartiles, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, bound: float, better: str) -> str:
    """Verdict on ``new`` against ``base``; both are lists of one metric's
    run values, paired by position (same seed)."""
    sign = 1.0 if better == "lower" else -1.0
    b_med, n_med = statistics.median(base), statistics.median(new)
    worse_by = sign * (n_med - b_med) / abs(b_med)
    pairs = min(len(base), len(new))
    if max(spread(base), spread(new)) > bound:
        if all(sign * (n - b) < 0 for n in new for b in base) and pairs >= MIN_PAIRS:
            return "better"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    wins = sum(sign * (n - b) < 0 for b, n in zip(base, new))
    if -worse_by > spread(base) and wins >= 0.9 * pairs:
        return "better" if pairs >= MIN_PAIRS else "unresolved"
    return "unchanged"


def _fmt(q) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def _runs(suite: dict, trace: int) -> dict:
    """{workload: [run, ...]} of one trace mode, in seed order."""
    out: dict = {}
    for run in sorted(suite["runs"], key=lambda r: r["seed"]):
        if run["trace"] == trace:
            out.setdefault(run["workload"], []).append(run)
    return out


def _paired(base_runs, new_runs, name):
    """Values of one metric from the seeds both sides ran."""
    new_by_seed = {r["seed"]: r for r in new_runs}
    pairs = [(b["metrics"][name]["value"], new_by_seed[b["seed"]]["metrics"][name]["value"])
             for b in base_runs if b["seed"] in new_by_seed]
    return [b for b, _ in pairs], [n for _, n in pairs]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    base = json.loads(args.base.read_text())
    new = json.loads(args.new.read_text())

    differ = facts.comparable(base["machine"], new["machine"])
    warning = (f"WARNING: the two results come from different machines or "
               f"software ({', '.join(differ)}); do not read the verdicts as a "
               f"comparison of the code.") if differ else ""
    if warning:
        print(warning)

    base_e2e, new_e2e = _runs(base, 0), _runs(new, 0)
    print(f"{'workload':<12} {'metric':<14} {'unit':<8} {'base median [q1, q3]':<32} "
          f"{'new median [q1, q3]':<32} {'change':>8}  verdict")
    for workload in [w["name"] for w in SPEC["workloads"]]:
        if workload not in base_e2e or workload not in new_e2e:
            continue
        for m in SPEC["end_to_end"]:
            b, n = _paired(base_e2e[workload], new_e2e[workload], m["name"])
            if not b:
                continue
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / abs(bq[1])
            print(f"{workload:<12} {m['name']:<14} {m['unit']:<8} {_fmt(bq):<32} "
                  f"{_fmt(nq):<32} {change:>+8.1%}  "
                  f"{verdict(b, n, m['bound'], m['better'])}")

    base_tr, new_tr = _runs(base, 1), _runs(new, 1)
    for workload in [w["name"] for w in SPEC["workloads"]]:
        if workload not in base_tr or workload not in new_tr:
            continue
        print(f"\nper-layer, {workload} (traced runs: base {len(base_tr[workload])}, "
              f"new {len(new_tr[workload])})")
        missing = {name for r in base_tr[workload] + new_tr[workload]
                   for name in r.get("missing_metrics", ())}
        for m in SPEC["per_layer"]:
            b = statistics.median(r["metrics"][m["name"]]["value"] for r in base_tr[workload])
            n = statistics.median(r["metrics"][m["name"]]["value"] for r in new_tr[workload])
            if m["name"] in missing:
                change = "missing"
            elif b == 0 and n == 0:
                continue
            else:
                change = f"{(n - b) / abs(b):+.1%}" if b else "new"
            print(f"  {m['name']:<42} {m['unit']:<10} {b:<12.5g} {n:<12.5g} {change:>8}")
    if warning:
        print(warning)
    return 0


if __name__ == "__main__":
    sys.exit(main())
