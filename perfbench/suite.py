"""Run every workload at several seeds and print every end-to-end metric.

    python3 perfbench/suite.py [--seeds N ...] [--seconds S] [--out FILE]

Every run is its own ``run.py`` process, so peak RSS is per workload.  The
default is ten seeds, the fewest ``compare.py`` needs to call a change
better.  For each workload and end-to-end metric it prints the median over
the seeds, the quartiles and the spread (IQR / median) next to the metric's
bound; the first seed also gets a traced run, whose largest self times and
tracing overhead are printed.  All runs go to one result file (default
``perfbench/results/suite.json``) that ``compare.py`` reads.  Exit status 1
when any run fails the correctness gate or exits non-zero.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import facts
from compare import quartiles, spread
from workloads import SPEC

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_one(workload: str, seed: int, seconds: float, trace: int, out: Path):
    """One run.py process; returns its result, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode not in (0, 1) or not out.is_file():
        print(f"{workload} seed={seed} trace={trace}: exit {proc.returncode}\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    res = json.loads(out.read_text())
    if proc.returncode or res.get("missing_targets"):
        print(proc.stderr, file=sys.stderr)
    return res


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--out", type=Path, default=HERE / "results" / "suite.json")
    args = ap.parse_args(argv)

    run_dir = args.out.with_suffix("")
    run_dir.mkdir(parents=True, exist_ok=True)
    runs, ok = [], True
    for workload in names:
        plan = [(s, 0) for s in args.seeds] + [(args.seeds[0], 1)]
        for seed, trace in plan:
            res = run_one(workload, seed, args.seconds, trace,
                          run_dir / f"{workload}-seed{seed}-trace{trace}.json")
            if res is None or not res["correct"]:
                ok = False
            if res is not None:
                runs.append(res)
                print(f"{workload} seed={seed} trace={trace}: passes={res['passes']} "
                      f"attempted={res['attempted']} failed={res['failed']}", flush=True)
    args.out.write_text(json.dumps({"machine": facts.machine(), "runs": runs}) + "\n")

    print(f"\n{'workload':<12} {'metric':<14} {'unit':<9} {'median':>11} "
          f"{'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}  runs")
    for workload in names:
        plain = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        for m in SPEC["end_to_end"] if plain else ():
            values = [r["metrics"][m["name"]]["value"] for r in plain]
            q1, med, q3 = quartiles(values)
            print(f"{workload:<12} {m['name']:<14} {m['unit']:<9} {med:>11.5g} "
                  f"{q1:>11.5g} {q3:>11.5g} {spread(values):>7.1%} "
                  f"{m['bound']:>6.0%}  {len(values)}")
    for r in runs:
        if r["trace"] != 1:
            continue
        selfs = sorted(((m["value"], k) for k, m in r["metrics"].items()
                        if k.endswith(".self_s")), reverse=True)[:4]
        print(f"\ntraced {r['workload']} seed={r['seed']}: overhead "
              f"{r['metrics']['trace.overhead_s']['value']:.3f} s; largest self times: "
              + ", ".join(f"{k[:-7]} {v:.3f} s" for v, k in selfs))
    print(f"\nresults: {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
