"""Record the reference verdicts the correctness gate compares against.

    python3 perfbench/record.py

Runs every check of every workload once at each of its check seeds and writes ``perfbench/reference/<workload>.json``.
Record only at a commit whose results are known to be right: the gate then
holds every later commit to the same rows, tolerances and parameters.
"""

from __future__ import annotations

import sys
from time import perf_counter

import gate
from run import import_ehv, run_pass
from workloads import WORKLOADS


def main() -> int:
    import_ehv()
    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]
        calls = {}
        for seed in workload.check_seeds:
            start = perf_counter()
            for c in run_pass(workload, seed, {}):
                calls[gate.call_key(c.check, seed, workload.n)] = \
                    gate.reference_entry(c.outcome)
                verdict = gate.judge(gate.reference_entry(c.outcome), c.outcome)
                if not verdict.passed:
                    print(f"{name} {c.check} seed={seed}: does not pass: "
                          f"{verdict.reason}", file=sys.stderr)
                print(f"{name} {c.check} seed={seed} {c.seconds:.3f}s "
                      f"margin={verdict.margin}")
            print(f"{name} seed={seed} pass {perf_counter() - start:.2f}s", flush=True)
        print(gate.save_reference(name, workload.check_seeds, calls))
    return 0


if __name__ == "__main__":
    sys.exit(main())
