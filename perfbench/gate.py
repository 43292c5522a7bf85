"""Correctness gate applied to every ``run_check`` call the benchmark makes.

Each call is judged against a reference recorded by ``record.py``: the row
names, row count, tolerances and parameter digests must be the recorded
ones, and every row must pass by the report's own rule (``rel_err <= tol``,
or ``abs_err <= tol`` when the expected value is exactly 0).  A later change
therefore cannot win time by loosening a tolerance, shrinking a draw count
or drawing different parameters.  The computed digits (``lhs``) and node
counts are not compared: roundoff and a-priori node counts may move them.

Known defects are recorded too: a call the reference records as raising must
raise the same error, and rows the reference records as failing may fail
again.  Such a call counts as attempted and not passed (``pass_frac``), but
it is no gate failure.  A recorded-error call that now returns rows is a gate
failure until the reference is recorded again, since there is nothing to
hold its rows to.  A recorded failing row that now passes is accepted: its
name, tol and params_digest are still compared.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def call_key(check: str, seed: int, n: int | None) -> str:
    return f"{check}|{seed}|{'-' if n is None else n}"


def rows_outcome(reports) -> dict:
    return {"rows": [r.to_dict() for r in reports]}


def error_outcome(exc: BaseException) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def _row_keys(rows) -> list:
    return [[r["name"], r["tol"], r["params_digest"]] for r in rows]


def reference_entry(outcome: dict) -> dict:
    """What the reference keeps of a call's outcome: the error, or each row's
    name, tol and params_digest plus the names of rows that fail."""
    if "error" in outcome:
        return {"error": outcome["error"]}
    rows = outcome["rows"]
    entry = {"rows": _row_keys(rows)}
    failing = [r["name"] for r in rows if not row_verdict(r)[0]]
    if failing:
        entry["failing"] = failing
    return entry


def row_verdict(row: dict) -> tuple[bool, float]:
    """(passes, margin in digits) of one frozen-format report row.

    The error is rel_err, or abs_err when the expected value is 0, as in
    ``VerificationReport.from_sides``; the margin is log10(tol / error).
    """
    lhs, rhs, tol = row["lhs"], row["rhs"], row["tol"]
    if lhs is None or rhs is None:
        return False, -math.inf
    expected = complex(rhs["re"], rhs["im"])
    err = abs(complex(lhs["re"], lhs["im"]) - expected)
    if expected != 0:
        err /= abs(expected)
    if math.isnan(err):
        return False, -math.inf
    ok = err <= tol and row["pass"]
    if err == 0:
        return ok, math.inf
    return ok, math.log10(tol / err)


@dataclass
class Verdict:
    gate_ok: bool        # outcome matches the reference and all rows pass
    passed: bool         # the call returned rows and every row passed
    margin: float | None  # thinnest margin of the passing rows, in digits
    reason: str = ""


def judge(ref: dict | None, outcome: dict) -> Verdict:
    if ref is None:
        return Verdict(False, False, None, "no reference recorded for this call")
    if "error" in outcome:
        if ref.get("error") == outcome["error"]:
            return Verdict(True, False, None, "known defect: " + outcome["error"])
        return Verdict(False, False, None, outcome["error"])
    rows = outcome["rows"]
    verdicts = [row_verdict(r) for r in rows]
    failing = [r["name"] for r, (ok, _) in zip(rows, verdicts) if not ok]
    passed = bool(rows) and not failing
    margin = min((m for ok, m in verdicts if ok), default=None)
    if "error" in ref:
        return Verdict(False, passed, margin,
                       "known defect fixed: re-record the reference")
    if _row_keys(rows) != ref["rows"]:
        return Verdict(False, passed, margin,
                       "row names, count, tol or params_digest differ from the reference")
    new = [name for name in failing if name not in ref.get("failing", ())]
    if new:
        return Verdict(False, False, margin, f"rows fail: {new}")
    if failing:
        return Verdict(True, False, margin, f"known failing rows: {failing}")
    return Verdict(True, True, margin)


def load_reference(workload: str) -> dict:
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text())["calls"]


def save_reference(workload: str, seeds, calls: dict) -> Path:
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload}.json"
    path.write_text(json.dumps({"workload": workload, "check_seeds": list(seeds),
                                "calls": calls}, indent=1) + "\n")
    return path
