"""Verification report records and their canonical JSON encoding.

The JSON layout is frozen: fixed key order, complex numbers as {"re", "im"}
objects, floats in shortest round-trip form.  Identical inputs therefore
produce byte-identical report lines except for runtime_ms, the one
inherently nondeterministic entry: the row's share of its call's wall time
(the time since the previous row, sampling included), so that the rows of
one call add up to that call's wall time.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass


def _cplx(v):
    if v is None:
        return None
    v = complex(v)
    if math.isnan(v.real) or math.isnan(v.imag):
        return None
    return {"re": v.real, "im": v.imag}


def _canonical(obj):
    """Recursively encode params for digesting: complex -> [re, im]."""
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (list, tuple)):
        return [_canonical(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in sorted(obj.items())}
    if hasattr(obj, "real") and hasattr(obj, "imag") and not isinstance(obj, (int, float, bool)):
        return [float(obj.real), float(obj.imag)]
    return obj


def params_digest(params) -> str:
    blob = json.dumps(_canonical(params), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class VerificationReport:
    name: str
    lhs: complex | None
    rhs: complex | None
    abs_err: float
    rel_err: float
    tol: float
    passed: bool
    nodes: int
    runtime_ms: float
    params_digest: str

    @classmethod
    def from_sides(cls, name, lhs, rhs, tol, *, nodes=0,
                   params=None) -> "VerificationReport":
        """pass iff rel_err <= tol, or abs_err <= tol when rhs == 0."""
        lhs = complex(lhs)
        rhs = complex(rhs)
        abs_err = abs(lhs - rhs)
        if rhs == 0:
            rel_err = math.inf if abs_err > 0 else 0.0
            ok = abs_err <= tol
        else:
            rel_err = abs_err / abs(rhs)
            ok = rel_err <= tol
        return cls(
            name=name, lhs=lhs, rhs=rhs, abs_err=abs_err, rel_err=rel_err,
            tol=tol, passed=ok, nodes=nodes, runtime_ms=0.0,
            params_digest=params_digest(params if params is not None else name),
        )

    @classmethod
    def failure(cls, name, reason: str, tol, *, params=None) -> "VerificationReport":
        """Gated or errored check recorded as a non-passing report row."""
        return cls(
            name=f"{name} [{reason}]", lhs=None, rhs=None,
            abs_err=math.inf, rel_err=math.inf, tol=tol, passed=False,
            nodes=0, runtime_ms=0.0,
            params_digest=params_digest(params if params is not None else name),
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": _cplx(self.lhs),
            "rhs": _cplx(self.rhs),
            "abs_err": self.abs_err if math.isfinite(self.abs_err) else None,
            "rel_err": self.rel_err if math.isfinite(self.rel_err) else None,
            "tol": self.tol,
            "pass": self.passed,
            "nodes": self.nodes,
            "runtime_ms": self.runtime_ms,
            "params_digest": self.params_digest,
        }

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    def to_text_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if self.rel_err is not None and math.isfinite(self.rel_err):
            err = f"rel_err={self.rel_err:.3e}"
        else:
            err = f"abs_err={self.abs_err:.3e}" if math.isfinite(self.abs_err) else "no result"
        return (f"{status} {self.name}: {err} tol={self.tol:.1e} "
                f"nodes={self.nodes} ({self.runtime_ms:.1f} ms)")
