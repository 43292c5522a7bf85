"""Parameter files: the one reader and the integrand-spec encoding.

File format: a JSON object; each command reads the fields it needs.

    {"family": "Cn_III", "n": 2,
     "q": [re, im], "p": [re, im],
     "t": [[re, im], ...], "f": [...], "x": [...],
     "extras": {"t": [re, im], "s": [re, im], "N": 4, ...},
     "N": 4,
     "z": [re, im] or [[re, im], ...]}

Complex numbers are [re, im] pairs (bare reals also accepted).  Which
family reads which sequence and extra is listed in the README.
"""

from __future__ import annotations

import json

from .core import Moduli
from .integrands import Family, IntegrandSpec, ParamSet

_SEQUENCES = ("t", "f", "x")


def decode_complex(v):
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(v[0], v[1])
    raise ValueError(f"cannot parse complex value {v!r}")


def encode_complex(v):
    v = complex(v)
    return [v.real, v.imag]


def load_params(path: str) -> dict:
    """The decoded parameter file at ``path``: complex q, p; tuples of
    complex t, f, x; extras as complex numbers, except the integer N; z as
    a tuple of points; family as given; integer n and N."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("a parameter file holds one JSON object")
    out = {key: decode_complex(raw[key]) for key in ("q", "p") if key in raw}
    for key in _SEQUENCES:
        if key in raw:
            out[key] = tuple(decode_complex(v) for v in raw[key])
    if "extras" in raw:
        out["extras"] = {key: int(v) if key == "N" else decode_complex(v)
                         for key, v in raw["extras"].items()}
    if "z" in raw:
        zs = raw["z"]
        points = isinstance(zs, list) and zs and isinstance(zs[0], list)
        out["z"] = tuple(map(decode_complex, zs if points else [zs]))
    if "family" in raw:
        out["family"] = raw["family"]
    for key in ("n", "N"):
        if key in raw:
            out[key] = int(raw[key])
    return out


def spec_to_params(spec: IntegrandSpec) -> dict:
    """JSON-ready encoding; a file holding it loads back to the same spec."""
    ps = spec.params
    out = {
        "family": spec.family.value,
        "n": spec.n,
        "q": encode_complex(spec.moduli.q),
        "p": encode_complex(spec.moduli.p),
    }
    for key in _SEQUENCES:
        seq = getattr(ps, key)
        if seq:
            out[key] = [encode_complex(v) for v in seq]
    if ps.extras:
        out["extras"] = {key: encode_complex(v) for key, v in ps.extras.items()}
    return out


def spec_from_params(d: dict) -> IntegrandSpec:
    """The spec of a decoded parameter file (see load_params)."""
    ps = ParamSet(**{key: d.get(key, ()) for key in _SEQUENCES},
                  extras=d.get("extras", {}))
    return IntegrandSpec(Family(d["family"]), d["n"], ps,
                         Moduli(q=d["q"], p=d["p"]))
