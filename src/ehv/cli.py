"""Command-line front end.

    ehv eval   <function> [--z ...] [--params FILE] ...
    ehv verify <identity> [--params FILE] [--tol X] [--seed N] [--nodes N]
                          [--json] [--precision std|extended] [--n N] [--m M]
    ehv sweep  <identity> --grid NAME=START:STOP:COUNT[:geom] [--out PATH]

Exit codes: 0 all checks pass, 1 at least one failure, 2 invalid input or a
gated precondition (unknown name, domain violation, inadmissible contour).
Errors are reported as one-line JSON objects on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import _backend
from .core import Moduli, qpochhammer, theta, theta1, theta_factorial
from .errors import EHVError
from .gamma import QuasiPeriods, double_sine, elliptic_gamma, modified_gamma_G
from .integrands import IntegrandSpec, ParamSet, make_integrand
from .params import decode_complex, load_params, spec_from_params
from .registry import (
    FAMILY_CHECKS,
    REGISTRY,
    CheckOptions,
    Sampler,
    _draw_spec,
    _family_report,
    _given,
    _rank_tol,
    check_tol,
    rejection_count,
    run_check,
    timed_rows,
)
from .series import VSpec, sum_V


def _fail(code: int, message: str, **extra):
    payload = {"error": message}
    payload.update(extra)
    print(json.dumps(payload, separators=(",", ":")), file=sys.stderr)
    sys.exit(code)


def _parse_complex(text: str):
    try:
        if "," in text:
            re_s, im_s = text.split(",", 1)
            val = complex(float(re_s), float(im_s))
        elif "j" in text or "i" in text:
            val = complex(text.replace("i", "j"))
        else:
            val = complex(float(text), 0.0)
    except ValueError:
        raise EHVError(f"cannot parse complex number {text!r}")
    return _backend.coerce(val)


def _fmt_complex(v: complex) -> str:
    return json.dumps({"re": float(f"{v.real:.17g}"),
                       "im": float(f"{v.imag:.17g}")})


def _eval_function(args) -> complex:
    name = args.name
    d = load_params(args.params) if args.params else {}

    def need(attr, flag):
        val = getattr(args, flag, None)
        if val is not None:
            return _parse_complex(val)
        if attr in d:
            return d[attr]
        raise EHVError(f"missing argument --{flag} for {name}")

    if name == "theta":
        return theta(need("z", "z"), need("p", "p"))
    if name == "theta1":
        return theta1(need("u", "u"), need("sigma", "sigma"), need("tau", "tau"))
    if name == "qpochhammer":
        return qpochhammer(need("z", "z"), need("b", "b"))
    if name == "theta_factorial":
        return theta_factorial(need("z", "z"), need("p", "p"), need("q", "q"),
                               int(args.N if args.N is not None
                                   else d.get("extras", {}).get("N", 0)))
    if name == "gamma":
        return elliptic_gamma(need("z", "z"),
                              Moduli(q=need("q", "q"), p=need("p", "p")))
    if name == "S":
        return double_sine(need("u", "u"), need("omega1", "w1"),
                           need("omega2", "w2"))
    if name == "G":
        w = QuasiPeriods(need("omega1", "w1"), need("omega2", "w2"),
                         need("omega3", "w3"))
        return modified_gamma_G(need("u", "u"), w)
    if name == "sum_V":
        if not args.params:
            raise EHVError("sum_V needs --params FILE")
        extras = d.get("extras", {})
        spec = VSpec(t0=extras.get("t0", d.get("t", (None,))[0]),
                     t=tuple(d["t"][1:]) if "t0" not in extras else d["t"],
                     x=extras.get("x", 1.0),
                     moduli=Moduli(q=d["q"], p=d["p"]),
                     N=int(extras.get("N", d.get("N", 0))))
        return sum_V(spec)
    if name.startswith("delta_"):
        if not args.params:
            raise EHVError(f"{name} needs --params FILE with a family spec")
        with open(args.params, encoding="utf-8") as fh:
            raw = json.load(fh)
        spec = spec_from_params(raw)
        zs = raw.get("z")
        if zs is None:
            raise EHVError(f"{name} needs a \"z\" entry in the params file")
        zpts = [decode_complex(v) for v in (zs if isinstance(zs[0], list) else [zs])]
        return make_integrand(spec)(tuple(zpts))
    raise EHVError(
        f"unknown function {name!r}; known: theta, theta1, qpochhammer, "
        "theta_factorial, gamma, S, G, sum_V, delta_*"
    )


def cmd_eval(args) -> int:
    try:
        value = _eval_function(args)
    except EHVError as exc:
        _fail(2, str(exc), function=args.name)
    except (ValueError, KeyError, OSError) as exc:
        _fail(2, f"invalid parameters: {exc}", function=args.name)
    print(_fmt_complex(complex(value)))
    return 0


def _options_from_args(args) -> CheckOptions:
    params = load_params(args.params) if args.params else None
    return CheckOptions(seed=args.seed, tol=args.tol, nodes=args.nodes,
                        n=args.n, m=args.m, side=args.side, params=params)


def cmd_verify(args) -> int:
    if args.name not in REGISTRY:
        _fail(2, f"unknown identity {args.name!r}",
              known=sorted(REGISTRY))
    try:
        reports = run_check(args.name, _options_from_args(args))
    except EHVError as exc:
        _fail(2, str(exc), identity=args.name)
    except (ValueError, KeyError, OSError) as exc:
        _fail(2, f"invalid parameters: {exc}", identity=args.name)
    for rep in reports:
        print(rep.to_json_line() if args.json else rep.to_text_line())
    if rejection_count():
        print(f"sampling rejections: {rejection_count()}", file=sys.stderr)
    return 0 if all(r.passed for r in reports) else 1


def _parse_grid(text: str):
    try:
        name, rng = text.split("=", 1)
        parts = rng.split(":")
        geom = len(parts) == 4 and parts[3] == "geom"
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError("empty grid")
        if geom and (start <= 0 or stop <= 0):
            raise ValueError("geometric grid needs positive endpoints")
    except (ValueError, IndexError) as exc:
        raise EHVError(f"malformed grid spec {text!r}: {exc}")
    if count == 1:
        values = [start]
    elif geom:
        ratio = (stop / start) ** (1.0 / (count - 1))
        values = [start * ratio ** i for i in range(count)]
    else:
        step = (stop - start) / (count - 1)
        values = [start + step * i for i in range(count)]
    return name.strip(), values


def _swept_spec(family, base_spec, pname, value) -> IntegrandSpec:
    ps = base_spec.params
    seqs = {k: list(getattr(ps, k)) for k in ("t", "w", "f", "s", "x")}
    extras = dict(ps.extras)
    moduli = base_spec.moduli
    if pname in ("q", "p"):
        moduli = Moduli(q=value if pname == "q" else moduli.q,
                        p=value if pname == "p" else moduli.p)
    elif pname in extras or pname in ("t", "s", "rho", "gamma"):
        extras[pname] = value
    elif pname[0] in seqs and pname[1:].isdigit():
        seq = seqs[pname[0]]
        idx = int(pname[1:])
        if idx >= len(seq):
            raise EHVError(f"parameter index out of range: {pname}")
        seq[idx] = value * seq[idx] / abs(seq[idx])   # sweep the modulus
    else:
        raise EHVError(f"unknown sweep parameter {pname!r}")
    return IntegrandSpec(family, base_spec.n, ParamSet(**seqs, extras=extras),
                         moduli)


def cmd_sweep(args) -> int:
    if args.name not in FAMILY_CHECKS:
        _fail(2, f"sweep supports {sorted(FAMILY_CHECKS)}; got {args.name!r}")
    if not args.grid:
        _fail(2, "sweep needs --grid NAME=START:STOP:COUNT[:geom]")
    try:
        pname, values = _parse_grid(args.grid)
        family, rank = FAMILY_CHECKS[args.name]
        n = _given(args.n, rank or 1)
        if args.params:
            with open(args.params, encoding="utf-8") as fh:
                base = spec_from_params(json.load(fh))
        else:
            base = _draw_spec(Sampler(args.seed), family, n)
        tol = check_tol(_given(args.tol, REGISTRY[args.name][1] or _rank_tol(n)))
        reports = list(timed_rows(
            _family_report(f"{args.name}[{pname}={v:.6g}]",
                           _swept_spec(family, base, pname, v), tol, args.nodes)
            for v in values))
    except EHVError as exc:
        _fail(2, str(exc), identity=args.name)
    except (ValueError, KeyError, OSError) as exc:
        _fail(2, f"invalid sweep input: {exc}", identity=args.name)
    lines = [rep.to_json_line() for rep in reports]
    npass = sum(1 for rep in reports if rep.passed)
    summary = json.dumps({"summary": args.name, "grid": args.grid,
                          "points": len(reports),
                          "pass_fraction": npass / len(reports)},
                         separators=(",", ":"))
    out = "\n".join(lines + [summary]) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ehv",
        description="evaluate and verify theta hypergeometric identities")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--params", help="JSON parameter file")
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--nodes", type=int, default=None)
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--precision", choices=("std", "extended"),
                        default="std")
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--m", type=int, default=None)
        sp.add_argument("--side", default=None,
                        choices=(None, "closed_form", "integral"))

    pe = sub.add_parser("eval", help="evaluate a named function")
    pe.add_argument("name")
    for flag in ("z", "p", "q", "b", "u", "sigma", "tau", "w1", "w2", "w3"):
        pe.add_argument(f"--{flag}")
    pe.add_argument("--N", type=int, default=None)
    common(pe)
    pe.set_defaults(func=cmd_eval)

    pv = sub.add_parser("verify", help="run a named identity check")
    pv.add_argument("name")
    common(pv)
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("sweep", help="verify over a parameter grid")
    ps.add_argument("name")
    ps.add_argument("--grid", help="NAME=START:STOP:COUNT[:geom]")
    ps.add_argument("--out", help="output path (JSON lines)")
    common(ps)
    ps.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "precision", "std") == "extended":
        _backend.set_precision(_backend.EXTENDED)
    try:
        return args.func(args)
    finally:
        _backend.set_precision(_backend.STD)


if __name__ == "__main__":
    sys.exit(main())
