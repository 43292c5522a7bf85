"""Command-line front end.

    ehv eval   <function> [--z --p --q --b --u --sigma --tau --w1 --w2 --w3
                           --N] [--params FILE] [--precision std|extended]
    ehv verify <identity> [--params FILE] [--tol X] [--seed N] [--nodes N]
                          [--n N] [--m M] [--json] [--precision std|extended]
    ehv sweep  <identity> --grid NAME=START:STOP:COUNT[:geom] [--out PATH]
                          [--params FILE] [--tol X] [--seed N] [--nodes N]
                          [--n N] [--precision std|extended]

Each subcommand takes only the flags it reads, and each check of ``verify``
only the options it reads (see ``registry.run_check``); any other exits 2.

Exit codes: 0 success, 1 a ``verify`` row failed, 2 invalid input or a
gated precondition (unknown name, domain violation, inadmissible contour,
a value beyond the float range, a non-finite number).  Exit 1 belongs to
``verify`` alone: a ``sweep`` whose rows print exits 0 and reports failing
points in its rows and its ``pass_fraction``.
Errors are reported as one-line JSON objects on stderr.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

from . import _backend
from .core import Moduli, qpochhammer, theta, theta1, theta_factorial
from .errors import EHVError
from .gamma import QuasiPeriods, double_sine, elliptic_gamma, modified_gamma_G
from .integrands import IntegrandSpec, ParamSet, make_integrand
from .params import load_params, spec_from_params
from .registry import (
    FAMILY_CHECKS,
    REGISTRY,
    CheckOptions,
    Sampler,
    _draw_spec,
    _family_report,
    _given,
    _rank_tol,
    check_parity,
    check_tol,
    file_spec,
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


def _parse_complex(text: str, flag: str):
    """The number ``--flag text`` gives; EHVError unless both parts are
    finite."""
    try:
        if "," in text:
            re_s, im_s = text.split(",", 1)
            val = complex(float(re_s), float(im_s))
        else:
            try:
                val = complex(float(text), 0.0)
            except ValueError:
                val = complex(text.replace("i", "j"))
    except ValueError:
        raise EHVError(f"--{flag}: cannot parse complex number {text!r}")
    if not cmath.isfinite(val):
        raise EHVError(f"--{flag} must be finite; got {text!r}")
    return _backend.coerce(val)


def _fmt_complex(v: complex) -> str:
    return json.dumps({"re": float(f"{v.real:.17g}"),
                       "im": float(f"{v.imag:.17g}")})


_FILE_FUNCTIONS = "sum_V and delta_*"


def _eval_function(args) -> complex:
    name = args.name
    if name == "sum_V" or name.startswith("delta_"):
        if not args.params:
            raise EHVError(f"{name} needs --params FILE")
        return _eval_from_file(name, load_params(args.params))

    def need(flag):
        val = getattr(args, flag)
        if val is None:
            raise EHVError(f"missing argument --{flag} for {name}")
        return _parse_complex(val, flag)

    functions = {
        "theta": lambda: theta(need("z"), need("p")),
        "theta1": lambda: theta1(need("u"), need("sigma"), need("tau")),
        "qpochhammer": lambda: qpochhammer(need("z"), need("b")),
        "theta_factorial": lambda: theta_factorial(
            need("z"), need("p"), need("q"), _given(args.N, 0)),
        "gamma": lambda: elliptic_gamma(need("z"),
                                        Moduli(q=need("q"), p=need("p"))),
        "S": lambda: double_sine(need("u"), need("w1"), need("w2")),
        "G": lambda: modified_gamma_G(
            need("u"), QuasiPeriods(need("w1"), need("w2"), need("w3"))),
    }
    if name not in functions:
        raise EHVError(f"unknown function {name!r}; known: "
                       f"{', '.join(functions)}, {_FILE_FUNCTIONS}")
    if args.params:
        raise EHVError(f"{name} takes its arguments as flags; --params is "
                       f"for {_FILE_FUNCTIONS}")
    return functions[name]()


def _eval_from_file(name: str, d: dict) -> complex:
    """sum_V of the file's terminating series, or delta_* (any suffix): the
    integrand of the file's family spec at its point(s) z."""
    if name == "sum_V":
        extras = d.get("extras", {})
        spec = VSpec(t0=extras.get("t0", d.get("t", (None,))[0]),
                     t=tuple(d["t"][1:]) if "t0" not in extras else d["t"],
                     x=extras.get("x", 1.0),
                     moduli=Moduli(q=d["q"], p=d["p"]),
                     N=extras.get("N", d.get("N", 0)))
        return sum_V(spec)
    spec = spec_from_params(d)
    if "z" not in d:
        raise EHVError(f"{name} needs a \"z\" entry in the params file")
    return make_integrand(spec)(d["z"])


def cmd_eval(args) -> int:
    try:
        value = _eval_function(args)
    except EHVError as exc:
        _fail(2, str(exc), function=args.name)
    except (ValueError, KeyError, OSError) as exc:
        _fail(2, f"invalid parameters: {exc}", function=args.name)
    except OverflowError as exc:
        _fail(2, f"overflow: {exc}", function=args.name)
    print(_fmt_complex(complex(value)))
    return 0


def _options_from_args(args) -> CheckOptions:
    params = load_params(args.params) if args.params else None
    return CheckOptions(seed=args.seed, tol=args.tol, nodes=args.nodes,
                        n=args.n, m=args.m, params=params)


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
    except OverflowError as exc:
        _fail(2, f"overflow: {exc}", identity=args.name)
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
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError("endpoints must be finite")
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
    """base_spec with q, p or a scalar extra set to value, or the modulus
    of sequence entry <t|f|x><index> set to value."""
    ps = base_spec.params
    seqs = {k: list(getattr(ps, k)) for k in ("t", "f", "x")}
    extras = dict(ps.extras)
    moduli = base_spec.moduli
    if pname in ("q", "p"):
        moduli = Moduli(q=value if pname == "q" else moduli.q,
                        p=value if pname == "p" else moduli.p)
    elif pname in extras:
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
        check_parity(args.name, args.n)
        if args.params:
            base = file_spec(load_params(args.params), family, args.n)
            check_parity(args.name, base.n)
        else:
            base = _draw_spec(Sampler(args.seed), family,
                              _given(args.n, rank or 1))
        tol = check_tol(_given(args.tol,
                               REGISTRY[args.name][1] or _rank_tol(base.n)))
        reports = list(timed_rows(
            _family_report(f"{args.name}[{pname}={v:.6g}]",
                           _swept_spec(family, base, pname, v), tol, args.nodes)
            for v in values))
    except EHVError as exc:
        _fail(2, str(exc), identity=args.name)
    except (ValueError, KeyError, OSError) as exc:
        _fail(2, f"invalid sweep input: {exc}", identity=args.name)
    except OverflowError as exc:
        _fail(2, f"overflow: {exc}", identity=args.name)
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


_PRECISION_HELP = ("extended runs scalar functions, series and closed forms "
                   "at 36 digits; quadrature node tables and node sums stay "
                   "float64 (default std: float64 throughout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ehv",
        description="evaluate and verify theta hypergeometric identities")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help, params_help):
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        sp.add_argument("name")
        sp.add_argument("--params", help=params_help)
        sp.add_argument("--precision", choices=("std", "extended"),
                        default="std", help=_PRECISION_HELP)
        sp.set_defaults(func=func)
        return sp

    def check_flags(sp):
        sp.add_argument("--tol", type=float, default=None)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--nodes", type=int, default=None)
        sp.add_argument("--n", type=int, default=None)

    pe = command("eval", cmd_eval, "evaluate a named function",
                 f"JSON parameter file ({_FILE_FUNCTIONS})")
    for flag in ("z", "p", "q", "b", "u", "sigma", "tau", "w1", "w2", "w3"):
        pe.add_argument(f"--{flag}")
    pe.add_argument("--N", type=int, default=None)

    pv = command("verify", cmd_verify, "run a named identity check",
                 "JSON parameter file (biorth and the family checks)")
    check_flags(pv)
    pv.add_argument("--m", type=int, default=None)
    pv.add_argument("--json", action="store_true")

    ps = command("sweep", cmd_sweep, "verify over a parameter grid",
                 "JSON parameter file of the base point")
    check_flags(ps)
    ps.add_argument("--grid", help="NAME=START:STOP:COUNT[:geom]")
    ps.add_argument("--out", help="output path (JSON lines)")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with _backend.precision(args.precision):
        return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
