"""Arithmetic backend dispatch: float64 complex by default, mpmath on demand.

All core evaluators are written against the tiny helper set below instead of
calling cmath directly.  When any operand is an mpmath number the helpers
route through mpmath, so the same code path serves the extended-precision
mode (>= 30 significant digits).  Mode switching only affects how *inputs*
are coerced; the evaluators themselves are precision-agnostic.
"""

from __future__ import annotations

import cmath
import sys
from contextlib import contextmanager

STD = "std"
EXTENDED = "extended"
EXTENDED_DPS = 36

_mode = STD


def _mpmath():
    """mpmath, imported on first use: the float64 mode never needs it."""
    import mpmath
    return mpmath


@contextmanager
def precision(mode: str):
    """Evaluate the block in ``mode``; leaving it restores the mode and the
    ``mpmath.mp.dps`` in effect on entry.  Standard mode imports no mpmath."""
    global _mode
    if mode not in (STD, EXTENDED):
        raise ValueError(f"unknown precision mode {mode!r}")
    outer, dps = _mode, None
    if mode == EXTENDED:
        mp = _mpmath().mp
        dps, mp.dps = mp.dps, EXTENDED_DPS
    _mode = mode
    try:
        yield
    finally:
        _mode = outer
        if dps is not None:
            _mpmath().mp.dps = dps


def get_precision() -> str:
    return _mode


def coerce(x):
    """Coerce a number to the active mode's scalar type."""
    if _mode == EXTENDED:
        return _mpmath().mpc(x)
    return complex(x)


def is_mp(x) -> bool:
    mpmath = sys.modules.get("mpmath")   # no mpmath number before its import
    return mpmath is not None and isinstance(x, (mpmath.mpf, mpmath.mpc))


def cexp(x):
    return _mpmath().exp(x) if is_mp(x) else cmath.exp(x)


def clog(x):
    return _mpmath().log(x) if is_mp(x) else cmath.log(x)


def cpow(x, y):
    """Principal-branch power; exact for float base with int exponent."""
    if is_mp(x) or is_mp(y):
        return _mpmath().power(x, y)
    if isinstance(y, int):
        return x ** y
    return cmath.exp(y * cmath.log(x))
