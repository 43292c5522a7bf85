import cmath
import os
import random
from pathlib import Path

import pytest

from ehv import _backend
from ehv.core import Moduli

# The command-line tests run ``python -m ehv.cli`` in subprocesses, which
# import ehv from this checkout's src/ as the tests themselves do through
# pyproject.toml's pytest pythonpath, whether or not PYTHONPATH names it.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


@pytest.fixture
def moduli():
    return Moduli(0.31, 0.23)


@pytest.fixture
def rng():
    return random.Random(20240817)


def rand_arg(rng, lo, hi):
    """Complex number with modulus uniform in [lo, hi], phase uniform."""
    return rng.uniform(lo, hi) * cmath.exp(2j * cmath.pi * rng.random())


@pytest.fixture
def arg():
    return rand_arg


@pytest.fixture
def extended():
    with _backend.precision(_backend.EXTENDED):
        yield
