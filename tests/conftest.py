import cmath
import random

import pytest

from ehv import _backend
from ehv.core import Moduli


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
