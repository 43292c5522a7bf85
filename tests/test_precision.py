"""Extended-precision mode: same interfaces, mpmath scalars underneath."""

import subprocess
import sys

import mpmath
import pytest

from ehv import _backend
from ehv.core import (Moduli, _theta_product, default_policy,
                      qpochhammer, theta, theta_factorial)
from ehv.errors import TruncationFailure
from ehv.gamma import elliptic_gamma
from ehv.series import VSpec, sum_V


def direct_theta(z, p, terms):
    out = 1
    w1, w2 = z, p / z
    for _ in range(terms):
        out *= (1 - w1) * (1 - w2)
        w1 *= p
        w2 *= p
    return out


def test_theta_matches_std(extended):
    z = mpmath.mpc(0.4, 0.1)
    p = mpmath.mpc(0.25, 0.0)
    hi = theta(z, p)
    lo = theta(0.4 + 0.1j, 0.25)
    assert abs(complex(hi) - lo) <= 1e-14 * abs(lo)


def test_theta_memo_keeps_precisions_apart():
    # The same arguments at 15 digits, at 36, then at 15 again: each call
    # gives the value of its own precision.
    z, p = 0.4 + 0.1j, 0.25 + 0.05j
    zm, pm = mpmath.mpc(z), mpmath.mpc(p)
    with mpmath.workdps(50):
        ref = direct_theta(zm, pm, 200)
    lo = theta(z, p)
    lo_mp = theta(zm, pm)
    assert abs(lo_mp - ref) > 1e-20 * abs(ref)
    with _backend.precision(_backend.EXTENDED):
        hi = theta(zm, pm)
        assert abs(hi - ref) < 1e-30 * abs(ref)
        assert theta(z, p) == _theta_product(z, p, default_policy())
        # 13288 factors: within the extended policy's max_terms only
        assert abs(theta(z, 0.993)) > 0
    assert repr(theta(z, p)) == repr(lo)
    assert theta(zm, pm) == lo_mp
    with pytest.raises(TruncationFailure):
        theta(z, 0.993)


def test_gamma_difference_law_at_30_digits(extended):
    m = Moduli(mpmath.mpc(0.31), mpmath.mpc(0.23))
    z = mpmath.mpc(0.5, 0.2)
    g = elliptic_gamma(z, m)
    lhs = elliptic_gamma(m.q * z, m)
    rhs = theta(z, m.p) * g
    assert abs(lhs - rhs) / abs(rhs) < mpmath.mpf(10) ** (-28)


def test_qpochhammer_high_precision(extended):
    v = qpochhammer(mpmath.mpf("0.5"), mpmath.mpf("0.5"))
    want = mpmath.mpf(1)
    w = mpmath.mpf("0.5")
    for _ in range(300):
        want *= 1 - w
        w *= mpmath.mpf("0.5")
    assert abs(v - want) < mpmath.mpf(10) ** (-30)


def test_terminating_sum_in_extended_mode(extended):
    q = mpmath.mpc("0.31")
    p = mpmath.mpc("0.23")
    m = Moduli(q, p)
    t0, t1, t4, t5 = (mpmath.mpc(v) for v in (0.5, 0.6, 0.7, 0.55))
    N = 3
    t6 = q ** -N
    t7 = q * t0 * t0 / (t1 * t4 * t5 * t6)
    val = sum_V(VSpec(t0=t0, t=(t1, t4, t5, t6, t7), x=1.0, moduli=m, N=N))
    from ehv.series import frenkel_turaev_rhs

    rhs = frenkel_turaev_rhs(t0, t1, t4, t5, N, m)
    assert abs(val - rhs) / abs(rhs) < mpmath.mpf(10) ** (-25)


def test_factorial_splitting_tight(extended):
    z = mpmath.mpc(0.7, 0.2)
    p, q = mpmath.mpc(0.25), mpmath.mpc(0.31, 0.02)
    lhs = theta_factorial(z, p, q, 5)
    rhs = theta_factorial(z, p, q, 2) * theta_factorial(z * q ** 2, p, q, 3)
    assert abs(lhs - rhs) / abs(lhs) < mpmath.mpf(10) ** (-30)


def test_std_restores_dps_of_entry():
    # entered twice, extended mode still leaves the dps of the outer entry
    with mpmath.workdps(20):
        with _backend.precision(_backend.EXTENDED):
            with _backend.precision(_backend.EXTENDED):
                assert mpmath.mp.dps == _backend.EXTENDED_DPS
            assert mpmath.mp.dps == _backend.EXTENDED_DPS
        assert mpmath.mp.dps == 20
    assert _backend.get_precision() == _backend.STD


def test_mode_restored_after_an_error():
    with pytest.raises(TruncationFailure):
        with _backend.precision(_backend.EXTENDED):
            with _backend.precision(_backend.STD):
                assert _backend.get_precision() == _backend.STD
                theta(0.4 + 0.1j, 0.993)
    assert _backend.get_precision() == _backend.STD
    with pytest.raises(ValueError, match="unknown precision mode"):
        with _backend.precision("quad"):
            pass


def test_std_mode_leaves_mpmath_unimported():
    # importing the command line and running a command in standard mode
    code = ("import sys, ehv.cli\n"
            "ehv.cli.main(['eval', 'theta', '--z', '0.5', '--p', '0.2'])\n"
            "print('mpmath' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert out.stdout.splitlines()[-1] == "False"
