"""ehv: evaluation and numerical verification of theta hypergeometric
functions, elliptic beta integrals on root systems, and the associated
biorthogonal rational function families."""

__version__ = "0.1.0"

from .core import (
    Moduli,
    qpochhammer,
    theta,
    theta1,
    theta_factorial,
    theta_multi,
)
from .gamma import (
    QuasiPeriods,
    double_sine,
    elliptic_factorial_s,
    elliptic_gamma,
    elliptic_gamma_multi,
    modified_gamma_G,
)
from .series import VSpec, frenkel_turaev_rhs, sum_V
from .integrands import Family, IntegrandSpec, ParamSet, rhs_closed_form, validate_domain
from .quadrature import QuadratureConfig, QuadratureResult, torus_integral
from .biorthogonal import RahmanParams, R_n, T_n, biorth_integral, contour_check
from .report import VerificationReport

__all__ = [
    "Moduli",
    "qpochhammer",
    "theta",
    "theta1",
    "theta_factorial",
    "theta_multi",
    "QuasiPeriods",
    "double_sine",
    "elliptic_factorial_s",
    "elliptic_gamma",
    "elliptic_gamma_multi",
    "modified_gamma_G",
    "VSpec",
    "frenkel_turaev_rhs",
    "sum_V",
    "Family",
    "IntegrandSpec",
    "ParamSet",
    "rhs_closed_form",
    "validate_domain",
    "QuadratureConfig",
    "QuadratureResult",
    "torus_integral",
    "RahmanParams",
    "R_n",
    "T_n",
    "biorth_integral",
    "contour_check",
    "VerificationReport",
]
