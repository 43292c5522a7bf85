"""Theta-function identities, the elliptic determinant evaluation, and the
difference-equation / transformation checks for the constrained-product
multiple beta integral.

Residual conventions: every *_residual operation returns LHS - RHS exactly
as displayed, with no normalization; callers compare against the magnitude
of the largest participating term (theta products span many orders of
magnitude, so absolute thresholds are meaningless).  The *_relative helpers
do that normalization.
"""

from __future__ import annotations

import math
from enum import Enum

from ._backend import cpow
from .core import (DEGENERATE_EPS, Moduli, theta, theta_multi,
                   theta_factorial_multi)
from .errors import DegenerateConfiguration, DomainViolation, PoleHit
from .gamma import elliptic_gamma_multi
from .integrands import (an_trans_domain_check, make_an1_spec,
                         make_an_trans_integrand, rhs_closed_form,
                         validate_domain)
from .quadrature import integrate_factors, integrate_spec
from .series import tree_sum

_COLLISION = 1e-12


def _riemann_terms(x, y, z, w, p):
    """The three products of the addition rule, each with its coefficient."""
    return (theta_multi([x * w, x / w, y * z, y / z], p),
            theta_multi([x * z, x / z, y * w, y / w], p),
            y / w * theta_multi([x * y, x / y, w * z, w / z], p))


def riemann_identity_residual(x, y, z, w, p):
    """LHS - RHS of the four-product addition rule

    theta(xw, x/w, yz, y/z; p) - theta(xz, x/z, yw, y/w; p)
        = (y/w) theta(xy, x/y, wz, w/z; p).
    """
    first, second, rhs = _riemann_terms(x, y, z, w, p)
    return (first - second) - rhs


def riemann_identity_scale(x, y, z, w, p) -> float:
    return max(abs(v) for v in _riemann_terms(x, y, z, w, p))


def _partial_fraction_parts(a, b, t, p):
    a = tuple(a)
    b = tuple(b)
    n = len(a)
    if len(b) != n:
        raise ValueError("a and b must have equal length")
    prod_a = 1.0 + 0.0j
    for v in a:
        prod_a *= v
    prod_b = 1.0 + 0.0j
    for v in b:
        prod_b *= v
    if abs(prod_a - prod_b) <= _COLLISION * abs(prod_a):
        raise DegenerateConfiguration("prod(a) == prod(b) is excluded")
    for r in range(n):
        for j in range(n):
            if j != r and abs(theta(a[r] / a[j], p)) < DEGENERATE_EPS:
                raise DegenerateConfiguration(
                    f"pole collision theta(a_{r}/a_{j}; p) = 0"
                )
    lhs = 1.0 + 0.0j
    for k in range(n):
        lhs *= theta(t / b[k], p) / theta(t / a[k], p)
    terms = []
    for r in range(n):
        num = theta(t * prod_a / (a[r] * prod_b), p)
        den = theta_multi([t / a[r], prod_a / prod_b], p)
        for j in range(n):
            num *= theta(a[r] / b[j], p)
        for j in range(n):
            if j != r:
                den *= theta(a[r] / a[j], p)
        terms.append(num / den)
    return lhs, terms


def partial_fraction_residual(a, b, t, p):
    """LHS - RHS of the generalized partial-fraction expansion

    prod_k theta(t/b_k)/theta(t/a_k)
      = sum_r theta(t A/(a_r B)) / theta(t/a_r, A/B)
              * prod_j theta(a_r/b_j) / prod_{j!=r} theta(a_r/a_j),

    A = prod a, B = prod b; requires A != B and no a_r/a_j collision.
    """
    lhs, terms = _partial_fraction_parts(a, b, t, p)
    return lhs - tree_sum(terms)


def partial_fraction_scale(a, b, t, p) -> float:
    lhs, terms = _partial_fraction_parts(a, b, t, p)
    return max([abs(lhs)] + [abs(v) for v in terms])


def _id1_terms(t, z, B, p):
    t = tuple(t)
    z = tuple(z)
    if len(z) != len(t):
        raise ValueError("need as many z entries as t entries")
    prod_z = 1.0 + 0.0j
    for v in z:
        prod_z *= v
    if abs(prod_z - 1.0) > 1e-12:
        raise ValueError("constraint prod(z) = 1 violated")
    A = 1.0 + 0.0j
    for v in t:
        A *= v
    terms = []
    for r, val in enumerate(an_shift_coefficients(t, B, p)):
        for zk in z:
            val *= theta(t[r] / zk, p) / theta(A * B * zk, p)
        terms.append(val)
    return terms


def id1_residual(t, z, B, p):
    """(sum_r ...) - 1 for the constrained-variable expansion

    sum_{r} theta(B t_r)/theta(A) prod_{j != r} theta(A B t_j)/theta(t_r/t_j)
            prod_k theta(t_r / z_k) / theta(A B z_k)  =  1,

    with prod z_k = 1 and A = prod t.
    """
    return tree_sum(_id1_terms(t, z, B, p)) - 1.0


def id1_scale(t, z, B, p) -> float:
    return max([1.0] + [abs(v) for v in _id1_terms(t, z, B, p)])


def _id3_parts(t, f, p):
    t = tuple(t)
    f = tuple(f)
    if len(f) != len(t) + 1:
        raise ValueError("need one more f entry than t entries")
    A = 1.0 + 0.0j
    for v in t:
        A *= v
    B = 1.0 + 0.0j
    for v in f:
        B *= v
    AB = A * B
    lhs_num = theta_multi([AB / fj for fj in f], p)
    lhs_den = theta_multi([AB * tj for tj in t], p)
    if abs(lhs_den) < DEGENERATE_EPS:
        raise DegenerateConfiguration("theta(A B t_j; p) = 0")
    terms = []
    for r in range(len(t)):
        num = theta_multi([t[r] * fj for fj in f], p)
        den = theta(AB * t[r], p)
        for j in range(len(t)):
            if j != r:
                d = theta(t[r] / t[j], p)
                if abs(d) < DEGENERATE_EPS:
                    raise DegenerateConfiguration("t_r/t_j collision")
                den *= d
        terms.append(num / den)
    return lhs_num / lhs_den, terms


def id3_residual(t, f, p):
    """LHS - RHS of the parameter-product expansion

    prod_j theta(A B / f_j) / prod_j theta(A B t_j)
      = sum_r [prod_j theta(t_r f_j) / prod_{j != r} theta(t_r/t_j)]
              / theta(A B t_r),

    with A = prod t (n+1 entries) and B = prod f (n+2 entries).
    """
    lhs, terms = _id3_parts(t, f, p)
    return lhs - tree_sum(terms)


def id3_scale(t, f, p) -> float:
    lhs, terms = _id3_parts(t, f, p)
    return max([abs(lhs)] + [abs(v) for v in terms])


def _det(mat):
    """Partial-pivot elimination determinant, precision-agnostic (n <= 6)."""
    a = [row[:] for row in mat]
    n = len(a)
    det = 1.0 + 0.0j
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[piv][col]) == 0:
            return 0.0 + 0.0j
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1.0 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return det


def _kratt_matrix(a, b, c, X, m: Moduli):
    """The n x n matrix of krattenthaler_det_sides, rows i, columns j."""
    n = len(X)
    p, q = m.p, m.q
    mat = []
    for i in range(n):
        row = []
        for j in range(1, n + 1):
            num = theta_factorial_multi([a * X[i], a * c / X[i]], p, q, n - j)
            den = theta_factorial_multi([b * X[i], b * c / X[i]], p, q, n - j)
            if den == 0:
                raise PoleHit(f"denominator factorial vanishes at entry ({i},{j})")
            row.append(num / den)
        mat.append(row)
    return mat


def krattenthaler_condition(a, b, c, X, m: Moduli) -> float:
    """Cancellation measure max|entry|^n / |det| of the determinant."""
    mat = _kratt_matrix(a, b, c, X, m)
    det = _det(mat)
    if det == 0:
        return math.inf
    biggest = 0.0
    for row in mat:
        for entry in row:
            biggest = max(biggest, abs(entry))
    return biggest ** len(mat) / abs(det)


def krattenthaler_det_sides(a, b, c, X, m: Moduli):
    """(numeric determinant, closed-form product) of the theta-factorial
    determinant evaluation

        det[ theta(a X_i, a c/X_i; p; q)_{n-j} / theta(b X_i, b c/X_i; p; q)_{n-j} ]
          = a^C(n,2) q^C(n,3) prod_{i<j} X_j theta(X_i/X_j, c/(X_i X_j); p)
            prod_i theta(b/a, a b c q^{2n-2i}; p; q)_{i-1}
                   / theta(b X_i, b c/X_i; p; q)_{n-1}.
    """
    X = tuple(X)
    n = len(X)
    p, q = m.p, m.q
    lhs = _det(_kratt_matrix(a, b, c, X, m))

    rhs = cpow(a, n * (n - 1) // 2) * cpow(q, n * (n - 1) * (n - 2) // 6)
    for i in range(n):
        for j in range(i + 1, n):
            rhs *= X[j] * theta_multi([X[i] / X[j], c / (X[i] * X[j])], p)
    for i in range(1, n + 1):
        num = theta_factorial_multi([b / a, a * b * c * cpow(q, 2 * n - 2 * i)],
                                    p, q, i - 1)
        den = theta_factorial_multi([b * X[i - 1], b * c / X[i - 1]], p, q, n - 1)
        if den == 0:
            raise PoleHit("closed-form denominator factorial vanishes")
        rhs *= num / den
    return (lhs, rhs)


class DiffSide(Enum):
    INTEGRAL = "integral"
    CLOSED_FORM = "closed_form"


def an_shift_coefficients(t, B, p):
    """The n+1 coefficients c_r multiplying the t_r -> q t_r shifts,

        c_r = theta(B t_r)/theta(A) prod_{j != r} theta(A B t_j)/theta(t_r/t_j),

    with A = prod t and B = prod f (id1's expansion takes any B).
    """
    t = tuple(t)
    A = 1.0 + 0.0j
    for v in t:
        A *= v
    thA = theta(A, p)
    if abs(thA) < DEGENERATE_EPS:
        raise DegenerateConfiguration("theta(A; p) = 0")
    coeffs = []
    for r in range(len(t)):
        val = theta(B * t[r], p) / thA
        for j in range(len(t)):
            if j != r:
                d = theta(t[r] / t[j], p)
                if abs(d) < DEGENERATE_EPS:
                    raise DegenerateConfiguration("t_r/t_j collision")
                val *= theta(A * B * t[j], p) / d
        coeffs.append(val)
    return coeffs


def an_difference_residual(t, f, m: Moduli, side: DiffSide = DiffSide.CLOSED_FORM,
                           cfg=None):
    """Residual sum_r c_r I(..., q t_r, ...) - I(t, f) of the shift
    equation satisfied by both sides of the constrained-product integral.

    side selects whether I is the closed form (any n) or the torus
    quadrature (n <= 2).  Returns the residual normalized by the largest
    participating term (theta coefficients can dwarf the value itself).
    """
    t = tuple(t)
    f = tuple(f)
    n = len(t) - 1

    def value(tt):
        spec = make_an1_spec(tt, f, m)
        result = validate_domain(spec)
        if not result.ok:
            raise DomainViolation(
                f"shifted parameter set leaves the domain: {result.failures()}"
            )
        if side is DiffSide.CLOSED_FORM:
            return rhs_closed_form(spec)
        return integrate_spec(spec, cfg).value

    base = value(t)
    coeffs = an_shift_coefficients(t, make_an1_spec(t, f, m).product_B, m.p)
    shifted = []
    for r in range(n + 1):
        tt = list(t)
        tt[r] = m.q * tt[r]
        shifted.append(coeffs[r] * value(tuple(tt)))
    scale = max([abs(base)] + [abs(v) for v in shifted])
    return (tree_sum(shifted) - base) / scale


def an_transformation_sides(tglob, f, s, m: Moduli, cfg=None):
    """Both sides of the parameter-swap symmetry of the constrained-product
    integral (n = len(f) - 2).  Each side is prefactor * quadrature."""
    f = tuple(f)
    s = tuple(s)
    if len(f) != len(s):
        raise ValueError("f and s must have equal length")
    n = len(f) - 2
    chk = an_trans_domain_check(tglob, f, s, m)
    if not chk.ok:
        raise DomainViolation(f"transformation domain violated: {chk.failures()}")

    B = 1.0 + 0.0j
    for v in f:
        B *= v
    S = 1.0 + 0.0j
    for v in s:
        S *= v
    tn1 = cpow(tglob, n + 1)

    def side(first, second, firstprod, secondprod):
        pref = 1.0 + 0.0j
        for v in first:
            pref *= (elliptic_gamma_multi([firstprod / v], m)
                     / elliptic_gamma_multi([tn1 * firstprod / v], m))
        mesh = make_an_trans_integrand(tglob, first, second, firstprod,
                                       secondprod, m)
        res = integrate_factors(mesh, cfg)
        return pref * res.value, res

    lhs, res_l = side(f, s, B, S)
    rhs, res_r = side(s, f, S, B)
    return lhs, rhs, res_l, res_r
