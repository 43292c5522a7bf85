"""Theta-function identities, the elliptic determinant evaluation, and the
difference-equation / transformation checks for the constrained-product
multiple beta integral.

Residual conventions: each theta identity has one function that evaluates
its terms (riemann_terms, id1_terms, partial_fraction_parts, id3_parts),
and the *_residual and *_scale functions read that one evaluation, so a
check computes every theta product once for both.  Every *_residual
returns LHS - RHS exactly as displayed, with no normalization; callers
compare against the magnitude of the largest participating term (theta
products span many orders of magnitude, so absolute thresholds are
meaningless).  The *_scale functions give that magnitude.

The addition rule, id1 (with an_shift_coefficients) and id3 take stacked
draws: each argument carries the draws on its leading axes (none for one
draw), and a parameter list such as t its own entries on the last axis.
Their theta factors go through vec.theta_vec with one base per draw, and
their residuals and scales are arrays over the draws.  A guard raises the
DegenerateConfiguration or ValueError of the per-draw formula if any draw
trips it.  theta_vec has no exact-zero lattice test, so a guarded theta
counts as vanishing where its argument lies within _LATTICE (relative) of
a zero p^k, k in Z, not only where scalar theta meets p^k bit for bit.
The partial-fraction expansion (id2) takes one draw.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from ._backend import cpow
from .core import (DEGENERATE_EPS, Moduli, theta, theta_multi,
                   theta_factorial_multi)
from .errors import DegenerateConfiguration, DomainViolation, PoleHit
from .gamma import elliptic_gamma_multi
from .integrands import (an_trans_domain_check, closed_form_values,
                         make_an1_spec, make_an_trans_integrand,
                         make_integrand, validate_domain)
from .quadrature import integrate_factors
from .series import tree_sum
from .vec import theta_vec

_COLLISION = 1e-12

# A stacked guard's distance, relative to |z|, within which z counts as a
# zero p^k of theta(z; p): a few thousand ulps, so that an argument built
# as p**k rounds onto the lattice whatever the order of its operations.
_LATTICE = 1e-13


def _thetas(p, *blocks):
    """theta(z; p) of every block, in one theta_vec call.  p has the draw
    axes; each block has them and then axes of its own, which it keeps."""
    lead = np.shape(p)
    flat = [np.reshape(b, lead + (-1,)) for b in blocks]
    th = theta_vec(np.concatenate(flat, axis=-1),
                   np.reshape(p, lead + (1,)) if lead else p)
    cuts = np.cumsum([f.shape[-1] for f in flat])[:-1]
    return [v.reshape(np.shape(b))
            for v, b in zip(np.split(th, cuts, axis=-1), blocks)]


def _others(k: int) -> np.ndarray:
    """Row r lists the indices j != r of range(k)."""
    return np.array([[j for j in range(k) if j != r] for r in range(k)],
                    dtype=int).reshape(k, k - 1)


def _cross(t):
    """t_r/t_j for j != r, as (..., n+1, n) by the rows of _others."""
    return t[..., :, None] / t[..., _others(t.shape[-1])]


def _guard(what: str, p, z, th) -> None:
    """DegenerateConfiguration(what) if a theta(z; p) vanishes: if th, the
    thetas or their product, underflows, or if a z lies within _LATTICE
    (relative) of a zero p^k of theta, where scalar theta returns 0 and
    theta_vec a rounding error.  p has the draw axes of z."""
    p = np.reshape(p, np.shape(p) + (1,) * (np.ndim(z) - np.ndim(p)))
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.rint(np.log(np.asarray(np.abs(z), dtype=float))
                    / np.log(np.asarray(np.abs(p), dtype=float)))
    if (np.any(np.abs(th) < DEGENERATE_EPS)
            or np.any(np.abs(z - p ** k) <= _LATTICE * np.abs(z))):
        raise DegenerateConfiguration(what)


def riemann_terms(x, y, z, w, p):
    """The three products of the four-product addition rule

    theta(xw, x/w, yz, y/z; p) - theta(xz, x/z, yw, y/w; p)
        = (y/w) theta(xy, x/y, wz, w/z; p),

    each with its coefficient, on a last axis, in that order."""
    x, y, z, w = (np.asarray(v) for v in (x, y, z, w))
    [th] = _thetas(p, np.stack([x * w, x / w, y * z, y / z, x * z, x / z,
                                y * w, y / w, x * y, x / y, w * z, w / z],
                               axis=-1))
    terms = np.prod(th.reshape(th.shape[:-1] + (3, 4)), axis=-1)
    terms[..., 2] *= y / w
    return terms


def riemann_identity_residual(terms):
    """LHS - RHS of the addition rule from its riemann_terms."""
    first, second, rhs = np.moveaxis(terms, -1, 0)
    return (first - second) - rhs


def riemann_identity_scale(terms):
    return np.max(np.abs(terms), axis=-1)


def partial_fraction_parts(a, b, t, p):
    """(LHS, the n terms of the RHS) of the generalized partial-fraction
    expansion

    prod_k theta(t/b_k)/theta(t/a_k)
      = sum_r theta(t A/(a_r B)) / theta(t/a_r, A/B)
              * prod_j theta(a_r/b_j) / prod_{j!=r} theta(a_r/a_j),

    A = prod a, B = prod b; requires A != B and no a_r/a_j collision.
    """
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


def partial_fraction_residual(lhs, terms):
    """LHS - RHS of the expansion from its partial_fraction_parts."""
    return lhs - tree_sum(terms)


def partial_fraction_scale(lhs, terms) -> float:
    return max([abs(lhs)] + [abs(v) for v in terms])


def id1_terms(t, z, B, p):
    """The n+1 terms, on a last axis, of the constrained-variable expansion

    sum_{r} theta(B t_r)/theta(A) prod_{j != r} theta(A B t_j)/theta(t_r/t_j)
            prod_k theta(t_r / z_k) / theta(A B z_k)  =  1,

    with prod z_k = 1 and A = prod t.
    """
    t, z, B = np.asarray(t), np.asarray(z), np.asarray(B)
    if z.shape[-1] != t.shape[-1]:
        raise ValueError("need as many z entries as t entries")
    if np.any(np.abs(np.prod(z, axis=-1) - 1.0) > 1e-12):
        raise ValueError("constraint prod(z) = 1 violated")
    coeffs = an_shift_coefficients(t, B, p)
    AB = np.expand_dims(np.prod(t, axis=-1) * B, -1)
    th_tz, th_abz = _thetas(p, t[..., :, None] / z[..., None, :], AB * z)
    return coeffs * np.prod(th_tz / th_abz[..., None, :], axis=-1)


def id1_residual(terms):
    """(sum_r ...) - 1 of the expansion from its id1_terms."""
    return tree_sum(np.moveaxis(terms, -1, 0)) - 1.0


def id1_scale(terms):
    return np.maximum(1.0, np.max(np.abs(terms), axis=-1))


def id3_parts(t, f, p):
    """(LHS, the n+1 terms of the RHS on a last axis) of the
    parameter-product expansion

    prod_j theta(A B / f_j) / prod_j theta(A B t_j)
      = sum_r [prod_j theta(t_r f_j) / prod_{j != r} theta(t_r/t_j)]
              / theta(A B t_r),

    with A = prod t (n+1 entries) and B = prod f (n+2 entries).
    """
    t, f = np.asarray(t), np.asarray(f)
    if f.shape[-1] != t.shape[-1] + 1:
        raise ValueError("need one more f entry than t entries")
    AB = np.expand_dims(np.prod(t, axis=-1) * np.prod(f, axis=-1), -1)
    abt, tt = AB * t, _cross(t)
    th_abt, cross, th_abf, th_tf = _thetas(
        p, abt, tt, AB / f, t[..., :, None] * f[..., None, :])
    lhs_den = np.prod(th_abt, axis=-1)
    _guard("theta(A B t_j; p) = 0", p, abt, lhs_den)
    _guard("t_r/t_j collision", p, tt, cross)
    lhs = np.prod(th_abf, axis=-1) / lhs_den
    return lhs, (np.prod(th_tf, axis=-1)
                 / (th_abt * np.prod(cross, axis=-1)))


def id3_residual(lhs, terms):
    """LHS - RHS of the expansion from its id3_parts."""
    return lhs - tree_sum(np.moveaxis(terms, -1, 0))


def id3_scale(lhs, terms):
    return np.maximum(np.abs(lhs), np.max(np.abs(terms), axis=-1))


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

    with A = prod t and B = prod f (id1's expansion takes any B), on a
    last axis.
    """
    t, B = np.asarray(t), np.asarray(B)
    A = np.prod(t, axis=-1)
    tt = _cross(t)
    th_a, cross, th_abt, th_bt = _thetas(
        p, A, tt, np.expand_dims(A * B, -1) * t, B[..., None] * t)
    _guard("theta(A; p) = 0", p, A, th_a)
    _guard("t_r/t_j collision", p, tt, cross)
    return (th_bt / th_a[..., None]
            * np.prod(th_abt[..., _others(t.shape[-1])] / cross, axis=-1))


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
    specs = [make_an1_spec(t, f, m)] + [
        make_an1_spec(t[:r] + (m.q * t[r],) + t[r + 1:], f, m)
        for r in range(n + 1)]
    for spec in specs:
        result = validate_domain(spec)
        if not result.ok:
            raise DomainViolation(
                f"shifted parameter set leaves the domain: {result.failures()}"
            )
    if side is DiffSide.CLOSED_FORM:
        base, *values = closed_form_values(specs)
    else:
        base, *values = (integrate_factors(make_integrand(spec), cfg).value
                         for spec in specs)
    coeffs = an_shift_coefficients(t, specs[0].product_B, m.p)
    shifted = [c * v for c, v in zip(coeffs, values)]
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
