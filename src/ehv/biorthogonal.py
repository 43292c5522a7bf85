"""Biorthogonal rational function families over the elliptic beta weight.

R_n(z) is the terminating 12-parameter very-well-poised series

    V(t3/t4; q/(t0 t4), q/(t1 t4), q/(t2 t4), t3 z, t3/z, q^-n, A q^(n-1)/t4)

with A = t0 t1 t2 t3 t4; T_n is its image under the involution
t4 -> pq/A.  The two-index variant R_nm multiplies in the partner series
with the two bases swapped.  R_n is rational in the gauge cross-ratio
gamma(z) = theta(z xi, z/xi; p)/theta(z eta, z/eta; p), obeys a three-term
recurrence in n whose gauge drops out, and is annihilated by the
theta-coefficient difference operator D_{q^n} (R_nm by both the q- and the
p-base operator at mu = q^n p^m).  The two families satisfy

    (1/2 pi i) int T_n R_m Delta_E dz/z = h_n N_E delta_nm

whenever the unit circle separates the integrand's pole sequences; the
admissibility gate is contour_check and no contour is ever deformed.
Every node table of a Gram integral, the family rows R_j/T_j and the
theta-factorial rows theta(w; p; q)_k, is built in one pass of its
recursion to the largest index or depth, the R and T rows of one base in
the same pass (they share their numerator theta tables); R_n and T_n
(through sum_V) stay the scalar oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._backend import cpow
from .core import (DEGENERATE_EPS, Moduli, theta, theta_factorial_multi,
                   theta_multi)
from .errors import InadmissibleContour, SingularStep
from .integrands import (Family, IntegrandSpec, ParamSet, _fold_weights,
                         make_integrand, rhs_closed_form, validate_domain)
from .quadrature import QuadratureConfig, integrate_mesh_fn
from .report import VerificationReport
from .series import VSpec, sum_V
from .vec import theta_vec

_MARGIN = 1e-6


@dataclass(frozen=True)
class RahmanParams:
    """Five weight parameters t_0..t_4 with |t_r| < 1 and |pq| < |A|."""

    t: tuple
    moduli: Moduli

    def __post_init__(self):
        object.__setattr__(self, "t", tuple(self.t))
        vd = validate_domain(self.weight_spec())
        if not vd.ok:
            raise ValueError(f"weight domain violated: {vd.failures()}")

    @property
    def A(self):
        t0, t1, t2, t3, t4 = self.t
        return t0 * t1 * t2 * t3 * t4

    def weight_spec(self) -> IntegrandSpec:
        return IntegrandSpec(Family.E, 1, ParamSet(t=self.t), self.moduli)

    def beta_value(self):
        """Closed form of the weight's total integral."""
        return rhs_closed_form(self.weight_spec())


@dataclass(frozen=True)
class OperatorGauge:
    """The auxiliary gauge pair (xi, eta) of the three-term recurrence."""

    xi: complex = 1.3
    eta: complex = 0.7 + 0.1j

    def validate(self, rp: RahmanParams) -> None:
        p = rp.moduli.p
        q = rp.moduli.q
        for k in range(-3, 4):
            pk = cpow(p, k) if k >= 0 else 1.0 / cpow(p, -k)
            if abs(self.xi - self.eta * pk) < 1e-10:
                raise ValueError("gauge collision xi = eta p^k")
            if abs(self.xi - q * rp.t[4] * pk / (rp.A * self.eta)) < 1e-10:
                raise ValueError("gauge collision xi = q t4 p^k / (A eta)")


def gauge_ratio(z, xi, eta, p):
    """gamma(z) = theta(z xi, z/xi; p) / theta(z eta, z/eta; p)."""
    return theta_multi([z * xi, z / xi], p) / theta_multi([z * eta, z / eta], p)


# -- the function families ------------------------------------------------------


def _rn_params(n, t, q, kind: str):
    """(head, the z-free parameters) of R_n (kind "R") or of T_n ("T")."""
    t0, t1, t2, t3, t4 = t
    A = t0 * t1 * t2 * t3 * t4
    if kind == "R":
        head, tail = t3 / t4, (q / (t0 * t4), q / (t1 * t4), q / (t2 * t4))
    else:
        head, tail = A * t3 / q, (A / t0, A / t1, A / t2)
    return head, tail + (cpow(q, -n), A * cpow(q, n - 1) / t4)


def _rn_vspec(z, n, t, q, p, kind: str) -> VSpec:
    head, pars = _rn_params(n, t, q, kind)
    return VSpec(t0=head, t=pars[:3] + (t[3] * z, t[3] / z) + pars[3:],
                 x=1.0, moduli=Moduli(q=q, p=p), N=n)


def R_n(z, n: int, rp: RahmanParams):
    """n-th member of the first biorthogonal family."""
    return sum_V(_rn_vspec(z, n, rp.t, rp.moduli.q, rp.moduli.p, "R"))


def T_n(z, n: int, rp: RahmanParams):
    """n-th member of the dual family (t4 -> pq/A image of R_n)."""
    return sum_V(_rn_vspec(z, n, rp.t, rp.moduli.q, rp.moduli.p, "T"))


def R_nm(z, n: int, m: int, rp: RahmanParams):
    """Two-index family: q-base series times p-base series."""
    q, p = rp.moduli.q, rp.moduli.p
    return (sum_V(_rn_vspec(z, n, rp.t, q, p, "R"))
            * sum_V(_rn_vspec(z, m, rp.t, p, q, "R")))


def _family_rows(z, indices, rp: RahmanParams, kind, base: str = "q"):
    """Node table (len(indices), N) of the family members with these
    indices, of kind "R" or "T" (one kind, or one per index), in one pass
    of the series recursion to the largest index: the z-dependent theta
    tables of term s are built once, the numerator pair theta(t3 z^{+-1}
    q^s; p) for both kinds, and every member with index j > s advances its
    own running term and sum with them."""
    q, p = _bases(rp, base)
    z = np.asarray(z, dtype=complex)
    t3 = rp.t[3]
    rows = list(zip(indices, [kind] * len(indices) if isinstance(kind, str)
                    else kind))
    heads = {k: _rn_params(0, rp.t, q, k)[0] for _, k in rows}
    th0 = {k: theta(head, p) for k, head in heads.items()}
    scal = {(j, k): _rn_params(j, rp.t, q, k)[1] for j, k in rows}
    fac = {row: np.ones_like(z) for row in scal}
    tot = {row: np.ones_like(z) for row in scal}
    for s in range(max(indices)):
        qs = cpow(q, s)
        numv = theta_vec(t3 * z * qs, p) * theta_vec(t3 / z * qs, p)
        den0 = theta(cpow(q, s + 1), p)
        for k, head in heads.items():
            live = [(j, kk) for j, kk in scal if kk == k and j > s]
            if not live:
                continue
            denv = (theta_vec(q * head / (t3 * z) * qs, p)
                    * theta_vec(q * head * z / t3 * qs, p))
            ratio = numv / denv
            top = theta(head * cpow(q, 2 * s + 2), p) / th0[k]
            num0 = theta(head * qs, p)
            for row in live:
                num, den = num0, den0
                for v in scal[row]:
                    num *= theta(v * qs, p)
                    den *= theta(q * head / v * qs, p)
                fac[row] = fac[row] * (num / den) * ratio
                tot[row] = tot[row] + top * fac[row] * cpow(q, s + 1)
    return np.stack([tot[row] for row in rows])


# -- difference operator ---------------------------------------------------------


def _bases(rp: RahmanParams, base: str):
    if base == "q":
        return rp.moduli.q, rp.moduli.p
    if base == "p":
        return rp.moduli.p, rp.moduli.q
    raise ValueError("base must be 'q' or 'p'")


def V_coeff(z, mu, rp: RahmanParams, base: str = "q"):
    """Shift coefficient of the difference operator."""
    q, p = _bases(rp, base)
    t4 = rp.t[4]
    A = rp.A
    num = theta_multi([t4 / (q * mu * z), A * mu / (q * q * z), t4 * z / q], p)
    for tr in rp.t:
        num *= theta(tr * z, p)
    return num / theta_multi([z * z, q * z * z], p)


def kappa_coeff(mu, rp: RahmanParams, base: str = "q"):
    q, p = _bases(rp, base)
    t4 = rp.t[4]
    val = theta_multi([rp.A * mu / (q * t4), 1.0 / mu], p)
    for tr in rp.t[:4]:
        val *= theta(tr * t4 / q, p)
    return val


def apply_D(f, z, mu, rp: RahmanParams, base: str = "q"):
    """D_mu f at z: V(z)(f(qz)-f(z)) + V(1/z)(f(z/q)-f(z)) + kappa f(z)."""
    q, _ = _bases(rp, base)
    fz = f(z)
    return (V_coeff(z, mu, rp, base) * (f(q * z) - fz)
            + V_coeff(1.0 / z, mu, rp, base) * (f(z / q) - fz)
            + kappa_coeff(mu, rp, base) * fz)


def eigen_residual(f, z, mu, rp: RahmanParams, base: str = "q") -> float:
    """|D_mu f(z)| over the size of its terms, max(|V(z)|, |V(1/z)|,
    |kappa|) max(1, |f(z)|); 0 where D_mu annihilates f."""
    scale = max(abs(V_coeff(z, mu, rp, base)),
                abs(V_coeff(1 / z, mu, rp, base)),
                abs(kappa_coeff(mu, rp, base))) * max(1.0, abs(f(z)))
    return abs(apply_D(f, z, mu, rp, base)) / scale


def recurrence_next(R_prev, R_curr, n: int, z, rp: RahmanParams,
                    gauge: OperatorGauge | None = None):
    """Solve the three-term recurrence for the (n+1)-th family member.

    The auxiliary gauge pair cancels identically from the result; any
    valid gauge gives the same value.
    """
    if gauge is None:
        gauge = OperatorGauge()
    q, p = rp.moduli.q, rp.moduli.p
    t0, t1, t2, t3, t4 = rp.t
    A = rp.A
    xi, eta = gauge.xi, gauge.eta

    def gam(w):
        return gauge_ratio(w, xi, eta, p)

    def B(x):
        num = theta_multi(
            [x, t3 / (t4 * x), q * t3 / (t4 * x), q * x / (t0 * t1),
             q * x / (t0 * t2), q * x / (t1 * t2), q * q * eta * x / A,
             q * q * x / (A * eta)], p)
        den = theta_multi([q * t4 * x * x / A, q * q * t4 * x * x / A], p)
        return num / den

    delta = theta_multi(
        [q * q * t3 / A, q / (t0 * t4), q / (t1 * t4), q / (t2 * t4),
         t3 * eta, t3 / eta], p)
    gz = gam(z)
    alpha_next = gam(cpow(q, n + 1) / t4)      # alpha_k = gamma(q^k / t4)
    beta_prev = gam(cpow(q, n - 2) * A)        # beta_k  = gamma(q^(k-1) A)
    lead = (gz - alpha_next) * B(A * cpow(q, n - 1) / t4)
    if abs(lead) < DEGENERATE_EPS:
        raise SingularStep("leading recurrence coefficient vanishes")
    rest = ((gz - beta_prev) * B(cpow(q, -n)) * (R_prev - R_curr)
            + delta * (gz - gam(t3)) * R_curr)
    return R_curr - rest / lead


# -- contours and biorthogonality -------------------------------------------------


@dataclass(frozen=True)
class ContourCheck:
    admissible: bool
    worst_pole: complex
    worst_margin: float


def _require_admissible(chk: ContourCheck, what: str) -> None:
    if not chk.admissible:
        raise InadmissibleContour(
            f"inadmissible contour for {what}: worst pole {chk.worst_pole:.6g} "
            f"(margin {chk.worst_margin:.3e})"
        )


def contour_check(m: int, n: int, k: int, l: int, rp: RahmanParams) -> ContourCheck:
    """Is the unit circle itself a valid separating contour?

    Admissible iff every extremal interior-pole candidate -- t_0..t_3,
    t_4 q^-m p^-k and A^-1 q^(1-n) p^(1-l) -- has modulus <= 1 - 1e-6.
    """
    q, p = rp.moduli.q, rp.moduli.p
    worst = max(list(rp.t[:4]) + [rp.t[4] * cpow(q, -m) * cpow(p, -k),
                                  cpow(q, 1 - n) * cpow(p, 1 - l) / rp.A],
                key=abs)
    margin = 1.0 - abs(worst)
    return ContourCheck(admissible=margin >= _MARGIN, worst_pole=worst,
                        worst_margin=margin)


def norm_h(n: int, rp: RahmanParams, base: str = "q"):
    """Normalization constant of the n-th diagonal scalar product."""
    q, p = _bases(rp, base)
    t0, t1, t2, t3, t4 = rp.t
    A = rp.A
    head = theta(A / (q * t4), p) / theta(A * cpow(q, 2 * n - 1) / t4, p)
    num = theta_factorial_multi(
        [q, q * t3 / t4, t0 * t1, t0 * t2, t1 * t2, A * t3], p, q, n)
    den = theta_factorial_multi(
        [1.0 / (t3 * t4), t0 * t3, t1 * t3, t2 * t3, A / (q * t3), A / (q * t4)],
        p, q, n)
    return head * num / den * cpow(q, -n)


def _gram(rp: RahmanParams, tables, cfg: QuadratureConfig | None):
    """One driver call over the beta weight times per-cell node tables.

    tables(z) -> (factors, divisors), lists of (cells, M) tables on the
    nodes z: cell c integrates the weight times row c of every factor, then
    divided by row c of every divisor, in list order.  At an even N only
    the nodes k in [0, N/2] are built, times the weight's folded mesh.  No
    factor multiset proves this fold: it holds because every table that
    _family_rows and _shift_tables build is a product over c z^{+-1} pairs,
    invariant under z -> 1/z, and the E weight is sign_symmetric.
    """
    weight = make_integrand(rp.weight_spec())

    def mesh(N):
        folded = weight.folded(N)
        z1d = np.exp(2j * np.pi * np.arange(N // 2 + 1 if folded else N) / N)
        # Named tables: numpy would multiply into a large temporary in
        # place, which rounds differently from a product into a new array.
        factors, divisors = tables(z1d)
        vals = weight.mesh_eval(N, _fold_weights(N) if folded else None)
        for tab in factors:
            vals = vals * tab
        for tab in divisors:
            vals = vals / tab
        return vals.T

    return integrate_mesh_fn(mesh, 1, cfg)


def biorth_value(cells, rp: RahmanParams, cfg: QuadratureConfig | None = None):
    """Scalar products of T_[n,l] and R_[m,k] over cells (n, m, k, l): one
    Gram matrix on the beta weight, one driver call.  Returns (integrals,
    expected, scales, result): expected h N_E on the diagonal, else 0;
    scale |min_{j <= max(n,m)} h_j N_E|.  InadmissibleContour if the unit
    circle fails for any cell."""
    for n, m, k, l in cells:
        _require_admissible(contour_check(m, n, k, l, rp),
                            f"indices (n={n},m={m},k={k},l={l})")
    ns, ms, ks, ls = (list(idx) for idx in zip(*cells))

    def rows(z, base, r_idx, t_idx):
        """The R rows of r_idx and the T rows of t_idx, in one pass."""
        tab = _family_rows(z, r_idx + t_idx, rp,
                           ["R"] * len(r_idx) + ["T"] * len(t_idx), base)
        return [tab[:len(r_idx)], tab[len(r_idx):]]

    res = _gram(rp, lambda z: (rows(z, "q", ms, ns) + rows(z, "p", ks, ls),
                               []), cfg)
    beta = rp.beta_value()
    h_q = [norm_h(j, rp) for j in range(max(ns + ms) + 1)]
    expected = [(h_q[n] * norm_h(k, rp, "p") if k else h_q[n]) * beta
                if (n, k) == (m, l) else 0j for n, m, k, l in cells]
    scales = [abs(min(abs(h) for h in h_q[:max(n, m) + 1]) * beta)
              for n, m, _, _ in cells]
    return [complex(v) for v in res.value], expected, scales, res


def biorth_integral(cells, rp: RahmanParams,
                    cfg: QuadratureConfig | None = None, tol: float = 1e-8):
    """Verification rows of the scalar-product cells (n, m, k, l), in order.

    Off-diagonal cells compare |integral| against tol * |h_min N_E| (the
    natural scale of the diagonal), diagonal cells relatively against
    h_n N_E.
    """
    values, expected, scales, res = biorth_value(cells, rp, cfg)
    for (n, m, k, l), value, exp, scale in zip(cells, values, expected, scales):
        name = f"biorth[n={n},m={m}" + (f",k={k},l={l}]" if (k or l) else "]")
        lhs, rhs = (value / scale, 0.0) if exp == 0 else (value, exp)
        yield VerificationReport.from_sides(
            name, lhs, rhs, tol, nodes=res.nodes_used,
            params={"t": list(rp.t), "q": rp.moduli.q, "p": rp.moduli.p,
                    "n": n, "m": m, "k": k, "l": l})


# -- integral representation and shifted-weight identities -------------------------


def _factorial_rows(w, p, q, depths):
    """Table (len(depths), N) of theta(w; p; q)_k, one row per depth k: the
    prefixes of one running product to the largest depth."""
    w = np.asarray(w, dtype=complex)
    rows = [np.ones_like(w)]
    for _ in range(max(depths)):
        rows.append(rows[-1] * theta_vec(w, p))
        w = w * q
    return np.stack([rows[k] for k in depths])


def _shift_tables(a, b, cells, rp: RahmanParams):
    """Node tables, for _gram, of the per-cell (i, j) shift

        theta(a z^+-1; p; q)_i theta(b z^+-1; q; p)_j
            / [theta(A z^+-1; p; q)_i theta(A z^+-1; q; p)_j].
    """
    q, p = rp.moduli.q, rp.moduli.p
    i_q, j_p = (list(depths) for depths in zip(*cells))

    def tables(z):
        def pair(c, nome, base, depths):
            return [_factorial_rows(c * z, nome, base, depths),
                    _factorial_rows(c / z, nome, base, depths)]

        return (pair(a, p, q, i_q) + pair(b, q, p, j_p),
                pair(rp.A, p, q, i_q) + pair(rp.A, q, p, j_p))

    return tables


def twelveV_integral_rep_sides(alpha, beta, depths, rp: RahmanParams,
                               cfg: QuadratureConfig | None = None):
    """Per-depth (product of the two terminating series, prefactor *
    quadrature) lists and the one QuadratureResult.

    The representation couples a q-base series of depth m and a p-base
    series of depth n to one contour integral against the beta weight; the
    depths (m, n) are the cells of one Gram integral.
    """
    q, p = rp.moduli.q, rp.moduli.p
    t = rp.t
    A = rp.A
    t0 = t[0]
    for m, n in depths:
        _require_admissible(contour_check(0, m, 0, n, rp), f"depths ({m},{n})")
    res = _gram(rp, _shift_tables(A / alpha, A / beta, depths, rp), cfg)
    norm = rp.beta_value()
    lhs, rhs = [], []
    for (m, n), value in zip(depths, res.value):
        v_q, v_p = (sum_V(VSpec(
            t0=A * t0 / mod.q,
            t=(x, t0 * t[1], t0 * t[2], t0 * t[3], t0 * t[4],
               cpow(mod.q, -d), A * A * cpow(mod.q, d - 1) / x),
            x=1.0, moduli=mod, N=d))
            for mod, d, x in ((rp.moduli, m, alpha),
                              (rp.moduli.swapped(), n, beta)))
        pref = (theta_factorial_multi([A * t0, A / t0], p, q, m)
                * theta_factorial_multi([A * t0, A / t0], q, p, n)
                / theta_factorial_multi([A / (alpha * t0), A * t0 / alpha], p, q, m)
                / theta_factorial_multi([A / (beta * t0), A * t0 / beta], q, p, n))
        lhs.append(v_q * v_p)
        rhs.append(pref * complex(value) / norm)
    return lhs, rhs, res


def shifted_beta_sides(shifts, rp: RahmanParams,
                       cfg: QuadratureConfig | None = None):
    """Per-shift (quadrature with factorial ratios, (t0/A)^(2ij)
    N_E(t0 q^i p^j, t_1..t_4)) lists and the one QuadratureResult; the
    shifts (i, j) are the cells of one Gram integral."""
    q, p = rp.moduli.q, rp.moduli.p
    t = rp.t
    t0 = t[0]
    for i, j in shifts:
        _require_admissible(contour_check(0, i, 0, j, rp), f"shifts ({i},{j})")
    res = _gram(rp, _shift_tables(t0, t0, shifts, rp), cfg)
    rhs = []
    for i, j in shifts:
        shifted_spec = IntegrandSpec(
            Family.E, 1, ParamSet(t=(t0 * cpow(q, i) * cpow(p, j),) + t[1:]),
            rp.moduli)
        rhs.append(cpow(t0 / rp.A, 2 * i * j) * rhs_closed_form(shifted_spec))
    return [complex(v) for v in res.value], rhs, res
