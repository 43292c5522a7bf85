"""Integrand builders for every beta-integral family, their closed-form
right-hand sides, and parameter-domain validation.

Families (n is the torus dimension actually integrated over):

    E         single-variable weight with 5 parameters t_0..t_4; it is C_1
              of type I, and its integrand and closed form are CN_I's at n = 1
    CN_I      2n+3 parameters, hyperoctahedral symmetry, cross terms 1/Gamma
    CN_II     5 parameters + coupling t, Gamma-ratio cross terms
    CN_III    per-axis x_i, three t_k, coupling t; theta prefactor, q/p asymmetric
    AN_I      n+1 t's and n+2 f's on the constrained torus z_1...z_{n+1} = 1
    AN_II     coupling pair (t, s) + 5 parameters, constrained torus
    AN_III    coupling t + n+4 parameters, constrained torus

All integrands are returned "bare": the 1/(2 pi i)^n prefactors and the
dz/z measure live in the quadrature module, which evaluates the plain
grid average of these values.

Every family is described once as a list of atomic factors g(c * z^e) with g
in {Gamma, 1/Gamma, theta, identity} and e an integer exponent vector over
the free variables (the constrained variable z_{n+1} of the AN families
contributes (-1, ..., -1)).  Two emitters write every integrand: _cn (per
axis Gamma(c z_j^{+-1}), 1/Gamma(z_j^{+-2}) and 1/Gamma(A z_j^{+-1}), then
the factors of each pair in z_j^{+-1} z_k^{+-1}) and _an (per-variable
factors of the n+1 constrained variables, the factors of each pair in
z_i^{+-1} z_j^{+-1}, then 1/Gamma(z_i/z_j) for i != j); a family or the
an_transform integrand only names its constants.  A third, _closed, writes
each family's closed form as a factor list on zero torus variables: a
constant, Gamma, 1/Gamma and theta atoms with empty exponent vectors.  In
float64 a closed form is the product of its tables at N = 1, one gamma_vec
call for all its Gamma constants (closed_form_values stacks several closed
forms into that one call); in extended mode it takes the scalar path.

The scalar path evaluates atoms directly.  The node sums of the quadrature
evaluate the tables on the N roots of unity (one stacked gamma_vec call for
every distinct Gamma and 1/Gamma constant, one theta table per distinct
constant), multiply the tables of equal exponent vectors, and combine them
on one of three paths, which FactorIntegrand.path selects from the exponent
vectors alone.  A table is read on the grid as tab[(e . k) mod N] through a
read-only strided view of the table tiled sum |e_i| + 1 times (_grid_view),
with no index array:

    mesh      n <= 2 with no S_{n+1} symmetry, and any list with no
              structure below: the N^n grid (mesh_eval), the outer product
              of one vector per axis (the constant and the single-axis tables
              folded in) times the views of the multi-axis tables.  At
              n <= 2 the pair matrix of the contraction is the grid itself,
              and the contraction was no faster there.
    pairwise  n >= 3 with at most two nonzero entries in every exponent
              vector (C_n): sum_k prod_i g_i(k_i) prod_{i<j} H_ij(k_i, k_j)
              as one np.einsum over the pair matrices, its intermediates
              capped at M^(n-1) (M below); M^n work in BLAS, no M^n array.
    orbit     n >= 2 with the factor multiset proven invariant under
              S_{n+1} acting on (k_1, ..., k_n, -sum k) (A_n): the sum over
              the sorted (n+1)-tuples with sum = 0 mod N, each weighted by
              its orbit size (n+1)!/prod mult!, enumerated directly as runs
              of k_{n-1} under sorted prefixes k_0..k_{n-2}; about
              N^n/(n+1)! points.  The factors fixed along a run and the
              prefix's part of the orbit size are taken once per prefix.

The fold: where negating any one coordinate of every exponent vector maps
the multiset of (kind, c, exponent vector) to itself (sign_symmetric), the
integrand is invariant under z_j -> 1/z_j for each j, so the nodes k and
N - k of every axis carry one value.  At an even N the mesh and the
pairwise sum then run over k_j in [0, N/2] only, M = N/2 + 1 entries per
axis cut from the same views and pair matrices, with the weights
1, 2, ..., 2, 1 multiplied into each axis vector: up to 2^n fewer points.
At an odd N, or without the proof, M = N.  This folds E and the C_n
families of types I and II at every rank, C_n type III at rank 1, and the
A_n families at rank 1 (where S_2 is the sign flip).  C_n type III at rank
>= 2 stays unfolded: its ordered prefactor z_j theta(z_i/z_j, 1/(z_i z_j); p)
is symmetric in value but not as a multiset, and no exemption is made.

The c = 1 reciprocal row 1/Gamma(w^k) of the Weyl denominators (C_n's
1/Gamma(z_j^{+-2}), A_n's 1/Gamma(z_i/z_j)) depends on (N, q, p) alone: it
is built in a gamma_vec call of its own (_unit_row), kept in an LRU memo
keyed on (N, q, p) and their types, and read by every table that needs it.
The quadrature driver's first grid is 2 N0 (its N0 sums are the even nodes of
that grid), so an integral first builds the row at 2 N0, never at N0.

Determinism: the mesh multiplies in a fixed order, and every mesh, folded
or not, with or without cell axes, is reduced by mesh_sums, one row sum per
cell; the contraction's einsum path depends only on the shapes, and it runs
on one BLAS thread (_one_blas_thread), so its bits repeat for a given numpy
and BLAS whatever the host's thread count, and no second thread waits on a
busy core.  A numpy without the bundled OpenBLAS's thread-count symbols
takes the fallback: the einsum runs on the BLAS's own threads, its bits
repeat at a given thread count and its time depends on it.  The orbit sum
visits fixed blocks in a fixed order.  The paths, folded or not, agree with
each other to rounding, not bit for bit.  A table's bits depend on its
factor list, N and the moduli alone, never on the calls before it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ._backend import EXTENDED, cpow, get_precision
from .core import Moduli, _memoizable, qpochhammer, theta
from .errors import UnsupportedFamily
from .gamma import elliptic_gamma, elliptic_gamma_reciprocal, pole_guard
from .vec import gamma_vec, theta_vec


class Family(Enum):
    E = "E"
    CN_I = "Cn_I"
    CN_II = "Cn_II"
    CN_III = "Cn_III"
    AN_I = "An_I"
    AN_II = "An_II"
    AN_III = "An_III"


@dataclass(frozen=True)
class ParamSet:
    """Named parameter sequences plus scalar extras; all entries nonzero."""

    t: tuple = ()
    f: tuple = ()
    x: tuple = ()
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("t", "f", "x"):
            seq = tuple(getattr(self, name))
            object.__setattr__(self, name, seq)
            if any(v == 0 for v in seq):
                raise ValueError(f"parameter sequence {name} contains 0")
        for key in ("t", "s"):
            if self.extras.get(key, 1) == 0:
                raise ValueError(f"scalar extra {key} must be nonzero")


_COUNTS = {
    # family -> the number of t-parameters at rank n
    Family.E: lambda n: 5,
    Family.CN_I: lambda n: 2 * n + 3,
    Family.CN_II: lambda n: 5,
    Family.CN_III: lambda n: 3,
    Family.AN_I: lambda n: n + 1,
    Family.AN_II: lambda n: 5,
    Family.AN_III: lambda n: n + 4,
}

_READS = {
    # family -> (the sequences it reads besides t, the scalar extras it reads)
    Family.E: ((), ()),
    Family.CN_I: ((), ()),
    Family.CN_II: ((), ("t",)),
    Family.CN_III: (("x",), ("t",)),
    Family.AN_I: (("f",), ()),
    Family.AN_II: ((), ("t", "s")),
    Family.AN_III: ((), ("t",)),
}


@dataclass(frozen=True)
class IntegrandSpec:
    family: Family
    n: int
    params: ParamSet
    moduli: Moduli

    def __post_init__(self):
        fam, n, ps = self.family, self.n, self.params
        if n < 1:
            raise ValueError("rank n must be >= 1")
        if fam in _COUNTS and len(ps.t) != _COUNTS[fam](n):
            raise ValueError(
                f"{fam.value} needs {_COUNTS[fam](n)} t-parameters, got {len(ps.t)}"
            )
        if fam is Family.E and n != 1:
            raise ValueError("E family is single-variable")
        if fam is Family.AN_I and len(ps.f) != n + 2:
            raise ValueError(f"An_I needs {n + 2} f-parameters")
        if fam is Family.CN_III and len(ps.x) != n:
            raise ValueError(f"Cn_III needs {n} x-parameters")
        seqs, extras = _READS[fam]
        for key in extras:
            if key not in ps.extras:
                raise ValueError(f"{fam.value} needs the scalar extra {key!r}")
        unread = [f"sequence {key}" for key in ("f", "x")
                  if getattr(ps, key) and key not in seqs]
        unread += [f"extra {key!r}" for key in ps.extras if key not in extras]
        if unread:
            raise ValueError(f"{fam.value} does not read {', '.join(unread)}")

    # -- derived products ---------------------------------------------------

    @property
    def product_A(self):
        ps = self.params
        return _product_A(self.family, self.n, ps.t, ps.extras, self.moduli)

    @property
    def product_B(self):
        ps = self.params
        return _product_B(self.family, self.n, ps.t, ps.f, ps.extras)


# The products and the domain table below take the raw fields of a spec and
# use only abs, * and integer powers, so they run on Python or mpmath numbers
# and on numpy arrays of candidates alike (registry's screened sampler).


def _product_A(family: Family, n: int, t, extras, m: Moduli):
    if family in (Family.E, Family.CN_I, Family.AN_I):
        return _prod(t)
    if family is Family.CN_III:
        return extras["t"] * _prod(t) * cpow(m.q, n - 1)
    if family is Family.AN_III:
        return cpow(extras["t"], n + 2) * _prod(t)
    raise UnsupportedFamily(f"no product A for {family.value}")


def _product_B(family: Family, n: int, t, f, extras):
    if family is Family.CN_II:
        return cpow(extras["t"], 2 * n - 2) * _prod(t)
    if family is Family.AN_I:
        return _prod(f)
    if family is Family.AN_II:
        return cpow(extras["t"] * extras["s"], n - 1) * _prod(t)
    raise UnsupportedFamily(f"no product B for {family.value}")


def _prod(seq):
    out = 1.0 + 0.0j
    for v in seq:
        out = out * v
    return out


# -- domain validation -------------------------------------------------------


@dataclass(frozen=True)
class InequalityCheck:
    """The pole modulus lhs stays strictly below rhs."""

    name: str
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def ok(self) -> bool:
        return self.margin > 0


@dataclass(frozen=True)
class ValidationResult:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def radius(self) -> float:
        """Largest interior-pole modulus seen along any one torus variable.

        The trapezoid rule's geometric convergence rate is this radius, so
        samplers reject draws whose radius does not fit the node budget.
        """
        return max(c.lhs / c.rhs for c in self.checks)

    def failures(self):
        return [c.name for c in self.checks if not c.ok]


def domain_table(family: Family, n: int, t, f, x, extras, m: Moduli):
    """Per-family inequality table, strict throughout: (name, lhs, rhs) rows,
    each saying that the pole modulus lhs stays below rhs.  The fields may
    be numbers or numpy arrays (one entry per candidate)."""
    pq = abs(m.p * m.q)
    rows = []

    def lt1(vals, label):
        rows.extend([(f"|{label}_{i}| < 1", abs(v), 1.0)
                     for i, v in enumerate(vals)])

    if family in (Family.E, Family.CN_I):
        lt1(t, "t")
        rows.append(("|pq| < |A|", pq, abs(_product_A(family, n, t, extras, m))))
    elif family is Family.CN_II:
        lt1(t, "t")
        rows.append(("|t| < 1", abs(extras["t"]), 1.0))
        rows.append(("|pq| < |B|", pq, abs(_product_B(family, n, t, f, extras))))
    elif family is Family.CN_III:
        lt1(x, "x")
        lt1(t, "t")
        tmod = abs(extras["t"])
        rows.extend([(f"|t| < |x_{i}|", tmod, abs(xv)) for i, xv in enumerate(x)])
        rows.append(("|pq| < |A|", pq, abs(_product_A(family, n, t, extras, m))))
    elif family is Family.AN_I:
        lt1(t, "t")
        lt1(f, "f")
        rows.append(("|pq| < |AB|", pq,
                     abs(_product_A(family, n, t, extras, m)
                         * _product_B(family, n, t, f, extras))))
    elif family is Family.AN_II:
        lt1(t, "t")
        rows.append(("|t| < 1", abs(extras["t"]), 1.0))
        rows.append(("|s| < 1", abs(extras["s"]), 1.0))
        rows.append(("|pq| < |B|", pq, abs(_product_B(family, n, t, f, extras))))
    elif family is Family.AN_III:
        lt1(t, "t")
        rows.append(("|t| < 1", abs(extras["t"]), 1.0))
        rows.append(("|pq| < |A|", pq, abs(_product_A(family, n, t, extras, m))))
    return rows


def validate_domain(spec: IntegrandSpec) -> ValidationResult:
    """The domain table at the spec's values."""
    ps = spec.params
    rows = domain_table(spec.family, spec.n, ps.t, ps.f, ps.x, ps.extras,
                        spec.moduli)
    return ValidationResult(tuple([InequalityCheck(*row) for row in rows]))


# -- atomic factor engine -----------------------------------------------------


class Kind(Enum):
    GAMMA = "gamma"
    IGAMMA = "igamma"
    THETA = "theta"
    MONO = "mono"          # value c * z^e itself


@dataclass(frozen=True)
class Factor:
    kind: Kind
    c: complex
    evec: tuple


class FactorIntegrand:
    """Product of atomic factors over n free torus variables (none for a
    closed form).

    Callable on a point sequence (scalar path); mesh_eval(N) returns the
    value array on the full N^n tensor grid of roots of unity.  ``path`` is
    the node-sum path the exponent vectors select (see the module
    docstring); node_sums(N) runs it, and points(N) counts what it
    evaluates or holds.
    """

    def __init__(self, n: int, moduli: Moduli, factors):
        self.n = n
        self.moduli = moduli
        self.factors = tuple(factors)
        self.path = self._select_path()

    def __call__(self, zs):
        zs = tuple(zs)
        if len(zs) != self.n:
            raise ValueError(f"expected {self.n} variables, got {len(zs)}")
        m = self.moduli
        out = 1.0 + 0.0j
        for f in self.factors:
            w = f.c
            for zi, e in zip(zs, f.evec):
                if e:
                    w = w * zi ** e
            if f.kind is Kind.GAMMA:
                out = out * elliptic_gamma(w, m)
            elif f.kind is Kind.IGAMMA:
                out = out * elliptic_gamma_reciprocal(w, m)
            elif f.kind is Kind.THETA:
                out = out * theta(w, m.p)
            else:
                out = out * w
        return out

    # -- node-sum paths ------------------------------------------------------

    def _select_path(self) -> str:
        if self.n >= 3 and all(sum(1 for e in f.evec if e) <= 2
                               for f in self.factors):
            return "pairwise"
        if self.n >= 2 and self._weyl_invariant():
            return "orbit"
        return "mesh"

    def _invariant(self, images) -> bool:
        """Whether every map of exponent vectors in images sends the
        multiset of (kind, c, exponent vector) to itself."""
        def multiset(image):
            return Counter((f.kind, f.c, image(f.evec)) for f in self.factors)

        same = multiset(lambda evec: evec)
        return all(multiset(image) == same for image in images)

    def _weyl_invariant(self) -> bool:
        """Whether the factor multiset is invariant under every adjacent
        transposition of (k_1, ..., k_n, -sum k), which generate S_{n+1};
        then so is the integrand on the A_n torus.

        An exponent vector e is lifted to (e, 0) on the n+1 coordinates,
        permuted, and brought back by subtracting its last entry: on the
        nodes, sum k = 0 mod N, so e . k only sees e modulo (1, ..., 1).
        """
        def swap(i):
            def image(evec):
                lift = list(evec) + [0]
                lift[i], lift[i + 1] = lift[i + 1], lift[i]
                return tuple(v - lift[-1] for v in lift[:-1])
            return image

        return self._invariant([swap(i) for i in range(self.n)])

    @functools.cached_property
    def sign_symmetric(self) -> bool:
        """Whether the mesh or pairwise path may fold: n >= 1, and the factor
        multiset is invariant under negating any one coordinate of every
        exponent vector; then the integrand is invariant under
        z_j -> 1/z_j for each j, and the nodes k and N - k of any axis
        carry the same value."""
        def flip(i):
            return lambda evec: evec[:i] + (-evec[i],) + evec[i + 1:]

        return (self.path != "orbit" and self.n >= 1
                and self._invariant([flip(i) for i in range(self.n)]))

    def folded(self, N: int) -> bool:
        """Whether the mesh or pairwise sum at N nodes per axis runs over
        k_j in [0, N/2] only, with weights 1, 2, ..., 2, 1: a proven sign
        symmetry and an even N."""
        return self.sign_symmetric and N % 2 == 0

    def points(self, N: int) -> int:
        """What the path evaluates or holds at N nodes per axis, with
        M = N/2 + 1 nodes per axis where folded and M = N elsewhere: the
        M^n grid (mesh); the pair matrices and their moduli plus the largest
        intermediate the contraction may form, M^(n-1) (pairwise); the orbit
        representatives (orbit)."""
        if self.path == "orbit":
            return orbit_count(self.n, N)
        M = N // 2 + 1 if self.folded(N) else N
        if self.path == "pairwise":
            pairs = {tuple(i for i, e in enumerate(f.evec) if e)
                     for f in self.factors}
            return 2 * sum(len(s) == 2 for s in pairs) * M * M + M ** (self.n - 1)
        return M ** self.n

    def node_sums(self, N: int, subgrid: bool = False):
        """(node averages, |f| sums, cell shape ()) of the path, as mesh_sums
        gives them for one cell.  The quadrature driver passes subgrid=True
        at its first grid (an even N) for a fourth entry: the node average
        of the even nodes k = 2j, the N/2 grid, read from the same tables."""
        if self.path == "mesh":
            weights = _fold_weights(N) if self.folded(N) else None
            return mesh_sums(self.mesh_eval(N, weights), N, self.n, subgrid)
        if self.path == "pairwise":
            sums = self._pairwise_sums(N, subgrid)
        else:
            sums = self._orbit_sums(N, subgrid)
        out = [complex(sums[0]) / N ** self.n], [float(sums[1])], ()
        return (*out, [complex(sums[2]) / (N // 2) ** self.n]) if subgrid else out

    def _pairwise_sums(self, N: int, subgrid: bool = False):
        """sum_k prod_i g_i(k_i) prod_{i<j} H_ij(k_i, k_j) as one einsum over
        the pair matrices (each variable's vector folded into the first
        matrix on it), its intermediates capped at M^(n-1).  Folded, every
        vector and matrix is cut to its first M = N/2 + 1 entries per axis
        and each variable's vector carries the fold weights.  With subgrid,
        a third einsum over the even entries [::2] of every operand sums the
        even nodes (node_sums)."""
        M, weights = N, None
        if self.folded(N):
            weights = _fold_weights(N)
            M = weights.size
        vecs: dict = {}
        mats: dict = {}
        const = 1.0 + 0.0j
        for evec, tab in self._tables(N).items():
            sup = tuple(i for i, e in enumerate(evec) if e)
            if not sup:
                const = const * tab[0]
                continue
            store = vecs if len(sup) == 1 else mats
            val = _grid_view(tab, tuple(evec[i] for i in sup))
            val = val[(slice(M),) * len(sup)]
            store[sup] = store[sup] * val if sup in store else val
        if weights is not None:
            for i in range(self.n):
                vecs[(i,)] = vecs[(i,)] * weights if (i,) in vecs else weights
        for (i,), vec in vecs.items():
            pair = next((s for s in mats if i in s), None)
            if pair is not None:
                mats[pair] = mats[pair] * (vec[:, None] if pair[0] == i
                                           else vec[None, :])
        held = set().union(*mats)
        ops = [(np.asarray(const), [])] + [(m, list(s)) for s, m in mats.items()]
        ops += [(vecs.get((i,), np.ones(M)), [i])
                for i in range(self.n) if i not in held]

        def contract(arrays, size=M):
            args = [x for a, (_, sub) in zip(arrays, ops) for x in (a, sub)]
            return np.einsum(*args, [], optimize=("greedy", size ** (self.n - 1)))

        with _one_blas_thread():
            sums = (contract([a for a, _ in ops]),
                    contract([np.abs(a) for a, _ in ops]))
            if subgrid:
                sums += (contract([a[(slice(None, None, 2),) * a.ndim]
                                   for a, _ in ops], (M + 1) // 2),)
        return sums

    def _orbit_sums(self, N: int, subgrid: bool = False):
        """sum over the sorted (n+1)-tuples with sum = 0 mod N of the orbit
        size times f, block by block as _orbit_runs gives them.  Each
        exponent vector is lifted to its sparsest form v on the n+1
        coordinates (e . k = v . k on the nodes), signed so that its first
        entry is positive, and the tables of equal lifts are multiplied into
        one, read as tab[v . k mod N].  Along a prefix's range, k_0 ..
        k_{n-2} are fixed and k_n = top - c, so a lift with v_{n-1} = v_n
        has one value per prefix: the constant and these lifts (at rank 3,
        AN_I's g(k_0), g(k_1) and H(k_0 - k_1) of its ten) are multiplied
        once per prefix and spread over the range, and every other lift is
        gathered once per representative, into buffers of _orbit_span(n, N)
        entries taken once per call.  With subgrid, also the sum over the
        representatives whose coordinates are all even: k = 2j, with j
        sorted and sum j = 0 mod N/2, are exactly the orbits of the N/2
        grid, with the same orbit sizes."""
        k = np.arange(N)
        const = 1.0 + 0.0j
        lifts: dict = {}
        for evec, tab in self._tables(N).items():
            lift = list(evec) + [0]
            shift = max(set(lift), key=lift.count)
            terms = tuple((j, v - shift) for j, v in enumerate(lift) if v != shift)
            if not terms:
                const = const * tab[0]
                continue
            if terms[0][1] < 0:
                terms = tuple((j, -v) for j, v in terms)
                tab = tab[np.mod(-k, N)]
            lifts[terms] = lifts[terms] * tab if terms in lifts else tab
        n = self.n
        heads, runs = [], []
        for terms, tab in lifts.items():
            v = dict(terms)
            if v.get(n - 1, 0) == v.get(n, 0):
                # v_{n-1} c + v_n (top - c) = v_n top
                heads.append(([(j, w) for j, w in terms if j != n - 1], tab))
            else:
                runs.append((terms, tab))
        span = _orbit_span(n, N)
        # one work array per dtype, not one per buffer: freeing a large
        # mapped array raises glibc's heap trim threshold, so the arrays of
        # later calls keep their pages instead of faulting them in again
        *coord_bufs, idx_buf = np.empty((n + 1, span), np.int64)
        vals_buf, tmp_buf = np.empty((2, span), complex)
        parts, abs_parts, even_parts = [], [], []
        for prefix, top, pid, c, weights in _orbit_runs(n, N):
            L = len(c)
            head = np.full(len(top), const)
            coords = prefix + [None, top]
            for terms, tab in heads:
                head *= tab.take(_index(terms, coords), mode="wrap")
            # k_0 .. k_{n-2}, c, k_n = top - c per representative (mode="clip":
            # see _orbit_runs)
            reps = [p.take(pid, out=buf[:L], mode="clip")
                    for p, buf in zip(prefix + [top], coord_bufs)]
            reps.insert(n - 1, c)
            np.subtract(reps[n], c, out=reps[n])
            vals = head.take(pid, out=vals_buf[:L], mode="clip")
            tmp = tmp_buf[:L]
            for terms, tab in runs:
                idx = _index(terms, reps, idx_buf[:L])
                vals *= tab.take(idx, out=tmp, mode="wrap")
            parts.append(np.sum(np.multiply(weights, vals, out=tmp)))
            # |vals| into the memory of tmp, free after the sum above
            mod = np.abs(vals, out=tmp_buf.view(float)[:L])
            abs_parts.append(np.sum(np.multiply(weights, mod, out=mod)))
            if subgrid:
                even = (np.bitwise_or.reduce(prefix + [top]) & 1) == 0
                even = even.take(pid) & ((c & 1) == 0)
                even_parts.append(np.sum(weights[even] * vals[even]))
        sums = np.sum(parts), np.sum(abs_parts)
        return (*sums, np.sum(even_parts)) if subgrid else sums

    # -- tables and the mesh path ------------------------------------------

    def _tables(self, N: int, atoms=None) -> dict:
        """exponent vector -> the product of its factors' tables on the N
        roots of unity, read from atoms (by default _atoms of this list)."""
        table = atoms or _atoms(self.factors, N, self.moduli)
        per_evec: dict = {}
        for f in self.factors:
            tab = table(f)
            if f.evec in per_evec:
                per_evec[f.evec] = per_evec[f.evec] * tab
            else:
                per_evec[f.evec] = tab.copy()
        return per_evec

    def mesh_eval(self, N: int, weights: np.ndarray | None = None) -> np.ndarray:
        """The integrand on the full N^n grid or, with the fold weights that
        node_sums and a Gram mesh pass, times prod_i weights[k_i] on k in
        [0, M)^n of that grid, M = weights.size: the weights, the constant
        and the single-axis tables folded into one vector per axis, their
        outer product, times the grid view of each multi-axis table, each
        cut to M entries per axis."""
        if weights is None:
            weights = np.ones(N)
        M = weights.size
        const = 1.0 + 0.0j
        axes = [weights.astype(complex) for _ in range(self.n)]
        multi = []
        for evec, tab in self._tables(N).items():
            sup = [i for i, e in enumerate(evec) if e]
            if not sup:
                const = const * tab[0]
            elif len(sup) == 1:
                axes[sup[0]] = axes[sup[0]] * _grid_view(
                    tab, (evec[sup[0]],))[:M]
            else:
                multi.append(_grid_view(tab, evec)[(slice(M),) * self.n])
        out = const * axes[0]
        for vec in axes[1:]:
            out = np.multiply.outer(out, vec)
        for view in multi:
            out *= view
        return out


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy's wheels
    bundle (scipy-openblas, 64-bit ints), found with ctypes among the
    libraries numpy's core extension links; None for a numpy built without
    those symbols (another BLAS, or an older wheel), whose contraction then
    runs on the BLAS's own threads."""
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get, put = (lib.scipy_openblas_get_num_threads64_,
                    lib.scipy_openblas_set_num_threads64_)
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextlib.contextmanager
def _one_blas_thread():
    """One BLAS thread inside, the previous count restored after, a
    setting of this process's library alone.  On a busy 2-vCPU host a
    second thread waited on a core: a rank-3 contraction at M = 97 took
    15.9 ms instead of 0.18 ms in half the fresh processes, and its bits
    followed the thread count.  Without the symbols (_blas_threads is
    None) it does nothing."""
    threads = _blas_threads()
    if threads is None:
        yield
        return
    get, put = threads
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _fold_weights(N: int) -> np.ndarray:
    """1, 2, ..., 2, 1 on k in [0, N/2] (N even): the nodes k and N - k of a
    sign-symmetric sum taken once."""
    weights = np.full(N // 2 + 1, 2.0)
    weights[[0, -1]] = 1.0
    return weights


def mesh_sums(arr: np.ndarray, N: int, n: int, subgrid: bool = False):
    """Node averages, |f| sums and the cell shape of a mesh (M,)*n + cells at
    N nodes per axis, M = N, or N/2 + 1 with the fold weights multiplied in:
    one entry per cell in C order, its nodes summed as one C-contiguous row,
    so a cell gets the bits of a mesh of its own.  With subgrid, also the
    node averages of the even nodes, the N/2 grid (folded, the weights of N
    at the even k are those of N/2 folded, or, N/2 odd, of its nodes j and
    N/2 - j taken once)."""
    def rows(a):
        grid_last = np.moveaxis(a, tuple(range(n)), tuple(range(-n, 0)))
        return np.ascontiguousarray(grid_last).reshape(-1, math.prod(a.shape[:n]))

    flat = rows(arr)
    out = ([complex(s) / N ** n for s in flat.sum(axis=1)],
           np.abs(flat).sum(axis=1).tolist(), arr.shape[n:])
    if not subgrid:
        return out
    even = rows(arr[(slice(None, None, 2),) * n]).sum(axis=1)
    return *out, [complex(s) / (N // 2) ** n for s in even]


def _gamma_keys(factors) -> list:
    """The distinct (constant, inverse) pairs of the Gamma and 1/Gamma
    factors, in order."""
    return list(dict.fromkeys((f.c, f.kind is Kind.IGAMMA) for f in factors
                              if f.kind in (Kind.GAMMA, Kind.IGAMMA)))


@functools.lru_cache(maxsize=16, typed=True)
def _unit_row(N: int, q, p) -> np.ndarray:
    """The c = 1 reciprocal row 1/Gamma(w^k; q, p), k < N, of the Weyl
    denominators 1/Gamma(z_j^{+-2}) and 1/Gamma(z_i/z_j), read-only: a
    gamma_vec call of its own, so its bits depend on (N, q, p) alone.  A
    check uses a few grid sizes on one or two moduli."""
    row = gamma_vec(_ONE, N, q, p, inverse=True)
    row.setflags(write=False)
    return row


def _atoms(factors, N: int, m: Moduli):
    """factor -> the table of its atom g(c w^k), k < N, on the N roots of
    unity: one gamma_vec call for all distinct (constant, inverse) pairs of
    factors but the c = 1 reciprocal row, which _unit_row memoizes (like
    theta's memo, only for moduli whose equal values have equal bits), one
    theta table per distinct constant."""
    z1d = np.exp(2j * np.pi * np.arange(N) / N)
    unit = (_ONE, True)
    keys = _gamma_keys(factors)
    stack = [key for key in keys if key != unit]
    gamma = dict(zip(stack, gamma_vec([c for c, _ in stack], N, m.q, m.p,
                                      inverse=[i for _, i in stack])
                     if stack else ()))
    if unit in keys:
        memo = _memoizable(m.q) and _memoizable(m.p)
        gamma[unit] = (_unit_row if memo else _unit_row.__wrapped__)(
            N, m.q, m.p)
    theta_cache: dict = {}

    def table(f: Factor) -> np.ndarray:
        if f.kind in (Kind.GAMMA, Kind.IGAMMA):
            return gamma[f.c, f.kind is Kind.IGAMMA]
        if f.kind is Kind.THETA:
            tab = theta_cache.get(f.c)
            if tab is None:
                tab = theta_vec(f.c * z1d, m.p)
                theta_cache[f.c] = tab
            return tab
        return f.c * z1d

    return table


def _grid_view(tab: np.ndarray, evec) -> np.ndarray:
    """tab[(e . k) mod N] on the N^len(e) grid of k, as a read-only strided
    view with no index array.  With s the sum of |e_i| and s- that of the
    negative e_i, e . k lies in [-s- (N-1), (s - s-)(N-1)]; the table tiled
    s + 1 times and entered at s- N holds every such entry."""
    N = tab.size
    neg = sum(-e for e in evec if e < 0)
    tiled = np.tile(tab, sum(abs(e) for e in evec) + 1)
    return np.lib.stride_tricks.as_strided(
        tiled[neg * N:], shape=(N,) * len(evec),
        strides=tuple(e * tiled.itemsize for e in evec), writeable=False)


# -- Weyl-orbit representatives of the A_n torus ---------------------------------

# representatives per block of the orbit sum: bounds the index and value
# arrays it holds at once
_ORBIT_BLOCK = 1 << 16


def orbit_count(n: int, N: int) -> int:
    """The number of sorted (n+1)-tuples over Z_N with sum = 0 mod N, i.e. of
    S_{n+1}-orbits of the N^n nodes: by a roots-of-unity filter,
    (1/N) sum_{d | gcd(N, n+1)} phi(d) C(N/d + (n+1)/d - 1, (n+1)/d)."""
    k = n + 1
    g = math.gcd(N, k)
    total = 0
    for d in (d for d in range(1, g + 1) if g % d == 0):
        phi = sum(1 for j in range(1, d + 1) if math.gcd(j, d) == 1)
        total += phi * math.comb(N // d + k // d - 1, k // d)
    return total // N


def _index(terms, coords, out=None):
    """sum v * coords[j] over the (j, v) of terms, written into out if given
    (a single term with v = 1 is coords[j] itself)."""
    (j, v), *rest = terms
    idx = coords[j] if v == 1 else np.multiply(coords[j], v, out=out)
    for j, v in rest:
        if v == 1:
            idx = np.add(idx, coords[j], out=out)
        elif v == -1:
            idx = np.subtract(idx, coords[j], out=out)
        else:
            idx = np.add(idx, v * coords[j], out=out)
    return idx


def _ranges(lo: np.ndarray, hi: np.ndarray):
    """Every integer of every range [lo_r, hi_r], range by range in
    increasing order, and the count of each range (np.repeat spreads a
    per-range value by it); a range with hi_r < lo_r is empty."""
    counts = np.maximum(hi - lo + 1, 0)
    offset = np.cumsum(counts) - counts - lo
    return np.arange(counts.sum()) - np.repeat(offset, counts), counts


def _orbit_runs(n: int, N: int):
    """Yield (prefix, top, pid, c, weights), block by block and, within a
    block, branch by branch.  prefix[j] is coordinate j of sorted prefixes
    k_0 <= ... <= k_{n-2} over Z_N, and top is per prefix; entry i of pid,
    c and weights stands for the sorted (n+1)-tuple (prefix[.][pid[i]],
    c[i], top[pid[i]] - c[i]).  Each prefix's entries are one contiguous
    range of c (pid is nondecreasing, and c runs up by one within a
    prefix), with k_n = top - c >= c.  Over all blocks every sorted
    (n+1)-tuple with sum = 0 mod N appears once, and weights holds its orbit
    size (n+1)!/prod mult!, so the weights add up to N^n.  With last =
    k_{n-2} and r = -(prefix sum) mod N, the two branches are c in
    [last, r/2] with top = r and c in [max(last, r+1), (r+N)/2] with
    top = r + N.

    prod mult! is the product of the run counters (1, 2, ... along each run
    of equal coordinates).  The prefix's product is taken once per prefix,
    and a range's entries share it but at the ends: c equals last only at a
    range's first entry, and k_n equals c only at its last, where 2c = top.
    So a block's weights are three per prefix and branch, spread over the
    range and written at its two ends.

    pid, c and weights are views of buffers of _orbit_span(n, N) entries
    that the next yield overwrites: a block's work allocates nothing of its
    size."""
    prefix = [np.arange(N)]
    run = np.ones(N, dtype=np.int64)    # counter of the prefix's last run
    mults = run                         # product of the prefix's counters
    for _ in range(n - 2):
        val, counts = _ranges(prefix[-1], np.full(len(prefix[-1]), N - 1))
        prefix = [np.repeat(p, counts) for p in prefix] + [val]
        run = np.where(val == prefix[-2], np.repeat(run, counts) + 1, 1)
        mults = np.repeat(mults, counts) * run
    last = prefix[-1]
    r = np.mod(-sum(prefix), N)

    def branches(last, r):
        return [(lo, top // 2, top)
                for lo, top in ((last, r), (np.maximum(last, r + 1), r + N))]

    counts = sum(np.maximum(hi - lo + 1, 0) for lo, hi, _ in branches(last, r))
    block = (np.cumsum(counts) - counts) // _ORBIT_BLOCK
    starts = list(np.flatnonzero(np.diff(block, prepend=-1))) + [len(last)]
    fact = math.factorial(n + 1)
    # take(out=...) writes unbuffered outside its default mode; pid is in
    # range, so mode="clip" changes nothing else
    span = _orbit_span(n, N)
    step = np.arange(span)
    bufs = *np.empty((2, span), np.int64), np.empty(span)
    for a, b in zip(starts, starts[1:]):
        part = slice(a, b)
        last_b, run_b, mults_b = last[part], run[part], mults[part]
        for lo, hi, top in branches(last_b, r[part]):
            counts = np.maximum(hi - lo + 1, 0)
            end = np.cumsum(counts)
            first = end - counts
            some = np.flatnonzero(counts)
            pid, c, weights = (buf[:end[-1]] for buf in bufs)
            # pid steps from one nonempty prefix to the next at its first entry
            pid[:] = 0
            pid[first[some]] = np.diff(some, prepend=0)
            np.cumsum(pid, out=pid)
            (first - lo).take(pid, out=c, mode="clip")
            np.subtract(step[:len(c)], c, out=c)
            # the run counters of c at lo, of c at hi and of k_n at hi
            c_lo = np.where(lo == last_b, run_b + 1, 1)
            c_hi = np.where(hi == lo, c_lo, 1)
            kn_hi = np.where(2 * hi == top, c_hi + 1, 1)
            (fact / mults_b).take(pid, out=weights, mode="clip")
            weights[first[some]] = fact / (mults_b * c_lo)[some]
            weights[end[some] - 1] = fact / (mults_b * c_hi * kn_hi)[some]
            yield [p[part] for p in prefix], top, pid, c, weights


def _orbit_span(n: int, N: int) -> int:
    """The most entries one yield of _orbit_runs holds: a block starts its
    last prefix below _ORBIT_BLOCK entries, and a prefix has at most N."""
    return min(orbit_count(n, N), _ORBIT_BLOCK + N)


# -- family factor lists ------------------------------------------------------

_ONE = 1.0 + 0.0j

# (a, b) of the four C_n pair factors in z_j^a z_k^b
_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _lin(coeffs, vecs):
    """The exponent vector sum_r coeffs[r] * vecs[r]."""
    return tuple(sum(a * v[d] for a, v in zip(coeffs, vecs))
                 for d in range(len(vecs[0])))


def _cn(n, m: Moduli, consts, A, pair) -> FactorIntegrand:
    """C_n integrand: for each axis j, Gamma(c z_j^{+-1}) for c in consts[j],
    then 1/Gamma(z_j^{+-2}) and 1/Gamma(A z_j^{+-1}); after that, for each
    pair j < k, g(c z_j^a z_k^b) for every (g, c, (a, b)) of pair."""
    units = [tuple(int(d == j) for d in range(n)) for j in range(n)]
    fs = []
    for u, axis in zip(units, consts):
        fs += [Factor(Kind.GAMMA, c, _lin((s,), (u,)))
               for c in axis for s in (1, -1)]
        fs += [Factor(Kind.IGAMMA, c, _lin((s,), (u,)))
               for c, s in ((_ONE, 2), (_ONE, -2), (A, 1), (A, -1))]
    fs += [Factor(kind, c, _lin(ab, (units[j], units[k])))
           for j, k in itertools.combinations(range(n), 2)
           for kind, c, ab in pair]
    return FactorIntegrand(n, m, fs)


def _an(n, m: Moduli, per_var, pair) -> FactorIntegrand:
    """A_n integrand on the constrained torus z_1...z_{n+1} = 1, z_{n+1}
    having the exponent vector (-1, ..., -1): g(c z_k^s) for every (g, c, s)
    of per_var and each k; g(c z_i^a z_j^b) for every (g, c, (a, b)) of pair
    and each pair i < j; then 1/Gamma(z_i/z_j) for each i != j."""
    vecs = [tuple(int(d == k) for d in range(n)) for k in range(n)]
    vecs.append((-1,) * n)
    fs = [Factor(kind, c, _lin((s,), (v,)))
          for v in vecs for kind, c, s in per_var]
    fs += [Factor(kind, c, _lin(ab, (vecs[i], vecs[j])))
           for i, j in itertools.combinations(range(n + 1), 2)
           for kind, c, ab in pair]
    fs += [Factor(Kind.IGAMMA, _ONE, _lin((1, -1), (vi, vj)))
           for vi, vj in itertools.permutations(vecs, 2)]
    return FactorIntegrand(n, m, fs)


def make_integrand(spec: IntegrandSpec) -> FactorIntegrand:
    """Bare integrand of the family spec."""
    fam, n, ps, m = spec.family, spec.n, spec.params, spec.moduli
    t, tc = ps.t, ps.extras.get("t")
    G, IG = Kind.GAMMA, Kind.IGAMMA
    if fam in (Family.E, Family.CN_I):
        return _cn(n, m, [t] * n, spec.product_A,
                   [(IG, _ONE, ab) for ab in _SIGNS])
    if fam is Family.CN_II:
        return _cn(n, m, [t] * n, spec.product_B,
                   [(kind, c, ab) for ab in _SIGNS
                    for kind, c in ((G, tc), (IG, _ONE))])
    if fam is Family.CN_III:
        # ordered prefactor prod_{i<j} z_j theta(z_i/z_j, 1/(z_i z_j); p)
        return _cn(n, m, [(x, *t, tc / x) for x in ps.x], spec.product_A,
                   [(Kind.MONO, _ONE, (0, 1)), (Kind.THETA, _ONE, (1, -1)),
                    (Kind.THETA, _ONE, (-1, -1))])
    if fam is Family.AN_I:
        return _an(n, m, [(G, c, -1) for c in t] + [(G, c, 1) for c in ps.f]
                   + [(IG, spec.product_A * spec.product_B, 1)], [])
    if fam is Family.AN_II:
        return _an(n, m, [(G, c, 1) for c in t[:3]]
                   + [(G, c, -1) for c in t[3:]] + [(IG, spec.product_B, 1)],
                   [(G, tc, (1, 1)), (G, ps.extras["s"], (-1, -1))])
    if fam is Family.AN_III:
        return _an(n, m, [(G, c, -1) for c in t[:n + 1]]
                   + [(G, tc * c, 1) for c in t[n + 1:]]
                   + [(IG, spec.product_A, -1)], [(G, tc, (1, 1))])
    raise UnsupportedFamily(f"no integrand for {fam.value}")


# -- closed-form right-hand sides ----------------------------------------------


def _closed(m: Moduli, const, num, den=(), thetas=()) -> FactorIntegrand:
    """A closed form as a factor list on zero torus variables: const times
    Gamma(c) for c in num, 1/Gamma(c) for c in den, theta(c; p) for c in
    thetas."""
    fs = [Factor(Kind.MONO, const, ())]
    fs += [Factor(Kind.GAMMA, c, ()) for c in num]
    fs += [Factor(Kind.IGAMMA, c, ()) for c in den]
    fs += [Factor(Kind.THETA, c, ()) for c in thetas]
    return FactorIntegrand(0, m, fs)


def closed_form(spec: IntegrandSpec) -> FactorIntegrand:
    """The family's exact integral value (bare-measure convention) as a
    factor list on zero torus variables."""
    fam, n, ps, m = spec.family, spec.n, spec.params, spec.moduli
    t, tc = ps.t, ps.extras.get("t")
    pw = lambda k: cpow(tc, k)
    poch = (qpochhammer(m.p, m.p) * qpochhammer(m.q, m.q)) ** n
    pairs = list(itertools.combinations(t, 2))
    if fam in (Family.E, Family.CN_I):
        return _closed(m, 2.0 ** n * math.factorial(n) / poch,
                       [a * b for a, b in pairs],
                       [spec.product_A / c for c in t])
    if fam is Family.CN_II:
        js = range(1, n + 1)
        return _closed(m, 2.0 ** n * math.factorial(n) / poch,
                       [pw(j) for j in js]
                       + [pw(j - 1) * a * b for j in js for a, b in pairs],
                       [tc] * n + [pw(1 - j) * spec.product_B / c
                                   for j in js for c in t])
    if fam is Family.CN_III:
        x, A = ps.x, spec.product_A
        ij = list(itertools.combinations(range(n), 2))
        num, den = [tc] * n, []
        for i, xi in enumerate(x):
            num += [a * b * cpow(m.q, i) for a, b in pairs]
            num += [xi * c for c in t] + [tc * c / xi for c in t]
            den += [A / xi, A * xi / tc] + [A * cpow(m.q, -i) / c for c in t]
        return _closed(m, 2.0 ** n / poch * _prod(x[j] for _, j in ij),
                       num, den, [x[i] / x[j] for i, j in ij]
                       + [tc / (x[i] * x[j]) for i, j in ij])
    const = math.factorial(n + 1) / poch
    if fam is Family.AN_I:
        f, A, B = ps.f, spec.product_A, spec.product_B
        return _closed(m, const,
                       [A] + [B / c for c in f] + [a * b for a in t for b in f],
                       [a * B for a in t] + [A * B / c for c in f])
    if fam is Family.AN_II:
        # n = 2h - 1 or n = 2h
        sc, h = ps.extras["s"], (n + 1) // 2
        lo, hi = t[:3], t[3:]
        P3, P45 = _prod(lo), hi[0] * hi[1]
        ab = [a * b for a, b in itertools.combinations(lo, 2)]
        sp = lambda k: cpow(sc, k)
        ts = lambda k: cpow(tc * sc, k)
        # the factors both parities share, then those of each parity
        num = [ts(j - 1) * a * b for j in range(1, h + 1) for a in lo for b in hi]
        num += [v for j in range(1, n // 2 + 1)
                for v in [ts(j), pw(j) * sp(j - 1) * P45]
                + [pw(j - 1) * sp(j) * c for c in ab]]
        den = [ts(k) * c * P45 for k in range(n // 2, n) for c in ab]
        den += [pw(k) * sp(k + 1) * P3 * c
                for k in range((n - 1) // 2, n - 1) for c in hi]
        if n % 2:
            num += [pw(h), sp(h), sp(h - 1) * P45] + [pw(h - 1) * c for c in ab]
            den += [pw(n - 1) * sp(h - 1) * P3 * c for c in hi]
        else:
            num += [pw(h) * c for c in lo] + [sp(h) * c for c in hi]
            num += [pw(h - 1) * P3]
            den += [pw(n - 1) * sp(h - 1) * P3 * P45, pw(n - 1) * sp(h) * P3]
        return _closed(m, const, num, den)
    if fam is Family.AN_III:
        # n = 2h - 1 or n = 2h; the last three parameters are the tail
        head, tail, every = _prod(t[:n + 1]), t[n + 1:], _prod(t)
        h = (n + 1) // 2
        num = [tc * t[i] * t[j]
               for i, j in itertools.combinations(range(n + 4), 2) if i <= n]
        den = [pw(n + 2) * every / c for c in t[:n + 1]]
        if n % 2:
            num += [pw(h), head] + [pw(h + 1) * a * b
                                    for a, b in itertools.combinations(tail, 2)]
            den += [pw(h) * head] + [pw(h + 1) * every / c for c in tail]
        else:
            num += [head, pw(h + 2) * _prod(tail)] + [pw(h + 1) * c for c in tail]
            den += [pw(h + 2) * every] + [pw(h + 1) * c * head for c in tail]
        return _closed(m, const, num, den)
    raise UnsupportedFamily(fam.value)


def closed_form_values(specs) -> list:
    """The closed forms of specs, which share one moduli.  In float64 each
    is the product of its _tables(1) entries, and all of them read one atom
    table call: one gamma_vec call over the distinct (c, inverse) keys of
    all the lists.  Each key first passes the scalar path's pole guard
    (gamma.pole_guard: PoleHit within POLE_EPS relative distance of a
    pole), and gamma_vec's finiteness check catches a zero base.  In
    extended mode each list takes the scalar path."""
    forms = [closed_form(spec) for spec in specs]
    if get_precision() == EXTENDED:
        return [form(()) for form in forms]
    factors = [f for form in forms for f in form.factors]
    m = forms[0].moduli
    if m.q != 0 and m.p != 0:
        for c, inverse in _gamma_keys(factors):
            pole_guard(c, m.q, m.p, inverse)
    atoms = _atoms(factors, 1, m)
    return [complex(form._tables(1, atoms)[()][0]) for form in forms]


def rhs_closed_form(spec: IntegrandSpec):
    """The family's exact integral value (bare-measure convention)."""
    return closed_form_values([spec])[0]


def make_an1_spec(t, f, m: Moduli) -> IntegrandSpec:
    n = len(t) - 1
    return IntegrandSpec(Family.AN_I, n,
                         ParamSet(t=tuple(t), f=tuple(f)), m)


# -- transformation-identity integrand (shares the factor engine) ---------------


def an_trans_domain_check(tglob, f, s, m: Moduli) -> ValidationResult:
    pq = abs(m.p * m.q)
    n = len(f) - 2
    checks = [InequalityCheck("|t| < 1", abs(tglob), 1.0)]
    for i, v in enumerate(f):
        checks.append(InequalityCheck(f"|f_{i}| < 1", abs(v), 1.0))
    for i, v in enumerate(s):
        checks.append(InequalityCheck(f"|s_{i}| < 1", abs(v), 1.0))
    B = abs(_prod(f)) * abs(tglob) ** (n + 1)
    S = abs(_prod(s)) * abs(tglob) ** (n + 1)
    checks.append(InequalityCheck("|pq| < |t^(n+1) B|", pq, B))
    checks.append(InequalityCheck("|pq| < |t^(n+1) S|", pq, S))
    return ValidationResult(tuple(checks))


def make_an_trans_integrand(tglob, first, second, firstprod, secondprod,
                            m: Moduli) -> FactorIntegrand:
    """Integrand of the f <-> s transformation identity (one side).

    Numerator Gamma(t f_j / z_k, s_j z_k) over all k, j; denominator the
    i != j Gamma(z_i/z_j) cross terms and Gamma(t^{n+1} S z_k, t B / z_k).
    """
    n = len(first) - 2
    G, IG = Kind.GAMMA, Kind.IGAMMA
    return _an(n, m, [(G, tglob * c, -1) for c in first]
               + [(G, c, 1) for c in second]
               + [(IG, cpow(tglob, n + 1) * secondprod, 1),
                  (IG, tglob * firstprod, -1)], [])
