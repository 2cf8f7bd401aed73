"""Hodge-Riemann machinery on H^{1,1}(T^k, R).

The symmetric form q(c,c') = -intersection(c, c', c_1, ..., c_{k-2}) has an
exact rational Gram matrix whenever the context classes are rational, so
every positivity statement here is decided by exact pivot tests.  Randomness
only ever chooses the contexts, never the decision.

The hot paths (criterion-level fuzz suites) run on plain Fraction pairs
(re, im) instead of sympy expressions; the generic entry points accept
CohomClass values and fall back to the exact sympy class algebra when the
entries are not Gaussian rationals.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import sympy as sp
from sympy import Matrix, Rational

from .cohomology import (
    CohomClass,
    TorusAutomorphism,
    hermitian_basis,
    hermitian_coords,
    intersection_number,
    is_kahler,
    is_nef,
    pullback,
    wedge,
    wedge_all,
)
from .exact_algebra import exact_is_zero, exact_sign

# ---------------------------------------------------------------------------
# Gaussian-rational matrices as tuples of (re, im) Fractions


class _NotRational(Exception):
    pass


def _to_frac_pair(v):
    v = sp.sympify(v)
    re, im = v.as_real_imag()
    if not (re.is_Rational and im.is_Rational):
        raise _NotRational(v)
    return (Fraction(re.p, re.q), Fraction(im.p, im.q))


def gmat_from_class(c: CohomClass):
    H = c.to_hermitian()
    k = H.rows
    return [[_to_frac_pair(H[i, j]) for j in range(k)] for i in range(k)]


def _gmat_from_sym(H: Matrix):
    return [[_to_frac_pair(H[i, j]) for j in range(H.cols)] for i in range(H.rows)]


def _gadd(A, B):
    return [[(a[0] + b[0], a[1] + b[1]) for a, b in zip(ra, rb)]
            for ra, rb in zip(A, B)]


def _gmul_s(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gmatmul(A, B):
    n = len(A)
    m = len(B[0])
    p = len(B)
    out = []
    for i in range(n):
        row = []
        Ai = A[i]
        for j in range(m):
            re = 0
            im = 0
            for l in range(p):
                a = Ai[l]
                b = B[l][j]
                re += a[0] * b[0] - a[1] * b[1]
                im += a[0] * b[1] + a[1] * b[0]
            row.append((re, im))
        out.append(row)
    return out


def _gtrace(A):
    re = sum(A[i][i][0] for i in range(len(A)))
    im = sum(A[i][i][1] for i in range(len(A)))
    return (re, im)


def _gtrace_prod(A, B):
    """trace(A @ B) without forming the product."""
    n = len(A)
    re = 0
    im = 0
    for i in range(n):
        for j in range(n):
            a = A[i][j]
            b = B[j][i]
            re += a[0] * b[0] - a[1] * b[1]
            im += a[0] * b[1] + a[1] * b[0]
    return (re, im)


def _gdet(A):
    """Exact determinant by cofactor expansion (matrices here are tiny)."""
    n = len(A)
    if n == 1:
        return A[0][0]
    if n == 2:
        return (A[0][0][0] * A[1][1][0] - A[0][0][1] * A[1][1][1]
                - A[0][1][0] * A[1][0][0] + A[0][1][1] * A[1][0][1],
                A[0][0][0] * A[1][1][1] + A[0][0][1] * A[1][1][0]
                - A[0][1][0] * A[1][0][1] - A[0][1][1] * A[1][0][0])
    re = 0
    im = 0
    sign = 1
    for j in range(n):
        a = A[0][j]
        if a[0] or a[1]:
            sub = [row[:j] + row[j + 1:] for row in A[1:]]
            d = _gdet(sub)
            v = _gmul_s(a, d)
            re += sign * v[0]
            im += sign * v[1]
        sign = -sign
    return (re, im)


def _ginv(A):
    """Exact inverse via Gaussian elimination; returns None when singular."""
    n = len(A)
    M = [[A[i][j] for j in range(n)] +
         [((Fraction(1) if i == j else Fraction(0)), Fraction(0))
          for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n)
                    if M[r][col][0] or M[r][col][1]), None)
        if piv is None:
            return None
        M[col], M[piv] = M[piv], M[col]
        p = M[col][col]
        den = p[0] * p[0] + p[1] * p[1]
        pinv = (p[0] / den, -p[1] / den)
        M[col] = [_gmul_s(pinv, v) for v in M[col]]
        for r in range(n):
            if r != col and (M[r][col][0] or M[r][col][1]):
                f = M[r][col]
                M[r] = [(v[0] - (f[0] * w[0] - f[1] * w[1]),
                         v[1] - (f[0] * w[1] + f[1] * w[0]))
                        for v, w in zip(M[r], M[col])]
    return [row[n:] for row in M]


def _hermitian_basis_frac(k: int):
    out = []
    for E in hermitian_basis(k):
        out.append(_gmat_from_sym(Matrix(E)))
    return out


def _hermitian_basis_sparse(k: int):
    """Each basis matrix as a short list of (row, col, (re, im)) entries."""
    out = []
    for E in hermitian_basis(k):
        E = Matrix(E)
        entries = []
        for i in range(k):
            for j in range(k):
                v = E[i, j]
                if v != 0:
                    re, im = v.as_real_imag()
                    entries.append((i, j, (int(re), int(im))))
        out.append(entries)
    return out


def _as_int_mats(mats):
    """Convert Fraction-pair matrices to int pairs, or None if not integral."""
    out = []
    for M in mats:
        rows = []
        for row in M:
            r = []
            for re, im in row:
                if re.denominator != 1 or im.denominator != 1:
                    return None
                r.append((int(re), int(im)))
            rows.append(r)
        out.append(rows)
    return out


def _adjugate_int(A):
    """Adjugate of a complex-integer matrix: adj(A) A = det(A) I."""
    n = len(A)
    if n == 1:
        return [[(1, 0)]]
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            sub = [[A[r][c] for c in range(n) if c != j]
                   for r in range(n) if r != i]
            d = _gdet(sub)
            s = (-1) ** (i + j)
            adj[j][i] = (s * d[0], s * d[1])
    return adj


def _sparse_left_mul(A, entries, n):
    """A @ X for sparse X given as (row, col, value) entries."""
    P = [[(0, 0)] * n for _ in range(n)]
    for j, c, v in entries:
        for r in range(n):
            a = A[r][j]
            cur = P[r][c]
            P[r][c] = (cur[0] + a[0] * v[0] - a[1] * v[1],
                       cur[1] + a[0] * v[1] + a[1] * v[0])
    return P


# ---------------------------------------------------------------------------
# mixed-discriminant coefficients (exact, on Fraction-pair matrices)


def _subset_sums(mats, k, zero_scalar=Fraction(0)):
    """All subset sums of a list of matrices, keyed by frozenset of indices."""
    n = len(mats)
    zero = [[(zero_scalar, zero_scalar)] * k for _ in range(k)]
    sums = {frozenset(): zero}
    for bits in range(1, 1 << n):
        idx = frozenset(i for i in range(n) if bits >> i & 1)
        i = max(idx)
        prev = sums[idx - {i}]
        sums[idx] = _gadd(prev, mats[i])
    return sums


def q_gram_fractions(contexts, k: int):
    """Gram matrix of q(.,.) over the real Hermitian basis, as Fractions.

    contexts: k-2 Hermitian Fraction-pair matrices.  Uses the trace formula
    det(F) (tr(F^-1 X) tr(F^-1 Y) - tr(F^-1 X F^-1 Y)) over nonempty context
    subset sums when those are invertible, else the 2^k finite-difference
    determinant expansion.
    """
    basis = _hermitian_basis_frac(k)
    nb = len(basis)
    m = len(contexts)
    if m != k - 2:
        raise ValueError("q needs exactly k-2 context classes")
    G = [[Fraction(0)] * nb for _ in range(nb)]
    if k == 2:
        # D(X, Y) = tr X tr Y - tr(XY)
        for a in range(nb):
            ta = _gtrace(basis[a])
            for b in range(a, nb):
                tb = _gtrace(basis[b])
                tab = _gtrace_prod(basis[a], basis[b])
                val = -(ta[0] * tb[0] - ta[1] * tb[1] - tab[0])
                G[a][b] = G[b][a] = val
        return G
    int_ctx = _as_int_mats(contexts)
    if int_ctx is not None:
        sums = _subset_sums(int_ctx, k, zero_scalar=0)
        dets = {idx: _gdet(F)[0] for idx, F in sums.items() if idx}
        if all(dets.values()):
            # B_T(X,Y) = (tr(A X) tr(A Y) - tr(A X A Y)) / det(F_T) with the
            # integer adjugate A of F_T; everything but the final division
            # stays in machine/big integers.
            sparse = _hermitian_basis_sparse(k)
            for idx, F in sums.items():
                if not idx:
                    continue
                sign = (-1) ** (m - len(idx))
                A = _adjugate_int(F)
                P = [_sparse_left_mul(A, E, k) for E in sparse]
                traces = [_gtrace(p) for p in P]
                d = dets[idx]
                for a in range(nb):
                    ta = traces[a]
                    Pa = P[a]
                    for b in range(a, nb):
                        tb = traces[b]
                        t = _gtrace_prod(Pa, P[b])
                        num = ta[0] * tb[0] - ta[1] * tb[1] - t[0]
                        G[a][b] -= sign * Fraction(num, d)
            for a in range(nb):
                for b in range(a):
                    G[a][b] = G[b][a]
            return G
    sums = _subset_sums(contexts, k)
    fast = True
    inverses = {}
    for idx, F in sums.items():
        if not idx:
            continue
        inv = _ginv(F)
        if inv is None:
            fast = False
            break
        inverses[idx] = (inv, _gdet(F))
    if fast:
        for idx, (Finv, detF) in inverses.items():
            sign = (-1) ** (m - len(idx))
            P = [_gmatmul(Finv, E) for E in basis]
            traces = [_gtrace(p) for p in P]
            for a in range(nb):
                for b in range(a, nb):
                    t = _gtrace_prod(P[a], P[b])
                    bt = (traces[a][0] * traces[b][0]
                          - traces[a][1] * traces[b][1] - t[0])
                    contrib = -sign * (detF[0] * bt)
                    # det and the bilinear part are real for Hermitian input
                    G[a][b] += contrib
        for a in range(nb):
            for b in range(a):
                G[a][b] = G[b][a]
        return G
    # finite-difference fallback: D = sum over subsets of all k slots
    det_cache = {}

    def det_of(idx, extra):
        key = (idx, extra)
        if key not in det_cache:
            M = sums[idx]
            for e in extra:
                M = _gadd(M, basis[e])
            det_cache[key] = _gdet(M)[0]
        return det_cache[key]

    for a in range(nb):
        for b in range(a, nb):
            val = Fraction(0)
            for idx in sums:
                sign = (-1) ** (m - len(idx))
                val += sign * (det_of(idx, (a, b)) - det_of(idx, (a,))
                               - det_of(idx, (b,)) + det_of(idx, ()))
            G[a][b] = G[b][a] = -val
    return G


def primitive_functional_fractions(contexts, k: int):
    """Linear functional X -> intersection(X, c_1, ..., c_{k-1}) over the
    Hermitian basis; its kernel is the primitive hyperplane."""
    if len(contexts) != k - 1:
        raise ValueError("primitive space needs k-1 context classes")
    int_ctx = _as_int_mats(contexts)
    if int_ctx is not None:
        # linear term of det(F_T + s E) is tr(adj(F_T) E); all integers
        sparse = _hermitian_basis_sparse(k)
        ell = [0] * len(sparse)
        for idx, F in _subset_sums(int_ctx, k, zero_scalar=0).items():
            if not idx:
                continue
            sign = (-1) ** (k - 1 - len(idx))
            A = _adjugate_int(F)
            for a, entries in enumerate(sparse):
                tr = sum(A[c][j][0] * v[0] - A[c][j][1] * v[1]
                         for j, c, v in entries)
                ell[a] += sign * tr
        return [Fraction(v) for v in ell]
    basis = _hermitian_basis_frac(k)
    sums = _subset_sums(contexts, k)
    ell = []
    for E in basis:
        val = Fraction(0)
        for idx, F in sums.items():
            sign = (-1) ** (k - 1 - len(idx))
            val += sign * (_gdet(_gadd(F, E))[0] - _gdet(F)[0])
        ell.append(val)
    return ell


def _kernel_of_functional(ell):
    """Integer-friendly basis of the kernel of a rational functional."""
    n = len(ell)
    den = math.lcm(*(Fraction(v).denominator for v in ell)) if ell else 1
    ints = [int(v * den) for v in ell]
    g = math.gcd(*ints) if any(ints) else 1
    ell = [v // g for v in ints] if g else ints
    piv = next((i for i, v in enumerate(ell) if v != 0), None)
    if piv is None:
        return [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
                for i in range(n)], True
    basis = []
    for i in range(n):
        if i == piv:
            continue
        # integer-scaled kernel vector ell[piv] e_i - ell[i] e_piv
        v = [0] * n
        v[i] = ell[piv]
        v[piv] = -ell[i]
        basis.append(v)
    return basis, False


def restrict_symmetric(G, vectors):
    """B^T G B for a list of coordinate vectors."""
    n = len(G)
    m = len(vectors)
    GB = []
    for v in vectors:
        col = []
        for i in range(n):
            col.append(sum(G[i][j] * v[j] for j in range(n) if v[j]))
        GB.append(col)
    R = [[Fraction(0)] * m for _ in range(m)]
    for a in range(m):
        for b in range(a, m):
            val = sum(vectors[a][i] * GB[b][i] for i in range(n) if vectors[a][i])
            R[a][b] = R[b][a] = val
    return R


def symmetric_definiteness(M):
    """Exact (psd, pd, witness) for a rational symmetric matrix.

    witness is a vector v with v^T M v < 0 when not psd, else None."""
    n = len(M)
    if n == 0:
        return True, True, None
    work = [row[:] for row in M]
    # columns of T express current coordinates in terms of the original ones
    T = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i in range(n)]
    idx = list(range(n))
    pd = True

    def lift(vec_small, active):
        v = [Fraction(0)] * n
        for val, i in zip(vec_small, active):
            for r in range(n):
                v[r] += val * T[r][i]
        return v

    active = list(range(n))
    while active:
        diag = [(i, work[i][i]) for i in active]
        neg = next((i for i, d in diag if d < 0), None)
        if neg is not None:
            w = [Fraction(0)] * len(active)
            w[active.index(neg)] = Fraction(1)
            return False, False, lift(w, active)
        piv = next((i for i, d in diag if d > 0), None)
        if piv is None:
            # all diagonal zero: psd iff all remaining entries vanish
            for i in active:
                for j in active:
                    if work[i][j] != 0:
                        w = [Fraction(0)] * len(active)
                        s = 1 if work[i][j] > 0 else -1
                        w[active.index(i)] = Fraction(1)
                        w[active.index(j)] = Fraction(-s)
                        return False, False, lift(w, active)
            return True, False, None
        d = work[piv][piv]
        rest = [i for i in active if i != piv]
        pivot_row = work[piv][:]
        for i in rest:
            f = pivot_row[i] / d
            if f:
                for j in rest:
                    work[i][j] -= f * pivot_row[j]
                for r in range(n):
                    T[r][i] -= f * T[r][piv]
        active = rest
    return True, pd, None


# ---------------------------------------------------------------------------
# reports


@dataclass
class QForm:
    """The symmetric form q(c,c') = -intersection(c, c', c_1, ..., c_{k-2})
    as an exact rational Gram matrix over the real Hermitian basis."""
    k: int
    context: tuple
    gram: Matrix

    def evaluate(self, c: CohomClass, cprime: CohomClass) -> sp.Expr:
        x = Matrix(hermitian_coords(c.to_hermitian()))
        y = Matrix(hermitian_coords(cprime.to_hermitian()))
        return sp.expand((x.T * self.gram * y)[0])


@dataclass
class PrimitiveSpace:
    k: int
    context: tuple
    basis: list            # coordinate vectors over the Hermitian basis
    degenerate: bool       # context wedge vanished identically


@dataclass
class PositivityReport:
    kind: str              # "hodge_riemann_pd" | "gromov_psd"
    k: int
    passed: bool
    definite: bool
    degenerate: bool = False
    witness: list | None = None
    fuzz: "FuzzReport | None" = None

    @property
    def min_eigenvalue_sign(self) -> int:
        """Certified sign of the smallest restricted eigenvalue."""
        if not self.passed:
            return -1
        return 1 if self.definite else 0


@dataclass
class FuzzReport:
    k: int
    samples: int
    seed: int
    failures: list = field(default_factory=list)
    degenerate_skipped: int = 0

    @property
    def passed(self):
        return not self.failures


def _contexts_to_fractions(classes):
    return [gmat_from_class(c) for c in classes]


def q_form(c: CohomClass, cprime: CohomClass, context) -> sp.Expr:
    """q(c, c') = -intersection(c, c', c_1, ..., c_{k-2}), exact."""
    context = list(context)
    k = c.k
    if len(context) != k - 2:
        raise ValueError("q needs exactly k-2 context classes")
    return sp.expand(-intersection_number([c, cprime, *context]))


def q_gram_matrix(context, k: int) -> Matrix:
    """Exact rational Gram matrix of q over the real Hermitian basis."""
    G = q_gram_fractions(_contexts_to_fractions(context), k)
    return Matrix([[Rational(v.numerator, v.denominator) for v in row]
                   for row in G])


def build_q_form(context, k: int) -> QForm:
    context = tuple(context)
    return QForm(k, context, q_gram_matrix(context, k))


def primitive_space(context) -> PrimitiveSpace:
    """Kernel of c -> c ^ c_1 ^ ... ^ c_{k-1} (a hyperplane when the context
    wedge is nonzero; the full space, flagged degenerate, otherwise)."""
    context = list(context)
    k = context[0].k
    try:
        ell = primitive_functional_fractions(_contexts_to_fractions(context), k)
    except _NotRational:
        basis_cls = [CohomClass.from_hermitian(E) for E in hermitian_basis(k)]
        ell = [intersection_number([b, *context]) for b in basis_cls]
        ell = [Fraction(sp.Rational(v).p, sp.Rational(v).q) for v in ell]
    basis, degenerate = _kernel_of_functional(ell)
    return PrimitiveSpace(k, tuple(context), basis, degenerate)


def check_hodge_riemann_definite(omega: CohomClass) -> PositivityReport:
    """Classical Hodge-Riemann: q is positive definite on the primitive
    hyperplane of a Kahler class; certified by exact rational pivots."""
    if not is_kahler(omega):
        raise ValueError("check_hodge_riemann_definite requires a Kahler class")
    k = omega.k
    ctx = _contexts_to_fractions([omega])[0]
    G = q_gram_fractions([ctx] * (k - 2), k)
    ell = primitive_functional_fractions([ctx] * (k - 1), k)
    basis, degenerate = _kernel_of_functional(ell)
    R = restrict_symmetric(G, basis)
    psd, pd, witness = symmetric_definiteness(R)
    return PositivityReport("hodge_riemann_pd", k, passed=pd, definite=pd,
                            degenerate=degenerate, witness=witness)


def check_gromov_semipositive(context, samples: int = 0,
                              seed: int = 0) -> PositivityReport:
    """Gromov/Timorin semipositivity for one nef context (k-1 classes):
    q (from the first k-2 classes) restricted to the primitive space of the
    full context is PSD; decided by exact pivots.  A vanishing context wedge
    is flagged degenerate and skipped."""
    context = list(context)
    k = context[0].k
    for c in context:
        if not is_nef(c):
            raise ValueError("context classes must be nef")
    try:
        mats = _contexts_to_fractions(context)
        ell = primitive_functional_fractions(mats, k)
        basis, degenerate = _kernel_of_functional(ell)
        if degenerate:
            return PositivityReport("gromov_psd", k, passed=True, definite=False,
                                    degenerate=True)
        G = q_gram_fractions(mats[:k - 2], k)
    except _NotRational:
        raise ValueError("context classes must have Gaussian-rational entries")
    R = restrict_symmetric(G, basis)
    psd, pd, witness = symmetric_definiteness(R)
    fuzz = gromov_fuzz(k, samples, seed) if samples else None
    return PositivityReport("gromov_psd", k, passed=psd and (fuzz is None or fuzz.passed),
                            definite=pd, witness=witness, fuzz=fuzz)


def _random_pd_context(rng: random.Random, k: int, spread: int = 2):
    """Random positive-definite Gaussian-integer Hermitian matrix B B* + I."""
    B = [[(Fraction(rng.randint(-spread, spread)),
           Fraction(rng.randint(-spread, spread))) for _ in range(k)]
         for _ in range(k)]
    Bh = [[(B[j][i][0], -B[j][i][1]) for j in range(k)] for i in range(k)]
    H = _gmatmul(B, Bh)
    for i in range(k):
        H[i][i] = (H[i][i][0] + 1, H[i][i][1])
    return H


def gromov_fuzz(k: int, samples: int, seed: int) -> FuzzReport:
    """Seeded Thm-3.3 suite: random PD integer contexts, exact PSD pivots."""
    rng = random.Random(seed)
    report = FuzzReport(k, samples, seed)
    for s in range(samples):
        mats = [_random_pd_context(rng, k) for _ in range(k - 1)]
        ell = primitive_functional_fractions(mats, k)
        basis, degenerate = _kernel_of_functional(ell)
        if degenerate:
            report.degenerate_skipped += 1
            continue
        G = q_gram_fractions(mats[:k - 2], k)
        R = restrict_symmetric(G, basis)
        psd, _, witness = symmetric_definiteness(R)
        if not psd:
            report.failures.append((s, witness))
    return report


# ---------------------------------------------------------------------------
# colinearity (Cor 3.2) and the (a,b)-pair solver (Cor 3.5)


@dataclass
class ColinearityResult:
    kind: str              # "colinear" | "wedge_nonzero"
    ratio: sp.Expr | None = None


def colinearity_witness(c: CohomClass, cprime: CohomClass) -> ColinearityResult:
    """For nef c, c': either c ^ c' != 0 or the two classes are colinear."""
    if not (is_nef(c) and is_nef(cprime)):
        raise ValueError("colinearity dichotomy requires nef classes")
    w = wedge(c, cprime)
    if not w.is_zero():
        return ColinearityResult("wedge_nonzero")
    # verify colinearity exactly and extract the ratio
    if c.is_zero():
        return ColinearityResult("colinear", ratio=sp.Integer(0))
    if cprime.is_zero():
        return ColinearityResult("colinear", ratio=sp.Integer(0))
    key, base = next(iter(c.coeffs.items()))
    other = cprime.coeffs.get(key, sp.Integer(0))
    ratio = sp.expand(other / base)
    if not (cprime - c.scale(ratio)).is_zero():
        raise AssertionError(
            "THEOREM VIOLATION: nef classes with zero wedge are not colinear")
    return ColinearityResult("colinear", ratio=ratio)


@dataclass
class SolveABResult:
    status: str            # "solved" | "hypothesis_violated"
    a: sp.Expr | None = None
    b: sp.Expr | None = None
    kernel_dimension: int | None = None
    unique: bool | None = None


def _ab_constraint_matrix(c, cprime, context):
    """Rows of the linear system a*u + b*v = 0 ranging over a spanning set."""
    k = c.k
    m = len(context)
    wc = wedge_all([c, *context]) if context else c
    wcp = wedge_all([cprime, *context]) if context else cprime
    extra = k - m - 2
    basis_cls = [CohomClass.from_hermitian(E) for E in hermitian_basis(k)]
    rows = []
    for combo in itertools.combinations_with_replacement(range(len(basis_cls)),
                                                         extra):
        u = wc
        v = wcp
        for i in combo:
            u = wedge(u, basis_cls[i])
            v = wedge(v, basis_cls[i])
        keys = set(u.coeffs) | set(v.coeffs)
        for key in keys:
            uu = u.coeffs.get(key, sp.Integer(0))
            vv = v.coeffs.get(key, sp.Integer(0))
            rows.append((sp.re(uu), sp.re(vv)))
            rows.append((sp.im(uu), sp.im(vv)))
    return Matrix(rows) if rows else sp.zeros(1, 2)


def solve_ab_pair(c: CohomClass, cprime: CohomClass, context) -> SolveABResult:
    """Cor-3.5 solver: find (a,b) != 0 with (a c + b c') ^ context ^ (anything)
    = 0, given c ^ c' ^ context = 0; uniqueness certified when c ^ context != 0.
    """
    context = list(context)
    k = c.k
    if len(context) > k - 2:
        raise ValueError("context may have at most k-2 classes")
    for cl in (c, cprime, *context):
        if not is_nef(cl):
            raise ValueError("all classes must be nef")
    hyp = wedge_all([c, cprime, *context])
    if not hyp.is_zero():
        return SolveABResult("hypothesis_violated")
    M = _ab_constraint_matrix(c, cprime, context)
    ker = M.nullspace()
    if not ker:
        raise AssertionError("THEOREM VIOLATION: Cor 3.5 kernel is empty")
    sol = ker[0]
    res = SolveABResult("solved", a=sp.nsimplify(sol[0]), b=sp.nsimplify(sol[1]),
                        kernel_dimension=len(ker))
    c_ctx = wedge_all([c, *context]) if context else c
    if not c_ctx.is_zero():
        res.unique = len(ker) == 1
        if not res.unique:
            raise AssertionError(
                "THEOREM VIOLATION: Cor 3.5 kernel not one-dimensional")
    return res


# ---------------------------------------------------------------------------
# Lemma 4.3 instance verification


@dataclass
class Lemma43Result:
    status: str            # "holds" | "vacuous" | "violation"
    reason: str = ""


def _class_eigen_holds(g: TorusAutomorphism, cls: CohomClass, lam) -> bool:
    diff = pullback(g, cls) - cls.scale(lam)
    return diff.is_zero()


def lemma_4_3_check(g: TorusAutomorphism, c: CohomClass, cprime: CohomClass,
                    context, lam, lam_prime) -> Lemma43Result:
    """Verify one instance of the eigenclass-wedge lemma exactly.

    Hypotheses: nef classes, g*(ctx^c) = lam ctx^c, g*(ctx^c') = lam' ctx^c',
    lam != lam', ctx^c != 0, ctx^c^c' = 0.  Conclusion: ctx^c' = 0.
    """
    context = list(context)
    for cl in (c, cprime, *context):
        if not is_nef(cl):
            return Lemma43Result("vacuous", "non-nef input class")
    if exact_is_zero(sp.expand(sp.sympify(lam) - sp.sympify(lam_prime))):
        return Lemma43Result("vacuous", "lambda == lambda'")
    if exact_sign(sp.sympify(lam)) <= 0 or exact_sign(sp.sympify(lam_prime)) <= 0:
        return Lemma43Result("vacuous", "eigenvalues must be positive reals")
    ctx_c = wedge_all([*context, c]) if context else c
    ctx_cp = wedge_all([*context, cprime]) if context else cprime
    if ctx_c.is_zero():
        return Lemma43Result("vacuous", "context ^ c = 0")
    if not _class_eigen_holds(g, ctx_c, lam):
        return Lemma43Result("vacuous", "context ^ c is not a lam-eigenclass")
    if not _class_eigen_holds(g, ctx_cp, lam_prime):
        return Lemma43Result("vacuous", "context ^ c' is not a lam'-eigenclass")
    if not wedge(ctx_c, cprime).is_zero():
        return Lemma43Result("vacuous", "context ^ c ^ c' != 0")
    if ctx_cp.is_zero():
        return Lemma43Result("holds")
    return Lemma43Result(
        "violation", "hypotheses hold but context ^ c' != 0")
