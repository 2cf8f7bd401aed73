"""Hodge-Riemann machinery on H^{1,1}(T^k, R).

The symmetric form q(c,c') = -intersection(c, c', c_1, ..., c_{k-2}) has an
exact rational Gram matrix whenever the context classes are rational, so
every positivity statement here is decided by exact pivot tests.  Randomness
only ever chooses the contexts, never the decision.

Context classes enter as Hermitian matrices of Gaussian-rational (re, im)
pairs; any other entry is refused with ``ValueError``.  The Gram matrix of q
and the primitive functional both come from one division-free kernel: each
context is scaled to Gaussian-integer entries, the mixed part of the
relevant minors of the context sum is taken by inclusion-exclusion over
subset sums, and the only division is by the product of the scales at the
end (the mixed discriminant is multilinear).  No matrix is inverted, so
singular context sums (rank-one nef classes) need no special case.

Only the class-level checkers import sympy and ``cohomology`` (at call time):
the fuzz and ``hodge_riemann_definite`` run on ``integer_kernel`` alone."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .integer_kernel import (_integer_rows, gaussian_det,
                             hermitian_basis_sparse, symmetric_definiteness)

if TYPE_CHECKING:
    import sympy as sp
    from .cohomology import CohomClass, TorusAutomorphism

# ---------------------------------------------------------------------------
# Gaussian-rational matrices as lists of (re, im) pairs


def _to_frac_pair(v):
    re, im = v.as_real_imag()
    if not (re.is_Rational and im.is_Rational):
        raise ValueError("context classes must have Gaussian-rational entries")
    return (Fraction(re.p, re.q), Fraction(im.p, im.q))


def gmat_from_class(c: CohomClass):
    rows = c.to_hermitian().tolist()
    return [[_to_frac_pair(v) for v in row] for row in rows]


# ---------------------------------------------------------------------------
# mixed minors: the one exact kernel behind q and the primitive functional


def _mixed_minors(contexts, k: int):
    """Mixed part of the m x m minors of c_1 + ... + c_m.

    Returns ``(mixed, scale)``.  ``mixed[rows, cols]`` is the alternating sum
    over context subsets T of (-1)^(m - |T|) det(F_T) restricted away from
    the removed ``rows`` and ``cols`` (ascending (k-m)-tuples), where F_T
    is the subset sum of the integer-scaled contexts; it is a Gaussian
    integer.  The true mixed minor is ``mixed[rows, cols] / scale``.
    """
    m = len(contexts)
    ints = []
    scale = 1
    for M in contexts:
        # clear denominators; the mixed minor is multilinear in the contexts
        s = math.lcm(*(v.denominator for row in M for z in row for v in z))
        ints.append([[(int(z[0] * s), int(z[1] * s)) for z in row]
                     for row in M])
        scale *= s
    removed = list(itertools.combinations(range(k), k - m))
    # the kept rows (or columns) of each removed tuple
    kept = [(R, [r for r in range(k) if r not in R]) for R in removed]
    mixed = {(R, C): (0, 0) for R in removed for C in removed}
    # the empty subset sums to zero, whose m x m minors vanish when m > 0
    for bits in range(1 if m else 0, 1 << m):
        T = [ints[i] for i in range(m) if bits >> i & 1]
        sign = (-1) ** (m - len(T))
        F = [[(sum(A[r][c][0] for A in T), sum(A[r][c][1] for A in T))
              for c in range(k)] for r in range(k)]
        for R, rows in kept:
            sub = [F[r] for r in rows]
            for C, cols in kept:
                d = gaussian_det([[row[c] for c in cols] for row in sub])
                acc = mixed[R, C]
                mixed[R, C] = (acc[0] + sign * d[0], acc[1] + sign * d[1])
    return mixed, scale


def _partial_term(cells):
    """``(rows, cols, sign, v)`` of the partial derivative
    d^n det / dF[r_1][c_1] ... dF[r_n][c_n] times v_1 ... v_n, for cells
    (r_i, c_i, v_i) with Gaussian-integer v_i: the partial is the minor
    without ``rows`` and ``cols`` (ascending), signed by (-1)^(sum r +
    sum c) and by the parities of the row and column orders, and v is the
    product of the v_i.  None when two cells share a row or a column, where
    the partial vanishes."""
    rows = [r for r, _, _ in cells]
    cols = [c for _, c, _ in cells]
    if len(set(rows)) < len(rows) or len(set(cols)) < len(cols):
        return None
    inversions = sum(a > b for a, b in itertools.combinations(rows, 2))
    inversions += sum(a > b for a, b in itertools.combinations(cols, 2))
    sign = (-1) ** (sum(rows) + sum(cols) + inversions)
    v = (1, 0)
    for _, _, z in cells:
        v = (v[0] * z[0] - v[1] * z[1], v[0] * z[1] + v[1] * z[0])
    return tuple(sorted(rows)), tuple(sorted(cols)), sign, v


@lru_cache(maxsize=None)
def _partial_terms(k: int, order: int) -> dict:
    """For each ascending ``order``-tuple of Hermitian basis indices, the
    nonzero ``_partial_term``s of every choice of one entry cell from each
    basis matrix of the tuple."""
    sparse = hermitian_basis_sparse(k)
    table = {}
    for idx in itertools.combinations_with_replacement(range(len(sparse)),
                                                       order):
        terms = (_partial_term(cells)
                 for cells in itertools.product(*(sparse[i] for i in idx)))
        table[idx] = tuple(t for t in terms if t is not None)
    return table


def _mixed_partials(mixed, k: int, order: int) -> dict:
    """Real part of the mixed partial of order ``order`` at each ascending
    tuple of Hermitian basis matrices, scaled like ``mixed``."""
    return {idx: sum(sign * (mixed[R, C][0] * v[0] - mixed[R, C][1] * v[1])
                     for R, C, sign, v in terms)
            for idx, terms in _partial_terms(k, order).items()}


def q_gram_fractions(contexts, k: int):
    """Gram matrix of q(.,.) over the real Hermitian basis, as Fractions.

    contexts: k-2 Hermitian Gaussian-rational (re, im) matrices.  q(X, Y) is
    minus the mixed part of the st coefficient of det(F + sX + tY), i.e.
    minus the sum of X[r1][c1] Y[r2][c2] times the mixed (k-2)-minor of the
    contexts without rows r1, r2 and columns c1, c2 (signed second partials
    of det).  Each basis matrix has at most two entries, so an entry costs
    at most four products.
    """
    if len(contexts) != k - 2:
        raise ValueError("q needs exactly k-2 context classes")
    mixed, scale = _mixed_minors(contexts, k)
    nb = len(hermitian_basis_sparse(k))
    G = [[Fraction(0)] * nb for _ in range(nb)]
    for (a, b), val in _mixed_partials(mixed, k, 2).items():
        G[a][b] = G[b][a] = Fraction(-val, scale)
    return G


def primitive_functional_fractions(contexts, k: int):
    """Linear functional X -> intersection(X, c_1, ..., c_{k-1}) over the
    Hermitian basis; its kernel is the primitive hyperplane.

    The value on X is the mixed part of the linear term of det(F + sX):
    the sum of X[r][c] times the signed mixed (k-1)-minor without row r and
    column c."""
    if len(contexts) != k - 1:
        raise ValueError("primitive space needs k-1 context classes")
    mixed, scale = _mixed_minors(contexts, k)
    return [Fraction(val, scale)
            for val in _mixed_partials(mixed, k, 1).values()]


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
    """B^T (sG) B, as ints, for a rational symmetric G and a list of integer
    coordinate vectors, where s > 0 is the lcm of the denominators of G.  A
    positive scale keeps every sign, so definiteness is read from it; the
    product is taken over the nonzero coordinates of each vector."""
    n = len(G)
    m = len(vectors)
    Gi, _ = _integer_rows(G)
    support = [[(j, v[j]) for j in range(n) if v[j]] for v in vectors]
    GB = [[sum(Gi[i][j] * c for j, c in nz) for i in range(n)]
          for nz in support]
    R = [[0] * m for _ in range(m)]
    for a in range(m):
        for b in range(a, m):
            R[a][b] = R[b][a] = sum(c * GB[b][i] for i, c in support[a])
    return R


# ---------------------------------------------------------------------------
# reports


@dataclass
class PositivityReport:
    kind: str              # "hodge_riemann_pd" | "gromov_psd"
    k: int
    passed: bool
    definite: bool
    degenerate: bool = False
    witness: list | None = None
    fuzz: "FuzzReport | None" = None


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


def _primitive_q_definiteness(mats, k: int):
    """Exact ``(psd, pd, witness)`` of q, built from the first k-2 of the
    k-1 contexts ``mats``, on the primitive hyperplane of all of them; None
    when the context wedge vanishes and there is no such hyperplane."""
    ell = primitive_functional_fractions(mats, k)
    basis, degenerate = _kernel_of_functional(ell)
    if degenerate:
        return None
    R = restrict_symmetric(q_gram_fractions(mats[:k - 2], k), basis)
    return symmetric_definiteness(R)


def hodge_riemann_definite(mat) -> PositivityReport:
    """Classical Hodge-Riemann: q is positive definite on the primitive
    hyperplane of a Kahler class M = A + iB of Gaussian-rational (re, im)
    pairs ([[A, -B], [B, A]] > 0); certified by exact rational pivots."""
    k = len(mat)
    real = ([[z[0] for z in row] + [-z[1] for z in row] for row in mat]
            + [[z[1] for z in row] + [z[0] for z in row] for row in mat])
    if not symmetric_definiteness(real)[1]:
        raise ValueError("the Hodge-Riemann check requires a Kahler class")
    # omega^k > 0, so the primitive space of omega is a hyperplane
    _, pd, witness = _primitive_q_definiteness([mat] * (k - 1), k)
    return PositivityReport("hodge_riemann_pd", k, passed=pd, definite=pd,
                            witness=witness)


def check_hodge_riemann_definite(omega: CohomClass) -> PositivityReport:
    """``hodge_riemann_definite`` of a real (1,1)-class."""
    if not omega.is_real():
        raise ValueError("the Hodge-Riemann check requires a Kahler class")
    return hodge_riemann_definite(gmat_from_class(omega))


def check_gromov_semipositive(context, samples: int = 0,
                              seed: int = 0) -> PositivityReport:
    """Gromov/Timorin semipositivity for one nef context (k-1 classes):
    q (from the first k-2 classes) restricted to the primitive space of the
    full context is PSD; decided by exact pivots.  A vanishing context wedge
    is flagged degenerate and skipped."""
    from .cohomology import is_nef
    context = list(context)
    k = context[0].k
    for c in context:
        if not is_nef(c):
            raise ValueError("context classes must be nef")
    mats = [gmat_from_class(c) for c in context]
    decided = _primitive_q_definiteness(mats, k)
    if decided is None:
        return PositivityReport("gromov_psd", k, passed=True, definite=False,
                                degenerate=True)
    psd, pd, witness = decided
    fuzz = gromov_fuzz(k, samples, seed) if samples else None
    return PositivityReport("gromov_psd", k, passed=psd and (fuzz is None or fuzz.passed),
                            definite=pd, witness=witness, fuzz=fuzz)


def _random_pd_context(rng: random.Random, k: int, spread: int = 2):
    """Random positive-definite Gaussian-integer Hermitian matrix B B* + I."""
    B = [[(rng.randint(-spread, spread), rng.randint(-spread, spread))
          for _ in range(k)] for _ in range(k)]
    # (B B*)[i][j] = sum_l B[i][l] conj(B[j][l])
    return [[(sum(a[0] * b[0] + a[1] * b[1] for a, b in zip(B[i], B[j]))
              + int(i == j),
              sum(a[1] * b[0] - a[0] * b[1] for a, b in zip(B[i], B[j])))
             for j in range(k)] for i in range(k)]


def gromov_fuzz(k: int, samples: int, seed: int) -> FuzzReport:
    """Seeded Thm-3.3 suite: random PD integer contexts, exact PSD pivots."""
    rng = random.Random(seed)
    report = FuzzReport(k, samples, seed)
    for s in range(samples):
        mats = [_random_pd_context(rng, k) for _ in range(k - 1)]
        decided = _primitive_q_definiteness(mats, k)
        if decided is None:
            report.degenerate_skipped += 1
        elif not decided[0]:
            report.failures.append((s, decided[2]))
    return report


# ---------------------------------------------------------------------------
# colinearity (Cor 3.2) and the (a,b)-pair solver (Cor 3.5)


@dataclass
class ColinearityResult:
    kind: str              # "colinear" | "wedge_nonzero"
    # when set, c' = ratio * c; None when c = 0 and c' != 0
    ratio: sp.Expr | None = None


def colinearity_witness(c: CohomClass, cprime: CohomClass) -> ColinearityResult:
    """For nef c, c': either c ^ c' != 0 or the two classes are colinear."""
    import sympy as sp
    from .cohomology import is_nef, wedge
    if not (is_nef(c) and is_nef(cprime)):
        raise ValueError("colinearity dichotomy requires nef classes")
    w = wedge(c, cprime)
    if not w.is_zero():
        return ColinearityResult("wedge_nonzero")
    # verify colinearity exactly and extract the ratio
    if c.is_zero():
        # c = 0 is colinear with anything, but only c' = 0 is a multiple of it
        return ColinearityResult("colinear",
                                 ratio=sp.Integer(0) if cprime.is_zero() else None)
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
    import sympy as sp
    from .cohomology import CohomClass, hermitian_basis, wedge, wedge_all
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
    return sp.Matrix(rows) if rows else sp.zeros(1, 2)


def solve_ab_pair(c: CohomClass, cprime: CohomClass, context) -> SolveABResult:
    """Cor-3.5 solver: find (a,b) != 0 with (a c + b c') ^ context ^ (anything)
    = 0, given c ^ c' ^ context = 0; uniqueness certified when c ^ context != 0.
    """
    import sympy as sp
    from .cohomology import is_nef, wedge_all
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


def lemma_4_3_check(g: TorusAutomorphism, c: CohomClass, cprime: CohomClass,
                    context, lam, lam_prime) -> Lemma43Result:
    """Verify one instance of the eigenclass-wedge lemma exactly.

    Hypotheses: nef classes, g*(ctx^c) = lam ctx^c, g*(ctx^c') = lam' ctx^c',
    lam != lam', ctx^c != 0, ctx^c^c' = 0.  Conclusion: ctx^c' = 0.
    """
    import sympy as sp
    from .cohomology import is_nef, pullback, wedge, wedge_all
    from .exact_algebra import exact_is_zero, exact_sign
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
    if not (pullback(g, ctx_c) - ctx_c.scale(lam)).is_zero():
        return Lemma43Result("vacuous", "context ^ c is not a lam-eigenclass")
    if not (pullback(g, ctx_cp) - ctx_cp.scale(lam_prime)).is_zero():
        return Lemma43Result("vacuous", "context ^ c' is not a lam'-eigenclass")
    if not wedge(ctx_c, cprime).is_zero():
        return Lemma43Result("vacuous", "context ^ c ^ c' != 0")
    if ctx_cp.is_zero():
        return Lemma43Result("holds")
    return Lemma43Result(
        "violation", "hypotheses hold but context ^ c' != 0")
