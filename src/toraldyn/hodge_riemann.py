"""Hodge-Riemann machinery on H^{1,1}(T^k, R).

The symmetric form q(c,c') = -intersection(c, c', c_1, ..., c_{k-2}) has an
exact rational Gram matrix whenever the context classes are rational, so
every positivity statement here is decided by exact pivot tests.  Randomness
only ever chooses the contexts, never the decision.

Context classes enter as Hermitian matrices of Gaussian-rational (re, im)
pairs.  The Gram matrix of q comes from one division-free kernel: each
context is scaled to Gaussian-integer entries, the mixed part of the
(k-2)-minors of the context sum is taken by inclusion-exclusion over subset
sums, and the only division is by the product of the scales (the mixed
discriminant is multilinear).  The mixed discriminant is also symmetric, so
the primitive functional X -> X ^ c_1 ^ ... ^ c_{k-1} is -q(X, c_{k-1}) and
costs no second pass.  No matrix is inverted, so singular context sums
(rank-one nef classes) need no special case.  Everything here runs on
Python ints and ``integer_model``."""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .integer_model import (_hermitian_cells, gaussian_det,
                            hermitian_basis_sparse, hermitian_real_form,
                            symmetric_definiteness)

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
    """``(rows, cols, sign, v)`` of the second partial derivative
    d^2 det / dF[r_1][c_1] dF[r_2][c_2] times v_1 v_2, for cells
    (r_i, c_i, v_i) with Gaussian-integer v_i: the partial is the minor
    without ``rows`` and ``cols`` (ascending), signed by (-1)^(sum r +
    sum c) and by the parities of the row and column orders, and v is the
    product of the v_i.  None when the cells share a row or a column, where
    the partial vanishes."""
    (r1, c1, z1), (r2, c2, z2) = cells
    if r1 == r2 or c1 == c2:
        return None
    sign = (-1) ** (r1 + r2 + c1 + c2 + (r1 > r2) + (c1 > c2))
    v = (z1[0] * z2[0] - z1[1] * z2[1], z1[0] * z2[1] + z1[1] * z2[0])
    return (min(r1, r2), max(r1, r2)), (min(c1, c2), max(c1, c2)), sign, v


@lru_cache(maxsize=None)
def _partial_terms(k: int) -> dict:
    """For each pair a <= b of Hermitian basis indices, the nonzero
    ``_partial_term``s of every choice of one entry cell from each of the
    two basis matrices."""
    sparse = hermitian_basis_sparse(k)
    table = {}
    for a, b in itertools.combinations_with_replacement(range(len(sparse)),
                                                        2):
        terms = (_partial_term(cells)
                 for cells in itertools.product(sparse[a], sparse[b]))
        table[a, b] = tuple(t for t in terms if t is not None)
    return table


def _mixed_partials(mixed, k: int) -> dict:
    """Real part of the mixed second partial at each pair a <= b of
    Hermitian basis matrices, scaled like ``mixed``."""
    return {ab: sum(sign * (mixed[R, C][0] * v[0] - mixed[R, C][1] * v[1])
                    for R, C, sign, v in terms)
            for ab, terms in _partial_terms(k).items()}


def _q_gram(contexts, k: int):
    """``(G, scale)``: G, minus the mixed second partials as ints, over
    ``scale`` is the Gram matrix of q over the real Hermitian basis.

    q(X, Y) is minus the mixed part of the st coefficient of
    det(F + sX + tY), i.e. minus the sum of X[r1][c1] Y[r2][c2] times the
    mixed (k-2)-minor of the contexts without rows r1, r2 and columns
    c1, c2.  Each basis matrix has at most two entries, so an entry costs
    at most four products."""
    if len(contexts) != k - 2:
        raise ValueError("q needs exactly k-2 context classes")
    mixed, scale = _mixed_minors(contexts, k)
    nb = len(hermitian_basis_sparse(k))
    G = [[0] * nb for _ in range(nb)]
    for (a, b), val in _mixed_partials(mixed, k).items():
        G[a][b] = G[b][a] = -val
    return G, scale


def _functional(G, M):
    """``(ell, s)``: ell over ``s`` is -G x, as ints, with x the coordinates
    of the Hermitian matrix M of Gaussian-rational pairs (in
    ``_hermitian_cells`` order: a diagonal entry, or the real and imaginary
    parts of an entry above it).  With G from ``_q_gram``, ell is
    X -> -q(X, M) times the scale of G."""
    x = [v for j, l in _hermitian_cells(len(M))
         for v in (M[j][j][:1] if j == l else M[j][l])]
    s = math.lcm(*(v.denominator for v in x))
    x = [int(v * s) for v in x]
    return [-sum(g * c for g, c in zip(row, x) if c) for row in G], s


def q_gram_fractions(contexts, k: int):
    """Gram matrix of q(.,.) over the real Hermitian basis, as Fractions;
    contexts: k-2 Hermitian Gaussian-rational (re, im) matrices."""
    G, scale = _q_gram(contexts, k)
    return [[Fraction(g, scale) for g in row] for row in G]


def primitive_functional_fractions(contexts, k: int):
    """Linear functional X -> intersection(X, c_1, ..., c_{k-1}) =
    -q(X, c_{k-1}) over the Hermitian basis, as Fractions; its kernel is the
    primitive hyperplane."""
    if len(contexts) != k - 1:
        raise ValueError("primitive space needs k-1 context classes")
    G, scale = _q_gram(contexts[:-1], k)
    ell, s = _functional(G, contexts[-1])
    return [Fraction(v, scale * s) for v in ell]


def _kernel_of_functional(ell):
    """Integer vectors spanning the kernel of a rational functional; None
    when it vanishes."""
    n = len(ell)
    den = math.lcm(*(v.denominator for v in ell))
    ints = [int(v * den) for v in ell]
    g = math.gcd(*ints)
    piv = next((i for i, v in enumerate(ints) if v != 0), None)
    if piv is None:
        return None
    ell = [v // g for v in ints]
    basis = []
    for i in range(n):
        if i == piv:
            continue
        # integer-scaled kernel vector ell[piv] e_i - ell[i] e_piv
        v = [0] * n
        v[i] = ell[piv]
        v[piv] = -ell[i]
        basis.append(v)
    return basis


def restrict_symmetric(G, vectors):
    """B^T G B, as ints, for an integer symmetric G and a list of integer
    coordinate vectors; the product is taken over the nonzero coordinates
    of each vector."""
    n = len(G)
    m = len(vectors)
    support = [[(j, v[j]) for j in range(n) if v[j]] for v in vectors]
    GB = [[sum(G[i][j] * c for j, c in nz) for i in range(n)]
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
    passed: bool
    witness: list | None = None


@dataclass
class FuzzReport:
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
    when the context wedge vanishes and there is no such hyperplane.  One
    mixed-minor pass: the functional -q(., c_{k-1}) is read off the Gram
    matrix, and both are positive multiples of the true ones."""
    G, _ = _q_gram(mats[:-1], k)
    basis = _kernel_of_functional(_functional(G, mats[-1])[0])
    if basis is None:
        return None
    return symmetric_definiteness(restrict_symmetric(G, basis))


def hodge_riemann_definite(mat) -> PositivityReport:
    """Classical Hodge-Riemann: q is positive definite on the primitive
    hyperplane of a Kahler class M = A + iB of Gaussian-rational (re, im)
    pairs ([[A, -B], [B, A]] > 0); certified by exact rational pivots."""
    k = len(mat)
    if not symmetric_definiteness(hermitian_real_form(mat))[1]:
        raise ValueError("the Hodge-Riemann check requires a Kahler class")
    # omega^k > 0, so the primitive space of omega is a hyperplane
    _, pd, witness = _primitive_q_definiteness([mat] * (k - 1), k)
    return PositivityReport(pd, witness)


def _random_pd_context(rng: random.Random, k: int):
    """Random positive-definite Gaussian-integer Hermitian matrix B B* + I,
    the entries of B with parts in [-2, 2]."""
    B = [[(rng.randint(-2, 2), rng.randint(-2, 2))
          for _ in range(k)] for _ in range(k)]
    # (B B*)[i][j] = sum_l B[i][l] conj(B[j][l])
    return [[(sum(a[0] * b[0] + a[1] * b[1] for a, b in zip(B[i], B[j]))
              + int(i == j),
              sum(a[1] * b[0] - a[0] * b[1] for a, b in zip(B[i], B[j])))
             for j in range(k)] for i in range(k)]


def gromov_fuzz(k: int, samples: int, seed: int) -> FuzzReport:
    """Seeded Thm-3.3 suite: random PD integer contexts, exact PSD pivots."""
    rng = random.Random(seed)
    report = FuzzReport(samples, seed)
    for s in range(samples):
        mats = [_random_pd_context(rng, k) for _ in range(k - 1)]
        decided = _primitive_q_definiteness(mats, k)
        if decided is None:
            report.degenerate_skipped += 1
        elif not decided[0]:
            report.failures.append((s, decided[2]))
    return report
