"""The integer model of torus automorphisms, on Python ints alone.

The linear part of an automorphism of T^k = (C/Z[i])^k is a Gaussian-integer
matrix of unit determinant, held as ``(re, im)`` pairs of ints.  Every fact
about it that is an integer fact is decided here, loading neither sympy nor
mpmath: the determinant, the compounds and the action on H^{1,1}, the
characteristic polynomial, zero entropy (Kronecker: a product of cyclotomic
polynomials), the multiplicative order and the classification, the dynamical
degrees of a zero-entropy automorphism, definiteness of a real symmetric
matrix of rationals and of the integer real form of a Hermitian one over
Q(i), the Hermite and LLL lattice reductions, and the builtin catalog.  So
a family whose generators all have zero entropy is analyzed on integers
alone; only a positive-entropy generator reaches the certified algebraic
reals of ``cohomology`` and ``exact_algebra``.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from . import ExactAlgebraError

INFINITE_ORDER = "infinite"

POSITIVE_ENTROPY = "positive_entropy"
PARABOLIC = "parabolic"
FINITE_ORDER = "finite_order_on_cohomology"


def _square_and_multiply(mul, base, one, n: int):
    """base^n for n >= 0 under the associative product ``mul``."""
    acc = one
    for bit in bin(n)[2:]:
        acc = mul(acc, acc)
        if bit == "1":
            acc = mul(acc, base)
    return acc


def _pair_dot(xs, ys) -> tuple:
    """sum x y over two sequences of Gaussian-integer pairs, as far as the
    shorter one goes."""
    re = im = 0
    for (a, b), (c, d) in zip(xs, ys):
        re += a * c - b * d
        im += a * d + b * c
    return re, im


def _pair_product(P, Q) -> tuple:
    """Product of two square matrices of Gaussian-integer pairs."""
    return tuple(tuple(_pair_dot(row, col) for col in zip(*Q)) for row in P)


# ---------------------------------------------------------------------------
# (re, im) pairs: Gaussian integers on ints, Gaussian rationals on Fractions


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _cadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _csub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def _cabs2(a):
    return a[0] * a[0] + a[1] * a[1]


def _cpoly_mul(a, b) -> list:
    """Product of two polynomials with pair coefficients, both given
    leading first or both ascending."""
    out = [(0, 0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = _cadd(out[i + j], _cmul(x, y))
    return out


def _cdiv(a, b):
    n = Fraction(_cabs2(b))
    return ((a[0] * b[0] + a[1] * b[1]) / n, (a[1] * b[0] - a[0] * b[1]) / n)


def gaussian_det(rows) -> tuple:
    """Determinant of a square matrix of Gaussian integers, given and
    returned as ``(re, im)`` pairs ((1, 0) for the 0 x 0 matrix), by
    fraction-free Bareiss elimination (Bareiss, Math. Comp. 22, 1968): after
    step t, entry (i, j) is the minor over rows and columns 0..t and (i, j),
    so dividing it by the previous pivot q (times conj(q), over |q|^2) is
    exact.  A zero pivot swaps in a later row and flips the sign."""
    M = [list(row) for row in rows]
    n, sign, (qr, qi) = len(M), 1, (1, 0)
    for t in range(n - 1):
        if not any(M[t][t]):
            swap = next((i for i in range(t + 1, n) if any(M[i][t])), None)
            if swap is None:
                return (0, 0)
            M[t], M[swap], sign = M[swap], M[t], -sign
        (pr, pi), norm = M[t][t], qr * qr + qi * qi
        for row in M[t + 1:]:
            ar, ai = row[t]
            for j in range(t + 1, n):
                (xr, xi), (br, bi) = row[j], M[t][j]
                ur = pr * xr - pi * xi - ar * br + ai * bi
                ui = pr * xi + pi * xr - ar * bi - ai * br
                row[j] = ((ur * qr + ui * qi) // norm,
                          (ui * qr - ur * qi) // norm)
        qr, qi = pr, pi
    re, im = M[-1][-1] if n else (1, 0)
    return sign * re, sign * im


# ---------------------------------------------------------------------------
# automorphisms and the groups they generate


def _gaussian_integer(v) -> tuple:
    """``v`` as the integer pair ``(re, im)`` of a Gaussian integer: an int
    or an ``(re, im)`` pair of ints; anything else raises ``ValueError``."""
    if isinstance(v, int):
        return int(v), 0
    if (isinstance(v, tuple) and len(v) == 2
            and all(isinstance(x, int) for x in v)):
        return int(v[0]), int(v[1])
    raise ValueError("entries must be Gaussian integers")


def _pair_str(z) -> str:
    """A Gaussian integer pair as sympy prints ``re + im*I``."""
    re, im = z
    if not im:
        return str(re)
    imag = "I" if abs(im) == 1 else f"{abs(im)}*I"
    if not re:
        return imag if im > 0 else "-" + imag
    return f"{re} {'+' if im > 0 else '-'} {imag}"


class TorusAutomorphism:
    """Linear part of an automorphism of T^k: a Gaussian-integer matrix
    with unit determinant.  Its canonical entries are the integer pairs
    ``pairs[i][j] = (re, im)``, so ``==``, ``hash``, ``compose`` and
    ``power`` are integer arithmetic.  Translations act trivially on
    cohomology and are not modeled.

    The rows (lists or tuples) hold ints or ``(re, im)`` pairs of ints."""

    def __init__(self, rows, name: str = ""):
        k = len(rows)
        if k == 0 or any(not isinstance(row, (list, tuple)) or len(row) != k
                         for row in rows):
            raise ValueError("matrix must be square and nonempty")
        self.pairs = tuple(tuple(map(_gaussian_integer, row))
                           for row in rows)
        self.k = k
        self.name = name or f"aut_{self.k}"
        d = gaussian_det(self.pairs)
        if d not in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            raise ValueError(f"determinant {_pair_str(d)} is not a unit of "
                             "Z[i]")

    @classmethod
    def _from_pairs(cls, pairs, name: str) -> "TorusAutomorphism":
        """A product of automorphisms, so its determinant is a unit."""
        out = cls.__new__(cls)
        out.pairs, out.k, out.name = pairs, len(pairs), name
        return out

    @cached_property
    def charpoly(self) -> tuple:
        """det(xI - A) over Z[i] as ``(re, im)`` pairs, leading first."""
        return gaussian_charpoly(self.pairs)

    def inverse(self) -> "TorusAutomorphism":
        """conj(u) adj(A) for the unit u = det A.  Row and column i of
        compound(f, k-1) omit index k-1-i, as the subsets ascend, so
        adj(A)[i][j] = (-1)^(i+j) compound(f, k-1)[k-1-i][k-1-j]."""
        ur, ui = gaussian_det(self.pairs)
        return self._from_pairs(tuple(
            tuple(((-1) ** (i + j) * (ur * cr + ui * ci),
                   (-1) ** (i + j) * (ur * ci - ui * cr))
                  for j, (cr, ci) in enumerate(reversed(row)))
            for i, row in enumerate(reversed(compound(self, self.k - 1)))),
            self.name + "^-1")

    def compose(self, other: "TorusAutomorphism") -> "TorusAutomorphism":
        return self._from_pairs(_pair_product(self.pairs, other.pairs),
                                f"{self.name}*{other.name}")

    def power(self, n: int) -> "TorusAutomorphism":
        """f^n by repeated squaring on the integer pairs."""
        base = (self if n >= 0 else self.inverse()).pairs
        acc = _square_and_multiply(_pair_product, base,
                                   _identity(self.k).pairs, abs(n))
        return self._from_pairs(acc, f"{self.name}^{n}" if n else "id")

    def __eq__(self, other):
        return isinstance(other, TorusAutomorphism) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        return f"TorusAutomorphism({self.name}, k={self.k})"


def _identity(k: int, name: str = "id") -> TorusAutomorphism:
    return TorusAutomorphism._from_pairs(tuple(
        tuple((int(i == j), 0) for j in range(k)) for i in range(k)), name)


@dataclass(frozen=True)
class GroupSpec:
    """Finitely many torus automorphisms generating a matrix group."""
    generators: tuple

    def __post_init__(self):
        gens = tuple(self.generators)
        if not gens:
            raise ValueError("at least one generator required")
        k = gens[0].k
        if any(g.k != k for g in gens):
            raise ValueError("generators must act on the same torus")
        object.__setattr__(self, "generators", gens)

    @property
    def k(self) -> int:
        return self.generators[0].k

    @property
    def n(self) -> int:
        return len(self.generators)


# ---------------------------------------------------------------------------
# Hermitian forms: exact definiteness and the integer Hermitian basis


def hermitian_real_form(pairs) -> list:
    """The real form [[Re, -Im], [Im, Re]] of a matrix of ``(re, im)`` pairs;
    of a Hermitian one it is symmetric, and x^H M x for x = p + iq is the
    form at (p, q), so both have the same definiteness."""
    return ([[z[0] for z in row] + [-z[1] for z in row] for row in pairs]
            + [[z[1] for z in row] + [z[0] for z in row] for row in pairs])


def symmetric_definiteness(M):
    """Exact ``(psd, pd, witness)`` of a real symmetric matrix given as rows
    of rationals (any ``numbers.Rational``: ints, Fractions), by pivoted
    LDL^T elimination; a Hermitian matrix over Q(i) is decided on its
    ``hermitian_real_form``.  Any other entry raises ``ExactAlgebraError``.

    ``witness`` is a vector v with v^T M v < 0 when M is not psd, else None.

    The rows are scaled to integers once, and the update is fraction-free
    (Bareiss 1968): with pivot d, entry (i, j) becomes (d M_ij - M_i,piv
    M_piv,j) / prev, divided exactly by the previous pivot.  An entry is
    then the minor of the scaled matrix over the pivots so far and that
    entry, a positive multiple of the Schur complement, and the
    Schur-complement entry is the integer over ``scale * prev``.
    """
    n = len(M)
    if not all(isinstance(v, numbers.Rational) for row in M for v in row):
        raise ExactAlgebraError("definiteness is decided on rational rows "
                                "only")
    scale = math.lcm(*(v.denominator for row in M for v in row))
    work = [[v.numerator * (scale // v.denominator) for v in row]
            for row in M]
    prev = 1
    active = list(range(n))
    # each step replaces the basis vector e_i of every remaining index i by
    # e_i - f_i e_piv, which is M-orthogonal to e_piv
    steps = []

    def lift(w):
        """Original coordinates of a vector given over the active indices;
        the multiplier of index i at a step is f_i = M_i,piv / M_piv,piv."""
        v = dict(w)
        for piv, d, col in reversed(steps):
            v[piv] = -sum(Fraction(a, d) * v.get(i, 0)
                          for i, a in col.items())
        return [v.get(i, 0) for i in range(n)]

    while active:
        neg = next((i for i in active if work[i][i] < 0), None)
        if neg is not None:
            return False, False, lift({neg: 1})
        piv = next((i for i in active if work[i][i] > 0), None)
        if piv is None:
            # zero diagonal: psd iff all remaining entries vanish; otherwise
            # v = e_i - c M_ji e_j has v^T M v = -2 c M_ij^2 < 0 for c > 0
            for i, j in itertools.combinations(active, 2):
                if work[j][i]:
                    c = Fraction(work[j][i], scale * prev)
                    return False, False, lift({i: 1, j: -c})
            return True, False, None
        d = work[piv][piv]
        active.remove(piv)
        col = {i: work[i][piv] for i in active if work[i][piv]}
        # every row moves, also those with a zero multiplier: the entries
        # carry the pivot product
        row = work[piv]
        for x, i in enumerate(active):
            wi, a = work[i], work[i][piv]
            for j in active[x:]:
                wi[j] = work[j][i] = (d * wi[j] - a * row[j]) // prev
        prev = d
        steps.append((piv, d, col))
    return True, True, None


def _hermitian_cells(k: int) -> list:
    """The cells (j, l) of the Hermitian coordinates: the diagonal, then the
    cells above it."""
    return [(j, j) for j in range(k)] + list(
        itertools.combinations(range(k), 2))


@lru_cache(maxsize=None)
def hermitian_basis_sparse(k: int):
    """Integer basis of Hermitian k x k matrices, E_jj; E_jl + E_lj;
    i(E_jl - E_lj) for j < l, each as a tuple of (row, col, (re, im))."""
    out = []
    for j, l in _hermitian_cells(k):
        if j == l:
            out.append(((j, j, (1, 0)),))
        else:
            out += [((j, l, (1, 0)), (l, j, (1, 0))),
                    ((j, l, (0, 1)), (l, j, (0, -1)))]
    return tuple(out)


# ---------------------------------------------------------------------------
# f* on H^{p,p}: the compound (exterior power) matrices of the linear part


def _subsets(k: int, p: int):
    return list(itertools.combinations(range(k), p))


@lru_cache(maxsize=None)
def compound(f: TorusAutomorphism, p: int) -> tuple:
    """The p-th compound of the linear part, C[S', S] = det A[S, S'] over
    ascending p-subsets, so that f*(dz_S) = sum_{S'} C[S', S] dz_{S'} and
    f*(dz_S ^ dzbar_T) = sum_{S',T'} C[S', S] conj(C[T', T]) dz_{S'} ^
    dzbar_{T'}.  Every action of f on cohomology is read from it.  Rows of
    integer (re, im) pairs, memoised per automorphism."""
    k = f.k
    if not 0 <= p <= k:
        raise ValueError(f"p must lie in [0, {k}]")
    subs = _subsets(k, p)
    return tuple(tuple(gaussian_det([[f.pairs[r][c] for c in Sp] for r in S])
                       for S in subs) for Sp in subs)


@lru_cache(maxsize=None)
def h11_matrix(f: TorusAutomorphism) -> tuple:
    """Integer matrix of f* on H^{1,1} in the Hermitian basis (k^2 x k^2),
    as rows of ints: H -> C H C^H with C = compound(f, 1) = A^T, on the
    integer (re, im) pairs of C.  Column t holds the coordinates of
    C E_t C^H.  The tests' reference; the tracer's named layer."""
    C = compound(f, 1)
    cols = []
    for E in hermitian_basis_sparse(f.k):
        col = []
        for a, b in _hermitian_cells(f.k):
            # (C E C^H)[a, b] = sum of C[a][s] e conj(C[b][t]) over the
            # entries e of E at (s, t)
            re = im = 0
            for s, t, (er, ei) in E:
                (xr, xi), (yr, yi) = C[a][s], C[b][t]
                pr, pi = xr * er - xi * ei, xr * ei + xi * er
                re += pr * yr + pi * yi
                im += pi * yr - pr * yi
            col += [re] if a == b else [re, im]
        cols.append(col)
    return tuple(zip(*cols))


# ---------------------------------------------------------------------------
# characteristic polynomials over Z[i], cyclotomic tests and finite order, on
# coefficient tuples (leading first) and rows of ints or integer pairs


def gaussian_charpoly(M) -> tuple:
    """det(xI - M) as ``(re, im)`` pairs, leading first, for rows of pairs
    or ints (v is (v, 0)): the one charpoly routine, the division-free
    bordering recurrence of Samuelson and Berkowitz (Berkowitz, IPL 18,
    1984) over Z[i].  Bordering the leading t x t block A by a column C, a
    row R and a corner a gives

        det(xI - [[A, C], [R, a]]) = (x - a) det(xI - A) - R adj(xI - A) C,

    and for det(xI - A) = sum_j c_j x^(t-j), adj(xI - A) is sum_i x^i
    sum_{j <= t-1-i} c_j A^(t-1-i-j), so only s_m = R A^m C is needed.  It
    takes the Fraction pairs of ``_modulus_squared_annihilator`` too, so
    ``TorusAutomorphism`` and ``charpoly`` check the integer format."""
    n = len(M)
    if any(len(row) != n for row in M):
        raise ExactAlgebraError("charpoly requires a square matrix")
    M = [[v if isinstance(v, tuple) else (v, 0) for v in row] for row in M]
    c = [(1, 0)]
    for t in range(n):
        # v runs through A^m C; a row of M against it reads its first t
        v, s = [M[i][t] for i in range(t)], []
        for m in range(t):
            s.append(_pair_dot(M[t], v))
            if m < t - 1:
                v = [_pair_dot(M[i], v) for i in range(t)]
        # c_u -= a c_(u-1) + sum_j c_j s_(u-2-j), from the top, c_(t+1) = 0
        a, c = M[t][t], c + [(0, 0)]
        for u in range(t + 1, 0, -1):
            d = _pair_dot([a, *c[:u - 1]], [c[u - 1], *reversed(s[:u - 1])])
            c[u] = (c[u][0] - d[0], c[u][1] - d[1])
    return tuple(c)


def integer_charpoly(M) -> tuple:
    """det(xI - M) of a square matrix of ints, as ints leading first."""
    return tuple(re for re, _ in gaussian_charpoly(M))


def times_conjugate(p) -> tuple:
    """The integer coefficients of p * conj(p) for pair coefficients p; for
    p = det(xI - A), the charpoly of [[Re A, -Im A], [Im A, Re A]]."""
    return tuple(re for re, _ in _cpoly_mul(p, [(re, -im) for re, im in p]))


def _normalized(coeffs) -> tuple:
    """Primitive integer polynomial with a positive leading coefficient,
    from rational coefficients (leading first)."""
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    g = math.gcd(*ints)
    if ints[0] < 0:
        g = -g
    return tuple(v // g for v in ints)


def _power_sums(poly, count) -> list:
    """Power sums P_0 .. P_(count-1) of the roots of a polynomial (leading
    first) by Newton's identities: Fractions, or pairs for pair ones."""
    d, pairs = len(poly) - 1, isinstance(poly[0], tuple)
    mul = _cmul if pairs else operator.mul
    c = [(_cdiv if pairs else Fraction)(a, poly[0]) for a in poly[1:]]
    P = [(Fraction(d), 0) if pairs else Fraction(d)]
    for k in range(1, count):
        t = [mul(c[i - 1], P[k - i]) for i in range(1, min(k, d + 1))]
        t += [mul((k, 0) if pairs else k, c[k - 1])] if k <= d else []
        P.append(tuple(-sum(v) for v in zip(*t)) if pairs else -sum(t))
    return P


def _from_power_sums(sums) -> tuple:
    """The primitive integer polynomial of degree ``len(sums)`` whose roots
    have the power sums P_1, P_2, ... = ``sums``, by Newton's identities."""
    e = [Fraction(1)]
    for k in range(1, len(sums) + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * sums[i - 1]
                     for i in range(1, k + 1)) / k)
    return _normalized([(-1) ** k * v for k, v in enumerate(e)])


def _conjugate_products(p) -> tuple:
    """prod_{a,b} (x - r_a conj(r_b)) over the roots r of a pair polynomial,
    from its power sums |P_m|^2 (Bostan, Flajolet, Salvy, Schost, JSC 2006)."""
    sums = _power_sums(p, (len(p) - 1) ** 2 + 1)[1:]
    return _from_power_sums([_cabs2(s) for s in sums])


@lru_cache(maxsize=None)
def _indices_up_to(d: int) -> tuple:
    """Every m with phi(m) <= d, ascending, from a totient sieve:
    phi(m) >= sqrt(m/2) bounds m by 2 d^2."""
    limit = 2 * d * d + 2
    phi = list(range(limit + 1))
    for q in range(2, limit + 1):
        if phi[q] == q:     # q is prime
            for j in range(q, limit + 1, q):
                phi[j] -= phi[j] // q
    return tuple(m for m in range(1, limit + 1) if phi[m] <= d)


def _divide_monic(p: list, g) -> tuple:
    """(quotient, remainder) of polynomials (leading first) by a monic g
    with deg g <= deg p: the one reduction modulo a monic polynomial, on
    ints and Fractions, or on (re, im) pairs of them when g's are pairs."""
    p, n = list(p), len(g) - 1
    pairs = isinstance(g[0], tuple)
    zero = (0, 0) if pairs else 0
    for i in range(len(p) - n):
        if p[i] != zero:
            for j in range(1, n + 1):
                p[i + j] = (_csub(p[i + j], _cmul(p[i], g[j])) if pairs
                            else p[i + j] - p[i] * g[j])
    return p[:len(p) - n], p[len(p) - n:]


@lru_cache(maxsize=None)
def _cyclotomic(m: int) -> tuple:
    """Phi_m: x^m - 1 divided by Phi_d for every proper divisor d of m."""
    p = [1] + [0] * (m - 1) + [-1]
    for d in range(1, m):
        if m % d == 0:
            p = _divide_monic(p, _cyclotomic(d))[0]
    return tuple(p)


@lru_cache(maxsize=None)
def _cyclotomic_indices(p: tuple):
    """The distinct indices m, ascending, of the factors Phi_m of the monic
    integer polynomial with coefficients ``p``, or None when it is not a
    product of cyclotomic polynomials.  Each Phi_m with phi(m) <= deg p is
    divided out while it divides, so no factorization is needed (Bradford
    and Davenport, *Effective tests for cyclotomic polynomials*, ISSAC 1988,
    also decide this without factoring); a product of cyclotomics leaves 1.
    Memoised: the zero-entropy test and the order of one matrix share it."""
    p = [int(c) for c in p]
    if p[0] != 1:
        raise ExactAlgebraError("a monic polynomial is required")
    indices = []
    for m in _indices_up_to(len(p) - 1):
        if len(p) == 1:
            break
        phi = _cyclotomic(m)
        while len(phi) <= len(p):
            quotient, rem = _divide_monic(p, phi)
            if any(rem):
                break
            p = quotient
            if indices[-1:] != [m]:
                indices.append(m)
    return tuple(indices) if len(p) == 1 else None


def is_cyclotomic_product(p) -> bool:
    """True iff every irreducible factor of the monic integer polynomial
    with coefficients ``p`` (leading first) is cyclotomic (Kronecker)."""
    return _cyclotomic_indices(tuple(p)) is not None


def matrix_order(f: TorusAutomorphism):
    """Exact multiplicative order of the automorphism f, or ``"infinite"``.

    The eigenvalues of a matrix of finite order are roots of unity, so the
    degree-2k integer p * conj(p), p the charpoly of A, is a product of
    cyclotomics Phi_m; its indices are memoised and shared with
    ``has_zero_entropy``.  Then A has finite order iff A^n = I for the lcm n
    of the indices m, decided by repeated squaring on the integer pairs of
    f, and its order is n: a factor Phi_m of p * conj(p) gives an eigenvalue
    of A, or the conjugate of one, of order m.
    """
    indices = _cyclotomic_indices(times_conjugate(f.charpoly))
    if indices is None:
        return INFINITE_ORDER
    n = math.lcm(*indices)
    return n if f.power(n) == _identity(f.k) else INFINITE_ORDER


# ---------------------------------------------------------------------------
# zero entropy, classification and the degrees of a zero-entropy automorphism


@lru_cache(maxsize=None)
def h11_charpoly(f: TorusAutomorphism) -> tuple:
    """Integer charpoly of f* on H^{1,1}, leading first: its roots are the
    lambda_a conj(lambda_b) over the eigenvalues of A.  Memoised."""
    return _conjugate_products(f.charpoly)


@lru_cache(maxsize=None)
def has_zero_entropy(f: TorusAutomorphism) -> bool:
    """Exact zero-entropy test: f* on H^{1,1} has spectral radius 1 iff
    every |lambda| = 1, iff the degree-2k integer p * conj(p), p the charpoly
    of A, is a cyclotomic product (Kronecker).  Memoised."""
    return is_cyclotomic_product(times_conjugate(f.charpoly))


@lru_cache(maxsize=None)
def classify(f: TorusAutomorphism) -> str:
    """Exact trichotomy on the H^{1,1} action; no floating point.  At zero
    entropy A (x) conj(A) has finite order iff A has, read on the integer
    pairs of A.  Memoised: the analysis and the report share it."""
    if not has_zero_entropy(f):
        return POSITIVE_ENTROPY
    if matrix_order(f) == INFINITE_ORDER:
        return PARABOLIC
    return FINITE_ORDER


@dataclass
class DegreeProfile:
    degrees: list          # per p in 0..k: Fraction(1) or a CertifiedReal
    entropy: object        # Fraction(0) or a CertifiedReal


def degree_profile(f: TorusAutomorphism) -> DegreeProfile:
    """The dynamical degrees d_0 .. d_k and the entropy of f.

    At zero entropy every eigenvalue of A is a root of unity (Kronecker), so
    every d_p is 1 and the entropy is 0: exact Fractions, with no root
    moduli computed.  Otherwise the certified values of ``cohomology``."""
    if has_zero_entropy(f):
        return DegreeProfile([Fraction(1)] * (f.k + 1), Fraction(0))
    from .cohomology import dynamical_degree, entropy
    degrees = [dynamical_degree(f, p) for p in range(f.k + 1)]
    return DegreeProfile(degrees, entropy(f))


# ---------------------------------------------------------------------------
# integer lattices: the Hermite normal form with its transform


@dataclass(frozen=True)
class IntegerLattice:
    ambient_rank: int
    basis: tuple  # tuple of tuples of ints (rows)

    def __post_init__(self):
        for v in self.basis:
            if len(v) != self.ambient_rank:
                raise ExactAlgebraError("basis vector of wrong length")


def hermite_normal_form_rows(A: list) -> tuple[list, list]:
    """Row-style HNF: returns (H, U) with H = U @ A, U unimodular.

    H is in row echelon form with positive pivots and entries above each
    pivot reduced into [0, pivot).  Zero rows are pushed to the bottom.
    """
    H = [list(map(int, row)) for row in A]
    m = len(H)
    n = len(H[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    r = 0
    for c in range(n):
        # gcd-reduce column c below row r
        piv = None
        for i in range(r, m):
            if H[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        H[r], H[piv] = H[piv], H[r]
        U[r], U[piv] = U[piv], U[r]
        for i in range(r + 1, m):
            while H[i][c] != 0:
                q = H[r][c] // H[i][c]
                for j in range(n):
                    H[r][j] -= q * H[i][j]
                for j in range(m):
                    U[r][j] -= q * U[i][j]
                H[r], H[i] = H[i], H[r]
                U[r], U[i] = U[i], U[r]
        if H[r][c] < 0:
            H[r] = [-v for v in H[r]]
            U[r] = [-v for v in U[r]]
        # reduce entries above the pivot
        for i in range(r):
            q = H[i][c] // H[r][c]
            if q:
                for j in range(n):
                    H[i][j] -= q * H[r][j]
                for j in range(m):
                    U[i][j] -= q * U[r][j]
        r += 1
        if r == m:
            break
    return H, U


# ---------------------------------------------------------------------------
# LLL-based integer relation candidates

def lll_reduce(rows: list) -> list:
    """LLL-reduced basis (delta = 99/100) of the lattice spanned by linearly
    independent integer rows.

    Integral LLL (Cohen, *A Course in Computational Algebraic Number Theory*,
    GTM 138, Algorithm 2.6.7), in integer arithmetic only: the Gram-Schmidt
    data are the Gram determinants d_i and lambda_kj = d_j mu_kj, updated by
    exact division; size reduction rounds lambda_kj / d_j to the nearest
    integer, halves up, and the Lovasz test is a cross-multiplication.  The
    reduction order is sympy's ``DomainMatrix.lll``, so the two agree
    wherever sympy's float rounding of mu_kj is exact."""
    b = [[int(x) for x in row] for row in rows]
    m = len(b)
    # d[j + 1] is the Gram determinant of rows 0..j; lam[k][j] for j < k
    d = [1] + [0] * m
    lam = [[0] * m for _ in range(m)]

    def size_reduce(k, j):
        dj = d[j + 1]
        if 2 * abs(lam[k][j]) > dj:
            r = (2 * lam[k][j] + dj) // (2 * dj)
            b[k] = [x - r * y for x, y in zip(b[k], b[j])]
            lam[k][j] -= r * dj
            for i in range(j):
                lam[k][i] -= r * lam[j][i]

    def swap(k, kmax):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lk = lam[k][k - 1]
        new = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (new * t + lk * lam[i][k]) // d[k + 1]
        d[k] = new

    k, kmax = 0, -1
    while k < m:
        if k > kmax:  # incremental Gram-Schmidt of row k
            kmax = k
            for j in range(k + 1):
                u = sum(x * y for x, y in zip(b[k], b[j]))
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                elif u == 0:
                    raise ValueError("lll_reduce: rows are linearly dependent")
                else:
                    d[k + 1] = u
        if k == 0:
            k = 1
            continue
        size_reduce(k, k - 1)
        # Lovasz, delta = 99/100: keep unless d_k d_{k-2} + lambda^2 <
        # delta d_{k-1}^2, in Cohen's 1-based d_i (d[k + 1], d[k - 1], d[k])
        if 100 * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) < 99 * d[k] ** 2:
            swap(k, kmax)
            k = max(k - 1, 1)
        else:
            for j in range(k - 2, -1, -1):
                size_reduce(k, j)
            k += 1
    return b


# the scale of the rounded values in an LLL relation lattice
_RELATION_SCALE = 10**40


def _relation_rows(vectors) -> list:
    """Rows [e_i | round(10^40 v_i)] of the relation lattice of the real
    vectors v_i (Fractions or ints)."""
    n = len(vectors)
    return [[int(i == j) for j in range(n)]
            + [round(x * _RELATION_SCALE) for x in v]
            for i, v in enumerate(vectors)]


def integer_relations(vectors):
    """Candidate integer relations among real vectors, one per generator
    (Fractions or ints): the rows e of one LLL reduction (delta = 0.99) of
    the lattice ``_relation_rows(vectors)`` with every |e_i| <= 10^4 and,
    in every coordinate, |sum e_i v_i| <= 10^-12 plus the rounding slack
    sum |e_i| / (2 10^40) of the scaled entries (Cohen, GTM 138, section
    2.7).  Each is signed so that its first nonzero entry is positive.

    The candidates are NOT certified; callers must verify each exactly.
    """
    n = len(vectors)
    cands = []
    for row in lll_reduce(_relation_rows(vectors)):
        e = row[:n]
        # a lattice vector with e = 0 is 0, so no LLL row has e = 0
        if max(map(abs, e)) > 10**4:
            continue
        bound = Fraction(1, 10**12) + Fraction(sum(map(abs, e)),
                                               2 * _RELATION_SCALE)
        if all(abs(sum(ei * v for ei, v in zip(e, coord))) <= bound
               for coord in zip(*vectors)):
            cands.append(e if e[next(i for i, v in enumerate(e) if v)] > 0
                         else [-v for v in e])
    return cands


# ---------------------------------------------------------------------------
# builtin catalog, the one list of builtin names: per generator its name and
# its rows (ints, or (re, im) pairs for non-real entries)

_I = (0, 1)

_CATALOG = {
    # the Anosov cat map: smallest positive-entropy automorphism of T^2
    "cat_T2": (("aut_2", [[2, 1], [1, 1]]),),
    # multiplication by 1 + sqrt(2) in Z[sqrt(2)] (Pell unit)
    "pell_T2": (("aut_2", [[1, 2], [1, 1]]),),
    # two commuting unipotents, shears by 1 and by i: zero entropy,
    # infinite order, rank 0
    "parabolic_T2": (("aut_2", [[1, 1], [0, 1]]),
                     ("aut_2", [[1, _I], [0, 1]])),
    # scalar multiplication by i: finite order on cohomology
    "torsion_i": (("aut_2", [[_I, 0], [0, _I]]),),
    # Pell unit extended by the order-4 torsion part
    "pell_plus_torsion": (("aut_2", [[1, 2], [1, 1]]),
                          ("aut_2", [[_I, 0], [0, _I]])),
    # rank-2 group on T^3 from two independent units of x^3 - x^2 - 2x + 1:
    # the regular representations of -theta (norm +1, so in SL(3, Z)) and
    # theta^2 - 2 on the power basis
    "cubic_T3": (("mult(-1t^1)", [[0, 0, 1], [-1, 0, -2], [0, -1, -1]]),
                 ("mult(-2+1t^2)", [[-2, -1, -1], [0, 0, 1], [1, 1, 1]])),
}


def catalog_group(name: str) -> GroupSpec:
    """The builtin example group ``name``, a key of ``_CATALOG``."""
    return GroupSpec(tuple(TorusAutomorphism(rows, name=gen)
                           for gen, rows in _CATALOG[name]))
