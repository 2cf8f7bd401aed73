"""Exact integer / Gaussian-integer linear algebra and certified algebraic reals.

Everything in this module is exact: matrices carry arbitrary-precision
(Gaussian) integers, polynomials have integer coefficients, and real
algebraic numbers are represented by an exact sympy expression together
with certified rational enclosures that can be refined on demand.  No
decision anywhere in this module is made from bare floats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import sympy as sp
from sympy import Matrix, Poly, Rational
from sympy.polys.matrices import DomainMatrix

X = sp.Symbol("x")
_Y = sp.Symbol("y", positive=True)

INFINITE_ORDER = "infinite"


class ExactAlgebraError(ValueError):
    pass


# ---------------------------------------------------------------------------
# scalar helpers


def _rootof_reduction(expr):
    """Try to decide ``expr == 0`` by polynomial reduction modulo the
    defining polynomials of its ``CRootOf`` atoms.

    Returns True (proved zero), False (proved nonzero), or None (undecided).
    A zero remainder always certifies zero.  A nonzero remainder certifies
    nonzero only in the single-real-root case, where the coefficients live
    in the field Q(i)(theta) and the defining polynomial stays irreducible.
    """
    roots = sorted(expr.atoms(sp.polys.rootoftools.ComplexRootOf),
                   key=sp.default_sort_key)
    if not roots or len(roots) > 4:
        return None
    syms = [sp.Dummy(f"t{i}") for i in range(len(roots))]
    lifted = expr.xreplace(dict(zip(roots, syms)))
    minpolys = [r.poly.as_expr().subs(r.poly.gen, t)
                for r, t in zip(roots, syms)]
    try:
        # clear denominators first: a valid expression never divides by an
        # element that vanishes at the roots, so zero is decided by the
        # numerator alone
        num, _den = sp.fraction(sp.together(lifted))
        num = sp.expand(num)
        _, rem = sp.reduced(num, minpolys, *syms, order="lex")
    except (sp.PolynomialError, sp.polys.polyerrors.ComputationFailed,
            sp.polys.polyerrors.CoercionFailed, ZeroDivisionError):
        return None
    rem = sp.expand(rem)
    if rem == 0:
        return True
    if len(roots) == 1 and roots[0].is_real:
        # nonzero remainder certifies nonzero only when the coefficients are
        # rational or Gaussian rational, i.e. no other algebraic irrationals
        try:
            dom = sp.Poly(num, *syms).domain
        except sp.PolynomialError:
            return None
        if (dom.is_ZZ or dom.is_QQ or dom.is_GaussianRing
                or dom.is_GaussianField):
            return False
    return None


def exact_is_zero(expr) -> bool:
    """Decide ``expr == 0`` exactly for algebraic sympy expressions."""
    expr = sp.sympify(expr)
    if expr.is_Rational:
        return expr == 0
    # asking sympy's assumption system about CRootOf sums triggers slow
    # adaptive evaluation, so reduce modulo the defining polynomials first
    if expr.has(sp.polys.rootoftools.ComplexRootOf):
        decided = _rootof_reduction(sp.expand(expr))
        if decided is not None:
            return decided
        simplified = sp.expand(expr)
    else:
        z = expr.is_zero
        if z is not None:
            return bool(z)
        simplified = sp.expand(expr)
        z = simplified.is_zero
        if z is not None:
            return bool(z)
    # refute nonzero values numerically before certifying symbolically
    prec = 30
    while prec <= 240:
        v = sp.N(simplified, prec)
        try:
            if abs(complex(v)) > 10.0 ** (-prec + 10):
                return False
        except (TypeError, ValueError):
            break
        prec *= 2
    # algebraic number: zero iff its minimal polynomial is x
    mp = sp.minimal_polynomial(simplified, X)
    return Poly(mp, X).all_coeffs() == [1, 0]


def exact_equal(a, b) -> bool:
    return exact_is_zero(sp.sympify(a) - sp.sympify(b))


def exact_sign(expr) -> int:
    """Sign of an exact real algebraic expression, decided exactly."""
    expr = sp.sympify(expr)
    if expr.is_Rational:
        return (expr.p > 0) - (expr.p < 0)
    if exact_is_zero(expr):
        return 0
    # nonzero, so adaptive evaluation eventually resolves the sign
    prec = 30
    while prec <= 10000:
        v = expr.evalf(prec)
        if v.is_comparable and abs(v) > sp.Float(10) ** (-prec + 6):
            return 1 if v > 0 else -1
        prec *= 2
    raise ExactAlgebraError(f"could not resolve sign of {expr}")


def _enclosure_of_expr(expr, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Certified rational enclosure of width < 2*eps around an exact expr."""
    expr = sp.sympify(expr)
    if expr.is_Rational:
        q = Fraction(expr.p, expr.q)
        return (q, q)
    if isinstance(expr, sp.polys.rootoftools.ComplexRootOf) and expr.is_real:
        dx = Rational(eps.numerator, eps.denominator) / 2
        c = expr.eval_rational(dx=dx)
        q = Fraction(c.p, c.q)
        e = Fraction(dx.p, dx.q)
        return (q - e, q + e)
    # generic exact expression: adaptive evalf with a generous guard band
    digits = 20
    while digits <= 20000:
        v = expr.evalf(digits)
        if v.is_comparable:
            q = Fraction(str(v))
            pad = Fraction(10) ** (-(digits - 8)) * max(Fraction(1), abs(q))
            if 2 * pad < eps * 2:
                return (q - pad, q + pad)
        digits *= 2
    raise ExactAlgebraError(f"could not enclose {expr} within {eps}")


# ---------------------------------------------------------------------------
# certified reals


class CertifiedReal:
    """An exact real number (sympy expression) with certified enclosures."""

    def __init__(self, expr):
        self.expr = sp.sympify(expr)
        self._eps = Fraction(1, 2**20)
        self._interval = None

    def enclosure(self, eps=None) -> tuple[Fraction, Fraction]:
        eps = Fraction(eps) if eps is not None else self._eps
        if self._interval is None or self._interval[1] - self._interval[0] > 2 * eps:
            self._interval = _enclosure_of_expr(self.expr, eps)
        return self._interval

    def midpoint(self, eps=Fraction(1, 10**15)) -> Fraction:
        lo, hi = self.enclosure(eps)
        return (lo + hi) / 2

    def __float__(self) -> float:
        return float(self.midpoint(Fraction(1, 10**17)))

    def is_zero(self) -> bool:
        return exact_is_zero(self.expr)

    def __eq__(self, other) -> bool:
        if isinstance(other, CertifiedReal):
            other = other.expr
        return exact_equal(self.expr, other)

    # equality is exact, so no hash of the expression tree agrees with it
    __hash__ = None

    def compare(self, other) -> int:
        if isinstance(other, CertifiedReal):
            other = other.expr
        return exact_sign(self.expr - sp.sympify(other))

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __repr__(self):
        return f"{type(self).__name__}({self.expr} ~ {float(self):.12g})"


class AlgebraicReal(CertifiedReal):
    """A real algebraic number: exact expression + integer minimal polynomial."""

    def __init__(self, expr, minpoly: Poly | None = None):
        super().__init__(expr)
        self._minpoly = minpoly

    @property
    def minimal_polynomial(self) -> Poly:
        if self._minpoly is None:
            mp = sp.minimal_polynomial(self.expr, X)
            self._minpoly = Poly(mp, X)
        return self._minpoly


# ---------------------------------------------------------------------------
# exact definiteness of Hermitian forms


def _real_sign(v) -> int:
    """Exact sign of the real part of a Fraction or an algebraic sympy number;
    rationals are compared natively."""
    if isinstance(v, Fraction):
        return (v > 0) - (v < 0)
    v = sp.re(v)
    if v.is_Rational:
        return (v.p > 0) - (v.p < 0)
    return exact_sign(v)


def _is_zero(v) -> bool:
    if isinstance(v, Fraction) or v.is_Rational:
        return v == 0
    return exact_is_zero(v)


def _expanded(v):
    # sympy entries stay expanded, so every sign and zero test sees a sum of
    # terms rather than a nested tree
    return v if isinstance(v, Fraction) else sp.expand(v)


def symmetric_definiteness(M):
    """Exact ``(psd, pd, witness)`` of a Hermitian matrix given as rows of
    Fractions or algebraic sympy numbers, by pivoted LDL^H elimination.

    ``witness`` is a vector v with v^H M v < 0 when M is not psd, else None.
    """
    n = len(M)
    work = [list(row) for row in M]
    active = list(range(n))
    # each step replaces the basis vector e_i of every remaining index i by
    # e_i - conj(f_i) e_piv, which is M-orthogonal to e_piv
    steps = []

    def lift(w):
        """Original coordinates of a vector given over the active indices."""
        v = dict(w)
        for piv, mult in reversed(steps):
            v[piv] = -sum(f.conjugate() * v.get(i, 0) for i, f in mult.items())
        return [v.get(i, 0) for i in range(n)]

    while active:
        signs = {i: _real_sign(work[i][i]) for i in active}
        neg = next((i for i in active if signs[i] < 0), None)
        if neg is not None:
            return False, False, lift({neg: 1})
        piv = next((i for i in active if signs[i] > 0), None)
        if piv is None:
            # zero diagonal: psd iff all remaining entries vanish; otherwise
            # v = e_i - M_ji e_j has v^H M v = -2 |M_ij|^2 < 0
            for i, j in itertools.combinations(active, 2):
                if not _is_zero(work[j][i]):
                    return False, False, lift({i: 1, j: -work[j][i]})
            return True, False, None
        d = work[piv][piv]
        active.remove(piv)
        mult = {}
        for i in active:
            f = work[i][piv] / d
            if f:
                mult[i] = f
                for j in active:
                    work[i][j] = _expanded(work[i][j] - f * work[piv][j])
        steps.append((piv, mult))
    return True, True, None


# ---------------------------------------------------------------------------
# characteristic polynomials


def charpoly(M: Matrix) -> Poly:
    """Exact monic characteristic polynomial of a square matrix.

    Works over ZZ, QQ, ZZ[i] and QQ(i); uses sympy's fraction-free domain
    machinery, so no rounding occurs.
    """
    M = Matrix(M)
    if not M.is_square:
        raise ExactAlgebraError("charpoly requires a square matrix")
    dm = DomainMatrix.from_Matrix(M)
    dom = dm.domain
    coeffs = [dom.to_sympy(c) for c in dm.charpoly()]
    return Poly(coeffs, X)


def real_charpoly(M: Matrix) -> Poly:
    """Characteristic polynomial times its complex conjugate when needed.

    For a real matrix this is just ``charpoly(M)``.  For a Gaussian-integer
    matrix the product ``p * conj(p)`` has integer coefficients and its root
    moduli are those of ``p`` with doubled multiplicity.
    Returns ``(poly, doubled)``.
    """
    p = charpoly(M)
    coeffs = p.all_coeffs()
    if all(sp.im(c) == 0 for c in coeffs):
        return p, False
    conj = Poly([sp.conjugate(c) for c in coeffs], X)
    prod = (p * conj).as_expr()
    prod = sp.expand(prod)
    return Poly(prod, X), True


# ---------------------------------------------------------------------------
# certified root moduli


def _modulus_squared_candidates(f: Poly) -> list:
    """Real roots of Res_x(f(x), x^d f(y/x)): contains |lambda|^2 for all roots."""
    d = f.degree()
    fx = f.as_expr()
    g = sp.expand(X**d * fx.subs(X, _Y / X))
    res = sp.resultant(fx, g, X)
    rp = Poly(res, _Y)
    cands = []
    for r in rp.real_roots(radicals=False):
        if r not in cands and exact_sign(r) > 0:
            cands.append(r)
    return cands


def _match_root_to_candidate(root, cands) -> int:
    """Index of the unique candidate equal to |root|^2, decided by refinement."""
    prec = 30
    while prec <= 4000:
        approx = complex(root.evalf(prec))
        m2 = approx.real**2 + approx.imag**2
        tol = 10.0 ** (-(prec // 2) + 4) * max(1.0, m2)
        hits = []
        for i, c in enumerate(cands):
            lo, hi = _enclosure_of_expr(c, Fraction(1, 10 ** (prec // 2)))
            if float(lo) - tol <= m2 <= float(hi) + tol:
                hits.append(i)
        if len(hits) == 1:
            return hits[0]
        prec *= 2
    raise ExactAlgebraError("failed to certify root-modulus matching")


def root_moduli(p: Poly | sp.Expr, eps=Fraction(1, 10**12)):
    """All complex-root moduli of an integer polynomial, exactly merged.

    Returns a list of ``(AlgebraicReal, multiplicity)`` sorted by descending
    modulus.  Moduli are merged exactly: two roots contribute to the same
    entry iff their moduli agree as algebraic numbers (same root of the
    squarefree modulus-squared resultant).
    """
    p = Poly(p, X) if not isinstance(p, Poly) else p
    if p.is_zero:
        raise ExactAlgebraError("root_moduli of the zero polynomial")
    eps = Fraction(eps)
    # strip roots at the origin
    zero_mult = 0
    coeffs = p.all_coeffs()
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        zero_mult += 1
    p = Poly(coeffs, X) if coeffs else Poly([1], X)
    result: dict = {}
    if p.degree() > 0:
        _, factors = p.factor_list()
        for f, mult in factors:
            f = Poly(f, X)
            if f.degree() == 0:
                continue
            cands = _modulus_squared_candidates(f)
            if f.degree() == 1:
                # single rational root -a0/a1; modulus squared is (a0/a1)^2
                a1, a0 = f.all_coeffs()
                m2 = Rational(a0, a1) ** 2
                matched = [i for i, c in enumerate(cands) if exact_equal(c, m2)]
                if not matched:
                    raise ExactAlgebraError("candidate set missed a rational root")
                idxs = [matched[0]]
            else:
                idxs = [_match_root_to_candidate(r, cands)
                        for r in f.all_roots(radicals=False)]
            for i in idxs:
                key = cands[i]
                result[key] = result.get(key, 0) + mult
    moduli = [(AlgebraicReal(sp.sqrt(c)), m) for c, m in result.items()]
    if zero_mult:
        moduli.append((AlgebraicReal(sp.Integer(0)), zero_mult))
    for m, _ in moduli:
        m.enclosure(eps)
    moduli.sort(key=lambda t: -t[0].midpoint(eps))
    return moduli


def spectral_radius(M: Matrix, eps=Fraction(1, 10**12)) -> AlgebraicReal:
    """Certified spectral radius of an exact (Gaussian-)integer matrix."""
    p, _ = real_charpoly(M)
    mods = root_moduli(p, eps)
    return mods[0][0]


# ---------------------------------------------------------------------------
# cyclotomic tests and finite order


def _cyclotomic_index(f: Poly):
    """Return m such that f == Phi_m, or None."""
    d = f.degree()
    if f.LC() != 1:
        return None
    for m in range(1, 2 * d * d + 7):
        if sp.totient(m) == d and Poly(sp.cyclotomic_poly(m, X), X) == f:
            return m
    return None


def is_cyclotomic_product(p: Poly | sp.Expr) -> bool:
    """True iff every irreducible factor of p is cyclotomic (Kronecker)."""
    p = Poly(p, X) if not isinstance(p, Poly) else p
    if p.is_zero:
        raise ExactAlgebraError("zero polynomial")
    if p.LC() != 1:
        raise ExactAlgebraError("is_cyclotomic_product requires a monic polynomial")
    if p.degree() == 0:
        return True
    _, factors = p.factor_list()
    for f, _ in factors:
        f = Poly(f, X)
        if f.degree() == 0:
            continue
        if _cyclotomic_index(f) is None:
            return False
    return True


def finite_order_bound(dim: int) -> int:
    """lcm of all m with totient(m) <= dim: bound for orders of integer matrices."""
    b = 1
    m = 1
    while True:
        if sp.totient(m) <= dim:
            b = math.lcm(b, m)
        # totient(m) >= sqrt(m/2), so once m > 2*dim^2 no further m qualifies
        if m > 2 * dim * dim + 2:
            break
        m += 1
    return b


def matrix_order(M: Matrix, bound: int | None = None):
    """Exact multiplicative order of an integer matrix, or ``"infinite"``.

    Decided structurally: the order is finite iff the characteristic
    polynomial is a product of cyclotomics and the matrix is diagonalizable
    (its squarefree characteristic part annihilates it); in that case the
    order is the lcm of the cyclotomic indices.
    """
    M = Matrix(M)
    n = M.rows
    p = charpoly(M)
    coeffs = p.all_coeffs()
    if any(sp.im(c) != 0 for c in coeffs):
        raise ExactAlgebraError("matrix_order expects a real integer matrix")
    if not is_cyclotomic_product(p):
        return INFINITE_ORDER
    _, factors = p.factor_list()
    radical = Poly([1], X)
    order = 1
    for f, _ in factors:
        f = Poly(f, X)
        if f.degree() == 0:
            continue
        radical = radical * f
        order = math.lcm(order, _cyclotomic_index(f))
    # diagonalizability: radical(charpoly) must annihilate M
    acc = sp.zeros(n, n)
    for c in radical.all_coeffs():
        acc = acc * M + c * sp.eye(n)
    if not acc.is_zero_matrix:
        return INFINITE_ORDER
    if bound is not None and order > bound:
        return INFINITE_ORDER
    return order


# ---------------------------------------------------------------------------
# integer lattices: Hermite and Smith normal forms with transforms


@dataclass(frozen=True)
class IntegerLattice:
    ambient_rank: int
    basis: tuple  # tuple of tuples of ints (rows)

    def __post_init__(self):
        for v in self.basis:
            if len(v) != self.ambient_rank:
                raise ExactAlgebraError("basis vector of wrong length")


def _eye_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def hermite_normal_form_rows(A: list) -> tuple[list, list]:
    """Row-style HNF: returns (H, U) with H = U @ A, U unimodular.

    H is in row echelon form with positive pivots and entries above each
    pivot reduced into [0, pivot).  Zero rows are pushed to the bottom.
    """
    H = [list(map(int, row)) for row in A]
    m = len(H)
    n = len(H[0]) if m else 0
    U = _eye_rows(m)
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


def smith_normal_form_with_transforms(A: list) -> tuple[list, list, list]:
    """Smith normal form: returns (D, U, V) with D = U @ A @ V, U,V unimodular."""
    D = [list(map(int, row)) for row in A]
    m = len(D)
    n = len(D[0]) if m else 0
    U = _eye_rows(m)
    V = _eye_rows(n)

    def row_op(i, j, q):  # row_i -= q*row_j
        for c in range(n):
            D[i][c] -= q * D[j][c]
        for c in range(m):
            U[i][c] -= q * U[j][c]

    def col_op(i, j, q):  # col_i -= q*col_j
        for r in range(m):
            D[r][i] -= q * D[r][j]
        for r in range(n):
            V[r][i] -= q * V[r][j]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in range(m):
            D[r][i], D[r][j] = D[r][j], D[r][i]
        for r in range(n):
            V[r][i], V[r][j] = V[r][j], V[r][i]

    t = 0
    while t < min(m, n):
        # find a nonzero pivot of minimal absolute value in the trailing block
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i][j] != 0 and (best is None or abs(D[i][j]) < best):
                    best = abs(D[i][j])
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if D[i][t] != 0:
                    q = D[i][t] // D[t][t]
                    row_op(i, t, q)
                    if D[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if D[t][j] != 0:
                    q = D[t][j] // D[t][t]
                    col_op(j, t, q)
                    if D[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        if D[t][t] < 0:
            D[t] = [-v for v in D[t]]
            U[t] = [-v for v in U[t]]
        # enforce divisibility d_t | D[i][j]
        offending = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if D[i][j] % D[t][t] != 0:
                    offending = i
                    break
            if offending is not None:
                break
        if offending is not None:
            row_op(t, offending, -1)  # add the offending row, redo pivot at t
            continue
        t += 1
    return D, U, V


@dataclass(frozen=True)
class HermiteSmithResult:
    rank: int
    hermite: tuple
    hermite_transform: tuple  # H = U A
    smith: tuple
    smith_row_transform: tuple  # D = U A V
    smith_col_transform: tuple
    invariant_factors: tuple


def hermite_smith(lattice: IntegerLattice) -> HermiteSmithResult:
    """Canonical Hermite and Smith normal forms with unimodular transforms."""
    A = [list(v) for v in lattice.basis]
    if not A:
        return HermiteSmithResult(0, (), (), (), (), (), ())
    H, UH = hermite_normal_form_rows(A)
    D, US, VS = smith_normal_form_with_transforms(A)
    rank = sum(1 for row in H if any(row))
    inv = tuple(D[i][i] for i in range(min(len(D), len(D[0]))) if D[i][i] != 0)
    tt = lambda M: tuple(tuple(r) for r in M)
    return HermiteSmithResult(rank, tt(H), tt(UH), tt(D), tt(US), tt(VS), inv)


def _det_int(A: list) -> int:
    """Exact integer determinant (Bareiss)."""
    n = len(A)
    M = [list(map(int, row)) for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1] if n else 1


def is_unimodular(A: list) -> bool:
    return abs(_det_int(A)) == 1


# ---------------------------------------------------------------------------
# LLL-based integer relation candidates


def lll_reduce(rows: list) -> list:
    """LLL-reduced basis (delta = 0.99) of the lattice spanned by integer rows.

    Without gmpy2, sympy's LLL rounds through ``float`` and, on entries near
    10^40, can fail its own size-reduction assertion; that is raised as
    ExactAlgebraError, as it says nothing about the input's mathematics."""
    dm = DomainMatrix([[sp.ZZ(x) for x in row] for row in rows],
                      (len(rows), len(rows[0])), sp.ZZ)
    try:
        reduced = dm.lll(delta=sp.QQ(99, 100))
    except AssertionError as exc:
        raise ExactAlgebraError(
            "LLL reduction failed inside sympy (its size-reduction step "
            "rounds through float at this scale)") from exc
    return reduced.to_Matrix().tolist()


def integer_relations(values, tolerance=Fraction(1, 10**12),
                      height_cap: int = 10**6, scale_digits: int = 40):
    """Candidate integer relations e with |sum e_i v_i| < tolerance.

    Candidates come from LLL (delta = 0.99) on the scaled-value lattice and
    are NOT certified; callers must verify each candidate exactly.
    """
    n = len(values)
    if n == 0:
        return []
    eval_eps = Fraction(1, 10 ** (scale_digits + 10))
    mids = []
    for v in values:
        if isinstance(v, CertifiedReal):
            mids.append(v.midpoint(eval_eps))
        elif isinstance(v, (int, Fraction, float)):
            mids.append(Fraction(v))
        else:
            mids.append(Fraction(sp.Rational(sp.sympify(v).evalf(scale_digits + 15))))
    C = 10**scale_digits
    rows = []
    for i in range(n):
        row = [0] * n + [int(round(mids[i] * C))]
        row[i] = 1
        rows.append(row)
    red = lll_reduce(rows)
    tol = Fraction(tolerance)
    cands = []
    for row in red:
        e = [int(v) for v in row[:n]]
        if not any(e) or max(abs(v) for v in e) > height_cap:
            continue
        resid = abs(sum(Fraction(ei) * mi for ei, mi in zip(e, mids)))
        # allow for the rounding error of the scaled entries
        slack = Fraction(sum(abs(v) for v in e), 2 * C)
        if resid <= tol + slack:
            if e[next(i for i, v in enumerate(e) if v)] < 0:
                e = [-v for v in e]
            if e not in cands:
                cands.append(e)
    return cands
