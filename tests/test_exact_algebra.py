"""Tests for the exact linear/polynomial algebra layer."""

import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
import sympy as sp
from sympy import I, Matrix, eye
from sympy.polys.matrices import DomainMatrix

from toraldyn import exact_algebra
from toraldyn.exact_algebra import (
    X, CertifiedReal, ExactAlgebraError, RealRoot, charpoly, exact_equal,
    exact_is_zero, exact_sign, integer_relations, is_cyclotomic_product,
    matrix_order, _kernel_root, real_root, root_moduli)
from toraldyn.integer_model import (INFINITE_ORDER, IntegerLattice,
                                    TorusAutomorphism, finite_order_bound,
                                    gaussian_det, hermite_normal_form_rows,
                                    lll_reduce, symmetric_definiteness)

from oracles import (_cyclotomic_index, charpoly_times_conjugate,
                     hermitian_coords, spectral_radius)


# ---------------------------------------------------------------------------
# charpoly
# ---------------------------------------------------------------------------

def test_charpoly_cat_map():
    p = charpoly(Matrix([[2, 1], [1, 1]]))
    assert p == sp.Poly(X**2 - 3 * X + 1, X)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_charpoly_identity(n):
    assert charpoly(eye(n)) == sp.Poly((X - 1) ** n, X)


def test_charpoly_h11_unipotent_gaussian():
    # H^{1,1} action of [[1, 1+i], [0, 1]]; the oracle is the direct
    # conjugation H |-> A^H H A on the four Hermitian basis elements
    from toraldyn.cohomology import TorusAutomorphism, h11_matrix
    f = TorusAutomorphism([[1, 1 + I], [0, 1]])
    M = h11_matrix(f)
    assert charpoly(M) == sp.Poly((X - 1) ** 4, X)
    A = Matrix([[1, 1 + I], [0, 1]])
    from oracles import hermitian_basis
    cols = [hermitian_coords(A.T * E * A.conjugate())
            for E in hermitian_basis(2)]
    oracle = Matrix.hstack(*[Matrix(c) for c in cols])
    assert charpoly(oracle) == sp.Poly((X - 1) ** 4, X)


def test_charpoly_gaussian_entries():
    p = charpoly(Matrix([[I, 0], [0, -I]]))
    assert p == sp.Poly(X**2 + 1, X)


def test_charpoly_rejects_non_square():
    with pytest.raises(ExactAlgebraError):
        charpoly(Matrix([[1, 2, 3]]))


# ---------------------------------------------------------------------------
# root moduli
# ---------------------------------------------------------------------------

def _moduli_floats(p):
    return [(float(m), mult) for m, mult in root_moduli(p)]


def test_root_moduli_cat_charpoly():
    vals = _moduli_floats(X**2 - 3 * X + 1)
    golden = (3 + math.sqrt(5)) / 2
    assert len(vals) == 2
    assert vals[0][0] == pytest.approx(golden, abs=1e-12)
    assert vals[1][0] == pytest.approx(1 / golden, abs=1e-12)
    assert [m for _, m in vals] == [1, 1]


def test_root_moduli_roots_of_unity_merge():
    vals = root_moduli(X**4 - 1)
    assert len(vals) == 1
    m, mult = vals[0]
    assert exact_is_zero(m.expr - 1) and mult == 4


def test_root_moduli_fibonacci():
    vals = _moduli_floats(X**2 - X - 1)
    phi = (1 + math.sqrt(5)) / 2
    assert vals[0][0] == pytest.approx(phi, abs=1e-12)
    assert vals[1][0] == pytest.approx(phi - 1, abs=1e-12)


@pytest.mark.parametrize("a, q", [
    # sqrt(10^14 + 1) sits about 1.25e-22 below (2*10^14 + 1)/(2*10^7)
    (10**7, Fraction(2 * 10**14 + 1, 2 * 10**7)),
    # sqrt(10^24 + 1) sits about 6e-38 below q, far inside both 10^-12
    # enclosures, whose midpoints put it first
    (10**12, 10**12 + Fraction(1, 2 * 10**12) - Fraction(1, 16 * 10**36)),
], ids=["sqrt_just_below", "midpoint_misorders"])
def test_root_moduli_exact_order_near_ties(a, q):
    # the moduli of (x^2 - (a^2 + 1)) (den x - num): sqrt(a^2 + 1) twice and
    # q once, with q the larger by less than any enclosure width
    p = (X**2 - (a * a + 1)) * (q.denominator * X - q.numerator)
    mods = root_moduli(p)
    assert [m for _, m in mods] == [1, 2]
    assert mods[0][0].expr == sp.Rational(q.numerator, q.denominator)
    assert exact_equal(mods[1][0].expr, sp.sqrt(a * a + 1))
    assert spectral_radius(Matrix(
        [[0, a * a + 1, 0], [1, 0, 0], [0, 0, q]])).expr == mods[0][0].expr


def _elementary_product(rng, n, length, units):
    M = eye(n)
    for _ in range(length):
        i, j = rng.sample(range(n), 2)
        E = eye(n)
        E[i, j] = rng.choice(units)
        M = M * E
    return M


def _oracle_moduli(p, dps=50):
    """Distinct root moduli of an integer polynomial with multiplicities,
    from mpmath roots of its squarefree factors at ``dps`` digits."""
    out = []
    with mpmath.workdps(dps):
        for f, mult in sp.factor_list(sp.Poly(p, X))[1]:
            roots = mpmath.polyroots([int(c) for c in f.all_coeffs()],
                                     maxsteps=200, extraprec=2 * dps)
            for r in roots:
                m = abs(r)
                for entry in out:
                    if abs(entry[0] - m) < mpmath.mpf(10) ** (-dps // 2):
                        entry[1] += mult
                        break
                else:
                    out.append([m, mult])
    return sorted(out, key=lambda e: -e[0])


def _nonreal_oracle_cases():
    rng = random.Random(20260101)
    cases = []
    while len(cases) < 6:     # seeded SL(3, Z) generators, a non-real root
        M = _elementary_product(rng, 3, rng.randint(4, 7), (1, -1))
        p = charpoly(M)
        if any(not r.is_real for r in sp.Poly(p, X).all_roots()):
            cases.append(p.as_expr())
    while len(cases) < 10:     # p * conj(p) of SL(2, Z[i]) generators
        M = _elementary_product(rng, 2, rng.randint(3, 5), (1, -1, I, -I))
        p, doubled = charpoly_times_conjugate(M)
        if doubled:
            cases.append(p.as_expr())
    return cases + [
        sp.cyclotomic_poly(5, X) * sp.cyclotomic_poly(12, X),  # all |z| = 1
        (X**2 - X + 1) ** 2 * (X - 1) * (X**3 - 2 * X**2 + X - 1),
        (X**4 - X + 1) * (X**4 + X + 1),    # equal moduli across factors
        # a linear factor isolates |root|^2 = 4 like any other factor
        (X - 2) * (X**2 - 3),
        # lambda, 1/lambda, -lambda, -1/lambda: two factors, each modulus twice
        (X**2 - 3 * X + 1) * (X**2 + 3 * X + 1),
        X**4 - X + 1,                       # two conjugate pairs alone
    ]


def _assert_moduli_match_mpmath(p, dps=50):
    ours = root_moduli(p)
    oracle = _oracle_moduli(p, dps)
    assert [m for _, m in ours] == [mult for _, mult in oracle]
    for (value, _), (expected, _) in zip(ours, oracle):
        lo, hi = value.enclosure(Fraction(1, 10**30))
        with mpmath.workdps(dps):
            slack = mpmath.mpf(10) ** (10 - dps)
            assert (mpmath.mpf(lo.numerator) / lo.denominator - slack
                    <= expected
                    <= mpmath.mpf(hi.numerator) / hi.denominator + slack)


@pytest.mark.parametrize("p", _nonreal_oracle_cases())
def test_root_moduli_nonreal_matches_mpmath(p):
    _assert_moduli_match_mpmath(p)


def test_root_moduli_close_real_moduli_match_mpmath():
    # a totally real cubic with two roots about 4.5e-23 apart near 1/a: its
    # squared moduli and their product differ by about 1e-31, so each root
    # is matched only by enclosures narrower than that, about 1e-13 of the
    # values themselves
    a = 10**9
    p = X**3 - 2 * a * a * X**2 + 4 * a * X - 2
    # 80 digits: the largest modulus, about 2*10^18, is compared to 10^-30
    _assert_moduli_match_mpmath(p, dps=80)


def test_root_moduli_zero_rejected():
    with pytest.raises(ExactAlgebraError):
        root_moduli(sp.Poly(0, X, domain="ZZ"))
    with pytest.raises(ExactAlgebraError):
        root_moduli(sp.Poly(X**3 - 3 * X**2 + X, X))


def test_unit_determinant_moduli_product_is_one():
    # product over all root moduli (with multiplicity) of a unit-determinant
    # integer matrix equals 1 exactly
    for rows in ([[2, 1], [1, 1]], [[1, 2], [1, 1]], [[0, -1], [1, 0]],
                 [[3, 2, 1], [1, 1, 0], [1, 1, 1]]):
        p = charpoly(Matrix(rows))
        prod = sp.Integer(1)
        for m, mult in root_moduli(p):
            prod *= m.expr ** mult
        assert exact_is_zero(sp.expand(prod - 1) if prod.is_Number
                             else prod - 1) or exact_equal(prod, 1)


# ---------------------------------------------------------------------------
# cyclotomic products and matrix orders
# ---------------------------------------------------------------------------

def test_cyclotomic_examples():
    assert is_cyclotomic_product([1, -4, 6, -4, 1])       # (x - 1)^4
    assert not is_cyclotomic_product([1, -3, 1])
    assert is_cyclotomic_product([1, 1, 1])
    assert is_cyclotomic_product([1])


def test_cyclotomic_rejects_non_monic():
    with pytest.raises(ExactAlgebraError):
        is_cyclotomic_product([2, -2])


def test_cyclotomic_vs_moduli_cross_check_exhaustive_deg2():
    # Kronecker: all roots on the unit circle iff every factor is cyclotomic
    for b, c in itertools.product(range(-3, 4), repeat=2):
        p = sp.Poly(X**2 + b * X + c, X)
        if c == 0:
            continue  # zero root; modulus 0, not covered by the equivalence
        mods = root_moduli(p)
        all_one = (len(mods) == 1 and exact_is_zero(mods[0][0].expr - 1))
        assert is_cyclotomic_product(p.all_coeffs()) == all_one, (b, c)


def _order(rows):
    """The order of an integer matrix of determinant +-1, given as rows."""
    return matrix_order(TorusAutomorphism([[int(v) for v in row]
                                           for row in rows]))


def test_matrix_order_examples():
    assert _order([[0, -1], [1, 0]]) == 4
    assert _order(eye(3).tolist()) == 1
    assert _order([[1, 1], [0, 1]]) == INFINITE_ORDER
    assert _order([[2, 1], [1, 1]]) == INFINITE_ORDER
    assert _order([[-1, 0], [0, -1]]) == 2


def test_matrix_order_of_gaussian_automorphisms():
    # [[0, i], [i, 0]] and i I square to -I; the shear by i is unipotent
    # with p * conj(p) = (x - 1)^4 cyclotomic, so only A^1 = I decides it
    assert matrix_order(TorusAutomorphism(Matrix([[0, I], [I, 0]]))) == 4
    assert matrix_order(TorusAutomorphism(I * eye(2))) == 4
    assert matrix_order(TorusAutomorphism(Matrix([[1, I], [0, 1]]))) == \
        INFINITE_ORDER


def test_finite_order_bound_small_dims():
    # dim 1: orders 1, 2 -> lcm 2; dim 2 adds 3, 4, 6 -> lcm 12
    assert finite_order_bound(1) == 2
    assert finite_order_bound(2) == 12
    assert finite_order_bound(4) % 12 == 0


# independent oracles for the integer certificate: sympy's cyclotomic
# polynomials, floating-point roots and brute-force matrix powers


def _phi(m):
    return tuple(int(c) for c in sp.Poly(sp.cyclotomic_poly(m, X), X)
                 .all_coeffs())


def test_cyclotomic_index_of_every_phi_m_up_to_120():
    for m in range(1, 121):
        assert _cyclotomic_index(_phi(m)) == m


def test_cyclotomic_products_with_multiplicity():
    rng = random.Random(1988)
    draws = [[5, 5, 12], [60, 60]] + [
        [rng.randint(1, 60) for _ in range(rng.randint(1, 3))]
        for _ in range(40)]
    for ms in draws:
        p = sp.Poly(sp.Mul(*[sp.cyclotomic_poly(m, X) for m in ms]), X)
        assert is_cyclotomic_product(p.all_coeffs()), ms


def test_salem_polynomials_are_not_cyclotomic_products():
    lehmer = [1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1]
    salem_quartic = [1, -1, -1, -1, 1]
    for p in (lehmer, salem_quartic):
        off_circle = [r for r in sp.Poly(p, X).nroots(n=30)
                      if abs(abs(r) - 1) > 1e-6]
        assert len(off_circle) == 2
        assert not is_cyclotomic_product(p)


def _companion(coeffs):
    n = len(coeffs) - 1
    return Matrix(n, n, lambda i, j:
                  -coeffs[n - i] if j == n - 1 else int(i == j + 1))


def _brute_force_order(A, limit=120):
    """The least n <= limit with A^n = I, else INFINITE_ORDER."""
    A = DomainMatrix.from_Matrix(A)
    one, P = DomainMatrix.eye(A.shape[0], A.domain), A
    for n in range(1, limit + 1):
        if P == one:
            return n
        P = P * A
    return INFINITE_ORDER


def test_matrix_order_against_brute_force():
    rng = random.Random(63)
    cases = [[7, 9], [1], [2, 2], [4, 6, 10]]
    while len(cases) < 14:
        ms = [rng.randint(1, 24) for _ in range(rng.randint(1, 3))]
        if math.lcm(*ms) <= 120:
            cases.append(ms)
    for ms in cases:
        A = sp.diag(*[_companion(_phi(m)) for m in ms])
        assert _order(A.tolist()) == _brute_force_order(A) \
            == math.lcm(*ms), ms
    # a Jordan block of a cyclotomic companion has infinite order
    C = _companion(_phi(3))
    J = Matrix(sp.BlockMatrix([[C, eye(2)], [sp.zeros(2), C]]))
    assert _order(J.tolist()) == _brute_force_order(J) == INFINITE_ORDER


def test_matrix_order_of_finite_order_h11_actions():
    from toraldyn.cohomology import TorusAutomorphism, h11_matrix
    torsion = [Matrix([[0, -1], [1, 0]]), Matrix([[0, -1], [1, 1]]),
               Matrix([[-1, -1], [1, 0]]), Matrix([[I, 0], [0, -I]]),
               Matrix([[0, I], [I, 0]])]
    rng = random.Random(2)
    for _ in range(10):
        P = eye(2)
        for _ in range(rng.randint(1, 4)):
            i, j = rng.sample(range(2), 2)
            E = eye(2)
            E[i, j] = rng.choice((1, -1, I, -I)) * rng.randint(1, 2)
            P = P * E
        f = TorusAutomorphism(sp.expand(P * rng.choice(torsion) * P.inv()))
        n = _order(h11_matrix(f))
        assert n != INFINITE_ORDER
        assert n == _brute_force_order(Matrix(h11_matrix(f)))


# ---------------------------------------------------------------------------
# symmetric definiteness: fraction-free pivots against a Fraction LDL^H
# ---------------------------------------------------------------------------

def _reference_definiteness(M):
    """Pivoted LDL^H over Fractions: first negative diagonal -> witness e_i;
    else the first positive diagonal is the pivot; an all-zero diagonal is
    psd iff the rest vanishes, else v = e_i - M_ji e_j is the witness."""
    n = len(M)
    work = [[Fraction(v) for v in row] for row in M]
    active = list(range(n))
    steps = []

    def lift(w):
        v = dict(w)
        for piv, mult in reversed(steps):
            v[piv] = -sum(f * v.get(i, 0) for i, f in mult.items())
        return [v.get(i, 0) for i in range(n)]

    while active:
        neg = next((i for i in active if work[i][i] < 0), None)
        if neg is not None:
            return False, False, lift({neg: 1})
        piv = next((i for i in active if work[i][i] > 0), None)
        if piv is None:
            for i, j in itertools.combinations(active, 2):
                if work[j][i] != 0:
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
                    work[i][j] -= f * work[piv][j]
        steps.append((piv, mult))
    return True, True, None


def _definiteness_cases(count=320, seed=13):
    """Seeded integer and rational symmetric matrices, n <= 15: full random,
    rank-deficient B B^T, B D B^T with one negative weight, zero diagonals,
    B B^T padded with zero rows and columns, and L diag(D, Z) L^T with L
    unit lower triangular, D > 0 of size p and Z of zero diagonal, whose
    Schur complement after the p pivots of D is Z."""
    rng = random.Random(seed)

    def symmetric(n, entry):
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                M[i][j] = M[j][i] = entry()
        return M

    def gram(B, weights):
        n = len(B)
        return [[sum(w * B[i][t] * B[j][t] for t, w in enumerate(weights))
                 for j in range(n)] for i in range(n)]

    def small_int():
        return rng.randint(-3, 3)

    def small_rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    cases = []
    for c in range(count):
        n = rng.randint(1, 15)
        kind = c % 7
        if kind == 0:
            M = symmetric(n, small_int)
        elif kind == 1:
            M = symmetric(n, small_rational)
        elif kind == 2:
            r = rng.randint(0, n - 1)
            B = [[small_rational() for _ in range(r)] for _ in range(n)]
            M = gram(B, [1] * r)
        elif kind == 3:
            r = rng.randint(1, n)
            B = [[small_int() for _ in range(r)] for _ in range(n)]
            weights = [1] * r
            weights[rng.randrange(r)] = -1
            M = gram(B, weights)
        elif kind == 4:
            M = symmetric(n, lambda: small_int() if rng.random() < 0.3 else 0)
            for i in range(n):
                M[i][i] = 0
        elif kind == 5:
            r = rng.randint(1, n)
            B = [[small_int() for _ in range(r)] for _ in range(n)]
            for i in rng.sample(range(n), rng.randint(0, n - 1)):
                B[i] = [0] * r
            M = gram(B, [1] * r)
        else:
            p = rng.randint(0, n - 1)
            Z = symmetric(n, lambda: small_rational() if rng.random() < 0.3
                          else 0)
            for i in range(n):
                for j in range(n):
                    if min(i, j) < p:
                        Z[i][j] = 0
                Z[i][i] = Fraction(rng.randint(1, 9), rng.randint(1, 4)) \
                    if i < p else 0
            # L mixes only the first p coordinates into the others, so no
            # diagonal entry turns negative before the pivots of D are done
            L = [[small_rational() if j < min(i, p) else int(i == j)
                  for j in range(n)] for i in range(n)]
            M = [[sum(L[i][a] * Z[a][b] * L[j][b]
                      for a in range(n) for b in range(n))
                  for j in range(n)] for i in range(n)]
        if rng.random() < 0.5:
            M = [[Fraction(v) for v in row] for row in M]
        cases.append(M)
    return cases


def test_symmetric_definiteness_matches_fraction_reference():
    seen = set()
    for M in _definiteness_cases():
        got = symmetric_definiteness(M)
        assert got == _reference_definiteness(M), M
        psd, pd, witness = got
        seen.add((psd, pd))
        if not psd:
            n = len(M)
            assert sum(witness[i] * M[i][j] * witness[j]
                       for i in range(n) for j in range(n)) < 0
    # every outcome is exercised
    assert seen == {(True, True), (True, False), (False, False)}


def test_symmetric_definiteness_zero_diagonal_witness():
    # after the pivot 0 the Schur complement on {1, 2} is [[0, -1/2],
    # [-1/2, 0]]: the witness carries the true entry -1/2, not the
    # fraction-free integer that stands for it
    M = [[1, 1, 1], [1, 1, Fraction(1, 2)], [1, Fraction(1, 2), 1]]
    psd, pd, witness = symmetric_definiteness(M)
    assert (psd, pd, witness) == _reference_definiteness(M)
    assert not psd
    assert sum(witness[i] * M[i][j] * witness[j]
               for i in range(3) for j in range(3)) < 0


def test_symmetric_definiteness_sympy_rationals_take_the_integer_path(
        monkeypatch):
    # the Hermitian matrix of a rational class holds sympy Rationals (One,
    # Zero, Half, ...); they are scaled to integers like Fractions, so no
    # entry is decided in a sympy field: the field path takes its signs and
    # zeros from exact_algebra at call time
    def field_decision(v):
        raise AssertionError("a rational matrix was decided in a field")

    for name in ("exact_sign", "exact_is_zero"):
        monkeypatch.setattr(exact_algebra, name, field_decision)
    for M in _definiteness_cases():
        rows = [[sp.Rational(v) for v in row] for row in M]
        assert symmetric_definiteness(rows) == symmetric_definiteness(M)
    assert symmetric_definiteness(eye(3).tolist()) == (True, True, None)


# ---------------------------------------------------------------------------
# the exact determinant: fraction-free Bareiss over Z[i] against sympy
# ---------------------------------------------------------------------------

def _sympy_det(rows):
    n = len(rows)
    M = Matrix(n, n, lambda i, j: rows[i][j][0] + I * rows[i][j][1])
    re, im = sp.expand(M.det()).as_real_imag()
    return int(re), int(im)


@pytest.mark.parametrize("gaussian", [False, True],
                         ids=["integer", "gaussian"])
def test_gaussian_det_matches_sympy(gaussian):
    rng = random.Random(20261019 + gaussian)

    def entry():
        # sparse, so zero pivots also turn up in the middle of elimination
        if rng.random() < 0.4:
            return (0, 0)
        return (rng.randint(-3, 3), rng.randint(-3, 3) if gaussian else 0)

    ur, ui = (1, 1) if gaussian else (2, 0)
    kinds = set()
    for n in range(7):
        for trial in range(16):
            rows = [[entry() for _ in range(n)] for _ in range(n)]
            kind = trial % 4 if n else 0
            if kind == 1:
                # zero leading pivots: only the last row can start
                for row in rows[:-1]:
                    row[0] = (0, 0)
            elif kind == 2 and n > 1:
                # singular: the last row is a Gaussian multiple of the first
                rows[-1] = [(ur * a - ui * b, ur * b + ui * a)
                            for a, b in rows[0]]
            elif kind == 3:
                # singular: a zero column
                j = rng.randrange(n)
                for row in rows:
                    row[j] = (0, 0)
            before = [list(row) for row in rows]
            got = gaussian_det(rows)
            assert got == _sympy_det(rows), rows
            assert rows == before                   # the input is not changed
            if kind in (2, 3) and n > 1:
                assert got == (0, 0)
            kinds.add((kind, got == (0, 0)))
    assert gaussian_det([]) == (1, 0)
    # every kind of case is exercised, with regular and singular outcomes
    assert {kind for kind, _ in kinds} == {0, 1, 2, 3}
    assert {singular for _, singular in kinds} == {False, True}


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

def _hnf(rows):
    """Row Hermite normal form without its zero rows."""
    return [row for row in hermite_normal_form_rows(rows)[0] if any(row)]


def test_hermite_identity():
    H = _hnf(eye(3).tolist())
    assert len(H) == 3
    assert Matrix(H) == eye(3)


def test_hermite_single_vector():
    H = _hnf([[2, 4]])
    assert len(H) == 1
    assert tuple(H[0]) in ((2, 4), (-2, -4))


def test_hermite_transform_and_idempotent():
    rng = random.Random(7)
    for _ in range(20):
        rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        A = Matrix(rows)
        # the transform actually produces the Hermite form
        H, U = hermite_normal_form_rows(rows)
        assert Matrix(H) == Matrix(U) * A
        # idempotence
        assert hermite_normal_form_rows(H)[0] == H


def test_lattice_rejects_wrong_length():
    with pytest.raises(ExactAlgebraError):
        IntegerLattice(2, ((1, 2, 3),))


# ---------------------------------------------------------------------------
# integer relation candidates
# ---------------------------------------------------------------------------

def _digits60(expr) -> Fraction:
    """A real sympy value to 60 digits, as the exact binary Fraction."""
    return Fraction(sp.Rational(sp.N(expr, 60)))


def test_relation_ln2_ln4():
    cands = integer_relations([[_digits60(sp.log(2))],
                               [_digits60(sp.log(4))]])
    assert [2, -1] in cands


def test_relation_tau_minus_tau():
    t = _digits60(sp.log(1 + sp.sqrt(2)))
    cands = integer_relations([[t], [-t]])
    assert [1, 1] in cands


def test_integral_lll_finds_the_relation_of_t_and_2t():
    # at the 10^40 scale of (t, 2t) an LLL that rounds mu_kj through float
    # breaks its own size reduction; the integral one finds the relation
    t = sp.log((7 + 3 * sp.sqrt(5)) / 2)
    assert integer_relations([[_digits60(t)],
                              [_digits60(2 * t)]]) == [[2, -1]]


def test_no_relation_ln2_ln3():
    # at the fixed tolerance 10^-12
    cands = integer_relations([[_digits60(sp.log(2))],
                               [_digits60(sp.log(3))]])
    # oracle: exhaustive search over |e_i| <= 50 finds no relation
    l2, l3 = math.log(2), math.log(3)
    for a in range(-50, 51):
        for b in range(-50, 51):
            if (a, b) != (0, 0):
                assert abs(a * l2 + b * l3) > 1e-12
    for e in cands:
        assert max(abs(v) for v in e) > 50 or \
            abs(e[0] * l2 + e[1] * l3) > 1e-12


def test_relations_hold_in_every_coordinate():
    # one LLL over both coordinates: each coordinate alone admits a
    # 2-dimensional relation lattice, the three vectors together one line
    a, b = _digits60(sp.log(2)), _digits60(sp.log(3))
    assert integer_relations([[a, 0], [0, b], [a, b]]) == [[1, 1, -1]]
    # (1, -1) holds in the first coordinate only
    assert integer_relations([[a, 0], [a, b]]) == []


def _gram_schmidt(rows):
    """Exact Gram-Schmidt: (mu, squared norms of the b*_i) in Fractions."""
    star, mu, norms = [], [], []
    for i, row in enumerate(rows):
        v = [Fraction(x) for x in row]
        mu.append([])
        for j in range(i):
            m = sum(a * b for a, b in zip(row, star[j])) / norms[j]
            mu[i].append(m)
            v = [a - m * b for a, b in zip(v, star[j])]
        star.append(v)
        norms.append(sum(a * a for a in v))
    return mu, norms


def _small_basis(rng, m):
    n = m + rng.randint(0, 2)
    while True:
        rows = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)]
        if Matrix(rows).rank() == m:
            return rows


def _relation_basis(rng, n):
    # [e_i | round(v_i 10^40)] over logs of 2^a 3^b 5^c (relations among
    # them exist) and seeded reals (none expected)
    with mpmath.workdps(60):
        vals = [mpmath.log(2 ** rng.randint(0, 4) * 3 ** rng.randint(0, 3)
                           * 5 ** rng.randint(0, 2))
                if rng.random() < 0.6 else
                mpmath.mpf(rng.randint(1, 10**12)) / 10**6
                for _ in range(n)]
        scaled = [int(mpmath.nint(v * mpmath.mpf(10) ** 40)) for v in vals]
    return [[int(i == j) for j in range(n)] + [c]
            for i, c in enumerate(scaled)]


def _lll_bases():
    rng = random.Random(20261018)
    return ([pytest.param(_small_basis(rng, m), id=f"small_{m}_{i}")
             for m in (2, 3, 4, 5) for i in range(5)]
            + [pytest.param(_relation_basis(rng, n), id=f"relation_{n}_{i}")
               for n in (2, 3, 4, 5) for i in range(5)])


@pytest.mark.parametrize("rows", _lll_bases())
def test_lll_reduce_oracle(rows):
    red = lll_reduce(rows)
    assert all(isinstance(x, int) for row in red for x in row)
    # the same lattice: every output row is an integer combination of the
    # input rows, and the Gram determinants (squared covolumes) agree
    B = Matrix(rows)
    G = B * B.T
    for row in red:
        coeffs = Matrix([row]) * B.T * G.inv()
        assert all(c.is_integer for c in coeffs)
        assert coeffs * B == Matrix([row])
    assert (Matrix(red) * Matrix(red).T).det() == G.det()
    mu, norms = _gram_schmidt(red)
    # size-reduced, and Lovasz with delta = 99/100
    assert all(abs(m) <= Fraction(1, 2) for r in mu for m in r)
    for k in range(1, len(red)):
        assert norms[k] >= (Fraction(99, 100) - mu[k][k - 1] ** 2) * norms[k - 1]


@pytest.mark.parametrize("seed", range(4))
def test_lll_reduce_equals_sympy_on_small_entries(seed):
    # where sympy's float rounding of the Gram-Schmidt coefficients is exact
    # both follow the same reduction order, so the bases agree row for row
    rng = random.Random(seed)
    for m in (2, 3, 4, 5):
        rows = _small_basis(rng, m)
        dm = DomainMatrix([[sp.ZZ(x) for x in r] for r in rows],
                          (m, len(rows[0])), sp.ZZ)
        expected = dm.lll(delta=sp.QQ(99, 100)).to_Matrix().tolist()
        assert lll_reduce(rows) == [[int(x) for x in r] for r in expected]


# ---------------------------------------------------------------------------
# certified reals
# ---------------------------------------------------------------------------

def test_certified_real_enclosure_shrinks():
    v = CertifiedReal(sp.sqrt(2))
    lo, hi = v.enclosure(Fraction(1, 10**20))
    assert hi - lo <= 2 * Fraction(1, 10**20)
    assert lo * lo <= 2 <= hi * hi  # sqrt(2) really lies in [lo, hi]


def test_certified_real_equality_is_exact_and_unhashable():
    # equal numbers whose expressions are different trees
    a = CertifiedReal((1 + sp.sqrt(2)) ** 2)
    b = CertifiedReal(3 + 2 * sp.sqrt(2))
    assert a == b
    for v in (a, CertifiedReal(sp.sqrt(2))):
        with pytest.raises(TypeError):
            hash(v)


def test_algebraic_real_min_poly():
    assert sp.Poly(real_root(sp.sqrt(2) + 1).poly, X) == sp.Poly(
        X**2 - 2 * X - 1, X)


def test_exact_sign_and_equality():
    assert exact_sign(sp.sqrt(2) - 1) == 1
    assert exact_sign(1 - sp.sqrt(2)) == -1
    assert exact_sign(sp.sqrt(2) ** 2 - 2) == 0
    assert exact_equal(sp.sqrt(8), 2 * sp.sqrt(2))
    assert not exact_equal(sp.sqrt(2), Fraction(141421356, 10**8))


def test_non_real_values_are_refused():
    # the integer kernel decides real algebraic values only; a zero in a
    # non-real root and the real part of one raise instead of being guessed
    r = sp.CRootOf(X**3 - X + 1, 1)
    assert not r.is_real
    with pytest.raises(ExactAlgebraError):
        exact_is_zero(r**3 - r + 1)
    with pytest.raises(ExactAlgebraError):
        exact_sign(sp.re(r))


# ---------------------------------------------------------------------------
# the real-algebraic kernel
# ---------------------------------------------------------------------------

def test_real_root_from_crootof_matches_sympy_order():
    # converted through the integer polynomial and the index, and isolated
    # by the kernel's own Sturm sequences
    for f in (X**3 - X - 1, X**5 - 5 * X**3 + 4 * X + 1, X**4 - 10 * X**2 + 1):
        roots = sp.Poly(f, X).real_roots()
        kernel = [real_root(r) for r in roots]
        for r, k in zip(roots, kernel):
            lo, hi = k.enclosure(Fraction(1, 10**20))
            with mpmath.workdps(40):
                v = r.evalf(40)
                assert lo <= Fraction(str(v)) + Fraction(1, 10**35)
                assert Fraction(str(v)) - Fraction(1, 10**35) <= hi
        for a, b in itertools.combinations(kernel, 2):
            assert a.compare(b) == -1 and b.compare(a) == 1 and a != b


def test_real_root_equality_across_representations():
    # the same number as a CRootOf, a radical expression and a rational
    golden = sp.Poly(X**2 - X - 1, X).real_roots()[1]
    assert real_root(golden) == real_root((1 + sp.sqrt(5)) / 2)
    assert exact_equal(real_root((1 + sp.sqrt(5)) / 2), golden)
    assert not exact_equal(real_root(golden), (1 - sp.sqrt(5)) / 2)
    assert exact_equal(RealRoot.rational(Fraction(3, 2)), sp.Rational(3, 2))
    assert not exact_equal(RealRoot.rational(Fraction(3, 2)), 1)
    assert real_root(sp.sqrt(2)).compare(Fraction(141421356, 10**8)) == 1
    assert real_root(sp.sqrt(2)).compare(Fraction(141421357, 10**8)) == -1
    assert RealRoot.rational(1).compare(real_root(sp.sqrt(2))) == -1
    assert CertifiedReal(sp.sqrt(2)) == real_root(sp.sqrt(2))


def test_real_root_enclosure_is_independent_of_history():
    a, b = (real_root(sp.CRootOf(X**3 - X - 1, 0)) for _ in range(2))
    b.enclosure(Fraction(1, 10**40))          # refine one copy far ahead
    for digits in (3, 12, 25):
        eps = Fraction(1, 10**digits)
        lo, hi = a.enclosure(eps)
        assert (lo, hi) == b.enclosure(eps)
        assert hi - lo <= 2 * eps
        assert lo**3 - lo - 1 < 0 < hi**3 - hi - 1


# ---------------------------------------------------------------------------
# the integer minimal-polynomial kernel
# ---------------------------------------------------------------------------

def _totally_real(rng, degree):
    """A seeded monic irreducible integer polynomial with only real roots."""
    while True:
        p = sp.Poly([1] + [rng.randint(-9, 9) for _ in range(degree)], X)
        if p.is_irreducible and p.count_roots() == degree:
            return p


def _kernel_cases():
    rng = random.Random(20261018)
    cases = []
    for degree in (3, 3, 3, 4, 4):
        p = _totally_real(rng, degree)
        r = [sp.CRootOf(p, i) for i in range(degree)]
        exprs = [sp.Mul(*r[:n]) for n in range(1, degree + 1)]
        exprs += [r[0] - r[1], r[-1] - r[0], sp.Add(*r) + p.all_coeffs()[1],
                  r[-1] - (7 + 3 * sp.sqrt(5)) / 2]
        top = r[-1] * r[-2]
        exprs.append(sp.sqrt(top if sp.N(top) > 0 else -top))
        cases.append(pytest.param(p, exprs, id=str(p.as_expr())))
    # the larger root of x^2 - 7x + 1 is the radical itself
    golden = sp.CRootOf(X**2 - 7 * X + 1, 1)
    cases.append(pytest.param(golden.poly, [
        golden - (7 + 3 * sp.sqrt(5)) / 2, sp.sqrt(golden) ** 3 - 2 * golden],
        id="x**2 - 7*x + 1"))
    return cases


@pytest.mark.parametrize("p,exprs", _kernel_cases())
def test_kernel_minimal_polynomial_oracle(p, exprs):
    # sympy's minimal_polynomial is the oracle here, and only here
    for e in exprs:
        oracle = sp.Poly(sp.minimal_polynomial(e, X), X)
        root = _kernel_root(e)
        assert sp.Poly(root.poly, X) == oracle, e
        assert sp.Poly(real_root(e).poly, X) == oracle
        assert sp.Poly(real_root(CertifiedReal(e)).poly, X) == oracle
        assert exact_is_zero(e) == (oracle.all_coeffs() == [1, 0]), e
        lo, hi = root.enclosure(Fraction(1, 10**30))
        v = Fraction(str(sp.N(e, 50)))
        assert lo - Fraction(1, 10**40) <= v <= hi + Fraction(1, 10**40), e


def test_kernel_grammar():
    theta = sp.CRootOf(X**3 - X - 1, 0)
    # outside the grammar: non-real atoms, I, symbols, transcendentals, and
    # the square root of a negative value
    for e in (sp.CRootOf(X**3 - X - 1, 1), sp.I * theta, sp.Symbol("y"),
              sp.pi, sp.sqrt(1 - theta), 1 / theta):
        assert _kernel_root(e) is None
    with pytest.raises(ExactAlgebraError):
        real_root(sp.I * theta)
    # ... where no minimal polynomial is computed
    with pytest.raises(ExactAlgebraError):
        real_root(CertifiedReal(sp.I * theta))
    # the square root of a zero that sympy does not see
    zero = sp.Add(theta**3, -theta, -1, evaluate=False)
    assert _kernel_root(sp.Pow(zero, sp.S.Half, evaluate=False)).poly == (1, 0)


def _real_root_intervals():
    from sympy.polys import rootoftools
    return {k: [(iv.a, iv.b) for iv in v]
            for k, v in rootoftools._reals_cache._dict.items()}


def test_kernel_leaves_sympy_root_cache_alone():
    # the printed interval of a bare CRootOf starts from sympy's cached
    # isolating interval, so the minimal polynomial must not refine it
    p = sp.Poly(X**4 - 13 * X**3 + 18 * X**2 - 8 * X + 1, X)
    r = p.real_roots(radicals=False)
    # a CRootOf built directly has no cache entry until it is evaluated
    lazy = sp.CRootOf(X**3 - 5 * X**2 + 6 * X - 1, 2)
    exprs = [r[2] * r[3], r[1] * r[2] * r[3], sp.sqrt(r[3]), r[3] - r[2],
             sp.Mul(*r), sp.Add(*r) - 13, lazy * r[0], lazy**2 - lazy,
             sp.sqrt(r[3] - r[2]) ** 3]
    before = _real_root_intervals()
    for e in exprs:
        real_root(CertifiedReal(e)).poly
        _kernel_root(e).enclosure(Fraction(1, 10**30))
        real_root(e)
    assert _real_root_intervals() == before


def test_spectral_radius_cat():
    rho = spectral_radius(Matrix([[2, 1], [1, 1]]))
    assert float(rho) == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)
