"""Tests for the torus cohomology model: actions, degrees, class algebra."""

import itertools
import math
import random

import pytest
import sympy as sp
from sympy import I, Matrix, eye

from toraldyn import ExactAlgebraError, cohomology, integer_model
from toraldyn.integer_model import _CATALOG, catalog_group, h11_charpoly
from toraldyn.exact_algebra import (charpoly, exact_equal, exact_is_zero,
                                    real_root)
from toraldyn.cohomology import (
    CohomClass, TorusAutomorphism, classify, compound, degree_profile,
    dynamical_degree, entropy, enumerate_degree_values, h11_matrix, is_nef,
    pullback, wedge)

from oracles import (automorphism, hermitian_basis, hermitian_coords,
                     hpp_matrix, pair_rows, spectral_radius, sympy_matrix)
from statements import intersection_number, is_kahler, wedge_all

CAT = TorusAutomorphism([[2, 1], [1, 1]], name="cat")
PELL = TorusAutomorphism([[1, 2], [1, 1]], name="pell")
SHEAR = automorphism([[1, 1 + I], [0, 1]], name="shear")
ROT = TorusAutomorphism([[0, -1], [1, 0]], name="rot")

GOLDEN_D1 = (7 + 3 * math.sqrt(5)) / 2       # ((3+sqrt 5)/2)^2
CAT_ENTROPY = 2 * math.log((3 + math.sqrt(5)) / 2)
PELL_ENTROPY = 2 * math.log(1 + math.sqrt(2))


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

def test_automorphism_requires_unit_determinant():
    with pytest.raises(ValueError,
                       match=r"^determinant 2 is not a unit of Z\[i\]$"):
        TorusAutomorphism([[2, 0], [0, 1]])
    with pytest.raises(ValueError,
                       match=r"^determinant 1 \+ I is not a unit of Z\[i\]$"):
        automorphism([[1 + I, 0], [0, 1]])
    with pytest.raises(ValueError):
        TorusAutomorphism([[sp.Rational(1, 2), 0], [0, 2]])
    automorphism([[I, 0], [0, 1]])  # det i is fine


def test_automorphism_reads_int_and_pair_rows_only():
    # sympy values are read to pairs at the tests' boundary, not here; the
    # charpoly reads rows as the automorphism does
    for read in (TorusAutomorphism, charpoly):
        with pytest.raises(ValueError):
            read(Matrix([[2, 1], [1, 1]]))
        for entry in (sp.Integer(2), sp.Rational(1, 2), 2.0, (2, 0.0)):
            with pytest.raises(ValueError,
                               match=r"^entries must be Gaussian integers$"):
                read([[entry, 1], [1, 1]])
        assert read([[2, 1], [1, 1]]) == \
            read([[(2, 0), (1, 0)], [(1, 0), (1, 0)]])


def test_automorphism_group_operations():
    assert sympy_matrix(CAT.inverse().compose(CAT)) == eye(2)
    assert sympy_matrix(CAT.power(2)) == Matrix([[5, 3], [3, 2]])
    assert sympy_matrix(CAT.power(-1)) == sympy_matrix(CAT.inverse())


def test_gaussian_compose_is_exact():
    # the product's entries expand to canonical a + b*i, so it is accepted
    # and equals the power computed another way
    g = automorphism([[1 + I, 1], [I, 1]])
    assert g.compose(g) == g.power(2)
    assert hash(g.compose(g)) == hash(g.power(2))
    assert g.compose(g.inverse()) == automorphism(eye(2))


def test_power_is_repeated_squaring(monkeypatch):
    # f^e equals e-fold composition of f or f^-1, and takes O(log e)
    # products of integer pairs, not e
    g = automorphism([[1 + I, 1], [I, 1]])
    for e in range(-7, 8):
        expected = automorphism(eye(2))
        for _ in range(abs(e)):
            expected = expected.compose(g if e > 0 else g.inverse())
        assert g.power(e) == expected, e
    calls = []
    product = integer_model._pair_product

    def counted(P, Q):
        calls.append(1)
        return product(P, Q)

    monkeypatch.setattr(integer_model, "_pair_product", counted)
    g.power(-64)
    assert len(calls) <= 2 * (64).bit_length()


# ---------------------------------------------------------------------------
# cohomology actions
# ---------------------------------------------------------------------------

def test_h11_identity():
    assert Matrix(h11_matrix(automorphism(eye(3)))) == eye(9)


def test_h11_rotation_swaps_diagonal_elements():
    M = Matrix(h11_matrix(ROT))
    basis = hermitian_basis(2)
    e11 = hermitian_coords(basis[0])
    image = M * Matrix(e11)
    A = sympy_matrix(ROT)
    assert list(image) == hermitian_coords(A.H * basis[0] * A)
    assert A.H * basis[0] * A == Matrix([[0, 0], [0, 1]])


def test_h11_matches_direct_conjugation():
    rng = random.Random(3)
    for _ in range(10):
        H = Matrix(2, 2, lambda i, j: rng.randint(-3, 3) +
                   I * rng.randint(-3, 3))
        H = H + H.H
        for f in (CAT, SHEAR, ROT):
            coords = Matrix(hermitian_coords(H))
            A = sympy_matrix(f)
            direct = sp.expand(A.T * H * A.conjugate())
            lhs = sp.expand(Matrix(h11_matrix(f)) * coords)
            assert lhs == sp.expand(Matrix(hermitian_coords(direct)))


def _h11_matrix_by_products(f):
    """f* on H^{1,1} by its defining formula H -> C H C^H in sympy matrix
    products, C = compound(f, 1) = A^T: the reference for h11_matrix."""
    C = sympy_matrix(f).T
    cols = [[sp.expand(c) for c in hermitian_coords(C * E * C.H)]
            for E in hermitian_basis(f.k)]
    return Matrix(cols).T


def _unimodular_gaussian(rng, k):
    """A seeded product of elementary matrices I + u E_ij and one diagonal
    unit, u a unit of Z[i]."""
    units = (1, -1, I, -I)
    M = sp.diag(rng.choice(units), *[1] * (k - 1))
    for _ in range(rng.randint(2, 6)):
        i, j = rng.sample(range(k), 2)
        E = eye(k)
        E[i, j] = rng.choice(units)
        M = M * E
    return M


@pytest.mark.parametrize("k", [2, 3])
def test_h11_matrix_matches_conjugation_formula(k):
    rng = random.Random(20261018 + k)
    for _ in range(8):
        f = automorphism(_unimodular_gaussian(rng, k))
        expected = _h11_matrix_by_products(f)
        assert Matrix(h11_matrix(f)) == expected
        assert list(h11_charpoly(f)) == \
            charpoly(pair_rows(expected)).all_coeffs()


def _compound_by_minors(f, p):
    """C[S', S] = det A[S, S'] by sympy minors: the reference for
    compound."""
    subs = list(itertools.combinations(range(f.k), p))
    A = sympy_matrix(f)
    return Matrix([[sp.expand(A.extract(list(S), list(Sp)).det())
                    for S in subs] for Sp in subs])


@pytest.mark.parametrize("k", [2, 3, 4])
def test_compound_and_inverse_match_sympy(k):
    rng = random.Random(20261019 + k)
    autos = [g for name in sorted(_CATALOG) for g in catalog_group(name).generators
             if g.k == k]
    autos += [automorphism(_unimodular_gaussian(rng, k))
              for _ in range(4)]
    autos += [_random_unimodular(rng, k) for _ in range(2)]
    for f in autos:
        for p in range(k + 1):
            C = compound(f, p)
            assert Matrix([[re + im * I for re, im in row] for row in C]) \
                == _compound_by_minors(f, p), (sympy_matrix(f), p)
        A = sympy_matrix(f)
        assert sympy_matrix(f.inverse()) == A.inv().applyfunc(sp.expand), A
        assert sympy_matrix(f.inverse().compose(f)) == eye(k)


def test_hpp_edge_degrees():
    assert hpp_matrix(CAT, 0) == eye(1)
    top = hpp_matrix(CAT, 2)
    assert top == eye(1)  # |det A|^2 = 1
    with pytest.raises(ValueError):
        hpp_matrix(CAT, 3)


def _random_unimodular(rng, k):
    """A seeded Gaussian-integer matrix of unit determinant: a product of
    elementary matrices, times a diagonal unit."""
    A = sp.diag(rng.choice((1, -1, I, -I)), *[1] * (k - 1))
    for _ in range(4):
        i, j = rng.sample(range(k), 2)
        E = eye(k)
        E[i, j] = rng.randint(-2, 2) + I * rng.randint(-2, 2)
        A = A * E
    return automorphism(A)


def test_pullback_is_hpp_matrix_on_coefficients():
    # the class algebra and the matrix of f* read the same compound matrix
    # in the same (S, T) order
    rng = random.Random(14)
    for _ in range(4):
        f = _random_unimodular(rng, 3)
        for p in (1, 2):
            subs = list(itertools.combinations(range(3), p))
            keys = [(S, T) for S in subs for T in subs]
            coeffs = {key: rng.randint(-3, 3) + I * rng.randint(-3, 3)
                      for key in keys}
            image = pullback(f, CohomClass(3, p, coeffs))
            expected = hpp_matrix(f, p) * Matrix([coeffs[key] for key in keys])
            for key, v in zip(keys, expected):
                assert sp.expand(image.coeffs.get(key, 0) - v) == 0


@pytest.mark.parametrize("f", [
    CAT, SHEAR, automorphism([[1 + I, 1], [I, 1]]),
    *catalog_group("cubic_T3").generators], ids=lambda f: f.name)
def test_dynamical_degree_is_hpp_spectral_radius(f):
    for p in range(1, f.k):
        assert exact_equal(dynamical_degree(f, p).expr,
                           spectral_radius(hpp_matrix(f, p)).expr)


# ---------------------------------------------------------------------------
# degrees, entropy, classification
# ---------------------------------------------------------------------------

def test_dynamical_degree_examples():
    assert exact_equal(dynamical_degree(automorphism(eye(2)), 1).expr, 1)
    assert float(dynamical_degree(CAT, 1)) == pytest.approx(GOLDEN_D1,
                                                            abs=1e-10)
    assert exact_equal(dynamical_degree(PELL, 1).expr, 3 + 2 * sp.sqrt(2))


def test_degree_profile_endpoints():
    prof = degree_profile(CAT)
    assert exact_equal(prof.degrees[0].expr, 1)
    assert exact_equal(prof.degrees[-1].expr, 1)
    assert classify(CAT) == "positive_entropy"


def test_entropy_examples():
    assert float(entropy(CAT)) == pytest.approx(CAT_ENTROPY, abs=1e-9)
    assert float(entropy(PELL)) == pytest.approx(PELL_ENTROPY, abs=1e-9)
    assert exact_is_zero(entropy(SHEAR).expr)
    assert exact_is_zero(entropy(automorphism(I * eye(2))).expr)


def test_classify_trichotomy():
    assert classify(CAT) == "positive_entropy"
    assert classify(SHEAR) == "parabolic"
    assert classify(ROT) == "finite_order_on_cohomology"
    assert classify(automorphism(I * eye(2))) == \
        "finite_order_on_cohomology"


# ---------------------------------------------------------------------------
# class algebra
# ---------------------------------------------------------------------------

def test_wedge_with_zero():
    c = CohomClass.identity_class(2)
    z = CohomClass.zero(2, 1)
    assert wedge(c, z).is_zero()


def test_wedge_commutative_on_11_classes():
    rng = random.Random(11)
    for _ in range(10):
        H1 = Matrix(3, 3, lambda i, j: rng.randint(-2, 2))
        H2 = Matrix(3, 3, lambda i, j: rng.randint(-2, 2))
        c1 = CohomClass.from_hermitian(H1 + H1.T)
        c2 = CohomClass.from_hermitian(H2 + H2.T)
        assert wedge(c1, c2) == wedge(c2, c1)


def test_wedge_rank_one_classes():
    w = Matrix([1, 0])
    v = Matrix([1, 1])
    cw = CohomClass.from_hermitian(w * w.H)
    cv = CohomClass.from_hermitian(v * v.H)
    assert not wedge(cw, cv).is_zero()
    assert wedge(cw, cw).is_zero()


def test_intersection_examples():
    k2 = [CohomClass.from_hermitian(sp.diag(1, 0)),
          CohomClass.from_hermitian(sp.diag(0, 1))]
    assert intersection_number(k2) == 1
    ident = CohomClass.identity_class(2)
    assert intersection_number([ident, ident]) == 2   # k! det I
    assert intersection_number([ident, CohomClass.zero(2, 1)]) == 0


def test_intersection_is_k_factorial_det():
    rng = random.Random(5)
    for k in (2, 3):
        H = Matrix(k, k, lambda i, j: rng.randint(-2, 2))
        H = H * H.T + eye(k)
        c = CohomClass.from_hermitian(H)
        assert intersection_number([c] * k) == math.factorial(k) * H.det()


def test_intersection_symmetry_and_multilinearity():
    rng = random.Random(13)
    mats = []
    for _ in range(4):
        H = Matrix(3, 3, lambda i, j: rng.randint(-2, 2))
        mats.append(H + H.T)
    c = [CohomClass.from_hermitian(H) for H in mats]
    assert intersection_number([c[0], c[1], c[2]]) == \
        intersection_number([c[2], c[0], c[1]])
    lhs = intersection_number([c[0] + c[3].scale(5), c[1], c[2]])
    rhs = (intersection_number([c[0], c[1], c[2]])
           + 5 * intersection_number([c[3], c[1], c[2]]))
    assert lhs == rhs


def test_pullback_preserves_intersections():
    rng = random.Random(17)
    for f in (CAT, PELL, SHEAR, ROT):
        cs = []
        for _ in range(2):
            H = Matrix(2, 2, lambda i, j: rng.randint(-2, 2))
            cs.append(CohomClass.from_hermitian(H + H.T))
        assert intersection_number([pullback(f, c) for c in cs]) == \
            intersection_number(cs)


def test_pullback_eigenclass_of_pell():
    # adjoint eigenvector of the Pell matrix: A^T w = (1+sqrt 2) w
    w = Matrix([1, sp.sqrt(2)])
    c = CohomClass.from_hermitian(w * w.T)
    image = pullback(PELL, c)
    lam = (1 + sp.sqrt(2)) ** 2
    assert (image - c.scale(lam)).is_zero()


def test_nef_kahler_examples():
    assert is_kahler(CohomClass.identity_class(2))
    c = CohomClass.from_hermitian(sp.diag(1, 0))
    assert is_nef(c) and not is_kahler(c)
    assert not is_nef(CohomClass.from_hermitian(sp.diag(1, -1)))


@pytest.mark.parametrize("H", [
    [[0, I], [-I, 0]],
    [[2, 1 + I], [1 - I, 1]],                   # singular
    [[2, I / 2], [-I / 2, 1]],
], ids=["zero_diagonal", "singular", "definite"])
def test_nef_kahler_of_gaussian_rational_classes(H):
    # decided on the integer real form; sympy decides the real form here
    M = Matrix(H)
    re, im = M.applyfunc(sp.re), M.applyfunc(sp.im)
    real = Matrix(sp.BlockMatrix([[re, -im], [im, re]]))
    c = CohomClass.from_hermitian(M)
    assert (is_nef(c), is_kahler(c)) == (real.is_positive_semidefinite,
                                         real.is_positive_definite)


def test_nef_refuses_a_non_real_root_entry_without_evaluating_it(monkeypatch):
    # the entry is refused before any entry is split into real and
    # imaginary parts, which would evaluate the non-real root numerically
    root = sp.CRootOf(sp.Symbol("x") ** 3 - sp.Symbol("x") - 1, 1)
    c = CohomClass.from_hermitian(Matrix([[1, root],
                                          [sp.conjugate(root), 1]]))

    def evaluated(*args, **kwargs):
        raise AssertionError("a CRootOf entry was evaluated")

    monkeypatch.setattr(sp.ComplexRootOf, "eval_rational", evaluated)
    with pytest.raises(ExactAlgebraError):
        is_nef(c)


def test_cohom_class_equality_is_exact_and_unhashable():
    # equal classes whose coefficients are different expression trees
    a = CohomClass.from_hermitian(sp.diag((1 + sp.sqrt(2)) ** 2, 0))
    b = CohomClass.from_hermitian(sp.diag(3 + 2 * sp.sqrt(2), 0))
    assert a == b
    with pytest.raises(TypeError):
        hash(a)


def test_pullback_preserves_nef():
    c = CohomClass.from_hermitian(sp.diag(1, 0))
    for f in (CAT, SHEAR, ROT):
        assert is_nef(pullback(f, c))


def test_wedge_all_volume_calibration():
    rng = random.Random(23)
    for k in (2, 3):
        mats = []
        for _ in range(k):
            H = Matrix(k, k, lambda i, j: rng.randint(-2, 2))
            mats.append(H + H.T)
        cs = [CohomClass.from_hermitian(H) for H in mats]
        top = wedge_all(cs)
        full = tuple(range(k))
        vol_coeff = top.coeffs.get((full, full), sp.Integer(0))
        # the volume coefficient carries the same data as the polarized det
        assert intersection_number(cs) != 0 or exact_is_zero(vol_coeff)


# ---------------------------------------------------------------------------
# degree-value enumeration
# ---------------------------------------------------------------------------

def test_enumerate_bound_zero_and_one():
    for bound in (0, 1):
        vals = enumerate_degree_values(2, bound)
        assert len(vals) == 1 and exact_equal(vals[0], 1)


@pytest.mark.parametrize("k, bound", [(2, 2), (3, 1)])
def test_enumerate_values_after_the_first_exceed_one(k, bound):
    # the first value is the rational 1 and every other exceeds 1
    # (Kronecker), so `enumerate` takes values[1:] as the positive-entropy
    # d1 without comparing any with 1
    values = enumerate_degree_values(k, bound)
    positive = [v for v in values if real_root(v).compare(1) > 0]
    assert values[0] == 1 and len(positive) > 0
    assert positive == values[1:]


def test_enumerate_decides_zero_entropy_on_integers(monkeypatch):
    # Kronecker: a cyclotomic product has d1 = 1, so its moduli are not taken
    def refuse(p):
        raise AssertionError(f"root_moduli of a cyclotomic product {p}")

    monkeypatch.setattr(cohomology, "root_moduli", refuse)
    vals = enumerate_degree_values(200, 0)
    assert len(vals) == 1 and exact_equal(vals[0], 1)
