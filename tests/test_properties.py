"""Property-based suites: degree laws, intersection-form algebra, the
Kronecker trichotomy, and kernel completeness at desk scale."""

import itertools
import math
from fractions import Fraction

import pytest
import sympy as sp
from sympy import I, Matrix, eye
from hypothesis import given, settings, strategies as st

from toraldyn.exact_algebra import charpoly, exact_is_zero, is_cyclotomic_product
from toraldyn.cohomology import (CohomClass, classify, dynamical_degree,
                                 entropy, h11_matrix, pullback)
from toraldyn.integer_model import _CATALOG, catalog_group
from toraldyn.group_structure import (find_characters, pi_rank,
                                      verify_zero_entropy_word)

from oracles import automorphism
from statements import intersection_number

COMMON = settings(max_examples=100, deadline=None)


def _interval(value, digits=10):
    return value.enclosure(Fraction(1, 10**digits))


def _intervals_agree(a, b, digits=9):
    lo1, hi1 = _interval(a, digits + 2)
    lo2, hi2 = _interval(b, digits + 2)
    tol = Fraction(1, 10**digits)
    return lo1 - tol <= hi2 and lo2 - tol <= hi1


@st.composite
def unit_matrices(draw, dims=(2, 3)):
    """Random GL(k,Z) matrices as words in shears, swaps, and sign flips."""
    k = draw(st.sampled_from(dims))
    M = eye(k)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        kind = draw(st.sampled_from(["shear", "swap", "flip"]))
        if kind == "shear":
            i = draw(st.integers(0, k - 1))
            j = draw(st.integers(0, k - 1).filter(lambda v, i=i: v != i))
            c = draw(st.integers(-2, 2))
            E = eye(k)
            E[i, j] = c
        elif kind == "swap":
            i = draw(st.integers(0, k - 1))
            j = draw(st.integers(0, k - 1).filter(lambda v, i=i: v != i))
            E = eye(k)
            E[i, i] = E[j, j] = 0
            E[i, j] = E[j, i] = 1
        else:
            i = draw(st.integers(0, k - 1))
            E = eye(k)
            E[i, i] = -1
        M = M * E
    return automorphism(M)


@st.composite
def hermitian_classes(draw, k):
    H = sp.zeros(k, k)
    for i in range(k):
        H[i, i] = draw(st.integers(-3, 3))
        for j in range(i + 1, k):
            re = draw(st.integers(-2, 2))
            im = draw(st.integers(-2, 2))
            H[i, j] = re + I * im
            H[j, i] = re - I * im
    return CohomClass.from_hermitian(H)


# ---------------------------------------------------------------------------
# degree laws
# ---------------------------------------------------------------------------

@COMMON
@given(unit_matrices())
def test_degree_power_law(f):
    f2 = f.power(2)
    for p in range(f.k + 1):
        d = dynamical_degree(f, p)
        d2 = dynamical_degree(f2, p)
        from toraldyn.exact_algebra import CertifiedReal
        assert _intervals_agree(d2, CertifiedReal(sp.expand(d.expr ** 2)))


@COMMON
@given(unit_matrices())
def test_degree_log_concavity_bound(f):
    d1 = dynamical_degree(f, 1)
    for p in range(f.k + 1):
        dp = dynamical_degree(f, p)
        lo_p, _ = _interval(dp)
        _, hi_1 = _interval(d1)
        assert lo_p <= hi_1 ** p + Fraction(1, 10**9)


@COMMON
@given(unit_matrices())
def test_entropy_of_inverse(f):
    assert _intervals_agree(entropy(f), entropy(f.inverse()))


# ---------------------------------------------------------------------------
# intersection algebra
# ---------------------------------------------------------------------------

@COMMON
@given(st.data())
def test_intersection_symmetry_and_multilinearity(data):
    k = data.draw(st.sampled_from([2, 3]))
    cs = [data.draw(hermitian_classes(k)) for _ in range(k + 1)]
    perm = data.draw(st.permutations(list(range(k))))
    base = cs[:k]
    assert intersection_number(base) == \
        intersection_number([base[i] for i in perm])
    s = data.draw(st.integers(-3, 3))
    lhs = intersection_number([base[0] + cs[k].scale(s)] + base[1:])
    rhs = intersection_number(base) + \
        s * intersection_number([cs[k]] + base[1:])
    assert sp.expand(lhs - rhs) == 0


@COMMON
@given(st.data())
def test_pullback_invariance_of_intersections(data):
    f = data.draw(unit_matrices())
    k = f.k
    cs = [data.draw(hermitian_classes(k)) for _ in range(k)]
    assert sp.expand(intersection_number([pullback(f, c) for c in cs])
                     - intersection_number(cs)) == 0


# ---------------------------------------------------------------------------
# Kronecker trichotomy
# ---------------------------------------------------------------------------

@COMMON
@given(unit_matrices())
def test_kronecker_three_way_equivalence(f):
    tag = classify(f)
    h = entropy(f)
    zero_entropy = exact_is_zero(h.expr)
    cyclotomic = is_cyclotomic_product(charpoly(h11_matrix(f)).all_coeffs())
    assert (tag == "positive_entropy") == (not zero_entropy)
    assert zero_entropy == cyclotomic
    # spectral radius of the H^{1,1} action is exactly 1 iff zero entropy
    d1 = dynamical_degree(f, 1)
    assert exact_is_zero(sp.expand(d1.expr - 1)) == zero_entropy


# ---------------------------------------------------------------------------
# kernel completeness at desk scale
# ---------------------------------------------------------------------------

def _in_lattice(basis, vec):
    if not basis:
        return all(v == 0 for v in vec)
    B = Matrix([list(b) for b in basis]).T
    sols = sp.linsolve((B, Matrix(vec)))
    if not sols:
        return False
    (sol,) = sols
    return all(v.is_Integer for v in sol)


@pytest.mark.parametrize("name", sorted(sorted(_CATALOG)))
def test_kernel_completeness_small_words(name):
    spec = catalog_group(name)
    table = find_characters(spec)
    res = pi_rank(spec, table)
    basis = res.kernel.basis
    for e in itertools.product(range(-3, 4), repeat=spec.n):
        certified = verify_zero_entropy_word(spec, list(e))
        assert certified == _in_lattice(basis, list(e)), (name, e)
