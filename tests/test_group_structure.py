"""Tests for the group pipeline: characters, the rank of pi, structural
bounds, and the U x free decomposition."""

import dataclasses
import itertools
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
import sympy as sp
from sympy import I, Matrix, eye

from toraldyn import (ExactAlgebraError, exact_algebra, group_structure,
                      integer_model)
from toraldyn.cli import load_group_argument
from toraldyn.exact_algebra import RealRoot, exact_equal
from toraldyn.cohomology import (
    CohomClass, TorusAutomorphism, dynamical_degree, is_nef, pullback)
from toraldyn.example_forge import (NumberFieldSpec, regular_representation,
                                    unit_search)
from toraldyn.integer_model import (_CATALOG, IntegerLattice, catalog_group,
                                    classify, hermite_normal_form_rows)
from toraldyn.group_structure import (
    DegenerateSpectrumError, GroupSpec, analyze_group,
    assert_structure_theorems, check_commuting, decompose,
    _log_value, _u_structure, find_characters, pi_rank,
    verify_zero_entropy_word, word_automorphism)

from oracles import is_nef_by_sympy, reduces_to_zero
from statements import check_theorem_4_6, eigenclass

DATA = Path(__file__).resolve().parent / "data"
PELL_MATRIX = [[1, 2], [1, 1]]
PELL = GroupSpec.from_matrices([PELL_MATRIX])
PELL_PAIR = GroupSpec.from_matrices([[[1, 2], [1, 1]], [[-1, 2], [1, -1]]])
PELL_TORSION = GroupSpec.from_matrices(
    [[[1, 2], [1, 1]], (I * eye(2)).tolist()])
PARABOLIC = GroupSpec.from_matrices([[[1, 1], [0, 1]], [[1, I], [0, 1]]])
IDENTITY = GroupSpec.from_matrices([eye(2).tolist()])


def test_pell_inverse_sanity():
    a, b = PELL_PAIR.generators
    assert a.A * b.A == eye(2)


# ---------------------------------------------------------------------------
# commutativity
# ---------------------------------------------------------------------------

def test_commuting_examples():
    assert check_commuting(PELL_TORSION) is None
    assert check_commuting(PELL) is None
    bad = GroupSpec.from_matrices([[[2, 1], [1, 1]], [[1, 1], [0, 1]]])
    assert check_commuting(bad) == (0, 1)


@pytest.mark.parametrize("M, j", [([[1 + I, 1], [I, 1]], 2),
                                  ([[-I, 0], [1 + I, I]], 3)])
def test_commuting_gaussian_powers(M, j):
    g = TorusAutomorphism(M)
    assert check_commuting(GroupSpec((g, g.power(j)))) is None


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------

def test_pell_characters():
    table = find_characters(PELL)
    assert table.m == 2 and table.semisimple
    vals = sorted(float(m) for ch in table.characters
                  for m in ch.modulus_squared)
    assert vals[0] == pytest.approx(3 - 2 * math.sqrt(2), abs=1e-12)
    assert vals[1] == pytest.approx(3 + 2 * math.sqrt(2), abs=1e-12)
    taus = sorted(float(_log_value(m)) for ch in table.characters
                  for m in ch.multipliers)
    golden = 2 * math.log(1 + math.sqrt(2))
    assert taus[0] == pytest.approx(-golden, abs=1e-9)
    assert taus[1] == pytest.approx(golden, abs=1e-9)


def test_identity_group_characters():
    table = find_characters(IDENTITY)
    assert table.m <= 1
    for ch in table.characters:
        assert all(_log_value(m) == 0 for m in ch.multipliers)


# a generator of SL(3, Z) with one real and two non-real eigenvalues
SL3_NONREAL = GroupSpec.from_matrices([[[1, -1, -1], [0, 1, -1], [1, -1, 0]]])


def _check_eigenclass(spec, ch) -> bool:
    """Assert that a character's eigenclass is a nonzero nef class with the
    character's multipliers; True when its eigenvector is non-real.  A real
    eigenclass is decided by sympy (``is_nef_by_sympy``) and ``is_zero``.
    A non-real one is w w^H with w != 0 (a nonzero rational coordinate), so
    nonzero and nef by construction (v^H w w^H v = |w^H v|^2).  ``is_nef``
    decides Gaussian-rational classes only and refuses either at once."""
    cls, w = eigenclass(ch), ch.eigenvector
    real = all(x.is_real for x in w)
    if real:
        assert is_nef_by_sympy(cls) and not cls.is_zero()
    else:
        assert cls.to_hermitian() == w * w.H
        assert any(x.is_Rational and x != 0 for x in w)
    start = time.perf_counter()
    with pytest.raises(ExactAlgebraError):
        is_nef(cls)
    assert time.perf_counter() - start < 1
    for g, msq in zip(spec.generators, ch.modulus_squared):
        assert reduces_to_zero(pullback(g, cls) - cls.scale(msq))
    return not real


@pytest.mark.parametrize("spec, nonreal", [(catalog_group(name), 0)
                                           for name in sorted(_CATALOG)]
                         + [(SL3_NONREAL, 1)],
                         ids=sorted(_CATALOG) + ["sl3_nonreal_irreducible"])
def test_character_eigenclasses_exact(spec, nonreal):
    # find_characters certifies these facts by construction; decide them here
    table = find_characters(spec)
    assert sum(_check_eigenclass(spec, ch)
               for ch in table.characters) == nonreal


@pytest.mark.parametrize("spec", [
    SL3_NONREAL,
    GroupSpec.from_matrices([[[1 + I, 1], [I, 1]]]),
], ids=["sl3_nonreal_irreducible", "sl2zi_nonreal_trace"])
def test_kernel_multipliers_pair_with_their_roots(spec):
    # every multiplier of a factor with a non-real root is a RealRoot, and
    # its certified interval holds the value of its sympy expression, which
    # is written in the CRootOf matched to the same root's inclusion disk
    table = find_characters(spec)
    for _w, multipliers in table.eigenvectors:
        for m in multipliers:
            assert isinstance(m, RealRoot)
            lo, hi = m.enclosure(Fraction(1, 10**20))
            re, im = sp.N(m.expr, 30).as_real_imag()
            slack = Fraction(1, 10**25)
            assert abs(Fraction(str(im))) < slack
            assert lo - slack <= Fraction(str(re)) <= hi + slack


def test_characters_attain_d1():
    table = find_characters(PELL)
    d1 = dynamical_degree(PELL.generators[0], 1).expr
    attained = any(exact_equal(ch.modulus_squared[0], d1)
                   for ch in table.characters)
    assert attained


def test_parabolic_family_has_no_characters():
    table = find_characters(PARABOLIC)
    assert table.m == 0
    assert not table.semisimple


def test_degenerate_spectrum_rejected_when_positive_entropy():
    # a defective positive-entropy generator: 2x2 Jordan-style block over
    # the Pell matrix
    M = Matrix([[1, 2], [1, 1]])
    J = Matrix(sp.BlockMatrix([[M, eye(2)], [sp.zeros(2, 2), M]]))
    spec = GroupSpec.from_matrices([J.tolist()])
    with pytest.raises(DegenerateSpectrumError):
        find_characters(spec)


# families with no squarefree generator take the B_t branch of the one eigen
# path, and diag_cc_pair_T6 has its squarefree generator second; C3 has one
# real and two non-real eigenvalues, G2 non-real coefficients
C3 = Matrix([[0, 0, 1], [1, 0, -1], [0, 1, -1]])
G2 = Matrix([[1 + I, 1], [I, 1]])


def _unit(i, j):
    return Matrix(3, 3, lambda a, b: int((a, b) == (i, j)))


def _mpmath_pi_rank(spec):
    """The rank of pi from 50-digit mpmath moduli: the joint eigenvalues are
    Rayleigh quotients of the generators at the eigenvectors of a generic
    combination of them."""
    with mpmath.workdps(50):
        mats = [mpmath.matrix([[mpmath.mpc(*(float(x) for x in sp.sympify(v)
                                              .as_real_imag()))
                                for v in row] for row in g.A.T.tolist()])
                for g in spec.generators]
        B = sum((mpmath.mpf(3) ** j * A for j, A in enumerate(mats[1:], 1)),
                mats[0])
        _vals, vecs = mpmath.eig(B)
        rows = []
        for c in range(spec.k):
            v = vecs[:, c]
            norm = (v.H * v)[0]
            rows.append([mpmath.log(abs((v.H * A * v)[0] / norm) ** 2)
                         for A in mats])
        singular = mpmath.svd_r(mpmath.matrix(rows), compute_uv=False)
        return sum(1 for s in singular if s > mpmath.mpf(10) ** -20)


@pytest.mark.parametrize("mats, semisimple, nonreal, budget", [
    ([sp.diag(C3, C3)], True, 1, 10),
    ([sp.diag(C3, C3), sp.diag(C3, C3.inv())], True, 2, 20),
    ([sp.diag(Matrix(PELL_MATRIX), Matrix(PELL_MATRIX), 1)], True, 0, 10),
    ([sp.diag(G2, G2)], True, 2, 20),
    ([eye(3) + _unit(0, 1), eye(3) + _unit(0, 2)], False, 0, 10),
], ids=["diag_cc_T6", "diag_cc_pair_T6", "pell_pell_one_T5", "diag_gg_T4",
        "unipotent_pair_T3"])
def test_repeated_spectrum_characters(mats, semisimple, nonreal, budget):
    # in-process about 0.1 to 2 s each, most of it in sympy's evaluation of
    # the eigenvectors' non-real CRootOf entries (is_real, and is_nef's
    # real and imaginary parts before it refuses); reduces_to_zero picks
    # each Gaussian factor from certified disks without evaluating a root.
    # The budgets leave room for a loaded machine.
    # diag_cc_T6 is the regression case of a hang in sympy's eigenvects
    start = time.perf_counter()
    spec = GroupSpec.from_matrices([M.tolist() for M in mats])
    table = find_characters(spec)
    assert table.semisimple == semisimple
    assert table.m > 0 if semisimple else table.m == 0
    assert sum(_check_eigenclass(spec, ch)
               for ch in table.characters) == nonreal
    assert pi_rank(spec, table).rank == _mpmath_pi_rank(spec)
    assert time.perf_counter() - start < budget


# ---------------------------------------------------------------------------
# zero-entropy word certificates
# ---------------------------------------------------------------------------

def test_verify_zero_entropy_word_examples():
    assert verify_zero_entropy_word(PELL, [0])
    assert not verify_zero_entropy_word(PELL, [1])
    assert verify_zero_entropy_word(PELL_PAIR, [1, 1])
    assert not verify_zero_entropy_word(PELL_PAIR, [1, -1])
    assert verify_zero_entropy_word(PELL_TORSION, [0, 3])


def test_word_automorphism_matches_matrix_product():
    w = word_automorphism(PELL_PAIR, [2, 1])
    a, b = (g.A for g in PELL_PAIR.generators)
    assert w.A == a**2 * b


# ---------------------------------------------------------------------------
# the rank of pi
# ---------------------------------------------------------------------------

def test_pi_rank_pell():
    table = find_characters(PELL)
    res = pi_rank(PELL, table)
    assert res.rank == 1 and res.kernel.basis == ()


def test_pi_rank_inverse_pair():
    table = find_characters(PELL_PAIR)
    res = pi_rank(PELL_PAIR, table)
    assert res.rank == 1
    assert [list(v) for v in res.kernel.basis] == [[1, 1]]


def test_pi_rank_parabolic():
    table = find_characters(PARABOLIC)
    res = pi_rank(PARABOLIC, table)
    assert res.rank == 0
    assert Matrix([list(v) for v in res.kernel.basis]).rank() == 2


def test_pi_rank_reduces_one_lattice(monkeypatch):
    # one relation search over every character at once: pell_plus_torsion
    # has two characters, and pi_rank runs one LLL for both
    spec = catalog_group("pell_plus_torsion")
    table = find_characters(spec)
    calls, lll_reduce = [], integer_model.lll_reduce

    def counting(rows):
        calls.append(rows)
        return lll_reduce(rows)

    monkeypatch.setattr(integer_model, "lll_reduce", counting)
    assert table.m == 2 and pi_rank(spec, table).rank == 1
    assert len(calls) == 1


@pytest.mark.parametrize("group", [
    "cubic_T3", "cat_T2", "pell2_pell3_i", "forge_quartic"])
def test_pi_builds_no_minimal_polynomial(group, monkeypatch):
    # pi's logs come from interval enclosures of the multipliers: once the
    # table is built, pi_rank composes, picks and factors no polynomial
    if group == "forge_quartic":
        field = NumberFieldSpec((1, -1, -3, 1, 1))
        spec = GroupSpec(tuple(regular_representation(u, field)
                               for u in unit_search(field, 2).units))
    elif group in _CATALOG:
        spec = catalog_group(group)
    else:
        spec = load_group_argument(str(DATA / f"{group}.json"))[0]
    table = find_characters(spec)

    def refuse(*args):
        raise AssertionError("pi_rank built a minimal polynomial")

    for name in ("_composed", "_pick", "_irreducible_factors"):
        monkeypatch.setattr(exact_algebra, name, refuse)
    got = pi_rank(spec, table)
    monkeypatch.undo()
    expected = pi_rank(spec, table)
    assert got.rank == expected.rank > 0
    assert (got.kernel, got.u_words, got.free_words) == \
        (expected.kernel, expected.u_words, expected.free_words)


def test_pi_is_additive_on_words():
    table = find_characters(PELL_TORSION)
    # pi(e + e') = pi(e) + pi(e') holds by construction: coordinates are
    # integer combinations of per-generator character values
    for ch in table.characters:
        v = [float(_log_value(m)) for m in ch.multipliers]
        e1, e2 = [2, 1], [1, -1]
        lhs = sum((a + b) * x for a, b, x in zip(e1, e2, v))
        rhs = sum(a * x for a, x in zip(e1, v)) + \
            sum(b * x for b, x in zip(e2, v))
        assert lhs == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# structural assertions
# ---------------------------------------------------------------------------

def test_structure_pell():
    res = pi_rank(PELL, find_characters(PELL))
    assert assert_structure_theorems(PELL, res) == [(1, 1, 4, 3)]
    assert res.rank == 1 and res.rank + 1 == 2


def test_structure_rank_above_k_minus_1_is_a_violation():
    # a rank r = k: the free part of Pell still has positive entropy, so
    # the rank bound is the check that fails
    res = dataclasses.replace(pi_rank(PELL, find_characters(PELL)), rank=2)
    with pytest.raises(AssertionError,
                       match="THEOREM VIOLATION: rank 2 exceeds k-1 = 1"):
        assert_structure_theorems(PELL, res)


def test_binomial_bound_follows_from_the_rank_bound():
    # assert_structure_theorems checks r <= k-1 and no binomial row: for
    # 1 <= n <= r <= k-1, binom(r, n) <= binom(k-1, n) = binom(k, n) -
    # binom(k-1, n-1) <= binom(k, n) - 1 <= h_n - 1, under every row's bound
    for k in range(2, 41):
        for r in range(1, k):
            for n in range(1, r + 1):
                hn = math.comb(k, n) ** 2
                bound = hn - 1 if r % n == 0 else hn
                assert math.comb(r, n) <= math.comb(k - 1, n) \
                    <= math.comb(k, n) - 1 <= hn - 1 <= bound, (k, r, n)


def test_structure_zero_entropy_free_word_is_a_violation():
    # the shear of parabolic_T2 has zero entropy, so it cannot be a word of
    # the free part
    spec = catalog_group("parabolic_T2")
    res = dataclasses.replace(pi_rank(spec, find_characters(spec)),
                              free_words=[[1, 0]])
    with pytest.raises(AssertionError, match="THEOREM VIOLATION: complement "
                                             "word with zero entropy"):
        assert_structure_theorems(spec, res)


def test_structure_dependent_eigenvectors_have_no_wedge_chain():
    # two parallel eigenvectors: every pair of eigenclasses wedges to zero,
    # and their one multiplier tuple is the table's only distinct tuple
    res = pi_rank(PELL, find_characters(PELL))
    w, modsq = res.table.eigenvectors[0]
    table = dataclasses.replace(res.table,
                                eigenvectors=[(w, modsq), (2 * w, modsq)],
                                distinct_multipliers=[modsq])
    with pytest.raises(AssertionError, match="wedge chain"):
        assert_structure_theorems(PELL, dataclasses.replace(res, table=table))


@pytest.mark.parametrize("blocks, leading_repeat", [
    ((PELL_MATRIX, PELL_MATRIX), True),     # tuples a^-1, a^-1, a, a
    ((PELL_MATRIX, [[1]]), False),          # tuples 1, a^-1, a
    # i times the non-real irreducible SL(3, Z) generator: its non-real
    # eigenvalues come first and share one modulus
    (((I * Matrix(SL3_NONREAL.generators[0].A)).tolist(),), True),
], ids=["pell_plus_pell_T4", "pell_plus_one_T3", "gaussian_nonreal_T3"])
def test_structure_chain_skips_repeated_tuples(blocks, leading_repeat):
    # a chain of r+1 = 2 eigenclasses needs two distinct multiplier tuples;
    # when the first two eigenvectors share one, the chain must look past it
    spec = GroupSpec.from_matrices(
        [sp.diag(*[Matrix(b) for b in blocks]).tolist()])
    res = pi_rank(spec, find_characters(spec))
    (_, first), (_, second) = res.table.eigenvectors[:2]
    assert all(exact_equal(a, b)
               for a, b in zip(first, second)) == leading_repeat
    k = spec.k
    assert assert_structure_theorems(spec, res) == [(1, 1, k * k, k * k - 1)]
    assert res.rank == 1 and res.rank + 1 == 2


def test_structure_identity_group():
    res = pi_rank(IDENTITY, find_characters(IDENTITY))
    assert assert_structure_theorems(IDENTITY, res) == []
    assert res.rank == 0


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

def test_decompose_pell_plus_torsion():
    res = pi_rank(PELL_TORSION, find_characters(PELL_TORSION))
    dec = decompose(PELL_TORSION, res)
    assert res.rank == 1
    assert dec.u_order == 4
    assert res.free_words == [[1, 0]]
    assert res.u_words == [[0, 1]]


def test_decompose_parabolic_whole_group_is_u():
    res = pi_rank(PARABOLIC, find_characters(PARABOLIC))
    dec = decompose(PARABOLIC, res)
    assert res.rank == 0 and res.free_words == []
    assert dec.u_order is None
    assert Matrix(res.u_words).rank() == 2


def test_decompose_single_generator():
    res = pi_rank(PELL, find_characters(PELL))
    decompose(PELL, res)
    assert res.rank == 1 and res.free_words == [[1]] and res.u_words == []


def test_decompose_merge_reconstructs_group():
    # U-words and free-words together form a finite-index (here full)
    # basis of the word lattice: the stacked matrix is unimodular, so the
    # n - r U-words span a saturated lattice.  In the last three families
    # coordinate vectors do not span the kernel of pi: it is 3 c_1 = 2 c_2
    # for (P^2, P^3), and 2 c_1 + 3 c_2 + 5 c_3 = 0 for (g^2, g^3, g^5) with
    # g the cat map plus 1 in SL(3, Z)
    pell = Matrix(PELL_MATRIX)
    cat_1 = Matrix([[2, 1, 0], [1, 1, 0], [0, 0, 1]])
    for spec in (PELL, PELL_PAIR, PELL_TORSION, PARABOLIC,
                 GroupSpec.from_matrices([pell ** 2, pell ** 3]),
                 GroupSpec.from_matrices([pell ** 2, pell ** 3, I * eye(2)]),
                 GroupSpec.from_matrices([cat_1 ** 2, cat_1 ** 3,
                                          cat_1 ** 5])):
        res = pi_rank(spec, find_characters(spec))
        decompose(spec, res)
        assert len(res.u_words) == spec.n - res.rank
        rows = [list(w) for w in res.u_words] + \
            [list(w) for w in res.free_words]
        M = Matrix(rows)
        assert M.rows == spec.n and abs(M.det()) == 1


# ---------------------------------------------------------------------------
# relation lattice of U
# ---------------------------------------------------------------------------

SHEAR = Matrix([[1, 1], [0, 1]])


@pytest.mark.parametrize("mats, basis", [
    ([SHEAR, SHEAR ** 5], ((5, -1),)),
    # (iP)^a P^(6b) = i^a P^(a+6b) is 1 iff a = -6b and 4 | a
    ([I * SHEAR, SHEAR ** 6], ((12, -2),)),
], ids=["P_P5", "iP_P6"])
def test_relation_lattice_of_infinite_u(mats, basis):
    spec = GroupSpec.from_matrices([M.tolist() for M in mats])
    res = pi_rank(spec, find_characters(spec))
    dec = decompose(spec, res)
    assert res.rank == 0 and dec.u_order is None
    assert dec.relation_lattice.basis == basis


def test_relation_lattice_of_shear_powers():
    # P^(a c_1 + b c_2) = 1 iff (c_1, c_2) is a multiple of (b, -a)/gcd(a, b);
    # the 900 pairs take about 5 s in-process (budget 60 s)
    start = time.perf_counter()
    for a, b in itertools.product(range(1, 31), repeat=2):
        spec = GroupSpec.from_matrices([(SHEAR ** a).tolist(),
                                        (SHEAR ** b).tolist()])
        g = math.gcd(a, b)
        assert _u_structure(spec, [[1, 0], [0, 1]]) == (
            None, IntegerLattice(2, ((b // g, -a // g),))), (a, b)
    assert time.perf_counter() - start < 60


def _diag_i(k):
    """diag(i, 1, ..., 1), ..., diag(1, ..., 1, i): U = (Z/4)^k."""
    return GroupSpec.from_matrices([
        [[I if i == j == a else int(i == j) for j in range(k)]
         for i in range(k)] for a in range(k)])


@pytest.mark.parametrize("k", [4, 5, 6])
def test_u_of_the_diag_i_family_composes_each_element_once(k, monkeypatch):
    # U = (Z/4)^k has relation lattice 4 Z^k; decompose composes each of
    # the 4^k elements at most once, plus the powers that find each
    # generator's order
    spec = _diag_i(k)
    units = [[int(i == j) for j in range(k)] for i in range(k)]
    assert _u_structure(spec, units) == (4 ** k, IntegerLattice(k, tuple(
        tuple(4 * (i == j) for j in range(k)) for i in range(k))))
    analysis = pi_rank(spec, find_characters(spec))
    compose, calls = TorusAutomorphism.compose, []

    def counted(self, other):
        calls.append(1)
        return compose(self, other)

    monkeypatch.setattr(TorusAutomorphism, "compose", counted)
    assert decompose(spec, analysis).u_order == 4 ** k
    assert len(calls) <= 4 ** k + 4 * k, len(calls)


def test_enumeration_cap_counts_the_elements_of_u(monkeypatch):
    # U = (Z/4)^4 has 256 elements: a cap of 256 admits it, 255 refuses it
    spec, units = _diag_i(4), [[int(i == j) for j in range(4)]
                               for i in range(4)]
    monkeypatch.setattr(group_structure, "ENUMERATION_CAP", 256)
    assert _u_structure(spec, units)[0] == 256
    monkeypatch.setattr(group_structure, "ENUMERATION_CAP", 255)
    with pytest.raises(ExactAlgebraError, match="exceeds the enumeration "
                                                "budget of 255 elements"):
        _u_structure(spec, units)


def _brute_force_relations(spec, bound):
    """Every nonzero c in [-bound, bound]^s with prod g_i^(c_i) = 1: each
    product of the first s-1 powers is looked up among the inverse powers
    of the last generator."""
    *head, last = spec.generators
    span = range(-bound, bound + 1)
    inverse_powers = {}
    for c in span:
        inverse_powers.setdefault(last.power(-c), []).append(c)
    powers = [{c: g.power(c) for c in span} for g in head]
    found, ident = [], TorusAutomorphism(eye(spec.k))
    for prefix in itertools.product(span, repeat=len(head)):
        M = ident
        for c, pw in zip(prefix, powers):
            M = M.compose(pw[c])
        found += [prefix + (c,) for c in inverse_powers.get(M, ())
                  if any(prefix) or c]
    return found


# commuting zero-entropy blocks on T^3: the shears I + E_12 and I + i E_12,
# the scalar i and diag(1, 1, -1)
_E12 = Matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
_BLOCKS = [eye(3) + _E12, eye(3) + I * _E12, I * eye(3), Matrix.diag(1, 1, -1)]


@pytest.mark.parametrize("s", [2, 3])
def test_relation_lattice_matches_brute_force(s):
    # seeded families of products of the blocks, whose shear parts are
    # multiples of one a + b i so that relations exist; each relation in
    # [-12, 12]^s lies in the lattice and each basis vector is a relation.
    # The two sizes take about 1 s and 5 s in-process (budget 60 s each)
    start = time.perf_counter()
    rng = random.Random(20260 + s)
    ident = TorusAutomorphism(eye(3))
    for family in range(5):
        # the first family has no shear part, so its U is finite
        a, b = (rng.randint(-2, 2), rng.randint(-1, 1)) if family else (0, 0)
        mats, sheared = [], False
        for _ in range(s):
            m = rng.randint(-3, 3)
            exps = (m * a, m * b, rng.randint(0, 3), rng.randint(0, 1))
            sheared |= any(exps[:2])
            M = eye(3)
            for block, e in zip(_BLOCKS, exps):
                M = M * block ** e
            mats.append(M.tolist())
        spec = GroupSpec.from_matrices(mats)
        units = [[int(i == j) for j in range(s)] for i in range(s)]
        order, lattice = _u_structure(spec, units)
        assert (order is None) == sheared, mats
        if order is not None:
            assert order == abs(Matrix(list(lattice.basis)).det()), mats
        basis = [list(v) for v in lattice.basis]
        for v in basis:
            assert word_automorphism(spec, v) == ident, (mats, v)
        for rel in _brute_force_relations(spec, 12):
            assert hermite_normal_form_rows(basis + [list(rel)])[0] == \
                basis + [[0] * s], (mats, rel)
    assert time.perf_counter() - start < 60


# ---------------------------------------------------------------------------
# invariant-class structure theorem
# ---------------------------------------------------------------------------

def test_theorem_4_6_pell_eigenclass():
    w = Matrix([1, sp.sqrt(2)])
    c = CohomClass.from_hermitian(w * w.T)
    rep = check_theorem_4_6(PELL, [c])
    assert rep.status == "holds"


def test_theorem_4_6_zero_entropy_kernel_word_vacuous():
    # A^3 (-A^3)^-1 = -I has zero entropy, so the group is not of positive
    # entropy; no word of [-2, 2]^2 shows it
    A = Matrix([[2, 1], [1, 1]])
    spec = GroupSpec.from_matrices([A.tolist(), (-A ** 3).tolist()])
    c = eigenclass(find_characters(spec).characters[0])
    rep = check_theorem_4_6(spec, [c])
    assert rep.status == "vacuous" and rep.witness == [3, -1]


def test_theorem_4_6_non_commuting_zero_entropy_vacuous():
    # the shear and diag(1, -1) both fix the class e_2 e_2^H and do not
    # commute; the shear is a zero-entropy kernel word
    spec = GroupSpec.from_matrices([SHEAR.tolist(), [[1, 0], [0, -1]]])
    w = Matrix([0, 1])
    rep = check_theorem_4_6(spec, [CohomClass.from_hermitian(w * w.T)])
    assert rep.status == "vacuous"


def test_theorem_4_6_zero_wedge_vacuous():
    rep = check_theorem_4_6(PELL, [CohomClass.zero(2, 1)])
    assert rep.status == "vacuous"


def test_theorem_4_6_non_invariant_vacuous():
    rep = check_theorem_4_6(PELL, [CohomClass.identity_class(2)])
    assert rep.status == "vacuous"


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

def test_analyze_group_pipeline():
    out = analyze_group(PELL_TORSION)
    assert out.witness is None
    assert [classify(g) for g in out.spec.generators] == [
        "positive_entropy", "finite_order_on_cohomology"]
    assert out.rank.rank == 1
    assert out.decomposition.u_order == 4


def test_analyze_group_stops_on_non_commuting():
    bad = GroupSpec.from_matrices([[[2, 1], [1, 1]], [[1, 1], [0, 1]]])
    out = analyze_group(bad)
    assert out.witness == (0, 1)
    assert out.rank is None and out.binomial_bounds is None
