"""The sympy-free integer model against the sympy routines it replaced.

The builtin tables are rebuilt from the sympy constructors, the Berkowitz
charpoly over Z and Z[i] is compared with sympy's ``DomainMatrix``
charpoly, p * conj(p) with the charpoly of the real form, the
division-based cyclotomic indices with the factor-based ones, the H^{1,1}
charpoly and verdicts read from the k x k charpoly with those of the
k^2 x k^2 ``h11_matrix``, and the integer semisimple flag of a zero-entropy
family with the factor-field eigen path."""

import itertools
import json
import math
import random
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from sympy import I, Matrix, ZZ, ZZ_I, eye
from sympy.polys.densearith import dup_mul
from sympy.polys.matrices import DomainMatrix

from toraldyn.characters import _common_eigenvectors
from toraldyn.cli import _group_from_json, load_group_argument
from toraldyn.exact_algebra import charpoly
from toraldyn.example_forge import NumberFieldSpec, regular_representation
from toraldyn.integer_model import (_CATALOG, FINITE_ORDER, PARABOLIC,
                                    POSITIVE_ENTROPY, GroupSpec,
                                    TorusAutomorphism, _cyclotomic,
                                    _cyclotomic_indices, _pair_str,
                                    catalog_group, classify, gaussian_charpoly,
                                    h11_charpoly, has_zero_entropy,
                                    h11_matrix, integer_charpoly,
                                    times_conjugate)
from toraldyn.group_structure import find_characters

from oracles import cyclotomic_indices_by_factoring, domain_matrix_charpoly

DATA = Path(__file__).resolve().parent / "data"


# ---------------------------------------------------------------------------
# the builtin catalog


def _cubic_t3():
    field = NumberFieldSpec((1, -1, -2, 1))
    return GroupSpec((regular_representation((0, -1, 0), field),
                      regular_representation((-2, 0, 1), field)))


# each builtin as it was built from sympy matrices and the forge
SYMPY_CATALOG = {
    "cat_T2": lambda: GroupSpec.from_matrices([Matrix([[2, 1], [1, 1]])]),
    "pell_T2": lambda: GroupSpec.from_matrices([Matrix([[1, 2], [1, 1]])]),
    "parabolic_T2": lambda: GroupSpec.from_matrices(
        [Matrix([[1, 1], [0, 1]]), Matrix([[1, I], [0, 1]])]),
    "torsion_i": lambda: GroupSpec.from_matrices([I * eye(2)]),
    "pell_plus_torsion": lambda: GroupSpec.from_matrices(
        [Matrix([[1, 2], [1, 1]]), I * eye(2)]),
    "cubic_T3": _cubic_t3,
}


@pytest.mark.parametrize("name", sorted(SYMPY_CATALOG))
def test_builtin_tables_are_the_sympy_constructions(name):
    table, built = catalog_group(name), SYMPY_CATALOG[name]()
    assert [g.name for g in table.generators] == \
        [g.name for g in built.generators]
    assert [g.pairs for g in table.generators] == \
        [g.pairs for g in built.generators]
    assert [g.A for g in table.generators] == [g.A for g in built.generators]


def test_builtin_tables_cover_the_catalog():
    assert sorted(_CATALOG) == sorted(SYMPY_CATALOG)


def test_pair_str_is_sympy_str():
    # the determinant named when a matrix is refused reads as sympy printed it
    parts = list(range(-3, 4)) + [10**20, -(10**20) - 1]
    for re in parts:
        for im in parts:
            assert _pair_str((re, im)) == str(sp.Integer(re) + sp.Integer(im) * I)


# ---------------------------------------------------------------------------
# the Berkowitz charpoly and the division-based cyclotomic indices


def _seeded_matrices():
    """Seeded integer matrices of sizes 1 to 9, entries in [-3, 3], and the
    H^{1,1} actions of seeded automorphisms of positive and zero entropy."""
    rng = random.Random(1984)
    mats = [[[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            for n in range(1, 10) for _ in range(4)]
    for k, units in ((2, (1, -1, I, -I)), (3, (1, -1))):
        for _ in range(6):
            A = eye(k)
            for _ in range(rng.randint(2, 6)):
                i, j = rng.sample(range(k), 2)
                E = eye(k)
                E[i, j] = rng.choice(units)
                A = A * E
            mats.append([list(r) for r in h11_matrix(TorusAutomorphism(A))])
    return mats


def test_integer_charpoly_is_the_domain_matrix_charpoly():
    for M in _seeded_matrices():
        expected = [int(c) for c in DomainMatrix.from_list(M, ZZ).charpoly()]
        assert list(integer_charpoly(M)) == expected, M


def _seeded_pair_matrices():
    """Seeded Gaussian-integer matrices as rows of (re, im) pairs, k = 1 to
    6: dense ones with entries in [-3, 3] + [-3, 3] i, real ones, block sums
    diag(M, M) and scalar-plus-nilpotent ones (charpolys that are not
    squarefree), and singular ones (a repeated row, a zero row)."""
    rng = random.Random(1985)

    def dense(k, im=3):
        return [[(rng.randint(-3, 3), rng.randint(-im, im)) for _ in range(k)]
                for _ in range(k)]

    mats = []
    for k in range(1, 7):
        for _ in range(3):
            mats += [dense(k), dense(k, im=0)]
        A = dense(k)
        mats += [A[:-1] + [A[0]], A[:-1] + [[(0, 0)] * k]]
        T, z = dense(k), (rng.randint(-3, 3), rng.randint(-3, 3))
        for i in range(k):      # z I plus a strictly upper part: (x - z)^k
            T[i][:i + 1] = [(0, 0)] * i + [z]
        mats.append(T)
        if 2 * k <= 6:
            B = dense(k)
            mats.append([row + [(0, 0)] * k for row in B]
                        + [[(0, 0)] * k + row for row in B])
    return mats


def test_gaussian_charpoly_is_the_domain_matrix_charpoly():
    mats = _seeded_pair_matrices()
    refs = [DomainMatrix.from_list(M, ZZ_I).charpoly() for M in mats]
    # the seeds hold non-squarefree and singular charpolys
    squarefree = [sp.Poly([c.x + c.y * I for c in p], sp.Symbol("x"))
                  .is_sqf for p in refs]
    assert not all(squarefree) and any(squarefree)
    assert any(ZZ_I.is_zero(p[-1]) for p in refs)
    for M, ref in zip(mats, refs):
        assert gaussian_charpoly(M) == tuple((int(c.x), int(c.y))
                                             for c in ref), M


def test_times_conjugate_is_the_real_form_charpoly():
    # p * conj(p) against the charpoly of [[Re A, -Im A], [Im A, Re A]]
    for M in _seeded_pair_matrices():
        re = [[z[0] for z in row] for row in M]
        im = [[z[1] for z in row] for row in M]
        real_form = ([r + [-v for v in i] for r, i in zip(re, im)]
                     + [i + r for r, i in zip(re, im)])
        expected = DomainMatrix.from_list(real_form, ZZ).charpoly()
        assert list(times_conjugate(gaussian_charpoly(M))) == \
            [int(c) for c in expected], M


# ---------------------------------------------------------------------------
# H^{1,1} from the k x k charpoly against the k^2 x k^2 matrix


def _h11_reference(f):
    """The H^{1,1} charpoly, zero entropy and class of f, all read from the
    k^2 x k^2 ``h11_matrix``: at zero entropy f* has finite order iff its
    n-th power, a sympy ``DomainMatrix`` power for the lcm n of the
    charpoly's cyclotomic indices, is the identity."""
    p = integer_charpoly(h11_matrix(f))
    indices = _cyclotomic_indices(p)
    if indices is None:
        return p, False, POSITIVE_ENTROPY
    M = DomainMatrix.from_list([list(row) for row in h11_matrix(f)], ZZ)
    finite = M ** math.lcm(*indices) == M.eye(M.shape, ZZ).to_dense()
    return p, True, FINITE_ORDER if finite else PARABOLIC


def _with_pairwise_words(specs):
    """The generators of each spec with their products g h and g h^-1."""
    out = []
    for spec in specs:
        pairs = list(itertools.combinations(spec.generators, 2))
        out += [*spec.generators, *(g.compose(h) for g, h in pairs),
                *(g.compose(h.inverse()) for g, h in pairs)]
    return out


def _h11_corpus():
    """Seeded automorphisms for k = 2 to 6: i I, i times a Jordan block,
    diag(i, 1, ..., 1), the unipotent Jordan block, their conjugates by
    products of elementary matrices, and such products alone (parabolic or
    of positive entropy)."""
    rng = random.Random(38)
    out = []
    for k in range(2, 7):
        def rows(entry):
            return [[entry(i, j) for j in range(k)] for i in range(k)]

        def elementary_product(length):
            P = TorusAutomorphism(rows(lambda i, j: (int(i == j), 0)))
            for _ in range(length):
                a, b = rng.sample(range(k), 2)
                c = (rng.randint(-1, 1), rng.randint(-1, 1))
                P = P.compose(TorusAutomorphism(rows(
                    lambda i, j: c if (i, j) == (a, b) else (int(i == j), 0))))
            return P

        cores = [TorusAutomorphism(rows(entry)) for entry in (
            lambda i, j: (0, int(i == j)),
            lambda i, j: (0, int(j in (i, i + 1))),
            lambda i, j: (int(i == j > 0), int(i == j == 0)),
            lambda i, j: (int(j in (i, i + 1)), 0))]
        out += cores
        for core in cores:
            P = elementary_product(rng.randint(1, k))
            out.append(P.compose(core).compose(P.inverse()))
        out += [elementary_product(rng.randint(1, 2 * k)) for _ in range(4)]
    return out


def _data_specs():
    return sorted(p for p in DATA.glob("*.json")
                  if not p.name.endswith("_report.json")
                  and not p.name.startswith("hodge_check"))


def _forge_spec(name):
    report = json.loads((DATA / f"{name}_report.json").read_text())
    return _group_from_json(report["spec"])


# every builtin, every tests/data spec and the cubic, quartic and degree-6
# forges, each with its pairwise words, and the seeded corpus
H11_FAMILIES = {
    "builtins": lambda: _with_pairwise_words(
        catalog_group(name) for name in _CATALOG),
    "specs": lambda: _with_pairwise_words(
        load_group_argument(str(p))[0] for p in _data_specs()),
    "forges": lambda: _with_pairwise_words(_forge_spec(name) for name in (
        "forge_cubic_bound2", "forge_quartic", "forge_deg6")),
    "seeded": _h11_corpus,
}


@pytest.mark.parametrize("family", sorted(H11_FAMILIES))
def test_h11_charpoly_and_verdicts_match_the_h11_matrix(family):
    seen = set()
    for f in H11_FAMILIES[family]():
        expected = _h11_reference(f)
        assert (h11_charpoly(f), has_zero_entropy(f), classify(f)) == \
            expected, f.pairs
        seen.add(expected[2])
    if family == "seeded":
        assert seen == {POSITIVE_ENTROPY, PARABOLIC, FINITE_ORDER}


def test_charpoly_reads_sympy_gaussian_matrices():
    # exact_algebra.charpoly reads sympy entries by _gaussian_integer and
    # builds the Poly that sympy's DomainMatrix charpoly built
    for M in _seeded_pair_matrices():
        A = Matrix([[re + im * I for re, im in row] for row in M])
        expected = domain_matrix_charpoly(A)
        p = charpoly(A)
        assert p == expected and p.domain == expected.domain, M


def test_cyclotomic_indices_match_the_factor_based_routine():
    # charpolys of seeded matrices, positive entropy and singular ones
    # among them, and seeded products of cyclotomics with multiplicity
    rng = random.Random(1988)
    polys = [integer_charpoly(M) for M in _seeded_matrices()]
    for _ in range(30):
        p = [1]
        for _ in range(rng.randint(1, 4)):
            p = dup_mul(p, list(_cyclotomic(rng.randint(1, 40))), ZZ)
        polys.append(p)
    assert any(cyclotomic_indices_by_factoring(p) is None for p in polys)
    assert any(cyclotomic_indices_by_factoring(p) for p in polys)
    for p in polys:
        assert _cyclotomic_indices(tuple(p)) == \
            cyclotomic_indices_by_factoring(p), p


# ---------------------------------------------------------------------------
# the semisimple flag of a zero-entropy family: the eigen path is the
# reference


ZERO_ENTROPY_FAMILIES = {
    "parabolic_T2": lambda: catalog_group("parabolic_T2"),
    "torsion_i": lambda: catalog_group("torsion_i"),
    "identity_T2": lambda: GroupSpec.from_matrices([eye(2)]),
    "unipotent_pair_T3": lambda: GroupSpec.from_matrices([
        eye(3) + Matrix(3, 3, lambda a, b: int((a, b) == (0, 1))),
        eye(3) + Matrix(3, 3, lambda a, b: int((a, b) == (0, 2)))]),
    "gaussian_finite_order": lambda: GroupSpec.from_matrices(
        [[[-I, 0], [1 + I, I]]]),
    **{name: (lambda name=name: load_group_argument(
        str(DATA / f"{name}.json"))[0])
       for name in ("parabolic_pow5_T2", "seed41_sl3_parabolic",
                    "seed41_sl3_nonreal_split",
                    "seed41_sl2zi_finite_gaussian", "seed41_pair_zero")},
}


def _check_semisimple_flag(spec):
    assert all(has_zero_entropy(g) for g in spec.generators)
    eigenvectors, semisimple = _common_eigenvectors(spec)
    assert eigenvectors
    assert semisimple == all(classify(g) == FINITE_ORDER
                             for g in spec.generators)
    assert find_characters(spec).semisimple == semisimple


@pytest.mark.parametrize("name", sorted(ZERO_ENTROPY_FAMILIES))
def test_zero_entropy_semisimple_flag_matches_the_eigen_path(name):
    _check_semisimple_flag(ZERO_ENTROPY_FAMILIES[name]())


# zero-entropy cores: finite order and parabolic, in SL(2, Z[i]) and SL(3, Z)
CORES = {
    2: ([[0, -1], [1, 0]], [[0, -1], [1, 1]], [[I, 0], [0, -I]],
        [[0, I], [I, 0]], [[-1, 0], [0, -1]],
        [[1, 1], [0, 1]], [[1, I], [0, 1]], [[-1, 1], [0, -1]]),
    3: ([[0, -1, 0], [1, 0, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
        [[-1, 0, 0], [0, -1, 0], [0, 0, 1]], [[0, -1, 0], [1, -1, 0], [0, 0, 1]],
        [[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
        [[-1, 1, 0], [0, -1, 0], [0, 0, 1]]),
}


@st.composite
def _zero_entropy_pairs(draw):
    """(g, g^j) with g = P D P^-1 for a core D of finite order or parabolic
    and P a product of elementary matrices with unit entries."""
    k = draw(st.sampled_from((2, 3)))
    units = (1, -1, I, -I) if k == 2 else (1, -1)
    P = eye(k)
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.permutations(range(k)))[:2]
        E = eye(k)
        E[i, j] = draw(st.sampled_from(units))
        P = P * E
    conj = TorusAutomorphism(P)
    g = conj.compose(TorusAutomorphism(draw(st.sampled_from(CORES[k]))))
    g = g.compose(conj.inverse())
    return GroupSpec((g, g.power(draw(st.sampled_from((-2, -1, 2, 3))))))


@settings(max_examples=30, deadline=None)
@given(_zero_entropy_pairs())
def test_zero_entropy_pairs_semisimple_flag_matches_the_eigen_path(spec):
    _check_semisimple_flag(spec)
