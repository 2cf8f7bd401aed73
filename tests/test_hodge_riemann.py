"""Tests for the positivity engine: the q form, primitive spaces, exact
Hodge-Riemann definiteness, semipositivity fuzzing, colinearity, the
(a,b)-pair solver, and eigenclass-wedge instances."""

import random

import pytest
import sympy as sp
from sympy import I, Matrix, eye

from toraldyn import ExactAlgebraError
from toraldyn.exact_algebra import exact_sign
from toraldyn.integer_model import hermitian_real_form
from toraldyn.cohomology import (CohomClass, TorusAutomorphism,
                                 intersection_number, is_kahler, is_nef, wedge,
                                 wedge_all)
from toraldyn import hodge_riemann
from toraldyn.hodge_riemann import (
    _kernel_of_functional, gromov_fuzz, hodge_riemann_definite,
    primitive_functional_fractions, q_gram_fractions, symmetric_definiteness)

from oracles import hermitian_basis, hermitian_coords
from statements import (check_gromov_semipositive,
                        check_hodge_riemann_definite, colinearity_witness,
                        gmat_from_class, lemma_4_3_check, solve_ab_pair)

D10 = CohomClass.from_hermitian(sp.diag(1, 0))
D01 = CohomClass.from_hermitian(sp.diag(0, 1))
IDENT2 = CohomClass.identity_class(2)


def _q(c, cprime, context):
    """q(c, c') = -intersection(c, c', c_1, ..., c_{k-2}), from the class
    algebra: the reference for the integer Gram path."""
    return sp.expand(-intersection_number([c, cprime, *context]))


def _gram(context, k):
    """Gram matrix of q over the Hermitian basis, as the CLI builds it."""
    return q_gram_fractions([gmat_from_class(c) for c in context], k)


def _evaluate(G, c, cprime):
    """x^T G y for the Hermitian coordinates x of c and y of c'."""
    x = hermitian_coords(c.to_hermitian())
    y = hermitian_coords(cprime.to_hermitian())
    return sp.expand(sum(x[i] * sp.Rational(g.numerator, g.denominator) * y[j]
                         for i, row in enumerate(G)
                         for j, g in enumerate(row)))


def _is_symmetric(G):
    return all(G[i][j] == G[j][i] for i in range(len(G))
               for j in range(len(G)))


def _primitive_basis(context):
    """Basis of the kernel of c -> c ^ c_1 ^ ... ^ c_{k-1}; None when the
    functional vanishes."""
    k = context[0].k
    return _kernel_of_functional(primitive_functional_fractions(
        [gmat_from_class(c) for c in context], k))


def _random_psd(rng, k, rank_one=False):
    if rank_one:
        w = Matrix([rng.randint(-3, 3) for _ in range(k)])
        if all(v == 0 for v in w):
            w[0] = 1
        return CohomClass.from_hermitian(w * w.T)
    B = Matrix(k, k, lambda i, j: rng.randint(-2, 2))
    return CohomClass.from_hermitian(B * B.T + eye(k))


def _gaussian_psd(rng, k, rank_one=False):
    """Nef class with Gaussian-integer entries: w w* or B B* + I."""
    def z():
        return rng.randint(-2, 2) + I * rng.randint(-2, 2)
    if rank_one:
        w = Matrix([z() for _ in range(k)])
        if all(v == 0 for v in w):
            w[0] = 1
        return CohomClass.from_hermitian((w * w.H).expand())
    B = Matrix(k, k, lambda i, j: z())
    return CohomClass.from_hermitian((B * B.H).expand() + eye(k))


# ---------------------------------------------------------------------------
# q form
# ---------------------------------------------------------------------------

def test_q_form_examples():
    assert _q(D10, D01, []) == -1
    assert _q(IDENT2, IDENT2, []) == -2
    assert _q(D10, CohomClass.zero(2, 1), []) == 0
    G = _gram([], 2)
    assert _evaluate(G, D10, D01) == -1
    assert _evaluate(G, IDENT2, IDENT2) == -2


def test_q_form_symmetric():
    rng = random.Random(31)
    for k in (2, 3):
        cs = [_random_psd(rng, k) for _ in range(k)]
        ctx = cs[2:k]
        assert _q(cs[0], cs[1], ctx) == _q(cs[1], cs[0], ctx)


def test_q_gram_matches_pointwise_values():
    rng = random.Random(37)
    for k in (2, 3):
        ctx = [_random_psd(rng, k) for _ in range(k - 2)]
        G = _gram(ctx, k)
        assert _is_symmetric(G)
        for _ in range(5):
            a = _random_psd(rng, k)
            b = _random_psd(rng, k)
            assert sp.expand(_evaluate(G, a, b) - _q(a, b, ctx)) == 0
    # k = 4, a Gaussian-rational context (denominator 3) and singular
    # rank-one nef contexts, against Gaussian test pairs
    rng = random.Random(59)
    third = sp.Rational(1, 3)
    cases = (
        (4, lambda: [_gaussian_psd(rng, 4) for _ in range(2)]),
        (3, lambda: [_gaussian_psd(rng, 3).scale(third)]),
        (3, lambda: [_gaussian_psd(rng, 3, rank_one=True).scale(third)]),
        (4, lambda: [_gaussian_psd(rng, 4, rank_one=True) for _ in range(2)]),
    )
    for k, draw in cases:
        ctx = draw()
        G = _gram(ctx, k)
        assert _is_symmetric(G)
        for _ in range(3):
            a = _gaussian_psd(rng, k)
            b = _gaussian_psd(rng, k)
            assert sp.expand(_evaluate(G, a, b) - _q(a, b, ctx)) == 0


def test_non_rational_context_is_value_error():
    s2 = CohomClass.from_hermitian(sp.diag(1, sp.sqrt(2), 1))
    calls = (lambda: _primitive_basis([s2, s2]),
             lambda: _gram([s2], 3),
             lambda: check_gromov_semipositive([s2, s2]),
             lambda: check_hodge_riemann_definite(s2))
    for call in calls:
        with pytest.raises(ValueError, match="Gaussian-rational entries"):
            call()


# ---------------------------------------------------------------------------
# primitive spaces
# ---------------------------------------------------------------------------

def test_primitive_space_identity_is_trace_zero():
    vectors = _primitive_basis([IDENT2])
    assert len(vectors) == 3
    basis = hermitian_basis(2)
    for vec in vectors:
        H = sum((sp.Rational(v) * E for v, E in zip(vec, basis)),
                sp.zeros(2, 2))
        assert sp.trace(H) == 0


def test_primitive_space_degenerate_context():
    assert _primitive_basis([CohomClass.zero(2, 1)]) is None


def test_primitive_space_generic_rank_ones():
    for k in (2, 3):
        vs = [Matrix([1 if i == j else 0 for i in range(k)]) +
              Matrix([j + 1 if i == (j + 1) % k else 0 for i in range(k)])
              for j in range(k - 1)]
        ctx = [CohomClass.from_hermitian(v * v.T) for v in vs]
        vectors = _primitive_basis(ctx)
        if vectors is not None:
            assert len(vectors) == k * k - 1


# ---------------------------------------------------------------------------
# Hodge-Riemann definiteness (Kahler context)
# ---------------------------------------------------------------------------

def test_hr_identity_k2_matches_direct_expansion():
    rep = check_hodge_riemann_definite(IDENT2)
    assert rep.passed
    # direct expansion: on trace-zero H = [[a, b],[conj b, -a]],
    # q(H,H) = -2 det H = 2(a^2 + |b|^2) > 0
    a, br, bi = sp.symbols("a b_r b_i", real=True)
    H = Matrix([[a, br + sp.I * bi], [br - sp.I * bi, -a]])
    q_val = -2 * H.det()
    assert sp.expand(q_val - 2 * (a**2 + br**2 + bi**2)) == 0


@pytest.mark.parametrize("k", [2, 3, 4])
def test_hr_identity_all_dims(k):
    rep = check_hodge_riemann_definite(CohomClass.identity_class(k))
    assert rep.passed


def test_hr_random_kahler_catalog():
    rng = random.Random(41)
    for k in (2, 3):
        for _ in range(5):
            rep = check_hodge_riemann_definite(_random_psd(rng, k))
            assert rep.passed, (k, rep.witness)


def test_hr_rejects_non_kahler():
    with pytest.raises(ValueError):
        check_hodge_riemann_definite(D10)


def test_hr_pairs_decide_kahler_on_the_complex_form():
    # [[1, i], [-i, 1]] is psd with kernel (1, i), so not Kahler, although
    # its real part, the identity, is positive definite
    with pytest.raises(ValueError, match="Kahler"):
        hodge_riemann_definite([[(1, 0), (0, 1)], [(0, -1), (1, 0)]])
    pairs = [[(2, 0), (0, 1)], [(0, -1), (2, 0)]]
    rep = hodge_riemann_definite(pairs)
    assert rep.passed
    omega = CohomClass.from_hermitian(Matrix([[2, I], [-I, 2]]))
    assert check_hodge_riemann_definite(omega) == rep


# ---------------------------------------------------------------------------
# Gromov semipositivity (nef contexts)
# ---------------------------------------------------------------------------

def test_gromov_kahler_context_subsumes_pd():
    rep = check_gromov_semipositive([IDENT2])
    assert rep.passed


def test_gromov_zero_wedge_flagged():
    rep = check_gromov_semipositive([CohomClass.from_hermitian(sp.zeros(2))])
    assert rep.passed and rep.degenerate


def test_gromov_rejects_non_nef():
    bad = CohomClass.from_hermitian(sp.diag(1, -1))
    with pytest.raises(ValueError):
        check_gromov_semipositive([bad])


def test_gromov_fuzz_500_tuples():
    total_failures = 0
    for k, samples in ((2, 300), (3, 150), (4, 60)):
        rep = gromov_fuzz(k, samples, seed=2024 + k)
        total_failures += len(rep.failures)
        assert rep.samples == samples
    assert total_failures == 0


@pytest.mark.parametrize("k", [3, 4])
def test_gromov_fuzz_makes_one_mixed_minor_pass_per_sample(monkeypatch, k):
    # the primitive functional is read off the q Gram matrix, so each
    # sample takes the minors of its k-2 contexts of q once
    real = hodge_riemann._mixed_minors
    passes = []

    def counted(contexts, kk):
        passes.append(len(contexts))
        return real(contexts, kk)

    monkeypatch.setattr(hodge_riemann, "_mixed_minors", counted)
    assert gromov_fuzz(k, 12, seed=5).passed
    assert passes == [k - 2] * 12


@pytest.mark.parametrize("k", [3, 4])
def test_gromov_rank_one_nef_contexts(k):
    # the k-2 contexts of q sum to rank <= k - 2: no subset sum is invertible
    rng = random.Random(61 + k)
    for _ in range(4):
        ctx = [_gaussian_psd(rng, k, rank_one=True) for _ in range(k - 1)]
        rep = check_gromov_semipositive(ctx)
        assert rep.passed, rep.witness
        # sum w_i w_i* has rank k - 1 iff the w_i are independent, which is
        # when the context wedge is nonzero
        H = sum((c.to_hermitian() for c in ctx), sp.zeros(k))
        assert rep.degenerate == (H.rank() < k - 1)


def test_gromov_semipositive_with_inline_fuzz():
    rep = check_gromov_semipositive([D10], samples=25, seed=9)
    assert rep.passed and rep.fuzz is not None and rep.fuzz.passed


# ---------------------------------------------------------------------------
# exact symmetric definiteness backend
# ---------------------------------------------------------------------------

S2 = sp.sqrt(2)
# symmetric matrices over Q(sqrt 2) with known (psd, pd), which sympy
# decides and the library refuses
QUADRATIC_FIELD_CASES = [
    ([[1, S2], [S2, 1]], (False, False)),                       # det -1
    ([[S2, 1], [1, S2 / 2]], (True, False)),                    # det 0
    ([[1 + S2, 1, 0], [1, S2, 1], [0, 1, 2]], (True, True)),    # minors 1 + sqrt 2
    ([[1 + S2, 1, 0], [1, S2, 1], [0, 1, S2 - 1]], (False, False)),  # det -sqrt 2
]


@pytest.mark.parametrize("rows, expected", QUADRATIC_FIELD_CASES,
                         ids=["det_minus_1", "singular", "definite",
                              "det_minus_sqrt2"])
def test_real_algebraic_rows_are_refused(rows, expected):
    M = Matrix(rows)
    assert (M.is_positive_semidefinite, M.is_positive_definite) == expected
    c = CohomClass.from_hermitian(M)
    for decide in (lambda: symmetric_definiteness(rows),
                   lambda: is_nef(c), lambda: is_kahler(c)):
        with pytest.raises(ExactAlgebraError):
            decide()


def _pairs(M):
    return [[sp.expand(v).as_real_imag() for v in row] for row in M.tolist()]


def test_symmetric_definiteness_oracle():
    rng = random.Random(43)
    from fractions import Fraction
    cases = []
    for _ in range(60):
        n = rng.randint(1, 4)
        B = Matrix(n, n, lambda i, j: rng.randint(-3, 3))
        M = B + B.T if rng.random() < 0.5 else B * B.T
        cases.append(([[Fraction(int(M[i, j])) for j in range(n)]
                       for i in range(n)],
                      (M.is_positive_semidefinite, M.is_positive_definite)))
    # Gaussian-integer Hermitian matrices, decided on hermitian_real_form and
    # compared with sympy on the real form [[Re, -Im], [Im, Re]] of x^H M x
    # at x = p + iq, built here from sympy's re and im
    rng = random.Random(44)
    for _ in range(40):
        n = rng.randint(1, 3)
        B = Matrix(n, n, lambda i, j: rng.randint(-2, 2) + I * rng.randint(-2, 2))
        M = (B + B.H if rng.random() < 0.5 else B * B.H).applyfunc(sp.expand)
        re, im = M.applyfunc(sp.re), M.applyfunc(sp.im)
        real = Matrix(sp.BlockMatrix([[re, -im], [im, re]]))
        rows = hermitian_real_form(_pairs(M))
        assert Matrix(rows) == real
        cases.append((rows, (real.is_positive_semidefinite,
                             real.is_positive_definite)))
    # zero diagonal, nonzero off-diagonal
    cases.append((hermitian_real_form(_pairs(Matrix([[0, I], [-I, 0]]))),
                  (False, False)))
    for rows, expected in cases:
        psd, pd, witness = symmetric_definiteness(rows)
        assert (psd, pd) == expected
        if not psd:
            # v^T M v < 0 exactly
            v = Matrix([sp.sympify(x) for x in witness])
            assert exact_sign(sp.expand((v.T * Matrix(rows) * v)[0])) < 0


# ---------------------------------------------------------------------------
# colinearity dichotomy
# ---------------------------------------------------------------------------

def test_colinearity_examples():
    res = colinearity_witness(D10, D10.scale(2))
    assert res.kind == "colinear" and res.ratio == 2
    assert colinearity_witness(D10, D01).kind == "wedge_nonzero"
    w = Matrix([2, 1])
    cw = CohomClass.from_hermitian(w * w.T)
    assert colinearity_witness(cw, cw).kind == "colinear"


def test_colinearity_ratio_is_none_only_for_zero_c():
    zero = CohomClass.zero(2, 1)
    res = colinearity_witness(zero, D10)
    assert res.kind == "colinear" and res.ratio is None
    assert colinearity_witness(D10, zero).ratio == 0
    assert colinearity_witness(zero, zero).ratio == 0


def test_colinearity_rejects_non_nef():
    with pytest.raises(ValueError):
        colinearity_witness(CohomClass.from_hermitian(sp.diag(1, -1)), D10)


def test_colinearity_dichotomy_exhaustive():
    rng = random.Random(47)
    outcomes = set()
    for i in range(500):
        k = 2 + (i % 2)
        c = _random_psd(rng, k, rank_one=True)
        ratio = sp.Rational(rng.randint(1, 9), rng.randint(1, 9))
        res = colinearity_witness(c, c.scale(ratio))
        outcomes.add(res.kind)
        assert res.kind == "colinear"
        assert sp.expand(res.ratio - ratio) == 0 or c.is_zero()
    for i in range(500):
        k = 2 + (i % 2)
        c = _random_psd(rng, k)
        cp = _random_psd(rng, k)
        res = colinearity_witness(c, cp)
        outcomes.add(res.kind)
        assert res.kind in ("colinear", "wedge_nonzero")
        if res.ratio is not None:
            assert cp == c.scale(res.ratio)
    assert outcomes <= {"colinear", "wedge_nonzero"}


# ---------------------------------------------------------------------------
# (a,b)-pair solver
# ---------------------------------------------------------------------------

def test_solve_ab_colinear_classes():
    res = solve_ab_pair(D10, D10, [])
    assert res.status == "solved"
    assert sp.expand(res.a + res.b) == 0   # (1, -1) direction
    assert res.unique


def test_solve_ab_hypothesis_violated():
    eps = CohomClass.from_hermitian(sp.diag(1, sp.Rational(1, 7)))
    assert solve_ab_pair(D10, eps, []).status == "hypothesis_violated"


def test_solve_ab_rank_one_instances_verified_exactly():
    rng = random.Random(53)
    k = 3
    basis_cls = [CohomClass.from_hermitian(E) for E in hermitian_basis(k)]
    for _ in range(10):
        u = Matrix([rng.randint(-2, 2) for _ in range(k)])
        w = Matrix([rng.randint(-2, 2) for _ in range(k)])
        if u.cross(w).norm() == 0:
            continue
        s, t = rng.randint(1, 3), rng.randint(1, 3)
        v = s * u + t * w
        c = CohomClass.from_hermitian(w * w.T)
        cp = CohomClass.from_hermitian(v * v.T)
        ctx = [CohomClass.from_hermitian(u * u.T)]
        res = solve_ab_pair(c, cp, ctx)
        assert res.status == "solved"
        assert res.unique and res.kernel_dimension == 1
        combo = c.scale(res.a) + cp.scale(res.b)
        top = wedge_all([combo, *ctx])
        for E in basis_cls:
            assert wedge(top, E).is_zero()


# ---------------------------------------------------------------------------
# eigenclass-wedge lemma instances
# ---------------------------------------------------------------------------

def _pell_block_t3():
    return TorusAutomorphism([[1, 2, 0], [1, 1, 0], [0, 0, 1]])


def test_lemma_holds_instance():
    g = _pell_block_t3()
    s2 = sp.sqrt(2)
    c1 = CohomClass.from_hermitian(Matrix([1, s2, 0]) * Matrix([[1, s2, 0]]))
    c3 = CohomClass.from_hermitian(sp.diag(0, 0, 1))
    lam = (1 + s2) ** 2
    res = lemma_4_3_check(g, c1, c3.scale(3), [c3], lam, sp.Integer(1))
    assert res.status == "holds", res.reason


def test_lemma_vacuous_equal_eigenvalues():
    g = _pell_block_t3()
    c3 = CohomClass.from_hermitian(sp.diag(0, 0, 1))
    res = lemma_4_3_check(g, c3, c3, [c3], sp.Integer(1), sp.Integer(1))
    assert res.status == "vacuous"


def test_lemma_vacuous_zero_context_wedge():
    g = _pell_block_t3()
    c3 = CohomClass.from_hermitian(sp.diag(0, 0, 1))
    other = CohomClass.from_hermitian(sp.diag(1, 0, 0))
    res = lemma_4_3_check(g, c3, other, [c3], sp.Integer(2), sp.Integer(1))
    assert res.status == "vacuous"
