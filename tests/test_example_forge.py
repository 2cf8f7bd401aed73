"""Tests for number-field spec validation, unit search, regular
representations, the builtin catalog, and maximal-rank group forging."""

import itertools
import math
import random
import time
from fractions import Fraction
from functools import partial

import mpmath
import pytest
import sympy as sp
from sympy import Matrix, eye

from toraldyn import exact_algebra, example_forge
from toraldyn.cli import EXIT_INVALID, main
from toraldyn.cohomology import classify, degree_profile, entropy
from toraldyn.exact_algebra import _LOG_DIGITS, interval, log_abs, real_root
from toraldyn.example_forge import (
    ForgeError, NumberFieldSpec, UnitSystem, build_max_rank_group,
    _lll_reduce_units, _log_vector, regular_representation, unit_search)
from toraldyn.group_structure import (find_characters, verified_kernel,
                                      word_automorphism)
from toraldyn.integer_model import (_CATALOG, GroupSpec, catalog_group,
                                    lll_reduce)

from oracles import embedding_entropy, field_element

SQRT2_FIELD = NumberFieldSpec((1, 0, -2))          # x^2 - 2
GOLDEN_FIELD = NumberFieldSpec((1, -1, -1))        # x^2 - x - 1
CUBIC_FIELD = NumberFieldSpec((1, -1, -2, 1))      # x^3 - x^2 - 2x + 1
QUARTIC_FIELD = NumberFieldSpec((1, -1, -3, 1, 1))  # x^4 - x^3 - 3x^2 + x + 1


# ---------------------------------------------------------------------------
# field specs
# ---------------------------------------------------------------------------

def test_field_validation():
    with pytest.raises(ForgeError):
        NumberFieldSpec((1, 0, 0, -2))      # x^3 - 2: complex embeddings
    with pytest.raises(ForgeError):
        NumberFieldSpec((2, 0, -1))         # not monic
    with pytest.raises(ForgeError):
        NumberFieldSpec((1, 0, -4))         # reducible
    assert CUBIC_FIELD.degree == 3


@pytest.mark.parametrize("coeffs, message", [
    ((1, 0, -4), "x**2 - 4 is reducible over the rationals"),
    ((1, 2, 1), "x**2 + 2*x + 1 is reducible over the rationals"),
    # a square: its one distinct irreducible factor is x^2 - 2
    ((1, 0, -4, 0, 4), "x**4 - 4*x**2 + 4 is reducible over the rationals"),
    ((1, 0, 0, -2), "x**3 - 2 is not totally real (1 of 3 roots are real)"),
    ((1, 0, 1), "x**2 + 1 is not totally real (0 of 2 roots are real)"),
    ((1, 0, -2, 0, -1),
     "x**4 - 2*x**2 - 1 is not totally real (2 of 4 roots are real)"),
])
def test_field_refusal_messages(coeffs, message):
    # irreducibility and total reality are decided by the integer kernel;
    # the messages read as sympy prints the polynomial
    with pytest.raises(ForgeError) as err:
        NumberFieldSpec(coeffs)
    assert str(err.value) == message
    x = sp.Symbol("x")
    p = sp.Poly(list(coeffs), x)
    if "reducible" in message:
        assert not p.is_irreducible
    else:
        assert p.is_irreducible and p.count_roots() != len(coeffs) - 1


def test_field_norms():
    assert SQRT2_FIELD.norm((1, 1)) == -1           # N(1 + sqrt 2)
    assert GOLDEN_FIELD.norm((0, 1)) == -1          # N(theta) = -1
    assert SQRT2_FIELD.norm((3, 2)) == 1            # 9 - 2*4
    assert CUBIC_FIELD.norm((0, 1, 0)) == -1


def _element(g):
    """The element that the regular representation g multiplies by: its
    column 0, g e_0 = g(1)."""
    return tuple(row[0][0] for row in g.pairs)


def test_field_arithmetic_round_trip():
    g = regular_representation((1, 1), SQRT2_FIELD)
    assert _element(g.compose(g.inverse())) == (1, 0)
    with pytest.raises(ValueError):
        regular_representation((2, 0), SQRT2_FIELD)


def _ascending(poly_expr, k):
    out = [0] * k
    for (e,), c in sp.Poly(poly_expr, sp.Symbol("x")).terms():
        out[e] = int(c)
    return tuple(out)


@pytest.mark.parametrize("field, bound", [
    (GOLDEN_FIELD, 3), (CUBIC_FIELD, 3), (QUARTIC_FIELD, 2)],
    ids=["golden", "cubic", "quartic"])
def test_field_arithmetic_matches_sympy_on_the_box(field, bound):
    # integer norm against sympy's resultant on every element of the
    # coefficient box; the product and inverse of the regular
    # representations, read at column 0, against sympy's Poly remainder and
    # invert on every unit of the box, each multiplied by a seeded unit
    # partner.  A non-unit has no regular representation on the torus
    x = sp.Symbol("x")
    k = field.degree
    f = sp.Poly(list(field.coeffs), x).as_expr()
    box = list(itertools.product(range(-bound, bound + 1), repeat=k))
    norms = {}
    for u in box:
        norms[u] = field.norm(u)
        assert norms[u] == int(sp.resultant(f, field_element(u).as_expr(),
                                            x)), u
    units = [u for u in box if abs(norms[u]) == 1]
    rng = random.Random(k)
    for u in box:
        if abs(norms[u]) != 1:
            with pytest.raises(ValueError):
                regular_representation(u, field)
            continue
        g, v = regular_representation(u, field), rng.choice(units)
        e = field_element(u).as_expr()
        product = sp.rem(sp.expand(e * field_element(v).as_expr()), f, x)
        assert _element(g.compose(regular_representation(v, field))) == \
            _ascending(product, k), (u, v)
        assert _element(g.inverse()) == \
            _ascending(sp.invert(e, f, x), k), u
    assert units


@pytest.mark.parametrize("field, bound", [
    (GOLDEN_FIELD, 2), (CUBIC_FIELD, 4), (QUARTIC_FIELD, 2)],
    ids=["golden", "cubic", "quartic"])
def test_log_vector_matches_mpmath_at_80_digits(field, bound):
    # log|sigma_j(u)| for the searched units and a high power of one of
    # them, against mpmath roots of the field polynomial at 80 digits
    us = unit_search(field, bound)
    units = list(us.units) + [_element(
        regular_representation(us.units[0], field).power(-7))]
    with mpmath.workdps(80):
        thetas = sorted(mpmath.re(r) for r in mpmath.polyroots(
            field.coeffs, maxsteps=200, extraprec=300))
        for u in units:
            got = _log_vector(field, u)
            assert len(got) == field.degree
            for th, value in zip(thetas, got):
                expected = mpmath.log(abs(mpmath.polyval(
                    list(reversed(u)), th)))
                assert abs(mpmath.mpf(value.numerator) / value.denominator
                           - expected) < mpmath.mpf(10) ** -55


def _sympy_float_log(lo, hi):
    """log of the midpoint of [lo, hi] at _LOG_DIGITS + 10 digits, rounded
    by ``sp.Float(v, _LOG_DIGITS)``: the sympy route the logs used to take,
    as an exact Fraction."""
    mid = (lo + hi) / 2
    with mpmath.workdps(_LOG_DIGITS + 10):
        v = mpmath.log(mpmath.mpf(mid.numerator) / mid.denominator)
    return Fraction(sp.Rational(sp.Float(v, _LOG_DIGITS)))


def test_logs_are_the_sympy_float_values(monkeypatch):
    # the shared log routine on the character multipliers of the builtins,
    # against the same enclosures taken through the sympy rounding
    multipliers = [(name, m) for name in sorted(_CATALOG)
                   for ch in find_characters(catalog_group(name)).characters
                   for m in ch.multipliers if real_root(m) != 1]
    assert len(multipliers) >= 4
    got = [log_abs(partial(interval, m)) for _, m in multipliers]
    # _log_vector on seeded unit products, against the same enclosures
    # taken through the sympy rounding
    rng = random.Random(20261019)
    cases = []
    for field, bound in ((CUBIC_FIELD, 4), (QUARTIC_FIELD, 2)):
        spec = GroupSpec(tuple(regular_representation(u, field)
                               for u in unit_search(field, bound).units))
        for _ in range(4):
            e = [rng.randint(-6, 6) for _ in range(spec.n)]
            cases.append((field, _element(word_automorphism(spec, e))))
    got_vectors = [_log_vector(field, u) for field, u in cases]
    monkeypatch.setattr(exact_algebra, "_log_midpoint", _sympy_float_log)
    for (name, m), value in zip(multipliers, got):
        assert value == log_abs(partial(interval, m)), (name, m)
    assert got_vectors == [_log_vector(field, u) for field, u in cases]


# ---------------------------------------------------------------------------
# unit search
# ---------------------------------------------------------------------------

def test_unit_search_sqrt2():
    us = unit_search(SQRT2_FIELD, 3)
    assert len(us.units) == 1
    (u,) = us.units
    # the fundamental Pell unit up to sign/inverse: |N(u)| = 1, u != +-1
    assert abs(SQRT2_FIELD.norm(u)) == 1
    assert u not in ((1, 0), (-1, 0))


def test_unit_search_golden():
    us = unit_search(GOLDEN_FIELD, 2)
    assert len(us.units) == 1
    assert abs(GOLDEN_FIELD.norm(us.units[0])) == 1


def test_unit_search_cubic_two_independent_units():
    us = build_max_rank_group(CUBIC_FIELD, 4).units
    assert len(us.units) == 2
    assert "refuted exactly" in us.certificate
    # numeric independence double-check via 2x2 log minors
    L = [[float(v) for v in _log_vector(CUBIC_FIELD, u)] for u in us.units]
    minor = L[0][0] * L[1][1] - L[0][1] * L[1][0]
    assert abs(minor) > 1e-9


def test_unit_search_visits_each_sign_class_once(monkeypatch):
    # u and -u have the same logs: only the points whose first nonzero
    # coefficient is positive are tested, so not the zero vector either,
    # and no point is normed twice
    calls, norm = [], NumberFieldSpec.norm

    def counted(field, u):
        calls.append(tuple(u))
        return norm(field, u)

    monkeypatch.setattr(NumberFieldSpec, "norm", counted)
    unit_search(CUBIC_FIELD, 2)
    assert all(next(c for c in u if c) > 0 for u in calls)
    assert len(set(calls)) == len(calls)
    # the walk stops at k - 1 units, so a larger bound norms no more points
    at_2 = list(calls)
    calls.clear()
    unit_search(CUBIC_FIELD, 40)
    assert calls == at_2


def test_unit_search_quartic_three_independent_units():
    # its 10^40-scaled log lattice defeats an LLL rounding through float
    us = build_max_rank_group(QUARTIC_FIELD, 2).units
    assert len(us.units) == 3
    assert "refuted exactly" in us.certificate
    assert all(abs(QUARTIC_FIELD.norm(u)) == 1 for u in us.units)


def _unit_kernel(field, units):
    """The verified kernel over the regular representations of ``units``,
    with each unit's logs over the embeddings as its vector, as
    ``unit_search`` asks it."""
    spec = GroupSpec(tuple(regular_representation(u, field) for u in units))
    return verified_kernel(spec, [_log_vector(field, u) for u in units])


def test_verified_kernel_decides_unit_independence():
    # 1 + sqrt 2 and its square 3 + 2 sqrt 2: the word u^2 (u^2)^-1 = 1
    assert _unit_kernel(SQRT2_FIELD, [(1, 1), (3, 2)]) == [[2, -1]]
    # 1 + sqrt 2 and -1 + sqrt 2 = (1 + sqrt 2)^-1: their product is 1
    assert _unit_kernel(SQRT2_FIELD, [(1, 1), (-1, 1)]) == [[1, 1]]
    # the torsion unit -1 is a kernel word on its own
    assert _unit_kernel(CUBIC_FIELD, [(0, 1, 0), (-1, 0, 0)]) == [[0, 1]]
    # the unit systems that the searches select are independent
    for field, bound in ((CUBIC_FIELD, 2), (CUBIC_FIELD, 4),
                         (QUARTIC_FIELD, 2)):
        assert _unit_kernel(field, unit_search(field, bound).units) == []


def test_quartic_search_rejects_its_one_dependent_candidate(monkeypatch):
    # theta^2 after theta^3 and theta^2 - theta^3: (theta^2)^3 = (theta^3)^2
    # is verified, and no other candidate of the box is rejected
    asked = []

    def recording(spec, log_vectors):
        kernel = verified_kernel(spec, log_vectors)
        asked.append(([_element(g) for g in spec.generators], kernel))
        return kernel

    monkeypatch.setattr(example_forge, "verified_kernel", recording)
    unit_search(QUARTIC_FIELD, 2)
    rejected = [(units, kernel) for units, kernel in asked if kernel]
    assert rejected == [([(0, 0, 0, 1), (0, 0, 1, -1), (0, 0, 1, 0)],
                         [[2, 0, -3]])]
    assert len(asked) == 4


@pytest.mark.parametrize("field, bound", [
    (SQRT2_FIELD, 3), (CUBIC_FIELD, 4), (QUARTIC_FIELD, 2)],
    ids=["sqrt2", "cubic", "quartic"])
def test_lll_reduce_units_is_unimodular(field, bound, monkeypatch):
    # the exponent block of the LLL rows has determinant +-1, so the reduced
    # units generate the group of the selected ones and stay independent;
    # each is the word of its row over the selected units
    selected, selected_logs, rows = [], [], []

    def recording_lll(basis):
        reduced = lll_reduce(basis)
        rows.extend(reduced)
        return reduced

    def recording_reduce(gens, logs):
        selected.extend(gens)
        selected_logs.extend(logs)
        return _lll_reduce_units(gens, logs)

    monkeypatch.setattr(example_forge, "lll_reduce", recording_lll)
    monkeypatch.setattr(example_forge, "_lll_reduce_units", recording_reduce)
    us = unit_search(field, bound)
    n = field.degree - 1
    exponents = [row[:n] for row in rows]
    assert len(exponents) == n == len(us.units)
    assert Matrix(exponents).det() in (1, -1)
    spec = GroupSpec(tuple(selected))
    for e, u in zip(exponents, us.units):
        assert _element(word_automorphism(spec, e)) == u
        # the logs of a product are the sums of its factors' logs
        logs = [sum(c * row[j] for c, row in zip(e, selected_logs))
                for j in range(field.degree)]
        assert all(abs(a - b) < Fraction(1, 10 ** (_LOG_DIGITS - 10))
                   for a, b in zip(_log_vector(field, u), logs))


def test_dependent_units_are_a_forge_error(monkeypatch, capsys):
    # a search that returned the dependent pair (u, u^2) of the cubic field:
    # the rank of pi verifies the relation u^2 = u^2 exactly, and the forge
    # refuses with exit 3 instead of reporting a rank below k - 1
    u = (0, 1, 0)
    pair = (u, _element(regular_representation(u, CUBIC_FIELD).power(2)))
    monkeypatch.setattr(example_forge, "unit_search",
                        lambda field, bound: UnitSystem(field, pair))
    with pytest.raises(ForgeError, match=r"multiplicatively dependent: "
                       r"relation \[2, -1\] verified exactly"):
        build_max_rank_group(CUBIC_FIELD, 4)
    assert main(["forge", "--poly", "1,-1,-2,1"]) == EXIT_INVALID
    assert "multiplicatively dependent" in capsys.readouterr().err


def test_unit_search_failure_reports_bound():
    with pytest.raises(ForgeError, match="bound"):
        unit_search(NumberFieldSpec((1, 0, -79)), 1)
    # the caller bounds the box; an empty one holds no unit
    with pytest.raises(ForgeError, match="only 0 independent units"):
        unit_search(CUBIC_FIELD, 0)


# ---------------------------------------------------------------------------
# regular representations
# ---------------------------------------------------------------------------

def test_regular_representation_examples():
    assert regular_representation((0, 1), GOLDEN_FIELD).A == \
        Matrix([[0, 1], [1, 1]])
    assert regular_representation((1, 1), SQRT2_FIELD).A == \
        Matrix([[1, 2], [1, 1]])
    assert regular_representation((1, 0), SQRT2_FIELD).A == eye(2)


def test_regular_representations_commute():
    us = unit_search(CUBIC_FIELD, 4)
    mats = [regular_representation(u, CUBIC_FIELD).A for u in us.units]
    assert mats[0] * mats[1] == mats[1] * mats[0]


def test_forged_generators_have_real_spectrum_and_unit_det():
    us = unit_search(CUBIC_FIELD, 4)
    for u in us.units:
        A = regular_representation(u, CUBIC_FIELD).A
        assert A.det() in (1, -1)
        p = sp.Poly(A.charpoly().as_expr(), A.charpoly().gens[0])
        assert p.count_roots() == 3      # all eigenvalues real


def test_entropy_matches_embedding_formula():
    for field, u in ((SQRT2_FIELD, (1, 1)), (GOLDEN_FIELD, (0, 1)),
                     (CUBIC_FIELD, (0, 1, 0))):
        g = regular_representation(u, field)
        cohomological = float(entropy(g))
        embeddings = float(embedding_entropy(field, u))
        assert cohomological == pytest.approx(embeddings, abs=1e-9)


# ---------------------------------------------------------------------------
# maximal-rank groups
# ---------------------------------------------------------------------------

def test_build_max_rank_pell():
    forged = build_max_rank_group(SQRT2_FIELD, 3)
    assert forged.analysis.rank.rank == 1
    assert forged.analysis.binomial_bounds == [(1, 1, 4, 3)]


# Shanks' simplest cubics x^3 - a x^2 - (a + 3) x - 1 (Shanks, Math. Comp.
# 28, 1974): totally real and cyclic for every integer a, with the root rho
# and rho + 1 independent units, so the forge reaches rank 2 = k - 1 at
# coefficient bound 1 at every height a.  The set holds -1, 5, 1000 and one
# seeded draw.
SHANKS_A = [-1, 5, 1000, random.Random(1974).randint(-100, 100)]


def _shanks_field(a):
    return NumberFieldSpec((1, -a, -(a + 3), -1))


def _assert_entropies_match_embeddings(forged, field):
    for g, u in zip(forged.analysis.spec.generators, forged.units.units):
        lo, hi = degree_profile(g).entropy.enclosure(Fraction(1, 2 * 10**40))
        assert hi - lo <= Fraction(1, 10**40)
        with mpmath.workdps(60):
            # the oracle is good to about 10^-48 at these heights
            slack = mpmath.mpf(10) ** -45
            value = embedding_entropy(field, u, 50)
            assert (mpmath.mpf(lo.numerator) / lo.denominator - slack
                    <= value
                    <= mpmath.mpf(hi.numerator) / hi.denominator + slack)


def test_shanks_simplest_cubics_reach_rank_k_minus_1():
    # each of the eight forges takes about 0.8 s in-process, about 6 s in
    # all (budget 20 s)
    start = time.perf_counter()
    for a in SHANKS_A:
        field = _shanks_field(a)
        forged = build_max_rank_group(field, 1)
        assert forged.analysis.rank.rank == 2
        assert forged.analysis.decomposition.u_order == 1
        _assert_entropies_match_embeddings(forged, field)
        # the roots of the a -> -a - 3 cubic are the 1/rho: the same field
        moved = build_max_rank_group(_shanks_field(-a - 3), 1)
        assert moved.analysis.rank.rank == 2
    assert time.perf_counter() - start < 20


# Gras' simplest quartics x^4 - a x^3 - 6 x^2 + a x + 1 (M.-N. Gras, 1977;
# Lazarus, 1991): totally real and cyclic.  The forge reaches rank 3 = k - 1
# at coefficient bound 2 for a = 1, 2 and at bound 3 for a = 4; f_{-a}(x) =
# f_a(-x), so a -> -a gives the same field.
def _gras_field(a):
    return NumberFieldSpec((1, -a, -6, a, 1))


def test_gras_simplest_quartics_reach_rank_k_minus_1(capsys):
    start = time.perf_counter()
    for a, bound in ((1, 2), (2, 2), (4, 3), (-1, 2)):
        field = _gras_field(a)
        forged = build_max_rank_group(field, bound)
        assert forged.analysis.rank.rank == 3, a
        assert forged.analysis.decomposition.u_order == 1, a
        if a > 0:
            _assert_entropies_match_embeddings(forged, field)
    # the forge's ceiling: the a = 4 units of height 3 leave the box of
    # bound 2, which holds too few independent units
    assert main(["forge", "--poly", "1,-4,-6,4,1", "--bound", "2"]) \
        == EXIT_INVALID
    assert "invalid input" in capsys.readouterr().err
    assert time.perf_counter() - start < 15


def test_builtin_catalog():
    assert set(sorted(_CATALOG)) == {
        "cat_T2", "pell_T2", "parabolic_T2", "torsion_i",
        "pell_plus_torsion", "cubic_T3"}
    assert catalog_group("cat_T2").generators[0].A == Matrix([[2, 1], [1, 1]])
    assert catalog_group("pell_T2").generators[0].A == Matrix([[1, 2], [1, 1]])
    par = catalog_group("parabolic_T2")
    assert [classify(g) for g in par.generators] == ["parabolic", "parabolic"]
    assert classify(catalog_group("torsion_i").generators[0]) == \
        "finite_order_on_cohomology"
    with pytest.raises(KeyError):
        catalog_group("no_such_example")


def test_builtin_cat_entropy():
    h = float(entropy(catalog_group("cat_T2").generators[0]))
    assert h == pytest.approx(2 * math.log((3 + math.sqrt(5)) / 2), abs=1e-9)


def test_builtin_cubic_t3_generators():
    spec = catalog_group("cubic_T3")
    assert spec.k == 3
    a, b = (g.A for g in spec.generators)
    assert a * b == b * a
    assert a.det() in (1, -1) and b.det() in (1, -1)
    assert all(classify(g) == "positive_entropy" for g in spec.generators)
