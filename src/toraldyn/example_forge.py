"""Forging maximal-rank commuting automorphism groups of complex tori.

Units of a totally real number field of degree k act on T^k = (C/Z[i])^k
through their regular representations (multiplication matrices on the power
basis).  Any k-1 multiplicatively independent units give a commutative free
group of positive-entropy automorphisms whose log-character rank hits the
structural ceiling r = k-1, so the rank bound is sharp in every dimension.
This module constructs such groups from scratch (brute-force unit search plus
LLL reduction of the log-embedding lattice).  A unit is its regular
representation, and a product of units is read off the product of their
matrices.  The small catalog of hand-picked examples lives in
``integer_model`` (``catalog_group``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction

import sympy as sp

from .exact_algebra import (X, RealRoot, _LOG_DIGITS, _irreducible_factors,
                            _isolate, log_abs)
from .group_structure import (GroupAnalysis, analyze_group, verified_kernel,
                              word_automorphism)
from .integer_model import (GroupSpec, TorusAutomorphism, _divide_monic,
                            _relation_rows, gaussian_det, lll_reduce)


class ForgeError(ValueError):
    """Construction failure: a bad field, too few units, dependent units."""


# ---------------------------------------------------------------------------
# number fields and their units
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NumberFieldSpec:
    """A totally real number field Q(theta) presented by a monic irreducible
    integer polynomial, together with the order Z[theta] on the power basis
    {1, theta, ..., theta^(k-1)}.
    """
    coeffs: tuple  # descending integer coefficients, leading coefficient 1

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", cs)
        if len(cs) < 3:
            raise ForgeError("field degree must be at least 2")
        if cs[0] != 1:
            raise ForgeError("minimal polynomial must be monic")
        # decided by the integer kernel; the distinct irreducible factors of
        # a square such as (x^2 - 2)^2 are not cs alone
        if _irreducible_factors(cs) != [cs]:
            problem = "is reducible over the rationals"
        elif (real := len(_embedding_roots(cs))) != self.degree:
            problem = (f"is not totally real ({real} of {self.degree} roots "
                       "are real)")
        else:
            return
        raise ForgeError(f"{sp.Poly(list(cs), X).as_expr()} {problem}")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def _reduce(self, coeffs) -> tuple:
        """Ascending integer coefficients reduced modulo the monic minimal
        polynomial, as k ascending coefficients."""
        p = [0] * self.degree + [int(c) for c in reversed(coeffs)]
        return tuple(reversed(_divide_monic(p, self.coeffs)[1]))

    def multiplication_matrix(self, u) -> list:
        """Integer matrix of multiplication by u on the power basis, as
        rows; column j is u * theta^j."""
        cols = [self._reduce((0,) * j + tuple(u)) for j in range(self.degree)]
        return [list(row) for row in zip(*cols)]

    def norm(self, u) -> int:
        """Field norm of an element of Z[theta]: the determinant of its
        multiplication matrix (Cohen, GTM 138, section 4.3)."""
        M = self.multiplication_matrix(u)
        return gaussian_det([[(v, 0) for v in row] for row in M])[0]


@dataclass(frozen=True)
class UnitSystem:
    """Multiplicatively independent infinite-order units of Z[theta].

    The one independence test of the forge is the rank of pi's verified
    kernel (``verified_kernel``): every relation prod u_i**e_i = +-1 that
    ``integer_relations`` proposes from the units' log vectors over the
    real embeddings is refuted by the exact zero-entropy test of its word,
    since by Kronecker a unit of a totally real field with all
    |sigma_j(u)| = 1 is +-1.  ``unit_search`` selects the units with it,
    ``_lll_reduce_units`` reduces them on the same lattice, and
    :func:`build_max_rank_group` certifies them again through ``pi_rank``.
    """
    field: NumberFieldSpec
    units: tuple                # ascending power-basis coefficient tuples
    certificate: str = ""


@functools.lru_cache(maxsize=None)
def _embedding_roots(coeffs) -> tuple:
    """The real embeddings theta_j of the field, ascending, as ``RealRoot``s
    of its minimal polynomial; they carry no sympy value, as only their
    enclosures are read.  ``NumberFieldSpec`` counts them to decide that
    the field is totally real, so the forge reuses that isolation."""
    return tuple(RealRoot(coeffs, lo, hi) for lo, hi in _isolate(coeffs))


def _interval_value(u, lo: Fraction, hi: Fraction):
    """Enclosure of u_0 + u_1 t + ... over t in [lo, hi] (interval Horner)."""
    a = b = Fraction(u[-1])
    for c in reversed(u[:-1]):
        ends = (a * lo, a * hi, b * lo, b * hi)
        a, b = min(ends) + c, max(ends) + c
    return a, b


def _log_vector(field: NumberFieldSpec, u):
    """log|sigma_j(u)| over the real embeddings for a nonzero u, by pi's
    ``log_abs`` from enclosures of u(theta_j) over those of theta_j: an
    approximation for LLL that decides nothing, as ``verified_kernel``
    settles every relation it proposes exactly."""
    return tuple(log_abs(lambda eps, root=root: _interval_value(
        u, *root.enclosure(eps))) for root in _embedding_roots(field.coeffs))


def _lll_reduce_units(gens, logs) -> tuple:
    """LLL-reduce the log-embedding lattice of independent units u_i, given
    by their regular representations ``gens``, with ``logs[i][j]`` =
    log|sigma_j(u_i)| over the real embeddings sigma_j; returns an
    equally-sized system of (usually shorter) units obtained as exact
    products of the input units.  The reduced rows are a unimodular
    transform of the rows [e_i | logs_i], so their exponent block has
    determinant +-1 and the units it gives are independent too.  A product
    is column 0 of the word M of the units' regular representations:
    M e_0 = M(1)."""
    spec = GroupSpec(tuple(gens))
    return tuple(tuple(r[0][0] for r in
                       word_automorphism(spec, row[:len(gens)]).pairs)
                 for row in lll_reduce(_relation_rows(logs)))


def _shell(k: int, s: int):
    """The points of [-s, s]^k with max |c| = s, in ascending order."""
    for c in range(-s, s + 1) if k else ():
        rest = (itertools.product(range(-s, s + 1), repeat=k - 1)
                if abs(c) == s else _shell(k - 1, s))
        yield from ((c,) + r for r in rest)


def unit_search(field: NumberFieldSpec, coeff_bound: int) -> UnitSystem:
    """Find k-1 multiplicatively independent infinite-order units of
    Z[theta] over the shells max |a_i| = 1, 2, ..., coeff_bound, each
    ascending, then LLL-reduce their log-embedding lattice.  A unit u is
    kept when ``verified_kernel`` certifies no word over the regular
    representations of the units kept so far and u (the one independence
    test; it rejects +-1 too).  The walk stops at k-1 units, so the bound is
    a ceiling.  The CLI refuses a box over its search budget.
    """
    k = field.degree
    target = k - 1
    gens, logs = [], []
    for u in itertools.chain.from_iterable(
            _shell(k, s) for s in range(1, coeff_bound + 1)):
        if len(gens) == target:
            break
        # -u has the same logs: keep the sign class whose first nonzero
        # coefficient is positive
        if next(c for c in u if c) < 0 or abs(field.norm(u)) != 1:
            continue
        g, lv = regular_representation(u, field), _log_vector(field, u)
        if not verified_kernel(GroupSpec(tuple(gens + [g])), logs + [lv]):
            gens.append(g)
            logs.append(lv)
    if len(gens) < target:
        raise ForgeError(
            f"only {len(gens)} independent units found with coefficient "
            f"bound {coeff_bound}; need {target} — increase the bound")
    return UnitSystem(field, _lll_reduce_units(gens, logs))


# ---------------------------------------------------------------------------
# regular representations and group assembly
# ---------------------------------------------------------------------------

def regular_representation(u, field: NumberFieldSpec) -> TorusAutomorphism:
    """Multiplication by u on the power basis of Z[theta], as an integer
    matrix acting on T^k; its determinant is the field norm of u."""
    label = "+".join(f"{c}t^{e}" if e else str(c)
                     for e, c in enumerate(u) if c) or "0"
    return TorusAutomorphism(field.multiplication_matrix(u),
                             name=f"mult({label})")


@dataclass(frozen=True)
class ForgedGroup:
    """A sharpness witness: k-1 commuting positive-entropy automorphisms of
    T^k with log-character rank exactly k-1; ``analysis.spec`` is the
    group."""
    units: UnitSystem
    analysis: GroupAnalysis = dc_field(repr=False)


def build_max_rank_group(field: NumberFieldSpec,
                         coeff_bound: int) -> ForgedGroup:
    """Forge the rank-(k-1) group of a totally real degree-k field and run
    the full structural pipeline on it.

    The rank of pi is k-1 minus the number of verified kernel words, and a
    word of the units' regular representations has zero entropy exactly
    when its unit product is +-1.  So the rank is k-1 iff every relation
    LLL proposes is refuted exactly; a verified one is a ``ForgeError``."""
    units = unit_search(field, coeff_bound)
    analysis = analyze_group(GroupSpec(tuple(
        regular_representation(u, field) for u in units.units)))
    kernel = analysis.rank.kernel.basis
    if kernel:
        raise ForgeError(
            f"units are multiplicatively dependent: relation "
            f"{list(kernel[0])} verified exactly")
    units = replace(units, certificate=(
        f"log-rank {len(units.units)} at {_LOG_DIGITS} digits; all "
        "LLL-proposed relations refuted exactly in Z[theta]"))
    return ForgedGroup(units, analysis)

