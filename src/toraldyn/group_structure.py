"""Structure of commuting automorphism groups on cohomology.

A finitely generated commuting family of torus automorphisms acts on the
invariant nef directions through multiplicative characters.  Taking logs of
the character values gives a homomorphism pi into R^m whose kernel is exactly
the set of zero-entropy words; the quotient is free abelian of rank r <= k-1.
This module computes the characters from common eigenvectors, certifies the
kernel of pi with exact cyclotomic tests, checks the structural bounds, and
splits the group into a zero-entropy part U and a free positive-entropy
complement.

It loads no sympy: a family whose generators all have zero entropy is
decided on the integers of ``integer_model``, and the common eigenvectors
of any other family come from ``characters``, imported on first use.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial, reduce

from . import ExactAlgebraError
from .integer_model import (
    FINITE_ORDER,
    GroupSpec,
    IntegerLattice,
    TorusAutomorphism,
    _identity,
    _pair_product,
    classify,
    finite_order_bound,
    has_zero_entropy,
    hermite_normal_form_rows,
    integer_relations,
)

# counts elements of U, not time: U is built at about 9,000 elements per
# second cold (measured at k = 8 on a 2-core machine)
ENUMERATION_CAP = 10**6


class DegenerateSpectrumError(ExactAlgebraError):
    """Raised for non-semisimple families whose character analysis would be
    incomplete: ``degenerate_spectrum_unsupported``."""

    def __init__(self, detail: str = ""):
        msg = "degenerate_spectrum_unsupported"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


@lru_cache(maxsize=None)
def check_commuting(spec: GroupSpec) -> tuple | None:
    """Exact pairwise commutator test: the indices (i, j) of the first
    non-commuting pair, or None when the generators commute.  Memoised per
    spec: the analysis and the character search share it."""
    gens = spec.generators
    for i, j in itertools.combinations(range(len(gens)), 2):
        if gens[i].compose(gens[j]) != gens[j].compose(gens[i]):
            return i, j
    return None


# ---------------------------------------------------------------------------
# characters


@dataclass
class CharacterTable:
    characters: list           # nontrivial characters only
    # all (vector, multipliers) found; a multiplier is a RealRoot where the
    # eigenvalue's factor has a non-real root, else an exact sympy value
    eigenvectors: list
    distinct_multipliers: list  # their distinct tuples, the trivial included
    semisimple: bool

    @property
    def m(self) -> int:
        return len(self.characters)


def find_characters(spec: GroupSpec) -> CharacterTable:
    """Characters of the group on its invariant nef directions.

    Each common eigenvector w of the transposed generators yields the nef
    eigenclass w w^H with pullback multiplier |mu_j|^2 under generator j,
    by construction: A_j^T w = mu_j w and w != 0 are proved exactly.  The
    eigenvectors come from one routine (``characters``): B is the first
    generator with a squarefree charpoly, else the first
    B_t = sum_j t^(j-1) A_j^T whose eigenspaces pass the separation
    certificate (A_j^T - mu_j)^(dim V) V = 0 over each factor field
    Q(i)[x]/(f).  The trivial character (all multipliers 1) is dropped; the
    rest are deduplicated exactly.  A non-semisimple family with a
    positive-entropy generator is rejected.

    When every generator has zero entropy, every eigenvalue is a root of
    unity (Kronecker), so every multiplier is 1 and m = 0, and no eigenvector
    is computed.  Commuting matrices with such spectra are simultaneously
    diagonalizable iff each has finite order, and finite order on H^{1,1}
    is finite order on T^k, so the family is semisimple iff every generator
    has finite order on cohomology.
    """
    witness = check_commuting(spec)
    if witness is not None:
        raise ValueError(f"generators {witness} do not commute")
    gens = spec.generators
    if all(has_zero_entropy(g) for g in gens):
        return CharacterTable([], [], [], all(
            classify(g) == FINITE_ORDER for g in gens))
    from .characters import factor_field_table
    return factor_field_table(spec)


# ---------------------------------------------------------------------------
# words and the kernel of pi


def word_automorphism(spec: GroupSpec, e) -> TorusAutomorphism:
    """The group element with exponent vector e over the generators,
    composed from its first nonzero factor on."""
    factors = [g.power(int(ej)) for g, ej in zip(spec.generators, e) if ej]
    return (reduce(TorusAutomorphism.compose, factors) if factors
            else _identity(spec.k, "word"))


def verify_zero_entropy_word(spec: GroupSpec, e) -> bool:
    """Exact zero-entropy certificate for the word with exponents e:
    the (1,1) action of the word has a cyclotomic-product charpoly."""
    return has_zero_entropy(word_automorphism(spec, e))


@dataclass
class PiRankResult:
    rank: int
    kernel: IntegerLattice
    table: CharacterTable      # the characters (pi coordinates) it was built from
    u_words: list              # basis of the saturated kernel (_kernel_split)
    free_words: list           # words completing it to a basis of Z^n


def verified_kernel(spec: GroupSpec, log_vectors) -> list:
    """The kernel words of pi over the generators of ``spec`` that are
    certified: the candidates of ``integer_relations`` for the log vectors
    (one per generator) whose word has exactly zero entropy."""
    return [e for e in integer_relations(log_vectors)
            if verify_zero_entropy_word(spec, e)]


def _log_value(m):
    """log |mu|^2 as a Fraction by ``log_abs`` over ``interval``; exactly 0
    when |mu|^2 is the rational 1, whose enclosure is (1, 1)."""
    from .exact_algebra import interval, log_abs
    return log_abs(partial(interval, m))


def pi_rank(spec: GroupSpec, table: CharacterTable) -> PiRankResult:
    """Rank of the log-character homomorphism pi and its certified kernel.

    LLL proposes kernel vectors from logs (``_log_value``) that decide
    nothing; each is promoted only by the exact zero-entropy certificate,
    so the reported kernel is sound.
    """
    n = spec.n
    verified = verified_kernel(spec, [
        [_log_value(c.multipliers[j]) for c in table.characters]
        for j in range(n)])
    # the verified words are rows of an LLL basis, so independent: their
    # Hermite form has no zero row
    basis = [tuple(row) for row in hermite_normal_form_rows(verified)[0]]
    kernel = IntegerLattice(n, tuple(basis))
    return PiRankResult(n - len(basis), kernel, table,
                        *_kernel_split(n, kernel.basis))


# ---------------------------------------------------------------------------
# structure theorems


def _nonzero_wedge_chain(table: CharacterTable, count: int) -> bool:
    """Whether count eigenclasses w w^H have a nonzero wedge, i.e. count
    of the w are linearly independent.  Eigenvectors with pairwise distinct
    multiplier tuples (|mu_j|^2)_j are, so those tuples are the certificate.
    Over an eigenbasis sum_w log|mu_j|^2 = log|det g_j|^2 = 0: the rank of
    pi is below the number of distinct tuples, so r+1 of them exist.  A
    chain of length 1 is one eigenclass: every commuting family has a
    common eigenvector, so it needs no computed eigenvector (a zero-entropy
    family has none)."""
    return count <= 1 or len(table.distinct_multipliers) >= count


def assert_structure_theorems(spec: GroupSpec,
                              analysis: PiRankResult) -> list:
    """Check the structural bounds for the computed rank r and return the
    binomial rows (n, binom(r, n), h_n, bound) for 1 <= n <= r.

    Every complement word has positive entropy; r <= k-1; and r+1 invariant
    nef classes with nonzero wedge exist.  Violations raise
    (build-breaking).  The binomial bound binom(r,n) <= h_n = binom(k,n)^2,
    strictly below h_n when n divides r, needs no check once r <= k-1
    holds: for 1 <= n <= r <= k-1,

        binom(r,n) <= binom(k-1,n) = binom(k,n) - binom(k-1,n-1)
                   <= binom(k,n) - 1 <= h_n - 1,

    so every returned row holds."""
    k = spec.k
    r = analysis.rank
    # positive entropy of the free part, certified on basis words + sums
    comp = analysis.free_words
    cert_words = list(comp) + [
        [a + b for a, b in zip(u, v)]
        for u, v in itertools.combinations(comp, 2)]
    positive = all(not verify_zero_entropy_word(spec, e)
                   for e in cert_words if any(e))
    if not positive:
        raise AssertionError(
            "THEOREM VIOLATION: complement word with zero entropy")
    if r > k - 1:
        raise AssertionError(
            f"THEOREM VIOLATION: rank {r} exceeds k-1 = {k - 1}")
    bounds = []
    for nn in range(1, r + 1):
        hn = math.comb(k, nn) ** 2
        bounds.append((nn, math.comb(r, nn), hn,
                       hn - 1 if r % nn == 0 else hn))
    if not _nonzero_wedge_chain(analysis.table, r + 1):
        raise AssertionError(
            "THEOREM VIOLATION: no nonzero wedge chain of length r+1")
    return bounds


# ---------------------------------------------------------------------------
# U x G decomposition


@dataclass
class DecompositionResult:
    u_order: int | None        # None when U is infinite
    relation_lattice: IntegerLattice


def _left_kernel(rows) -> list:
    """A basis of the saturated lattice {c : sum c_i rows[i] = 0}: the rows
    of the Hermite transform T whose row of H = T rows is zero (Cohen,
    GTM 138, section 2.4)."""
    H, T = hermite_normal_form_rows(rows)
    return [t for h, t in zip(H, T) if not any(h)]


def _columns(rows, n: int) -> list:
    return [[row[j] for row in rows] for j in range(n)]


def _kernel_split(n: int, kernel_basis):
    """Split Z^n along the kernel of pi with two Hermite forms.

    Returns (kernel_words, complement_words): a basis of the saturated
    kernel and words completing it to a basis of Z^n.  The p independent
    vectors orthogonal to the kernel are the left kernel of its columns.
    The Hermite form H = T P of their columns P has p nonzero rows on top,
    so the rows of the unimodular T below them span the saturated kernel
    and the rows above complete them."""
    perp = _left_kernel(_columns(kernel_basis, n))
    T = hermite_normal_form_rows(_columns(perp, n))[1]
    return T[len(perp):], T[:len(perp)]


def _enumerate_closure(k: int, autos):
    """(order, basis of the relations) of the finite group generated by
    commuting automorphisms, built one generator at a time: ``label`` maps
    each element of H = <g_1, ..., g_(i-1)> to its exponent vector, the
    first power g_i^n in H, with label e, gives the relation n e_i - e, and
    H grows to H <g_i> by the products h g_i^j, j < n, each composed once.
    The relations are triangular with diagonal n_i, so they are a basis."""
    label = {_identity(k): (0,) * len(autos)}
    relations = []
    for i, g in enumerate(autos):
        power, n = g, 1
        while power not in label:
            if len(label) * (n + 1) > ENUMERATION_CAP:
                raise ExactAlgebraError(
                    "the zero-entropy part U exceeds the enumeration budget "
                    f"of {ENUMERATION_CAP} elements")
            power, n = power.compose(g), n + 1
        relations.append(tuple(n * (j == i) - a
                               for j, a in enumerate(label[power])))
        coset = list(label.items())
        for _ in range(n - 1):
            coset = [(h.compose(g), e[:i] + (e[i] + 1,) + e[i + 1:])
                     for h, e in coset]
            label.update(coset)
    return len(label), relations


def _combine(rows, words, n: int) -> list:
    """Each row of coefficients over ``words`` as an exponent vector over the
    n input generators."""
    return [[sum(c * w[j] for c, w in zip(row, words)) for j in range(n)]
            for row in rows]


def _u_structure(spec: GroupSpec, u_words):
    """(order of U or None when U is infinite, relation lattice of U) for
    the group U generated by the commuting zero-entropy words ``u_words``.

    Every eigenvalue of a zero-entropy u is a root of unity of degree at
    most 2k over Q, so u^N is unipotent for N = finite_order_bound(2k), and
    the logarithms L_i = log(u_i^N) = sum_{m<k} (-1)^(m+1) (u_i^N - 1)^m / m
    of commuting unipotents add.  So every relation lies in the integer
    kernel K = {c : sum c_i L_i = 0} (zero rows of a Hermite form), and
    every word of K has order dividing N.  ``_enumerate_closure`` gives a
    basis of the relations among the words of the Hermite basis of K, which
    is lifted back.  U is finite iff K = Z^s, and then that basis is the U
    words."""
    k, n = spec.k, spec.n
    N, D = finite_order_bound(2 * k), math.lcm(*range(1, k))
    logs = []
    for w in u_words:
        P = word_automorphism(spec, w).power(N).pairs
        X = [[(re - (i == j), im) for j, (re, im) in enumerate(row)]
             for i, row in enumerate(P)]
        log, Xm = [0] * (2 * k * k), X
        for m in range(1, k):
            flat = [v[part] for part in (0, 1) for row in Xm for v in row]
            log = [a + (-1) ** (m + 1) * D // m * b for a, b in zip(log, flat)]
            Xm = _pair_product(Xm, X)
        logs.append(log)
    kernel = _left_kernel(logs)
    words = _combine(hermite_normal_form_rows(kernel)[0], u_words, n)
    order, relations = _enumerate_closure(
        k, [word_automorphism(spec, w) for w in words])
    basis = hermite_normal_form_rows(_combine(relations, words, n))[0]
    return (order if len(words) == len(u_words) else None,
            IntegerLattice(n, tuple(map(tuple, basis))))


def decompose(spec: GroupSpec, analysis: PiRankResult) -> DecompositionResult:
    """Split the group as (zero-entropy part U) x (free positive-entropy
    part), along the words of ``analysis``.  U's order, its finiteness and
    its relation lattice over the input generators are exact for finite and
    infinite U alike (``_u_structure``); an infinite U at maximal rank
    r = k-1 raises."""
    u_words = analysis.u_words
    for w in u_words:
        if not verify_zero_entropy_word(spec, w):
            raise ExactAlgebraError("kernel saturation produced a word "
                                    "with positive entropy")
    u_order, lattice = _u_structure(spec, u_words)
    if analysis.rank == spec.k - 1 and u_order is None:
        raise AssertionError(
            "THEOREM VIOLATION: infinite zero-entropy part at maximal rank")
    return DecompositionResult(u_order, lattice)


# ---------------------------------------------------------------------------
# one-stop analysis


@dataclass
class GroupAnalysis:
    spec: GroupSpec
    witness: tuple | None              # a non-commuting pair, or None
    rank: PiRankResult | None = None   # with the character table
    binomial_bounds: list | None = None
    decomposition: DecompositionResult | None = None


def analyze_group(spec: GroupSpec) -> GroupAnalysis:
    """Full pipeline: commutativity, characters, rank, structural
    assertions, and the U x free split."""
    out = GroupAnalysis(spec, check_commuting(spec))
    if out.witness is not None:
        return out
    out.rank = pi_rank(spec, find_characters(spec))
    out.binomial_bounds = assert_structure_theorems(spec, out.rank)
    out.decomposition = decompose(spec, out.rank)
    return out
