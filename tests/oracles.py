"""Independent oracles shared by the tests.

The library does not run these: each recomputes a value that the library
certifies by another path, so the tests can compare the two."""

import functools
import math
from fractions import Fraction

import mpmath
import sympy as sp
from sympy import ZZ, Matrix
from sympy.polys.densearith import dup_mul, dup_rem
from sympy.polys.matrices import DomainMatrix

from toraldyn import ExactAlgebraError
from toraldyn.exact_algebra import (X, CertifiedReal, RealRoot,
                                    _at_rising_precision,
                                    _irreducible_factors, _may_vanish, _meets,
                                    _rectangle, _root_disks, gaussian_coeffs,
                                    root_moduli)
from toraldyn.cohomology import _pair_matrix
from toraldyn.integer_model import (GroupSpec, TorusAutomorphism,
                                    _hermitian_cells, _square_and_multiply,
                                    compound, hermitian_basis_sparse)


# ---------------------------------------------------------------------------
# sympy matrices at the tests' boundary: the library reads int and pair rows


def _pair(v) -> tuple:
    """A Gaussian integer given as an int, a pair or a sympy number, as its
    ``(re, im)`` pair of ints; any other value raises ``ValueError``."""
    if isinstance(v, tuple):
        return v
    re, im = sp.expand(v).as_real_imag()
    if not (re.is_Integer and im.is_Integer):
        raise ValueError("entries must be Gaussian integers")
    return int(re), int(im)


def pair_rows(M) -> list:
    """A sympy matrix, or rows of ints, pairs and sympy numbers, as rows of
    Gaussian-integer pairs."""
    rows = M.tolist() if hasattr(M, "tolist") else M
    return [[_pair(v) for v in row] for row in rows]


def automorphism(M, name: str = "") -> TorusAutomorphism:
    """The ``TorusAutomorphism`` of a sympy matrix or of rows with sympy
    entries."""
    return TorusAutomorphism(pair_rows(M), name=name)


def spec_of(mats) -> GroupSpec:
    """The group generated by sympy matrices or rows with sympy entries."""
    return GroupSpec(tuple(automorphism(M) for M in mats))


def sympy_matrix(f) -> sp.ImmutableMatrix:
    """The matrix of an automorphism with sympy entries ``re + im*I``."""
    return _pair_matrix(f.pairs)


def modulus_squared(ch) -> tuple:
    """A character's exact |mu_j|^2 per generator as sympy values."""
    return tuple(m.expr if isinstance(m, RealRoot) else m
                 for m in ch.multipliers)


@functools.lru_cache(maxsize=None)
def hermitian_basis(k: int):
    """``hermitian_basis_sparse(k)`` as sympy matrices: E_jj; E_jl + E_lj;
    i(E_jl - E_lj) for j < l."""
    basis = []
    for entries in hermitian_basis_sparse(k):
        E = sp.zeros(k, k)
        for i, j, (re, im) in entries:
            E[i, j] = re + im * sp.I
        basis.append(sp.ImmutableMatrix(E))
    return tuple(basis)


def is_nef_by_sympy(cls) -> bool:
    """Whether a (1,1)-class is nef, decided by sympy on its Hermitian
    matrix: the reference for classes with real algebraic entries, which
    the library's ``is_nef`` refuses.  Raises when sympy cannot decide."""
    psd = cls.to_hermitian().is_positive_semidefinite
    if psd is None:
        raise ExactAlgebraError("sympy leaves the nefness of the class "
                                "undecided")
    return psd


def hpp_matrix(f, p: int) -> Matrix:
    """The matrix of f* on H^{p,p}(T^k, C) in the dz_S ^ dzbar_T basis, the
    pair (S, T) at index (index of S) * C(k, p) + (index of T): the
    Kronecker product C (x) conj(C) for C = compound(f, p), over sympy."""
    C = _pair_matrix(compound(f, p))
    return Matrix(sp.kronecker_product(C, C.conjugate())).applyfunc(sp.expand)


def hermitian_coords(H: Matrix) -> list:
    """Coordinates of a Hermitian matrix in ``hermitian_basis(k)``."""
    coords = []
    for j, l in _hermitian_cells(H.rows):
        coords += [H[j, j]] if j == l else [sp.re(H[j, l]), sp.im(H[j, l])]
    return coords


def domain_matrix_charpoly(M) -> sp.Poly:
    """The characteristic polynomial of a matrix over ZZ, QQ, ZZ[i] or
    QQ(i) from sympy's fraction-free ``DomainMatrix`` charpoly: the reference
    for the library's Samuelson-Berkowitz recurrence."""
    dm = DomainMatrix.from_Matrix(Matrix(M))
    return sp.Poly([dm.domain.to_sympy(c) for c in dm.charpoly()], X)


def charpoly_times_conjugate(M: Matrix):
    """``(p, False)`` for a real matrix with characteristic polynomial p,
    else ``(p * conj(p), True)``: an integer polynomial whose root moduli are
    those of p with doubled multiplicity."""
    p = domain_matrix_charpoly(M)
    coeffs = p.all_coeffs()
    if all(sp.im(c) == 0 for c in coeffs):
        return p, False
    conj = sp.Poly([sp.conjugate(c) for c in coeffs], X)
    return sp.Poly(sp.expand((p * conj).as_expr()), X), True


def spectral_radius(M: Matrix) -> CertifiedReal:
    """Certified spectral radius of an exact (Gaussian-)integer matrix,
    read from the moduli of its real characteristic polynomial."""
    p, _ = charpoly_times_conjugate(M)
    return root_moduli(p)[0][0]


def field_element(u) -> sp.Poly:
    """Ascending power-basis coefficients -> polynomial in x."""
    return sp.Poly(list(reversed([int(c) for c in u])), X)


def embedding_entropy(field, u, dps: int = 50):
    """Entropy of the regular representation of the unit ``u`` predicted by
    the real embeddings: 2 * sum of log|sigma(u)| over the embeddings with
    |sigma(u)| > 1, as an mpmath value at ``dps`` digits.  The embeddings
    are the roots of the minimal polynomial from ``mpmath.polyroots``."""
    with mpmath.workdps(dps + 20):
        roots = mpmath.polyroots(list(field.coeffs), maxsteps=200,
                                 extraprec=4 * dps)
        values = [abs(mpmath.polyval(list(reversed(u)), mpmath.re(r)))
                  for r in roots]
        total = 2 * sum(mpmath.log(v) for v in values if v > 1)
    with mpmath.workdps(dps):
        return +total


@functools.lru_cache(maxsize=None)
def _totient(m: int) -> int:
    return sum(math.gcd(j, m) == 1 for j in range(1, m + 1))


def _cyclotomic_index(g):
    """m with g == Phi_m, or None, for an irreducible integer polynomial g:
    the least m with phi(m) = deg g and x^m == 1 modulo g, as such an m is
    a multiple of the order of g's roots.  phi(m) >= sqrt(m/2) bounds m by
    2 deg^2, and phi(m) is even for m > 2."""
    e = len(g) - 1
    if g[0] != 1 or e < 1 or (e > 1 and e % 2):
        return None

    def mulmod(a, b):
        return dup_rem(dup_mul(a, b, ZZ), g, ZZ)

    return next((m for m in range(1, 2 * e * e + 7) if _totient(m) == e
                 and _square_and_multiply(mulmod, [1, 0], [1], m) == [1]),
                None)


def cyclotomic_indices_by_factoring(p):
    """The distinct indices m, ascending, of the factors Phi_m of a monic
    integer polynomial, or None when a factor is not cyclotomic: sympy's
    factorization over Z and an index per irreducible factor.  The
    reference for the division-based ``integer_model._cyclotomic_indices``."""
    indices = [_cyclotomic_index(f)
               for f in _irreducible_factors([int(c) for c in p])]
    return None if None in indices else tuple(sorted(indices))


def _gaussian_factor(r):
    """The factor over Q(i) of ``r.poly`` that vanishes at the CRootOf r:
    the one that may vanish on the certified inclusion disk of
    ``exact_algebra._root_disks`` that meets r's isolating region.  The
    precision rises, and a local copy of the region is refined, until both
    choices are unique; r is never evaluated numerically."""
    x = r.poly.gen
    factors = [q for q, _ in
               sp.factor_list(r.poly.as_expr(), gaussian=True)[1]]
    if len(factors) == 1:
        return factors[0]
    pairs = [gaussian_coeffs(q.subs(x, X)) for q in factors]
    poly = [(Fraction(int(c)), Fraction(0)) for c in r.poly.all_coeffs()]
    region = [r._get_interval()]

    def attempt(prec):
        disks = _root_disks(poly, prec)
        if disks is None:
            return None
        hits = [D for D in disks if _meets(D, _rectangle(region[0]))]
        if len(hits) != 1:
            region[0] = region[0].refine()
            return None
        vanish = [q for q, c in zip(factors, pairs)
                  if _may_vanish(c, hits[0], prec + 8)]
        return vanish[0] if len(vanish) == 1 else None

    return _at_rising_precision(attempt, "the Gaussian factor of a root")


def reduces_to_zero(cls) -> bool:
    """Whether every coefficient of a class is proved zero by reduction: each
    CRootOf atom becomes a symbol taken modulo the factor over Q(i) of its
    polynomial that vanishes at it (``_gaussian_factor``), and a zero
    remainder is the proof.  The reference for class identities on
    eigenclasses: the library's ``exact_is_zero`` decides a zero by the
    minimal polynomial of a real value and refuses one in non-real atoms,
    while this reduction also ties a root of a Gaussian factor to its
    conjugate."""
    atoms = set().union(*(v.atoms(sp.CRootOf) for v in cls.coeffs.values()))
    if not atoms:
        return cls.is_zero()
    subs, moduli = {}, []
    for n, r in enumerate(sorted(atoms, key=sp.default_sort_key)):
        t = sp.Dummy(f"t{n}")
        subs[r] = t
        moduli.append(_gaussian_factor(r).subs(r.poly.gen, t))
    return all(
        sp.reduced(sp.expand(v.xreplace(subs)), moduli, *subs.values())[1]
        == 0 for v in cls.coeffs.values())
