"""Cohomology of T^k = (C/Z[i])^k: class algebra, induced actions, degrees, entropy.

Classes of bidegree (p,p) are stored exactly over the monomial basis
dz_S ^ dzbar_T (S, T ascending p-subsets of {0..k-1}).  Sign convention,
used everywhere: a basis monomial is dz_{s1}..dz_{sp} dzbar_{t1}..dzbar_{tp}
with both blocks ascending and the dz block first; products are reordered
to this shape by counting transpositions.  Nef and Kahler are decided for
classes with Gaussian-rational entries, on integers; any other class is
refused.  The integer model of an automorphism (its pairs, compounds,
``H^{1,1}`` action and the decisions on them) lives in ``integer_model``;
the names this module uses or that are timed as its layer are imported
here.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache, reduce

import sympy as sp
from sympy import I, Matrix, Poly

from .exact_algebra import (
    CertifiedReal,
    X,
    exact_equal,
    exact_is_zero,
    real_root,
    root_moduli,
)
from . import ExactAlgebraError
# the integer model of an automorphism; these are used here or wrapped as
# this module's layer by the benchmark tracer
from .integer_model import (TorusAutomorphism, _subsets, classify, compound,
                            degree_profile, gaussian_det, h11_matrix,
                            hermitian_real_form, integer_charpoly,
                            is_cyclotomic_product, symmetric_definiteness,
                            times_conjugate)


def _gaussian(z):
    """The sympy number ``re + im*I`` of an integer pair."""
    return sp.Integer(z[0]) + sp.Integer(z[1]) * I


def _pair_matrix(rows) -> sp.ImmutableMatrix:
    """A matrix of integer pairs as a sympy matrix of ``re + im*I``."""
    return sp.ImmutableMatrix([[_gaussian(z) for z in row] for row in rows])


# ---------------------------------------------------------------------------
# dynamical degrees and entropy


def eigenvalue_moduli(f: TorusAutomorphism):
    """Certified moduli (with multiplicity) of the eigenvalues of the linear
    part A, read from the integer polynomial p * conj(p) for p the charpoly
    of A over Z[i] (the charpoly of the real form [[Re A, -Im A], [Im A,
    Re A]]), in which every modulus appears twice."""
    p = times_conjugate(f.charpoly)
    return [(m, mult // 2) for m, mult in root_moduli(Poly(p, X))]


@lru_cache(maxsize=None)
def _moduli_squared_desc(f: TorusAutomorphism) -> tuple:
    """Eigenvalue moduli squared as exact sympy exprs, repeated by multiplicity,
    descending.

    Memoised per automorphism so that one ``eigenvalue_moduli`` pass serves
    every degree, the entropy and the characters.  Only sympy expressions
    are cached: a shared ``CertifiedReal`` would narrow its interval in
    place and change what later callers print."""
    out = []
    for m, mult in eigenvalue_moduli(f):
        y = sp.expand(m.expr ** 2)
        out.extend([y] * mult)
    return tuple(out)


def dynamical_degree(f: TorusAutomorphism, p: int) -> CertifiedReal:
    """Certified p-th dynamical degree: (product of the p largest eigenvalue
    moduli of the linear part)^2, the spectral radius of f* on H^{p,p}
    (C (x) conj(C) for C = ``compound(f, p)``)."""
    k = f.k
    if not 0 <= p <= k:
        raise ValueError(f"p must lie in [0, {k}]")
    ys = _moduli_squared_desc(f)
    d_expr = sp.expand(sp.Mul(*ys[:p])) if p else sp.Integer(1)
    return CertifiedReal(d_expr)


def entropy(f: TorusAutomorphism) -> CertifiedReal:
    """Topological entropy, computed cohomologically: max_p log d_p
    = 2 * sum of log|lambda| over eigenvalues with |lambda| > 1 (exact)."""
    ys = [y for y in _moduli_squared_desc(f) if real_root(y).compare(1) > 0]
    if not ys:
        return CertifiedReal(sp.Integer(0))
    return CertifiedReal(sp.log(sp.expand(sp.Mul(*ys))))


# ---------------------------------------------------------------------------
# the class algebra


def _merge_sign(a: tuple, b: tuple):
    """Sign of sorting the concatenation of two ascending index tuples.

    Returns (0, None) on overlap, else ((-1)^inversions, merged_tuple)."""
    if set(a) & set(b):
        return 0, None
    inv = 0
    for x in b:
        inv += sum(1 for y in a if y > x)
    merged = tuple(sorted(a + b))
    return (-1) ** inv, merged


class CohomClass:
    """An element of H^{p,p}(T^k) as exact coefficients over dz_S ^ dzbar_T."""

    def __init__(self, k: int, p: int, coeffs: dict):
        self.k = k
        self.p = p
        self.coeffs = {}
        for (S, T), v in coeffs.items():
            v = sp.sympify(v)
            if v != 0:
                self.coeffs[(tuple(S), tuple(T))] = v

    @classmethod
    def zero(cls, k: int, p: int) -> "CohomClass":
        return cls(k, p, {})

    @classmethod
    def from_hermitian(cls, H) -> "CohomClass":
        H = Matrix(H)
        k = H.rows
        coeffs = {((i,), (j,)): H[i, j] for i in range(k) for j in range(k)}
        return cls(k, 1, coeffs)

    @classmethod
    def identity_class(cls, k: int) -> "CohomClass":
        return cls.from_hermitian(sp.eye(k))

    def to_hermitian(self) -> Matrix:
        if self.p != 1:
            raise ValueError("only (1,1)-classes have a Hermitian model")
        H = sp.zeros(self.k, self.k)
        for (S, T), v in self.coeffs.items():
            H[S[0], T[0]] = v
        return H

    def is_real(self) -> bool:
        """Reality constraint c_{T,S} = conj(c_{S,T}), checked exactly."""
        for (S, T), v in self.coeffs.items():
            w = self.coeffs.get((T, S), sp.Integer(0))
            if not exact_is_zero(sp.expand(w - sp.conjugate(v))):
                return False
        return True

    def is_zero(self) -> bool:
        return all(exact_is_zero(v) for v in self.coeffs.values())

    def __add__(self, other: "CohomClass") -> "CohomClass":
        if (self.k, self.p) != (other.k, other.p):
            raise ValueError("degree mismatch")
        coeffs = dict(self.coeffs)
        for key, v in other.coeffs.items():
            coeffs[key] = sp.expand(coeffs.get(key, sp.Integer(0)) + v)
        return CohomClass(self.k, self.p, coeffs)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "CohomClass":
        c = sp.sympify(c)
        return CohomClass(self.k, self.p,
                          {key: sp.expand(c * v) for key, v in self.coeffs.items()})

    def __eq__(self, other):
        return (isinstance(other, CohomClass)
                and (self.k, self.p) == (other.k, other.p)
                and (self - other).is_zero())

    # equality is exact, so no hash of the coefficient trees agrees with it
    __hash__ = None

    def __repr__(self):
        return f"CohomClass(k={self.k}, p={self.p}, {len(self.coeffs)} terms)"


def wedge(c1: CohomClass, c2: CohomClass) -> CohomClass:
    """Exterior product; degree overflow raises."""
    if c1.k != c2.k:
        raise ValueError("ambient dimension mismatch")
    k = c1.k
    if c1.p + c2.p > k:
        raise ValueError("degree overflow in wedge")
    coeffs: dict = {}
    for (S, T), v in c1.coeffs.items():
        for (Sp, Tp), w in c2.coeffs.items():
            sgn_s, S2 = _merge_sign(S, Sp)
            if sgn_s == 0:
                continue
            sgn_t, T2 = _merge_sign(T, Tp)
            if sgn_t == 0:
                continue
            # move the p2 dz' factors across the p1 dzbar factors
            sgn = sgn_s * sgn_t * (-1) ** (c1.p * c2.p)
            key = (S2, T2)
            coeffs[key] = sp.expand(coeffs.get(key, sp.Integer(0)) + sgn * v * w)
    return CohomClass(k, c1.p + c2.p, coeffs)


def wedge_all(classes) -> CohomClass:
    return reduce(wedge, classes)


@lru_cache(maxsize=None)
def _volume_normalization(k: int):
    """kappa_k / k!, where kappa_k is the top coefficient of (identity class)^k."""
    idc = CohomClass.identity_class(k)
    top = wedge_all([idc] * k)
    full = tuple(range(k))
    kappa = top.coeffs.get((full, full), sp.Integer(0))
    if kappa == 0:
        raise ExactAlgebraError("volume normalization degenerated")
    return kappa / sp.factorial(k)


def intersection_number(classes):
    """Intersection of classes with degrees summing to k.

    Normalized so that k (1,1)-classes give the polarized determinant:
    intersection(omega_H, ..., omega_H) = k! det(H)."""
    classes = list(classes)
    k = classes[0].k
    if sum(c.p for c in classes) != k:
        raise ValueError("degrees must sum to the dimension")
    top = wedge_all(classes)
    full = tuple(range(k))
    coeff = top.coeffs.get((full, full), sp.Integer(0))
    return sp.expand(coeff / _volume_normalization(k))


def pullback(f: TorusAutomorphism, c: CohomClass) -> CohomClass:
    """f* on H^{p,p}: the coefficient of dz_S ^ dzbar_T moves by column S
    of C = compound(f, p) and column T of conj(C)."""
    if f.k != c.k:
        raise ValueError("dimension mismatch")
    subs = _subsets(f.k, c.p)
    index = {S: i for i, S in enumerate(subs)}
    C = _pair_matrix(compound(f, c.p))
    Cbar = C.conjugate()
    coeffs: dict = {}
    for (S, T), v in c.coeffs.items():
        for Sp, dS in zip(subs, C.col(index[S])):
            if dS == 0:
                continue
            for Tp, dT in zip(subs, Cbar.col(index[T])):
                if dT == 0:
                    continue
                key = (Sp, Tp)
                coeffs[key] = sp.expand(coeffs.get(key, sp.Integer(0)) + v * dS * dT)
    return CohomClass(f.k, c.p, coeffs)


# ---------------------------------------------------------------------------
# positivity of (1,1)-classes


def _gaussian_rational(v):
    """``(re, im)`` of ``v`` when its expanded form is ``re + im*I`` with
    rational parts, read off the expression with no evaluation; else None."""
    re, rest = sp.expand(v).as_coeff_Add()
    im, unit = rest.as_coeff_Mul()
    rational = re.is_Rational and im.is_Rational and unit in (1, I)
    return (re, im) if rational else None


def _definiteness(c: CohomClass, test: str):
    """Exact (psd, pd) of the Hermitian form of a (1,1)-class, decided on the
    integer ``hermitian_real_form`` of its Gaussian-rational entries; a class
    that is not real is neither.  Any other entry raises
    ``ExactAlgebraError``."""
    if c.p != 1:
        raise ValueError(f"{test} test implemented for (1,1)-classes")
    pairs = [[_gaussian_rational(v) for v in row]
             for row in c.to_hermitian().tolist()]
    if not all(z for row in pairs for z in row):
        raise ExactAlgebraError(f"the {test} test decides classes with "
                                "Gaussian-rational entries only")
    if not c.is_real():
        return False, False
    return symmetric_definiteness(hermitian_real_form(pairs))[:2]


def is_nef(c: CohomClass) -> bool:
    """nef = closure of the Kahler cone = PSD Hermitian form, decided exactly."""
    return _definiteness(c, "nef")[0]


def is_kahler(c: CohomClass) -> bool:
    return _definiteness(c, "Kahler")[1]


# ---------------------------------------------------------------------------
# discreteness of d_1 at desk scale


def enumerate_degree_values(k: int, entry_bound: int):
    """Distinct exact d_1 values over all A in SL(k,Z) with |entries| <= bound.

    Exhibits the discreteness of the first dynamical degree (desk scale).
    The caller bounds the box: ``k >= 1``, ``entry_bound >= 0`` and the
    (2B+1)^(k^2) matrices within the CLI's search budget.
    """
    charpolys = set()
    for entries in itertools.product(range(-entry_bound, entry_bound + 1),
                                     repeat=k * k):
        rows = [[(v, 0) for v in entries[i * k:(i + 1) * k]]
                for i in range(k)]
        if gaussian_det(rows) == (1, 0):
            charpolys.add(integer_charpoly(rows))
    # the identity automorphism exists at every bound, and (Kronecker) d1 = 1
    # exactly for a cyclotomic product
    values = [Fraction(1)]
    for p in sorted(charpolys):
        if is_cyclotomic_product(p):
            continue
        mods = root_moduli(Poly(p, X))
        d1 = CertifiedReal(sp.expand(mods[0][0].expr ** 2))
        if not any(exact_equal(d1, v) for v in values):
            values.append(d1)
    values.sort(key=float)
    return values
