"""Exact integer / Gaussian-integer linear algebra and certified algebraic reals.

Everything in this module is exact: matrices carry arbitrary-precision
(Gaussian) integers, polynomials have integer coefficients, and real
algebraic numbers are represented by an exact sympy expression together
with certified rational enclosures that can be refined on demand.  Signs,
equalities and root-modulus matches are decided by the real-algebraic
kernel (``RealRoot``): an irreducible integer polynomial and a rational
isolating interval, refined with integer arithmetic only; its ``poly`` is
the minimal polynomial of the number (``real_root(v).poly``).  No decision
anywhere in this module is made from bare floats.  The decisions on integers
alone (cyclotomic products, matrix orders, lattice reductions) live in the
sympy-free ``integer_model``; the few that this module uses or that are
timed as its layer are imported here.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import mpmath
import sympy as sp
from sympy import I, ZZ, Poly, Rational
from sympy.polys.factortools import dup_factor_list

from . import ExactAlgebraError
# the integer decisions live in the sympy-free integer model; these are
# used here or wrapped as this module's layer by the benchmark tracer
from .integer_model import (_cabs2, _cadd, _cdiv, _cmul, _conjugate_products,
                            _cpoly_mul, _csub, _divide_monic, _from_power_sums,
                            _gaussian_integer, _normalized, _power_sums,
                            gaussian_charpoly, integer_relations,
                            is_cyclotomic_product, matrix_order)

X = sp.Symbol("x")


# ---------------------------------------------------------------------------
# scalar helpers


def exact_is_zero(expr) -> bool:
    """Decide ``expr == 0`` exactly for algebraic sympy expressions.

    After the expanded expression is checked for a rational, a nonzero
    value is refuted numerically at 30 to 240 digits; what is left is
    decided by the integer kernel (``_kernel_root``): zero iff the minimal
    polynomial is x.  A value in non-real ``CRootOf`` atoms, whose numeric
    evaluation near zero takes minutes, and a zero outside the kernel's
    grammar, such as one in ``I``, raise ``ExactAlgebraError``.  The
    numeric rung refines sympy's cached isolating intervals of the
    ``CRootOf`` atoms, from which the reports print their intervals, so it
    is part of the output."""
    expr = sp.expand(expr)
    if expr.is_Rational:
        return expr == 0
    if not all(r.is_real for r in expr.atoms(sp.CRootOf)):
        raise ExactAlgebraError("a value in non-real roots is outside the "
                                "integer kernel")
    prec = 30
    while prec <= 240:
        v = sp.N(expr, prec)
        try:
            if abs(complex(v)) > 10.0 ** (-prec + 10):
                return False
        except (TypeError, ValueError):
            break
        prec *= 2
    # no str() of the expression, which would refine sympy's cached root
    # intervals
    root = _kernel_root(expr)
    if root is None:
        raise ExactAlgebraError("no minimal polynomial outside the integer "
                                "kernel's grammar")
    return root.poly == (1, 0)


def exact_equal(a, b) -> bool:
    """Exact equality of two real algebraic values, decided by the integer
    kernel (``real_root``); outside its grammar it raises
    ``ExactAlgebraError``."""
    return real_root(a) == real_root(b)


def exact_sign(expr) -> int:
    """Sign of an exact real algebraic expression, decided by the integer
    kernel; a value outside its grammar, such as ``re()`` of a non-real
    ``CRootOf``, raises ``ExactAlgebraError``."""
    expr = sp.sympify(expr)
    if expr.is_Rational:
        return (expr.p > 0) - (expr.p < 0)
    root = _kernel_root(expr)
    if root is None:
        # no str(expr): printing a sum of CRootOfs refines sympy's cache
        raise ExactAlgebraError("no sign outside the integer kernel's "
                                "grammar")
    return root.compare(0)


def _enclosure_of_expr(expr, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Certified rational enclosure of width < 2*eps around an exact expr."""
    expr = sp.sympify(expr)
    if expr.is_Rational:
        q = Fraction(expr.p, expr.q)
        return (q, q)
    if isinstance(expr, sp.polys.rootoftools.ComplexRootOf) and expr.is_real:
        dx = Rational(eps.numerator, eps.denominator) / 2
        c = expr.eval_rational(dx=dx)
        q = Fraction(c.p, c.q)
        e = Fraction(dx.p, dx.q)
        return (q - e, q + e)
    # generic exact expression: adaptive evalf with a generous guard band
    digits = 20
    while digits <= 20000:
        v = expr.evalf(digits)
        if v.is_comparable:
            q = Fraction(str(v))
            pad = Fraction(10) ** (-(digits - 8)) * max(Fraction(1), abs(q))
            if 2 * pad < eps * 2:
                return (q - pad, q + pad)
        digits *= 2
    raise ExactAlgebraError(f"could not enclose {expr} within {eps}")


# ---------------------------------------------------------------------------
# certified reals


class CertifiedReal:
    """An exact real number (sympy expression) with certified enclosures."""

    def __init__(self, expr):
        self.expr = sp.sympify(expr)
        self._eps = Fraction(1, 2**20)
        self._interval = None

    def enclosure(self, eps=None) -> tuple[Fraction, Fraction]:
        eps = Fraction(eps) if eps is not None else self._eps
        if self._interval is None or self._interval[1] - self._interval[0] > 2 * eps:
            self._interval = _enclosure_of_expr(self.expr, eps)
        return self._interval

    def __float__(self) -> float:
        lo, hi = self.enclosure(Fraction(1, 10**17))
        return float((lo + hi) / 2)

    def __eq__(self, other) -> bool:
        return exact_equal(self, other)

    # equality is exact, so no hash of the expression tree agrees with it
    __hash__ = None

    def __repr__(self):
        return f"{type(self).__name__}({self.expr} ~ {float(self):.12g})"


# ---------------------------------------------------------------------------
# the real-algebraic kernel: integer polynomials and isolating intervals
#
# Integer polynomials are tuples of ints, leading coefficient first.  Real
# roots are isolated by Sturm sequences (Cohen, GTM 138, section 4.1), so
# every sign, comparison and enclosure below is integer arithmetic.


def _sign_at(poly, q: Fraction) -> int:
    """Exact sign of an integer polynomial at a rational point."""
    n, d = q.numerator, q.denominator
    acc, dk = poly[0], 1
    for c in poly[1:]:
        dk *= d
        acc = acc * n + c * dk
    return (acc > 0) - (acc < 0)


def _irreducible_factors(poly) -> list:
    """Distinct irreducible factors of a nonzero integer polynomial."""
    return [_normalized(f) for f, _ in dup_factor_list(list(poly), ZZ)[1]]


def _sturm_sequence(poly) -> list:
    """Sturm sequence of a squarefree integer polynomial; each member is
    scaled by a positive rational to integer coefficients."""
    n = len(poly) - 1
    seq = [tuple(poly), _normalized([c * (n - i) for i, c in
                                      enumerate(poly[:-1])])]
    while len(seq[-1]) > 1:
        a, b = [Fraction(c) for c in seq[-2]], seq[-1]
        while len(a) >= len(b):
            q = a[0] / b[0]
            for i in range(len(b)):
                a[i] -= q * b[i]
            a.pop(0)
        if not any(a):
            break
        rem = _normalized(a)
        # the negated remainder, scaled by a positive factor
        lead = next(c for c in a if c)
        seq.append(tuple(-v for v in rem) if lead > 0 else rem)
    return seq


def _sign_changes(seq, q: Fraction) -> int:
    signs = [s for s in (_sign_at(p, q) for p in seq) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _root_bound(poly) -> Fraction:
    """A rational bound strictly above the modulus of every root."""
    return Fraction(2 + max(abs(c) for c in poly[1:]) // abs(poly[0]))


def _isolate(poly) -> list:
    """Isolating intervals (lo, hi), ascending, of the real roots of an
    irreducible integer polynomial of degree >= 2.  Such a polynomial has
    no rational root, so no bisection point is ever a root."""
    seq = _sturm_sequence(poly)
    b = _root_bound(poly)
    out, stack = [], [(-b, b)]
    while stack:
        lo, hi = stack.pop()
        count = _sign_changes(seq, lo) - _sign_changes(seq, hi)
        if count == 1:
            out.append((lo, hi))
        elif count > 1:
            mid = (lo + hi) / 2
            stack += [(lo, mid), (mid, hi)]
    return sorted(out)


class RealRoot:
    """A real algebraic number decided by integer arithmetic alone: the
    unique root of an irreducible primitive integer polynomial (positive
    leading coefficient) in a rational isolating interval.  ``expr``, when
    given, is the same number as a sympy value, a label for printing only;
    it is never evaluated here.

    Enclosures are nodes of the bisection tree of the isolating interval the
    number was created with, so ``enclosure(eps)`` depends only on the
    number and ``eps``, never on how far earlier calls refined it."""

    def __init__(self, poly, lo: Fraction, hi: Fraction, expr=None):
        self.poly = tuple(poly)
        self.expr = expr
        self._root_interval = (lo, hi)      # the bisection tree's root
        self._lo, self._hi = lo, hi
        if lo != hi:
            self._sign_lo = _sign_at(self.poly, lo)

    @classmethod
    def rational(cls, q) -> "RealRoot":
        q = Fraction(q)
        return cls((q.denominator, -q.numerator), q, q)

    @property
    def is_rational(self) -> bool:
        return self._lo == self._hi

    def _bisect(self):
        mid = (self._lo + self._hi) / 2
        if _sign_at(self.poly, mid) == self._sign_lo:
            self._lo = mid
        else:
            self._hi = mid

    def enclosure(self, eps) -> tuple[Fraction, Fraction]:
        eps = Fraction(eps)
        if self.is_rational:
            return self._lo, self._hi
        lo0, hi0 = self._root_interval
        # the widest node (hi0 - lo0) / 2^n of the tree with width <= 2 eps:
        # 2^n >= c <=> n >= bit_length(c - 1)
        c = math.ceil((hi0 - lo0) / (2 * eps))
        width = (hi0 - lo0) / 2 ** max(c - 1, 0).bit_length()
        while self._hi - self._lo > width:
            self._bisect()
        k = math.floor((self._lo - lo0) / width)
        return lo0 + k * width, lo0 + (k + 1) * width

    def compare(self, other) -> int:
        other = real_root(other)
        if self == other:
            return 0
        # distinct roots: refine until the open intervals separate
        while True:
            if self._hi <= other._lo:
                return -1
            if other._hi <= self._lo:
                return 1
            if self.is_rational or (not other.is_rational and
                                    other._hi - other._lo
                                    > self._hi - self._lo):
                other._bisect()
            else:
                self._bisect()

    def __eq__(self, other) -> bool:
        other = real_root(other)
        if self.poly != other.poly:
            # distinct irreducible primitive polynomials share no root
            return False
        if self.is_rational:
            return True
        # one polynomial, two isolating intervals: the same root iff this
        # root lies in the other interval, whose endpoints are not roots
        while True:
            if self._hi <= other._lo or other._hi <= self._lo:
                return False
            if other._lo <= self._lo and self._hi <= other._hi:
                return True
            self._bisect()


def real_root(v) -> RealRoot:
    """``v`` (a RealRoot, a rational, a real ``CRootOf`` or a real algebraic
    sympy expression of the kernel's grammar, see ``_kernel_root``) in the
    kernel's representation, decided by integer arithmetic alone."""
    if isinstance(v, Fraction):
        return RealRoot.rational(v)
    if isinstance(v, CertifiedReal):
        v = v.expr
    root = _kernel_root(v)
    if root is None:
        raise ExactAlgebraError(f"{v} is outside the real-algebraic kernel")
    return root


def _root_in(factors, sturm, lo: Fraction, hi: Fraction):
    """``(poly, lo', hi')`` of the only root in ``[lo, hi]`` of the distinct
    irreducible ``factors`` (with their Sturm sequences), or None when the
    interval holds none or several.  Endpoints are rational, so they are
    roots of linear factors only."""
    found = []
    for f, seq in zip(factors, sturm):
        if len(f) == 2:
            q = Fraction(-f[1], f[0])
            if lo <= q <= hi:
                found.append((f, q, q))
        else:
            count = _sign_changes(seq, lo) - _sign_changes(seq, hi)
            found += [(f, lo, hi)] * count
    return found[0] if len(found) == 1 else None


# ---------------------------------------------------------------------------
# the integer minimal-polynomial kernel
#
# A real algebraic sympy expression is mapped bottom-up to its RealRoot.  The
# annihilator of a sum or product is the composed sum or product of the
# children's minimal polynomials, built from power sums (Bostan, Flajolet,
# Salvy and Schost, *Fast computation of special resultants*, JSC 2006); the
# node's minimal polynomial is the one irreducible factor with a root in the
# interval image of the children's enclosures.


def _composed(f, g, add: bool) -> tuple:
    """Integer polynomial whose roots are a + b (``add``) or a * b over all
    roots a of f and b of g."""
    n = (len(f) - 1) * (len(g) - 1)
    pf, pg = _power_sums(f, n + 1), _power_sums(g, n + 1)
    if add:
        sums = [sum(math.comb(k, i) * pf[i] * pg[k - i] for i in range(k + 1))
                for k in range(1, n + 1)]
    else:
        sums = [a * b for a, b in zip(pf[1:], pg[1:])]
    return _from_power_sums(sums)


def _pick(annihilator, image, *args) -> RealRoot:
    """A value as a root of its ``annihilator``: the one root of its
    irreducible factors in ``image(prec, *boxes)``, an interval that holds
    the value, computed from enclosures of width 2^-prec of the RealRoots
    ``args``; prec rises until only one root is left in it."""
    factors = _irreducible_factors(annihilator)
    sturm = [_sturm_sequence(f) for f in factors]

    def attempt(prec):
        boxes = [a.enclosure(Fraction(1, 2**prec)) for a in args]
        found = _root_in(factors, sturm, *image(prec, *boxes))
        return found and RealRoot(*found)

    return _at_rising_precision(attempt, "a minimal polynomial")


def _sum_image(_, a, b) -> tuple:
    return a[0] + b[0], a[1] + b[1]


def _product_image(_, a, b) -> tuple:
    products = [x * y for x in a for y in b]
    return min(products), max(products)


def _power_image(k: int, _, box) -> tuple:
    lo, hi = box
    if k % 2 == 0 and lo < 0 < hi:
        return Fraction(0), max(-lo, hi) ** k
    return min(lo**k, hi**k), max(lo**k, hi**k)


def _sqrt_image(prec: int, box) -> tuple:
    return (_sqrt_down(max(box[0], Fraction(0)), prec + 8),
            _sqrt_up(box[1], prec + 8))


def _power(a: RealRoot, k: int) -> RealRoot:
    """a^k for an integer k >= 1: the power sums of the roots of a^k are
    every k-th power sum of the roots of a."""
    if k == 1:
        return a
    sums = _power_sums(a.poly, (len(a.poly) - 1) * k + 1)[k::k]
    return _pick(_from_power_sums(sums), functools.partial(_power_image, k), a)


def _sqrt(a: RealRoot):
    """sqrt(a), a root of a.poly(y^2); None unless a >= 0."""
    sign = a.compare(0)
    if sign <= 0:
        return RealRoot.rational(0) if sign == 0 else None
    stretched = [0] * (2 * len(a.poly) - 1)
    stretched[::2] = a.poly
    return _pick(stretched, _sqrt_image, a)


def interval(v, eps: Fraction) -> tuple[Fraction, Fraction]:
    """Enclosure of a real value of the kernel's grammar (``_kernel_root``)
    from its atoms' enclosures of width <= 2 eps; no minimal polynomial is
    built and no ``CRootOf`` evaluated, so sympy's cache is untouched."""
    if isinstance(v, sp.Basic) and (v.is_Add or v.is_Mul):
        image = _sum_image if v.is_Add else _product_image
        return functools.reduce(functools.partial(image, None),
                                (interval(t, eps) for t in v.args))
    if isinstance(v, sp.Pow) and v.exp.is_Rational and v.exp > 0 \
            and v.exp.q in (1, 2):
        box = interval(v.base, eps)
        if v.exp.q == 2:
            box = _sqrt_image((eps.denominator // eps.numerator).bit_length(),
                              box)
        return _power_image(int(v.exp.p), None, box)
    return real_root(v).enclosure(eps)


def _kernel_root(v):
    """The RealRoot of a real algebraic value, whose ``poly`` is its minimal
    polynomial, or None outside the kernel's grammar: rationals, real
    ``CRootOf`` and ``RealRoot`` atoms, ``+``, ``*``, positive integer powers
    and square roots (and their positive integer powers) of values >= 0.

    A ``CRootOf`` is converted through its integer polynomial and its index
    and is never evaluated, so sympy's cache of root intervals is neither
    read nor written; every enclosure is a ``RealRoot.enclosure``."""
    if isinstance(v, RealRoot):
        return v
    v = sp.sympify(v)
    if v.is_Rational:
        return RealRoot.rational(Fraction(v.p, v.q))
    if isinstance(v, sp.polys.rootoftools.ComplexRootOf):
        # v.poly is irreducible of degree >= 2, and CRootOf numbers its real
        # roots first, ascending
        poly = _normalized(v.poly.all_coeffs())
        real = _isolate(poly)
        return RealRoot(poly, *real[v.index]) if v.index < len(real) else None
    if v.is_Add or v.is_Mul:
        roots = [_kernel_root(t) for t in v.args]
        if any(r is None for r in roots):
            return None
        acc = roots[0]
        image = _sum_image if v.is_Add else _product_image
        for b in roots[1:]:
            acc = _pick(_composed(acc.poly, b.poly, v.is_Add), image, acc, b)
        return acc
    if v.is_Pow and v.exp.is_Rational and v.exp > 0 and v.exp.q in (1, 2):
        base = _kernel_root(v.base)
        if base is not None and v.exp.q == 2:
            base = _sqrt(base)
        return base and _power(base, int(v.exp.p))
    return None


# ---------------------------------------------------------------------------
# certified inclusion disks of complex roots
#
# Complex numbers are (re, im) pairs of Fractions, so every disk, every
# interval image and every comparison below is exact.


def _horner(poly, z):
    acc = poly[0]
    for c in poly[1:]:
        acc = _cadd(_cmul(acc, z), c)
    return acc


def _sqrt_down(q: Fraction, bits: int) -> Fraction:
    return Fraction(math.isqrt(q.numerator * 4**bits // q.denominator),
                    2**bits)


def _sqrt_up(q: Fraction, bits: int) -> Fraction:
    return _sqrt_down(q, bits) + Fraction(1, 2**bits)


def gaussian_coeffs(p) -> list:
    """Coefficients of a polynomial over Q(i), leading first, as exact
    (re, im) pairs of Fractions."""
    out = []
    for c in Poly(p, X).all_coeffs():
        re, im = sp.sympify(c).as_real_imag()
        out.append((Fraction(re.p, re.q), Fraction(im.p, im.q)))
    return out


def has_nonreal_root(coeffs) -> bool:
    """Whether a squarefree polynomial over Q(i), given by its coefficient
    pairs (leading first), has a non-real root: a monic polynomial with
    only real roots has real coefficients, and a real one is checked by
    counting its real roots with a Sturm sequence."""
    monic = [_cdiv(c, coeffs[0]) for c in coeffs]
    if any(im for _, im in monic):
        return True
    if len(monic) <= 2:
        return False
    poly = _normalized([re for re, _ in monic])
    seq = _sturm_sequence(poly)
    b = _root_bound(poly)
    return _sign_changes(seq, -b) - _sign_changes(seq, b) < len(poly) - 1


def _mpf_fraction(v) -> Fraction:
    """The exact binary value of an mpmath number, at its own precision."""
    sign, man, exp, _ = v._mpf_
    man = -man if sign else man
    return Fraction(man * 2**exp) if exp >= 0 else Fraction(man, 2**-exp)


# digits of the logarithms whose integer relations are sought, in the rank
# of pi and in the forge's unit search
_LOG_DIGITS = 60


def _log_midpoint(lo: Fraction, hi: Fraction) -> Fraction:
    """log of the midpoint of a positive enclosure, taken at
    ``_LOG_DIGITS + 10`` working digits and rounded to nearest at
    ``_LOG_DIGITS`` digits, as that binary value exactly."""
    mid = (lo + hi) / 2
    with mpmath.workdps(_LOG_DIGITS + 10):
        v = mpmath.log(mpmath.mpf(mid.numerator) / mid.denominator)
    with mpmath.workdps(_LOG_DIGITS):
        return _mpf_fraction(+v)


def log_abs(enclose) -> Fraction:
    """log|v| of a nonzero real v from enclosures ``enclose(eps)`` that
    shrink to v: eps falls from 10^-70 by 10^10 until one has one sign and
    relative width below 10^-70, whose midpoint's log is ``_log_midpoint``.
    pi's and the forge's log: an approximation for LLL that decides nothing."""
    tol = eps = Fraction(1, 10 ** (_LOG_DIGITS + 10))
    while True:
        a, b = enclose(eps)
        if (a > 0 or b < 0) and b - a <= tol * min(abs(a), abs(b)):
            return _log_midpoint(abs(a), abs(b))
        eps /= 10 ** 10


def _root_disks(poly, prec: int):
    """Certified inclusion disks ``((re, im), radius)`` of the roots of a
    squarefree polynomial with Gaussian-rational coefficients, one root in
    each, from mpmath approximations z_i at ``prec`` bits; None when they
    are not yet pairwise disjoint.

    With W_i = f(z_i) / (lc * prod_{j != i} (z_i - z_j)), the disks
    |z - z_i| <= n |W_i| cover the roots, and a connected union of m of
    them holds exactly m roots (Smith 1970; Braess–Hadeler), so disjoint
    disks hold one root each.  The radii are computed exactly."""
    n = len(poly) - 1
    with mpmath.workprec(prec):
        coeffs = [mpmath.mpc(mpmath.mpf(re.numerator) / re.denominator,
                             mpmath.mpf(im.numerator) / im.denominator)
                  for re, im in poly]
        try:
            approx = mpmath.polyroots(coeffs, maxsteps=100, extraprec=prec)
        except mpmath.libmp.NoConvergence:
            return None
    centers = [(_mpf_fraction(z.real), _mpf_fraction(z.imag))
               for z in approx]
    disks = []
    for i, c in enumerate(centers):
        den = _cabs2(poly[0])
        for j, z in enumerate(centers):
            if j != i:
                den *= _cabs2(_csub(c, z))
        if den == 0:
            return None
        r2 = n * n * _cabs2(_horner(poly, c)) / den
        disks.append((c, _sqrt_up(r2, prec + 8)))
    for (c, r), (z, s) in itertools.combinations(disks, 2):
        if (r + s) ** 2 >= _cabs2(_csub(c, z)):
            return None
    return disks


def _disk_image(poly, disk, bits: int):
    """A disk ``(center, radius)`` containing poly(z) for every z in
    ``disk`` (Horner in disk arithmetic)."""
    c, r = disk
    c_abs = _sqrt_up(_cabs2(c), bits)
    value, rad = poly[0], Fraction(0)
    for a in poly[1:]:
        rad = _sqrt_up(_cabs2(value), bits) * r + rad * (c_abs + r)
        value = _cadd(_cmul(value, c), a)
    return value, rad


def _may_vanish(poly, disk, bits: int) -> bool:
    value, rad = _disk_image(poly, disk, bits)
    return _cabs2(value) <= rad * rad


def _abs2_range(disk, bits: int) -> tuple[Fraction, Fraction]:
    """Bounds of |z|^2 over a disk, rounded outward to multiples of
    2^-bits so that intervals built from them stay short to print."""
    c, r = disk
    s = _cabs2(c)
    lo = max(Fraction(0), _sqrt_down(s, bits) - r)
    hi = _sqrt_up(s, bits) + r
    scale = 2**bits
    return (Fraction(math.floor(lo * lo * scale), scale),
            Fraction(math.ceil(hi * hi * scale), scale))


_PREC_START, _PREC_MAX = 64, 1 << 14


def _at_rising_precision(attempt, what: str):
    """The first non-None ``attempt(prec)`` for prec = 64, 128, ... bits."""
    prec = _PREC_START
    while prec <= _PREC_MAX:
        out = attempt(prec)
        if out is not None:
            return out
        prec *= 2
    raise ExactAlgebraError(f"failed to certify {what}")


def _modulus_squared_annihilator(f, mu) -> tuple:
    """The distinct irreducible factors, with their Sturm sequences, of an
    integer polynomial with root |mu(theta)|^2 for every root theta of f.

    f and mu have Gaussian-rational coefficients (leading first).  The
    polynomial is prod_{i,j} (z - mu(x_i) conj(mu(x_j))) over the roots
    x_i of f, i.e. Res_x(f, Res_y(conj f, z - mu(x) conj(mu)(y))) up to a
    constant: the ``_conjugate_products`` of the charpoly of multiplication
    by mu on Q(i)[x]/(f), whose roots are the mu(x_i)."""
    d, c = len(f) - 1, [_cdiv(a, f[0]) for a in f]
    # column q: mu x^(d-1-q) modulo f, leading first
    cols = [_divide_monic(_cpoly_mul(
        [(0, 0)] * q + [(1, 0)] + [(0, 0)] * (d - 1 - q), mu), c)[1]
        for q in range(d)]
    factors = _irreducible_factors(
        _conjugate_products(gaussian_charpoly(list(zip(*cols)))))
    return factors, [_sturm_sequence(g) for g in factors]


def _rectangle(interval) -> tuple:
    """A sympy isolating interval of a root as (ax, bx, ay, by)."""
    q = lambda v: Fraction(int(v.numerator), int(v.denominator))
    if hasattr(interval, "ax"):
        return q(interval.ax), q(interval.bx), q(interval.ay), q(interval.by)
    return q(interval.a), q(interval.b), Fraction(0), Fraction(0)


def _meets(disk, rect) -> bool:
    (cx, cy), r = disk
    ax, bx, ay, by = rect
    dx = max(ax - cx, Fraction(0), cx - bx)
    dy = max(ay - cy, Fraction(0), cy - by)
    return dx * dx + dy * dy <= r * r


def _moduli_in_disk(disk, mus, annihilators, bits: int):
    """For the root z of f held by a certified ``disk``: the triple
    ``(poly, lo, hi)`` isolating |mu(z)|^2 for each mu, the one root of the
    factors of its ``_modulus_squared_annihilator(f, mu)`` in the interval
    image of the disk; None while some image holds none or several."""
    isolated = []
    for mu, (factors, sturm) in zip(mus, annihilators):
        lo, hi = _abs2_range(_disk_image(mu, disk, bits), bits)
        found = _root_in(factors, sturm, lo, hi)
        if found is None:
            return None
        isolated.append(found)
    return isolated


def modulus_squared_roots(f, mus) -> list:
    """For each root theta of a squarefree polynomial f over Q(i) of degree
    >= 2: ``(theta, [(poly, lo, hi), ...])``, where theta is the sympy
    ``CRootOf`` of that root and the k-th triple isolates |mu_k(theta)|^2
    as a root of its annihilator (``_moduli_in_disk``).

    Each root is held by a certified inclusion disk; theta is the one
    ``CRootOf`` whose isolating region meets that disk.  A non-real f is
    handled through its norm f * conj(f), whose roots off f are excluded by
    their disks' images under f.  Precision rises until every choice is
    unique."""
    f = [_cdiv(c, f[0]) for c in f]
    real = all(im == 0 for _, im in f)
    norm = f if real else _cpoly_mul(f, [(re, -im) for re, im in f])
    roots = Poly(_normalized([re for re, _ in norm]), X).all_roots(
        radicals=False)
    # sympy's isolating regions, read but never written back to its cache
    regions = [t._get_interval() for t in roots]
    annihilators = [_modulus_squared_annihilator(f, mu) for mu in mus]

    def attempt(prec):
        disks = _root_disks(norm, prec)
        if disks is None:
            return None
        if not real:
            # a disk holds a root of f unless f provably has no zero in it
            disks = [D for D in disks if _may_vanish(f, D, prec + 8)]
            if len(disks) != len(f) - 1:
                return None
        out = []
        for D in disks:
            hits = [i for i, iv in enumerate(regions)
                    if _meets(D, _rectangle(iv))]
            if len(hits) != 1:
                for i in hits:
                    regions[i] = regions[i].refine()
                return None
            isolated = _moduli_in_disk(D, mus, annihilators, prec + 8)
            if isolated is None:
                return None
            out.append((roots[hits[0]], isolated))
        return out

    return _at_rising_precision(attempt, "the roots of a non-real factor")


# ---------------------------------------------------------------------------
# characteristic polynomials


def charpoly(M) -> Poly:
    """Exact monic characteristic polynomial of a square Gaussian-integer
    matrix: a sympy matrix or rows, each entry an int, an ``(re, im)`` pair
    or a sympy number, read by ``_gaussian_integer``.  The coefficients are
    those of the Samuelson-Berkowitz recurrence ``gaussian_charpoly``."""
    rows = M.tolist() if hasattr(M, "tolist") else M
    pairs = [[_gaussian_integer(v) for v in row] for row in rows]
    return Poly([re + im * I if im else re
                 for re, im in gaussian_charpoly(pairs)], X)


# ---------------------------------------------------------------------------
# certified root moduli


# the half-width to which root_moduli encloses every modulus
_MODULUS_EPS = Fraction(1, 10**12)


def _moduli_squared(f) -> list:
    """|z|^2 for each root z of an irreducible integer polynomial (leading
    first), as a sympy rational or the real ``CRootOf`` of its minimal
    polynomial, each isolated in a certified disk of z by
    ``_moduli_in_disk``."""
    f = [(Fraction(c), Fraction(0)) for c in f]
    x = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))]
    factors, sturm = annihilator = _modulus_squared_annihilator(f, x)

    def attempt(prec):
        disks = _root_disks(f, prec) or []
        found = [_moduli_in_disk(D, [x], [annihilator], prec + 8)
                 for D in disks]
        if not disks or None in found:
            return None
        return [isolated[0] for isolated in found]

    out = []
    for g, lo, hi in _at_rising_precision(attempt, "root moduli"):
        if lo == hi:
            out.append(Rational(lo.numerator, lo.denominator))
            continue
        # CRootOf numbers the real roots of g ascending from 0
        seq = sturm[factors.index(g)]
        below = _sign_changes(seq, -_root_bound(g)) - _sign_changes(seq, lo)
        out.append(sp.CRootOf(Poly(g, X), below))
    return out


def root_moduli(p: Poly | sp.Expr):
    """All complex-root moduli of an integer polynomial with a nonzero
    constant term, exactly merged; root 0 raises ``ExactAlgebraError``.

    Returns a list of ``(CertifiedReal, multiplicity)`` sorted by descending
    modulus, each enclosed within ``_MODULUS_EPS``.  Moduli are merged
    exactly: two roots contribute to the same entry iff their moduli agree
    as algebraic numbers (same root of the squarefree modulus-squared
    resultant).  Every irreducible factor isolates its roots' squared
    moduli by ``_moduli_squared``; entries whose enclosures overlap are
    ordered by exact comparison.
    """
    coeffs = Poly(p, X).all_coeffs()
    if not coeffs[-1]:
        raise ExactAlgebraError("root_moduli of a polynomial with root 0")
    result: dict = {}
    for f, mult in dup_factor_list(list(_normalized(coeffs)), ZZ)[1]:
        for c in _moduli_squared(f):
            result[c] = result.get(c, 0) + mult
    # (modulus, multiplicity, modulus squared)
    moduli = [(CertifiedReal(sp.sqrt(c)), m, c) for c, m in result.items()]
    for m, _, _ in moduli:
        m.enclosure(_MODULUS_EPS)

    def descending(a, b):
        (alo, ahi), (blo, bhi) = (a[0].enclosure(_MODULUS_EPS),
                                  b[0].enclosure(_MODULUS_EPS))
        if ahi < blo:
            return 1
        if bhi < alo:
            return -1
        # overlapping enclosures: compare the squared moduli exactly
        return real_root(b[2]).compare(real_root(a[2]))

    moduli.sort(key=functools.cmp_to_key(descending))
    return [(m, mult) for m, mult, _ in moduli]
