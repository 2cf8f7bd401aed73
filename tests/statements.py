"""Checkers of the paper's statements on sympy classes, for the tests.

No CLI command runs these.  Each decides one statement of the paper
(Hodge-Riemann and Gromov semipositivity, the colinearity dichotomy of
Cor 3.2, the (a, b)-pair solver of Cor 3.5, Lemma 4.3 and Theorem 4.6) on
given classes with the class algebra of ``toraldyn.cohomology``, so the
tests can hold the integer kernels of the program against the statements
they certify."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import sympy as sp

from toraldyn import ExactAlgebraError
from toraldyn.cohomology import (CohomClass, TorusAutomorphism, is_nef,
                                 pullback, wedge, wedge_all)
from toraldyn.exact_algebra import (_LOG_DIGITS, exact_equal, exact_is_zero,
                                    exact_sign)
from toraldyn.group_structure import (GroupSpec, check_commuting,
                                      verify_zero_entropy_word,
                                      word_automorphism)
from toraldyn.integer_model import _identity, integer_relations
from toraldyn.hodge_riemann import (FuzzReport, PositivityReport,
                                    _primitive_q_definiteness, gromov_fuzz,
                                    hodge_riemann_definite)

from oracles import hermitian_basis, is_nef_by_sympy

# ---------------------------------------------------------------------------
# classes as Gaussian-rational (re, im) matrices


def _to_frac_pair(v):
    re, im = v.as_real_imag()
    if not (re.is_Rational and im.is_Rational):
        raise ValueError("context classes must have Gaussian-rational entries")
    return (Fraction(re.p, re.q), Fraction(im.p, im.q))


def gmat_from_class(c: CohomClass):
    rows = c.to_hermitian().tolist()
    return [[_to_frac_pair(v) for v in row] for row in rows]


def _nef(c: CohomClass) -> bool:
    """``is_nef`` on a Gaussian-rational class; sympy decides a class with
    real algebraic entries, which ``is_nef`` refuses."""
    try:
        return is_nef(c)
    except ExactAlgebraError:
        return is_nef_by_sympy(c)


def eigenclass(character) -> CohomClass:
    """The eigenclass w w^H of a character's eigenvector w; nef as
    v^H (w w^H) v = |w^H v|^2."""
    w = character.eigenvector
    return CohomClass.from_hermitian(w * w.H)


# ---------------------------------------------------------------------------
# Hodge-Riemann (Kahler class) and Gromov semipositivity (nef context)


def check_hodge_riemann_definite(omega: CohomClass) -> PositivityReport:
    """``hodge_riemann_definite`` of a real (1,1)-class."""
    if not omega.is_real():
        raise ValueError("the Hodge-Riemann check requires a Kahler class")
    return hodge_riemann_definite(gmat_from_class(omega))


@dataclass
class SemipositivityReport:
    kind: str              # "gromov_psd"
    k: int
    passed: bool
    definite: bool
    degenerate: bool = False
    witness: list | None = None
    fuzz: FuzzReport | None = None


def check_gromov_semipositive(context, samples: int = 0,
                              seed: int = 0) -> SemipositivityReport:
    """Gromov/Timorin semipositivity for one nef context (k-1 classes):
    q (from the first k-2 classes) restricted to the primitive space of the
    full context is PSD; decided by exact pivots.  A vanishing context wedge
    is flagged degenerate and skipped."""
    context = list(context)
    k = context[0].k
    for c in context:
        if not _nef(c):
            raise ValueError("context classes must be nef")
    mats = [gmat_from_class(c) for c in context]
    decided = _primitive_q_definiteness(mats, k)
    if decided is None:
        return SemipositivityReport("gromov_psd", k, passed=True,
                                    definite=False, degenerate=True)
    psd, pd, witness = decided
    fuzz = gromov_fuzz(k, samples, seed) if samples else None
    return SemipositivityReport(
        "gromov_psd", k, passed=psd and (fuzz is None or fuzz.passed),
        definite=pd, witness=witness, fuzz=fuzz)


# ---------------------------------------------------------------------------
# colinearity (Cor 3.2) and the (a,b)-pair solver (Cor 3.5)


@dataclass
class ColinearityResult:
    kind: str              # "colinear" | "wedge_nonzero"
    # when set, c' = ratio * c; None when c = 0 and c' != 0
    ratio: sp.Expr | None = None


def colinearity_witness(c: CohomClass, cprime: CohomClass) -> ColinearityResult:
    """For nef c, c': either c ^ c' != 0 or the two classes are colinear."""
    if not (_nef(c) and _nef(cprime)):
        raise ValueError("colinearity dichotomy requires nef classes")
    w = wedge(c, cprime)
    if not w.is_zero():
        return ColinearityResult("wedge_nonzero")
    # verify colinearity exactly and extract the ratio
    if c.is_zero():
        # c = 0 is colinear with anything, but only c' = 0 is a multiple of it
        return ColinearityResult("colinear",
                                 ratio=sp.Integer(0) if cprime.is_zero() else None)
    key, base = next(iter(c.coeffs.items()))
    other = cprime.coeffs.get(key, sp.Integer(0))
    ratio = sp.expand(other / base)
    if not (cprime - c.scale(ratio)).is_zero():
        raise AssertionError(
            "THEOREM VIOLATION: nef classes with zero wedge are not colinear")
    return ColinearityResult("colinear", ratio=ratio)


@dataclass
class SolveABResult:
    status: str            # "solved" | "hypothesis_violated"
    a: sp.Expr | None = None
    b: sp.Expr | None = None
    kernel_dimension: int | None = None
    unique: bool | None = None


def _ab_constraint_matrix(c, cprime, context):
    """Rows of the linear system a*u + b*v = 0 ranging over a spanning set."""
    k = c.k
    m = len(context)
    wc = wedge_all([c, *context]) if context else c
    wcp = wedge_all([cprime, *context]) if context else cprime
    extra = k - m - 2
    basis_cls = [CohomClass.from_hermitian(E) for E in hermitian_basis(k)]
    rows = []
    for combo in itertools.combinations_with_replacement(range(len(basis_cls)),
                                                         extra):
        u = wc
        v = wcp
        for i in combo:
            u = wedge(u, basis_cls[i])
            v = wedge(v, basis_cls[i])
        keys = set(u.coeffs) | set(v.coeffs)
        for key in keys:
            uu = u.coeffs.get(key, sp.Integer(0))
            vv = v.coeffs.get(key, sp.Integer(0))
            rows.append((sp.re(uu), sp.re(vv)))
            rows.append((sp.im(uu), sp.im(vv)))
    return sp.Matrix(rows) if rows else sp.zeros(1, 2)


def solve_ab_pair(c: CohomClass, cprime: CohomClass, context) -> SolveABResult:
    """Cor-3.5 solver: find (a,b) != 0 with (a c + b c') ^ context ^ (anything)
    = 0, given c ^ c' ^ context = 0; uniqueness certified when c ^ context != 0.
    """
    context = list(context)
    k = c.k
    if len(context) > k - 2:
        raise ValueError("context may have at most k-2 classes")
    for cl in (c, cprime, *context):
        if not _nef(cl):
            raise ValueError("all classes must be nef")
    hyp = wedge_all([c, cprime, *context])
    if not hyp.is_zero():
        return SolveABResult("hypothesis_violated")
    M = _ab_constraint_matrix(c, cprime, context)
    ker = M.nullspace()
    if not ker:
        raise AssertionError("THEOREM VIOLATION: Cor 3.5 kernel is empty")
    sol = ker[0]
    res = SolveABResult("solved", a=sp.nsimplify(sol[0]), b=sp.nsimplify(sol[1]),
                        kernel_dimension=len(ker))
    c_ctx = wedge_all([c, *context]) if context else c
    if not c_ctx.is_zero():
        res.unique = len(ker) == 1
        if not res.unique:
            raise AssertionError(
                "THEOREM VIOLATION: Cor 3.5 kernel not one-dimensional")
    return res


# ---------------------------------------------------------------------------
# Lemma 4.3 instance verification


@dataclass
class Lemma43Result:
    status: str            # "holds" | "vacuous" | "violation"
    reason: str = ""


def lemma_4_3_check(g: TorusAutomorphism, c: CohomClass, cprime: CohomClass,
                    context, lam, lam_prime) -> Lemma43Result:
    """Verify one instance of the eigenclass-wedge lemma exactly.

    Hypotheses: nef classes, g*(ctx^c) = lam ctx^c, g*(ctx^c') = lam' ctx^c',
    lam != lam', ctx^c != 0, ctx^c^c' = 0.  Conclusion: ctx^c' = 0.
    """
    context = list(context)
    for cl in (c, cprime, *context):
        if not _nef(cl):
            return Lemma43Result("vacuous", "non-nef input class")
    if exact_is_zero(sp.expand(sp.sympify(lam) - sp.sympify(lam_prime))):
        return Lemma43Result("vacuous", "lambda == lambda'")
    if exact_sign(sp.sympify(lam)) <= 0 or exact_sign(sp.sympify(lam_prime)) <= 0:
        return Lemma43Result("vacuous", "eigenvalues must be positive reals")
    ctx_c = wedge_all([*context, c]) if context else c
    ctx_cp = wedge_all([*context, cprime]) if context else cprime
    if ctx_c.is_zero():
        return Lemma43Result("vacuous", "context ^ c = 0")
    if not (pullback(g, ctx_c) - ctx_c.scale(lam)).is_zero():
        return Lemma43Result("vacuous", "context ^ c is not a lam-eigenclass")
    if not (pullback(g, ctx_cp) - ctx_cp.scale(lam_prime)).is_zero():
        return Lemma43Result("vacuous", "context ^ c' is not a lam'-eigenclass")
    if not wedge(ctx_c, cprime).is_zero():
        return Lemma43Result("vacuous", "context ^ c ^ c' != 0")
    if ctx_cp.is_zero():
        return Lemma43Result("holds")
    return Lemma43Result(
        "violation", "hypotheses hold but context ^ c' != 0")


# ---------------------------------------------------------------------------
# invariant-class form of the structure theorem (Theorem 4.6)


@dataclass
class Theorem46Report:
    status: str                # "holds" | "vacuous"
    rank: int | None = None
    reason: str = ""
    witness: object = None


def _class_multiplier(g: TorusAutomorphism, c: CohomClass):
    """lambda with pullback(g, c) = lambda c, or None."""
    key, base = next(iter(c.coeffs.items()))
    image = pullback(g, c)
    lam = sp.simplify(image.coeffs.get(key, sp.Integer(0)) / base)
    if (image - c.scale(lam)).is_zero():
        return lam
    return None


def _trivial_multiplier(row, e) -> bool:
    """Whether prod_j |lam_j|^e_j == 1, decided exactly."""
    pos = sp.Mul(*[sp.Abs(lam) ** ej for lam, ej in zip(row, e) if ej > 0])
    neg = sp.Mul(*[sp.Abs(lam) ** -ej for lam, ej in zip(row, e) if ej < 0])
    return exact_equal(sp.expand(pos), sp.expand(neg))


def check_theorem_4_6(spec: GroupSpec, classes) -> Theorem46Report:
    """Invariant-class structure theorem: a positive-entropy group preserving
    k-1 nef classes with nonzero wedge is commutative and free of rank
    <= k-1.  Hypotheses are checked exactly; a hypotheses-true,
    conclusion-false instance raises (build-breaking)."""
    classes = list(classes)
    k = spec.k
    n = spec.n
    if len(classes) != k - 1:
        raise ValueError("exactly k-1 classes required")
    multipliers = []       # multipliers[i][j] for class i, generator j
    for c in classes:
        if c.is_zero() or not _nef(c):
            return Theorem46Report("vacuous", reason="class not nef/nonzero",
                                   witness=c)
        row = []
        for g in spec.generators:
            lam = _class_multiplier(g, c)
            if lam is None:
                return Theorem46Report(
                    "vacuous", reason="class not preserved", witness=(g, c))
            row.append(lam)
        multipliers.append(row)
    if wedge_all(classes).is_zero():
        return Theorem46Report("vacuous", reason="context wedge is zero")
    # rank of the induced pi, with exact multiplicative verification
    log_columns = [[0 if exact_equal(row[j], 1) else Fraction(sp.Rational(
                        sp.log(sp.Abs(row[j])).evalf(_LOG_DIGITS)))
                    for row in multipliers] for j in range(n)]
    verified = [e for e in integer_relations(log_columns)
                if all(_trivial_multiplier(row, e) for row in multipliers)]
    # the hypothesis "zero entropy => identity", decided on ker(pi), where
    # every zero-entropy element lies: a non-identity element there refutes
    # it if its entropy is zero and contradicts the theorem otherwise
    ident = _identity(k)
    for e in verified:
        if word_automorphism(spec, e) != ident:
            if verify_zero_entropy_word(spec, e):
                return Theorem46Report(
                    "vacuous", reason="zero-entropy non-identity word",
                    witness=e)
            raise AssertionError(
                f"THEOREM VIOLATION: nontrivial word {e} in ker(pi)")
    witness = check_commuting(spec)
    if witness is not None:
        raise AssertionError(
            f"THEOREM VIOLATION: non-commuting pair {witness}")
    r = n - len(verified)
    if r > k - 1:
        raise AssertionError(
            f"THEOREM VIOLATION: rank {r} exceeds k-1 = {k - 1}")
    return Theorem46Report("holds", rank=r)
