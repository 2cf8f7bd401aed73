"""The characters of a commuting family with a positive-entropy generator.

A family whose generators all have zero entropy has no nontrivial character
and is decided on integers by ``group_structure.find_characters``; the rest
take the one common-eigenvector path here, which needs sympy.  One matrix B
of the family's span (a generator with a squarefree charpoly, else a
combination sum_j t^(j-1) A_j^T) is split over the irreducible factors f of
its charpoly over Q(i), with every kernel computed by elimination in the
field Q(i)[x]/(f).  Up to that field every matrix stays on the integer
pairs of ``TorusAutomorphism.pairs``, and every charpoly comes from the
Samuelson-Berkowitz recurrence over Z[i].  That each generator has a single
eigenvalue on every eigenspace of B is certified exactly, so no eigenvalue
is ever compared as a number.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp
from sympy import Matrix
from sympy.polys.agca.extensions import FiniteExtension
from sympy.polys.matrices import DomainMatrix

from .cohomology import _gaussian, _moduli_squared_desc
from .exact_algebra import (
    ExactAlgebraError,
    RealRoot,
    X,
    charpoly,
    exact_equal,
    exact_is_zero,
    gaussian_coeffs,
    has_nonreal_root,
    modulus_squared_roots,
)
from .group_structure import CharacterTable, DegenerateSpectrumError
from .integer_model import GroupSpec, has_zero_entropy


def _separating_operators(mats):
    """Candidates for B with their charpolys, in order: the first of the
    transposed generators A_j^T with a squarefree charpoly, else
    B_t = sum_j t^(j-1) A_j^T for t = 1, 2, ....  Two distinct joint
    eigenvalue tuples collide under B_t for at most n-1 values of t (the
    roots of a nonzero polynomial of degree n-1), and there are at most
    k(k-1)/2 pairs of tuples, so one of the first (n-1) k(k-1)/2 + 1 values
    of t separates them all.  Every matrix is rows of integer pairs."""
    for M in mats:
        p = charpoly(M)
        if sp.gcd(p, p.diff()).degree() == 0:
            yield M, p
            return
    k, n = len(mats[0]), len(mats)
    for t in range(1, (n - 1) * k * (k - 1) // 2 + 2):
        B = tuple(tuple((sum(t**j * M[r][c][0] for j, M in enumerate(mats)),
                         sum(t**j * M[r][c][1] for j, M in enumerate(mats)))
                        for c in range(k)) for r in range(k))
        yield B, charpoly(B)


def _kernel(M: DomainMatrix):
    """A basis of ker M as columns and its free rows, where the basis is
    the identity."""
    rref, pivots = M.rref()
    free = [i for i in range(M.shape[1]) if i not in pivots]
    return rref.nullspace_from_rref(pivots).transpose(), free


def _conjugate_coefficients(expr):
    """The polynomial in X whose coefficients are those of ``expr``,
    conjugated."""
    return sp.Add(*[sp.conjugate(c) * X ** e
                    for (e,), c in sp.Poly(expr, X).terms()], sp.Integer(0))


def _factor_eigensystem(B, p: sp.Poly, mats):
    """Common eigenvectors of ``mats`` with their exact |mu_j|^2, from the
    irreducible factors f of p = charpoly(B) over Q(i), and whether the
    family is semisimple; None when B does not separate the joint
    eigenvalues.

    B and ``mats`` are rows of integer pairs, lifted into the field
    K = Q(i)[x]/(f), where x stands for a root theta of f, and all
    arithmetic happens there.  V = ker(B - theta) is found by elimination
    over K, and mu_j = tr(A_j on V) / dim V.  The separation certificate is
    (A_j - mu_j)^(dim V) V = 0, which puts every common eigenvector of the
    family inside ker(B - theta) into V cap ker(A_j - mu_j), whose basis is
    returned.  The root itself is substituted only into the final
    expressions.  On a factor of degree >= 2 with a non-real root, every
    |mu_j|^2 is also a ``RealRoot``, isolated from the root's certified
    inclusion disk, and all decisions are made on it.  The family is
    semisimple iff sum_f deg f * dim V = k and every A_j is scalar on
    every V."""
    k = len(B)
    out, covered, whole = [], 0, True
    for factor, _mult in sp.factor_list(p.as_expr(), gaussian=True)[1]:
        fpoly = sp.Poly(factor, X)
        K = FiniteExtension(sp.Poly(factor, X, domain=sp.QQ_I))

        def lift(M):
            return DomainMatrix([[K.from_sympy(_gaussian(z)) for z in row]
                                 for row in M], (k, k), K)

        V, free = _kernel(lift(B) - DomainMatrix.eye(k, K) * K.generator)
        d = len(free)
        mus, images = [], []
        for A in map(lift, mats):
            AV = A * V
            rows = AV.to_list()
            mu = sum((rows[i][c] for c, i in enumerate(free)), K.zero) / d
            N = AV - V * mu
            P = N
            for _ in range(d - 1):
                P = A * P - P * mu
            if not P.is_zero_matrix:
                return None
            mus.append(K.to_sympy(mu))
            images.append(N)
        covered += fpoly.degree() * d
        W = V
        if not all(N.is_zero_matrix for N in images):
            W = V * _kernel(DomainMatrix.vstack(*images))[0]
            whole = False
        ws = [Matrix([K.to_sympy(v) for v in col])
              for col in W.transpose().to_list()]

        def moduli(theta):
            theta_conj = sp.conjugate(theta)
            modsq = []
            for mu in mus:
                mu_bar = _conjugate_coefficients(mu)
                if theta_conj == theta:
                    msq = sp.rem(sp.expand(mu * mu_bar), factor, X).subs(
                        X, theta)
                else:
                    msq = sp.expand(mu.subs(X, theta)
                                    * mu_bar.subs(X, theta_conj))
                modsq.append(sp.expand(msq))
            return modsq

        c = fpoly.all_coeffs()
        if fpoly.degree() == 1:
            roots = [(-c[1] / c[0], moduli(-c[1] / c[0]))]
        elif has_nonreal_root(gaussian_coeffs(fpoly)):
            roots = [(theta, [RealRoot(*iso, expr=msq) for msq, iso
                              in zip(moduli(theta), isolated)])
                     for theta, isolated in modulus_squared_roots(
                         gaussian_coeffs(fpoly),
                         [gaussian_coeffs(mu) for mu in mus])]
        else:
            roots = [(theta, moduli(theta)) for theta in fpoly.all_roots()]
        out.extend((w.subs(X, theta), tuple(modsq))
                   for theta, modsq in roots for w in ws)
    return out, covered == k and whole


def _common_eigenvectors(spec: GroupSpec):
    """All common eigenvectors with their exact per-generator |mu_j|^2.

    Returns (list of (vector, moduli_squared), semisimple)."""
    mats = [tuple(zip(*g.pairs)) for g in spec.generators]
    for B, p in _separating_operators(mats):
        found = _factor_eigensystem(B, p, mats)
        if found is not None:
            return found
    raise ExactAlgebraError("no B_t separates the joint eigenvalues")


@dataclass
class Character:
    """A multiplicative character of the group on an invariant nef class."""
    eigenvector: Matrix
    multipliers: tuple         # |mu_j|^2 per generator, as decided

    @property
    def modulus_squared(self) -> tuple:
        """The exact |mu_j|^2 per generator as sympy values."""
        return tuple(m.expr if isinstance(m, RealRoot) else m
                     for m in self.multipliers)


def _same_moduli(a: tuple, b: tuple) -> bool:
    return all(exact_equal(x, y) for x, y in zip(a, b))


def factor_field_table(spec: GroupSpec) -> CharacterTable:
    """The character table of a commuting family with a positive-entropy
    generator (``group_structure.find_characters``): the multiplier tuples
    are deduplicated exactly, once, and each distinct tuple but the trivial
    one (all multipliers 1) is a character; a non-semisimple family is
    rejected.

    A returned table is semisimple: its k eigenvectors form a basis of C^k
    (``covered == k``, every generator scalar on every eigenspace), so at
    most k tuples are distinct and the table has at most k characters.  The
    check of ``_validate_characters`` holds by construction too.  Over that
    eigenbasis of the A_j^T the multipliers of generator j are all of its
    |lambda|^2, so their largest is d1, and for d1 > 1 its tuple is not the
    trivial one: d1 lies on a character."""
    eigenvectors, semisimple = _common_eigenvectors(spec)
    distinct = []       # (w, multipliers) at the first w of each tuple
    for w, modsq in eigenvectors:
        if not any(_same_moduli(modsq, t) for _, t in distinct):
            distinct.append((w, modsq))
    characters = [Character(w, modsq) for w, modsq in distinct
                  if not all(exact_equal(m, 1) for m in modsq)]
    if not semisimple:
        raise DegenerateSpectrumError(
            "non-semisimple family with a positive-entropy generator")
    table = CharacterTable(characters, eigenvectors,
                           [modsq for _, modsq in distinct], semisimple)
    _validate_characters(spec, table)
    return table


def _validate_characters(spec: GroupSpec, table: CharacterTable):
    # the characters attain the top degree d1 of each positive-entropy
    # generator, derived independently from the root moduli.  A sympy
    # multiplier is compared by exact_is_zero, not by the kernel: its
    # numeric rung refines sympy's cached interval of d1's CRootOf, and the
    # report prints that interval, so this rung is part of the output
    for j, g in enumerate(spec.generators):
        if has_zero_entropy(g):
            continue
        d1 = _moduli_squared_desc(g)[0]
        tops = [c.multipliers[j] for c in table.characters]
        if not any(m == d1 if isinstance(m, RealRoot)
                   else exact_is_zero(m - d1) for m in tops):
            raise AssertionError(
                "THEOREM VIOLATION: no invariant nef class attains d1")
