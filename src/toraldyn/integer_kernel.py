"""Exact kernels on Python ints and Fractions, loading neither sympy nor
mpmath: the Gaussian-integer determinant, Hermitian definiteness (whose
algebraic branch alone reaches sympy, through ``exact_algebra``) and the
sparse Hermitian basis."""

import itertools
import math
import numbers
from fractions import Fraction
from functools import lru_cache


class ExactAlgebraError(ValueError):
    pass


def gaussian_det(rows) -> tuple:
    """Determinant of a square matrix of Gaussian integers, given and
    returned as ``(re, im)`` pairs ((1, 0) for the 0 x 0 matrix), by
    fraction-free Bareiss elimination (Bareiss, Math. Comp. 22, 1968): after
    step t, entry (i, j) is the minor over rows and columns 0..t and (i, j),
    so dividing it by the previous pivot q (times conj(q), over |q|^2) is
    exact.  A zero pivot swaps in a later row and flips the sign."""
    M = [list(row) for row in rows]
    n, sign, (qr, qi) = len(M), 1, (1, 0)
    for t in range(n - 1):
        if not any(M[t][t]):
            swap = next((i for i in range(t + 1, n) if any(M[i][t])), None)
            if swap is None:
                return (0, 0)
            M[t], M[swap], sign = M[swap], M[t], -sign
        (pr, pi), norm = M[t][t], qr * qr + qi * qi
        for row in M[t + 1:]:
            ar, ai = row[t]
            for j in range(t + 1, n):
                (xr, xi), (br, bi) = row[j], M[t][j]
                ur = pr * xr - pi * xi - ar * br + ai * bi
                ui = pr * xi + pi * xr - ar * bi - ai * br
                row[j] = ((ur * qr + ui * qi) // norm,
                          (ui * qr - ur * qi) // norm)
        qr, qi = pr, pi
    re, im = M[-1][-1] if n else (1, 0)
    return sign * re, sign * im


def _integer_rows(M):
    """``(rows, scale)``: the matrix times the lcm ``scale`` of its
    denominators, as Python ints, when every entry is rational (an int, a
    Fraction or a sympy Rational, which sympy registers as
    ``numbers.Rational``); None otherwise."""
    if not all(isinstance(v, numbers.Rational) for row in M for v in row):
        return None
    scale = math.lcm(*(v.denominator for row in M for v in row))
    return [[v.numerator * (scale // v.denominator) for v in row]
            for row in M], scale


def symmetric_definiteness(M):
    """Exact ``(psd, pd, witness)`` of a Hermitian matrix given as rows of
    ints, Fractions or algebraic sympy numbers, by pivoted LDL^H elimination.

    ``witness`` is a vector v with v^H M v < 0 when M is not psd, else None.

    Rational rows (ints, Fractions and sympy Rationals; real, so symmetric)
    are scaled to integers once and eliminated fraction-free by the
    symmetric Bareiss update (Bareiss 1968): after each pivot, an entry is
    the minor of the scaled matrix over the pivots so far and that entry, so
    the division by the previous pivot is exact, and the Schur-complement
    entry is the integer over ``scale * prev``.  Pivots are positive, so
    every sign is the sign of the integer.  Algebraic rows are updated in
    their field.
    """
    n = len(M)
    ints = _integer_rows(M)
    if ints is None:
        from . import exact_algebra as field
        work, scale = [list(r) for r in M], None
        sign, is_zero = field._real_sign, field._is_zero
    else:
        (work, scale), sign, is_zero = (ints, lambda v: (v > 0) - (v < 0),
                                        lambda v: v == 0)
    prev = 1
    active = list(range(n))
    # each step replaces the basis vector e_i of every remaining index i by
    # e_i - conj(f_i) e_piv, which is M-orthogonal to e_piv
    steps = []

    def entry(i, j):
        """Entry (i, j) of the current Schur complement."""
        return work[i][j] if scale is None else Fraction(work[i][j],
                                                         scale * prev)

    def ratio(a, d):
        return a / d if scale is None else Fraction(a, d)

    def lift(w):
        """Original coordinates of a vector given over the active indices;
        the multiplier of index i at a step is f_i = M_i,piv / M_piv,piv."""
        v = dict(w)
        for piv, d, col in reversed(steps):
            v[piv] = -sum(ratio(a, d).conjugate() * v.get(i, 0)
                          for i, a in col.items())
        return [v.get(i, 0) for i in range(n)]

    while active:
        signs = {i: sign(work[i][i]) for i in active}
        neg = next((i for i in active if signs[i] < 0), None)
        if neg is not None:
            return False, False, lift({neg: 1})
        piv = next((i for i in active if signs[i] > 0), None)
        if piv is None:
            # zero diagonal: psd iff all remaining entries vanish; otherwise
            # v = e_i - M_ji e_j has v^H M v = -2 |M_ij|^2 < 0
            for i, j in itertools.combinations(active, 2):
                if not is_zero(work[j][i]):
                    return False, False, lift({i: 1, j: -entry(j, i)})
            return True, False, None
        d = work[piv][piv]
        active.remove(piv)
        col = {i: work[i][piv] for i in active if work[i][piv]}
        if scale is None:
            for i, a in col.items():
                f = a / d
                for j in active:
                    work[i][j] = field._expanded(work[i][j] - f * work[piv][j])
        else:
            # every row moves, also those with a zero multiplier: the
            # fraction-free entries carry the pivot product
            row = work[piv]
            for x, i in enumerate(active):
                wi, a = work[i], work[i][piv]
                for j in active[x:]:
                    wi[j] = work[j][i] = (d * wi[j] - a * row[j]) // prev
            prev = d
        steps.append((piv, d, col))
    return True, True, None


def _hermitian_cells(k: int) -> list:
    """The cells (j, l) of the Hermitian coordinates: the diagonal, then the
    cells above it."""
    return [(j, j) for j in range(k)] + list(
        itertools.combinations(range(k), 2))


@lru_cache(maxsize=None)
def hermitian_basis_sparse(k: int):
    """Integer basis of Hermitian k x k matrices, E_jj; E_jl + E_lj;
    i(E_jl - E_lj) for j < l, each as a tuple of (row, col, (re, im))."""
    out = []
    for j, l in _hermitian_cells(k):
        if j == l:
            out.append(((j, j, (1, 0)),))
        else:
            out += [((j, l, (1, 0)), (l, j, (1, 0))),
                    ((j, l, (0, 1)), (l, j, (0, -1)))]
    return tuple(out)
