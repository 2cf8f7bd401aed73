"""Independent oracles shared by the tests.

The library does not run these: each recomputes a value that the library
certifies by another path, so the tests can compare the two."""

import mpmath
import sympy as sp
from sympy import Matrix

from toraldyn.cohomology import _hermitian_cells
from toraldyn.exact_algebra import X, AlgebraicReal, charpoly, root_moduli


def hermitian_coords(H: Matrix) -> list:
    """Coordinates of a Hermitian matrix in ``hermitian_basis(k)``."""
    coords = []
    for j, l in _hermitian_cells(H.rows):
        coords += [H[j, j]] if j == l else [sp.re(H[j, l]), sp.im(H[j, l])]
    return coords


def charpoly_times_conjugate(M: Matrix):
    """``(p, False)`` for a real matrix with characteristic polynomial p,
    else ``(p * conj(p), True)``: an integer polynomial whose root moduli are
    those of p with doubled multiplicity."""
    p = charpoly(M)
    coeffs = p.all_coeffs()
    if all(sp.im(c) == 0 for c in coeffs):
        return p, False
    conj = sp.Poly([sp.conjugate(c) for c in coeffs], X)
    return sp.Poly(sp.expand((p * conj).as_expr()), X), True


def spectral_radius(M: Matrix) -> AlgebraicReal:
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
