"""Metamorphic invariance: the structure theorem describes the group, not
its presentation, so a change of generators must not change the rank of
pi, the finiteness of U or its order.

Time budget: each case runs in-process in about 1 s (budget 10 s).  The
`square_extra` cases add g_1^2 as an extra generator: its log row is twice
g_1's, a relation at the 10^40 scale of the LLL lattice."""

import time

import pytest
from sympy import I, Matrix

from toraldyn.example_forge import builtin
from toraldyn.group_structure import GroupSpec, analyze_group

PELL = Matrix([[1, 2], [1, 1]])


def _invariants(spec):
    dec = analyze_group(spec).decomposition
    return dec.rank, dec.u_finite, dec.u_order


@pytest.mark.parametrize("original, moved", [
    # the Nielsen move g2 -> g1 g2 on pell_plus_torsion = (pell, i):
    # i * pell has a charpoly with non-real coefficients
    ("pell_plus_torsion", [PELL, I * PELL]),
], ids=["pell_times_i"])
def test_nielsen_move_keeps_invariants(original, moved):
    start = time.perf_counter()
    spec = GroupSpec.from_matrices([M.tolist() for M in moved])
    assert _invariants(spec) == _invariants(builtin(original))
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("original", ["cat_T2", "cubic_T3",
                                      "pell_plus_torsion"])
def test_square_extra_keeps_invariants(original):
    start = time.perf_counter()
    spec = builtin(original)
    g1 = spec.generators[0]
    moved = GroupSpec(spec.generators + (g1.power(2),))
    assert _invariants(moved) == _invariants(spec)
    assert time.perf_counter() - start < 10
