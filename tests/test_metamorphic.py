"""Metamorphic invariance: the structure theorem describes the group, not
its presentation, so a change of generators must not change the rank of
pi, the finiteness of U or its order, and the relation lattice of U moves
with the generators.

Time budget: each case runs in-process in about 1 s (budget 10 s).  The
`square_extra` cases add g_1^2 as an extra generator: its log row is twice
g_1's, a relation at the 10^40 scale of the LLL lattice.  The conjugation
cases change the basis of the lattice Z[i]^k by an elementary matrix of
GL(k, Z[i]).  The reversal cases reverse the order of the generators, which
reverses every word of the kernel of pi."""

import time
from pathlib import Path

import pytest
from sympy import I, Matrix, eye

from toraldyn.cli import load_group_argument
from toraldyn.exact_algebra import exact_equal
from toraldyn.integer_model import catalog_group, hermite_normal_form_rows
from toraldyn.group_structure import GroupSpec, analyze_group

PELL = Matrix([[1, 2], [1, 1]])
DATA = Path(__file__).resolve().parent / "data"


def _invariants(spec):
    out = analyze_group(spec)
    return out.rank.rank, out.decomposition.u_order


@pytest.mark.parametrize("original, moved", [
    # the Nielsen move g2 -> g1 g2 on pell_plus_torsion = (pell, i):
    # i * pell has a charpoly with non-real coefficients
    ("pell_plus_torsion", [PELL, I * PELL]),
], ids=["pell_times_i"])
def test_nielsen_move_keeps_invariants(original, moved):
    start = time.perf_counter()
    spec = GroupSpec.from_matrices([M.tolist() for M in moved])
    assert _invariants(spec) == _invariants(catalog_group(original))
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("original", ["cat_T2", "cubic_T3",
                                      "pell_plus_torsion"])
def test_square_extra_keeps_invariants(original):
    start = time.perf_counter()
    spec = catalog_group(original)
    g1 = spec.generators[0]
    moved = GroupSpec(spec.generators + (g1.power(2),))
    assert _invariants(moved) == _invariants(spec)
    assert time.perf_counter() - start < 10


def test_shear_power_extra_moves_relation_lattice():
    # parabolic_T2 = (shear_1, shear_i) has an infinite U with no relation;
    # the extra generator shear_1^5 adds exactly the relation (5, 0, -1).
    # Runs in-process in about 0.2 s (budget 10 s)
    start = time.perf_counter()
    spec = catalog_group("parabolic_T2")
    moved = GroupSpec(spec.generators + (spec.generators[0].power(5),))
    assert _invariants(moved) == _invariants(spec) == (0, None)
    assert (analyze_group(moved).decomposition.relation_lattice.basis
            == ((5, 0, -1),))
    assert time.perf_counter() - start < 10


def _same_multiplier_multiset(a, b):
    """Whether two lists of multiplier tuples agree as multisets, exactly."""
    rest = list(b)
    for t in a:
        hit = next((n for n, u in enumerate(rest)
                    if all(exact_equal(x, y) for x, y in zip(t, u))), None)
        if hit is None:
            return False
        del rest[hit]
    return not rest


@pytest.mark.parametrize("original", ["parabolic_T2", "pell_plus_torsion",
                                      "cubic_T3"])
@pytest.mark.parametrize("corner", [1, I], ids=["E12", "iE12"])
def test_conjugation_keeps_invariants(original, corner):
    # parabolic_T2 is not semisimple, so its conjugates have no squarefree
    # generator and take the B_t branch of the eigen path; each case runs
    # in-process in about 0.3 s, a cubic_T3 case in about 1 s (budget 10 s)
    start = time.perf_counter()
    spec = catalog_group(original)
    P = eye(spec.k)
    P[0, 1] = corner
    moved = GroupSpec.from_matrices(
        [(P * g.A * P.inv()).tolist() for g in spec.generators])
    before, after = analyze_group(spec), analyze_group(moved)
    for a in (before, after):
        assert a.witness is None
    assert _invariants(moved) == _invariants(spec)
    assert (after.decomposition.relation_lattice.basis
            == before.decomposition.relation_lattice.basis)
    assert after.rank.table.semisimple == before.rank.table.semisimple
    assert _same_multiplier_multiset(
        [c.multipliers for c in after.rank.table.characters],
        [c.multipliers for c in before.rank.table.characters])
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("group", [
    "cubic_T3", "pell_plus_torsion", "parabolic_T2",
    *(str(DATA / f"{name}.json") for name in (
        "pell2_pell3_i", "diag_cc_pair_T6", "seed41_pair_zero",
        "parabolic_pow5_T2"))], ids=lambda group: Path(group).stem)
def test_reversed_generators_reverse_the_kernel_of_pi(group):
    # the one relation search over the generators' log vectors does not
    # depend on their order: reversing them reverses every kernel word
    start = time.perf_counter()
    spec = load_group_argument(group)[0]
    before = analyze_group(spec)
    after = analyze_group(GroupSpec(spec.generators[::-1]))
    reversed_kernel = hermite_normal_form_rows(
        [row[::-1] for row in before.rank.kernel.basis])[0]
    assert after.rank.kernel.basis == tuple(
        tuple(row) for row in reversed_kernel if any(row))
    assert after.rank.rank == before.rank.rank
    assert after.decomposition.u_order == before.decomposition.u_order
    assert time.perf_counter() - start < 10
