"""Acceptance suite: nine end-to-end criteria, each with a stated numeric
tolerance and wall-clock budget.  Every test prints a single pass/fail line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them inline)."""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import sympy as sp
from sympy import Matrix

from toraldyn.exact_algebra import X, charpoly, exact_is_zero, real_root
from toraldyn.cohomology import (CohomClass, classify, dynamical_degree,
                                 entropy, enumerate_degree_values,
                                 h11_matrix, intersection_number)
from toraldyn.example_forge import NumberFieldSpec
from toraldyn.integer_model import catalog_group
from toraldyn.group_structure import (assert_structure_theorems, decompose,
                                      find_characters, pi_rank)
from toraldyn.hodge_riemann import gromov_fuzz

from oracles import embedding_entropy, hermitian_basis
from statements import check_hodge_riemann_definite, solve_ab_pair


def _run_criterion(num, budget, body):
    """Run one criterion body, print its verdict line, enforce the budget."""
    t0 = time.perf_counter()
    try:
        detail = body()
        ok = True
    except AssertionError as exc:
        detail = str(exc)
        ok = False
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num}: {status} [{elapsed:.2f}s / budget {budget}s] "
          f"{detail}")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, \
        f"criterion {num} took {elapsed:.2f}s (budget {budget}s)"


# ---------------------------------------------------------------------------
# 1. cat map: certified degree, entropy, classification
# ---------------------------------------------------------------------------

def test_criterion_1_cat_map():
    def body():
        f = catalog_group("cat_T2").generators[0]
        d1 = dynamical_degree(f, 1)
        target = (7 + 3 * sp.sqrt(5)) / 2
        lo, hi = d1.enclosure(Fraction(1, 2 * 10**10))
        assert hi - lo <= Fraction(1, 10**10), "interval too wide"
        t = Fraction(int(sp.floor(target * 10**30)), 10**30)
        assert lo <= t + Fraction(1, 10**29) and t <= hi + Fraction(1, 10**29)
        assert exact_is_zero(sp.expand(d1.expr - target)), "d1 not exact"
        h = float(entropy(f))
        assert abs(h - 2 * math.log((3 + math.sqrt(5)) / 2)) < 1e-9
        assert classify(f) == "positive_entropy"
        return f"d1 = (7+3*sqrt(5))/2 certified to 1e-10, entropy {h:.9f}"
    _run_criterion(1, 1.0, body)


# ---------------------------------------------------------------------------
# 2. Pell group: entropy, rank, binomial bound, wedge chain
# ---------------------------------------------------------------------------

def test_criterion_2_pell_group():
    def body():
        spec = catalog_group("pell_T2")
        h = float(entropy(spec.generators[0]))
        assert abs(h - 2 * math.log(1 + math.sqrt(2))) < 1e-9
        res = pi_rank(spec, find_characters(spec))
        assert res.rank == 1 == spec.k - 1, f"rank {res.rank}"
        rows = assert_structure_theorems(spec, res)
        assert (1, 1, 4, 3) in rows
        assert res.rank + 1 == 2
        return f"entropy {h:.9f}, r = 1 = k-1, 1 <= 3, chain of 2 nonzero"
    _run_criterion(2, 1.0, body)


# ---------------------------------------------------------------------------
# 3. cubic field on T^3: rank 2, bounds, chain, embedding cross-check
# ---------------------------------------------------------------------------

def test_criterion_3_cubic_t3():
    def body():
        spec = catalog_group("cubic_T3")
        a, b = (g.A for g in spec.generators)
        assert a * b == b * a, "generators do not commute"
        assert a.det() == 1 and b.det() == 1, "not in SL(3, Z)"
        res = pi_rank(spec, find_characters(spec))
        assert res.rank == 2 == spec.k - 1, f"rank {res.rank}"
        rows = assert_structure_theorems(spec, res)
        assert math.comb(2, 1) == 2 <= 9 and math.comb(2, 2) == 1 <= 8
        assert rows == [(1, 2, 9, 8), (2, 1, 9, 8)]
        assert res.rank + 1 == 3
        field = NumberFieldSpec((1, -1, -2, 1))
        for g, u in zip(spec.generators, ((0, -1, 0), (-2, 0, 1))):
            cohom = float(entropy(g))
            embed = float(embedding_entropy(field, u))
            assert abs(cohom - embed) < 1e-9, (cohom, embed)
        return "r = 2 = k-1, 2 <= 9 and 1 <= 8, chain of 3, entropy x-check"
    _run_criterion(3, 10.0, body)


# ---------------------------------------------------------------------------
# 4. Pell + torsion: U is Z/4, free part of rank 1
# ---------------------------------------------------------------------------

def test_criterion_4_pell_plus_torsion():
    def body():
        spec = catalog_group("pell_plus_torsion")
        res = pi_rank(spec, find_characters(spec))
        dec = decompose(spec, res)
        assert dec.u_order == 4, "U is not Z/4"
        assert res.rank == 1 and len(res.free_words) == 1
        return "U = Z/4 (order 4), free rank 1"
    _run_criterion(4, 5.0, body)


# ---------------------------------------------------------------------------
# 5. parabolic pair: zero-entropy rank 2 without a theorem violation
# ---------------------------------------------------------------------------

def test_criterion_5_parabolic_pair():
    def body():
        spec = catalog_group("parabolic_T2")
        certificate = sp.Poly((X - 1) ** 4, X)
        for g in spec.generators:
            assert classify(g) == "parabolic"
            assert charpoly(h11_matrix(g)) == certificate
        res = pi_rank(spec, find_characters(spec))
        assert res.rank == 0, f"rank {res.rank}"
        assert Matrix([list(v) for v in res.kernel.basis]).rank() == 2
        return "both parabolic with (x-1)^4 certificate, pi image 0, r = 0"
    _run_criterion(5, 1.0, body)


# ---------------------------------------------------------------------------
# 6. Hodge-Riemann suite: exact PD + 1000 seeded PSD contexts per dimension
# ---------------------------------------------------------------------------

def test_criterion_6_hodge_riemann_suite():
    def body():
        failures = 0
        for k in (2, 3, 4):
            rep = check_hodge_riemann_definite(CohomClass.identity_class(k))
            assert rep.passed, f"identity PD failed at k={k}"
            fuzz = gromov_fuzz(k, 1000, seed=900 + k)
            failures += len(fuzz.failures)
            assert fuzz.samples == 1000
        assert failures == 0, f"{failures} semipositivity failures"
        return "identity PD at k = 2,3,4; 3000 seeded PSD contexts, 0 failures"
    _run_criterion(6, 60.0, body)


# ---------------------------------------------------------------------------
# 7. (a,b)-pair solver vs a high-precision dense nullspace oracle
# ---------------------------------------------------------------------------

def _oracle_direction(c, cprime, ctx):
    """Independent check: the (a,b) kernel of the 9 x 2 system of numeric
    top-intersection numbers, via a 50-digit dense SVD."""
    mpmath.mp.dps = 50
    rows = []
    for E in hermitian_basis(3):
        Ec = CohomClass.from_hermitian(E)
        rows.append([mpmath.mpf(str(sp.N(
            intersection_number([cl, ctx[0], Ec]), 40)))
            for cl in (c, cprime)])
    A = mpmath.matrix(rows)
    _U, S, V = mpmath.svd_r(A)
    assert S[0] > 1e-20 and S[1] < 1e-20 * S[0], "oracle: kernel not 1-dim"
    return (V[1, 0], V[1, 1])


def test_criterion_7_ab_solver_vs_oracle():
    def body():
        rng = random.Random(735)
        count = 0
        while count < 100:
            u = Matrix([rng.randint(-2, 2) for _ in range(3)])
            w = Matrix([rng.randint(-2, 2) for _ in range(3)])
            if u.cross(w).norm() == 0:
                continue
            s, t = rng.randint(1, 3), rng.randint(1, 3)
            v = s * u + t * w
            c = CohomClass.from_hermitian(w * w.T)
            cp = CohomClass.from_hermitian(v * v.T)
            ctx = [CohomClass.from_hermitian(u * u.T)]
            res = solve_ab_pair(c, cp, ctx)
            assert res.status == "solved", res.status
            assert res.unique and res.kernel_dimension == 1
            ox, oy = _oracle_direction(c, cp, ctx)
            ax = mpmath.mpf(str(sp.N(res.a, 40)))
            ay = mpmath.mpf(str(sp.N(res.b, 40)))
            dot = abs(ax * ox + ay * oy)
            cosang = dot / (mpmath.sqrt(ax**2 + ay**2)
                            * mpmath.sqrt(ox**2 + oy**2))
            angle = mpmath.acos(min(mpmath.mpf(1), cosang))
            assert angle < 1e-9, f"angle {angle}"
            count += 1
        return "100 degenerate instances, line agreement < 1e-9, kernel 1-dim"
    _run_criterion(7, 30.0, body)


# ---------------------------------------------------------------------------
# 8. discreteness of d_1 at desk scale: exact minimum at entry bound 2
# ---------------------------------------------------------------------------

def test_criterion_8_degree_discreteness():
    def body():
        values = enumerate_degree_values(2, 2)
        assert len(values) < 50, "value set not finite at desk scale"
        positive = [v for v in values if real_root(v).compare(1) > 0]
        vmin = positive[0]
        target = sp.expand(((3 + sp.sqrt(5)) / 2) ** 2)
        assert exact_is_zero(sp.expand(vmin.expr - target)), \
            f"minimum {vmin.expr} != ((3+sqrt(5))/2)^2"
        assert real_root(vmin).poly == (1, -7, 1)
        return (f"{len(values)} distinct d1 values; min positive-entropy "
                "value = ((3+sqrt(5))/2)^2 exactly")
    _run_criterion(8, 30.0, body)


# ---------------------------------------------------------------------------
# 9. property suites: >= 100 cases each, zero failures
# ---------------------------------------------------------------------------

def test_criterion_9_property_suites():
    def body():
        suite = Path(__file__).parent / "test_properties.py"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", str(suite), "-q"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout[-2000:]
        return "all property suites green (100+ cases each)"
    _run_criterion(9, 120.0, body)
