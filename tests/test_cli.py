"""End-to-end tests of the command-line surface and its JSON contracts."""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
import sympy

from toraldyn import cohomology, group_structure
from toraldyn.cli import (EXIT_INVALID, EXIT_OK, EXIT_VIOLATION,
                          build_analysis_report, load_group_argument, main)
from toraldyn.example_forge import builtin, builtin_names

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "perfbench" / "golden"
SRC_DIR = ROOT / "src"


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _json_of(stdout):
    return json.loads(stdout)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_pell_plus_torsion(capsys):
    code, out, _ = _run(capsys, "analyze", "pell_plus_torsion")
    assert code == EXIT_OK
    rep = _json_of(out)
    assert rep["rank"] == "1"
    assert rep["decomposition"]["u_order"] == "4"
    assert rep["decomposition"]["u_finite"] is True
    assert rep["commuting"] is True


def test_analyze_parabolic(capsys):
    code, out, _ = _run(capsys, "analyze", "parabolic_T2")
    assert code == EXIT_OK
    rep = _json_of(out)
    assert rep["rank"] == "0"
    assert all(g["classification"] == "parabolic"
               for g in rep["generators"])
    assert all(g["entropy"]["interval"] == ["0/1", "0/1"]
               for g in rep["generators"])


def test_analyze_gaussian_finite_order(tmp_path, capsys):
    # A = [[-i, 0], [1+i, i]] has charpoly x^2 + 1, which splits over Q(i)
    path = tmp_path / "gauss.json"
    path.write_text(json.dumps({
        "kind": "torus_group", "complex_dim": 2,
        "generators": [{"name": "A", "matrix": [[["0", "-1"], ["0", "0"]],
                                                [["1", "1"], ["0", "1"]]]}]}))
    code, out, _ = _run(capsys, "analyze", str(path))
    assert code == EXIT_OK
    rep = _json_of(out)
    assert rep["generators"][0]["classification"] == \
        "finite_order_on_cohomology"
    assert rep["rank"] == "0"
    assert rep["decomposition"]["u_order"] == "4"
    assert rep["decomposition"]["relation_lattice"]["basis"] == [["4"]]


def _gaussian_spec(rows):
    return {"kind": "torus_group", "complex_dim": str(len(rows)),
            "generators": [{"name": "g", "matrix": [
                [[str(re), str(im)] for re, im in row]
                for row in rows]}]}


def _mpmath_entropy(rows):
    """2 * sum of log|lambda| over |lambda| > 1, from 50-digit eigenvalues."""
    with mpmath.workdps(50):
        A = mpmath.matrix([[mpmath.mpc(re, im) for re, im in row]
                           for row in rows])
        moduli = [abs(v) for v in mpmath.eig(A, left=False, right=False)]
        return 2 * sum((mpmath.log(m) for m in moduli
                        if m > 1 + mpmath.mpf(10) ** -20), mpmath.mpf(0))


@pytest.mark.parametrize("rows, budget", [
    # SL(2, Z[i]) with non-real trace: the charpoly has Gaussian
    # coefficients, so its eigenvalues go through the real-algebraic kernel
    ([[(1, 1), (1, 0)], [(0, 1), (1, 0)]], 10),           # [[1+i,1],[i,1]]
    ([[(2, 1), (1, 0)], [(1, 1), (1, 0)]], 10),           # [[2+i,1],[1+i,1]]
    # the companion matrix of x^4 - x + 1: four non-real eigenvalues
    ([[(0, 0), (0, 0), (0, 0), (-1, 0)], [(1, 0), (0, 0), (0, 0), (1, 0)],
      [(0, 0), (1, 0), (0, 0), (0, 0)], [(0, 0), (0, 0), (1, 0), (0, 0)]],
     10),
], ids=["one_plus_i", "two_plus_i", "companion_x4_minus_x_plus_1"])
def test_analyze_nonreal_spectrum(tmp_path, capsys, rows, budget):
    # time budget: `budget` seconds in-process (the non-real examples used
    # to end in a NotAlgebraic traceback or run past 180 s)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_gaussian_spec(rows)))
    start = time.perf_counter()
    code, out, err = _run(capsys, "analyze", str(path))
    elapsed = time.perf_counter() - start
    assert code == EXIT_OK, err
    assert elapsed < budget, f"{elapsed:.1f}s over the {budget}s budget"
    rep = _json_of(out)
    gen = rep["generators"][0]
    assert gen["classification"] == "positive_entropy"
    assert rep["rank"] == "1"
    lo, hi = (Fraction(v) for v in gen["entropy"]["interval"])
    h = _mpmath_entropy(rows)
    with mpmath.workdps(50):
        assert (mpmath.mpf(lo.numerator) / lo.denominator <= h
                <= mpmath.mpf(hi.numerator) / hi.denominator)
    # the multipliers of a non-real spectrum print kernel intervals
    for row in rep["characters"]["modulus_squared"]:
        for entry in row:
            a, b = (Fraction(v) for v in entry["interval"])
            assert 0 <= b - a <= Fraction(1, 10**12)


def test_analyze_non_commuting_exits_3(tmp_path, capsys):
    spec = {
        "kind": "torus_group", "complex_dim": 2,
        "generators": [
            {"name": "a", "matrix": [[["2", "0"], ["1", "0"]],
                                     [["1", "0"], ["1", "0"]]]},
            {"name": "b", "matrix": [[["1", "0"], ["1", "0"]],
                                     [["0", "0"], ["1", "0"]]]}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code, out, err = _run(capsys, "analyze", str(path))
    assert code == EXIT_INVALID
    assert "commute" in err
    assert _json_of(out)["non_commuting_witness"] == ["0", "1"]


def test_analyze_unknown_name_exits_3(capsys):
    code, _, err = _run(capsys, "analyze", "not_a_builtin")
    assert code == EXIT_INVALID and "builtin" in err


def test_analyze_malformed_matrix_exits_3(tmp_path, capsys):
    spec = {"kind": "torus_group", "complex_dim": 2,
            "generators": [{"name": "a", "matrix": [[["1", "0"]]]}]}
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(spec))
    code, _, err = _run(capsys, "analyze", str(path))
    assert code == EXIT_INVALID


def test_analyze_non_unit_determinant_exits_3(tmp_path, capsys):
    spec = {"kind": "torus_group", "complex_dim": 2,
            "generators": [{"name": "a",
                            "matrix": [[["2", "0"], ["0", "0"]],
                                       [["0", "0"], ["1", "0"]]]}]}
    path = tmp_path / "nonunit.json"
    path.write_text(json.dumps(spec))
    code, _, err = _run(capsys, "analyze", str(path))
    assert code == EXIT_INVALID


def test_analyze_writes_json_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _, _ = _run(capsys, "analyze", "pell_T2", "--json", str(out_file))
    assert code == EXIT_OK
    rep = json.loads(out_file.read_text())
    assert rep["rank"] == "1"
    ent = rep["generators"][0]["entropy"]
    assert ent["approx_is_approximation"] is True
    assert float(ent["approx"]) == pytest.approx(
        2 * math.log(1 + math.sqrt(2)), abs=1e-9)


def test_analyze_number_field_spec(tmp_path, capsys):
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"kind": "number_field",
                                "min_poly": ["1", "0", "-2"],
                                "coeff_bound": 3}))
    code, out, _ = _run(capsys, "analyze", str(path))
    assert code == EXIT_OK
    rep = _json_of(out)
    assert rep["rank"] == "1"
    assert rep["forged_from"]["min_poly"] == ["1", "0", "-2"]


@pytest.mark.parametrize("name,argv", [
    ("cat_T2", ["analyze", "cat_T2"]),
    ("pell_T2", ["analyze", "pell_T2"]),
    ("parabolic_T2", ["analyze", "parabolic_T2"]),
    ("torsion_i", ["analyze", "torsion_i"]),
    ("pell_plus_torsion", ["analyze", "pell_plus_torsion"]),
    ("cubic_T3", ["analyze", "cubic_T3"]),
    ("forge_cubic", ["forge", "--poly", "1,-1,-2,1"]),
    ("enumerate_2_2", ["enumerate", "--dim", "2", "--bound", "2"]),
])
def test_report_matches_golden(name, argv):
    # a fresh interpreter, as users run it: the printed interval of a bare
    # CRootOf depends on how far sympy's process-wide root cache was refined
    # by earlier computations in the same process
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "toraldyn.cli", *argv],
                          capture_output=True, env=env)
    assert proc.returncode == EXIT_OK, proc.stderr.decode()[-2000:]
    assert proc.stdout == (GOLDEN_DIR / f"{name}.json").read_bytes()


def test_reports_do_not_call_sympy_minimal_polynomial(monkeypatch, capsys):
    # every min_poly and every zero test of these reports is decided by the
    # integer kernel; sympy's minimal_polynomial refines sympy's root cache
    def refuse(*args, **kwargs):
        raise AssertionError("sympy.minimal_polynomial was called")

    monkeypatch.setattr(sympy, "minimal_polynomial", refuse)
    for argv in ([["analyze", name] for name in builtin_names()]
                 + [["forge", "--poly", "1,-1,-2,1"],
                    ["forge", "--poly", "1,-1,-3,1,1", "--bound", "2"]]):
        code, out, err = _run(capsys, *argv)
        assert code == EXIT_OK, (argv, err[-2000:])
        assert _json_of(out)


def test_analysis_computes_each_artifact_once(monkeypatch):
    calls = {"find_characters": 0, "pi_rank": 0}
    # facts certified by construction: the analysis decides none of them
    class_algebra = {"wedge": 0, "is_nef": 0, "pullback": 0}
    moduli = {}

    def counted(tally, name, fn):
        def wrapper(*args):
            tally[name] += 1
            return fn(*args)
        return wrapper

    real_moduli = cohomology.eigenvalue_moduli

    def eigenvalue_moduli(f):
        moduli[f.A] = moduli.get(f.A, 0) + 1
        return real_moduli(f)

    for name in calls:
        monkeypatch.setattr(group_structure, name, counted(
            calls, name, getattr(group_structure, name)))
    for name in class_algebra:
        fn = getattr(cohomology, name)
        for module in (group_structure, cohomology):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name,
                                    counted(class_algebra, name, fn))
    monkeypatch.setattr(cohomology, "eigenvalue_moduli", eigenvalue_moduli)
    cohomology._moduli_squared_desc.cache_clear()
    spec = builtin("cubic_T3")
    analysis = group_structure.analyze_group(spec)
    build_analysis_report(analysis, 12, 0)
    assert calls == {"find_characters": 1, "pi_rank": 1}
    assert sorted(moduli.values()) == [1] * spec.n
    assert class_algebra == {"wedge": 0, "is_nef": 0, "pullback": 0}


def test_analyze_reports_are_deterministic(capsys):
    _, out1, _ = _run(capsys, "analyze", "pell_T2")
    _, out2, _ = _run(capsys, "analyze", "pell_T2")
    assert out1 == out2


# ---------------------------------------------------------------------------
# hodge-check
# ---------------------------------------------------------------------------

def test_hodge_check_k2(capsys):
    code, out, _ = _run(capsys, "hodge-check", "--dim", "2",
                        "--samples", "25", "--seed", "42")
    assert code == EXIT_OK
    rep = _json_of(out)
    assert rep["identity_form"]["passed"] is True
    assert rep["identity_form"]["positive_definite_on_primitive"] is True
    assert rep["semipositivity_fuzz"]["failures"] == "0"


def test_hodge_check_k5_refused(capsys):
    code, _, err = _run(capsys, "hodge-check", "--dim", "5", "--samples", "1")
    assert code == EXIT_INVALID and "budget" in err


# ---------------------------------------------------------------------------
# forge
# ---------------------------------------------------------------------------

def test_forge_pell(capsys):
    code, out, _ = _run(capsys, "forge", "--poly", "1,0,-2", "--bound", "3")
    assert code == EXIT_OK
    doc = _json_of(out)
    assert doc["spec"]["kind"] == "torus_group"
    assert doc["report"]["rank"] == "1"


def test_forge_cubic(capsys):
    code, out, _ = _run(capsys, "forge", "--poly", "1,-1,-2,1")
    assert code == EXIT_OK
    doc = _json_of(out)
    assert doc["report"]["rank"] == "2"
    assert len(doc["spec"]["generators"]) == 2


def test_forge_not_totally_real_refused(capsys):
    code, _, err = _run(capsys, "forge", "--poly", "1,0,0,-2")
    assert code == EXIT_INVALID and "totally real" in err


def test_forge_bad_poly_string(capsys):
    code, _, err = _run(capsys, "forge", "--poly", "1,two,3")
    assert code == EXIT_INVALID


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def test_enumerate_bound_1(capsys):
    code, out, _ = _run(capsys, "enumerate", "--dim", "2", "--bound", "1")
    assert code == EXIT_OK
    rep = _json_of(out)
    assert rep["count"] == "1"
    assert "zero entropy" in rep["gap_statement"]


def test_enumerate_bound_2_minimum(capsys):
    code, out, _ = _run(capsys, "enumerate", "--dim", "2", "--bound", "2")
    assert code == EXIT_OK
    rep = _json_of(out)
    vmin = rep["min_positive_entropy_d1"]
    assert vmin["min_poly"] == ["1", "-7", "1"]
    assert float(vmin["approx"]) == pytest.approx(
        (7 + 3 * math.sqrt(5)) / 2, abs=1e-9)


def test_enumerate_budget_refusal(capsys):
    code, _, err = _run(capsys, "enumerate", "--dim", "4", "--bound", "9")
    assert code == EXIT_INVALID and "budget" in err


# ---------------------------------------------------------------------------
# input contract
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec,argv", [
    ([], None),
    ({"kind": "torus_group", "complex_dim": 2, "generators": "ab"}, None),
    ({"kind": "torus_group", "complex_dim": 2, "generators": [1]}, None),
    ({"kind": "number_field", "min_poly": ["1", "0", "-2"],
      "coeff_bound": "x"}, None),
    (None, ["enumerate", "--dim", "0", "--bound", "2"]),
    (None, ["enumerate", "--dim", "-1", "--bound", "2"]),
    (None, ["enumerate", "--dim", "2", "--bound", "-1"]),
    (None, ["analyze", "cat_T2", "--precision", "-1"]),
    (None, ["hodge-check", "--dim", "2", "--samples", "-5"]),
    ({"kind": "torus_group", "complex_dim": "0",
      "generators": [{"matrix": []}]}, None),
], ids=["list_spec", "string_generators", "non_object_generator",
        "string_coeff_bound", "enumerate_dim_0", "enumerate_dim_negative",
        "enumerate_bound_negative", "negative_precision",
        "negative_samples", "empty_matrix"])
def test_invalid_input_exits_3(tmp_path, capsys, spec, argv):
    if argv is None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = ["analyze", str(path)]
    code, _, err = _run(capsys, *argv)
    assert code == EXIT_INVALID
    assert err.startswith("invalid input:")


def test_expanding_pair_answers_rank_1(tmp_path, capsys):
    # (cat, cat^2): the kernel word is found by LLL on log values scaled to
    # 10^40, beyond where float rounding of mu_kj is exact
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({
        "kind": "torus_group", "complex_dim": 2,
        "generators": [
            {"name": "cat", "matrix": [[["2", "0"], ["1", "0"]],
                                       [["1", "0"], ["1", "0"]]]},
            {"name": "cat2", "matrix": [[["5", "0"], ["3", "0"]],
                                        [["3", "0"], ["2", "0"]]]}]}))
    code, out, _ = _run(capsys, "analyze", str(path))
    assert code == EXIT_OK
    assert _json_of(out)["rank"] == "1"


# ---------------------------------------------------------------------------
# loader
# ---------------------------------------------------------------------------

def test_load_group_argument_builtin():
    spec, forged = load_group_argument("cat_T2")
    assert spec.k == 2 and forged is None
